"""End-to-end benchmark of the QLS reproduction: ``suite``, ``serve``, ``exact``.

Run from the repository root::

    python3 perfbench/run.py --workload suite --seed 2025 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload

``--trace 0`` measures with every telemetry source off and ends with one
JSON line holding the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced passes of the same input,
prints the per-layer table of the traced passes and ends with the
per-layer metrics.  See ``perfbench/README.md`` for what each workload
and metric is for.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from the first line on

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("suite", "serve", "exact")
DEFAULT_SEED = 2025
#: Set-up is timed in this process and in this many fresh probe
#: processes before the measured passes and as many after them, and
#: reported as the median.  One set-up takes 0.4-1.3 s, and
#: back-to-back set-ups moved 0.43-0.71 s with the host's speed from one
#: second to the next, so the samples are spread over the whole run.
SETUP_PROBES_EACH_SIDE = 3
#: The traced layer rows must cover the pass wall time to within this
#: share; what they do not cover is printed as "unattributed".
LAYER_TOLERANCE = 0.10


def _metric_specs():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as handle:
        spec = json.load(handle)
    return spec["end_to_end"], spec["per_layer"]


def _cpu_times():
    """(steal, total) jiffies over all CPUs, from ``/proc/stat``."""
    with open("/proc/stat", encoding="ascii") as handle:
        fields = [int(f) for f in handle.readline().split()[1:]]
    # user nice system idle iowait irq softirq steal [guest guest_nice]:
    # guest time is already counted in user and nice.
    return (fields[7] if len(fields) > 7 else 0), sum(fields[:8])


def _setup_probe(args) -> float:
    """Set up the workload in a fresh process; its set-up seconds."""
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def _measure(workload, seconds: float, trace: bool):
    """Whole passes over the fixed input until ``seconds`` of measured
    time would be exceeded by one more pass (at least one pass; with
    ``trace`` at least one untraced and one traced, alternating)."""
    modes = (False, True) if trace else (False,)
    passes = []
    measured = 0.0
    while True:
        traced = modes[len(passes) % len(modes)]
        result = workload.run_pass(traced)
        passes.append(result)
        measured += result["wall"]
        if len(passes) >= len(modes) \
                and measured * (len(passes) + 1) / len(passes) > seconds:
            return passes


def _print_table(title, rows, unit="s") -> None:
    print(title)
    for name, value in rows:
        print(f"  {name:<52} {value:12.4f} {unit}")


def run_workload(args) -> int:
    load_at_start = list(os.getloadavg())
    times_at_start = _cpu_times()
    if not (SRC / "repro").is_dir():
        print(f"error: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    end_to_end_specs, per_layer_specs = _metric_specs()
    module = importlib.import_module(args.workload)

    if args.setup_probe:
        workload = module.Workload(args.seed)
        setup_s = time.perf_counter() - _T0
        workload.close()
        print(json.dumps({"setup_s": setup_s}))
        return 0

    workload = module.Workload(args.seed)
    setup_samples = [time.perf_counter() - _T0]
    try:
        setup_samples += [_setup_probe(args)
                          for _ in range(SETUP_PROBES_EACH_SIDE)]
        passes = _measure(workload, args.seconds, bool(args.trace))
    finally:
        workload.close()
    setup_samples += [_setup_probe(args)
                      for _ in range(SETUP_PROBES_EACH_SIDE)]

    checks = workload.check(passes)
    untraced = [p for p in passes if not p["traced"]]
    traced = [p for p in passes if p["traced"]]
    import numpy
    steal, total = (now - then for now, then
                    in zip(_cpu_times(), times_at_start))
    # The share of CPU time the hypervisor gave to other guests during
    # the run: the usual cause of a run that is slow for no reason.
    host = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "loadavg_at_start": load_at_start,
            "cpu_steal_share": round(steal / total, 4) if total else 0.0,
            "seed": args.seed}
    measured = {"setup_s": statistics.median(setup_samples),
                "peak_rss_mb": max(p["rss"] for p in untraced),
                **workload.end_to_end(untraced)}
    error_share = checks["failed"] / checks["attempted"]

    print(f"== {args.workload}: {len(untraced)} untraced and {len(traced)} "
          f"traced passes of {workload.unit}")
    print("host " + json.dumps(host, sort_keys=True))
    print("fingerprint " + json.dumps(checks["fingerprint"], sort_keys=True))
    for error in checks["errors"][:20]:
        print("CHECK FAILED: " + error)
    print(f"end to end (untraced; set-up over {len(setup_samples)} "
          "samples):")
    for spec in end_to_end_specs:
        print(f"  {spec['name']:<20} {measured[spec['name']]:14.4f} "
              f"{spec['unit']}")
    print(f"  {'error_share':<20} {error_share:14.4f} ratio")

    if args.trace:
        layer = workload.per_layer(traced, untraced)
        rows = workload.layer_table(traced)
        wall = statistics.mean(p["wall"] for p in traced)
        reference = statistics.mean(p["wall"] for p in untraced)
        unattributed = wall - sum(value for _, value in rows)
        layer["trace.overhead_share"] = wall / reference - 1.0
        layer["trace.unattributed_share"] = unattributed / wall
        rows.append(("unattributed (waiting, harness, loop)", unattributed))
        _print_table(f"layers, one traced pass (wall {wall:.4f} s; "
                     f"untraced {reference:.4f} s; tracing overhead "
                     f"{layer['trace.overhead_share']:+.2%}):", rows)
        within = abs(unattributed) <= LAYER_TOLERANCE * wall
        print(f"  layers cover the wall time to {unattributed / wall:+.2%}: "
              + ("within" if within else "OUTSIDE")
              + f" the {LAYER_TOLERANCE:.0%} tolerance")
        # A layer this workload never calls did no work in it: 0.
        metrics = {spec["name"]: {"value": layer.get(spec["name"], 0),
                                  "unit": spec["unit"]}
                   for spec in per_layer_specs}
        _print_table("per-layer metrics:",
                     [(name, m["value"]) for name, m in metrics.items()
                      if name in layer], unit="")
    else:
        metrics = {spec["name"]: {"value": measured[spec["name"]],
                                  "unit": spec["unit"]}
                   for spec in end_to_end_specs}
    print(json.dumps({
        "correct": checks["failed"] == 0 and not checks["errors"],
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; one combined result line."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            return done.returncode or 1
        print("\n".join(lines[:-1]), flush=True)
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    # A shell that starts us in the background ignores SIGINT, and the
    # compile server inherits that; it must see SIGINT to shut down
    # cleanly, so restore the default handler before starting anything.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="measured time per run, in whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
