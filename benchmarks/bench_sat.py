"""Exact-SAT search benchmarks: incremental k-sweep vs the seed per-k
re-encode strategy, cube-and-conquer agreement, and the propagation hot
loop — recorded in ``BENCH_sat.json`` at the repo root::

    pytest benchmarks --sat-smoke

Checks (all on the pure-Python backend, so results are host-independent):

* **Agreement** — fresh (seed-strategy), incremental, and 2-cube parallel
  search return the same ``optimal_swaps`` and the same machine-checked
  ``proven_lower_bound`` on every instance;
* **Work** — the seed strategy needs >= 3x the incremental sweep's
  conflicts, summed over the bench instance set (a count, so the gate
  does not drift with host or kernel speed; the wall-clock speedup is
  recorded and printed, not gated);
* **Frontier** — one instance the seed strategy cannot close within a
  per-call conflict budget that the incremental sweep solves to proven
  optimality under the same budget (a conflict count, not seconds, so
  the verdict does not depend on the host's speed);
* **Throughput** — two-watched-literal propagation rate of the solver.
"""

import json
import os
import time
from pathlib import Path

from repro.arch import get_architecture
from repro.qls.exact import ExactSolver
from repro.qubikos import generate

from conftest import print_banner

OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_sat.json"

#: (architecture, designed swaps, two-qubit gates, seed) — small enough
#: for the pure-Python backend, large enough that search dominates
#: encoding.  max_swaps = designed + 2 exercises UNSAT iterations.
BENCH_INSTANCES = [
    ("grid3x3", 4, 24, 11),
    ("tshape9", 4, 18, 9),
    ("tshape9", 5, 20, 33),
    ("line8", 4, 14, 5),
    ("line8", 5, 16, 15),
    ("ring8", 4, 16, 21),
]

#: The seed strategy cannot close this instance within FRONTIER_CONFLICTS
#: conflicts per solve call (its k=5 call needs 6,313); the incremental
#: sweep proves optimality well inside it (its largest call needs 899).
FRONTIER = ("grid3x3", 6, 36, 23)
FRONTIER_CONFLICTS = 2500

#: The tiny E1 instance used across the repo's smoke checks.
E1_SMOKE = ("grid3x3", 2, 24, 31)


def _instance(arch, swaps, gates, seed):
    device = get_architecture(arch)
    return device, generate(device, num_swaps=swaps,
                            num_two_qubit_gates=gates, seed=seed,
                            ordering_mode="pruned")


def _timed_solve(solver, circuit, device):
    start = time.perf_counter()
    outcome = solver.solve(circuit, device)
    return outcome, time.perf_counter() - start


def test_sat_smoke_incremental_vs_seed_strategy():
    """Same answers, same proofs, >= 3x fewer conflicts — then write the
    record."""
    rows = []
    fresh_total = incremental_total = 0.0
    fresh_conflicts = incremental_conflicts = 0
    for arch, swaps, gates, seed in BENCH_INSTANCES:
        device, instance = _instance(arch, swaps, gates, seed)
        max_swaps = swaps + 2
        fresh, fresh_s = _timed_solve(
            ExactSolver(max_swaps=max_swaps, incremental=False),
            instance.circuit, device,
        )
        incr, incr_s = _timed_solve(
            ExactSolver(max_swaps=max_swaps),
            instance.circuit, device,
        )
        # Identical optimum, identical machine-checked lower bound, and
        # both match the QUBIKOS-designed optimum.
        assert fresh.optimal_swaps == incr.optimal_swaps == swaps
        assert fresh.proven_lower_bound == incr.proven_lower_bound == swaps
        assert [s["k"] for s in fresh.solver_stats] == \
            [s["k"] for s in incr.solver_stats]
        fresh_total += fresh_s
        incremental_total += incr_s
        fresh_conflicts += fresh.totals.get("conflicts", 0)
        incremental_conflicts += incr.totals.get("conflicts", 0)
        rows.append({
            "arch": arch, "swaps": swaps, "gates": gates, "seed": seed,
            "optimal": incr.optimal_swaps,
            "lower_bound": incr.proven_lower_bound,
            "seed_strategy_seconds": round(fresh_s, 3),
            "incremental_seconds": round(incr_s, 3),
            "ratio": round(fresh_s / incr_s, 2),
            "seed_strategy_conflicts": fresh.totals.get("conflicts", 0),
            "incremental_conflicts": incr.totals.get("conflicts", 0),
        })
    speedup = fresh_total / incremental_total
    conflict_ratio = fresh_conflicts / incremental_conflicts
    assert conflict_ratio >= 3.0, (
        f"the seed strategy must need >=3x the incremental sweep's "
        f"conflicts, got {fresh_conflicts}/{incremental_conflicts} = "
        f"{conflict_ratio:.2f}x ({rows})"
    )

    # -- cube-and-conquer agreement on the shared E1 smoke instance -------
    arch, swaps, gates, seed = E1_SMOKE
    device, instance = _instance(arch, swaps, gates, seed)
    serial, _ = _timed_solve(ExactSolver(max_swaps=swaps + 1),
                             instance.circuit, device)
    cube, cube_s = _timed_solve(
        ExactSolver(max_swaps=swaps + 1, workers=2, max_cubes=2),
        instance.circuit, device,
    )
    assert cube.mode == "cube"
    assert cube.optimal_swaps == serial.optimal_swaps == swaps
    assert cube.proven_lower_bound == serial.proven_lower_bound

    # -- frontier: seed strategy cannot close, incremental can ------------
    arch, swaps, gates, seed = FRONTIER
    device, instance = _instance(arch, swaps, gates, seed)
    blocked, _ = _timed_solve(
        ExactSolver(max_swaps=swaps + 1, incremental=False,
                    conflict_limit=FRONTIER_CONFLICTS),
        instance.circuit, device,
    )
    assert blocked.optimal_swaps is None and blocked.timed_out, (
        "expected the seed strategy to exhaust its budget on the "
        "frontier instance"
    )
    closed, closed_s = _timed_solve(
        ExactSolver(max_swaps=swaps + 1, conflict_limit=FRONTIER_CONFLICTS),
        instance.circuit, device,
    )
    assert closed.optimal_swaps == swaps, (
        "expected the incremental sweep to close the frontier instance "
        f"within {FRONTIER_CONFLICTS} conflicts per call"
    )

    # -- propagation hot-loop throughput ----------------------------------
    device, instance = _instance("grid3x3", 4, 30, 29)
    outcome, seconds = _timed_solve(ExactSolver(max_swaps=5),
                                    instance.circuit, device)
    props_per_second = int(outcome.totals["propagations"] / seconds)

    payload = {
        "instances": rows,
        "aggregate": {
            "seed_strategy_seconds": round(fresh_total, 3),
            "incremental_seconds": round(incremental_total, 3),
            "speedup": round(speedup, 2),
            "seed_strategy_conflicts": fresh_conflicts,
            "incremental_conflicts": incremental_conflicts,
            "conflict_ratio": round(conflict_ratio, 2),
        },
        "cube": {
            "instance": dict(zip(("arch", "swaps", "gates", "seed"),
                                 E1_SMOKE)),
            "workers": 2,
            "agrees_with_serial": True,
            "seconds": round(cube_s, 3),
            "pool_fallbacks": sum(s.get("pool_fallbacks", 0)
                                  for s in cube.solver_stats),
        },
        "frontier": {
            "instance": dict(zip(("arch", "swaps", "gates", "seed"),
                                 FRONTIER)),
            "conflict_limit": FRONTIER_CONFLICTS,
            "seed_strategy": {
                "timed_out": True,
                "proven_lower_bound": blocked.proven_lower_bound,
            },
            "incremental": {
                "optimal_swaps": closed.optimal_swaps,
                "seconds": round(closed_s, 3),
            },
        },
        "propagation": {
            "propagations_per_second": props_per_second,
            "propagations": outcome.totals["propagations"],
        },
        "backend": "python",
        "cpus": os.cpu_count(),
    }
    OUTPUT.write_text(json.dumps(payload, indent=2) + "\n")

    print_banner("Exact SAT search: incremental sweep vs seed strategy")
    print(f"{'instance':<22}{'seed-strategy':>14}{'incremental':>13}"
          f"{'ratio':>7}")
    for row in rows:
        name = f"{row['arch']}/{row['swaps']}sw/{row['gates']}g"
        print(f"{name:<22}{row['seed_strategy_seconds']:>13.2f}s"
              f"{row['incremental_seconds']:>12.2f}s"
              f"{row['ratio']:>6.1f}x")
    print(f"{'aggregate':<22}{fresh_total:>13.2f}s"
          f"{incremental_total:>12.2f}s{speedup:>6.1f}x")
    print(f"conflicts: seed strategy {fresh_conflicts:,}, incremental "
          f"{incremental_conflicts:,} ({conflict_ratio:.2f}x)")
    print(f"frontier {FRONTIER[0]}/{FRONTIER[1]}sw: seed strategy UNKNOWN "
          f"within {FRONTIER_CONFLICTS} conflicts per call; incremental "
          f"optimal={closed.optimal_swaps} in {closed_s:.2f}s")
    print(f"propagation throughput: {props_per_second:,} props/s")
    print(f"BENCH_sat.json written to {OUTPUT}")


def test_exact_backend_and_mode_matrix():
    """Heavy check: every available backend x mode agrees on a small
    instance (external engines join automatically when installed)."""
    from repro.sat import available_backends

    device, instance = _instance("grid3x3", 3, 24, 7)
    reference = None
    for name in sorted(available_backends()):
        for incremental in (True, False):
            outcome = ExactSolver(max_swaps=4, backend=name,
                                  incremental=incremental).solve(
                instance.circuit, device
            )
            answer = (outcome.optimal_swaps, outcome.proven_lower_bound)
            if reference is None:
                reference = answer
            assert answer == reference, (
                f"backend {name} (incremental={incremental}) disagreed: "
                f"{answer} != {reference}"
            )
    assert reference == (3, 3)
