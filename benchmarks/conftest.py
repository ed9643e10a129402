"""Shared benchmark configuration.

Benchmarks double as experiment regenerators: each file covers one table or
figure of the paper (see DESIGN.md's experiment index), times a
representative unit of work with pytest-benchmark, and prints the
paper-style rows once per session.  Scale knobs live in environment
variables so paper-scale runs do not require code edits:

* ``QUBIKOS_BENCH_PER_POINT``  — circuits per (arch, swap-count) point
* ``QUBIKOS_BENCH_GATE_SCALE`` — fraction of the paper's gate counts
* ``QUBIKOS_BENCH_TRIALS``     — LightSABRE trial count
"""

import os

import pytest


def pytest_addoption(parser):
    parser.addoption(
        "--perf-smoke", action="store_true", default=False,
        help="run only the tiny parallel-vs-serial harness equivalence "
             "check (tier-1 CI scale); every heavy benchmark is skipped",
    )
    parser.addoption(
        "--pipeline-smoke", action="store_true", default=False,
        help="run only the tiny every-registered-pipeline-spec check "
             "(tier-1 CI scale); every heavy benchmark is skipped",
    )
    parser.addoption(
        "--service-smoke", action="store_true", default=False,
        help="run only the tiny submit -> cache-hit -> batch service "
             "check (tier-1 CI scale); every heavy benchmark is skipped",
    )
    parser.addoption(
        "--server-smoke", action="store_true", default=False,
        help="run only the tiny HTTP-server check (ephemeral port, sync + "
             "async job batch, warm-hit speedup -> BENCH_server.json); "
             "every heavy benchmark is skipped",
    )
    parser.addoption(
        "--chaos-smoke", action="store_true", default=False,
        help="run only the fault-injection scenarios (worker crash, "
             "corrupt cache entry, connection reset, SIGKILL + journal "
             "recovery -> BENCH_chaos.json); every heavy benchmark is "
             "skipped",
    )
    parser.addoption(
        "--sat-smoke", action="store_true", default=False,
        help="run only the exact-SAT search check (incremental vs seed "
             "strategy agreement + conflict ratio, cube-and-conquer, "
             "frontier instance -> BENCH_sat.json); every heavy "
             "benchmark is skipped",
    )
    parser.addoption(
        "--obs-smoke", action="store_true", default=False,
        help="run only the observability check (served batch with tracing "
             "+ metrics armed: /v1/metrics parses, span tree "
             "reconstructs -> BENCH_obs.json); every heavy benchmark is "
             "skipped",
    )


#: Smoke gates: CLI flag -> test-name marker.  Each flag selects only the
#: tests whose name contains its marker; without any flag the smoke tests
#: are skipped (they duplicate what the heavy benchmarks prove).
SMOKE_GATES = {
    "--perf-smoke": "perf_smoke",
    "--pipeline-smoke": "pipeline_smoke",
    "--service-smoke": "service_smoke",
    "--server-smoke": "server_smoke",
    "--chaos-smoke": "chaos_smoke",
    "--sat-smoke": "sat_smoke",
    "--obs-smoke": "obs_smoke",
}


def pytest_collection_modifyitems(config, items):
    """Smoke flags invert the default selection.

    Normally the smoke checks are skipped; with ``--perf-smoke`` and/or
    ``--pipeline-smoke``, *only* the matching ``*_smoke`` tests run, so
    ``pytest benchmarks --perf-smoke --pipeline-smoke`` is cheap enough
    for tier-1 CI.
    """
    enabled = {marker for flag, marker in SMOKE_GATES.items()
               if config.getoption(flag)}
    skip_heavy = pytest.mark.skip(reason="skipped in smoke mode")
    skip_smoke = pytest.mark.skip(
        reason="enable with " + " / ".join(SMOKE_GATES)
    )
    for item in items:
        markers = {m for m in SMOKE_GATES.values() if m in item.name}
        if enabled:
            if not (markers & enabled):
                item.add_marker(skip_heavy)
        elif markers:
            item.add_marker(skip_smoke)


def env_int(name, default):
    return int(os.environ.get(name, default))


def env_float(name, default):
    return float(os.environ.get(name, default))


@pytest.fixture(scope="session")
def bench_scale():
    """Laptop-scale defaults; override via environment for paper scale."""
    return {
        "per_point": env_int("QUBIKOS_BENCH_PER_POINT", 2),
        "gate_scale": env_float("QUBIKOS_BENCH_GATE_SCALE", 0.15),
        "sabre_trials": env_int("QUBIKOS_BENCH_TRIALS", 4),
        "seed": env_int("QUBIKOS_BENCH_SEED", 2025),
    }


def print_banner(title):
    print()
    print("=" * 72)
    print(title)
    print("=" * 72)
