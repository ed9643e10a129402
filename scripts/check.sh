#!/usr/bin/env bash
# Single CI entry point: tier-1 tests plus every cheap smoke gate.
#
#   scripts/check.sh            # lint, tier-1 + seven smoke gates: perf,
#                               # pipeline, service, server, chaos, sat, obs
#   scripts/check.sh --fast     # lint + tier-1 only
#
# The smoke gates are tier-1-sized versions of the heavy benchmark
# contracts: parallel-vs-serial record identity (--perf-smoke), every
# registered pipeline preset routing validly (--pipeline-smoke),
# submit -> cache-hit -> batch through the compilation service
# (--service-smoke, refreshing BENCH_service.json), the HTTP serving
# front-end driven over an ephemeral port — sync compile, async job,
# warm-hit speedup (--server-smoke, refreshing BENCH_server.json), and
# the fault-injection scenarios — worker crash, corrupt cache entry,
# connection reset, SIGKILL + journal recovery (--chaos-smoke,
# refreshing BENCH_chaos.json), and the exact-SAT search contract —
# incremental/cube sweeps matching the seed strategy's optima and lower
# bounds with >= 3x fewer conflicts (--sat-smoke, refreshing
# BENCH_sat.json), and the observability contract — a served batch with
# tracing + metrics armed whose /v1/metrics scrape parses and whose
# span tree reconstructs (--obs-smoke, refreshing BENCH_obs.json).
#
# Before any of that, the contract linter (repro.lint) must come back
# clean against the committed baseline — it is the cheapest gate and
# catches determinism, seed-flow, lock and exception-safety regressions
# statically.
# --fail-stale makes leftover baseline entries a hard failure (prune
# with `python -m repro.lint ... --prune-baseline`).  The run refreshes
# BENCH_lint.json so bench_report.py tracks analyzer wall-clock (and
# per-rule timings) alongside the other benchmarks.  The total line count
# of src/repro is printed after it.

set -euo pipefail
cd "$(dirname "$0")/.."

export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"

echo "== contract linter: python -m repro.lint src/ benchmarks/ scripts/"
python -m repro.lint src/ benchmarks/ scripts/ --fail-stale \
    --bench-json BENCH_lint.json

# Tracked size: every change's net src/ delta shows up here.
echo "== src/repro: $(find src/repro -name '*.py' -print0 | xargs -0 cat \
    | wc -l) lines of Python"

echo
echo "== tier-1: python -m pytest -x -q"
python -m pytest -x -q

if [[ "${1:-}" == "--fast" ]]; then
    exit 0
fi

echo
echo "== smoke gates: pytest benchmarks --perf-smoke --pipeline-smoke --service-smoke --server-smoke --chaos-smoke --sat-smoke --obs-smoke"
python -m pytest benchmarks --perf-smoke --pipeline-smoke --service-smoke --server-smoke --chaos-smoke --sat-smoke --obs-smoke -q
