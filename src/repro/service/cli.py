"""``python -m repro.service`` — serving, batch compilation, cache management.

Usage::

    # Long-running HTTP front-end (see repro.service.server for routes):
    python -m repro.service serve --port 8000 --cache-dir .qls-cache \
        --workers 4 --max-entries 10000 --max-bytes 500000000 \
        --journal jobs.jsonl --max-queued 64 \
        --trace trace.jsonl --profile

    # Compile a JSONL stream of CompileRequest payloads (one per line):
    python -m repro.service batch requests.jsonl --out responses.jsonl \
        --cache-dir .qls-cache --workers 4

    # Inspect / clear a persistent cache directory:
    python -m repro.service cache-info  --cache-dir .qls-cache
    python -m repro.service cache-clear --cache-dir .qls-cache

    # Generate a demo request stream (QUBIKOS instances -> requests):
    python -m repro.service make-requests --device aspen4 --count 4 \
        --spec sabre --seed 3 --out requests.jsonl

``batch`` reads one :class:`~repro.service.api.CompileRequest` JSON object
per line, resolves the batch through a
:class:`~repro.service.service.CompilationService` (cache-first, misses
fanned over a worker pool), writes one
:class:`~repro.service.api.CompileResponse` JSON object per line, and
prints a hit/miss/wall-clock summary.  A malformed line — bad JSON, bad
payload, unknown device or spec — does **not** abort the batch: it is
reported to stderr with its line number, a ``BatchError`` record holding
the line number and reason takes its place in the output stream (line
order preserved), and the exit code is 2 to signal partial failure (0 =
every line compiled).  Rerunning the same batch against the same
``--cache-dir`` reports 100% hits and pays only lookup time.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import List, Optional, Tuple

from ..qls.base import QLSError
from .api import CompileRequest, REQUEST_SCHEMA_VERSION
from .cache import ResultCache
from .fingerprint import canonical_json
from .service import CompilationService


def _build_cache(args: argparse.Namespace) -> ResultCache:
    return ResultCache(
        capacity=args.capacity,
        directory=args.cache_dir,
        max_entries=args.max_entries,
        max_bytes=args.max_bytes,
        max_age_seconds=args.max_age,
    )


#: What a malformed JSONL line can raise while being parsed/validated.
#: ValueError covers ServiceError plus the circuit/gate/mapping validation
#: errors a malformed payload triggers; QLSError covers bad pipeline specs.
BAD_LINE_ERRORS = (json.JSONDecodeError, KeyError, TypeError, IndexError,
                   ValueError, QLSError)


def _batch_error_record(lineno: int, reason: str) -> str:
    """The canonical per-line failure record of the batch output stream."""
    return canonical_json({
        "schema": REQUEST_SCHEMA_VERSION,
        "type": "BatchError",
        "line": lineno,
        "error": reason,
    })


def _cmd_batch(args: argparse.Namespace) -> int:
    #: (lineno, request-or-None, error-or-None), in input order.
    rows: List[Tuple[int, Optional[CompileRequest], Optional[str]]] = []
    failures = 0
    with open(args.requests, "r", encoding="utf-8") as handle:
        for lineno, line in enumerate(handle, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                request = CompileRequest.from_dict(json.loads(line))
                request.coupling()         # unknown device fails here,
                request.normalized_spec()  # unknown/malformed spec here —
            except BAD_LINE_ERRORS as exc:
                reason = f"bad request: {exc}"
                print(f"error: {args.requests}:{lineno}: {reason}",
                      file=sys.stderr)
                rows.append((lineno, None, reason))
                failures += 1
            else:
                rows.append((lineno, request, None))
    requests = [request for _, request, _ in rows if request is not None]
    service = CompilationService(cache=_build_cache(args),
                                 workers=args.workers)

    done = [0]

    def progress(response) -> None:
        done[0] += 1
        if not args.quiet:
            status = "hit " if response.cache_hit else "miss"
            label = response.provenance.get("instance") or \
                response.provenance.get("normalized_spec")
            print(f"  [{done[0]}/{len(requests)}] {status} "
                  f"{response.request_fingerprint[:12]} {label} "
                  f"swaps={response.result.swap_count} "
                  f"{response.service_seconds:.3f}s")

    started = time.perf_counter()
    try:
        responses = service.submit_many(requests, progress=progress)
    except QLSError as exc:
        # Spec-level validation passed but compilation itself refused the
        # work (e.g. circuit larger than the device).
        print(f"error: compilation failed: {exc}", file=sys.stderr)
        return 1
    wall = time.perf_counter() - started

    if args.out:
        response_iter = iter(responses)
        with open(args.out, "w", encoding="utf-8") as handle:
            for lineno, request, reason in rows:
                if request is None:
                    handle.write(_batch_error_record(lineno, reason) + "\n")
                else:
                    handle.write(
                        canonical_json(next(response_iter).to_dict()) + "\n"
                    )
    hits = sum(1 for r in responses if r.cache_hit)
    print(f"batch: {len(responses)} requests, {hits} hits, "
          f"{len(responses) - hits} misses, {wall:.3f}s wall-clock"
          + (f", {failures} bad lines" if failures else "")
          + (f", responses -> {args.out}" if args.out else ""))
    return 2 if failures else 0


def _cmd_serve(args: argparse.Namespace) -> int:
    from .. import faults
    from ..obs import profile as obs_profile
    from ..obs import trace as obs_trace
    from ..parallel import borrow_pool
    from .jobs import JobManager
    from .server import ServiceServer

    # Fault injection: --faults wins over $REPRO_FAULTS; either arms a
    # deterministic plan for the server's whole lifetime (chaos tests
    # drive a real subprocess this way).
    source, spec = ("--faults", args.faults) if args.faults is not None \
        else (f"${faults.ENV_VAR}", os.environ.get(faults.ENV_VAR))
    if spec:
        try:
            plan = faults.FaultPlan.from_spec(spec)
        except ValueError as exc:
            print(f"error: {source}: {exc}", file=sys.stderr)
            return 2
        faults.arm(plan)
        print(f"fault plan armed: {plan.spec()}", flush=True)

    # Observability arming: --trace wins over $REPRO_TRACE; --profile
    # writes per-stage wall/CPU + counter deltas into StageRecords.
    trace_path = args.trace if args.trace is not None \
        else os.environ.get(obs_trace.ENV_VAR)
    writer = obs_trace.start_tracing(trace_path) if trace_path else None
    if writer is not None:
        print(f"tracing to {writer.path}", flush=True)
    if args.profile:
        obs_profile.enable()
        print("profiling armed (StageRecord.profile)", flush=True)

    # One persistent pool for the server's lifetime: every sync batch and
    # every job fans its misses over the same workers (the single
    # concurrency bound), instead of paying process-pool start-up per
    # request.  WorkerPool.submit is thread-safe, so concurrent handler
    # threads share it directly.
    with borrow_pool(None, args.workers) as pool:
        service = CompilationService(cache=_build_cache(args), pool=pool)
        jobs = JobManager(service, journal=args.journal,
                          max_queued=args.max_queued)
        if args.journal and jobs.recovered_jobs:
            print(f"journal: recovered {jobs.recovered_jobs} job(s) "
                  f"from {args.journal}", flush=True)
        server = ServiceServer(service=service, jobs=jobs,
                               host=args.host, port=args.port)
        store = args.cache_dir or "in-memory"
        print(f"serving on {server.url} (cache: {store}); Ctrl-C to stop",
              flush=True)
        try:
            server.serve_forever()
        except KeyboardInterrupt:
            print("\nshutting down")
        finally:
            clean = server.shutdown()
            if writer is not None:
                obs_trace.stop_tracing()
                print(f"trace: {writer.spans_written} spans -> "
                      f"{writer.path}", flush=True)
    return 0 if clean else 1


def _cmd_cache_info(args: argparse.Namespace) -> int:
    info = _build_cache(args).info()
    print(json.dumps(info, indent=2, sort_keys=True))
    return 0


def _cmd_cache_clear(args: argparse.Namespace) -> int:
    removed = _build_cache(args).clear()
    print(f"cleared {removed} cache entries from {args.cache_dir}")
    return 0


def _cmd_make_requests(args: argparse.Namespace) -> int:
    from ..arch.library import get_architecture
    from ..qubikos.generator import generate

    device = get_architecture(args.device)
    lines: List[str] = []
    for index in range(args.count):
        instance = generate(device, num_swaps=args.swaps,
                            num_two_qubit_gates=args.gates,
                            seed=args.seed + index)
        request = CompileRequest.from_instance(
            instance, spec=args.spec, seed=args.seed,
            router_only=args.router_only,
        )
        lines.append(canonical_json(request.to_dict()))
    payload = "".join(line + "\n" for line in lines)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as out:
            out.write(payload)
        print(f"wrote {len(lines)} requests -> {args.out}")
    else:
        sys.stdout.write(payload)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.service",
        description=__doc__.splitlines()[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_cache_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--cache-dir", default=None,
                       help="persistent cache directory (default: in-memory)")
        p.add_argument("--capacity", type=int, default=1024,
                       help="in-memory LRU capacity")
        p.add_argument("--max-entries", type=int, default=None,
                       help="disk-tier entry cap (LRU-by-mtime eviction)")
        p.add_argument("--max-bytes", type=int, default=None,
                       help="disk-tier byte cap (LRU-by-mtime eviction)")
        p.add_argument("--max-age", type=float, default=None, metavar="SECONDS",
                       help="disk-tier age cap; older entries expire")

    batch = sub.add_parser("batch", help="compile a JSONL request stream")
    batch.add_argument("requests", help="input JSONL of CompileRequest objects")
    batch.add_argument("--out", default=None,
                       help="output JSONL of CompileResponse objects "
                            "(BatchError records for bad input lines)")
    batch.add_argument("--workers", type=int, default=None,
                       help="worker-pool size for cache misses "
                            "(default: serial)")
    batch.add_argument("--quiet", action="store_true",
                       help="suppress per-request progress lines")
    add_cache_args(batch)
    batch.set_defaults(func=_cmd_batch)

    serve = sub.add_parser("serve", help="run the HTTP serving front-end")
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8000,
                       help="listen port (0 = ephemeral, printed on start)")
    serve.add_argument("--workers", type=int, default=None,
                       help="worker-pool size for batch cache misses")
    serve.add_argument("--journal", default=None, metavar="PATH",
                       help="write-ahead job journal (JSONL); queued jobs "
                            "survive a crash and are re-queued on restart")
    serve.add_argument("--max-queued", type=int, default=None, metavar="N",
                       help="bound the job queue; admissions past the bound "
                            "get 503 + Retry-After (load shedding)")
    serve.add_argument("--trace", default=None, metavar="PATH",
                       help="write JSONL trace spans to PATH (overrides "
                            "$REPRO_TRACE; summarize with 'python -m "
                            "repro.obs trace-summary PATH')")
    serve.add_argument("--profile", action="store_true",
                       help="record per-stage wall/CPU time and router "
                            "call counts into StageRecord.profile")
    serve.add_argument("--faults", default=None, metavar="SPEC",
                       help="arm a deterministic fault plan (see repro.faults;"
                            " default: $REPRO_FAULTS when set)")
    add_cache_args(serve)
    serve.set_defaults(func=_cmd_serve)

    info = sub.add_parser("cache-info", help="inspect a cache")
    add_cache_args(info)
    info.set_defaults(func=_cmd_cache_info)

    clear = sub.add_parser("cache-clear", help="drop every cache entry")
    add_cache_args(clear)
    clear.set_defaults(func=_cmd_cache_clear)

    make = sub.add_parser("make-requests",
                          help="emit a demo JSONL request stream")
    make.add_argument("--device", default="aspen4")
    make.add_argument("--spec", default="sabre")
    make.add_argument("--seed", type=int, default=3)
    make.add_argument("--count", type=int, default=4)
    make.add_argument("--swaps", type=int, default=3)
    make.add_argument("--gates", type=int, default=60)
    make.add_argument("--router-only", action="store_true")
    make.add_argument("--out", default=None)
    make.set_defaults(func=_cmd_make_requests)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
