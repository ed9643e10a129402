"""``serve``: the HTTP compile service, run the way users run it.

``python -m repro.service serve --port 0 --workers <nproc>`` starts as a
subprocess over an empty cache directory, and one ``ServiceClient``
sends a seeded Zipf stream of compile requests in a closed loop (one
request in flight).  The first occurrence of a request is a miss
(compile on the pool, then cache put); every repeat is a hit.  Each
pass gets a fresh server, so every pass starts from an empty cache.
"""

from __future__ import annotations

import os
import random
import re
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import urllib.request
from typing import Dict, List, NamedTuple, Optional

from repro.arch import get_architecture
from repro.obs.metrics import parse_prometheus_text
from repro.obs.trace import read_trace
from repro.qls.validate import validate_transpiled
from repro.qubikos import generate
from repro.qubikos.suite import evaluation_spec
from repro.service import CompileRequest, ServiceClient
from repro.service.client import RemoteServiceError
from repro.service.fingerprint import canonical_json

from inputs import INSTANCE_SEED, relabel_all
from common import stop_process, tree_peak_rss_mb

#: Every request is a QUBIKOS circuit of the paper's smallest size, the
#: 300 two-qubit gates of its aspen4 circuits (Section IV-B), with its
#: smallest designed SWAP count, 5.  At its 1500 gates, one sycamore54
#: request costs 0.3-2 s to compile and a swap_gap averaged over the few
#: that fit in a run swung 25% between seeds.
PAPER = evaluation_spec()
GATES = PAPER.gate_counts["aspen4"]
SWAPS = PAPER.swap_counts[0]
#: (device, distinct instances, share of the requests).  Each device's
#: share is spread over its requests by Zipf popularity.  sycamore54
#: hits outnumber all aspen4 requests, whose hits are faster, so the
#: median request lies well inside the sycamore54 hits.  The ten slowest
#: requests, which set the 99th percentile, lie inside the 20 sycamore54
#: LightSABRE misses.
TRAFFIC = (("aspen4", 12, 0.35), ("sycamore54", 20, 0.65))
#: In order of popularity within a device: every instance's sabre
#: request comes before any lightsabre one, and tketlike comes last.
SPECS = ("sabre", "lightsabre:trials=2", "tketlike")
REQUESTS = 1000
ZIPF_S = 1.0
CACHE_EVENTS = ("hit", "miss", "put")
SERVER_START_TIMEOUT = 60.0


def pin_to_one_cpu() -> None:
    """Confine this process, and every process it starts, to one CPU.

    With one request in flight, the client, the server's threads and the
    pool worker compiling a miss take turns: each waits while another
    runs, so they never need two CPUs at once.  Spread over two, every
    round trip hands work across CPUs several times, and each hand-over
    wakes an idle virtual CPU, which a busy host serves late.  That put
    the hit latencies, and so every serve metric, at the mercy of the
    host's load.  On one CPU each hand-over is a plain switch between
    runnable processes."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def zipf_counts(ranks: int, total: int, s: float) -> List[int]:
    """How often each popularity rank is requested: ``total`` requests
    shared in proportion to ``1 / rank ** s`` (the largest remainders get
    the leftovers).  The counts are fixed, so every seed sends the same
    mix, and the seed draws only the order of arrivals."""
    weights = [1.0 / rank ** s for rank in range(1, ranks + 1)]
    shares = [total * w / sum(weights) for w in weights]
    counts = [int(share) for share in shares]
    leftovers = sorted(range(ranks), key=lambda r: counts[r] - shares[r])
    for rank in leftovers[:total - sum(counts)]:
        counts[rank] += 1
    return counts


class Workload:
    name = "serve"
    unit = "requests"

    def __init__(self, seed: int) -> None:
        pin_to_one_cpu()
        self.root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        base = random.Random(INSTANCE_SEED)
        instances = []
        start = time.perf_counter()
        for device_name, count, _ in TRAFFIC:
            device = get_architecture(device_name)
            instances += [(generate(
                device, num_swaps=SWAPS, num_two_qubit_gates=GATES,
                seed=base.randrange(2 ** 31)), device)
                for _ in range(count)]
        renamed = relabel_all([instance for instance, _ in instances], seed)
        self.generate_s = time.perf_counter() - start
        self.distinct = []
        self.stream = []
        for device_name, _, share in TRAFFIC:
            members = [(instance, device) for instance, (_, device)
                       in zip(renamed, instances)
                       if device.name == device_name]
            slots = len(self.distinct)
            self.distinct += [(CompileRequest.from_instance(
                instance, spec=spec, seed=seed), instance, device)
                for spec in SPECS for instance, device in members]
            counts = zipf_counts(len(self.distinct) - slots,
                                 round(REQUESTS * share), ZIPF_S)
            self.stream += [slots + rank for rank, count in enumerate(counts)
                            for _ in range(count)]
        random.Random(seed).shuffle(self.stream)
        scratch = os.path.join(self.root, ".perfbench_tmp")
        os.makedirs(scratch, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="serve-", dir=scratch)
        self.passes_started = 0
        self.server = None
        self._start_server(traced=False)

    # -- the server subprocess -------------------------------------------------

    def _start_server(self, traced: bool) -> None:
        index = self.passes_started
        self.passes_started += 1
        self.trace_path = os.path.join(self.tmp, f"trace-{index}.jsonl") \
            if traced else None
        command = [sys.executable, "-m", "repro.service", "serve",
                   "--port", "0", "--workers", str(os.cpu_count() or 1),
                   "--cache-dir", os.path.join(self.tmp, f"cache-{index}")]
        if self.trace_path:
            command += ["--trace", self.trace_path]
        env = dict(os.environ)
        src = os.path.join(self.root, "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        log_path = os.path.join(self.tmp, f"server-{index}.log")
        with open(log_path, "w", encoding="utf-8") as log:
            self.server = subprocess.Popen(
                command, stdout=log, stderr=subprocess.STDOUT, env=env,
                cwd=self.root)
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        url = None
        while url is None:
            if self.server.poll() is not None or time.monotonic() > deadline:
                stop_process(self.server)
                with open(log_path, encoding="utf-8") as log:
                    raise RuntimeError("compile server did not start:\n"
                                       + log.read())
            time.sleep(0.01)
            with open(log_path, encoding="utf-8") as log:
                match = re.search(r"serving on (http://\S+)", log.read())
            url = match.group(1) if match else None
        self.url = url
        self.client = ServiceClient(url, timeout=120.0)
        self.client.healthz()

    def _stop_server(self) -> Dict[str, object]:
        """Scrape metrics, read peak RSS, stop the server and its pool."""
        with urllib.request.urlopen(self.url + "/v1/metrics",
                                    timeout=60) as response:
            scrape = parse_prometheus_text(response.read().decode("utf-8"))
        rss = tree_peak_rss_mb(self.server.pid)
        stop_process(self.server)
        self.server = None
        events = scrape.get("repro_cache_events_total", {})
        spans = len(read_trace(self.trace_path)) if self.trace_path else 0
        return {"rss": rss, "server_spans": spans,
                "events": {event: int(events.get(f'{{event="{event}"}}', 0))
                           for event in CACHE_EVENTS}}

    # -- one pass --------------------------------------------------------------

    def run_pass(self, traced: bool) -> Dict[str, object]:
        if self.server is None or traced:
            if self.server is not None:
                self._stop_server()
            self._start_server(traced)
        submit = self.client.submit
        replies: List[Reply] = []
        first: Dict[int, object] = {}
        bodies: Dict[int, str] = {}
        for slot in self.stream:
            request = self.distinct[slot][0]
            began = time.perf_counter()
            try:
                response = submit(request)
            except RemoteServiceError as exc:
                replies.append(Reply(time.perf_counter() - began, False,
                                     0.0, 0.0, f"HTTP failure: {exc}"))
                continue
            seconds = time.perf_counter() - began
            # Only first occurrences are kept.  Holding every decoded
            # response grows this process by all of their gate objects,
            # and its garbage collector then pauses inside later round
            # trips (300-700 ms with 1500-gate circuits).
            replies.append(Reply(seconds, response.cache_hit,
                                 response.service_seconds,
                                 response.compile_seconds,
                                 _repeat_problem(slot, response, first,
                                                 bodies)))
        server = self._stop_server()
        return {"wall": sum(reply.seconds for reply in replies),
                "traced": traced, "replies": replies, "first": first,
                **server}

    def close(self) -> None:
        if self.server is not None:
            stop_process(self.server)
            self.server = None
        shutil.rmtree(self.tmp)
        try:
            os.rmdir(os.path.dirname(self.tmp))
        except OSError:
            pass  # another run still has its directory there

    # -- results ---------------------------------------------------------------

    def check(self, passes) -> Dict[str, object]:
        errors: List[str] = []
        attempted = failed = 0
        reference: Dict[int, str] = {}
        for index, result in enumerate(passes):
            for position, reply in enumerate(result["replies"]):
                attempted += 1
                if reply.problem is not None:
                    failed += 1
                    errors.append(f"pass {index} request {position}: "
                                  f"{reply.problem}")
            for slot, response in result["first"].items():
                problem = self._result_problem(slot, response)
                if problem is not None:
                    failed += 1
                    errors.append(f"pass {index} distinct request {slot}: "
                                  f"{problem}")
            routed = {slot: _routing(response)
                      for slot, response in result["first"].items()}
            if index == 0:
                reference = routed
            elif routed != reference:
                errors.append(f"pass {index} results differ from pass 0")
            distinct = len(result["first"])
            expected = {"hit": REQUESTS - distinct, "miss": distinct,
                        "put": distinct}
            if result["events"] != expected:
                errors.append(f"pass {index} cache events "
                              f"{result['events']}, expected {expected}")
        return {"attempted": attempted, "failed": failed, "errors": errors,
                "fingerprint": {"requests": REQUESTS,
                                "distinct": len(reference),
                                "hits": REQUESTS - len(reference)}}

    def _result_problem(self, slot: int, response):
        """Why the first response to ``slot`` is wrong, or None."""
        request, instance, device = self.distinct[slot]
        result = response.result
        report = validate_transpiled(request.circuit, result.circuit,
                                     device, result.initial_mapping)
        if not report.valid:
            return f"invalid circuit: {report.error}"
        if report.swap_count != result.swap_count:
            return (f"reported {result.swap_count} swaps, replay counted "
                    f"{report.swap_count}")
        if result.swap_count < instance.optimal_swaps:
            return (f"{result.swap_count} swaps is below the proven "
                    f"optimum {instance.optimal_swaps}")
        return None

    def end_to_end(self, passes) -> Dict[str, float]:
        replies = [reply for p in passes for reply in p["replies"]]
        # A failed request misses every latency limit.
        latency = [float("inf") if reply.problem else reply.seconds * 1e3
                   for reply in replies]
        cuts = statistics.quantiles(latency, n=100, method="inclusive")
        ratios = [response.result.swap_count
                  / self.distinct[slot][1].optimal_swaps
                  for slot, response in passes[0]["first"].items()]
        return {
            "throughput_per_s": len(replies) / sum(p["wall"] for p in passes),
            "latency_ms_p50": cuts[49],
            "latency_ms_p99": cuts[98],
            "swap_gap": statistics.mean(ratios),
        }

    @staticmethod
    def _split(passes):
        """(hit replies, miss replies) over ``passes``, failures left out."""
        replies = [reply for p in passes for reply in p["replies"]
                   if reply.problem is None]
        return ([reply for reply in replies if reply.hit],
                [reply for reply in replies if not reply.hit])

    def per_layer(self, traced, untraced) -> Dict[str, float]:
        hits, misses = self._split(traced)
        requests = sum(len(p["replies"]) for p in traced)
        layer = {
            "qubikos.generate_s": self.generate_s,
            "service.client.hit_ms_p50": _median(
                [r.seconds * 1e3 for r in hits]),
            "service.client.miss_ms_p50": _median(
                [r.seconds * 1e3 for r in misses]),
            "service.hit_share": len(hits) / requests,
            "service.server_hit_ms_p50": _median(
                [r.service_seconds * 1e3 for r in hits]),
            "service.http_hit_ms_p50": _median(
                [(r.seconds - r.service_seconds) * 1e3 for r in hits]),
            "pipeline.compile_miss_ms_p50": _median(
                [r.compile_seconds * 1e3 for r in misses]),
            "parallel.ipc_miss_ms_p50": _median(
                [(r.service_seconds - r.compile_seconds) * 1e3
                 for r in misses]),
            "service.http_errors": sum(
                (reply.problem or "").startswith("HTTP failure")
                for p in traced for reply in p["replies"]),
            "service.server_spans": sum(p["server_spans"] for p in traced),
        }
        for event in CACHE_EVENTS:
            layer[f"service.cache_events.{event}"] = sum(
                p["events"][event] for p in traced)
        return layer

    def layer_table(self, traced) -> List[tuple]:
        """One pass, request by request: the client's round trips split by
        the server's own timings.  HTTP is everything outside
        ``service_seconds``: client encode/decode, sockets, handler
        threads and the response's JSON encoding."""
        n = len(traced)
        hits, misses = self._split(traced)
        failed = [reply.seconds for p in traced for reply in p["replies"]
                  if reply.problem is not None]
        return [
            ("service.http (round trip - service_seconds)",
             sum(r.seconds - r.service_seconds for r in hits + misses) / n),
            ("service hit path (service_seconds on hits)",
             sum(r.service_seconds for r in hits) / n),
            ("pipeline.compile (compile_seconds on misses)",
             sum(r.compile_seconds for r in misses) / n),
            ("parallel.ipc + queue (service - compile on misses)",
             sum(r.service_seconds - r.compile_seconds for r in misses) / n),
            ("failed requests", sum(failed) / n),
        ]


class Reply(NamedTuple):
    """What one round trip leaves behind once its response is dropped."""

    seconds: float
    hit: bool
    service_seconds: float
    compile_seconds: float
    problem: Optional[str]


def _repeat_problem(slot: int, response, first: Dict[int, object],
                    bodies: Dict[int, str]):
    """Keep the first response to ``slot``; check a repeat against it.

    A repeat must be a cache hit whose canonical JSON, all but its own
    ``cache_hit`` and ``service_seconds``, is byte-identical to the first
    response's."""
    body = canonical_json([response.request_fingerprint,
                           response.compile_seconds,
                           response.result.to_dict()])
    if slot not in first:
        first[slot] = response
        bodies[slot] = body
        return "first occurrence was a cache hit" if response.cache_hit \
            else None
    if not response.cache_hit:
        return "repeat request was not a cache hit"
    if body != bodies[slot]:
        return "repeat response differs from its first occurrence"
    return None


def _routing(response) -> str:
    """The routing decisions of a response, without its timings."""
    result = response.result
    return canonical_json([response.request_fingerprint,
                           result.circuit.to_dict(),
                           result.initial_mapping.to_pairs()])


def _median(values: List[float]) -> float:
    """The median, or 0 when the pass had no such requests."""
    return statistics.median(values) if values else 0.0
