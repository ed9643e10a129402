"""``python -m repro.service`` CLI: batch, cache-info, cache-clear, and
``serve`` start-up validation."""

import json
import os
import subprocess
import sys

import pytest

from repro import faults
from repro.service import CompileRequest, CompileResponse, canonical_json
from repro.service.cli import main


def _write_requests(path, instances, spec="sabre", seed=5):
    with open(path, "w", encoding="utf-8") as handle:
        for instance in instances:
            request = CompileRequest.from_instance(instance, spec=spec,
                                                   seed=seed)
            handle.write(canonical_json(request.to_dict()) + "\n")


def test_batch_then_warm_rerun(tmp_path, small_instance, capsys):
    requests = tmp_path / "req.jsonl"
    responses = tmp_path / "resp.jsonl"
    cache_dir = tmp_path / "cache"
    _write_requests(requests, [small_instance])

    assert main(["batch", str(requests), "--out", str(responses),
                 "--cache-dir", str(cache_dir)]) == 0
    out = capsys.readouterr().out
    assert "1 requests, 0 hits, 1 misses" in out

    lines = responses.read_text().strip().splitlines()
    assert len(lines) == 1
    response = CompileResponse.from_dict(json.loads(lines[0]))
    assert not response.cache_hit
    assert response.result.swap_count >= small_instance.optimal_swaps

    assert main(["batch", str(requests), "--cache-dir", str(cache_dir),
                 "--quiet"]) == 0
    assert "1 hits, 0 misses" in capsys.readouterr().out


def test_cache_info_and_clear(tmp_path, small_instance, capsys):
    requests = tmp_path / "req.jsonl"
    cache_dir = tmp_path / "cache"
    _write_requests(requests, [small_instance])
    assert main(["batch", str(requests), "--cache-dir", str(cache_dir),
                 "--quiet"]) == 0
    capsys.readouterr()

    assert main(["cache-info", "--cache-dir", str(cache_dir)]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["disk_entries"] == 1

    assert main(["cache-clear", "--cache-dir", str(cache_dir)]) == 0
    assert "cleared 1" in capsys.readouterr().out
    assert list(cache_dir.glob("*.json")) == []


def test_make_requests_emits_valid_jsonl(tmp_path, capsys):
    out = tmp_path / "req.jsonl"
    assert main(["make-requests", "--device", "grid3x3", "--count", "2",
                 "--swaps", "1", "--gates", "10", "--out", str(out)]) == 0
    lines = out.read_text().strip().splitlines()
    assert len(lines) == 2
    for line in lines:
        request = CompileRequest.from_dict(json.loads(line))
        assert request.device == "grid3x3"


def test_bad_request_line_reports_location(tmp_path, capsys):
    requests = tmp_path / "req.jsonl"
    requests.write_text('{"schema": 1}\n', encoding="utf-8")
    assert main(["batch", str(requests)]) == 2
    err = capsys.readouterr().err
    assert "req.jsonl:1" in err


def test_unknown_device_and_spec_report_cleanly(tmp_path, capsys, small_instance):
    """Semantic errors (bad device/spec) get located messages, not tracebacks."""
    requests = tmp_path / "req.jsonl"
    bad_device = CompileRequest.from_instance(small_instance).to_dict()
    bad_device["device"] = "warp-core-9"
    requests.write_text(json.dumps(bad_device) + "\n", encoding="utf-8")
    assert main(["batch", str(requests)]) == 2
    assert "unknown device" in capsys.readouterr().err

    bad_spec = CompileRequest.from_instance(small_instance).to_dict()
    bad_spec["spec"] = "no-such-stage"
    requests.write_text(json.dumps(bad_spec) + "\n", encoding="utf-8")
    assert main(["batch", str(requests)]) == 2
    assert "unknown pipeline stage" in capsys.readouterr().err


def test_malformed_circuit_payload_reports_cleanly(tmp_path, capsys):
    """Structurally bad payloads exit 2 with a located message, no traceback."""
    requests = tmp_path / "req.jsonl"
    requests.write_text(
        json.dumps({"schema": 1, "device": "grid3x3",
                    "circuit": {"num_qubits": 2, "gates": [42]}}) + "\n",
        encoding="utf-8",
    )
    assert main(["batch", str(requests)]) == 2
    assert "req.jsonl:1: bad request" in capsys.readouterr().err


def test_bad_lines_do_not_abort_the_batch(tmp_path, capsys, small_instance):
    """Good lines compile; bad lines become located BatchError records in
    the output stream (line order preserved); exit 2 = partial failure."""
    requests = tmp_path / "req.jsonl"
    responses = tmp_path / "resp.jsonl"
    good = CompileRequest.from_instance(small_instance, spec="sabre",
                                        seed=5).to_dict()
    bad_device = dict(good, device="warp-core-9")
    lines = [json.dumps(good), "{not json", json.dumps(bad_device),
             json.dumps(good)]
    requests.write_text("\n".join(lines) + "\n", encoding="utf-8")

    assert main(["batch", str(requests), "--out", str(responses),
                 "--quiet"]) == 2
    captured = capsys.readouterr()
    assert "req.jsonl:2" in captured.err
    assert "req.jsonl:3" in captured.err
    assert "2 requests" in captured.out  # both good lines compiled
    assert "2 bad lines" in captured.out

    records = [json.loads(line)
               for line in responses.read_text().strip().splitlines()]
    assert len(records) == 4  # one output record per input line, in order
    assert records[0]["type"] == "CompileResponse"
    assert records[1] == {"schema": 1, "type": "BatchError", "line": 2,
                          "error": records[1]["error"]}
    assert "bad request" in records[1]["error"]
    assert records[2]["type"] == "BatchError"
    assert records[2]["line"] == 3
    assert "unknown device" in records[2]["error"]
    assert records[3]["type"] == "CompileResponse"
    # duplicate of line 1: in-batch dedup marks it a hit
    assert records[3]["cache_hit"] is True
    response = CompileResponse.from_dict(records[3])
    assert response.result.swap_count >= small_instance.optimal_swaps


def test_all_lines_bad_still_writes_error_records(tmp_path, capsys):
    requests = tmp_path / "req.jsonl"
    responses = tmp_path / "resp.jsonl"
    requests.write_text("nope\n{}\n", encoding="utf-8")
    assert main(["batch", str(requests), "--out", str(responses),
                 "--quiet"]) == 2
    records = [json.loads(line)
               for line in responses.read_text().strip().splitlines()]
    assert [r["type"] for r in records] == ["BatchError", "BatchError"]
    assert [r["line"] for r in records] == [1, 2]
    assert "0 requests" in capsys.readouterr().out


def test_cache_info_surfaces_eviction_caps(tmp_path, capsys):
    assert main(["cache-info", "--cache-dir", str(tmp_path / "c"),
                 "--max-entries", "7", "--max-bytes", "1000",
                 "--max-age", "60"]) == 0
    info = json.loads(capsys.readouterr().out)
    assert info["eviction"] == {"max_entries": 7, "max_bytes": 1000,
                                "max_age_seconds": 60.0}


@pytest.mark.parametrize("where, spec, expected", [
    ("--faults", "pool.taks:crash@1",
     ["--faults", "'pool.taks:crash@1'", "unknown fault site",
      "pool.task, cache.disk_read"]),
    ("--faults", "pool.task.crash",
     ["--faults", "'pool.task.crash'", "expected site:kind@at"]),
    ("env", "seed=3; pool.taks:crash@1",
     ["$REPRO_FAULTS", "'pool.taks:crash@1'", "unknown fault site"]),
], ids=["unknown-site", "malformed", "env-unknown-site"])
def test_serve_rejects_bad_fault_spec_before_binding(where, spec, expected):
    """A fault plan that could never fire (or not parse) stops ``serve``
    with exit code 2 and one line naming the segment; no port is bound."""
    env = dict(os.environ)
    argv = [sys.executable, "-m", "repro.service", "serve", "--port", "0"]
    if where == "env":
        env[faults.ENV_VAR] = spec
    else:
        env.pop(faults.ENV_VAR, None)
        argv += ["--faults", spec]
    proc = subprocess.run(argv, env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == 2, proc.stdout + proc.stderr
    assert "serving on" not in proc.stdout
    lines = proc.stderr.strip().splitlines()
    assert len(lines) == 1, proc.stderr
    for fragment in expected:
        assert fragment in lines[0]
