"""Smoke-sized self-test of the benchmark.

Run from the repository root (it starts real servers; a few minutes)::

    python -m pytest perfbench -q

Each workload runs with ``--seconds 1``, untraced and traced.  The test
asserts that every metric named in ``BENCHMARK.json`` is printed with its
unit and a finite value, that no request failed (``error_rate == 0``),
and that the traced run emits every per-layer metric (a layer whose
span never fired counts as a failure).  It also checks that a malformed
2xx reply is counted as a failed request rather than crashing the run,
and that the benchmark refuses to run without the program's sources.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import threading
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(cwd: Path, workload: str, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            *SPEC["command"],
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--trace",
            str(trace),
        ],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=300,
    )


def _result(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["attempted"] >= 1
    assert result["failed"] == 0, proc.stderr[-3000:]
    assert result["correct"] is True
    return result


def _check_metrics(result: dict, declared: list[dict]) -> None:
    metrics = result["metrics"]
    assert set(metrics) == {m["name"] for m in declared}
    for metric in declared:
        printed = metrics[metric["name"]]
        assert printed["unit"] == metric["unit"], metric["name"]
        assert math.isfinite(printed["value"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(workload):
    result = _result(_run(ROOT, workload, 0))
    _check_metrics(result, SPEC["end_to_end"])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_layer_metrics(workload):
    result = _result(_run(ROOT, workload, 1))
    _check_metrics(result, SPEC["per_layer"])
    assert result["metrics"]["error_rate"]["value"] == 0


def test_refuses_without_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(
            ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__")
        )
    proc = _run(tmp_path, WORKLOADS[0], 0)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


class _MalformedReplies(BaseHTTPRequestHandler):
    """2xx replies the benchmark must count as failures, not crash on."""

    REPLIES = {
        "/v1/estimate": b"not json",
        "/v1/predict": b'{"other": 1}',
    }

    def do_GET(self):
        self._reply(b"")  # /metrics with no samples

    def do_POST(self):
        self.rfile.read(int(self.headers["Content-Length"]))
        self._reply(self.REPLIES[self.path])

    def _reply(self, body: bytes):
        self.send_response(200)
        self.send_header("Content-Length", str(len(body)))
        self.end_headers()
        self.wfile.write(body)

    def log_message(self, *args):
        pass


def test_malformed_replies_count_as_failures(monkeypatch):
    monkeypatch.syspath_prepend(str(ROOT / "src"))
    monkeypatch.syspath_prepend(str(ROOT / "perfbench"))
    import inputs
    import run
    from repro.geometry.ranges import Box

    server = ThreadingHTTPServer(("127.0.0.1", 0), _MalformedReplies)
    thread = threading.Thread(target=server.serve_forever)
    thread.start()
    try:
        port = server.server_address[1]
        plans = [inputs._plan(Box([0.1, 0.2], [0.5, 0.6])) for _ in range(5)]
        batch = inputs.Batch(queries=plans[0].row, body=plans[0].row_body, halfspaces=0)
        tally = run.Tally()
        samples = {"estimate": [], "row": [], "scan": []}
        _, results = run.run_plans(port, plans, tally, samples)
        _, answers = run.run_batches(port, [batch, batch], tally, samples)
    finally:
        server.shutdown()
        server.server_close()
        thread.join()
    assert (tally.attempted, tally.failed) == (2 * len(plans) + 2, 2 * len(plans) + 2)
    assert all(isinstance(e, Exception) and isinstance(r, Exception) for _, e, _, r in results)
    assert answers == [None, None]
    assert samples == {"estimate": [], "row": [], "scan": []}


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
