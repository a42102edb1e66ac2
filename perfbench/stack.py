"""The serving stack as the benchmark sees it: a process, a socket, a scrape.

``ServerProcess`` starts ``python -m repro.cli serve`` (one worker, the
default :class:`repro.serving.ServingConfig` otherwise, so the 2 ms
coalescer window is in the path) as a separate process and stops it with
the SIGTERM drain.  ``request`` is a minimal HTTP/1.0 client on a raw
socket: the server answers HTTP/1.0 and closes every connection, so the
client's own overhead stays a connect, one ``sendall`` and a read to EOF.
``scrape`` parses ``/metrics`` with the repository's exposition parser so
phases can be reconciled against the server's own counters.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import signal
import socket
import subprocess
import sys
import time
from pathlib import Path

from repro.observability.expolint import parse_exposition

_BANNER = re.compile(r"on http://([0-9.]+):(\d+)")

#: Client-side timeout for one request; a reply slower than this counts
#: as a failure.
REQUEST_TIMEOUT_S = 30.0


class RequestFailed(Exception):
    """A request that did not come back as a 2xx with a JSON body."""


def request(
    port: int,
    method: str,
    path: str,
    body: bytes | None = None,
    headers: dict | None = None,
) -> tuple[int, bytes]:
    """One HTTP/1.0 exchange; returns ``(status, body)``."""
    lines = [f"{method} {path} HTTP/1.0", "Host: 127.0.0.1"]
    if body is not None:
        lines += ["Content-Type: application/json", f"Content-Length: {len(body)}"]
    for name, value in (headers or {}).items():
        lines.append(f"{name}: {value}")
    raw = ("\r\n".join(lines) + "\r\n\r\n").encode() + (body or b"")
    with socket.create_connection(("127.0.0.1", port), timeout=REQUEST_TIMEOUT_S) as sock:
        sock.sendall(raw)
        chunks = []
        while True:
            chunk = sock.recv(65536)
            if not chunk:
                break
            chunks.append(chunk)
    reply = b"".join(chunks)
    head, _, payload = reply.partition(b"\r\n\r\n")
    try:
        status = int(head.split(b" ", 2)[1])
    except (IndexError, ValueError):
        raise RequestFailed(f"malformed reply to {path}: {reply[:80]!r}") from None
    return status, payload


def post_json(port: int, path: str, payload: bytes, headers: dict | None = None) -> dict:
    """POST a pre-encoded JSON body; raise :class:`RequestFailed` unless 2xx."""
    try:
        status, body = request(port, "POST", path, payload, headers)
    except OSError as exc:
        raise RequestFailed(f"{path}: {type(exc).__name__}: {exc}") from exc
    if not 200 <= status < 300:
        raise RequestFailed(f"{path}: HTTP {status}: {body[:200]!r}")
    return _json_object(path, body)


def post_field(
    port: int, path: str, payload: bytes, field: str, headers: dict | None = None
):
    """``post_json(...)[field]``; a reply without ``field`` is a failure."""
    reply = post_json(port, path, payload, headers)
    if field not in reply:
        raise RequestFailed(f"{path}: reply has no {field!r}: {reply!r:.200}")
    return reply[field]


def get_json(port: int, path: str) -> dict:
    status, body = request(port, "GET", path)
    if status != 200:
        raise RequestFailed(f"{path}: HTTP {status}")
    return _json_object(path, body)


def _json_object(path: str, body: bytes) -> dict:
    try:
        reply = json.loads(body)
    except ValueError:
        raise RequestFailed(f"{path}: reply is not JSON: {body[:200]!r}") from None
    if not isinstance(reply, dict):
        raise RequestFailed(f"{path}: reply is not a JSON object: {body[:200]!r}")
    return reply


class Scrape:
    """One parsed ``/metrics`` page: sums of samples by name and labels."""

    def __init__(self, text: str):
        families, _ = parse_exposition(text)
        self._samples: dict[str, list[tuple[dict, float]]] = {}
        for family in families.values():
            for name, labels, value, _ in family["samples"]:
                self._samples.setdefault(name, []).append((labels, value))

    def value(self, name: str, **labels) -> float:
        """Sum of every sample of ``name`` whose labels include ``labels``."""
        return sum(
            value
            for sample_labels, value in self._samples.get(name, ())
            if all(sample_labels.get(k) == v for k, v in labels.items())
        )

    def by_label(self, name: str, label: str) -> dict[str, float]:
        out: dict[str, float] = {}
        for sample_labels, value in self._samples.get(name, ()):
            key = sample_labels.get(label, "")
            out[key] = out.get(key, 0.0) + value
        return out


def scrape(port: int) -> Scrape:
    status, body = request(port, "GET", "/metrics")
    if status != 200:
        raise RequestFailed(f"/metrics: HTTP {status}")
    return Scrape(body.decode())


class ServerProcess:
    """``repro serve`` in its own process, with its own snapshot directory."""

    def __init__(self, src: Path, workdir: Path, expected_train: int):
        self.workdir = workdir
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir(parents=True)
        self.snapshot_dir = workdir / "snapshots"
        env = dict(os.environ)
        env["PYTHONPATH"] = str(src)
        env["PYTHONUNBUFFERED"] = "1"
        self._log = open(workdir / "server.log", "wb")
        self.started = time.perf_counter()
        self.proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--method",
                "quadhist",
                "--expected-train",
                str(expected_train),
                "--workers",
                "1",
                "--port",
                "0",
                "--snapshot-dir",
                str(self.snapshot_dir),
            ],
            stdout=self._log,
            stderr=subprocess.STDOUT,
            cwd=workdir,
            env=env,
        )
        try:
            self.port = self._wait_for_banner()
        except BaseException:
            self.stop()
            raise

    def _wait_for_banner(self, timeout: float = 60.0) -> int:
        deadline = time.monotonic() + timeout
        log = self.workdir / "server.log"
        while time.monotonic() < deadline:
            if self.proc.poll() is not None:
                raise RuntimeError(f"server exited early:\n{log.read_text()}")
            match = _BANNER.search(log.read_text())
            if match:
                port = int(match.group(2))
                while time.monotonic() < deadline:
                    try:
                        if request(port, "GET", "/health")[0] == 200:
                            return port
                    except OSError:
                        pass
                    time.sleep(0.005)
            time.sleep(0.005)
        raise RuntimeError("server did not come up within 60 s")

    def peak_rss_mb(self) -> float:
        """VmHWM of the serving process, in MiB."""
        for line in Path(f"/proc/{self.proc.pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM not found")

    def stop(self) -> None:
        """SIGTERM drain, then SIGKILL if the drain overruns; always reaps."""
        if self._log.closed:
            return
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self._log.close()
