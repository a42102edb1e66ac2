#!/usr/bin/env python3
"""End-to-end benchmark of the selectivity-estimation service.

Run from the repository root::

    python3 perfbench/run.py --workload planner --seed 1 --seconds 10 --trace 0

It starts the real serving stack (``python -m repro.cli serve`` with one
worker and the default serving config, so the 2 ms coalescer window is in
the path) as a separate process, bootstraps it over HTTP (training
feedback, ``/v1/retrain``), and drives it from this process with at most
two connections.  Workloads (``planner``, ``scan``, ``drift``) and their
inputs are defined in ``inputs.py``; every workload runs the same rounds
(reads; then feedback + update + reads), in different proportions.  The
amount of traffic is fixed by ``--seconds`` (linearly; at 10 it is about
15 s of traffic on a 2-CPU host), so both sides of a comparison do the
same work.

Every answer is checked: each round's answers are compared with
``predict_many`` of the newest snapshot (``repro.persistence.load_model``)
within 1e-9, and the server's own counters must satisfy
``hits + misses == queries``, ``coalesced <= queries``, one 2xx per
request sent, and no update fallback after bootstrap.  Any violation, any
non-2xx, timeout or value outside [0, 1] counts as a failure.  Accuracy
(``qerror_p50``, ``rms_err``) is the final model's on the workload's fixed
held-out set.  Set-up is repeated three times per run; ``setup_s`` is the
median.  Latencies and throughput are medians over the run's rounds (see
``end_to_end``).

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` runs the same
measurement, then replays the same inputs in-process through the public
Python API with wrappers around each layer (``tracer.py``), and prints the
per-layer metrics: self time per layer from the replay, and the HTTP and
serving layers from ``/metrics`` deltas of the untraced run.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import signal
import statistics
import sys
import threading
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Bootstraps per run; ``setup_s`` is their median.
SETUPS = 3
#: Closed-loop planning threads (the machine has two cores: one for the
#: serving worker, one for this client).
PLAN_CONNECTIONS = 2
#: Served value vs ``predict_many`` of the loaded snapshot.
TOLERANCE = 1e-9
#: Client timings kept per round: one per request type.
SAMPLE_KINDS = ("estimate", "row", "scan", "feedback", "update")
#: Budget header for retrain/update, which may outlast the default deadline.
LONG_DEADLINE = {"X-Deadline-Ms": "600000"}

UPDATE_FALLBACK_REASONS = (
    "no_model",
    "unsupported",
    "batch_evicted",
    "no_fit_state",
    "error",
    "residual_budget",
)


class Tally:
    """Operations attempted and failed, with the first few failure reasons.

    An operation is a request or a counter-identity check; a request whose
    answer later differs from the snapshot's becomes failed.
    """

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []
        self._lock = threading.Lock()

    def ok(self) -> None:
        with self._lock:
            self.attempted += 1

    def fail(self, reason: str) -> None:
        with self._lock:
            self.attempted += 1
            self._failed(reason)

    def mismatch(self, reason: str) -> None:
        """An already counted request whose answer proved wrong."""
        with self._lock:
            self._failed(reason)

    def check(self, holds: bool, reason: str) -> None:
        if holds:
            self.ok()
        else:
            self.fail(reason)

    def _failed(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 10:
            self.reasons.append(reason)


def percentile(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(np.asarray(values, dtype=float), q))


def tail_supported(n: int, q: float) -> bool:
    """At least 10 samples beyond the ``q``-th percentile."""
    return n * (100.0 - q) / 100.0 >= 10


def _in_unit(value) -> bool:
    return isinstance(value, float) and 0.0 <= value <= 1.0


def _unit_list(values, n: int) -> bool:
    return isinstance(values, list) and len(values) == n and all(map(_in_unit, values))


# ---------------------------------------------------------------------------
# Phases
# ---------------------------------------------------------------------------


class Phase:
    """One timed phase: its client samples and its ``/metrics`` delta."""

    def __init__(self, kind: str, port: int):
        from stack import scrape

        self.kind = kind
        self._port = port
        self.before = scrape(port)
        self.after = None

    def close(self) -> None:
        from stack import scrape

        self.after = scrape(self._port)

    def delta(self, name: str, **labels) -> float:
        return self.after.value(name, **labels) - self.before.value(name, **labels)


def bootstrap(inputs, workdir: Path, tally: Tally):
    """Start a server and train it over HTTP; returns ``(server, setup_s)``."""
    from stack import ServerProcess, post_field, post_json

    server = ServerProcess(SRC, workdir, inputs.workload.expected_train)
    try:
        for body in inputs.bootstrap_bodies:
            post_json(server.port, "/v1/feedback", body)
        post_json(server.port, "/v1/retrain", b"{}", LONG_DEADLINE)
        value = post_field(
            server.port,
            "/v1/estimate",
            inputs.rounds[0].plans[0].estimate_body,
            "selectivity",
        )
        tally.check(_in_unit(value), f"bootstrap estimate {value!r} outside [0, 1]")
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - server.started


def run_feedback(port: int, round_, tally: Tally, samples: dict) -> Phase:
    from stack import RequestFailed, post_json

    phase = Phase("feedback", port)
    for body in round_.feedback_bodies:
        t0 = time.perf_counter()
        try:
            reply = post_json(port, "/v1/feedback", body)
        except RequestFailed as exc:
            tally.fail(str(exc))
            continue
        samples["feedback"].append(time.perf_counter() - t0)
        if reply.get("accepted") is True:
            tally.ok()
        else:
            tally.fail(f"feedback not accepted: {reply}")
    phase.close()
    return phase


def run_update(port: int, tally: Tally, samples: dict, reports: list) -> Phase:
    from stack import RequestFailed, post_json

    phase = Phase("update", port)
    start = time.perf_counter()
    try:
        reply = post_json(port, "/v1/update", b"{}", LONG_DEADLINE)
    except RequestFailed as exc:
        tally.fail(str(exc))
        reply = None
    elapsed = time.perf_counter() - start
    phase.close()
    if reply is not None:
        samples["update"].append(elapsed)
        if reply.get("incremental") is True and reply.get("update"):
            tally.ok()
            reports.append(reply["update"])
        else:
            tally.fail(f"update fell back: {reply.get('fallback')}")
    return phase


def run_plans(port: int, plans, tally: Tally, samples: dict):
    """Closed loop: each connection sends a plan's estimate, then its row."""
    from stack import RequestFailed, post_field

    phase = Phase("plan", port)
    results = [None] * len(plans)
    lock = threading.Lock()
    cursor = iter(range(len(plans)))

    def worker():
        while True:
            with lock:
                i = next(cursor, None)
            if i is None:
                return
            plan = plans[i]
            t0 = time.perf_counter()
            try:
                estimate = post_field(
                    port, "/v1/estimate", plan.estimate_body, "selectivity"
                )
            except RequestFailed as exc:
                estimate = exc
            t1 = time.perf_counter()
            try:
                row = post_field(port, "/v1/predict", plan.row_body, "selectivities")
            except RequestFailed as exc:
                row = exc
            results[i] = (t1 - t0, estimate, time.perf_counter() - t1, row)

    threads = [threading.Thread(target=worker) for _ in range(PLAN_CONNECTIONS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    phase.close()
    checked = []
    for plan, (est_s, estimate, row_s, row) in zip(plans, results):
        if isinstance(estimate, Exception):
            tally.fail(str(estimate))
        elif not _in_unit(estimate):
            tally.fail(f"estimate {estimate!r} outside [0, 1]")
            estimate = ValueError("bad estimate")
        else:
            tally.ok()
            samples["estimate"].append(est_s)
        if isinstance(row, Exception):
            tally.fail(str(row))
        elif not _unit_list(row, len(plan.row)):
            tally.fail(f"bad row {row!r:.200}")
            row = ValueError("bad row")
        else:
            tally.ok()
            samples["row"].append(row_s)
        checked.append((est_s, estimate, row_s, row))
    return phase, checked


def run_batches(port: int, batches, tally: Tally, samples: dict):
    """Bulk batches in sequence; an answer is ``None`` unless it is valid."""
    from stack import RequestFailed, post_field

    phase = Phase("scan", port)
    replies = []
    for batch in batches:
        t0 = time.perf_counter()
        try:
            values = post_field(port, "/v1/predict", batch.body, "selectivities")
        except RequestFailed as exc:
            values = exc
        replies.append((time.perf_counter() - t0, values))
    phase.close()
    answers = []
    for batch, (seconds, values) in zip(batches, replies):
        if isinstance(values, Exception):
            tally.fail(str(values))
            values = None
        elif not _unit_list(values, len(batch.queries)):
            tally.fail("bad bulk reply")
            values = None
        else:
            tally.ok()
            samples["scan"].append(seconds)
        answers.append(values)
    return phase, answers


def check_round(port: int, round_, plan_results, batch_answers, tally: Tally) -> None:
    """Compare every answer of the round with the newest snapshot."""
    requests: list[tuple[list, list]] = []
    for plan, (_, estimate, _, row) in zip(round_.plans, plan_results):
        if not isinstance(estimate, Exception):
            requests.append(([plan.estimate], [estimate]))
        if not isinstance(row, Exception):
            requests.append((plan.row, row))
    requests.extend(zip((b.queries for b in round_.batches), batch_answers))
    check_answers(port, requests, tally)


def check_answers(port: int, requests, tally: Tally) -> None:
    """Each ``(queries, served)`` against ``predict_many`` of the newest snapshot."""
    import numpy as np

    from repro.persistence import load_model
    from stack import get_json

    requests = [(qs, served) for qs, served in requests if served is not None]
    model = load_model(get_json(port, "/v1/status")["snapshot"]["path"])
    queries = [q for qs, _ in requests for q in qs]
    expected = model.predict_many(queries) if queries else np.zeros(0)
    offset = 0
    for qs, served in requests:
        want = expected[offset : offset + len(qs)]
        offset += len(qs)
        if len(served) != len(qs) or np.max(
            np.abs(np.asarray(served, dtype=float) - want)
        ) > TOLERANCE:
            tally.mismatch("served answer differs from predict_many of the snapshot")


def check_identities(phase: Phase, tally: Tally, sent: dict) -> None:
    """Counter identities on one phase's ``/metrics`` delta."""
    queries = phase.delta("repro_service_queries_total")
    hits = phase.delta("repro_prediction_cache_hits_total")
    misses = phase.delta("repro_prediction_cache_misses_total")
    tally.check(
        hits + misses == queries,
        f"{phase.kind}: hits {hits} + misses {misses} != queries {queries}",
    )
    tally.check(
        phase.delta("repro_coalesced_queries_total") <= queries,
        f"{phase.kind}: coalesced queries exceed service queries",
    )
    for endpoint, count in sent.items():
        served = phase.delta("repro_http_requests_total", endpoint=endpoint, status="2xx")
        tally.check(served == count, f"{phase.kind}: {endpoint} 2xx {served} != sent {count}")
    tally.check(
        phase.delta("repro_update_fallback_total") == 0,
        f"{phase.kind}: an update fell back to a full retrain",
    )


# ---------------------------------------------------------------------------
# One measured run
# ---------------------------------------------------------------------------


def measure(inputs, workdir: Path) -> dict:
    """The untraced run: bootstrap, rounds, checks; returns raw results."""
    tally = Tally()
    setups = []
    samples = {k: [] for k in SAMPLE_KINDS}
    rounds: list[dict] = []
    phases: list[Phase] = []
    reports: list[dict] = []
    server = None
    try:
        for i in range(SETUPS):
            if server is not None:
                server.stop()
            server, seconds = bootstrap(inputs, workdir / f"server{i}", tally)
            setups.append(seconds)
        port = server.port
        # The client's own collector pauses would show up as server latency.
        gc.collect()
        gc.disable()
        leaves = [_status(port)["model_size"]]
        for r, round_ in enumerate(inputs.rounds):
            round_samples = {k: [] for k in SAMPLE_KINDS}
            if r > 0:
                phase = run_feedback(port, round_, tally, round_samples)
                check_identities(phase, tally, {"/v1/feedback": len(round_.feedback_bodies)})
                phases.append(phase)
                phase = run_update(port, tally, round_samples, reports)
                check_identities(phase, tally, {"/v1/update": 1})
                phases.append(phase)
            phase, plan_results = run_plans(port, round_.plans, tally, round_samples)
            check_identities(
                phase,
                tally,
                {"/v1/estimate": len(round_.plans), "/v1/predict": len(round_.plans)},
            )
            phases.append(phase)
            phase, batch_answers = run_batches(
                port, round_.batches, tally, round_samples
            )
            check_identities(phase, tally, {"/v1/predict": len(round_.batches)})
            phases.append(phase)
            check_round(port, round_, plan_results, batch_answers, tally)
            rounds.append(round_samples)
            for kind, values in round_samples.items():
                samples[kind].extend(values)
            leaves.append(_status(port)["model_size"])
        # Accuracy: the final model on the workload's held-out set (not
        # timed; its latencies go to a throwaway sample list).
        phase, eval_answers = run_batches(port, inputs.eval_batches, tally, {"scan": []})
        check_identities(phase, tally, {"/v1/predict": len(inputs.eval_batches)})
        check_answers(
            port,
            [(b.queries, v) for b, v in zip(inputs.eval_batches, eval_answers)],
            tally,
        )
        rss_mb = server.peak_rss_mb()
    finally:
        gc.enable()
        if server is not None:
            server.stop()
    return {
        "tally": tally,
        "setups": setups,
        "samples": samples,
        "rounds": rounds,
        "phases": phases,
        "reports": reports,
        "eval": [v for values in eval_answers for v in values or []],
        "rss_mb": rss_mb,
        "leaves": leaves,
    }


def _status(port: int) -> dict:
    from stack import get_json

    return get_json(port, "/v1/status")


def _accuracy(inputs, run: dict):
    import numpy as np

    from repro.eval.metrics import q_errors, rms_error

    served = np.asarray(run["eval"], dtype=float)
    return q_errors(served, inputs.eval_truth), rms_error(served, inputs.eval_truth)


def interquartile_mean(values) -> float:
    """Mean of the middle half (all of them when there are fewer than 4)."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut : len(values) - cut])


def end_to_end(inputs, run: dict) -> dict:
    """User-visible metrics.

    Each round gives a value of each latency and throughput metric, and
    the metric is the median over the run's rounds.  On a shared 2-CPU
    host, episodes of contention from other tenants last tens of seconds
    and slow a few rounds of some runs by up to 1.5-3x; pooled over the
    whole run, those rounds moved p50s by up to 0.27 and p90s by up to
    0.44 of their median between seeds.  Every round has at least 10
    samples beyond its p90 at ``--seconds 10``.  The tail is p90: the
    first requests after each update or bulk batch pay the server's
    collector pauses, a few percent of all requests, so p95 and p99 sit
    on that mode's edge.  Update cost rises with history, so updates are
    not reduced to a median over rounds (one update per round) but to the
    mean of their middle half, which keeps most of the run's updates.
    """
    import numpy as np

    from inputs import BATCH_SIZE

    def over_rounds(kind: str, stat) -> float:
        return statistics.median(
            stat([v * 1e3 for v in r[kind]]) for r in run["rounds"] if r[kind]
        )

    def p50(ms):
        return percentile(ms, 50)

    def p90(ms):
        return percentile(ms, 90)

    qerr, rms = _accuracy(inputs, run)
    return {
        "setup_s": (statistics.median(run["setups"]), "s"),
        "estimate_p50_ms": (over_rounds("estimate", p50), "ms"),
        "estimate_p90_ms": (over_rounds("estimate", p90), "ms"),
        "row_p50_ms": (over_rounds("row", p50), "ms"),
        "row_p90_ms": (over_rounds("row", p90), "ms"),
        "scan_qps": (
            over_rounds("scan", lambda ms: BATCH_SIZE * len(ms) / sum(ms) * 1e3),
            "1/s",
        ),
        "feedback_p50_ms": (over_rounds("feedback", p50), "ms"),
        "update_ms_iqm": (
            interquartile_mean(v * 1e3 for v in run["samples"]["update"]),
            "ms",
        ),
        "qerror_p50": (float(np.quantile(qerr, 0.5)), "ratio"),
        "rms_err": (rms, "selectivity"),
        "rss_mb": (run["rss_mb"], "MiB"),
    }


def per_layer_untraced(inputs, run: dict) -> dict:
    """Layer metrics of the HTTP and serving layers, from ``/metrics`` deltas."""
    import numpy as np

    from inputs import BATCH_SIZE

    phases = run["phases"]
    samples = run["samples"]

    def total(kind: str, name: str, **labels) -> float:
        return sum(p.delta(name, **labels) for p in phases if p.kind == kind)

    def server_mean_s(kind: str, endpoint: str) -> float:
        count = total(kind, "repro_http_request_seconds_count", endpoint=endpoint)
        return total(kind, "repro_http_request_seconds_sum", endpoint=endpoint) / count

    waterfall = {
        # request type: (phase kind, endpoint, client samples, queries per request)
        "estimate": ("plan", "/v1/estimate", samples["estimate"], 1),
        "row": ("plan", "/v1/predict", samples["row"], 2**inputs.dim - 1),
        "scan": ("scan", "/v1/predict", samples["scan"], BATCH_SIZE),
        "feedback": ("feedback", "/v1/feedback", samples["feedback"], 1),
        "update": ("update", "/v1/update", samples["update"], 1),
    }
    out = {}
    for name, (kind, endpoint, client, per_request) in waterfall.items():
        client_us = statistics.fmean(client) * 1e6 / per_request
        server_us = server_mean_s(kind, endpoint) * 1e6 / per_request
        out[f"waterfall.{name}.client_us_per_query"] = (client_us, "us")
        out[f"waterfall.{name}.server_us_per_query"] = (server_us, "us")
        out[f"waterfall.{name}.outside_us_per_query"] = (client_us - server_us, "us")
    out["server.outside_handler_ms"] = (
        out["waterfall.estimate.outside_us_per_query"][0] / 1e3,
        "ms",
    )
    out["server.handler_ms"] = (out["waterfall.estimate.server_us_per_query"][0] / 1e3, "ms")

    # Server stages per request (plans) and per query (bulk): admission
    # queue, coalescer wait, the estimate_many kernel call, and the rest of
    # the handler (body read, JSON, Range decode, reply write).
    for kind, unit_name, divisor in (("plan", "request", 1), ("scan", "query", BATCH_SIZE)):
        requests = total(kind, "repro_request_stage_seconds_count", stage="total")
        stage_us = {
            stage: total(kind, "repro_request_stage_seconds_sum", stage=stage)
            / requests
            / divisor
            * 1e6
            for stage in ("queue", "coalesce", "kernel", "total")
        }
        stage_us["other"] = stage_us.pop("total") - sum(stage_us.values())
        for stage, value in stage_us.items():
            out[f"stages.{kind}.{stage}_us_per_{unit_name}"] = (value, "us")
    out["serving.queue_ms"] = (out["stages.plan.queue_us_per_request"][0] / 1e3, "ms")
    out["serving.coalesce_ms"] = (out["stages.plan.coalesce_us_per_request"][0] / 1e3, "ms")
    out["service.kernel_ms"] = (out["stages.plan.kernel_us_per_request"][0] / 1e3, "ms")
    batches = total("plan", "repro_coalesced_batches_total")
    out["serving.fold"] = (total("plan", "repro_coalesced_queries_total") / batches, "queries")
    out["serving.shed"] = (
        sum(
            p.delta("repro_requests_shed_total") + p.delta("repro_deadline_expired_total")
            for p in phases
        ),
        "count",
    )
    # A plan's estimate is its row's full conjunction, so even unique plans
    # hit once per row; bulk batches are unique queries and never hit.
    hits = {k: total(k, "repro_prediction_cache_hits_total") for k in ("plan", "scan")}
    misses = {k: total(k, "repro_prediction_cache_misses_total") for k in ("plan", "scan")}
    reads = sum(hits.values()) + sum(misses.values())
    out["service.cache_hit_rate"] = (sum(hits.values()) / reads, "frac")
    out["service.scan_cache_hit_rate"] = (
        hits["scan"] / (hits["scan"] + misses["scan"]),
        "frac",
    )
    predicted = sum(total(k, "repro_predict_queries_total") for k in ("plan", "scan"))
    candidates = sum(total(k, "repro_sparse_candidates") for k in ("plan", "scan"))
    out["geometry.candidates_per_query"] = (candidates / predicted, "pairs")
    pruned = phases[-1].after.by_label("repro_sparse_pruned_frac", "kernel")
    out["geometry.pruned_frac"] = (pruned.get("box", 0.0), "frac")
    reports = run["reports"]
    recomputed = sum(r["columns_recomputed"] for r in reports)
    columns = sum(r["buckets_after"] for r in reports)
    out["core.columns_recomputed_frac"] = (recomputed / columns if columns else 0.0, "frac")
    out["core.update_fallbacks"] = (total("update", "repro_update_fallback_total"), "count")
    for reason in UPDATE_FALLBACK_REASONS:
        out[f"core.update_fallbacks.{reason}"] = (
            total("update", "repro_update_fallback_total", reason=reason),
            "count",
        )
    out["solvers.fallbacks"] = (phases[-1].after.value("repro_solve_fallback_total"), "count")
    qerr, _ = _accuracy(inputs, run)
    out["accuracy.qerror_p95"] = (float(np.quantile(qerr, 0.95)), "ratio")
    out["workload.repeat_share"] = (inputs.repeat_share, "frac")
    out["workload.model_leaves"] = (float(run["leaves"][0]), "count")
    tally = run["tally"]
    out["error_rate"] = (tally.failed / max(1, tally.attempted), "frac")
    return out


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def _print_context(inputs, run: dict) -> None:
    import numpy as np

    workload = inputs.workload
    samples = run["samples"]
    context = {
        "workload": workload.name,
        "cpu_count": os.cpu_count(),
        "model_leaves_per_round": run["leaves"],
        "repeat_share": round(inputs.repeat_share, 4),
        "scan_mix": {"box": inputs.boxes, "halfspace": inputs.halfspaces},
        "samples": {k: len(v) for k, v in samples.items()},
        "setups_s": [round(s, 4) for s in run["setups"]],
    }
    if samples["estimate"]:
        # 0.5 ms bins: shows whether the p50 sits inside one coalescer mode.
        counts = np.bincount(
            np.minimum((np.asarray(samples["estimate"]) * 2e3).astype(int), 40)
        )
        context["estimate_ms_hist_0.5ms_bins"] = counts.tolist()
    for kind in ("estimate", "row"):
        if not tail_supported(min(len(r[kind]) for r in run["rounds"]), 90):
            context.setdefault("p90_unsupported", []).append(kind)
    print("context " + json.dumps(context))
    for reason in run["tally"].reasons:
        print(f"failure: {reason}", file=sys.stderr)


def _terminate(signum, frame):
    raise SystemExit(128 + signum)  # unwinds through every server's stop()


def main(argv=None) -> int:
    signal.signal(signal.SIGTERM, _terminate)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inputs as inputs_mod

    if args.workload not in inputs_mod.WORKLOADS:
        print(
            f"error: unknown workload {args.workload!r}; "
            f"choose from {sorted(inputs_mod.WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    inputs = inputs_mod.generate(
        inputs_mod.WORKLOADS[args.workload], args.seed, args.seconds
    )
    workdir = ROOT / ".perfbench_run" / str(os.getpid())
    try:
        run = measure(inputs, workdir / "http")
        if args.trace:
            import tracer

            metrics = per_layer_untraced(inputs, run)
            traced, silent = tracer.replay(inputs, workdir / "replay")
            metrics.update(traced)
            for name in silent:
                run["tally"].fail(f"{name}: its span never fired in the replay")
        else:
            metrics = end_to_end(inputs, run)
        _print_context(inputs, run)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass
    tally = run["tally"]
    print(
        json.dumps(
            {
                "correct": tally.failed == 0,
                "attempted": tally.attempted,
                "failed": tally.failed,
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
