"""Traced replay: the same inputs, in-process, with a span around each layer.

The replay builds the same stack ``repro serve`` runs (an
``EstimatorService`` sized by the registry's ``quadhist`` factory, the
default ``ServingConfig`` admission controller and coalescer, the stdlib
HTTP server from ``repro.server.serve``) inside this process.  Over one
connection it sends the bootstrap, then a fifth of the reads of the first
three rounds and both of their updates.  Wrappers are installed from this
file around each layer's functions, so ``src/`` is not edited:

=============  ==========================================================
layer          wrapped
=============  ==========================================================
server         ``json.loads`` / ``json.dumps`` as seen by ``repro.server``
data           ``range_from_dict``
service        ``EstimatorService.estimate_many`` / ``_cache_key`` /
               ``feedback`` / ``update``
robustness     ``sanitize_training_data`` (the feedback screen)
core           ``SelectivityEstimator.fit`` / ``predict_many``,
               ``IncrementalTreeHistogram.partial_fit``
geometry       the dense and sparse coverage kernels, their box and
               halfspace family kernels, design-matrix assembly
solvers        ``solve_weights``
persistence    ``SnapshotStore.save``
observability  every counter / gauge / histogram operation (counted only)
=============  ==========================================================

A span's self time is its duration minus the time of the wrapped spans it
called.  After a discarded warm-up, the replay runs twice without and twice
with the wrappers (ABBA order), each on a fresh service;
``trace.overhead_frac`` is the relative difference of their process CPU
time.
"""

from __future__ import annotations

import contextlib
import gc
import math
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Share of each round's plans and batches one replay sends.
REPLAY_SHARE = 0.2
#: Rounds one replay covers (bootstrap, reads, then two updates with reads).
REPLAY_ROUNDS = 3

_CONTEXTS = {
    "core.predict": "predict",
    "core.fit": "fit",
    "core.partial_fit": "partial_fit",
}


class Tracer:
    """Per-thread span stacks; totals per (span, context) key."""

    def __init__(self):
        self._local = threading.local()
        self._lock = threading.Lock()
        #: key -> [calls, total seconds, self seconds, items]
        self.stats: dict[str, list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        self.ops: dict[str, int] = defaultdict(int)
        #: Queries reaching ``predict_many`` by range family.
        self.families: dict[str, int] = defaultdict(int)

    def count_families(self, queries) -> int:
        for query in queries:
            self.families[type(query).__name__] += 1
        return len(queries)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def inside(self, name: str) -> bool:
        return any(frame[0] == name for frame in self._stack())

    def context(self) -> str:
        """The innermost enclosing core-layer span, which owns kernel time."""
        for frame in reversed(self._stack()):
            if frame[0] in _CONTEXTS:
                return _CONTEXTS[frame[0]]
        return "other"

    def wrap(self, name, fn, items=None, contextual=False):
        """Time ``fn`` as span ``name``.

        ``items(args)`` counts the work a call carries (queries);
        ``contextual`` splits the totals by the enclosing core span
        (``@predict``, ``@fit``, ``@partial_fit``), so kernel time spent
        building design matrices is not charged to prediction.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            key = name
            if contextual:
                key += "@" + tracer.context()
            frame = [name, 0.0]
            stack.append(frame)
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                count = items(args) if items is not None else 0
                with tracer._lock:
                    entry = tracer.stats[key]
                    entry[0] += 1
                    entry[1] += elapsed
                    entry[2] += elapsed - frame[1]
                    entry[3] += count

        return wrapper

    def count_op(self, kind: str, fn):
        tracer = self

        def wrapper(metric, *args, **labels):
            with tracer._lock:
                tracer.ops[kind + ("_labelled" if labels else "")] += 1
            return fn(metric, *args, **labels)

        return wrapper


class _JsonView:
    """``repro.server``'s view of :mod:`json`, with decode/encode spans."""

    def __init__(self, real, tracer: Tracer):
        self._real = real
        self.JSONDecodeError = real.JSONDecodeError
        self._loads = tracer.wrap("server.json_decode", real.loads)
        self._dumps = tracer.wrap("server.json_encode", real.dumps)
        self._tracer = tracer

    def loads(self, *args, **kwargs):
        return self._loads(*args, **kwargs)

    def dumps(self, *args, **kwargs):
        # The cache key's json.dumps belongs to the service layer.
        if self._tracer.inside("service.cache_key"):
            return self._real.dumps(*args, **kwargs)
        return self._dumps(*args, **kwargs)


@contextlib.contextmanager
def installed(tracer: Tracer):
    """Install every wrapper; restore the originals on exit."""
    import json

    import repro.core.incremental as incremental
    import repro.core.quadhist as quadhist
    import repro.geometry.batch as batch
    import repro.geometry.sparse as sparse
    import repro.server as server
    from repro.core.estimator import SelectivityEstimator
    from repro.observability.metrics import Counter, Gauge, Histogram
    from repro.persistence.snapshots import SnapshotStore

    patches = [
        (server, "json", _JsonView(json, tracer)),
        (server, "range_from_dict", tracer.wrap("data.decode", server.range_from_dict)),
        (
            server,
            "sanitize_training_data",
            tracer.wrap("robustness.screen", server.sanitize_training_data),
        ),
        (
            server.EstimatorService,
            "estimate_many",
            tracer.wrap(
                "service.estimate_many",
                server.EstimatorService.estimate_many,
                items=lambda args: len(args[1]),
            ),
        ),
        (
            server.EstimatorService,
            "_cache_key",
            staticmethod(
                tracer.wrap(
                    "service.cache_key",
                    server.EstimatorService.__dict__["_cache_key"].__func__,
                )
            ),
        ),
        (
            server.EstimatorService,
            "feedback",
            tracer.wrap("service.feedback", server.EstimatorService.feedback),
        ),
        (
            server.EstimatorService,
            "update",
            tracer.wrap("service.update", server.EstimatorService.update),
        ),
        (
            SelectivityEstimator,
            "predict_many",
            tracer.wrap(
                "core.predict",
                SelectivityEstimator.predict_many,
                items=lambda args: tracer.count_families(args[1]),
            ),
        ),
        (SelectivityEstimator, "fit", tracer.wrap("core.fit", SelectivityEstimator.fit)),
        (
            incremental.IncrementalTreeHistogram,
            "partial_fit",
            tracer.wrap(
                "core.partial_fit", incremental.IncrementalTreeHistogram.partial_fit
            ),
        ),
        (
            incremental,
            "sparse_coverage_matrix",
            tracer.wrap(
                "geometry.design", incremental.sparse_coverage_matrix, contextual=True
            ),
        ),
        (
            incremental,
            "assemble_design",
            tracer.wrap(
                "geometry.design", incremental.assemble_design, contextual=True
            ),
        ),
        (
            incremental,
            "solve_weights",
            tracer.wrap("solvers.solve", incremental.solve_weights, contextual=True),
        ),
        (
            quadhist,
            "coverage_dot",
            tracer.wrap("geometry.kernel", quadhist.coverage_dot, contextual=True),
        ),
        (
            quadhist,
            "sparse_coverage_dot",
            tracer.wrap("geometry.kernel", quadhist.sparse_coverage_dot, contextual=True),
        ),
        (
            SnapshotStore,
            "save",
            tracer.wrap("persistence.save", SnapshotStore.save),
        ),
        (Counter, "inc", tracer.count_op("counter", Counter.inc)),
        (Gauge, "set", tracer.count_op("gauge", Gauge.set)),
        (Gauge, "inc", tracer.count_op("gauge", Gauge.inc)),
        (Histogram, "observe", tracer.count_op("histogram", Histogram.observe)),
    ]
    # Family kernels: box and halfspace arithmetic, dense and sparse.
    for module, attr, family in (
        (batch, "_box_coverage_dot", "box"),
        (batch, "box_box_volume_matrix", "box"),
        (batch, "box_halfspace_volume_matrix", "halfspace"),
        (sparse, "_box_pair_volumes", "box"),
        (sparse, "_halfspace_pair_volumes", "halfspace"),
    ):
        patches.append(
            (
                module,
                attr,
                tracer.wrap(
                    f"geometry.{family}", getattr(module, attr), contextual=True
                ),
            )
        )
    originals = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in patches]
    try:
        for owner, attr, replacement in patches:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in reversed(originals):
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Replay
# ---------------------------------------------------------------------------


def _share(items: list) -> list:
    return items[: max(1, math.ceil(len(items) * REPLAY_SHARE))]


def _replay_once(inputs, workdir: Path, on_traffic=None) -> dict:
    """Bootstrap an in-process stack, replay the traffic; returns timings."""
    from repro.core.registry import estimator_factories
    from repro.observability import MetricsRegistry
    from repro.server import EstimatorService, serve
    from repro.serving import AdmissionController, PredictCoalescer, ServingConfig
    from stack import post_json

    config = ServingConfig()
    factory = estimator_factories()["quadhist"]
    expected = inputs.workload.expected_train
    registry = MetricsRegistry()
    service = EstimatorService(
        lambda: factory(expected),
        sanitize_policy="drop",
        snapshot_dir=str(workdir / "snapshots"),
        registry=registry,
    )
    admission = AdmissionController(
        max_concurrency=config.max_concurrency,
        queue_depth=config.queue_depth,
        shed_retry_after_s=config.shed_retry_after_s,
        registry=registry,
    )
    coalescer = PredictCoalescer(
        service.estimate_many,
        flush_ms=config.flush_ms,
        max_batch=config.max_batch,
        registry=registry,
    )
    server = serve(
        service,
        admission=admission,
        coalescer=coalescer,
        default_deadline_ms=config.deadline_ms,
    )
    port = server.server_address[1]
    gc.collect()  # the previous replay's garbage is not this replay's cost
    deadline = {"X-Deadline-Ms": "600000"}
    counts = {"requests": 0, "queries": 0}
    try:
        for body in inputs.bootstrap_bodies:
            post_json(port, "/v1/feedback", body)
        post_json(port, "/v1/retrain", b"{}", deadline)
        if on_traffic is not None:
            on_traffic()
        start_cpu = time.process_time()
        for r, round_ in enumerate(inputs.rounds[:REPLAY_ROUNDS]):
            if r > 0:
                for body in round_.feedback_bodies:
                    post_json(port, "/v1/feedback", body)
                post_json(port, "/v1/update", b"{}", deadline)
                counts["requests"] += len(round_.feedback_bodies) + 1
                counts["queries"] += len(round_.feedback_bodies)
            for plan in _share(round_.plans):
                post_json(port, "/v1/estimate", plan.estimate_body)
                post_json(port, "/v1/predict", plan.row_body)
                counts["requests"] += 2
                counts["queries"] += 1 + len(plan.row)
            for batch in _share(round_.batches):
                post_json(port, "/v1/predict", batch.body)
                counts["requests"] += 1
                counts["queries"] += len(batch.queries)
        counts["cpu"] = time.process_time() - start_cpu
        counts["snapshot_bytes"] = [
            os.path.getsize(path)
            for path in (workdir / "snapshots").glob("gen-*")
            if path.is_file()
        ]
    finally:
        server.shutdown()
        server.server_close()
    return counts


def _ns_per_op(ops: dict) -> float:
    """Mean cost of one metric operation, weighted by the replay's mix."""
    from repro.observability import MetricsRegistry

    registry = MetricsRegistry()
    plain = {
        "counter": registry.counter("bench_c", "c").inc,
        "gauge": registry.gauge("bench_g", "g").set,
        "histogram": registry.histogram("bench_h", "h").observe,
    }
    labelled = {
        "counter": registry.counter("bench_cl", "c", labels=("k",)).inc,
        "gauge": registry.gauge("bench_gl", "g", labels=("k",)).set,
        "histogram": registry.histogram("bench_hl", "h", labels=("k",)).observe,
    }
    reps = 20_000
    cost = {}
    for kind in plain:
        for name, op, labels in (
            (kind, plain[kind], {}),
            (kind + "_labelled", labelled[kind], {"k": "v"}),
        ):
            start = time.perf_counter_ns()
            for _ in range(reps):
                op(0.001, **labels)
            cost[name] = (time.perf_counter_ns() - start) / reps
    total = sum(ops.values())
    return sum(cost[kind] * n for kind, n in ops.items()) / total


def replay(inputs, workdir: Path) -> tuple[dict, list[str]]:
    """Per-layer metrics from the traced replay (``--trace 1``), and the
    names of those whose span never fired."""
    # A first replay pays the one-off costs (lazy imports, first kernel
    # calls, growing the heap) and is discarded.  Then plain and traced
    # replays run in ABBA order, so drift within the run cancels out of
    # the overhead; the per-layer figures come from the first traced one.
    _replay_once(inputs, workdir / "warmup")
    tracer = Tracer()
    before: dict[str, int] = {}
    plain_cpu = _replay_once(inputs, workdir / "plain0")["cpu"]
    with installed(tracer):
        traced = _replay_once(
            inputs, workdir / "traced0", on_traffic=lambda: before.update(tracer.ops)
        )
        ops = {kind: n - before.get(kind, 0) for kind, n in tracer.ops.items()}
        stats = defaultdict(
            lambda: [0, 0.0, 0.0, 0], {k: list(v) for k, v in tracer.stats.items()}
        )
        families = dict(tracer.families)
        traced_cpu = traced["cpu"] + _replay_once(inputs, workdir / "traced1")["cpu"]
    plain_cpu += _replay_once(inputs, workdir / "plain1")["cpu"]

    def calls(key):
        return stats[key][0]

    def total(key):
        return stats[key][1]

    def self_time(key):
        return stats[key][2]

    def mean(value, count, scale):
        return (value / count * scale) if count else 0.0

    queries = traced["queries"]
    predicted = stats["core.predict"][3]
    fits = calls("core.fit")
    updates = calls("core.partial_fit")
    snapshots = traced["snapshot_bytes"]
    metrics = {
        "server.json_decode_us_per_query": (total("server.json_decode"), queries, 1e6, "us"),
        "server.json_encode_us_per_query": (total("server.json_encode"), queries, 1e6, "us"),
        "data.decode_us_per_query": (total("data.decode"), calls("data.decode"), 1e6, "us"),
        "service.self_us_per_query": (
            self_time("service.estimate_many"),
            stats["service.estimate_many"][3],
            1e6,
            "us",
        ),
        "service.cache_key_us_per_query": (
            total("service.cache_key"),
            calls("service.cache_key"),
            1e6,
            "us",
        ),
        "service.feedback_us": (total("service.feedback"), calls("service.feedback"), 1e6, "us"),
        "service.update_self_ms": (self_time("service.update"), calls("service.update"), 1e3, "ms"),
        "core.predict_us_per_query": (self_time("core.predict"), predicted, 1e6, "us"),
        "core.fit_s": (total("core.fit"), fits, 1.0, "s"),
        "core.partial_fit_ms": (self_time("core.partial_fit"), updates, 1e3, "ms"),
        "geometry.box_us_per_query": (
            total("geometry.box@predict"),
            families.get("Box", 0),
            1e6,
            "us",
        ),
        "geometry.halfspace_us_per_query": (
            total("geometry.halfspace@predict"),
            families.get("Halfspace", 0),
            1e6,
            "us",
        ),
        "geometry.kernel_self_us_per_query": (
            self_time("geometry.kernel@predict"),
            predicted,
            1e6,
            "us",
        ),
        "geometry.design_ms": (total("geometry.design@partial_fit"), updates, 1e3, "ms"),
        "geometry.fit_design_ms": (total("geometry.design@fit"), fits, 1e3, "ms"),
        "solvers.solve_ms": (total("solvers.solve@partial_fit"), updates, 1e3, "ms"),
        "solvers.fit_solve_ms": (total("solvers.solve@fit"), fits, 1e3, "ms"),
        "persistence.save_ms": (
            total("persistence.save"),
            calls("persistence.save"),
            1e3,
            "ms",
        ),
        "persistence.bytes_per_snapshot": (sum(snapshots), len(snapshots), 1.0, "bytes"),
        "robustness.screen_us": (
            total("robustness.screen"),
            calls("robustness.screen"),
            1e6,
            "us",
        ),
        "observability.ops_per_request": (sum(ops.values()), traced["requests"], 1.0, "ops"),
    }
    out = {
        name: (mean(value, count, scale), unit)
        for name, (value, count, scale, unit) in metrics.items()
    }
    # Every workload exercises every layer, so a span that never fired (or
    # took no time) means a wrapper no longer intercepts its call site.
    silent = [
        name for name, (value, count, _, _) in metrics.items() if not (value and count)
    ]
    out["observability.ns_per_op"] = (_ns_per_op(ops) if ops else 0.0, "ns")
    out["trace.overhead_frac"] = ((traced_cpu - plain_cpu) / plain_cpu, "frac")
    return out, silent
