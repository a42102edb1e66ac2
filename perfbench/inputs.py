"""Seeded inputs for the three workloads (the paper's Section 4 setup).

The traffic is generated here from ``--seed``: the optimizer's plans, the
bulk scan batches and the feedback batches.  The bootstrap feedback and a
held-out set scored after the last round are part of each workload's
definition and use a fixed seed.  The dataset is the repository's
``power_like`` stand-in (its own fixed seed, 40k rows); ground truth comes
from ``repro.data.label_queries``.

Every workload runs the same round structure, so every end-to-end metric
has a value on every workload; the workloads differ in the model, the
query distribution and how much of each kind of traffic a round carries:

* round 0 serves reads on the bootstrapped model;
* every later round first posts a feedback batch and one ``/v1/update``
  (writes never overlap a timed read), then serves reads again.

A *plan* is the maliva probe shape: one ``/v1/estimate`` for the full
conjunction, then one ``/v1/predict`` row with the selectivity of every
non-empty subset of the predicates, sel(0..01) … sel(1..11), i.e. 7
boxes in 3-D and 3 boxes in 2-D.  Predicates left out of a subset span
the whole unit domain.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from repro.data import WorkloadSpec, generate_workload, label_queries
from repro.data.io import range_from_dict, range_to_dict
from repro.data.synthetic import power_like
from repro.geometry.ranges import Box

DATASET_ROWS = 40_000
#: Bulk batch size: large enough that per-request HTTP cost is amortised.
BATCH_SIZE = 1000
#: Share of halfspaces in a bulk batch.  No published query mix fixes it,
#: so it is set from the per-query kernel costs the traced run measures
#: (``geometry.box_us_per_query`` ~35 us and
#: ``geometry.halfspace_us_per_query`` ~170 us on the 2-D scan and drift
#: models, 2-CPU x86 host): at b / (b + h) = 0.17 both families take the
#: same kernel time, so neither hides the other.
HALFSPACE_SHARE = 0.17
#: Zipf exponent of template popularity.  No published optimizer-probe
#: log fixes it; 1.2 is the skew the repository's own synthetic
#: categorical columns use (``repro.data.synthetic._zipf_codes``).
ZIPF_S = 1.2
#: Feedback rows per ``/v1/update`` (at ``--seconds 10``): the batch size
#: of the repository's Fig. 16 drift-path experiment
#: (``benchmarks/bench_fig16_workload_shift.py --incremental``).
FEEDBACK_PER_UPDATE = 100
#: Entries of the server's prediction LRU (``EstimatorService``'s default
#: ``prediction_cache_size``); the template pool is sized from it.
PREDICTION_CACHE_SIZE = 4096
#: Held-out queries scored against ground truth after the last round.
EVAL_SIZE = 2000
#: Seed of the bootstrap feedback and of the held-out set.  Both are part
#: of the workload's definition, so every seed starts from the same model
#: and is scored on the same queries; only the traffic varies with
#: ``--seed``.
FIXED_SEED = 20220612


@dataclass(frozen=True)
class WorkloadDef:
    """One workload; why each exists is stated in ``BENCHMARK.json``."""

    name: str
    attributes: tuple[int, ...]
    #: ``--expected-train`` of ``repro serve``: the registry QuadHist caps
    #: its leaves at 4x this.
    expected_train: int
    bootstrap: int
    #: ``"data"`` (data-centred, Section 4) or ``"gaussian"`` (Fig. 16).
    centers: str
    rounds: int
    plans_per_round: int
    batches_per_round: int
    #: Whether plans are drawn with Zipf weights from a fixed template
    #: pool (else every plan has its own template, so nothing repeats).
    #: The pool holds as many templates as the prediction LRU can keep
    #: resident with every query of their plans.
    templates: bool = False
    #: Gaussian centre of the bootstrap feedback and of each later round
    #: (the Fig. 16 train/test shift walk); unused for data centres.
    gaussian_means: tuple[float, ...] = ()
    #: Whether the round count (not just its contents) scales with
    #: ``--seconds``.
    scale_rounds: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        WorkloadDef(
            name="planner",
            attributes=(0, 2, 4),
            expected_train=250,
            bootstrap=400,
            centers="data",
            rounds=9,
            plans_per_round=200,
            batches_per_round=2,
            templates=True,
        ),
        WorkloadDef(
            name="scan",
            attributes=(0, 3),
            expected_train=1000,
            bootstrap=500,
            centers="data",
            rounds=9,
            plans_per_round=120,
            batches_per_round=3,
        ),
        WorkloadDef(
            name="drift",
            attributes=(0, 3),
            expected_train=1000,
            # The Fig. 16 experiment's training set size (TRAIN_SIZE in
            # benchmarks/bench_fig16_workload_shift.py) and its drift path
            # 0.2 -> 0.7 at half its step, so a run makes 10 updates.
            bootstrap=200,
            centers="gaussian",
            rounds=11,
            plans_per_round=150,
            batches_per_round=1,
            gaussian_means=(0.2, 0.25, 0.3, 0.35, 0.4, 0.45, 0.5, 0.55, 0.6, 0.65, 0.7),
            scale_rounds=True,
        ),
    )
}


@dataclass
class Plan:
    estimate: object
    row: list
    estimate_body: bytes
    row_body: bytes


@dataclass
class Batch:
    queries: list
    body: bytes
    halfspaces: int


@dataclass
class Round:
    feedback_bodies: list[bytes]
    plans: list[Plan]
    batches: list[Batch]


@dataclass
class Inputs:
    workload: WorkloadDef
    dim: int
    bootstrap_bodies: list[bytes]
    rounds: list[Round]
    #: Held-out set, served after the last round in /v1/predict batches.
    eval_batches: list[Batch]
    eval_truth: np.ndarray
    repeat_share: float = 0.0
    halfspaces: int = 0
    boxes: int = 0


def _canonical(query):
    """The range exactly as the server will decode it from JSON."""
    return range_from_dict(json.loads(json.dumps(range_to_dict(query))))


def _feedback_body(query, selectivity: float) -> bytes:
    return json.dumps(
        {"query": range_to_dict(query), "selectivity": float(selectivity)}
    ).encode()


def _spec(kind: str, workload: WorkloadDef, mean: float) -> WorkloadSpec:
    if workload.centers == "gaussian":
        return WorkloadSpec(query_kind=kind, center_kind="gaussian", gaussian_mean=mean)
    return WorkloadSpec(query_kind=kind, center_kind="data")


def _plan(box: Box) -> Plan:
    dim = box.dim
    row = []
    for mask in range(1, 1 << dim):
        lows = np.zeros(dim)
        highs = np.ones(dim)
        for axis in range(dim):
            if mask >> (dim - 1 - axis) & 1:
                lows[axis], highs[axis] = box.lows[axis], box.highs[axis]
        row.append(_canonical(Box(lows, highs)))
    estimate = row[-1]
    return Plan(
        estimate=estimate,
        row=row,
        estimate_body=json.dumps({"query": range_to_dict(estimate)}).encode(),
        row_body=json.dumps({"queries": [range_to_dict(q) for q in row]}).encode(),
    )


def _bulk_batch(workload: WorkloadDef, dim: int, rng, mean: float, dataset) -> Batch:
    """``BATCH_SIZE`` unique boxes and halfspaces in random order."""
    n_half = int(round(BATCH_SIZE * HALFSPACE_SHARE))
    queries = generate_workload(
        BATCH_SIZE - n_half, dim, rng, _spec("box", workload, mean), dataset
    ) + generate_workload(n_half, dim, rng, _spec("halfspace", workload, mean), dataset)
    queries = [_canonical(queries[i]) for i in rng.permutation(len(queries))]
    body = json.dumps({"queries": [range_to_dict(q) for q in queries]}).encode()
    return Batch(queries=queries, body=body, halfspaces=n_half)


def scaled(count: int, seconds: float, floor: int = 1) -> int:
    return max(floor, int(round(count * seconds / 10.0)))


def generate(workload: WorkloadDef, seed: int, seconds: float) -> Inputs:
    """All inputs of one run; the same ``(seed, seconds)`` gives the same inputs."""
    rng = np.random.default_rng(seed)
    dataset = power_like(rows=DATASET_ROWS).project(list(workload.attributes))
    dim = dataset.dim
    n_rounds = (
        min(workload.rounds, 1 + scaled(workload.rounds - 1, seconds))
        if workload.scale_rounds
        else workload.rounds
    )
    means = workload.gaussian_means or (0.0,) * workload.rounds

    fixed = np.random.default_rng(FIXED_SEED)
    boot_q = generate_workload(
        workload.bootstrap, dim, fixed, _spec("box", workload, means[0]), dataset
    )
    boot_s = label_queries(dataset, boot_q)
    bootstrap_bodies = [_feedback_body(q, s) for q, s in zip(boot_q, boot_s)]

    plans_per_round = scaled(workload.plans_per_round, seconds, floor=4)
    batches_per_round = scaled(workload.batches_per_round, seconds)
    feedback_per_update = scaled(FEEDBACK_PER_UPDATE, seconds, floor=10)
    pool: list[Box] = []
    weights = None
    if workload.templates:
        pool_size = PREDICTION_CACHE_SIZE // (2**dim - 1)
        pool = generate_workload(
            pool_size, dim, rng, _spec("box", workload, means[0]), dataset
        )
        ranks = np.arange(1, pool_size + 1, dtype=float)
        weights = ranks**-ZIPF_S
        weights /= weights.sum()

    rounds: list[Round] = []
    seen_templates: set[int] = set()
    repeats = total_plans = 0
    n_boxes = n_halfspaces = 0
    for r in range(n_rounds):
        mean = means[r]
        feedback_bodies = []
        if r > 0:
            fb_q = generate_workload(
                feedback_per_update, dim, rng, _spec("box", workload, mean), dataset
            )
            fb_s = label_queries(dataset, fb_q)
            feedback_bodies = [_feedback_body(q, s) for q, s in zip(fb_q, fb_s)]
        if weights is not None:
            ids = rng.choice(len(pool), size=plans_per_round, p=weights)
            boxes = [pool[i] for i in ids]
        else:
            boxes = generate_workload(
                plans_per_round, dim, rng, _spec("box", workload, mean), dataset
            )
            ids = np.arange(total_plans, total_plans + plans_per_round)
        plans = []
        for template, box in zip(ids, boxes):
            template = int(template)
            repeats += template in seen_templates
            seen_templates.add(template)
            plans.append(_plan(box))
        total_plans += len(plans)

        batches = [
            _bulk_batch(workload, dim, rng, mean, dataset)
            for _ in range(batches_per_round)
        ]
        n_halfspaces += sum(b.halfspaces for b in batches)
        n_boxes += sum(len(b.queries) - b.halfspaces for b in batches)
        rounds.append(
            Round(
                feedback_bodies=feedback_bodies,
                plans=plans,
                batches=batches,
            )
        )

    # Held-out queries from the last round's distribution (the shifted
    # one on drift), the same for every seed.
    eval_batches = [
        _bulk_batch(workload, dim, fixed, means[n_rounds - 1], dataset)
        for _ in range(EVAL_SIZE // BATCH_SIZE)
    ]
    eval_truth = label_queries(dataset, [q for b in eval_batches for q in b.queries])
    return Inputs(
        workload=workload,
        dim=dim,
        bootstrap_bodies=bootstrap_bodies,
        rounds=rounds,
        eval_batches=eval_batches,
        eval_truth=eval_truth,
        repeat_share=repeats / max(1, total_plans),
        halfspaces=n_halfspaces,
        boxes=n_boxes,
    )
