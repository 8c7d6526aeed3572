"""The three workloads: train -> checkpoint -> export -> serve.

Every workload runs the same arc in one process with one caller; they
differ in what they train and what the serve phases stress (README.md
gives the reasons):

``train-paper``
    ``make_fb15k_like(scale=0.1)`` on 4 ranks under the paper's full
    method ``DRS+1-bit+RP+SS``, 12 epochs, a checkpoint every 4.
``train-hier``
    The same graph on 8 ranks over a two-level network, 1-bit
    quantization re-quantized at the hop boundary, 12 epochs.
``arc-serve``
    ``generate_latent_kg(9000, 24, 45000)`` (sampled miner) trained as a
    plain single-rank dense baseline, 15 epochs with a checkpoint every
    epoch.  Its training run is the repository's ``BENCH_binary``
    profile with the default seed, the same for every run seed.

The graphs are fixed datasets; the run seed drives the training run
(except on ``arc-serve``), the serve streams and the held-out samples.

After training, both kept checkpoints are exported to the 1-bit tier and
served in two phases: ``dense`` (Zipf-1.0 stream on the older checkpoint,
hot reload to the newer one at the midpoint) and ``binary`` (uniform
stream on the binary tier).  Each phase has a closed-loop pass for
capacity and an open-loop pass at a fixed offered rate for latency.
"""

from __future__ import annotations

import hashlib
import math
import statistics
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.comm.topology import HierarchicalNetwork
from repro.config import DEFAULT_SEED
from repro.kg.datasets import generate_latent_kg, make_fb15k_like
from repro.serve import (EmbeddingStore, QueryEngine, TrafficSpec,
                         ZipfianTraffic, export_binary)
from repro.training.checkpoint import list_checkpoints
from repro.training.strategy import (StrategyConfig, baseline_allreduce,
                                     drs_1bit_rp_ss)
from repro.training.trainer import DistributedTrainer, TrainConfig

import loadgen
from layers import PROBES
from spans import Tracer, install

clock = time.perf_counter

#: Setups per run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Parts each serve stream is cut into; the streams take turns part by
#: part.
SERVE_PARTS = 3
#: Share of ``--seconds`` each phase's open-loop passes offer traffic for.
OPEN_SHARE = 0.35
#: Share of ``--seconds`` each phase's closed-loop passes keep the server
#: busy at the phase's nominal capacity (they last twice that: the
#: caller thinks between batches).
CLOSED_SHARE = 0.08
MICRO_BATCH = 64
CACHE_CAPACITY = 4096
TOPK = 10
#: Open-loop deadline; a failed query counts as missing it.
SLO_MS = 10.0
#: Queries in each correctness sample, and in the recall sample.
CHECK_SAMPLE = 64
RECALL_SAMPLE = 500


@dataclass(frozen=True)
class Profile:
    """One workload's fixed shape; only the seed varies between runs."""

    make_store: object
    strategy: StrategyConfig
    n_nodes: int
    epochs: int
    checkpoint_every: int
    train: dict = field(default_factory=dict)
    net: str | None = None
    #: Seed of the training run; None = the run's seed.
    train_seed: int | None = None
    rerank_k: int = 1200
    #: Open-loop offered rates (queries/s) per serve phase.
    rate_qps: tuple = (250.0, 250.0)
    #: Closed-loop capacity the pass sizes assume (queries/s).
    nominal_qps: tuple = (1000.0, 1000.0)

    def network(self):
        return HierarchicalNetwork.parse(self.net) if self.net else None


# The graphs are the workloads' datasets, generated from the repository's
# default seed in every run like a fixed dataset file: a graph drawn per
# run seed moved train-hier's test MRR by 25% (quartile spread over
# median) from seed to seed, against 15% for the training seed alone.
def _fb15k_tenth():
    return make_fb15k_like(scale=0.1, seed=DEFAULT_SEED)


def _latent_9000():
    return generate_latent_kg(9000, 24, 45000, seed=DEFAULT_SEED)


PROFILES = {
    "train-paper": Profile(
        make_store=_fb15k_tenth, strategy=drs_1bit_rp_ss(), n_nodes=4,
        epochs=12, checkpoint_every=4, rerank_k=200,
        rate_qps=(1000.0, 600.0), nominal_qps=(6000.0, 3500.0)),
    "train-hier": Profile(
        make_store=_fb15k_tenth,
        strategy=StrategyConfig(quantization_bits=1, collective="hier"),
        n_nodes=8, epochs=12, checkpoint_every=4,
        net="rpn=4,inter_beta=8e-9", rerank_k=200,
        rate_qps=(1000.0, 600.0), nominal_qps=(6000.0, 3500.0)),
    "arc-serve": Profile(
        make_store=_latent_9000, strategy=baseline_allreduce(), n_nodes=1,
        epochs=15, checkpoint_every=1,
        train=dict(base_lr=5e-3, eval_max_queries=50),
        train_seed=DEFAULT_SEED, rerank_k=1200),
}


@dataclass
class Report:
    """Everything one run measured, before it becomes the output line."""

    metrics: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    checks: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)
    #: Median set-up seconds of each arc stage (train, serve).
    setup_s: list = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def check(self, name: str, ok: bool) -> None:
        self.checks[name] = bool(ok)

    def ops(self, attempted: int, failed: int) -> None:
        self.attempted += int(attempted)
        self.failed += int(failed)


class Recorder:
    """Phases and the benchmark's own spans; inert unless tracing.

    ``phase(name, traced=True)`` installs the layer wrappers for its
    duration, so everything outside a traced phase runs untouched.
    """

    def __init__(self, tracer: Tracer | None):
        self.tracer = tracer
        self.active = False

    @contextmanager
    def phase(self, name: str, traced: bool):
        if self.tracer is None or not traced:
            yield
            return
        remove = install(self.tracer, PROBES)
        self.active = True
        try:
            with self.tracer.phase(name):
                yield
        finally:
            self.active = False
            remove()

    @contextmanager
    def span(self, name: str):
        if not self.active:
            yield
            return
        with self.tracer.span(name):
            yield


def _digest(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


# -- train arc ------------------------------------------------------------------

@dataclass
class TrainRep:
    setup_s: float
    seconds: float
    result: object
    embedding_sha: str
    inputs_sha: str
    ckpt_dir: Path
    store: object


def _setup(prof: Profile, seed: int, ckpt_dir: Path, rec: Recorder):
    """Generation, partition and trainer build: one timed setup."""
    start = clock()
    with rec.span("kg.generate"):
        store = prof.make_store()
    config = TrainConfig(seed=seed, max_epochs=prof.epochs,
                         lr_patience=prof.epochs + 1,
                         checkpoint_dir=str(ckpt_dir),
                         checkpoint_every=prof.checkpoint_every,
                         checkpoint_keep=2, **prof.train)
    trainer = DistributedTrainer(store, prof.strategy, prof.n_nodes,
                                 config=config, network=prof.network())
    return store, trainer, clock() - start


def _train_rep(prof: Profile, seed: int, rec: Recorder, ckpt_dir: Path,
               traced: bool) -> TrainRep:
    """One set-up and one training run."""
    with rec.phase("setup", traced):
        store, trainer, setup_s = _setup(prof, seed, ckpt_dir, rec)
    with rec.phase("train", traced):
        start = clock()
        result = trainer.run()
        train_s = clock() - start
    return TrainRep(setup_s, train_s, result,
                    _digest(trainer.model.entity_emb,
                            trainer.model.relation_emb),
                    _digest(store.train.to_array()), ckpt_dir, store)


def _train_report(prof: Profile, reps: list[TrainRep], setups: list,
                  report: Report) -> None:
    """Check the repeats; the training metrics."""
    first = reps[0]
    for rep in reps:
        losses = [log.loss for log in rep.result.logs]
        report.ops(len(losses) + 1, sum(not math.isfinite(x) for x in losses)
                   + (not math.isfinite(rep.result.test_mrr)))
    report.check("inputs_repeat",
                 len({digest for digest, _ in setups}) == 1)
    report.check("train_repeats_exactly", all(
        (r.embedding_sha, r.result.test_mrr, r.result.total_time)
        == (first.embedding_sha, first.result.test_mrr,
            first.result.total_time) for r in reps))
    report.check("train_finite", all(
        math.isfinite(x) for r in reps for x in
        [r.result.test_mrr] + [log.loss for log in r.result.logs]))

    # Positive triples trained: every rank takes a full batch each step
    # (shards wrap around), so epochs x steps x batch x ranks.
    result = first.result
    steps = result.allreduce_steps + result.allgather_steps + result.hier_steps
    triples = steps * TrainConfig(**prof.train).batch_size * prof.n_nodes
    report.metrics.update({
        "train_triples_per_s":
            triples / statistics.median(r.seconds for r in reps),
        "sim_train_s": result.total_time,
        "test_mrr": result.test_mrr,
    })
    report.setup_s.append(statistics.median(s for _, s in setups))
    report.detail.update(setup_train_s=[s for _, s in setups],
                         train_s=[r.seconds for r in reps],
                         embedding_sha256=first.embedding_sha,
                         epochs=result.epochs, steps=steps,
                         triples_per_train=triples,
                         drs_switch_epoch=result.drs_switch_epoch)


def _simulated_layers(result, report: Report) -> None:
    """Per-layer figures on the simulated clock, from the TrainResult."""
    hops = result.comm_by_hop
    logs = result.logs
    report.layer.update({
        "comm.bytes": result.bytes_total,
        "comm.calls": sum(v[0] for v in hops.values()),
        "comm.sim_s": sum(log.comm_time for log in logs),
        "comm.sim_s.flat": hops.get("flat", [0, 0, 0.0])[2],
        "comm.sim_s.intra": hops.get("intra", [0, 0, 0.0])[2],
        "comm.sim_s.inter": hops.get("inter", [0, 0, 0.0])[2],
        "training.sim_compute_s": sum(log.compute_time for log in logs),
        "training.sim_eval_s": sum(log.eval_time for log in logs),
    })


# -- serve arc ------------------------------------------------------------------

def _stream(store, n: int, exponent: float, seed: int, salt: int) -> list:
    """``n`` top-k queries (75% tails, 25% heads) with entity skew
    ``exponent``, as ``(anchor, relation, tail_side)``."""
    spec = TrafficSpec(entity_exponent=exponent, tail_fraction=0.75,
                       head_fraction=0.25, score_fraction=0.0,
                       nearest_fraction=0.0)
    traffic = ZipfianTraffic(store.n_entities, store.n_relations, spec=spec,
                             seed=seed * 16 + salt)
    q = traffic.generate(n)
    return [(int(a), int(r), bool(k == 0))
            for k, a, r in zip(q["kind"], q["anchor"], q["relation"])]


def _answered(result) -> bool:
    return len(result.entities) == TOPK and bool(
        np.isfinite(result.scores).all())


def _dispatcher(engine: QueryEngine):
    def dispatch(batch):
        return [_answered(r) for r in
                engine.topk_batch(batch, k=TOPK, tail_side=None)]
    return dispatch


def _same_answers(a: QueryEngine, b: QueryEngine, sample,
                  exact: bool = True) -> list[bool]:
    """Per query: do both engines return the same top-k answer?

    ``exact`` demands bitwise-equal scores.  A warm engine's cached
    answers were scored in other micro-batches, and BLAS rounding depends
    on the batch's shape, so against those the scores need only agree to
    float32 rounding; the entities must match exactly either way.
    """
    ra = a.topk_batch(sample, k=TOPK, tail_side=None)
    rb = b.topk_batch(sample, k=TOPK, tail_side=None)
    return [_answered(x) and np.array_equal(x.entities, y.entities) and (
        x.scores.tobytes() == y.scores.tobytes() if exact
        else np.allclose(x.scores, y.scores, rtol=1e-5, atol=1e-6))
        for x, y in zip(ra, rb)]


def _distinct(queries, n: int) -> list:
    return list(dict.fromkeys(queries))[:n]


def _serve_setup(store, old: Path, new: Path, rec: Recorder):
    """Export both kept checkpoints, load the two served stores."""
    start = clock()
    with rec.span("serve.export"):
        export_binary(old)
        export_binary(new)
    dense = EmbeddingStore.from_checkpoint(old, dataset=store)
    binary = EmbeddingStore.from_checkpoint(new, dataset=store,
                                            with_binary=True)
    return dense, binary, clock() - start


def serve_arc(prof: Profile, seed: int, seconds: float, rec: Recorder,
              report: Report, rep: TrainRep) -> None:
    tracing = rec.tracer is not None
    store = rep.store
    (_, old), (_, new) = list_checkpoints(rep.ckpt_dir)[-2:]
    setups = []
    for _ in range(1 if tracing else SETUP_REPEATS):
        with rec.phase("setup", tracing):
            dense_store, binary_store, setup_s = _serve_setup(
                store, old, new, rec)
        setups.append(setup_s)
    report.setup_s.append(statistics.median(setups))
    report.detail["setup_serve_s"] = setups

    phases = {
        "dense": (1.0, dense_store, {}),
        "binary": (0.0, binary_store,
                   dict(tier="binary", rerank_k=prof.rerank_k)),
    }
    reloads = []
    qps = {phase: [] for phase in phases}
    opened = {phase: [] for phase in phases}
    closed_s = {False: 0.0, True: 0.0}
    passes = {}
    # Each (phase, pass kind) is one engine serving one stream, with the
    # dense engine's hot reload at the stream's midpoint.  CPU speed on a
    # shared VM drifts over seconds, so the streams are served in
    # SERVE_PARTS parts that take turns: every metric samples the whole
    # serve period.
    for i, (phase, (exponent, served, tier)) in enumerate(phases.items()):
        rate, nominal = prof.rate_qps[i], prof.nominal_qps[i]
        sizes = {"closed": round(CLOSED_SHARE * seconds * nominal),
                 "open": round(OPEN_SHARE * seconds * rate)}
        sizes = {k: max(n, SERVE_PARTS * MICRO_BATCH)
                 for k, n in sizes.items()}
        for j, (kind, n) in enumerate(sizes.items()):
            queries = _stream(store, n, exponent, seed, 2 * i + j)
            for traced in (False, True) if tracing and kind == "closed" \
                    else (tracing,):
                engine = QueryEngine(served, cache_capacity=CACHE_CAPACITY,
                                     **tier)
                passes[phase, kind, traced] = (engine, queries, rate)

    def part(queries, k, engine, phase):
        lo = len(queries) * k // SERVE_PARTS
        hi = len(queries) * (k + 1) // SERVE_PARTS
        mid = len(queries) // 2
        hooks = {}
        if phase == "dense" and lo <= mid < hi:
            hooks[mid - lo] = lambda: reloads.append(engine.reload(new))
        return queries[lo:hi], hooks

    for k in range(SERVE_PARTS):
        for (phase, kind, traced), (engine, queries, rate) in passes.items():
            batch, hooks = part(queries, k, engine, phase)
            dispatch = _dispatcher(engine)
            with rec.phase(f"serve.{phase}", traced):
                if kind == "closed":
                    result = loadgen.closed_loop(dispatch, batch, MICRO_BATCH,
                                                 hooks)
                else:
                    result = loadgen.open_loop(dispatch, batch, rate,
                                               MICRO_BATCH, hooks)
            report.ops(result.n_queries, result.failed)
            if kind == "open":
                opened[phase].append(result)
            else:
                closed_s[traced] += result.elapsed_s
                if not traced:
                    qps[phase].append(result.qps)
    traced_engines = [e for (_, _, traced), (e, _, _) in passes.items()
                      if traced]
    report.check("reload_swapped", len(reloads) == (3 if tracing else 2)
                 and all(r["swapped"] for r in reloads))

    for i, phase in enumerate(phases):
        lat = [x for p in opened[phase] for x in p.latencies_ms]
        failed = sum(p.failed for p in opened[phase])
        report.metrics.update({
            f"serve_qps.{phase}": statistics.median(qps[phase]),
            f"serve_p50_ms.{phase}": loadgen.percentile(lat, 50, failed),
            f"serve_p99_ms.{phase}": loadgen.percentile(lat, 99, failed),
        })
        engines = [e for (p, _, traced), (e, _, _) in passes.items()
                   if p == phase and not traced]
        hits = sum(e.cache.hits for e in engines)
        report.detail[f"serve.{phase}"] = {
            "closed_qps": qps[phase],
            "cache_hit_ratio": hits / (hits + sum(e.cache.misses
                                                  for e in engines)),
            "open_rate_qps": prof.rate_qps[i],
            "open_samples": len(lat) + failed,
            "open_failed": failed,
            "open_over_slo": sum(x > SLO_MS for x in lat) + failed,
        }

    if tracing:
        hits = sum(e.cache.hits for e in traced_engines)
        lookups = hits + sum(e.cache.misses for e in traced_engines)
        parts = [p for results in opened.values() for p in results]
        waits = [w for p in parts for w in p.queue_wait_ms]
        late = [w for p in parts for w in p.gen_late_ms]
        report.layer.update({
            "serve.cache_lookups": lookups,
            "serve.cache_hit_ratio": hits / lookups if lookups else 0.0,
            "serve.queue_wait_ms": statistics.fmean(waits) if waits else 0.0,
            "serve.gen_late_ms": statistics.fmean(late) if late else 0.0,
            "serve.failed": sum(p.failed for p in parts),
            "trace.overhead.serve": closed_s[True] / closed_s[False] - 1.0,
        })

    _check_serving(prof, seed, store, dense_store, binary_store, new,
                   report)


def _check_serving(prof, seed, store, dense_store, binary_store, new,
                   report: Report) -> None:
    """Correctness of the served answers; never traced, never timed."""
    # Reload: a warm engine answers a hot sample exactly like a fresh
    # cache-less engine, before and after the swap.
    warm = _stream(store, 8 * MICRO_BATCH, 1.0, seed, 8)
    sample = _distinct(warm, CHECK_SAMPLE)
    engine = QueryEngine(dense_store, cache_capacity=CACHE_CAPACITY)
    dispatch = _dispatcher(engine)
    half = len(warm) // 2
    for i in range(0, half, MICRO_BATCH):
        dispatch(warm[i:i + MICRO_BATCH])
    before = _same_answers(engine, QueryEngine(dense_store, cache_capacity=0),
                           sample, exact=False)
    engine.reload(new)
    for i in range(half, len(warm), MICRO_BATCH):
        dispatch(warm[i:i + MICRO_BATCH])
    fresh = EmbeddingStore.from_checkpoint(new, dataset=store)
    after = _same_answers(engine, QueryEngine(fresh, cache_capacity=0),
                          sample, exact=False)
    report.check("dense_matches_fresh_before_reload", all(before))
    report.check("dense_matches_fresh_after_reload", all(after))

    # Binary tier with the whole vocabulary re-ranked is the dense tier.
    uniform = _distinct(_stream(store, 4 * CHECK_SAMPLE, 0.0, seed, 9),
                        CHECK_SAMPLE)
    full = _same_answers(
        QueryEngine(binary_store, cache_capacity=0, tier="binary",
                    rerank_k=store.n_entities),
        QueryEngine(binary_store, cache_capacity=0), uniform)
    report.check("binary_full_rerank_equals_dense", all(full))
    report.ops(len(before) + len(after) + len(full),
               before.count(False) + after.count(False) + full.count(False))

    # Recall@10 of the binary tier against dense on a held-out sample.
    rng = np.random.default_rng((seed, 0xC4EC))
    held_out = list(zip(
        rng.integers(0, store.n_entities, RECALL_SAMPLE).tolist(),
        rng.integers(0, store.n_relations, RECALL_SAMPLE).tolist(),
        rng.integers(0, 2, RECALL_SAMPLE).astype(bool).tolist()))
    dense = QueryEngine(binary_store, cache_capacity=0).topk_batch(
        held_out, k=TOPK, tail_side=None)
    binary = QueryEngine(binary_store, cache_capacity=0, tier="binary",
                         rerank_k=prof.rerank_k).topk_batch(
        held_out, k=TOPK, tail_side=None)
    bad = sum(not (_answered(d) and _answered(b))
              for d, b in zip(dense, binary))
    report.ops(2 * RECALL_SAMPLE, bad)
    report.metrics["serve_recall_at_10"] = statistics.fmean(
        len(np.intersect1d(d.entities, b.entities)) / TOPK
        for d, b in zip(dense, binary))
    report.detail["recall_sample"] = RECALL_SAMPLE


# -- one run ----------------------------------------------------------------------

def run(workload: str, seed: int, seconds: float, tracer: Tracer | None,
        workdir: Path) -> Report:
    """Run ``workload`` once.

    Untraced, the second training run comes after the serve phases, so
    the two samples of ``train_triples_per_s`` lie far apart in time.
    Traced, the two runs are adjacent: the first untraced, the second
    traced, and their ratio is the tracing overhead.
    """
    prof = PROFILES[workload]
    train_seed = seed if prof.train_seed is None else prof.train_seed
    rec = Recorder(tracer)
    report = Report()
    workdir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=workdir) as tmp:
        tmp = Path(tmp)

        def train_rep(i: int, traced: bool = False) -> TrainRep:
            return _train_rep(prof, train_seed, rec, tmp / f"train-{i}",
                              traced)

        reps = [train_rep(0)]
        if tracer is not None:
            reps.append(train_rep(1, traced=True))
            report.layer["trace.overhead.train"] = (
                reps[1].seconds / reps[0].seconds - 1.0)
            _simulated_layers(reps[1].result, report)
        serve_arc(prof, seed, seconds, rec, report, reps[0])
        if tracer is None:
            reps.append(train_rep(1))
        setups = [(r.inputs_sha, r.setup_s) for r in reps]
        while len(setups) < SETUP_REPEATS and tracer is None:
            store, _, setup_s = _setup(prof, train_seed, tmp / "setup-only",
                                       rec)
            setups.append((_digest(store.train.to_array()), setup_s))
        _train_report(prof, reps, setups, report)
    report.metrics["setup_s"] = sum(report.setup_s)
    return report
