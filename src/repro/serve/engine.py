"""Batched, cached link-prediction query engine.

The engine answers four query shapes against a frozen
:class:`~repro.serve.store.EmbeddingStore`:

``score(h, r, t)``
    Plausibility of one (or a batch of) explicit triple(s).
``topk_tails(h, r, k)`` / ``topk_heads(t, r, k)``
    The k most plausible completions of a partial triple, scored through
    the *same* chunked ``score_tails_block`` / ``score_heads_block`` path
    filtered evaluation uses, with known facts excluded by scattering the
    CSR :class:`~repro.kg.triples.FilterIndex` — the serve-time twin of
    eval's filtered protocol (minus the gold-entity exemption: a live
    query has no gold entity).
``nearest_entities(e, k)``
    Embedding-space neighbors under L2 or cosine geometry, with complex
    models' ``[real | imag]`` half layout paired per coordinate through
    :meth:`~repro.models.base.KGEModel.entity_components`.

Link-prediction queries run in one of two **memory tiers**:

``tier="dense"`` (default)
    Every candidate is scored through the full-precision block scorers —
    the exact filtered-evaluation path.
``tier="binary"``
    Two stages.  Stage 1 scores every entity from the 1-bit
    :class:`~repro.serve.binary.BinaryStore` alone: the Hamming distance
    between the sign pattern of the model's full-precision
    :meth:`~repro.models.base.KGEModel.query_vector` and the packed codes
    (packed XOR + popcount — 32x less state touched than dense scoring),
    weighted by each candidate's stored scale per the model's score
    geometry, keeping the best ``rerank_k`` candidates (exact ties break
    toward the smaller entity id).  Stage 2
    re-ranks *only that pool* with the full-precision scorers.  Known
    facts are pushed behind every unknown candidate in stage 1 and
    NaN-masked in stage 2, so filtering semantics match the dense tier.
    When ``rerank_k >= n_entities`` the pool is the complete id-ordered
    entity set and stage 2 routes through the *same* dense block-scoring
    code — results are bitwise identical to ``tier="dense"`` (scores,
    tie-breaks, filtering) by construction.

Two serving mechanisms sit on top of raw scoring:

* an exact-LRU result cache keyed on every input that shapes the answer
  ``(direction, anchor, relation, k, filtered)`` — skewed traffic makes
  even a small cache absorb most of the load;
* per-``(direction, route)`` micro-batching: :meth:`topk_batch` scores
  a batch's cache misses in **one** chunked block call per direction and
  route over their unique ``(anchor, relation)`` pairs — every scorer
  takes a per-row relation, so a batch over many relations is one pass.

Two resilience mechanisms sit on top of those (both opt-in; a plain
engine behaves exactly as before):

* an SLO-aware **degradation ladder**
  (:class:`~repro.serve.resilience.ResilienceController`): every query is
  admitted through a deterministic virtual-queue model whose backlog
  walks the engine dense -> binary -> cache-only -> shed and back, with a
  circuit breaker that trips the binary rung to dense when the 1-bit
  sidecar fails its checksum at query time.  Shed queries return a typed
  :class:`~repro.serve.resilience.ShedResponse` instead of a result.
* **hot reload** (:meth:`QueryEngine.reload`): atomically swap in a new
  checkpoint — the replacement store (embeddings + binary sidecar +
  filter index) is fully built and validated *before* a single install
  step replaces the old one, the result cache is invalidated, and the
  breaker re-arms; any validation failure rolls back to the old store,
  which never stopped serving.

Determinism contract: top-k ordering is *descending score, ascending
entity id* — every path selects through the one exact selector
:func:`~repro.serve.binary.select_topk` — the scores returned are the
bytes the scoring blocks produced, and a cache hit returns the identical
immutable result object a cold miss computed.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from ..eval.ranking import scatter_known_nan
from ..training import checkpoint as ckpt
from .binary import check_geometry, select_topk
from .cache import LRUCache
from .resilience import (ResilienceController, ServeFaultPlan, ShedResponse,
                         SidecarCorruptionError, SLOConfig)
from .stats import ServeStats
from .store import EmbeddingStore

METRICS = ("l2", "cosine")
TIERS = ("dense", "binary")


@dataclass(frozen=True)
class TopKResult:
    """One answered top-k query.

    ``scores`` are raw model scores for link-prediction queries (higher is
    better), distances for ``metric="l2"`` neighbor queries (lower is
    better, returned ascending) and similarities for ``metric="cosine"``
    (higher is better, returned descending).
    """

    entities: np.ndarray
    scores: np.ndarray

    def __post_init__(self) -> None:
        self.entities.setflags(write=False)
        self.scores.setflags(write=False)

    def __len__(self) -> int:
        return len(self.entities)


def _select(scores: np.ndarray, k: int, columns: np.ndarray | None = None
            ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Top-k of every row of one group's (queries x candidates) scores.

    Returns ``(entities, scores, valid)`` matrices from the shared exact
    selector (:func:`~repro.serve.binary.select_topk`); row ``i`` holds
    its answer in the first ``valid[i]`` columns — NaN (filtered)
    candidates never count.  ``columns`` maps a binary pool's local
    columns to entity ids; pools are ascending, so a local tie toward
    the smaller column is a tie toward the smaller entity id.
    """
    order, valid = select_topk(scores, k)
    rows = np.arange(len(order))[:, None]
    values = scores[rows, order]
    if columns is not None:
        order = columns[rows, order]
    return order, values, valid


def _results(entities: np.ndarray, values: np.ndarray,
             valid: np.ndarray) -> list[TopKResult]:
    """One :class:`TopKResult` per row of :func:`_select`'s matrices —
    copies, so a cached answer does not pin its whole group's arrays."""
    return [TopKResult(entities=entities[i, :c].copy(),
                       scores=values[i, :c].copy())
            for i, c in enumerate(valid.tolist())]


def _agreement(entities: np.ndarray, valid: np.ndarray,
               order: np.ndarray) -> list[float]:
    """Recall proxy per query: fraction of the final top-k the candidate
    stage alone would have returned (its own best-first ranking
    ``order`` truncated to the same length).  1.0 means re-ranking
    changed nothing; vacuously 1.0 for an empty answer.

    One pass for the whole group: both id lists of a row (each free of
    repeats) are concatenated with unique negative padding past the
    answer's length and sorted, so every equal neighbour pair is one id
    the two share.
    """
    width = entities.shape[1]
    live = np.arange(width) < valid[:, None]
    pad = -1 - np.arange(2 * width).reshape(2, width)
    both = np.concatenate([np.where(live, entities, pad[0]),
                           np.where(live, order[:, :width], pad[1])],
                          axis=1)
    both.sort(axis=1)
    shared = (both[:, 1:] == both[:, :-1]).sum(axis=1)
    return np.where(valid > 0, shared / np.maximum(valid, 1),
                    1.0).tolist()


class QueryEngine:
    """Serving facade over one :class:`EmbeddingStore`."""

    def __init__(self, store: EmbeddingStore, cache_capacity: int = 4096,
                 chunk_entities: int | None = None, tier: str = "dense",
                 rerank_k: int = 1024,
                 faults: ServeFaultPlan | None = None,
                 slo: SLOConfig | None = None,
                 resilience: bool | None = None,
                 stats_window: int | None = None):
        if tier not in TIERS:
            raise ValueError(f"unknown tier {tier!r}; one of {TIERS}")
        if rerank_k < 1:
            raise ValueError(f"rerank_k must be >= 1, got {rerank_k}")
        if tier == "binary":
            if store.binary is None:
                raise ValueError(
                    "tier='binary' needs a binarized store; export a "
                    "sidecar with `repro export-binary` and load with "
                    "with_binary=True, or build the store via "
                    "EmbeddingStore.from_model(..., with_binary=True)")
            check_geometry(store.binary, store.model.entity_emb)
        self.store = store
        self.cache = LRUCache(cache_capacity)
        self.stats = ServeStats(window=stats_window)
        self.chunk_entities = chunk_entities
        self.tier = tier
        self.rerank_k = int(rerank_k)
        # Cached results never cross tiers: a binary-tier answer at small
        # rerank_k is not the dense answer, so the key says which path —
        # and at which pool size — produced it.
        self._tier_key = self._key_for(tier)
        # Resilience is opt-in: a fault plan or SLO implies it, or pass
        # resilience=True for ladder-only (null-plan) admission control.
        enabled = resilience if resilience is not None \
            else (faults is not None or slo is not None)
        self.slo = (slo or SLOConfig()) if enabled else None
        self.resilience = ResilienceController(
            self.slo, faults, binary_available=store.binary is not None,
            stats=self.stats) if enabled else None

    # -- filtering ---------------------------------------------------------

    def _resolve_filtered(self, filtered: bool | None) -> bool:
        if filtered is None:
            return self.store.filter_index is not None
        if filtered and self.store.filter_index is None:
            raise ValueError(
                "filtered queries need a filter index; build the store "
                "with a dataset (EmbeddingStore.from_checkpoint(..., "
                "dataset=...)) or pass filtered=False")
        return filtered

    # -- score -------------------------------------------------------------

    def score(self, h, r, t):
        """Model score(s) of explicit triples; scalar in, scalar out.

        Under resilience, a batch of triples is one admission (one
        arrival on the virtual clock), and a degraded ladder answers a
        :class:`ShedResponse` — ``score`` has no cache, so every state
        past ``binary`` sheds it.
        """
        start = time.perf_counter()
        admission = None
        if self.resilience is not None:
            admission = self.resilience.admit("score")
            if admission.state in ("cache_only", "shed"):
                reason = ("overload" if admission.state == "shed"
                          else "cache_only_miss")
                return self._shed("score", reason, admission, start)
            if admission.scorer_fail:
                return self._shed("score", "scorer_failure", admission,
                                  start)
        scalar = np.isscalar(h) or getattr(h, "ndim", 0) == 0
        scores = self.store.model.score(np.atleast_1d(h), np.atleast_1d(r),
                                        np.atleast_1d(t))
        self.stats.record("score", time.perf_counter() - start,
                          cache_hit=None)
        if admission is not None:
            self._complete(admission, self.slo.score_ms)
        return float(scores[0]) if scalar else scores

    # -- top-k link prediction ---------------------------------------------

    def topk_tails(self, h: int, r: int, k: int = 10,
                   filtered: bool | None = None) -> TopKResult:
        """The k best tails of ``(h, r, ?)``."""
        return self.topk_batch([(h, r)], k=k, filtered=filtered,
                               tail_side=True)[0]

    def topk_heads(self, t: int, r: int, k: int = 10,
                   filtered: bool | None = None) -> TopKResult:
        """The k best heads of ``(?, r, t)``."""
        return self.topk_batch([(t, r)], k=k, filtered=filtered,
                               tail_side=False)[0]

    def topk_batch(self, queries, k: int = 10,
                   filtered: bool | None = None,
                   tail_side: bool | None = True) -> list[TopKResult]:
        """Answer many ``(anchor, relation)`` queries, coalesced.

        ``queries`` is a sequence of ``(anchor, relation)`` pairs (with
        ``tail_side`` fixing the direction) or ``(anchor, relation,
        tail_side)`` triples (``tail_side=None`` here).  Every id is
        range-checked before any query touches the cache or the ladder.
        Cache hits are answered immediately; the misses are grouped per
        ``(direction, route)`` into one pass, repeated ``(anchor,
        relation)`` pairs deduplicated, and each pass scored in one block
        call whatever its relations (a one-row pass takes BLAS's GEMV
        kernel, see ``docs/serving.md``).  Results come back in query
        order.

        Latency accounting: a pass's scoring time is split evenly across
        the queries it answered, so percentiles reflect per-query service
        cost, not burst size.

        Under resilience the ladder may route some queries of a batch
        through the binary tier and shed others, and each query's answer
        can be a :class:`ShedResponse` instead of a :class:`TopKResult`.
        """
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        filt = self._resolve_filtered(filtered)
        if not len(queries):
            return []
        if tail_side is None:
            anchors, rels, sides = zip(*queries)
        else:
            (anchors, rels), sides = zip(*queries), (tail_side,) * len(queries)
        anchors, rels = list(map(int, anchors)), list(map(int, rels))
        n_ent, n_rel = self.store.n_entities, self.store.n_relations
        for anchor, rel in zip(anchors, rels):  # before any state moves
            if not 0 <= anchor < n_ent:
                raise ValueError(f"entity id {anchor} outside [0, {n_ent})")
            if not 0 <= rel < n_rel:
                raise ValueError(f"relation id {rel} outside [0, {n_rel})")
        results: list = [None] * len(queries)
        # (direction, route) -> ({anchor * n_rel + rel: row}, [(query, row)])
        passes: dict[tuple[bool, str], tuple[dict, list]] = {}
        # Stats records and cache writes wait until every pass has
        # returned, so a batch that raises part-way counts none of its
        # queries and a caller retrying them one by one counts each once.
        records: list[tuple] = []
        puts: list[tuple] = []

        def record(*args) -> None:
            records.append(args)

        for i, (anchor, rel, side) in enumerate(zip(anchors, rels,
                                                    map(bool, sides))):
            start = time.perf_counter()
            kind = "topk_tails" if side else "topk_heads"
            admission = None
            if self.resilience is not None:
                admission = self.resilience.admit(kind)
                if admission.state == "shed":
                    results[i] = self._shed(kind, "overload", admission,
                                            start, record)
                    continue
            route = self._route(admission.state if admission else None)
            key = (self._key_for(route), "tails" if side else "heads",
                   anchor, rel, k, filt)
            hit = self.cache.get(key)
            if hit is not None:
                results[i] = hit
                record(kind, time.perf_counter() - start, True)
                if admission is not None:
                    self._complete(admission, self.slo.cache_ms)
            elif admission is not None and admission.state == "cache_only":
                results[i] = self._shed(kind, "cache_only_miss", admission,
                                        start, record)
            elif admission is not None and admission.scorer_fail:
                results[i] = self._shed(kind, "scorer_failure", admission,
                                        start, record)
            else:
                if admission is not None:
                    # Virtual cost is charged at admission (the route and
                    # its modeled cost are known now), keeping the queue
                    # strictly arrival-ordered: grouped scoring must not
                    # smear a window's service to the window boundary.
                    self._complete(admission, self.slo.service_ms(route))
                rows, members = passes.setdefault((side, route), ({}, []))
                members.append((i, rows.setdefault(anchor * n_rel + rel,
                                                   len(rows))))

        for (side, route), (rows, members) in passes.items():
            start = time.perf_counter()
            pairs = np.fromiter(rows, dtype=np.int64, count=len(rows))
            scored, served_route = self._group_topk(
                route, pairs // n_rel, pairs % n_rel, side, k, filt)
            share = (time.perf_counter() - start) / len(members)
            tier_key = self._key_for(served_route)
            kind, direction = (("topk_tails", "tails") if side
                               else ("topk_heads", "heads"))
            for i, u in members:
                results[i] = scored[u]
                puts.append(((tier_key, direction, anchors[i], rels[i], k,
                              filt), scored[u]))
                record(kind, share, False)
        for key, value in puts:
            self.cache.put(key, value)
        for args in records:
            self.stats.record(*args)
        return results

    def _group_topk(self, route: str, anchors: np.ndarray, rels: np.ndarray,
                    tail_side: bool, k: int,
                    filtered: bool) -> tuple[list[TopKResult], str]:
        """Score one pass of unique ``(anchor, relation)`` rows via ``route``.

        Returns ``(results, served_route)`` — the route actually used:
        a binary pass falls back to dense (and trips the circuit
        breaker) when the sidecar fails its checksum mid-query.
        """
        if route == "binary":
            try:
                if self.resilience is not None:
                    self.resilience.check_sidecar()
                return (self._group_topk_binary(anchors, rels, tail_side, k,
                                                filtered), "binary")
            except (SidecarCorruptionError,
                    ckpt.CheckpointChecksumError) as exc:
                if self.resilience is None:
                    raise
                self.resilience.trip_binary(str(exc))
        return (self._group_topk_dense(anchors, rels, tail_side, k,
                                       filtered), "dense")

    def _group_topk_dense(self, anchors: np.ndarray, rels: np.ndarray,
                          tail_side: bool, k: int,
                          filtered: bool) -> list[TopKResult]:
        """One chunked scoring call for every row of the pass."""
        return _results(*_select(
            self._dense_scores(anchors, rels, tail_side, filtered), k))

    def _dense_scores(self, anchors: np.ndarray, rels: np.ndarray,
                      tail_side: bool, filtered: bool) -> np.ndarray:
        """Every entity's full-precision score per query, known facts NaN."""
        model, chunk = self.store.model, self.chunk_entities
        scores = (model.score_all_tails(anchors, rels, chunk_entities=chunk)
                  if tail_side else
                  model.score_all_heads(rels, anchors, chunk_entities=chunk))
        if filtered:
            scores, _ = scatter_known_nan(scores, self.store.filter_index,
                                          anchors, rels, tail_side=tail_side,
                                          keep=None)
        return scores

    def _group_topk_binary(self, anchors: np.ndarray, rels: np.ndarray,
                           tail_side: bool, k: int,
                           filtered: bool) -> list[TopKResult]:
        """Hamming candidate generation, then full-precision re-rank."""
        model = self.store.model
        binary = self.store.binary
        n = self.store.n_entities
        m = len(anchors)

        # Stage 1: pack the query vectors' signs, rank every entity by the
        # scale-weighted packed-XOR-popcount score, keep the best rerank_k.
        t0 = time.perf_counter()
        vectors = model.query_vector(anchors, rels, tail_side=tail_side)
        masked = None
        if filtered:
            index = self.store.filter_index
            masked = (index.known_tails(anchors, rels) if tail_side
                      else index.known_heads(rels, anchors))[:2]
        pools, order = binary.candidate_pools(
            vectors, self.rerank_k, masked=masked,
            geometry=model.score_geometry)
        candidate_s = time.perf_counter() - t0

        # Stage 2: full-precision re-rank of the pool only.
        t1 = time.perf_counter()
        if pools.shape[1] >= n:
            # Complete pool: the dense path *is* the re-rank — same block
            # calls, same NaN scatter, same selector, so the result is
            # bitwise identical to tier="dense".
            entities, values, valid = _select(
                self._dense_scores(anchors, rels, tail_side, filtered), k)
        else:
            entities, values, valid = _select(
                self._rerank_pools(anchors, rels, pools, tail_side, masked,
                                   n), k, columns=pools)
        results = _results(entities, values, valid)
        rerank_s = time.perf_counter() - t1

        for agreement in _agreement(entities, valid, order):
            self.stats.record_tier("binary", candidate_s / m, rerank_s / m,
                                   agreement)
        return results

    def _rerank_pools(self, anchors, rels, pools, tail_side, masked,
                      n) -> np.ndarray:
        """Score every (query, pool candidate) pair in one block call."""
        scores = np.asarray(self.store.model.score_candidates(
            anchors, rels, pools, tail_side=tail_side),
            dtype=np.float32).reshape(pools.shape)
        if masked is not None and len(masked[0]):
            # A partial pool only admits known facts once unknowns run
            # out; whichever slipped in are NaN-masked exactly like the
            # dense tier's scatter.
            known = np.zeros((len(pools), n), dtype=bool)
            known[masked] = True
            scores[np.take_along_axis(known, pools, axis=1)] = np.nan
        return scores

    # -- nearest neighbors ---------------------------------------------------

    def nearest_entities(self, e: int, k: int = 10, metric: str = "l2",
                         exclude_self: bool = True) -> TopKResult:
        """Embedding-space neighbors of entity ``e``.

        ``metric="l2"`` returns ascending Euclidean distances over the
        entity's full geometric coordinates; ``metric="cosine"`` returns
        descending cosine similarities.  Complex-valued models (ComplEx,
        RotatE) store ``[real | imag]`` halves — components are paired per
        complex coordinate via ``entity_components()``, never by reshaping
        the raw row (which would marry the real part of one coordinate to
        the imaginary part of another).  Ties break toward the smaller
        entity id, so an entity is always its own nearest neighbor when
        ``exclude_self=False``.
        """
        if metric not in METRICS:
            raise ValueError(f"unknown metric {metric!r}; one of {METRICS}")
        e = int(e)
        if not 0 <= e < self.store.n_entities:
            raise ValueError(f"entity id {e} outside "
                             f"[0, {self.store.n_entities})")
        start = time.perf_counter()
        admission = None
        if self.resilience is not None:
            admission = self.resilience.admit("nearest")
            if admission.state == "shed":
                return self._shed("nearest", "overload", admission, start)
        key = ("nearest", e, metric, k, exclude_self)
        hit = self.cache.get(key)
        if hit is not None:
            self.stats.record("nearest", time.perf_counter() - start,
                              cache_hit=True)
            if admission is not None:
                self._complete(admission, self.slo.cache_ms)
            return hit
        if admission is not None and admission.state == "cache_only":
            return self._shed("nearest", "cache_only_miss", admission,
                              start)
        if admission is not None and admission.scorer_fail:
            return self._shed("nearest", "scorer_failure", admission, start)

        re, im = self.store.model.entity_components()
        if metric == "l2":
            diff = re - re[e]
            sq = np.einsum("ij,ij->i", diff, diff)
            if im is not None:
                diff_im = im - im[e]
                sq = sq + np.einsum("ij,ij->i", diff_im, diff_im)
            values = np.sqrt(sq)
            scores = -values  # distance: nearest first
        else:
            dots = re @ re[e]
            self_sq = re[e] @ re[e]
            norms_sq = np.einsum("ij,ij->i", re, re)
            if im is not None:
                dots = dots + im @ im[e]
                self_sq = self_sq + im[e] @ im[e]
                norms_sq = norms_sq + np.einsum("ij,ij->i", im, im)
            denom = np.sqrt(norms_sq) * np.sqrt(self_sq)
            values = dots / np.maximum(denom, 1e-12)
            scores = values.copy()  # similarity: descending
        if exclude_self:
            scores[e] = np.nan  # filtered: never returned
        order, valid = select_topk(scores[None, :], k)
        order = order[0, :valid[0]]
        result = TopKResult(entities=order, scores=values[order])
        self.cache.put(key, result)
        self.stats.record("nearest", time.perf_counter() - start,
                          cache_hit=False)
        if admission is not None:
            self._complete(admission, self.slo.nearest_ms)
        return result

    # -- resilience ----------------------------------------------------------

    def _route(self, state: str | None) -> str:
        """The scoring route for one admitted query.

        Ladder state ``binary`` forces the 1-bit route; otherwise the
        engine's configured tier applies — downgraded to dense when the
        circuit breaker removed the binary rung (or the store simply has
        no sidecar).
        """
        binary_ok = self.store.binary is not None and (
            self.resilience is None or self.resilience.binary_available)
        if state == "binary" and binary_ok:
            return "binary"
        if self.tier == "binary" and binary_ok:
            return "binary"
        return "dense"

    def _key_for(self, route: str):
        return "dense" if route == "dense" else ("binary", self.rerank_k)

    def _shed(self, kind: str, reason: str, admission, start: float,
              record=None):
        """Refuse one query: typed response, taxonomy counted, virtual
        shed cost charged (shedding is cheap, not free).  ``record``
        stands in for ``stats.record`` when the caller defers its records."""
        response = ShedResponse(kind=kind, reason=reason,
                                state=admission.state,
                                query_index=admission.index)
        (record or self.stats.record)(kind, time.perf_counter() - start,
                                      None)
        virtual = self.resilience.complete(admission, self.slo.shed_ms)
        self.stats.record_resilience(admission.state, virtual,
                                     shed_reason=reason)
        return response

    def _complete(self, admission, service_ms: float) -> None:
        """Charge one served query's virtual cost (plus any injected
        latency spike) and record its ladder-side telemetry."""
        virtual = self.resilience.complete(
            admission, service_ms + admission.spike_ms)
        self.stats.record_resilience(admission.state, virtual)

    # -- hot reload ----------------------------------------------------------

    def reload(self, checkpoint, model_name: str | None = None,
               dataset=None, with_binary: bool | None = None) -> dict:
        """Atomically swap the served snapshot for ``checkpoint``.

        ``checkpoint`` is a checkpoint path (resolved exactly like
        :meth:`EmbeddingStore.from_checkpoint`) or an already-built
        :class:`EmbeddingStore`.  The replacement — embeddings, binary
        sidecar, filter index — is **fully constructed and validated
        before the old store is touched**; any failure (corrupt or
        non-finite arrays, checksum mismatch, wrong architecture, missing
        sidecar for a binary-tier engine, vocabulary drift under a grafted
        filter) raises and leaves the old store serving, cache intact.  On
        success, one install step swaps the store, invalidates the LRU
        cache (stale ``(tier, rerank_k)``-keyed answers must not survive
        the swap) and re-arms the circuit breaker.

        Defaults follow the running engine: same architecture, same
        binary-tier requirement; with no ``dataset``, the old filter
        index is grafted onto the new store when the entity vocabulary
        matches (and refused loudly when it does not).

        Reloading the very snapshot already served (same manifest digest)
        is a no-op — cache kept warm — so a reload poller is idempotent.
        Returns a summary dict (``swapped``, epochs, cache entries
        dropped).
        """
        old = self.store
        if isinstance(checkpoint, EmbeddingStore):
            new = checkpoint
        else:
            if with_binary is None:
                with_binary = self.tier == "binary" or old.binary is not None
            name = model_name or old.model_name or "complex"
            digest = ckpt.manifest_digest(checkpoint)
            if digest == old.manifest_digest:
                return {"swapped": False, "reason": "same manifest digest",
                        "checkpoint": str(checkpoint), "epoch": old.epoch}
            new = EmbeddingStore.from_checkpoint(
                checkpoint, model_name=name, dataset=dataset,
                with_binary=with_binary)
        # -- validate the replacement against this engine's contract ------
        if self.tier == "binary" and new.binary is None:
            raise ValueError(
                "reload onto a store without a binary sidecar, but this "
                "engine serves tier='binary'; export a sidecar first or "
                "reload with with_binary=True")
        if new.binary is not None:
            check_geometry(new.binary, new.model.entity_emb)
        if new.filter_index is None and old.filter_index is not None:
            if new.n_entities != old.n_entities:
                raise ValueError(
                    f"cannot graft the old filter index: new checkpoint "
                    f"embeds {new.n_entities} entities, old store "
                    f"{old.n_entities}; pass dataset= to rebuild it")
            new.filter_index = old.filter_index
        # -- install: a single swap step after full validation -------------
        self.store = new
        dropped = self.cache.invalidate()
        if self.resilience is not None:
            self.resilience.arm_binary(new.binary is not None)
        self.stats.record_reload(old.epoch, new.epoch)
        return {"swapped": True, "old_epoch": old.epoch,
                "new_epoch": new.epoch,
                "checkpoint": new.checkpoint_path,
                "cache_entries_dropped": dropped}

    # -- misc ----------------------------------------------------------------

    def snapshot(self) -> dict:
        """Telemetry summary: stats plus live cache counters."""
        out = self.stats.snapshot()
        out.update(cache_size=len(self.cache),
                   cache_capacity=self.cache.capacity,
                   cache_evictions=self.cache.evictions,
                   cache_invalidations=self.cache.invalidations)
        return out
