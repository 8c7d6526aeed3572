"""Property tests: the 1-bit tier is the 1-bit quantizer, bit for bit.

The binary serving tier makes three proof obligations:

* **Round trip** — a :class:`BinaryStore` built from a model is exactly
  ``dequantize(quantize_1bit(...))`` of the entity matrix: same packed
  bytes, same scales, byte-identical reconstruction.  The tier re-uses
  the compression path's quantizer; these tests pin that it really is a
  re-use, not a lookalike.
* **Packed scoring** — Hamming distances computed from packed bytes
  equal a naive per-bit reference, and :meth:`BinaryStore.sign_dots`
  (the per-byte LUT scorer) equals the dense dot with the unpacked sign
  matrix; for ``±1`` queries it collapses to the popcount identity
  ``sign(q) . sign(t) = width - 2 * hamming`` exactly.
* **Selection determinism** — the one exact selector every serve path
  uses orders by descending score with exact float ties (``-0.0 ==
  +0.0`` included) broken toward the smaller entity id and never returns
  NaN (filtered) — it is the stable argsort of the negated row,
  truncated to the real scores; ``rerank_k >= n_entities`` yields
  the complete id set and the engine's binary tier then answers bitwise
  identically to the dense tier, for every model, both directions,
  filtered and not.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compress.packing import unpack_signs
from repro.compress.quantization import SparseRows, dequantize, quantize_1bit
from repro.kg.datasets import generate_latent_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.serve import EmbeddingStore, QueryEngine
from repro.serve.binary import (BinaryStore, _selection_keys, binarize_model,
                                select_topk)

MODEL_NAMES = sorted(MODEL_REGISTRY)

finite32 = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False,
                     width=32)


@st.composite
def entity_matrix(draw):
    """Small float32 matrices with the awkward rows over-represented:
    exact zeros (both signs), all-negative rows, repeated values."""
    rows = draw(st.integers(1, 12))
    dim = draw(st.integers(1, 20))
    special = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])
    cell = st.one_of(finite32, special)
    values = draw(st.lists(st.lists(cell, min_size=dim, max_size=dim),
                           min_size=rows, max_size=rows))
    return np.array(values, dtype=np.float32)


class _Model:
    """The minimal model surface ``binarize_model`` reads."""

    def __init__(self, matrix):
        self.entity_emb = matrix


class TestRoundTrip:
    @given(entity_matrix(), st.sampled_from(["avg", "max"]))
    @settings(max_examples=60, deadline=None)
    def test_store_is_the_quantizer_bitwise(self, matrix, stat):
        store = binarize_model(_Model(matrix), stat=stat)
        rows = SparseRows(indices=np.arange(len(matrix), dtype=np.int64),
                          values=matrix, n_rows=len(matrix))
        q = quantize_1bit(rows, stat=stat)
        assert store.codes.tobytes() == q.codes.tobytes()
        assert store.scales.tobytes() == \
            q.scales[:, 0].astype(np.float32).tobytes()
        assert store.approx_entity_emb().tobytes() == \
            dequantize(q).values.tobytes()

    @given(entity_matrix())
    @settings(max_examples=60, deadline=None)
    def test_scale_sign_invariants(self, matrix):
        """Scales are non-negative; a row of (signed) zeros reconstructs
        to exact zeros; an all-negative row reconstructs to ``-scale``
        in every coordinate (zeros pack as the positive sign bit, so a
        negative coordinate proves the bit survived the trip)."""
        store = binarize_model(_Model(matrix), stat="avg")
        approx = store.approx_entity_emb()
        signs = unpack_signs(store.codes, store.width)
        assert (store.scales >= 0).all()
        for i, row in enumerate(matrix):
            if not np.any(row):  # all ±0.0
                assert store.scales[i] == 0.0
                assert not np.any(approx[i])
            if (row >= 0).all():  # +0.0 and -0.0 both take the + class
                assert (signs[i] == 1.0).all()
            if (row < 0).all():
                assert (signs[i] == -1.0).all()
                assert np.array_equal(approx[i],
                                      np.full_like(row, -store.scales[i]))

    def test_memory_reduction_is_structural(self):
        """bytes(dense) / bytes(store) = 4w / (w/8 + 4) — the >= 20x the
        bench gates on needs w >= 64, and holds for every such width."""
        for width in (64, 128, 256):
            matrix = np.ones((10, width), dtype=np.float32)
            store = binarize_model(_Model(matrix))
            assert matrix.nbytes / store.nbytes >= 20.0


class TestPackedScoring:
    @given(entity_matrix(), st.integers(1, 5), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_hamming_matches_bit_loop(self, matrix, n_queries, seed):
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n_queries, store.width)) \
            .astype(np.float32)
        got = store.hamming(queries)
        q_bits = queries >= 0
        t_bits = unpack_signs(store.codes, store.width) > 0
        for a in range(n_queries):
            for b in range(store.n_entities):
                expect = sum(int(q_bits[a, d] != t_bits[b, d])
                             for d in range(store.width))
                assert got[a, b] == expect

    @given(entity_matrix(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_sign_dots_matches_dense_dot(self, matrix, n_queries, seed):
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(n_queries, store.width)) \
            .astype(np.float32)
        signs = unpack_signs(store.codes, store.width)
        np.testing.assert_allclose(store.sign_dots(queries),
                                   queries @ signs.T, rtol=1e-5, atol=1e-4)

    @given(entity_matrix(), st.integers(1, 4), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_popcount_identity_for_unit_queries(self, matrix, n_queries,
                                                seed):
        """With |q_i| = 1 every LUT entry is a small integer, so the ADC
        scorer equals width - 2 * hamming *exactly*, not approximately."""
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = np.where(rng.random((n_queries, store.width)) < 0.5,
                           -1.0, 1.0).astype(np.float32)
        expect = (store.width - 2 * store.hamming(queries)) \
            .astype(np.float32)
        assert store.sign_dots(queries).tobytes() == expect.tobytes()


score_rows = st.lists(
    st.lists(st.one_of(finite32,
                       st.sampled_from([0.0, -0.0, 1.0, -1.0,
                                        float("-inf")])),
             min_size=1, max_size=30),
    min_size=1, max_size=4)


@st.composite
def adversarial_matrix(draw):
    """float32 score matrices (0, 1 or many rows) built from exact ties,
    signed zeros, infinities and NaN, with whole-NaN rows mixed in."""
    width = draw(st.integers(1, 30))
    cell = st.one_of(finite32, st.sampled_from(
        [0.0, -0.0, 1.0, -1.0, float("inf"), float("-inf"), float("nan")]))
    row = st.one_of(st.lists(cell, min_size=width, max_size=width),
                    st.just([float("nan")] * width))
    rows = draw(st.lists(row, min_size=0, max_size=6))
    return np.array(rows, dtype=np.float32).reshape(len(rows), width)


def _assert_stable_topk(scores, k):
    order, valid = select_topk(scores, k)
    assert order.shape == (len(scores), min(k, scores.shape[1]))
    assert order.dtype == valid.dtype == np.int64
    for i, row in enumerate(scores):
        n_valid = int((~np.isnan(row)).sum())
        expect = np.argsort(-row, kind="stable")[:min(k, n_valid)]
        got = order[i, :valid[i]]
        assert np.array_equal(got, expect)
        assert row[got].tobytes() == row[expect].tobytes()
        # Only filtered candidates sit past the answer.
        assert np.isnan(row[order[i, valid[i]:]]).all()


class TestSelection:
    @given(score_rows)
    @settings(max_examples=80, deadline=None)
    def test_keys_reproduce_the_stable_sort(self, rows):
        """The O(n) key selection is *defined* by the stable argsort of
        negated scores: same total order on every input, repeated values
        and mixed-sign zeros included."""
        width = max(len(r) for r in rows)
        scores = np.array([r + [0.0] * (width - len(r)) for r in rows],
                          dtype=np.float32)
        got = np.argsort(_selection_keys(scores), axis=1)
        expect = np.argsort(-scores, axis=1, kind="stable")
        assert np.array_equal(got, expect)

    @given(adversarial_matrix(), st.integers(0, 40))
    @settings(max_examples=150, deadline=None)
    def test_select_topk_is_the_truncated_stable_sort(self, scores, k):
        """Every serve path's selector against the contract it replaced:
        ``np.argsort(-row, kind="stable")[:min(k, n_valid)]`` — same
        entities and same score bytes on exact ties, signed zeros,
        infinities, NaN-filtered cells, all-NaN rows, ``n_valid < k``,
        ``k = 0`` and ``k >= n``, for 0, 1 and many rows."""
        _assert_stable_topk(scores, k)

    def test_select_topk_across_row_blocks(self):
        """Wide matrices are selected a block of rows at a time; the
        answer must not depend on where the block boundaries fall."""
        rng = np.random.default_rng(7)
        scores = rng.integers(-3, 4, size=(7, 50_000)).astype(np.float32)
        scores[rng.random(scores.shape) < 0.3] = np.nan
        scores[2] = np.nan
        scores[4, ::2] = -0.0
        for k in (1, 10, 1000):
            _assert_stable_topk(scores, k)

    def test_nan_stage1_score_sinks_below_every_real_one(self):
        """A NaN approximate score (here a NaN scale on entity 1) ranks
        after ``-inf`` in the candidate pool, as NaN does in the dense
        tier — it used to map above ``+inf`` and head the pool."""
        codes = np.full((4, 1), 0xFF, dtype=np.uint8)
        scales = np.array([1.0, np.nan, 0.5, 0.25], dtype=np.float32)
        store = BinaryStore(codes=codes, scales=scales, width=8)
        queries = np.ones((2, 8), dtype=np.float32)
        # Query 1 knows entity 0: sunk to -inf, still above the NaN.
        known = (np.array([1]), np.array([0]))
        for geometry in ("dot", "distance"):
            pools, _ = store.candidate_pools(queries, 2, masked=known,
                                             geometry=geometry)
            assert pools.tolist() == [[0, 2], [2, 3]]
            _, order = store.candidate_pools(queries, 4, masked=known,
                                             geometry=geometry)
            assert order.tolist() == [[0, 2, 3, 1], [2, 3, 0, 1]]

    @given(entity_matrix(), st.integers(1, 40), st.integers(0, 2**32 - 1))
    @settings(max_examples=40, deadline=None)
    def test_pool_shape_and_order_contract(self, matrix, rerank_k, seed):
        store = binarize_model(_Model(matrix))
        rng = np.random.default_rng(seed)
        queries = rng.normal(size=(3, store.width)).astype(np.float32)
        pools, order = store.candidate_pools(queries, rerank_k)
        take = min(rerank_k, store.n_entities)
        assert pools.shape == order.shape == (3, take)
        # pools: ascending unique ids; order: the same set, best-first.
        assert (np.diff(pools, axis=1) > 0).all()
        assert np.array_equal(np.sort(order, axis=1), pools)
        if rerank_k >= store.n_entities:
            assert np.array_equal(
                pools, np.tile(np.arange(store.n_entities), (3, 1)))
        # Best-first really is the approximate-score order.
        scores = store.approx_scores(queries)
        ranked = np.take_along_axis(scores, order, axis=1)
        assert (np.diff(ranked, axis=1) <= 0).all()


@st.composite
def tier_case(draw):
    seed = draw(st.integers(0, 10_000))
    n_entities = draw(st.integers(12, 40))
    n_relations = draw(st.integers(2, 6))
    store = generate_latent_kg(n_entities, n_relations,
                               n_triples=n_entities * 6, seed=seed)
    name = draw(st.sampled_from(MODEL_NAMES))
    model = make_model(name, n_entities, n_relations, 4, seed=seed + 1)
    n_queries = draw(st.integers(2, 10))
    picks = draw(st.lists(st.integers(0, len(store.train) - 1),
                          min_size=n_queries, max_size=n_queries))
    k = draw(st.integers(1, n_entities))
    filtered = draw(st.booleans())
    tails = draw(st.booleans())
    return store, model, np.array(picks), k, filtered, tails


class TestFullPoolEqualsDense:
    @given(tier_case())
    @settings(max_examples=25, deadline=None)
    def test_binary_tier_collapses_onto_dense_bitwise(self, case):
        """``rerank_k >= n_entities``: every entity is in the pool, and
        the tiered engine must return byte-identical answers to the dense
        engine — entities, scores, filtering, tie-breaks."""
        store, model, picks, k, filtered, tails = case
        served = EmbeddingStore.from_model(model, dataset=store,
                                           with_binary=True)
        dense = QueryEngine(served, cache_capacity=0, tier="dense")
        binary = QueryEngine(served, cache_capacity=0, tier="binary",
                             rerank_k=store.n_entities)
        anchors = store.train.heads if tails else store.train.tails
        queries = list(zip(anchors[picks], store.train.relations[picks]))
        a = dense.topk_batch(queries, k=k, filtered=filtered,
                             tail_side=tails)
        b = binary.topk_batch(queries, k=k, filtered=filtered,
                              tail_side=tails)
        for ra, rb in zip(a, b):
            assert ra.entities.tobytes() == rb.entities.tobytes()
            assert ra.scores.tobytes() == rb.scores.tobytes()

    @given(tier_case())
    @settings(max_examples=15, deadline=None)
    def test_partial_pool_is_deterministic_and_filtered(self, case):
        """At any rerank_k: two engines agree bitwise with each other
        (determinism), answers never contain known facts when filtered,
        and every answer is a subset of the candidate pool."""
        store, model, picks, k, filtered, tails = case
        served = EmbeddingStore.from_model(model, dataset=store,
                                           with_binary=True)
        rerank_k = max(k, store.n_entities // 3)
        engines = [QueryEngine(served, cache_capacity=0, tier="binary",
                               rerank_k=rerank_k) for _ in range(2)]
        anchors = store.train.heads if tails else store.train.tails
        queries = list(zip(anchors[picks], store.train.relations[picks]))
        a, b = (e.topk_batch(queries, k=k, filtered=filtered,
                             tail_side=tails) for e in engines)
        index = store.filter_index
        for (anchor, rel), ra, rb in zip(queries, a, b):
            assert ra.entities.tobytes() == rb.entities.tobytes()
            assert ra.scores.tobytes() == rb.scores.tobytes()
            if filtered:
                if tails:
                    _, known, _ = index.known_tails([anchor], [rel])
                else:
                    _, known, _ = index.known_heads([rel], [anchor])
                assert not np.isin(ra.entities, known).any()
