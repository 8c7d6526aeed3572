"""Property tests: serving answers are the eval protocol's answers.

The serving contract is that ``topk_tails(h, r, k, filtered=True)`` is the
top-k of exactly the score row filtered evaluation would rank — byte-equal
scores, identical tie-break order — with one deliberate divergence: eval
restores the gold column (the query's own true entity competes), while a
live query has no gold entity, so serving masks *every* known fact.

Bitwise footnote.  The engine scores each direction's cache misses as
one pass: one block call over the pass's unique ``(anchor, relation)``
pairs, whatever their relations; ``rank_triples`` scores the mixed
evaluation batch.  In a multi-row block a row's bytes do not depend on
the other rows (pinned below by ``TestGroupingBitwise``), but a pass that
collapses to a **single** row takes BLAS's matrix-vector kernel, whose
reduction order can differ from the matrix-matrix kernel in the last bit
for the matmul models (DistMult, ComplEx).  The byte-exact property
therefore compares against a reference built with the engine's own call
shape; the mixed-batch eval rows are asserted bitwise-equal when the
pass had more than one row and to float tolerance always.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.eval.ranking import scatter_known_nan
from repro.kg.datasets import generate_latent_kg
from repro.models import MODEL_REGISTRY, make_model
from repro.serve import EmbeddingStore, QueryEngine

MODEL_NAMES = sorted(MODEL_REGISTRY)


@st.composite
def serving_case(draw):
    seed = draw(st.integers(0, 10_000))
    n_entities = draw(st.integers(12, 40))
    n_relations = draw(st.integers(2, 6))
    store = generate_latent_kg(n_entities, n_relations,
                               n_triples=n_entities * 6, seed=seed)
    name = draw(st.sampled_from(MODEL_NAMES))
    model = make_model(name, n_entities, n_relations, 4, seed=seed + 1)
    n_queries = draw(st.integers(2, 12))
    picks = draw(st.lists(st.integers(0, len(store.train) - 1),
                          min_size=n_queries, max_size=n_queries))
    k = draw(st.integers(1, n_entities))
    return store, model, np.array(picks), k


def grouped_reference(model, index, anchors, rels, k, tail_side=True):
    """Filtered top-k per query, computed with the engine's call shape:
    one block call over the pass's unique (anchor, relation) pairs, the
    serve-time CSR scatter (no gold exemption), stable
    descending-score / ascending-id argsort."""
    n_rel = model.n_relations
    pairs = np.unique(np.asarray(anchors, dtype=np.int64) * n_rel + rels)
    unique, urels = pairs // n_rel, pairs % n_rel
    if tail_side:
        scores = model.score_all_tails(unique, urels)
    else:
        scores = model.score_all_heads(urels, unique)
    masked, _ = scatter_known_nan(scores, index, unique, urels,
                                  tail_side=tail_side, keep=None)
    out = {}
    for row, anchor, rel in zip(masked, unique, urels):
        n_valid = int((~np.isnan(row)).sum())
        order = np.argsort(-row, kind="stable")[:min(k, n_valid)]
        out[(int(anchor), int(rel))] = (order, row[order], row)
    return out


class TestServeEqualsEval:
    @given(serving_case())
    @settings(max_examples=20, deadline=None)
    def test_topk_tails_is_topk_of_the_filtered_row(self, case):
        store, model, picks, k = case
        h = store.train.heads[picks]
        r = store.train.relations[picks]
        t = store.train.tails[picks]

        engine = QueryEngine(EmbeddingStore.from_model(model, dataset=store),
                             cache_capacity=0)
        answers = engine.topk_batch(list(zip(h, r)), k=k, filtered=True)

        reference = grouped_reference(model, store.filter_index, h, r, k)
        eval_rows = model.score_all_tails(h, r)
        eval_masked, _ = scatter_known_nan(eval_rows, store.filter_index,
                                           h, r, tail_side=True, keep=t)
        for i, answer in enumerate(answers):
            order, scores, row = reference[(int(h[i]), int(r[i]))]
            assert np.array_equal(answer.entities, order)
            assert answer.scores.tobytes() == scores.tobytes()
            # The gold tail is a known fact: eval keeps it, serving won't.
            assert t[i] not in answer.entities
            # The served row is eval's filtered row (gold aside) to float
            # equality regardless of batch shape...
            eval_row = eval_masked[i].copy()
            eval_row[t[i]] = np.nan
            np.testing.assert_allclose(row, eval_row, rtol=1e-5,
                                       atol=1e-6, equal_nan=True)
            # ...and byte-for-byte when the pass kept a matrix shape.
            if len(reference) > 1:
                assert row.tobytes() == eval_row.tobytes()

    @given(serving_case())
    @settings(max_examples=20, deadline=None)
    def test_serve_mask_is_eval_mask_minus_gold(self, case):
        """On one shared score matrix, the serve-time scatter (keep=None)
        and the eval scatter (keep=gold) agree everywhere except the gold
        column, byte for byte."""
        store, model, picks, _ = case
        h = store.train.heads[picks]
        r = store.train.relations[picks]
        t = store.train.tails[picks]
        scores = model.score_all_tails(h, r)

        serve_mask, serve_cand = scatter_known_nan(
            scores, store.filter_index, h, r, tail_side=True, keep=None)
        eval_mask, eval_cand = scatter_known_nan(
            scores, store.filter_index, h, r, tail_side=True, keep=t)

        rows = np.arange(len(picks))
        assert np.isnan(serve_mask[rows, t]).all()
        assert eval_mask[rows, t].tobytes() == scores[rows, t].tobytes()
        # Every gold fact here is known, so eval keeps exactly one extra
        # candidate per row.
        assert np.array_equal(eval_cand, serve_cand + 1)
        for i in range(len(picks)):
            a = np.delete(serve_mask[i], t[i])
            b = np.delete(eval_mask[i], t[i])
            assert a.tobytes() == b.tobytes()

    @given(serving_case())
    @settings(max_examples=10, deadline=None)
    def test_head_side_property(self, case):
        store, model, picks, k = case
        h = store.train.heads[picks]
        r = store.train.relations[picks]
        t = store.train.tails[picks]

        engine = QueryEngine(EmbeddingStore.from_model(model, dataset=store),
                             cache_capacity=0)
        answers = engine.topk_batch(list(zip(t, r)), k=k, filtered=True,
                                    tail_side=False)

        reference = grouped_reference(model, store.filter_index, t, r, k,
                                      tail_side=False)
        for i, answer in enumerate(answers):
            order, scores, _ = reference[(int(t[i]), int(r[i]))]
            assert np.array_equal(answer.entities, order)
            assert answer.scores.tobytes() == scores.tobytes()
            # (h, r, t) is known, so its head is filtered out.
            assert h[i] not in answer.entities


@functools.lru_cache(maxsize=None)
def _wide_model(name):
    """A model at the arc-serve geometry: entity rows 64 floats wide."""
    dim = 64 // MODEL_REGISTRY[name].width_factor
    return make_model(name, 2000, 24, dim, seed=12)


class TestGroupingBitwise:
    """Which rows share a multi-row block call is bitwise-invisible — the
    property the micro-batcher's byte-exact contract rests on."""

    @pytest.mark.parametrize("name", MODEL_NAMES)
    def test_grouped_equals_mixed_bitwise(self, name):
        store = generate_latent_kg(30, 4, 180, seed=9)
        model = make_model(name, 30, 4, 8, seed=10)
        h = store.train.heads[:16]
        r = store.train.relations[:16]
        mixed = model.score_all_tails(h, r)
        for rel in np.unique(r):
            members = np.flatnonzero(r == rel)
            if len(members) < 2:
                continue
            grouped = model.score_all_tails(h[members],
                                            np.full(len(members), rel))
            assert grouped.tobytes() == mixed[members].tobytes()

    @pytest.mark.parametrize("tail_side", [True, False])
    @pytest.mark.parametrize("name", MODEL_NAMES)
    @given(m=st.integers(2, 64), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=8, deadline=None)
    def test_row_bytes_do_not_depend_on_the_pass(self, name, tail_side, m,
                                                 seed):
        """A mixed-relation pass of ``m`` unique (anchor, rel) rows: each
        row's bytes equal its bytes reversed within the pass and paired
        with just one other row of it.  2,000 entities keep every block
        above OpenBLAS's small-matrix kernel (see docs/serving.md)."""
        model = _wide_model(name)
        n_rel = model.n_relations
        keys = np.random.default_rng(seed).choice(
            model.n_entities * n_rel, size=m, replace=False)
        anchors, rels = keys // n_rel, keys % n_rel

        def block(rows):
            if tail_side:
                return model.score_all_tails(anchors[rows], rels[rows])
            return model.score_all_heads(rels[rows], anchors[rows])

        rows = np.arange(m)
        full = block(rows)
        assert block(rows[::-1])[::-1].tobytes() == full.tobytes()
        for i in rows:
            pair = block([i, (i + 1) % m])
            assert pair[0].tobytes() == full[i].tobytes()
