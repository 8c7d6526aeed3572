"""Binarized embedding tier: Hamming-space candidate generation.

Binarized KGE (Kishimoto et al.) shows trained embeddings survive
compression to **1 bit per dimension** plus one float32 scale per row at
modest ranking cost — a ~30x memory reduction that is the difference
between serving an FB250K-scale entity matrix from RAM or not.  This
module is the serving half of that result:

* :func:`binarize_model` folds a trained model's entity matrix through the
  *same* 1-bit quantizer the gradient-compression path uses
  (:func:`repro.compress.quantization.binarize_matrix` — shared sign
  convention for zeros, shared per-row statistics) into a
  :class:`BinaryStore`: packed sign bits + per-row scales.
* :func:`save_sidecar` / :func:`load_sidecar` persist the store as a
  checkpoint **sidecar** (``binary.npz`` + ``binary.json``) through the
  checkpoint machinery's checksummed sidecar format — the checkpoint's own
  files stay byte-identical, and a corrupt, missing, or foreign sidecar
  raises the existing :class:`~repro.training.checkpoint.CheckpointError`
  taxonomy.  The sidecar records the SHA-256 of the entity matrix it was
  exported from, so serving a sidecar against the wrong checkpoint fails
  loudly instead of generating candidates from someone else's geometry.
* :meth:`BinaryStore.candidate_pools` is the first stage of the tiered
  query path: the engine asks each model for its full-precision
  :meth:`~repro.models.base.KGEModel.query_vector` and ranks every entity
  against the 1-bit reconstruction, reading only packed bytes —
  :meth:`BinaryStore.sign_dots` generalises packed-XOR-popcount Hamming
  scoring (``sign(q) . sign(t) = width - 2 * hamming``) to the query's
  real per-dimension magnitudes via per-byte lookup tables, and
  :meth:`BinaryStore.approx_scores` folds in the per-row scale according
  to the model's score geometry.  The top ``rerank_k`` become the
  candidate pool the full-precision scorers re-rank.  Selection is
  exactly deterministic — descending approximate score, exact ties
  toward the smaller entity id — so ``rerank_k >= n_entities`` always
  yields the complete, id-ordered entity set and the tiered path
  collapses onto the dense engine bitwise.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..compress.packing import hamming_distances, pack_signs, unpack_signs
from ..compress.quantization import binarize_matrix
from ..models.base import KGEModel
from ..training import checkpoint as ckpt

#: Sidecar file stem: ``binary.npz`` + ``binary.json`` in a checkpoint dir.
SIDECAR_STEM = "binary"
SIDECAR_FORMAT = "repro-binary-sidecar"
SIDECAR_VERSION = 1

ENTITY_CODES_KEY = "binary/entity_codes"
ENTITY_SCALES_KEY = "binary/entity_scales"

#: Sign pattern of every possible code byte, MSB-first like ``packbits``:
#: ``_BYTE_SIGNS[v, b]`` is +1 if bit ``b`` of value ``v`` is set else -1.
_BYTE_SIGNS = ((((np.arange(256)[:, None]
                  >> np.arange(7, -1, -1)[None, :]) & 1) * 2 - 1)
               .astype(np.float32))


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


#: Keys per selector block: :func:`select_topk` takes as many rows at a
#: time as keep about 2**17 int64 keys (1 MiB) resident in a core's cache
#: between the key passes and the partition — on a 64 x 9,000 group that
#: halved the per-query cost against one whole-matrix pass (2-core Xeon).
_BLOCK_KEYS = 2**17

#: Rank classes at or above this one are NaN: ``-inf`` maps to
#: ``0xFF000001`` and both NaN bit ranges wrap past it.
_NAN_CLASS = 0xFF000002


def _selection_keys(scores: np.ndarray) -> np.ndarray:
    """Map float32 score rows to unique int64 keys whose *ascending* order
    is (descending score, ascending entity id), NaN after everything.

    The float bits are transposed into a monotone integer (the usual
    sign-flip trick) and rotated, modulo 2**32, so that ``+inf`` is rank
    class 0, ``-inf`` comes last among real scores and every NaN (a
    filtered candidate) wraps past it — no NaN mask pass needed.  The
    class is then fused with the column id so that exact float ties —
    including ``-0.0`` vs ``+0.0``, collapsed by adding ``0.0`` first —
    resolve toward the smaller id.  Unique keys mean *any* comparison
    sort or partition selects and orders identically, which is what lets
    :func:`select_topk` use a partition (O(n)) instead of a full stable
    argsort without giving up determinism.  ``key % n_columns`` is the
    column; NaN keys are ``>= _NAN_CLASS * n_columns``.
    """
    if scores.dtype != np.float32:
        raise TypeError(f"scores must be float32, got {scores.dtype}")
    n = scores.shape[1]
    bits = (scores + np.float32(0.0)).view(np.int32)
    # Flip the magnitude bits of negatives: int32 order == float order.
    mono = bits >> 31
    mono &= 0x7FFFFFFF
    mono ^= bits
    rank_class = np.uint32(0x7F800000) - mono.view(np.uint32)
    keys = np.multiply(rank_class, n, dtype=np.int64)
    keys += np.arange(n, dtype=np.int64)
    return keys


def select_topk(scores: np.ndarray, k: int
                ) -> tuple[np.ndarray, np.ndarray]:
    """Exact top-``k`` of every row of a float32 ``(rows, n)`` matrix.

    Returns ``(order, valid)``: ``order`` is ``(rows, min(k, n))`` int64
    column ids, best first — descending score, exact ties toward the
    smaller id — and ``valid[i]`` counts the leading entries of row ``i``
    that are real scores.  NaN means *filtered*: it ranks below every
    real value, so it only fills the columns past ``valid[i]``, which
    callers that must never return a filtered candidate drop.

    Unique ``(score, id)`` keys (:func:`_selection_keys`), an O(n)
    partition, then a sort of the ``k`` survivors only — vectorised over
    blocks of rows sized to stay in cache.  The answer is exactly that
    of ``np.argsort(-row, kind="stable")`` truncated to the row's real
    scores.
    """
    if k < 0:
        raise ValueError(f"k must be >= 0, got {k}")
    m, n = scores.shape
    take = min(int(k), n)
    block = max(1, _BLOCK_KEYS // max(n, 1))
    tops = []
    for lo in range(0, max(m, 1), block):
        keys = _selection_keys(scores[lo:lo + block])
        if take < n:
            keys.partition(take - 1, axis=1)
        tops.append(keys[:, :take])
    top = tops[0] if len(tops) == 1 else np.concatenate(tops)
    top.sort(axis=1)
    valid = (top < np.int64(_NAN_CLASS) * n).sum(axis=1)
    return top % n, valid


@dataclass
class BinaryStore:
    """Packed 1-bit entity codes + per-row scales, ready for Hamming search.

    ``codes`` is ``(n_entities, ceil(width / 8))`` uint8 in the row-major
    :func:`~repro.compress.packing.pack_signs` layout; ``scales`` is
    ``(n_entities,)`` float32; ``width`` is the unpacked bit width (the
    model's real entity storage width, ``dim * width_factor``).  Arrays
    are frozen on construction like the dense store's.
    """

    codes: np.ndarray
    scales: np.ndarray
    width: int
    #: Statistic the per-row scale was computed with ('avg' or 'max').
    stat: str = "avg"
    #: Completed training epochs behind the snapshot the codes came from.
    source_epoch: int = 0
    #: SHA-256 of the float32 entity matrix the codes were exported from —
    #: binds a sidecar to its checkpoint (empty for in-memory stores).
    source_entity_sha: str = ""
    _frozen: bool = field(init=False, default=False, repr=False)

    def __post_init__(self) -> None:
        self.codes = np.ascontiguousarray(self.codes, dtype=np.uint8)
        self.scales = np.ascontiguousarray(self.scales, dtype=np.float32)
        if self.codes.ndim != 2:
            raise ValueError(f"codes must be 2-D, got {self.codes.shape}")
        if self.scales.shape != (len(self.codes),):
            raise ValueError(
                f"scales shape {self.scales.shape} does not match "
                f"{len(self.codes)} code rows")
        if not 0 < (self.width + 7) // 8 == self.codes.shape[1]:
            raise ValueError(
                f"width {self.width} needs {(self.width + 7) // 8} packed "
                f"byte(s) per row, codes have {self.codes.shape[1]}")
        _freeze(self.codes)
        _freeze(self.scales)
        self._frozen = True

    @property
    def n_entities(self) -> int:
        return len(self.codes)

    @property
    def nbytes(self) -> int:
        """Resident bytes of the candidate-generation tier."""
        return self.codes.nbytes + self.scales.nbytes

    def approx_entity_emb(self) -> np.ndarray:
        """The rank-1 reconstruction ``sign * scale`` (float32).

        This is what the 1-bit tier *believes* the entity matrix is; the
        round-trip property tests pin it against
        ``dequantize(quantize_1bit(...))`` exactly.
        """
        return unpack_signs(self.codes, self.width) * self.scales[:, None]

    # -- stage 1: Hamming candidate generation ------------------------------

    def pack_queries(self, vectors: np.ndarray) -> np.ndarray:
        """Pack query vectors' sign bits with the entity-code convention."""
        vectors = np.asarray(vectors)
        if vectors.ndim != 2 or vectors.shape[1] != self.width:
            raise ValueError(
                f"query vectors must be (batch, {self.width}), got "
                f"{vectors.shape}")
        return pack_signs(vectors)

    def hamming(self, vectors: np.ndarray) -> np.ndarray:
        """Hamming distances of each query's sign pattern to every entity:
        shape ``(batch, n_entities)`` int64."""
        return hamming_distances(self.pack_queries(vectors), self.codes)

    def sign_dots(self, vectors: np.ndarray) -> np.ndarray:
        """Exact ``q . sign(t)`` for every (query, entity) pair, float32
        ``(batch, n_entities)`` — computed from the **packed** codes.

        This is asymmetric distance computation over 1-bit codes: the
        full-precision query is folded into a per-query, per-byte lookup
        table ``LUT[j, v] = sum_b q[8 j + b] * sign_bit(v, b)`` (256
        entries per code byte), and each candidate costs one table gather
        per stored byte — the same bytes-touched as XOR + popcount, but
        weighted by the query's per-dimension magnitudes instead of
        counting each disagreement as 1.  The popcount identity
        ``sign(q) . sign(t) = width - 2 * hamming`` is the special case
        where every ``|q_i|`` is 1.
        """
        vectors = np.asarray(vectors, dtype=np.float32)
        if vectors.ndim != 2 or vectors.shape[1] != self.width:
            raise ValueError(
                f"query vectors must be (batch, {self.width}), got "
                f"{vectors.shape}")
        m, n_bytes = len(vectors), self.codes.shape[1]
        pad = 8 * n_bytes - self.width
        if pad:
            # packbits pads code rows with zero bits; zero-padding the
            # query makes those dims contribute 0 either way.
            vectors = np.concatenate(
                [vectors, np.zeros((m, pad), dtype=np.float32)], axis=1)
        # Batch-innermost LUT layout: each gather below pulls a contiguous
        # (m,) row per candidate byte, which is the cache-friendly shape
        # for the coalesced multi-query groups that dominate tail latency.
        lut = np.ascontiguousarray(np.einsum(
            "mjb,vb->jvm", vectors.reshape(m, n_bytes, 8), _BYTE_SIGNS))
        # np.take gathers whole (m,) rows; the equivalent mixed fancy
        # index lut[j, codes[:, j], :] ran 5-7x slower for 2-8 queries.
        acc = np.take(lut[0], self.codes[:, 0], axis=0)
        for j in range(1, n_bytes):
            acc += np.take(lut[j], self.codes[:, j], axis=0)
        return np.ascontiguousarray(acc.T)

    def approx_scores(self, vectors: np.ndarray,
                      geometry: str = "dot") -> np.ndarray:
        """Candidate-ranking scores from the packed tier, higher = better.

        The tier stores ``(sign bits, scale)`` per entity, so the best
        available stand-in for an embedding is the rank-1 reconstruction
        ``t ~ s * sign(t)``; :meth:`sign_dots` supplies the exact
        ``q . sign(t)`` from the packed codes.

        ``geometry="dot"`` (DistMult, ComplEx): the true score is
        ``q . t``, so candidates rank by ``s * (q . sign(t))`` — the
        query scored against the reconstruction, scale included (a pure
        sign-agreement count is blind to candidate norms, which dominate
        dot models' dense rankings).

        ``geometry="distance"`` (TransE, RotatE): the true score is
        ``-|q - t|``; expanding ``|q - t|^2`` against the reconstruction
        and dropping the per-query ``|q|^2`` constant ranks candidates by
        ``2 s (q . sign(t)) - width s^2`` — the norm term now *penalises*
        far-out candidates instead of rewarding them.
        """
        if geometry not in ("dot", "distance"):
            raise ValueError(
                f"unknown geometry {geometry!r}; 'dot' or 'distance'")
        dots = self.sign_dots(vectors)
        if geometry == "dot":
            return dots * self.scales[None, :]
        return (2.0 * dots * self.scales[None, :]
                - np.float32(self.width) * self.scales[None, :] ** 2)

    def candidate_pools(self, vectors: np.ndarray, rerank_k: int,
                        masked: tuple[np.ndarray, np.ndarray] | None = None,
                        geometry: str = "dot",
                        ) -> tuple[np.ndarray, np.ndarray]:
        """Top-``rerank_k`` candidate ids per query by approximate score.

        Returns ``(pools, order)`` with ``k = min(rerank_k, n_entities)``:
        ``pools`` is ``(batch, k)`` int64 in **ascending id order** (the
        layout the re-rank stage's tie-breaks need); ``order`` is the same
        candidates best-first — the candidate stage's own ranking, kept
        for recall telemetry.  Selection goes through the shared exact
        selector (:func:`select_topk`): the same candidates — exact float
        ties toward the smaller entity id — that a full stable sort
        would pick, and ``rerank_k >= n_entities`` always yields the
        complete entity set.  A NaN approximate score ranks below every
        real one, ``-inf`` included, so it enters a pool only once the
        real candidates run out.  ``masked`` — ``(rows, cols)`` index
        arrays of known facts from the CSR filter — sinks known
        candidates to ``-inf`` so a partial pool never wastes slots on
        answers the re-rank stage must filter anyway.
        """
        if rerank_k < 1:
            raise ValueError(f"rerank_k must be >= 1, got {rerank_k}")
        scores = self.approx_scores(vectors, geometry=geometry)
        if masked is not None:
            rows, cols = masked
            if len(rows):
                scores[rows, cols] = -np.inf
        order, _ = select_topk(scores, rerank_k)
        return np.sort(order, axis=1), order


def binarize_model(model: KGEModel, stat: str = "avg",
                   source_epoch: int = 0,
                   source_entity_sha: str = "") -> BinaryStore:
    """Binarize a trained model's entity matrix into a :class:`BinaryStore`."""
    codes, scales = binarize_matrix(model.entity_emb, stat=stat)
    return BinaryStore(codes=codes, scales=scales,
                       width=model.entity_emb.shape[1], stat=stat,
                       source_epoch=source_epoch,
                       source_entity_sha=source_entity_sha)


# ---------------------------------------------------------------------------
# Sidecar persistence
# ---------------------------------------------------------------------------

def save_sidecar(store: BinaryStore, ckpt_dir) -> "Path":  # noqa: F821
    """Write ``binary.npz`` + ``binary.json`` next to a checkpoint manifest."""
    meta = {
        "width": int(store.width),
        "stat": store.stat,
        "n_entities": int(store.n_entities),
        "source_epoch": int(store.source_epoch),
        "source_entity_sha": store.source_entity_sha,
    }
    arrays = {ENTITY_CODES_KEY: store.codes, ENTITY_SCALES_KEY: store.scales}
    return ckpt.write_sidecar(ckpt_dir, SIDECAR_STEM, SIDECAR_FORMAT,
                              SIDECAR_VERSION, arrays, meta)


def load_sidecar(ckpt_dir) -> BinaryStore:
    """Load and validate a binary sidecar (checksums, format, geometry)."""
    arrays, meta = ckpt.read_sidecar(ckpt_dir, SIDECAR_STEM, SIDECAR_FORMAT,
                                     SIDECAR_VERSION)
    missing = sorted({ENTITY_CODES_KEY, ENTITY_SCALES_KEY} - set(arrays))
    if missing:
        raise ckpt.CheckpointMissingArrayError(
            f"binary sidecar under {ckpt_dir} lacks array(s) {missing}")
    try:
        return BinaryStore(codes=arrays[ENTITY_CODES_KEY],
                           scales=arrays[ENTITY_SCALES_KEY],
                           width=int(meta["width"]),
                           stat=str(meta.get("stat", "avg")),
                           source_epoch=int(meta.get("source_epoch", 0)),
                           source_entity_sha=str(
                               meta.get("source_entity_sha", "")))
    except (KeyError, TypeError, ValueError) as exc:
        raise ckpt.CheckpointCorruptError(
            f"binary sidecar under {ckpt_dir} is internally inconsistent: "
            f"{exc}") from exc


def check_geometry(store: BinaryStore, entity_emb: np.ndarray,
                   where: str = "binary.npz") -> None:
    """Refuse a sidecar that does not describe these embeddings.

    Geometry (rows x bit width) must match the dense entity matrix, and
    when the sidecar recorded the matrix digest it must match too — a
    sidecar exported from a different checkpoint is a configuration
    mismatch, the same class of error as resuming the wrong run.
    """
    n, width = entity_emb.shape
    if store.n_entities != n or store.width != width:
        raise ckpt.CheckpointConfigMismatchError(
            f"binary sidecar {where} encodes {store.n_entities} entities x "
            f"{store.width} bits but the checkpoint embeds {n} entities x "
            f"{width} dims; the sidecar belongs to a different checkpoint "
            f"— re-run `repro export-binary`")
    if store.source_entity_sha:
        actual = ckpt._sha256_array(np.ascontiguousarray(entity_emb))
        if actual != store.source_entity_sha:
            raise ckpt.CheckpointConfigMismatchError(
                f"binary sidecar {where} was exported from an entity matrix "
                f"with digest {store.source_entity_sha[:12]}... but this "
                f"checkpoint's is {actual[:12]}...; the sidecar belongs to "
                f"a different snapshot — re-run `repro export-binary`")


def export_binary(ckpt_dir, model_name: str = "complex",
                  stat: str = "avg") -> tuple["Path", dict]:  # noqa: F821
    """Post-training export: checkpoint -> binarize -> checksummed sidecar.

    Loads the (latest) checkpoint under ``ckpt_dir`` read-only, binarizes
    its entity matrix, and writes the sidecar into the same directory.
    Returns ``(checkpoint_dir, summary)`` where the summary reports the
    measured memory story (dense bytes, binary bytes, reduction factor).
    """
    from .store import EmbeddingStore

    served = EmbeddingStore.from_checkpoint(ckpt_dir, model_name=model_name)
    entity_emb = served.model.entity_emb
    sha = ckpt._sha256_array(np.ascontiguousarray(entity_emb))
    store = binarize_model(served.model, stat=stat,
                           source_epoch=served.epoch, source_entity_sha=sha)
    path = save_sidecar(store, ckpt_dir)
    dense = int(entity_emb.nbytes)
    summary = {
        "checkpoint": str(path),
        "model": model_name,
        "stat": stat,
        "epoch": served.epoch,
        "n_entities": store.n_entities,
        "width_bits": store.width,
        "dense_bytes": dense,
        "binary_bytes": store.nbytes,
        "memory_reduction": dense / store.nbytes,
    }
    return path, summary
