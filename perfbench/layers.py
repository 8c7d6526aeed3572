"""Which public functions of ``src/repro`` the traced run wraps, and how
its spans reduce to the per-layer metrics.

Span names are ``<layer>.<what>``, one layer per package under
``src/repro``.  A metric ``<span>_s`` is the summed self time of that
span; counts come from the ``on_return`` hooks.  See README.md for which
end-to-end metric each layer metric should move, and on which workload.
"""

from __future__ import annotations

from pathlib import Path

from spans import Probe, Tracer, layer_self_times, untraced_by_phase


def _count(name, amount):
    def on_return(tracer: Tracer, args, kwargs, result):
        tracer.count(name, amount(args, kwargs, result))
    return on_return


def _selected(tracer: Tracer, args, kwargs, result):
    _, stats = result
    tracer.count("compress.rows_offered", stats.rows_in)
    tracer.count("compress.rows_kept", stats.rows_kept)


def _ckpt_written(tracer: Tracer, args, kwargs, result):
    tracer.count("training.ckpt_bytes",
                 sum(f.stat().st_size for f in Path(result).iterdir()))


def _ranked(tracer: Tracer, args, kwargs, result):
    # Head and tail replacement: two ranking queries per triple.
    tracer.count("eval.rank_queries", 2 * result.n_queries)


W = "repro.training.worker"
T = "repro.training.trainer"
C = "repro.training.checkpoint"
MODEL = "repro.models.complex_model:ComplEx"
ENGINE = "repro.serve.engine:QueryEngine"

PROBES = (
    # kg: partition, negative sampling, CSR fold
    Probe(f"{T}:make_partition", "kg.partition"),
    Probe(f"{W}:corrupt_batch", "kg.negatives"),
    Probe("repro.kg.triples:TripleStore.is_known", "kg.negatives",
          parent="training.step"),
    Probe(f"{W}:mask_known_candidates", "kg.negatives"),
    Probe(f"{W}:select_hardest", "kg.negatives"),
    Probe(f"{W}:select_all", "kg.negatives"),
    Probe(f"{W}:build_fold_plan", "kg.fold"),
    Probe("repro.comm.sparse:build_fold_plan", "kg.fold"),
    Probe("repro.comm.sparse:fold_rows", "kg.fold",
          on_return=_count("kg.fold_calls", lambda a, k, r: 1)),
    # models: the training forward pass (scores + loss) and backward pass
    Probe(f"{MODEL}.score", "models.forward", parent="training.step"),
    Probe(f"{W}:logistic_loss", "models.forward"),
    Probe(f"{MODEL}.batch_gradients", "models.backward",
          on_return=_count("models.examples", lambda a, k, r: len(a[1]))),
    # optim
    Probe("repro.optim.adam:AdamState.apply_sparse", "optim.adam",
          on_return=_count("optim.adam_rows", lambda a, k, r: a[2].nnz_rows)),
    # compress
    Probe(f"{T}:select", "compress.select", on_return=_selected),
    Probe(f"{T}:quantize", "compress.quantize"),
    Probe(f"{T}:dequantize", "compress.dequantize"),
    # comm: host side of the simulated collectives
    Probe(f"{T}:combine_sparse", "comm.combine"),
    Probe("repro.comm.collectives:combine_sparse", "comm.combine"),
    Probe("repro.comm.collectives:allreduce_bytes", "comm.collective"),
    Probe("repro.comm.collectives:allgatherv_bytes", "comm.collective"),
    Probe("repro.comm.collectives:allgather_sparse", "comm.collective"),
    Probe("repro.comm.hierarchical:hier_allreduce_bytes", "comm.collective"),
    Probe("repro.comm.hierarchical:hier_intra_gather_bytes",
          "comm.collective"),
    Probe("repro.comm.hierarchical:hier_inter_allgatherv_bytes",
          "comm.collective"),
    Probe("repro.comm.hierarchical:hier_intra_bcast_bytes",
          "comm.collective"),
    # training: the trainer's own loop and step, checkpoint writes
    Probe(f"{T}:DistributedTrainer.run", "training.loop"),
    Probe(f"{W}:Worker.compute_step", "training.step"),
    Probe(f"{C}:capture_state", "training.ckpt"),
    Probe(f"{C}:write_checkpoint", "training.ckpt", on_return=_ckpt_written),
    Probe(f"{C}:prune_checkpoints", "training.ckpt"),
    # eval
    Probe(f"{T}:evaluate_ranking", "eval.rank", on_return=_ranked),
    Probe(f"{T}:evaluate_classification", "eval.classify"),
    # serve
    Probe("repro.serve.store:EmbeddingStore.from_checkpoint", "serve.load"),
    Probe(f"{ENGINE}.reload", "serve.reload"),
    Probe(f"{ENGINE}.topk_batch", "serve.batch"),
    Probe(f"{MODEL}.score_all_tails", "serve.dense_score",
          parent="serve.batch"),
    Probe(f"{MODEL}.score_all_heads", "serve.dense_score",
          parent="serve.batch"),
    Probe("repro.serve.engine:scatter_known_nan", "serve.dense_score",
          parent="serve.batch"),
    Probe(f"{MODEL}.query_vector", "serve.stage1", parent="serve.batch"),
    Probe("repro.serve.binary:BinaryStore.candidate_pools", "serve.stage1",
          parent="serve.batch"),
    Probe(f"{MODEL}.score_candidates", "serve.stage2", parent="serve.batch"),
)

#: Per-layer metric -> (unit, better).  Self times are host seconds; the
#: ``*.sim_*`` metrics are simulated seconds read from the TrainResult.
PER_LAYER = {
    "kg.generate_s": ("s", "lower"),
    "kg.partition_s": ("s", "lower"),
    "kg.negatives_s": ("s", "lower"),
    "kg.fold_s": ("s", "lower"),
    "kg.fold_calls": ("count", "lower"),
    "models.forward_s": ("s", "lower"),
    "models.backward_s": ("s", "lower"),
    "models.examples": ("count", "higher"),
    "optim.adam_s": ("s", "lower"),
    "optim.adam_rows": ("count", "lower"),
    "compress.select_s": ("s", "lower"),
    "compress.quantize_s": ("s", "lower"),
    "compress.dequantize_s": ("s", "lower"),
    "compress.rows_offered": ("count", "lower"),
    "compress.rows_kept_ratio": ("ratio", "higher"),
    "comm.combine_s": ("s", "lower"),
    "comm.collective_s": ("s", "lower"),
    "comm.bytes": ("bytes", "lower"),
    "comm.calls": ("count", "lower"),
    "comm.sim_s": ("sim_s", "lower"),
    "comm.sim_s.flat": ("sim_s", "lower"),
    "comm.sim_s.intra": ("sim_s", "lower"),
    "comm.sim_s.inter": ("sim_s", "lower"),
    "training.step_s": ("s", "lower"),
    "training.ckpt_write_s": ("s", "lower"),
    "training.ckpt_bytes": ("bytes", "lower"),
    "training.sim_compute_s": ("sim_s", "lower"),
    "training.sim_eval_s": ("sim_s", "lower"),
    "eval.rank_s": ("s", "lower"),
    "eval.rank_queries": ("count", "higher"),
    "eval.classify_s": ("s", "lower"),
    "serve.export_s": ("s", "lower"),
    "serve.load_s": ("s", "lower"),
    "serve.reload_s": ("s", "lower"),
    "serve.batch_s": ("s", "lower"),
    "serve.dense_score_s": ("s", "lower"),
    "serve.stage1_s": ("s", "lower"),
    "serve.stage2_s": ("s", "lower"),
    "serve.cache_lookups": ("count", "higher"),
    "serve.cache_hit_ratio": ("ratio", "higher"),
    "serve.queue_wait_ms": ("ms", "lower"),
    "serve.gen_late_ms": ("ms", "lower"),
    "serve.failed": ("count", "lower"),
    "untraced_s.setup": ("s", "lower"),
    "untraced_s.train": ("s", "lower"),
    "untraced_s.serve": ("s", "lower"),
    "trace.overhead.train": ("ratio", "lower"),
    "trace.overhead.serve": ("ratio", "lower"),
}

#: Spans whose self time makes up each ``*_s`` metric.
_SELF_TIME = {
    "kg.generate_s": ("kg.generate",),
    "kg.partition_s": ("kg.partition",),
    "kg.negatives_s": ("kg.negatives",),
    "kg.fold_s": ("kg.fold",),
    "models.forward_s": ("models.forward",),
    "models.backward_s": ("models.backward",),
    "optim.adam_s": ("optim.adam",),
    "compress.select_s": ("compress.select",),
    "compress.quantize_s": ("compress.quantize",),
    "compress.dequantize_s": ("compress.dequantize",),
    "comm.combine_s": ("comm.combine",),
    "comm.collective_s": ("comm.collective",),
    "training.step_s": ("training.loop", "training.step"),
    "training.ckpt_write_s": ("training.ckpt",),
    "eval.rank_s": ("eval.rank",),
    "eval.classify_s": ("eval.classify",),
    "serve.export_s": ("serve.export",),
    "serve.load_s": ("serve.load",),
    "serve.reload_s": ("serve.reload",),
    "serve.batch_s": ("serve.batch",),
    "serve.dense_score_s": ("serve.dense_score",),
    "serve.stage1_s": ("serve.stage1",),
    "serve.stage2_s": ("serve.stage2",),
}

#: The phases a run opens; ``serve.dense`` and ``serve.binary`` count as
#: ``serve``.  The correctness checks run outside them, unwrapped.
PHASES = ("setup", "train", "serve")


def per_layer_metrics(tracer: Tracer, extra: dict) -> dict:
    """Every :data:`PER_LAYER` metric from the trace plus ``extra`` (the
    simulated-clock and load-generator figures the workload measured)."""
    self_time = layer_self_times(tracer.spans)
    values = {metric: sum(self_time.get(n, 0.0) for n in names)
              for metric, names in _SELF_TIME.items()}
    counts = tracer.counts
    for name in ("kg.fold_calls", "models.examples", "optim.adam_rows",
                 "compress.rows_offered", "training.ckpt_bytes",
                 "eval.rank_queries"):
        values[name] = counts.get(name, 0)
    offered = counts.get("compress.rows_offered", 0)
    values["compress.rows_kept_ratio"] = (
        counts.get("compress.rows_kept", 0) / offered if offered else 0.0)
    for phase in PHASES:
        values[f"untraced_s.{phase}"] = 0.0
    for phase, seconds in untraced_by_phase(tracer).items():
        values[f"untraced_s.{phase.split('.')[0]}"] += seconds
    values.update(extra)
    missing = set(PER_LAYER) - set(values)
    if missing:
        raise KeyError(f"per-layer metrics not measured: {sorted(missing)}")
    return {name: values[name] for name in PER_LAYER}


def self_time_table(tracer: Tracer) -> dict:
    """Self time per span name and phase, for the flat JSON snapshot."""
    out = {}
    for phase in sorted({s.phase for s in tracer.spans if s.phase}):
        out[phase] = layer_self_times(
            [s for s in tracer.spans if s.phase == phase])
    return out
