"""Golden-run regression net: frozen end-to-end training digests.

Each golden file under ``tests/golden/`` pins the *exact* numeric outcome
(per-epoch losses, validation MRR curve, final test MRR/TCA, byte and step
counters) of one strategy combo on the frozen-seed toy dataset.  Any change
that perturbs the training trajectory — an optimiser tweak, an RNG reorder,
a collective reshuffle — fails these tests, so numeric drift has to be
introduced deliberately::

    PYTHONPATH=src python -m pytest tests/integration/test_golden.py --update-goldens

and the regenerated files reviewed and committed alongside the change.
"""

import json
from pathlib import Path

import pytest

from dataclasses import replace

from repro import FaultPlan, TrainConfig, train
from repro.comm.network import NetworkModel
from repro.comm.topology import HierarchicalNetwork
from repro.kg.datasets import make_tiny_kg
from repro.training.strategy import PRESETS, StrategyConfig

GOLDEN_DIR = Path(__file__).resolve().parent.parent / "golden"

#: 2 nodes x 2 ranks: a fast on-node link and a slow between-node ring.
TWO_LEVEL = HierarchicalNetwork(
    intra=NetworkModel(alpha=1e-7, beta=1e-11),
    inter=NetworkModel(alpha=5e-6, beta=1.25e-10),
    ranks_per_node=2)

#: Drops that exhaust a one-retry budget often enough to engage the
#: reliable dense resend on some steps.
FALLBACK_DENSE = FaultPlan(seed=7, drop_prob=0.5, max_retries=1,
                           policy="fallback-dense")

#: golden name -> (strategy, simulated ranks, network, fault plan).  Each
#: combo pins one route/codec of the trainer's gradient exchange.
COMBOS = {
    "allreduce-n1": (PRESETS["allreduce"](), 1, None, None),
    "rs-1bit-n3": (PRESETS["RS+1-bit"](), 3, None, None),
    "drs-1bit-rp-ss-n4": (PRESETS["DRS+1-bit+RP+SS"](), 4, None, None),
    # two-level stack, dense and lossless
    "allreduce-hier-n4": (
        replace(PRESETS["allreduce"](), collective="hier"), 4, TWO_LEVEL,
        None),
    # two-level stack re-quantized at the hop boundary, rank and node
    # residuals; probing every 2nd epoch also runs the flat allgather
    "drs-1bit-ef-hier-n4": (
        replace(PRESETS["DRS+1-bit"](), collective="hier",
                error_feedback=True, drs_probe_interval=2),
        4, TWO_LEVEL, None),
    # 2-bit codes draw from the selection RNG between selections
    "rs-2bit-n3": (replace(PRESETS["RS"](), quantization_bits=2), 3, None,
                   None),
    # GradZip factored payloads
    "allgather-fact-r4-n3": (
        replace(PRESETS["allgather"](), factorization_rank=4), 3, None,
        None),
    # codec-free sparse allgather
    "rs-n3": (PRESETS["RS"](), 3, None, None),
    # compressed gathers that give up resend as a reliable dense allreduce
    "rs-1bit-fallback-n3": (PRESETS["RS+1-bit"](), 3, None, FALLBACK_DENSE),
}


def run_digest(strategy: StrategyConfig, n_nodes: int, network=None,
               faults: FaultPlan | None = None) -> dict:
    """One frozen-seed training run, reduced to its comparable numbers."""
    store = make_tiny_kg()
    cfg = TrainConfig(dim=8, batch_size=128, max_epochs=4, lr_patience=6,
                      eval_max_queries=30, seed=20220829)
    result = train(store, strategy, n_nodes, config=cfg, network=network,
                   faults=faults)
    # Every field below is deterministic; real wall-clock timings
    # (eval_seconds) are deliberately excluded.
    return {
        "strategy": result.strategy_label,
        "n_nodes": n_nodes,
        "seed": cfg.seed,
        "epochs": result.epochs,
        "converged": result.converged,
        "loss": [float(x) for x in result.series("loss")],
        "val_mrr": [float(x) for x in result.series("val_mrr")],
        "final_val_mrr": float(result.final_val_mrr),
        "test_mrr": float(result.test_mrr),
        "test_hits10": float(result.test_hits10),
        "test_tca": float(result.test_tca),
        "total_time": float(result.total_time),
        "drs_switch_epoch": result.drs_switch_epoch,
        "bytes_total": result.bytes_total,
        "allreduce_steps": result.allreduce_steps,
        "allgather_steps": result.allgather_steps,
    }


@pytest.mark.parametrize("name", sorted(COMBOS))
def test_golden_run(name, update_goldens):
    digest = run_digest(*COMBOS[name])
    path = GOLDEN_DIR / f"{name}.json"
    if update_goldens:
        GOLDEN_DIR.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(digest, indent=2, sort_keys=True) + "\n")
        pytest.skip(f"regenerated {path.name}")
    assert path.is_file(), (
        f"golden file {path} is missing; generate it with "
        f"pytest --update-goldens and commit it")
    expected = json.loads(path.read_text())
    drifted = sorted({key for key in set(expected) | set(digest)
                      if expected.get(key) != digest.get(key)})
    assert digest == expected, (
        f"golden drift in {name}: field(s) {drifted} changed — if the "
        f"numeric change is intended, regenerate with --update-goldens "
        f"and commit the diff")


#: Goldens under tests/golden/ owned by other harnesses, not this suite's
#: strategy combos (the elastic recovery log is pinned by
#: scripts/elastic_recovery.py).
EXTERNAL_GOLDENS = {"elastic-recovery"}


def test_goldens_have_no_strays():
    """Every committed golden corresponds to a combo under test."""
    committed = ({path.stem for path in GOLDEN_DIR.glob("*.json")}
                 - EXTERNAL_GOLDENS)
    assert committed == set(COMBOS), (
        f"tests/golden/ out of sync with COMBOS: "
        f"stray={sorted(committed - set(COMBOS))} "
        f"missing={sorted(set(COMBOS) - committed)}")
