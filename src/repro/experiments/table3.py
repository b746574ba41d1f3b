"""Table 3: per-model cost accounting.

The paper states asymptotic client/server/inference complexities; on our
substrate we *measure* the corresponding quantities per communication
round — client computation seconds, server aggregation seconds,
inference seconds, and uplink bytes — which lets the reader check the
asymptotic claims empirically (e.g. FedOMD's client overhead over
FedGCN comes from the moment computation, its server overhead from the
statistic averaging; inference is identical to FedGCN's, exactly as the
table's last column claims).
"""

from __future__ import annotations

import time
from typing import Optional, Sequence

import numpy as np

from repro.autograd import no_grad
from repro.experiments.registry import register
from repro.experiments.runner import MODEL_NAMES, MODE_PARAMS, ExperimentResult, make_trainer
from repro.graphs import load_dataset, louvain_partition


@register("table3")
def run(
    mode: str = "quick",
    out_dir: Optional[str] = None,
    seeds: Optional[Sequence[int]] = None,
    dataset: str = "cora",
    num_parties: int = 3,
    models: Optional[Sequence[str]] = None,
) -> ExperimentResult:
    params = MODE_PARAMS[mode]
    models = list(models or MODEL_NAMES)
    g = load_dataset(dataset, seed=0, scale=params.scale)
    parts = louvain_partition(g, num_parties, np.random.default_rng(0)).parts

    res = ExperimentResult(
        name="table3",
        headers=[
            "Model",
            "ClientTime(s/round)",
            "ServerTime(s/round)",
            "InferTime(s)",
            "UplinkBytes/round",
        ],
        meta={"mode": mode, "dataset": dataset, "M": str(num_parties)},
    )
    rounds = 3
    for model in models:
        trainer = make_trainer(model, parts, params, seed=0)
        # Warm round (caches the normalized adjacencies etc.).
        trainer.begin_round(0)
        for c in trainer.clients:
            c.train_step(trainer.local_loss)
        state = trainer.aggregate()
        if state is not None:
            trainer._distribute(state)

        up_before = trainer.comm.stats.uplink_bytes
        t_client = 0.0
        t_server = 0.0
        for r in range(1, rounds + 1):
            trainer.begin_round(r)
            t0 = time.perf_counter()
            for c in trainer.clients:
                c.train_step(trainer.local_loss)
            t_client += time.perf_counter() - t0
            t0 = time.perf_counter()
            state = trainer.aggregate()
            t_server += time.perf_counter() - t0
            if state is not None:
                trainer._distribute(state)
        uplink_per_round = (trainer.comm.stats.uplink_bytes - up_before) / rounds

        t0 = time.perf_counter()
        with no_grad():
            for c in trainer.clients:
                c.model.eval()
                if model == "fedlit":
                    c.model(trainer._typed_adjs[c.cid], c.graph.x)
                else:
                    c.model(c.graph)
        t_infer = time.perf_counter() - t0

        res.add(
            model,
            f"{t_client / rounds:.4f}",
            f"{t_server / rounds:.4f}",
            f"{t_infer:.4f}",
            int(uplink_per_round),
        )
    if out_dir:
        res.save(out_dir)
    return res
