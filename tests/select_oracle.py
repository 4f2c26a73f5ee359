"""Reference selector leg: the per-graph GNN trainer, kept as the oracle.

:func:`repro.core.train_gnn_mls` runs DGI pretraining, fine-tuning and
inference over zero-padded (B, L, D) minibatches.  This module holds
the same schedule computed one graph at a time: each minibatch's loss
is the mean of per-graph losses, accumulated into the gradients with a
``1 / len(batch)`` seed before one optimizer step.  It visits the same
length-bucketed minibatches and draws from the RNG streams in the same
order, so the padded trainer must match it within float tolerance —
loss trajectories, probabilities and the selected net set.  The
selector tests and ``benchmarks/bench_select.py`` compare against it.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.core.batching import length_bucketed_batches
from repro.core.classifier import DecisionHead
from repro.core.decide import DEFAULT_THRESHOLD
from repro.core.dgi import DGIPretrainer
from repro.core.encoder import GraphTransformer
from repro.core.hypergraph import PathGraph
from repro.core.pathset import PathDataset
from repro.core.trainer import GnnMlsModel, TrainConfig
from repro.errors import TrainingError
from repro.nn.functional import binary_cross_entropy_with_logits, dgi_loss
from repro.nn.optim import Adam
from repro.nn.tensor import Tensor
from repro.rng import SeedBundle


def dgi_loss_for(pretrainer: DGIPretrainer,
                 normalized: np.ndarray) -> Tensor:
    """DGI loss of one path graph's normalized feature matrix."""
    pos = pretrainer.encoder(Tensor(normalized))
    summary = pos.mean(axis=0, keepdims=True).tanh()        # (1, D)
    neg = pretrainer.encoder(Tensor(pretrainer.corrupt(normalized)))
    pos_scores = (pos @ pretrainer.discriminator) @ summary.transpose(1, 0)
    neg_scores = (neg @ pretrainer.discriminator) @ summary.transpose(1, 0)
    return dgi_loss(pos_scores, neg_scores)


def pretrain_reference(pretrainer: DGIPretrainer,
                       mats: list[np.ndarray], epochs: int, lr: float,
                       batch_size: int) -> list[float]:
    """Per-graph twin of :meth:`DGIPretrainer.pretrain`."""
    rng = pretrainer._rng
    optimizer = Adam(pretrainer.parameters(), lr=lr)
    lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
    history: list[float] = []
    for _ in range(epochs):
        order = rng.permutation(len(mats))
        total = 0.0
        for batch_idx in length_bucketed_batches(lengths, order,
                                                 batch_size, rng=rng):
            optimizer.zero_grad()
            seed = 1.0 / len(batch_idx)
            for idx in batch_idx:
                loss = dgi_loss_for(pretrainer, mats[int(idx)])
                loss.backward(np.full_like(loss.data, seed))
                total += float(loss.data)
            optimizer.step()
        history.append(total / max(len(mats), 1))
    return history


def finetune_reference(dataset: PathDataset, encoder: GraphTransformer,
                       head: DecisionHead, config: TrainConfig,
                       rng: np.random.Generator,
                       pos_weight: float) -> list[float]:
    """Per-graph twin of the trainer's supervised stage."""
    head_opt = Adam(head.parameters(), lr=config.finetune_lr)
    enc_opt = Adam(encoder.parameters(), lr=config.encoder_finetune_lr)
    graphs = dataset.labeled_graphs
    mats = dataset.normalized(graphs)
    lengths = np.array([m.shape[0] for m in mats], dtype=np.int64)
    losses: list[float] = []
    for _ in range(config.finetune_epochs):
        order = rng.permutation(len(mats))
        total = 0.0
        used = 0
        for batch_idx in length_bucketed_batches(
                lengths, order, config.batch_size, rng=rng):
            valid = [int(i) for i in batch_idx
                     if graphs[int(i)].decidable.any()]
            if not valid:
                continue
            head_opt.zero_grad()
            enc_opt.zero_grad()
            seed = 1.0 / len(valid)
            for idx in valid:
                graph = graphs[idx]
                gmask = graph.decidable
                logits = head(encoder(Tensor(mats[idx])))[gmask]
                targets = Tensor(graph.labels[gmask][:, None])
                loss = binary_cross_entropy_with_logits(
                    logits, targets, pos_weight=pos_weight)
                loss.backward(np.full_like(loss.data, seed))
                total += float(loss.data)
            head_opt.step()
            enc_opt.step()
            used += len(valid)
        losses.append(total / max(used, 1))
    return losses


def train_gnn_mls_reference(dataset: PathDataset, seeds: SeedBundle,
                            config: TrainConfig | None = None
                            ) -> GnnMlsModel:
    """Per-graph twin of :func:`repro.core.train_gnn_mls`."""
    config = config or TrainConfig()
    if not dataset.labeled_graphs:
        raise TrainingError("dataset has no labeled paths to fine-tune on")
    enc_cfg = config.encoder
    if enc_cfg.in_dim != dataset.extractor.dim:
        enc_cfg = dataclasses.replace(enc_cfg,
                                      in_dim=dataset.extractor.dim)
    rng = seeds.fresh("gnn-init")
    encoder = GraphTransformer(enc_cfg, rng)
    head = DecisionHead(enc_cfg.d_model, config.head_hidden, rng)
    model = GnnMlsModel(encoder, head, dataset, config)
    if config.use_dgi:
        pretrainer = DGIPretrainer(encoder, seeds.fresh("dgi"))
        model.history["dgi"] = pretrain_reference(
            pretrainer, dataset.normalized(), config.dgi_epochs,
            config.dgi_lr, config.batch_size)
    balance = dataset.label_balance()
    pos_weight = min(10.0, (1.0 - balance) / max(balance, 0.02))
    model.history["finetune"] = finetune_reference(
        dataset, encoder, head, config, seeds.fresh("finetune"),
        pos_weight)
    return model


def node_probabilities_reference(model: GnnMlsModel,
                                 graph: PathGraph) -> np.ndarray:
    """Per-node MLS probability for one path graph."""
    normalized = model.dataset.extractor.normalize(graph.features)
    return model.head.probabilities(model.encoder(Tensor(normalized)))


def net_probabilities_reference(model: GnnMlsModel,
                                graphs: list[PathGraph]
                                ) -> dict[str, float]:
    """Per-graph twin of :meth:`GnnMlsModel.net_probabilities`: the mean
    probability of each net over its decidable path occurrences."""
    sums: dict[str, float] = {}
    counts: dict[str, int] = {}
    for graph in graphs:
        probs = node_probabilities_reference(model, graph)
        for name, p, ok in zip(graph.net_names, probs, graph.decidable):
            if ok:
                sums[name] = sums.get(name, 0.0) + p
                counts[name] = counts.get(name, 0) + 1
    return {name: sums[name] / counts[name] for name in sums}


def decide_mls_nets_reference(model: GnnMlsModel,
                              graphs: list[PathGraph] | None = None,
                              threshold: float = DEFAULT_THRESHOLD
                              ) -> set[str]:
    """Per-graph twin of :func:`repro.core.decide_mls_nets`."""
    graphs = graphs if graphs is not None else model.dataset.graphs
    probs = net_probabilities_reference(model, graphs)
    return {name for name, p in probs.items() if p >= threshold}
