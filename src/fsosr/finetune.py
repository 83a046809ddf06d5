"""Cross-entropy losses over cosine scores, their analytic gradients, and
the episodic classifier fine-tuning loop that treats mined background
embeddings as pseudo-unknowns.

No autograd framework is used. Gradients are derived by composing the
softmax cross-entropy gradient with the cosine-similarity Jacobian

    d/dw [ (w.q) / (|w||q|) ] = q / (|w||q|) - (w.q) w / (|w|^3 |q|)

and checked against central finite differences in the test suite and by the
gradcheck command.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .classifier import PrototypeBank, cosine_matrix


@dataclass(frozen=True)
class FinetuneConfig:
    epochs: int = 20
    learning_rate: float = 0.002
    bkg_loss_weight: float = 0.05
    temperature: float = 10.0
    reassign_each_epoch: bool = True
    freeze_known: bool = False

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.learning_rate < 0:
            raise ValueError("learning_rate must be >= 0")
        if self.bkg_loss_weight <= 0:
            raise ValueError("bkg_loss_weight must be > 0")
        if self.temperature <= 0:
            raise ValueError("temperature must be > 0")


@dataclass(frozen=True)
class LossReport:
    """loss_known and loss_background are the mean cross-entropy of the two
    query groups; total = loss_known + weight * loss_background. For the
    fine-tune loop, per_epoch_totals[e] is the total before the e-th step and
    the last entry is the total after the final step (epochs + 1 entries)."""

    loss_known: float
    loss_background: float
    total: float
    per_epoch_totals: tuple[float, ...] = ()

    def to_dict(self) -> dict:
        return {
            "loss_known": self.loss_known,
            "loss_background": self.loss_background,
            "total": self.total,
            "per_epoch_totals": list(self.per_epoch_totals),
        }


def prototype_batch_loss(
    weights: np.ndarray,
    embeddings: np.ndarray,
    labels: np.ndarray,
    item_weights: np.ndarray,
    temperature: float,
) -> float:
    """Weighted sum of per-item cross-entropies over cosine scores. This is the
    scalar the analytic prototype gradient differentiates; gradcheck probes it
    with finite differences."""
    scores, _, _ = cosine_matrix(weights, embeddings)
    logits = temperature * scores
    shifted = logits - logits.max(axis=1, keepdims=True)
    log_z = np.log(np.exp(shifted).sum(axis=1))
    ce = log_z - shifted[np.arange(len(labels)), labels]
    return float(np.dot(item_weights, ce))


def _batch_ce_and_grad(
    weights: np.ndarray,
    embeddings: np.ndarray,
    labels: np.ndarray,
    item_weights: np.ndarray,
    temperature: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Per-item cross-entropies (unweighted) and the gradient of the weighted
    sum with respect to every prototype row."""
    scores, wn, qn = cosine_matrix(weights, embeddings)
    logits = temperature * scores
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1)
    probs = exp / z[:, None]
    idx = np.arange(len(labels))
    ce = np.log(z) - shifted[idx, labels]

    delta = probs.copy()
    delta[idx, labels] -= 1.0
    dscore = temperature * delta * item_weights[:, None]  # items x rows
    term1 = (dscore / qn[:, None]).T @ embeddings / wn[:, None]
    term2 = ((dscore * scores).sum(axis=0) / wn**2)[:, None] * weights
    return ce, term1 - term2


def _check_rows(embeddings: np.ndarray, dim: int, what: str) -> None:
    if embeddings.ndim != 2 or embeddings.shape[1] != dim or len(embeddings) == 0:
        raise ValueError(f"{what} need a nonempty n x {dim} matrix, got shape {embeddings.shape}")


def grad_wrt_prototypes(
    bank: PrototypeBank,
    embeddings: np.ndarray,
    labels: np.ndarray,
    item_weights: np.ndarray,
    temperature: float = 10.0,
) -> np.ndarray:
    """Exact gradient of sum_i item_weights[i] * CE_i, item i being row i of the
    (n x dim) embeddings with joint row label labels[i], with respect to every
    prototype row, returned as a (num_rows x dim) matrix. Embeddings are inputs
    only and are never modified."""
    _check_rows(embeddings, bank.dim, "embeddings")
    labels = np.asarray(labels, dtype=np.intp)
    item_weights = np.asarray(item_weights, dtype=np.float64)
    if labels.shape != embeddings.shape[:1] or item_weights.shape != labels.shape:
        raise ValueError("need one label and one item weight per embedding")
    if np.any(item_weights <= 0):
        raise ValueError("item weights must be > 0")
    if labels.min() < 0 or labels.max() >= bank.num_rows:
        raise ValueError(f"batch labels must lie in [0, {bank.num_rows})")
    _, grad = _batch_ce_and_grad(bank.all_weights(), embeddings, labels, item_weights, temperature)
    return grad


def _assign_background_labels(
    weights: np.ndarray, num_known: int, embeddings: np.ndarray
) -> np.ndarray:
    """Pseudo-label each embedding with its most similar background row,
    offset into the joint index range."""
    bkg = weights[num_known:]
    scores, _, _ = cosine_matrix(bkg, embeddings)
    return num_known + np.argmax(scores, axis=1)


def finetune_bank(
    bank: PrototypeBank,
    embeddings: np.ndarray,
    labels: np.ndarray,
    backgrounds: np.ndarray,
    cfg: FinetuneConfig,
) -> tuple[PrototypeBank, LossReport]:
    """Full-batch SGD on the prototype rows, with the (n_bkg x dim) background
    embeddings acting as pseudo-unknowns beside the (n x dim) support
    embeddings and their known-class labels.

    Each epoch: background embeddings are pseudo-labeled with their nearest
    background row (once at epoch 0 unless reassign_each_epoch), the batch
    loss is evaluated, and one gradient step updates every row (background
    rows only when freeze_known). The step descends the summed batch loss
    with per-item weights 1 (supports) and bkg_loss_weight (backgrounds);
    the reported losses are the group means, so the reported total is the
    step objective divided by the support count when groups are equal-sized.
    The report carries the final loss components and the mean total at every
    epoch plus one final entry evaluated after the last step. A step that
    leaves a row with a non-finite norm is an error naming its epoch.
    """
    if bank.num_background < 1:
        raise ValueError("fine-tuning needs at least one background row")
    _check_rows(embeddings, bank.dim, "supports")
    _check_rows(backgrounds, bank.dim, "backgrounds")
    sup_labels = np.asarray(labels, dtype=np.intp)
    if sup_labels.shape != embeddings.shape[:1]:
        raise ValueError(f"need {len(embeddings)} support labels, got shape {sup_labels.shape}")
    if sup_labels.min() < 0 or sup_labels.max() >= bank.num_known:
        raise ValueError(f"support labels must lie in [0, {bank.num_known})")

    # the step optimizes the summed batch loss: weight 1 per support item,
    # bkg_loss_weight per background item; the report still carries the means
    n_sup, n_bkg = len(embeddings), len(backgrounds)
    batch = np.concatenate([embeddings, backgrounds], axis=0)
    item_weights = np.concatenate(
        [np.ones(n_sup), np.full(n_bkg, cfg.bkg_loss_weight)]
    )

    weights = bank.all_weights()
    num_known = bank.num_known
    pseudo: np.ndarray | None = None
    trace: list[float] = []

    def evaluate(current_pseudo: np.ndarray) -> tuple[float, float, np.ndarray]:
        batch_labels = np.concatenate([sup_labels, current_pseudo])
        ce, grad = _batch_ce_and_grad(weights, batch, batch_labels, item_weights, cfg.temperature)
        loss_known = float(ce[:n_sup].mean())
        loss_background = float(ce[n_sup:].mean())
        return loss_known, loss_background, grad

    loss_known = loss_background = 0.0
    for epoch in range(cfg.epochs):
        if pseudo is None or cfg.reassign_each_epoch:
            pseudo = _assign_background_labels(weights, num_known, backgrounds)
        loss_known, loss_background, grad = evaluate(pseudo)
        trace.append(loss_known + cfg.bkg_loss_weight * loss_background)
        if cfg.freeze_known:
            weights = weights.copy()
            weights[num_known:] -= cfg.learning_rate * grad[num_known:]
        else:
            weights = weights - cfg.learning_rate * grad
        # a finite row whose norm overflows is as unusable as a non-finite one
        bad = np.flatnonzero(~np.isfinite(np.linalg.norm(weights, axis=1)))
        if bad.size:
            raise ValueError(
                f"fine-tune step at epoch {epoch} (learning rate {cfg.learning_rate!r}) "
                f"left prototype row {bad[0]} with non-finite norm"
            )

    if cfg.reassign_each_epoch:
        pseudo = _assign_background_labels(weights, num_known, backgrounds)
    assert pseudo is not None
    loss_known, loss_background, _ = evaluate(pseudo)
    trace.append(loss_known + cfg.bkg_loss_weight * loss_background)

    new_bank = PrototypeBank(weights[:num_known], weights[num_known:])
    report = LossReport(
        loss_known=loss_known,
        loss_background=loss_background,
        total=loss_known + cfg.bkg_loss_weight * loss_background,
        per_epoch_totals=tuple(trace),
    )
    return new_bank, report

