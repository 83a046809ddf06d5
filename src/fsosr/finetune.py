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

import math
from dataclasses import dataclass

import numpy as np

from .classifier import PrototypeBank, check_norms, cosine_matrix, row_norms


# Largest |scale| of a moving row in weights = scale * weights0 + coef @ unit
# before finetune_bank re-bases on the current rows. Cosine steps never shrink
# a row, so rounding in its dots and norms grows at most this factor (its
# square for the squared norm). At the default settings on the benchmark
# inputs |scale| stays below 2.1 and the loop never re-bases.
REBASE_SCALE = 4.0


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
        if not 0 <= self.learning_rate < math.inf:
            raise ValueError("learning_rate must be finite and >= 0")
        if not 0 < self.bkg_loss_weight < math.inf:
            raise ValueError("bkg_loss_weight must be finite and > 0")
        if not 0 < self.temperature < math.inf:
            raise ValueError("temperature must be finite and > 0")


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


def _batch_ce(
    scores: np.ndarray,
    wn: np.ndarray,
    labels: np.ndarray,
    item_weights: np.ndarray,
    temperature: float,
    coefficients: bool = True,
) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray] | None]:
    """Per-item cross-entropies (unweighted) of the (n x rows) cosine scores
    between a unit-norm batch and weights with row norms wn, and, when
    coefficients is set, the gradient of the weighted sum with respect to
    every prototype row in coefficient form (dscore, a):

        grad = (dscore.T / wn[:, None]) @ unit - a[:, None] * weights
    """
    logits = temperature * scores
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    z = exp.sum(axis=1)
    idx = np.arange(len(labels))
    ce = np.log(z) - shifted[idx, labels]
    if not coefficients:
        return ce, None

    delta = exp / z[:, None]
    delta[idx, labels] -= 1.0
    dscore = temperature * delta * item_weights[:, None]  # items x rows
    return ce, (dscore, (dscore * scores).sum(axis=0) / wn**2)


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
    weights = bank.all_weights()
    scores, wn, qn = cosine_matrix(weights, embeddings)
    unit = embeddings / qn[:, None]
    _, (dscore, a) = _batch_ce(scores, wn, labels, item_weights, temperature)
    return (dscore.T / wn[:, None]) @ unit - a[:, None] * weights


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
    epoch plus one final entry evaluated after the last step.

    The batch never changes, so it is normalized once; a zero or non-finite
    norm names the support or background item. The weight row norms checked
    after each step divide the next epoch's scores; a zero or non-finite one
    names the joint row and the epoch of the step.
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

    unit = np.concatenate([
        embeddings / row_norms(embeddings, "support")[:, None],
        backgrounds / row_norms(backgrounds, "background")[:, None],
    ])
    # the step optimizes the summed batch loss: weight 1 per support item,
    # bkg_loss_weight per background item; the report still carries the means
    n_sup, n_bkg = len(embeddings), len(backgrounds)
    item_weights = np.concatenate(
        [np.ones(n_sup), np.full(n_bkg, cfg.bkg_loss_weight)]
    )

    # Every step adds a combination of the unit batch rows to each moving
    # row and rescales it, so weights = scale * weights0 + coef @ unit holds
    # exactly, and each epoch needs only the batch's Gram matrix and the
    # initial rows' dots with it: O(n^2 rows), not O(n dim rows).
    weights = bank.all_weights()
    num_known = bank.num_known
    lo = num_known if cfg.freeze_known else 0  # rows [lo, num_rows) move
    gram = unit @ unit.T
    proj = weights @ unit.T  # rows x items
    sq = (weights * weights).sum(axis=1)
    wn = check_norms(np.sqrt(sq), "before fine-tuning, prototype row")
    dots = proj.copy()
    scale = np.ones(bank.num_rows - lo)
    coef = np.zeros((bank.num_rows - lo, len(unit)))
    batch_labels = np.concatenate([sup_labels, np.zeros(n_bkg, dtype=np.intp)])
    trace: list[float] = []
    for epoch in range(cfg.epochs + 1):
        scores = (dots / wn[:, None]).T
        if epoch == 0 or cfg.reassign_each_epoch:
            # the nearest background row of each background item: its score
            # row divides by its own norm, a positive factor argmax ignores
            batch_labels[n_sup:] = num_known + np.argmax(scores[n_sup:, num_known:], axis=1)
        last = epoch == cfg.epochs
        ce, coefs = _batch_ce(
            scores, wn, batch_labels, item_weights, cfg.temperature, coefficients=not last
        )
        loss_known = float(ce[:n_sup].mean())
        loss_background = float(ce[n_sup:].mean())
        trace.append(loss_known + cfg.bkg_loss_weight * loss_background)
        if last:
            break
        dscore, a = coefs
        grow = 1.0 + cfg.learning_rate * a[lo:]
        scale = grow * scale
        coef = grow[:, None] * coef - (cfg.learning_rate / wn[lo:, None]) * dscore[:, lo:].T
        if np.abs(scale).max() > REBASE_SCALE:
            # the rows have turned far enough that scale * weights0 and
            # coef @ unit nearly cancel; carry on from the rows themselves
            weights[lo:] = scale[:, None] * weights[lo:] + coef @ unit
            proj[lo:] = weights[lo:] @ unit.T
            sq[lo:] = (weights[lo:] * weights[lo:]).sum(axis=1)
            scale[:] = 1.0
            coef[:] = 0.0
        scaled = scale[:, None] * proj[lo:]
        dots[lo:] = scaled + coef @ gram
        # |scale w0 + coef @ unit|^2 = scale^2 |w0|^2 + coef . (dots + scale proj),
        # summed per row
        sq_moved = scale * scale * sq[lo:] + (coef * (dots[lo:] + scaled)).sum(axis=1)
        wn[lo:] = np.sqrt(np.maximum(sq_moved, 0.0))
        check_norms(
            wn,
            f"after the fine-tune step at epoch {epoch} "
            f"(learning rate {cfg.learning_rate!r}), prototype row",
        )
    weights[lo:] = scale[:, None] * weights[lo:] + coef @ unit

    new_bank = PrototypeBank(weights[:num_known], weights[num_known:])
    report = LossReport(
        loss_known=loss_known,
        loss_background=loss_background,
        total=loss_known + cfg.bkg_loss_weight * loss_background,
        per_epoch_totals=tuple(trace),
    )
    return new_bank, report
