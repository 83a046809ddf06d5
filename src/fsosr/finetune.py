"""The cross-entropy over cosine scores and the episodic classifier
fine-tuning loop that steps along its analytic gradient, treating mined
background embeddings as pseudo-unknowns.

No autograd framework is used. The gradient is derived by composing the
softmax cross-entropy gradient with the cosine-similarity Jacobian

    d/dw [ (w.q) / (|w||q|) ] = q / (|w||q|) - (w.q) w / (|w|^3 |q|)

and the gradcheck harness at the end of this module (the `fsosr gradcheck`
command) checks the step finetune_bank takes against central finite
differences of the batch loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .classifier import EPS_NORM, check_norms, cosine_matrix


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
    query groups; total = loss_known + weight * loss_background, summed by the
    fine-tune loop as one product over the items. per_epoch_totals[e] is the total
    before the e-th step and the last entry is the total after the final step
    (epochs + 1 entries), so it equals total."""

    loss_known: float
    loss_background: float
    total: float
    per_epoch_totals: tuple[float, ...] = ()


def prototype_batch_loss(
    weights: np.ndarray,
    embeddings: np.ndarray,
    labels: np.ndarray,
    item_weights: np.ndarray,
    temperature: float,
) -> float:
    """Weighted sum of per-item cross-entropies over cosine scores, the scalar
    whose gradient finetune_bank steps along; gradcheck probes it with finite
    differences."""
    scores = cosine_matrix(weights, embeddings)
    ce = _batch_ce(temperature * scores.T, _label_positions(labels), item_weights, gradient=False)
    return float(np.dot(item_weights, ce))


def _label_positions(labels) -> np.ndarray:
    """Flat position labels[i] * items + i of item i's label in a rows x items matrix."""
    return np.asarray(labels, dtype=np.intp) * len(labels) + np.arange(len(labels))


def _batch_ce(
    logits: np.ndarray, positions: np.ndarray, item_weights: np.ndarray, gradient: bool = True
) -> np.ndarray:
    """Per-item cross-entropies (unweighted) of the (rows x items) logits, the
    label of item i at flat position positions[i]. The logits are overwritten;
    with gradient set they end as the gradient of the item-weighted sum of
    cross-entropies with respect to them, (softmax - onehot) * item_weights,
    which the cosine Jacobian carries on to the rows."""
    logits -= logits.max(axis=0)
    picked = logits.take(positions)
    np.exp(logits, out=logits)
    z = logits.sum(axis=0)
    ce = np.log(z)
    ce -= picked
    if gradient:
        logits *= item_weights / z
        logits.put(positions, logits.take(positions) - item_weights)
    return ce


@np.errstate(all="ignore")  # a bad step fails the norm check after the loop, naming its epoch
def finetune_bank(
    bank: np.ndarray,
    num_known: int,
    embeddings: np.ndarray,
    labels: np.ndarray,
    backgrounds: np.ndarray,
    cfg: FinetuneConfig,
) -> tuple[np.ndarray, LossReport]:
    """Full-batch SGD on the rows of the (num_rows x dim) bank, whose first
    num_known rows are the known-class prototypes and the rest background
    rows, with the (n_bkg x dim) background embeddings acting as
    pseudo-unknowns beside the (n x dim) support embeddings and their
    known-class labels. Returns the fine-tuned rows as a new array; the
    caller's bank is never written.

    Each epoch: background embeddings are pseudo-labeled with their nearest
    background row (once at epoch 0 unless reassign_each_epoch), the batch
    loss is evaluated, and one gradient step updates every row (background
    rows only when freeze_known). The step descends the summed batch loss
    with per-item weights 1 (supports) and bkg_loss_weight (backgrounds);
    the reported losses are the group means, so the reported total is the
    step objective divided by the support count when groups are equal-sized.

    The batch never changes, so its norms are taken once; a zero or non-finite
    norm names the support or background item. The weight row norms after each
    step divide the next epoch's scores; they are checked once, after the last
    step, and the first zero or non-finite one names the epoch of its step and
    its joint row.
    Precondition: a background row, one label per support and nonempty batches
    of the bank's width (a validated run's episode); else numpy or Python raises.
    """
    sup_labels = np.asarray(labels, dtype=np.intp)
    if sup_labels.min() < 0 or sup_labels.max() >= num_known:
        raise ValueError(f"support labels must lie in [0, {num_known})")

    # the raw batch rows, their Gram matrix and, from its diagonal, their
    # inverse norms: unit = inv[:, None] * raw
    n_sup, n_bkg = len(embeddings), len(backgrounds)
    raw = np.concatenate([embeddings, backgrounds])
    raw_gram = raw @ raw.T
    norms = np.sqrt(raw_gram.diagonal())
    check_norms(norms[:n_sup], "support")
    check_norms(norms[n_sup:], "background")
    inv = 1.0 / norms
    # the step descends the summed batch loss: weight 1 per support item,
    # bkg_loss_weight per background item, both times the learning rate, so
    # the gradient comes out of _batch_ce scaled for the step; the reported
    # curve weighs each group by its mean, one product with the cross-entropies
    n, lam, lr = n_sup + n_bkg, cfg.bkg_loss_weight, cfg.learning_rate
    step_weights = np.concatenate([np.full(n_sup, lr), np.full(n_bkg, lr * lam)])
    mean_weights = np.concatenate([np.full(n_sup, 1.0 / n_sup), np.full(n_bkg, lam / n_bkg)])

    # Every step adds a combination of the unit batch rows to each moving
    # row and rescales it, so weights = scale * weights0 + coef @ unit holds
    # exactly, and each epoch needs only the batch's Gram matrix and the
    # initial rows' dots with it: O(n^2 rows), not O(n dim rows). Both come
    # from the raw rows, scaled by inv on the batch's side. Dots, logits and
    # coefficients are laid out rows x items, plus one column: half of |w0|^2
    # in dots and projections, the scale in coefficients (zero in the Gram
    # matrix), so one multiply rescales coefficients and scale together.
    weights = np.array(bank, dtype=np.float64)  # the copy the steps write
    lo = num_known if cfg.freeze_known else 0  # rows [lo, num_rows) move
    gram = np.zeros((n + 1, n + 1))
    gram[:n, :n] = inv[:, None] * raw_gram * inv
    proj = np.column_stack([(weights @ raw.T) * inv, 0.5 * np.vecdot(weights, weights)])
    wn = check_norms(np.sqrt(2.0 * proj[:, n]), "before fine-tuning, prototype row")
    # tw = temperature / |w| scales each row's dots into its logits
    dots, sq_now, tw, logits = proj.copy(), 2.0 * proj[:, n], np.empty_like(wn), np.empty((len(wn), n))
    positions = _label_positions(np.concatenate([sup_labels, np.full(n_bkg, num_known)]))
    # views made once: the moving rows of every row array, the background items'
    # logits against the background rows and their label positions (from row
    # num_known's, bkg_base); a lone background row is every item's nearest
    weights_m, proj_m, dots_m, sq_now_m, wn_m, g_m = (
        a[lo:] for a in (weights, proj, dots, sq_now, wn, logits)
    )
    reassign = len(bank) - num_known > 1
    bkg_logits, bkg_positions = logits[num_known:, n_sup:], positions[n_sup:]
    bkg_base, nearest = bkg_positions.copy(), np.empty(n_bkg, dtype=np.intp)
    coef_scale, step, scaled = np.zeros(proj_m.shape), np.zeros(proj_m.shape), np.empty(proj_m.shape)
    coef_scale[:, n], grow = 1.0, np.empty(len(proj_m))
    coef, scale, scale_col, step_g = coef_scale[:, :n], coef_scale[:, n], coef_scale[:, n:], step[:, :n]
    dots_n, tw_col, tw_m_col, grow_col = dots[:, :n], tw[:, None], tw[lo:, None], grow[:, None]
    ces = np.empty((cfg.epochs + 1, n))  # each evaluation's cross-entropies
    step_norms = np.empty((cfg.epochs, len(wn)))  # the row norms after each step
    for epoch in range(cfg.epochs + 1):
        np.divide(cfg.temperature, wn, out=tw)
        np.multiply(dots_n, tw_col, out=logits)
        if reassign and (epoch == 0 or cfg.reassign_each_epoch):
            # the nearest background row of each background item
            np.argmax(bkg_logits, axis=0, out=nearest)
            np.multiply(nearest, n, out=bkg_positions)
            bkg_positions += bkg_base
        last = epoch == cfg.epochs
        ces[epoch] = _batch_ce(logits, positions, step_weights, gradient=not last)
        if last:
            break
        # logits holds g, learning_rate times the loss gradient w.r.t. the
        # logits; a moving row w steps to
        # (1 + tw (g . dots) / |w|^2) w - tw g @ unit
        np.multiply(g_m, tw_m_col, out=step_g)
        np.vecdot(step, dots_m, out=grow)
        grow /= sq_now_m
        grow += 1.0
        coef_scale *= grow_col
        coef_scale -= step
        # np.abs(scale).max() > REBASE_SCALE on Python floats, which a NaN scale fails there too
        if max(map(abs, scales := scale.tolist())) > REBASE_SCALE and not any(map(math.isnan, scales)):
            # the rows have turned far enough that scale * weights0 and
            # coef @ unit nearly cancel; carry on from the rows themselves
            weights_m[:] = scale_col * weights_m + (coef * inv) @ raw
            proj_m[:] = np.column_stack([(weights_m @ raw.T) * inv, 0.5 * np.vecdot(weights_m, weights_m)])
            coef[:] = 0.0
            scale[:] = 1.0
        # scaled = [scale proj | scale |w0|^2 / 2], dots = coef_scale @ gram + scaled:
        # |scale w0 + coef @ unit|^2 = coef . (dots + scale proj) + scale^2 |w0|^2
        #                            = coef_scale . (dots + scaled)
        np.multiply(scale_col, proj_m, out=scaled)
        np.matmul(coef_scale, gram, out=dots_m)
        dots_m += scaled
        scaled += dots_m
        np.vecdot(coef_scale, scaled, out=sq_now_m)
        np.sqrt(np.maximum(sq_now_m, 0.0, out=sq_now_m), out=wn_m)
        step_norms[epoch] = wn
    if not (step_norms.min() > EPS_NORM and math.isfinite(step_norms.sum())):
        for epoch, norms in enumerate(step_norms):
            check_norms(norms, f"after the fine-tune step at epoch {epoch} (learning rate {lr!r}), prototype row")
    weights_m[:] = scale_col * weights_m + (coef * inv) @ raw

    trace = (ces @ mean_weights).tolist()
    report = LossReport(float(ces[-1, :n_sup].mean()), float(ces[-1, n_sup:].mean()), trace[-1], tuple(trace))
    return weights, report


def finite_difference(fn: Callable[[np.ndarray], float], x0: np.ndarray) -> np.ndarray:
    """Fourth-order central finite differences of a scalar function, entry by
    entry: (-f(x+2h) + 8f(x+h) - 8f(x-h) + f(x-2h)) / 12h at h = 1e-3. Its
    truncation error is O(h^4), so a large step keeps round-off small as well."""
    step = 1e-3
    x = np.array(x0, dtype=np.float64, copy=True)
    flat, grad = x.reshape(-1), np.zeros(x.size)
    for i, orig in enumerate(flat.copy()):
        probes = []
        for offset in (2.0, 1.0, -1.0, -2.0):
            flat[i] = orig + offset * step
            probes.append(fn(x))
        flat[i] = orig
        grad[i] = (8.0 * (probes[1] - probes[2]) - (probes[0] - probes[3])) / (12.0 * step)
    return grad.reshape(x.shape)


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(1e-8, np.abs(analytic) + np.abs(numeric))
    return float((np.abs(analytic - numeric) / denom).max())


# five known rows; 1, 2 or 5 background rows; dimension 8 or 64
DEFAULT_PROTOTYPE_SHAPES: tuple[tuple[int, int, int], ...] = tuple(
    (5, b, d) for d in (8, 64) for b in (1, 2, 5)
)
GRADCHECK_THRESHOLD = 1e-4


def gradcheck_report(seed: int = 0, trials: int = 20) -> dict:
    """Randomized finite-difference check of the step finetune_bank takes,
    over `trials` (>= 1) random cases drawn from `seed` (>= 0), their shapes
    taken in turn from DEFAULT_PROTOTYPE_SHAPES. Each case draws a bank, as
    many supports as it has rows, with known-class labels, and one background
    item per support, and runs one epoch at learning rate 1, so bank - stepped
    is the gradient of the summed batch loss. The reference is finite differences of
    prototype_batch_loss with each background item labeled with its nearest
    background row at the start, the pseudo-label the step itself takes; a
    probe that re-ran that argmax could flip a label."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if seed < 0:
        raise ValueError("seed must be >= 0")
    rng, cfg = np.random.default_rng(seed), FinetuneConfig(epochs=1, learning_rate=1.0)
    proto_err = 0.0
    for t in range(trials):
        n_known, n_background, dim = DEFAULT_PROTOTYPE_SHAPES[t % len(DEFAULT_PROTOTYPE_SHAPES)]
        n = n_known + n_background
        bank, supports, backgrounds = (rng.normal(size=(n, dim)) for _ in range(3))
        labels = rng.integers(0, n_known, size=n)
        stepped, _ = finetune_bank(bank, n_known, supports, labels, backgrounds, cfg)
        pseudo = n_known + np.argmax(cosine_matrix(bank[n_known:], backgrounds), axis=1)
        items, item_labels = np.vstack([supports, backgrounds]), np.concatenate([labels, pseudo])
        item_weights = np.repeat([1.0, cfg.bkg_loss_weight], n)
        numeric = finite_difference(
            lambda w: prototype_batch_loss(w, items, item_labels, item_weights, cfg.temperature), bank
        )
        proto_err = max(proto_err, max_relative_error(bank - stepped, numeric))

    return {"prototype_gradient": proto_err, "threshold": GRADCHECK_THRESHOLD,
            "passed": proto_err < GRADCHECK_THRESHOLD}
