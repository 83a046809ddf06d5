"""Closed-set accuracy, rank-based unknown-detection AUROC, and multi-episode
aggregation with normal-approximation confidence intervals, all on arrays."""

from __future__ import annotations

import numpy as np


def accuracy(rows, labels) -> float:
    """Fraction of known queries whose joint argmax row equals their class. A
    background row (index >= n_way) never equals a class, so a query rejected
    as unknown counts as an error."""
    rows = np.asarray(rows)
    labels = np.asarray(labels)
    if rows.shape != labels.shape:
        raise ValueError(f"rows shape {rows.shape} does not match labels shape {labels.shape}")
    if rows.size == 0:
        raise ValueError("accuracy needs at least one prediction")
    return float(np.mean(rows == labels))


def auroc(known_scores, unknown_scores) -> float:
    """Probability that a random unknown query scores above a random known one
    (the area under the ROC curve, unknown positive): each unknown score counts
    the sorted known scores below it and half of those equal to it; all must be finite."""
    known = np.sort(np.asarray(known_scores, dtype=np.float64))
    unknown = np.asarray(unknown_scores, dtype=np.float64)
    if known.size == 0 or unknown.size == 0:
        raise ValueError("auroc needs at least one known and one unknown score")
    if not (np.isfinite(known[[0, -1]]).all() and np.isfinite(unknown).all()):
        raise ValueError("auroc needs finite scores")
    below, upto = (np.searchsorted(known, unknown, side).sum() for side in ("left", "right"))
    return float(below + upto) / (2 * unknown.size * known.size)


def _ci95(values: np.ndarray) -> float:
    if values.size <= 1:
        return 0.0
    return 1.96 * float(values.std(ddof=1)) / float(np.sqrt(values.size))


def aggregate(accuracies, aurocs) -> dict:
    """Arithmetic means of the per-episode accuracies and AUROCs with
    1.96 * stddev / sqrt(n) intervals."""
    accs = np.asarray(accuracies, dtype=np.float64)
    aucs = np.asarray(aurocs, dtype=np.float64)
    if accs.size == 0:
        raise ValueError("aggregate needs at least one episode")
    if accs.shape != aucs.shape:
        raise ValueError(f"accuracies shape {accs.shape} does not match aurocs shape {aucs.shape}")
    return {
        "mean_accuracy": float(accs.mean()),
        "mean_auroc": float(aucs.mean()),
        "ci95_accuracy": _ci95(accs),
        "ci95_auroc": _ci95(aucs),
        "n_episodes": int(accs.size),
    }
