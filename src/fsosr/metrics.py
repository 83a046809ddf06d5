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


def _midranks(values: np.ndarray) -> np.ndarray:
    """Fractional ranks starting at 1; tied values share the mean of the ranks
    they span. A tie run starts wherever the stably sorted values change."""
    order = np.argsort(values, kind="stable")
    sorted_vals = values[order]
    starts = np.flatnonzero(np.concatenate(([True], sorted_vals[1:] != sorted_vals[:-1])))
    lengths = np.diff(np.append(starts, values.size))
    ranks = np.empty(values.size)
    ranks[order] = np.repeat((2 * starts + lengths - 1) / 2.0 + 1.0, lengths)
    return ranks


def auroc(known_scores, unknown_scores) -> float:
    """Rank-based estimate of the probability that a random unknown query
    scores above a random known one, ties counting half. Equals the area under
    the threshold-swept ROC curve with unknown as the positive class."""
    known = np.asarray(known_scores, dtype=np.float64)
    unknown = np.asarray(unknown_scores, dtype=np.float64)
    if known.size == 0 or unknown.size == 0:
        raise ValueError("auroc needs at least one known and one unknown score")
    ranks = _midranks(np.concatenate([known, unknown]))
    rank_sum = float(ranks[known.size :].sum())
    n_u = unknown.size
    return (rank_sum - n_u * (n_u + 1) / 2.0) / (n_u * known.size)


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
