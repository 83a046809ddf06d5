"""Prototype classifier bank: one (num_known + num_background, d) float64
array whose known-class rows, first, are support averages and whose background
rows are started randomly or from mined backgrounds; batched cosine scoring,
whose row-norm check fine-tuning also uses."""

from __future__ import annotations

import math

import numpy as np

INIT_RANDOM = "random"
INIT_AVG = "avg"
INIT_GLOBAL = "global"
INIT_KINDS = (INIT_RANDOM, INIT_AVG, INIT_GLOBAL)

SCORE_MARGIN = "margin"
SCORE_NEG_MAX_KNOWN = "neg_max_known"
SCORE_KINDS = (SCORE_MARGIN, SCORE_NEG_MAX_KNOWN)


def build_known_prototypes(
    embeddings: np.ndarray, labels: np.ndarray, n_way: int, k_shot: int
) -> np.ndarray:
    """The (n_way x d) class-mean prototypes of the (n x d) support embeddings,
    exactly k_shot rows per class label in [0, n_way), as float64.

    Shots are summed in the order given: prototypes are bit-identical on reruns and worker counts,
    equal within rounding if a class's shots are reordered; one of zero or non-finite norm fails,
    naming its class. Precondition: n_way, k_shot >= 1 and one label per row (EpisodeSpec); else
    numpy raises."""
    labels = np.asarray(labels)
    embeddings = np.asarray(embeddings, dtype=np.float64)
    outside = labels[(labels < 0) | (labels >= n_way)]
    if outside.size:
        raise ValueError(f"support label {outside[0]} outside [0, {n_way})")
    counts = np.bincount(labels, minlength=n_way)
    uneven = np.flatnonzero(counts != k_shot)
    if uneven.size:
        c = uneven[0]
        raise ValueError(f"class {c} has {counts[c]} support embeddings, expected {k_shot}")
    order = np.argsort(labels, kind="stable")  # class by class, each class's shots in the order given
    protos = embeddings[order, :].reshape(n_way, k_shot, -1).sum(axis=1) / k_shot  # 1-D input raises here
    row_norms(protos, "prototype of class")
    return protos


def init_background(
    dim: int,
    kind: str,
    num_background: int,
    seed: int,
    bkg_embeddings: np.ndarray | None = None,
) -> np.ndarray:
    """num_background freshly initialized background rows, (num_background x dim).

    random, and the first episode of global: i.i.d. uniform rows drawn from
    `seed` on [-1/sqrt(dim), +1/sqrt(dim)], the bound a fan-in-scaled uniform
    initializer gives a dim-input linear layer. avg: rows are means of a
    round-robin partition of the mined background embeddings (a single row is
    the mean of all of them). Later global episodes reuse the previous episode's rows,
    which the evaluation driver carries in place of these. Precondition:
    num_background >= 0, and >= 1 for avg (RunConfig); else numpy raises.
    """
    if kind not in INIT_KINDS:
        raise ValueError(f"unknown init kind {kind!r}, expected one of {INIT_KINDS}")
    if kind != INIT_AVG:
        bound = 1.0 / np.sqrt(dim)
        return np.random.default_rng(seed).uniform(-bound, bound, size=(num_background, dim))
    if bkg_embeddings.ndim != 2 or bkg_embeddings.shape[1] != dim:
        raise ValueError(f"background embeddings need shape n x {dim}, got {bkg_embeddings.shape}")
    if len(bkg_embeddings) < num_background:
        raise ValueError(
            f"avg initialization got {len(bkg_embeddings)} embeddings for "
            f"{num_background} background rows; every row needs at least one"
        )
    return np.stack([bkg_embeddings[j::num_background].mean(axis=0) for j in range(num_background)])


def row_norms(matrix: np.ndarray, what: str) -> np.ndarray:
    """Euclidean norm of every row, the root of its dot with itself, through check_norms."""
    return check_norms(np.sqrt(np.vecdot(matrix, matrix)), what)


# A norm at or below this is zero; a map whose range is below it is flat (procam.minmax_norm).
EPS_NORM = 1e-12


def check_norms(n: np.ndarray, what: str) -> np.ndarray:
    """The norms n, unchanged. A zero or non-finite norm (a finite row whose
    sum of squares overflows included) is an error that reads "{what} {row}
    has zero/non-finite norm"; the scan for it runs only when the min test or
    the finite-sum test fails."""
    if n.min(initial=math.inf) > EPS_NORM and math.isfinite(n.sum()):
        return n
    bad = np.flatnonzero(~((n > EPS_NORM) & np.isfinite(n)))
    if bad.size:
        kind = "zero" if n[bad[0]] <= EPS_NORM else "non-finite"
        raise ValueError(f"{what} {int(bad[0])} has {kind} norm")
    return n


def cosine_matrix(weights: np.ndarray, queries: np.ndarray) -> np.ndarray:
    """Unclipped cosine similarities, queries x rows: the raw queries times
    the unit rows, each score divided by its query's norm. A row whose norm
    is zero or not finite is an error that names it."""
    wn, qn = row_norms(weights, "prototype row"), row_norms(queries, "query")
    return queries @ (weights / wn[:, None]).T / qn[:, None]


def predict(
    bank: np.ndarray, num_known: int, queries: np.ndarray, score_kind: str = SCORE_MARGIN
) -> tuple[np.ndarray, np.ndarray]:
    """Score every row of the (n x dim) query matrix against the (rows x dim)
    bank, whose first num_known rows are the known-class prototypes.

    Returns the joint argmax row of each query (a row >= num_known is a
    background row, so the query is judged unknown; ties break toward the
    lowest row) and its unknownness, higher meaning more likely unknown.
    margin: best background similarity minus best known similarity, monotone in
    the decision boundary the joint argmax induces. neg_max_known: negated best
    known similarity. A bank without background rows always uses the latter,
    since no margin exists, and never judges a query unknown. Precondition:
    queries of the bank's width; else numpy raises.
    """
    if score_kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {score_kind!r}, expected one of {SCORE_KINDS}")
    if not 0 < num_known <= len(bank):
        raise ValueError(f"num_known must lie in [1, {len(bank)}], got {num_known}")
    scores = cosine_matrix(bank, queries)
    best_known = scores[:, :num_known].max(axis=1)
    if score_kind == SCORE_NEG_MAX_KNOWN or num_known == len(bank):
        unknownness = -best_known
    else:
        unknownness = scores[:, num_known:].max(axis=1) - best_known
    return np.argmax(scores, axis=1), unknownness
