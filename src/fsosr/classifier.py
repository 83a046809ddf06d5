"""Prototype classifier bank: known-class rows built from support averages,
background rows seeded by one of three strategies, and batched cosine
scoring, the one cosine-similarity routine that fine-tuning also uses."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .featmap import EPS_NORM

INIT_RANDOM = "random"
INIT_AVG = "avg"
INIT_GLOBAL = "global"
INIT_KINDS = (INIT_RANDOM, INIT_AVG, INIT_GLOBAL)

SCORE_MARGIN = "margin"
SCORE_NEG_MAX_KNOWN = "neg_max_known"
SCORE_KINDS = (SCORE_MARGIN, SCORE_NEG_MAX_KNOWN)


class PrototypeBank:
    """Joint classifier weights: known rows on [0, num_known), background rows
    on [num_known, num_known + num_background). Immutable once built."""

    __slots__ = ("_known", "_background")

    def __init__(self, known_weights, background_weights=None) -> None:
        known = np.array(known_weights, dtype=np.float64, copy=True)
        if known.ndim != 2 or known.shape[0] < 1 or known.shape[1] < 1:
            raise ValueError(f"known weights need shape N_known x dim, got {known.shape}")
        if background_weights is None:
            background = np.zeros((0, known.shape[1]))
        else:
            background = np.array(background_weights, dtype=np.float64, copy=True)
            if background.ndim != 2 or background.shape[1] != known.shape[1]:
                raise ValueError(
                    f"background weights need shape N_bkg x {known.shape[1]}, "
                    f"got {background.shape}"
                )
        if not np.all(np.isfinite(known)) or not np.all(np.isfinite(background)):
            raise ValueError("prototype weights contain non-finite values")
        known.flags.writeable = False
        background.flags.writeable = False
        self._known = known
        self._background = background

    @property
    def known_weights(self) -> np.ndarray:
        return self._known

    @property
    def background_weights(self) -> np.ndarray:
        return self._background

    @property
    def dim(self) -> int:
        return self._known.shape[1]

    @property
    def num_known(self) -> int:
        return self._known.shape[0]

    @property
    def num_background(self) -> int:
        return self._background.shape[0]

    @property
    def num_rows(self) -> int:
        return self.num_known + self.num_background

    def all_weights(self) -> np.ndarray:
        """Known rows stacked above background rows, (num_rows x dim)."""
        return np.concatenate([self._known, self._background], axis=0)

    def with_background(self, background_weights) -> "PrototypeBank":
        return PrototypeBank(self._known, background_weights)

    def to_dict(self) -> dict:
        return {
            "dim": self.dim,
            "num_known": self.num_known,
            "num_background": self.num_background,
            "known_weights": self._known.tolist(),
            "background_weights": self._background.tolist(),
        }

    def __repr__(self) -> str:
        return (
            f"PrototypeBank(num_known={self.num_known}, "
            f"num_background={self.num_background}, dim={self.dim})"
        )


@dataclass
class InitStrategy:
    """How background rows get their starting values.

    random: rows drawn i.i.d. uniform on [-1/sqrt(d), +1/sqrt(d)] from `seed`.
    avg:    rows are means of a round-robin partition of mined background
            embeddings (a single row is the mean of all of them).
    global: rows are carried across episodes through `persisted_weights`;
            freshly seeded like `random` on first use.
    """

    kind: str = INIT_RANDOM
    seed: int = 0
    persisted_weights: np.ndarray | None = None

    def __post_init__(self) -> None:
        if self.kind not in INIT_KINDS:
            raise ValueError(f"unknown init kind {self.kind!r}, expected one of {INIT_KINDS}")


def build_known_prototypes(
    embeddings: np.ndarray, labels: np.ndarray, n_way: int, k_shot: int
) -> PrototypeBank:
    """Class-mean prototypes from the (n x d) support embeddings, exactly
    k_shot rows per class label in [0, n_way).

    Shots are summed in a canonical lexicographic order, so any permutation of
    the support rows produces bit-identical prototypes.
    """
    if n_way < 1 or k_shot < 1:
        raise ValueError("n_way and k_shot must be >= 1")
    labels = np.asarray(labels)
    if embeddings.ndim != 2 or labels.shape != embeddings.shape[:1]:
        raise ValueError(f"need n x d embeddings and n labels, got {embeddings.shape}/{labels.shape}")
    outside = labels[(labels < 0) | (labels >= n_way)]
    if outside.size:
        raise ValueError(f"support label {outside[0]} outside [0, {n_way})")
    counts = np.bincount(labels, minlength=n_way)
    uneven = np.flatnonzero(counts != k_shot)
    if uneven.size:
        c = uneven[0]
        raise ValueError(f"class {c} has {counts[c]} support embeddings, expected {k_shot}")
    # sort by label, then by every coordinate in turn
    order = np.lexsort(np.vstack([embeddings.T[::-1], labels]))
    protos = embeddings[order].reshape(n_way, k_shot, -1).sum(axis=1) / k_shot
    zero = np.flatnonzero(np.linalg.norm(protos, axis=1) <= EPS_NORM)
    if zero.size:
        raise ValueError(f"class {zero[0]} prototype has zero norm")
    return PrototypeBank(protos)


def random_background_rows(num_background: int, dim: int, seed: int) -> np.ndarray:
    """I.i.d. uniform rows on [-1/sqrt(dim), +1/sqrt(dim)], the bound a
    fan-in-scaled uniform initializer gives a dim-input linear layer."""
    bound = 1.0 / np.sqrt(dim)
    rng = np.random.default_rng(seed)
    return rng.uniform(-bound, bound, size=(num_background, dim))


def init_background(
    bank: PrototypeBank,
    strategy: InitStrategy,
    num_background: int,
    bkg_embeddings: np.ndarray | None = None,
) -> PrototypeBank:
    """Attach num_background freshly initialized rows to the bank.

    For the global strategy the freshly seeded rows are stored back onto the
    strategy so later episodes reuse them; fine-tuned weights are written back
    by the evaluation driver, not here.
    """
    if num_background < 0:
        raise ValueError("num_background must be >= 0")
    if num_background == 0:
        return bank.with_background(np.zeros((0, bank.dim)))
    d = bank.dim
    if strategy.kind == INIT_RANDOM:
        rows = random_background_rows(num_background, d, strategy.seed)
    elif strategy.kind == INIT_AVG:
        if bkg_embeddings is None or len(bkg_embeddings) == 0:
            raise ValueError("avg initialization needs at least one background embedding")
        if bkg_embeddings.ndim != 2 or bkg_embeddings.shape[1] != d:
            raise ValueError(
                f"background embeddings need shape n x {d}, got {bkg_embeddings.shape}"
            )
        if len(bkg_embeddings) < num_background:
            raise ValueError(
                f"avg initialization got {len(bkg_embeddings)} embeddings for "
                f"{num_background} background rows; every row needs at least one"
            )
        rows = np.stack(
            [bkg_embeddings[j::num_background].mean(axis=0) for j in range(num_background)]
        )
    elif strategy.kind == INIT_GLOBAL:
        if strategy.persisted_weights is None:
            rows = random_background_rows(num_background, d, strategy.seed)
            strategy.persisted_weights = rows.copy()
        else:
            persisted = np.asarray(strategy.persisted_weights, dtype=np.float64)
            if persisted.shape != (num_background, d):
                raise ValueError(
                    f"persisted global weights have shape {persisted.shape}, "
                    f"expected ({num_background}, {d})"
                )
            rows = persisted.copy()
    else:  # pragma: no cover - kind validated at construction
        raise ValueError(f"unknown init kind {strategy.kind!r}")
    return bank.with_background(rows)


def cosine_matrix(
    weights: np.ndarray, queries: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Unclipped cosine similarities, queries x rows, plus the row norms of
    the weights and of the queries. A row whose norm is zero or not finite is
    an error that names it."""
    norms = []
    for matrix, what in ((weights, "prototype row"), (queries, "query")):
        n = np.linalg.norm(matrix, axis=1)
        bad = np.flatnonzero(~((n > EPS_NORM) & np.isfinite(n)))
        if bad.size:
            kind = "zero" if n[bad[0]] <= EPS_NORM else "non-finite"
            raise ValueError(f"{what} {int(bad[0])} has {kind} norm")
        norms.append(n)
    wn, qn = norms
    return (queries / qn[:, None]) @ (weights / wn[:, None]).T, wn, qn


def predict(
    bank: PrototypeBank, queries: np.ndarray, score_kind: str = SCORE_MARGIN
) -> tuple[np.ndarray, np.ndarray]:
    """Score every row of the (n x dim) query matrix against the bank.

    Returns the joint argmax row of each query (a row >= bank.num_known is a
    background row, so the query is judged unknown; ties break toward the
    lowest row) and its unknownness, higher meaning more likely unknown.
    margin: best background similarity minus best known similarity, monotone in
    the decision boundary the joint argmax induces. neg_max_known: negated best
    known similarity. A bank without background rows always uses the latter,
    since no margin exists, and never judges a query unknown.
    """
    if score_kind not in SCORE_KINDS:
        raise ValueError(f"unknown score kind {score_kind!r}, expected one of {SCORE_KINDS}")
    if queries.ndim != 2 or queries.shape[1] != bank.dim:
        raise ValueError(f"queries need shape n x {bank.dim}, got {queries.shape}")
    scores, _, _ = cosine_matrix(bank.all_weights(), queries)
    best_known = scores[:, : bank.num_known].max(axis=1)
    if score_kind == SCORE_NEG_MAX_KNOWN or bank.num_background == 0:
        unknownness = -best_known
    else:
        unknownness = scores[:, bank.num_known :].max(axis=1) - best_known
    return np.argmax(scores, axis=1), unknownness
