"""Second-stage re-rankers over the base ranker's candidate list.

One diversity method (greedy marginal-relevance with a same-genre similarity
indicator) and three provider-fairness methods that trade relevance against
creator exposure state. Each takes one visitor's candidates as aligned arrays
(scores in relevance order, and the candidates' genres, ids or creators) and
returns positions into them: a permutation prefix of the input, which with
neutral parameters is the identity ordering.

The fairness state is indexed by creator id: served exposures per creator
(int64) and P-MMF's dual variables (float64). Exposure changes only after a
step's serving, so the per-creator quantities derived from it, FairCo's
exposure error and FairRec's under-served creators, are computed once per step
by `fairco_errors` and `fairrec_under_served`.
"""

from __future__ import annotations

import numpy as np


def mmr_rerank(
    scores: np.ndarray, genres: np.ndarray, item_ids: np.ndarray, lam: float, k: int
) -> np.ndarray:
    """Greedy marginal relevance with genre-indicator similarity.

    Selects argmax of lam*rel(i) - (1-lam)*max_sim(i, selected); similarity is
    1 for a shared genre, else 0. Ties go to higher relevance, then lower id.
    """
    gain = lam * scores
    penalized = gain - (1.0 - lam)
    chosen = np.zeros(int(genres.max(initial=-1)) + 1, dtype=bool)
    free = np.ones(len(scores), dtype=bool)
    picked = []
    for _ in range(min(k, len(scores))):
        value = np.where(chosen[genres], penalized, gain)
        order = np.lexsort((item_ids, -scores, -value))
        best = order[free[order]][0]
        picked.append(best)
        free[best] = False
        chosen[genres[best]] = True
    return np.asarray(picked, dtype=np.int64)


def fairrec_under_served(exposure: np.ndarray, alive: np.ndarray, min_share: float) -> np.ndarray:
    """The alive creators below `min_share` of their mean exposure, lowest exposure first."""
    held = exposure[alive]
    mean = held.sum() / len(alive) if len(alive) else 0.0
    under = held < min_share * mean
    return alive[under][np.argsort(held[under], kind="stable")]


def fairrec_rerank(creators: np.ndarray, under: np.ndarray, k: int) -> np.ndarray:
    """Two-phase greedy with a per-creator exposure floor.

    Phase 1 walks the under-served creators (`fairrec_under_served`, lowest
    exposure first) and gives each its best-scoring candidate; phase 2 fills
    the remaining slots in pure relevance order.
    """
    present, first = np.unique(creators, return_index=True)
    floor = first[np.searchsorted(present, under[np.isin(under, present)])]
    rest = np.ones(len(creators), dtype=bool)
    rest[floor] = False
    return np.concatenate((floor, np.flatnonzero(rest)))[:k]


def fairco_errors(exposure: np.ndarray, alive: np.ndarray) -> np.ndarray:
    """Each creator's exposure error max(0, mean - exposure) / mean, 0 when mean is 0.

    The mean is over the alive creators.
    """
    mean = exposure[alive].sum() / len(alive) if len(alive) else 0.0
    if mean <= 0:
        return np.zeros(len(exposure))
    return np.maximum(0.0, mean - exposure) / mean


def fairco_rerank(
    scores: np.ndarray, creators: np.ndarray, errors: np.ndarray, lambda_fair: float
) -> np.ndarray:
    """Error-driven score adjustment toward equal creator exposure.

    adjusted = relevance + lambda_fair * errors[creator] (`fairco_errors`);
    creators above the mean exposure get no penalty, only those below it a boost.
    """
    return np.argsort(-(scores + lambda_fair * errors[creators]), kind="stable")


def pmmf_rerank(
    scores: np.ndarray,
    creators: np.ndarray,
    duals: np.ndarray,
    eta_dual: float,
    k: int,
    alive: np.ndarray,
    dual_max: float,
) -> np.ndarray:
    """Dual-adjusted max-min exposure selection.

    Scores are lifted by each creator's dual variable before the top-k cut;
    afterwards the alive creators' duals, updated in place, rise for creators
    selected below their fair share (k / number of alive creators) and fall
    otherwise, clamped to [0, dual_max]. Persistently under-served creators
    accumulate enough dual mass to break into the list.
    """
    selected = np.argsort(-(scores + duals[creators]), kind="stable")[:k]
    if len(alive):
        counts = np.bincount(creators[selected], minlength=len(duals))[alive]
        duals[alive] = np.clip(duals[alive] - eta_dual * (counts - k / len(alive)), 0.0, dual_max)
    return selected
