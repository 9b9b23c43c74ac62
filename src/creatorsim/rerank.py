"""Second-stage re-rankers over the base ranker's candidate list.

One diversity method (greedy marginal-relevance with a same-genre similarity
indicator) and three provider-fairness methods that trade relevance against
creator exposure state. All four consume (item, relevance) pairs in relevance
order and return a permutation prefix of their input; with neutral parameters
each one reduces to the identity ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .core import ItemRecord

Scored = tuple[ItemRecord, float]


@dataclass
class ExposureLedger:
    """Served exposures per creator since the evaluation window opened."""

    exposures: dict[int, int] = field(default_factory=dict)

    def add_exposure(self, creator_id: int, count: int = 1) -> None:
        self.exposures[creator_id] = self.exposures.get(creator_id, 0) + count

    def exposure(self, creator_id: int) -> int:
        return self.exposures.get(creator_id, 0)

    def mean_exposure(self, creators) -> float:
        creators = list(creators)
        if not creators:
            return 0.0
        return sum(self.exposure(c) for c in creators) / len(creators)


def mmr_rerank(scored: list[Scored], lam: float, k: int) -> list[ItemRecord]:
    """Greedy marginal relevance with genre-indicator similarity.

    Selects argmax of lam*rel(i) - (1-lam)*max_sim(i, selected); similarity is
    1 for a shared genre, else 0. Ties go to higher relevance, then lower id.
    """
    remaining = list(scored)
    selected: list[ItemRecord] = []
    chosen_genres: set[int] = set()
    while remaining and len(selected) < k:
        best_idx = None
        best_key = None
        for idx, (rec, rel) in enumerate(remaining):
            sim = 1.0 if rec.genre in chosen_genres else 0.0
            value = lam * rel - (1.0 - lam) * sim
            key = (value, rel, -rec.item_id)
            if best_key is None or key > best_key:
                best_key, best_idx = key, idx
        rec, _ = remaining.pop(best_idx)
        selected.append(rec)
        chosen_genres.add(rec.genre)
    return selected


def fairrec_rerank(
    scored: list[Scored],
    ledger: ExposureLedger,
    k: int,
    min_share: float,
    alive_creators,
) -> list[ItemRecord]:
    """Two-phase greedy with a per-creator exposure floor.

    Phase 1 walks the creators sitting below `min_share` of the average
    exposure (least exposed first) and gives each its best-scoring candidate;
    phase 2 fills the remaining slots in pure relevance order.
    """
    alive = list(alive_creators)
    avg = ledger.mean_exposure(alive)
    threshold = min_share * avg
    under = sorted(
        (c for c in alive if ledger.exposure(c) < threshold),
        key=lambda c: (ledger.exposure(c), c),
    )
    best_of: dict[int, ItemRecord] = {}
    for rec, _ in scored:
        if rec.creator_id not in best_of:
            best_of[rec.creator_id] = rec
    picked: list[ItemRecord] = []
    used: set[int] = set()
    for c in under:
        if len(picked) >= k:
            break
        rec = best_of.get(c)
        if rec is not None and rec.item_id not in used:
            picked.append(rec)
            used.add(rec.item_id)
    for rec, _ in scored:
        if len(picked) >= k:
            break
        if rec.item_id not in used:
            picked.append(rec)
            used.add(rec.item_id)
    return picked


def fairco_rerank(
    scored: list[Scored],
    ledger: ExposureLedger,
    lambda_fair: float,
    alive_creators,
) -> list[ItemRecord]:
    """Error-driven score adjustment toward equal creator exposure.

    adjusted = relevance + lambda_fair * max(0, mean - exposure) / mean;
    over-exposed creators get no penalty, only under-exposed ones a boost.
    """
    mean = ledger.mean_exposure(list(alive_creators))
    adjusted = []
    for pos, (rec, rel) in enumerate(scored):
        err = max(0.0, mean - ledger.exposure(rec.creator_id)) / mean if mean > 0 else 0.0
        adjusted.append((-(rel + lambda_fair * err), pos, rec))
    adjusted.sort(key=lambda t: (t[0], t[1]))
    return [rec for _, _, rec in adjusted]


def pmmf_rerank(
    scored: list[Scored],
    duals: dict[int, float],
    eta_dual: float,
    k: int,
    alive_creators,
    dual_max: float = 2.0,
) -> tuple[list[ItemRecord], dict[int, float]]:
    """Dual-adjusted max-min exposure selection.

    Scores are lifted by each creator's dual variable before the top-k cut;
    afterwards duals rise for creators selected below their fair share
    (k / number of alive creators) and fall otherwise, clamped to
    [0, dual_max]. Persistently under-served creators accumulate enough dual
    mass to break into the list.
    """
    alive = list(alive_creators)
    adjusted = []
    for pos, (rec, rel) in enumerate(scored):
        adjusted.append((-(rel + duals.get(rec.creator_id, 0.0)), pos, rec))
    adjusted.sort(key=lambda t: (t[0], t[1]))
    selected = [rec for _, _, rec in adjusted[:k]]
    counts: dict[int, int] = {}
    for rec in selected:
        counts[rec.creator_id] = counts.get(rec.creator_id, 0) + 1
    new_duals = dict(duals)
    if alive:
        share = k / len(alive)
        for c in alive:
            updated = new_duals.get(c, 0.0) - eta_dual * (counts.get(c, 0) - share)
            new_duals[c] = min(max(updated, 0.0), dual_max)
    return selected, new_duals
