from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creatorsim.core import SimConfig
from creatorsim.rerank import (
    fairco_errors,
    fairco_rerank,
    fairrec_rerank,
    fairrec_under_served,
    mmr_rerank,
    pmmf_rerank,
)

DUAL_MAX = SimConfig().pmmf_dual_max


def candidates(specs):
    """specs: list of (item_id, creator, genre, relevance) in relevance order.

    Returns the aligned (item_ids, creators, genres, scores) arrays a re-ranker reads.
    """
    ids, creators, genres, scores = zip(*specs)
    return (
        np.array(ids, dtype=np.int64), np.array(creators, dtype=np.int64),
        np.array(genres, dtype=np.int64), np.array(scores, dtype=np.float64),
    )


def exposure_of(counts, n_creators):
    """A creator-indexed exposure array from {creator: exposures}."""
    exposure = np.zeros(n_creators, dtype=np.int64)
    for creator, count in counts.items():
        exposure[creator] = count
    return exposure


def alive_ids(n):
    return np.arange(n, dtype=np.int64)


class TestMmr:
    def test_lambda_one_is_identity(self):
        ids, _, genres, scores = candidates([(0, 0, 0, 0.9), (1, 0, 0, 0.8), (2, 0, 1, 0.7)])
        out = mmr_rerank(scores, genres, ids, lam=1.0, k=3)
        assert ids[out].tolist() == [0, 1, 2]

    def test_lambda_zero_two_genres_one_each(self):
        ids, _, genres, scores = candidates([(0, 0, 0, 0.9), (1, 0, 0, 0.8), (2, 0, 1, 0.1)])
        out = mmr_rerank(scores, genres, ids, lam=0.0, k=2)
        assert set(genres[out].tolist()) == {0, 1}

    def test_k_one_is_top_relevance(self):
        ids, _, genres, scores = candidates([(0, 0, 0, 0.9), (1, 0, 1, 0.8)])
        for lam in (0.0, 0.5, 1.0):
            assert ids[mmr_rerank(scores, genres, ids, lam, 1)][0] == 0


class TestFairrec:
    def test_underexposed_creator_gets_first_slot(self):
        under = fairrec_under_served(exposure_of({1: 100}, 2), alive_ids(2), 0.5)
        ids, creators, _, _ = candidates([(0, 1, 0, 0.9), (1, 1, 0, 0.8), (2, 0, 1, 0.1)])
        out = fairrec_rerank(creators, under, k=2)
        assert creators[out[0]] == 0
        assert ids[out[1]] == 0

    def test_all_above_threshold_is_relevance_order(self):
        under = fairrec_under_served(exposure_of({0: 10, 1: 10}, 2), alive_ids(2), 0.5)
        ids, creators, _, _ = candidates([(0, 0, 0, 0.9), (1, 1, 0, 0.8), (2, 0, 1, 0.1)])
        out = fairrec_rerank(creators, under, k=3)
        assert ids[out].tolist() == [0, 1, 2]

    def test_single_creator_is_relevance_order(self):
        under = fairrec_under_served(exposure_of({}, 1), alive_ids(1), 0.5)
        ids, creators, _, _ = candidates([(0, 0, 0, 0.9), (1, 0, 0, 0.8)])
        out = fairrec_rerank(creators, under, k=2)
        assert ids[out].tolist() == [0, 1]


class TestFairco:
    def test_lambda_zero_is_identity(self):
        errors = fairco_errors(exposure_of({0: 5}, 2), alive_ids(2))
        ids, creators, _, scores = candidates([(0, 0, 0, 0.9), (1, 1, 0, 0.8)])
        out = fairco_rerank(scores, creators, errors, 0.0)
        assert ids[out].tolist() == [0, 1]

    def test_underexposed_owner_wins_on_equal_relevance(self):
        errors = fairco_errors(exposure_of({1: 100}, 2), alive_ids(2))
        _, creators, _, scores = candidates([(0, 1, 0, 0.5), (1, 0, 0, 0.5)])
        out = fairco_rerank(scores, creators, errors, 0.5)
        assert creators[out[0]] == 0

    def test_overexposed_scores_unchanged(self):
        # both creators above the mean is impossible; check err caps at 0 for the rich one
        errors = fairco_errors(exposure_of({0: 200, 1: 0}, 2), alive_ids(2))
        ids, creators, _, scores = candidates([(0, 0, 0, 0.9), (1, 0, 0, 0.7)])
        out = fairco_rerank(scores, creators, errors, 10.0)
        # creator 0 over-exposed: no boost anywhere, order preserved
        assert ids[out].tolist() == [0, 1]


class TestPmmf:
    def test_zero_duals_is_relevance_order(self):
        ids, creators, _, scores = candidates([(0, 0, 0, 0.9), (1, 1, 0, 0.8)])
        out = pmmf_rerank(
            scores, creators, np.zeros(2), eta_dual=0.1, k=2, alive=alive_ids(2), dual_max=DUAL_MAX
        )
        assert ids[out].tolist() == [0, 1]

    def test_never_selected_creator_dual_grows_linearly(self):
        # 5 creators, k=5; creator 4 never has a candidate
        duals = np.zeros(5)
        for _ in range(10):
            _, creators, _, scores = candidates([(i, i, 0, 1.0 - 0.1 * i) for i in range(4)])
            pmmf_rerank(scores, creators, duals, eta_dual=0.1, k=5, alive=alive_ids(5),
                        dual_max=DUAL_MAX)
        assert duals[4] == pytest.approx(1.0)

    def test_duals_clamped_at_max(self):
        duals = np.zeros(2)
        for _ in range(100):
            _, creators, _, scores = candidates([(0, 0, 0, 1.0)])
            pmmf_rerank(scores, creators, duals, eta_dual=0.5, k=2, alive=alive_ids(2),
                        dual_max=2.0)
        assert duals[1] == pytest.approx(2.0)

    def test_starved_creator_breaks_back_in(self):
        # two creators; creator 1's items slightly less relevant
        duals = np.zeros(2)
        exposure = {0: 0, 1: 0}
        _, creators, _, scores = candidates([(0, 0, 0, 1.0), (1, 1, 1, 0.9)])
        for _ in range(200):
            out = pmmf_rerank(
                scores, creators, duals, eta_dual=0.1, k=1, alive=alive_ids(2), dual_max=DUAL_MAX
            )
            exposure[int(creators[out[0]])] += 1
        assert exposure[1] / 200 > 0.2
        # pure relevance starves creator 1 completely
        assert creators[np.argmax(scores)] == 0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_rerankers_return_permutation_prefix(data):
    n = data.draw(st.integers(1, 12))
    rels = sorted((data.draw(st.floats(0, 1)) for _ in range(n)), reverse=True)
    specs = [(i, data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4)), rels[i]) for i in range(n)]
    ids, creators, genres, scores = candidates(specs)
    k = data.draw(st.integers(1, n))
    exposure = np.array([data.draw(st.integers(0, 20)) for _ in range(4)], dtype=np.int64)
    alive = alive_ids(4)
    outputs = [
        mmr_rerank(scores, genres, ids, data.draw(st.floats(0, 1)), k),
        fairrec_rerank(
            creators, fairrec_under_served(exposure, alive, data.draw(st.floats(0, 1))), k
        ),
        fairco_rerank(
            scores, creators, fairco_errors(exposure, alive), data.draw(st.floats(0, 2))
        )[:k],
        pmmf_rerank(scores, creators, np.zeros(4), 0.1, k, alive, DUAL_MAX),
    ]
    input_ids = set(ids.tolist())
    for out in outputs:
        out_ids = ids[out].tolist()
        assert len(out_ids) == len(set(out_ids)) <= k or len(out_ids) == len(input_ids)
        assert set(out_ids) <= input_ids
        assert len(out_ids) == min(k, n)


def test_neutral_parameters_are_identity():
    ids, creators, genres, scores = candidates(
        [(0, 0, 0, 0.9), (1, 1, 1, 0.8), (2, 2, 0, 0.7), (3, 0, 2, 0.6)]
    )
    exposure, alive = np.full(3, 7, dtype=np.int64), alive_ids(3)
    assert ids[mmr_rerank(scores, genres, ids, 1.0, 4)].tolist() == ids.tolist()
    under = fairrec_under_served(exposure, alive, 0.0)
    assert ids[fairrec_rerank(creators, under, 4)].tolist() == ids.tolist()
    out = fairco_rerank(scores, creators, fairco_errors(exposure, alive), 0.0)
    assert ids[out].tolist() == ids.tolist()
    out = pmmf_rerank(scores, creators, np.zeros(3), 0.1, 4, alive, DUAL_MAX)
    assert ids[out].tolist() == ids.tolist()


# ---------------------------------------------------------------------------
# Reference: the re-rankers as lists of (item, relevance) pairs, with exposure
# in a dict and the P-MMF duals in a dict returned anew by every call. The
# array re-rankers must pick the same positions and produce the same dual bits.


class Rec(NamedTuple):
    item_id: int
    creator_id: int
    genre: int


class RefLedger:
    """Served exposures per creator."""

    def __init__(self, exposures: dict[int, int]):
        self.exposures = exposures

    def exposure(self, creator_id: int) -> int:
        return self.exposures.get(creator_id, 0)

    def mean_exposure(self, creators) -> float:
        creators = list(creators)
        if not creators:
            return 0.0
        return sum(self.exposure(c) for c in creators) / len(creators)


def ref_mmr(scored, lam, k):
    remaining = list(scored)
    selected = []
    chosen_genres = set()
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


def ref_fairrec(scored, ledger, k, min_share, alive_creators):
    alive = list(alive_creators)
    avg = ledger.mean_exposure(alive)
    threshold = min_share * avg
    under = sorted(
        (c for c in alive if ledger.exposure(c) < threshold),
        key=lambda c: (ledger.exposure(c), c),
    )
    best_of = {}
    for rec, _ in scored:
        if rec.creator_id not in best_of:
            best_of[rec.creator_id] = rec
    picked = []
    used = set()
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


def ref_fairco(scored, ledger, lambda_fair, alive_creators):
    mean = ledger.mean_exposure(list(alive_creators))
    adjusted = []
    for pos, (rec, rel) in enumerate(scored):
        err = max(0.0, mean - ledger.exposure(rec.creator_id)) / mean if mean > 0 else 0.0
        adjusted.append((-(rel + lambda_fair * err), pos, rec))
    adjusted.sort(key=lambda t: (t[0], t[1]))
    return [rec for _, _, rec in adjusted]


def ref_pmmf(scored, duals, eta_dual, k, alive_creators, dual_max):
    alive = list(alive_creators)
    adjusted = []
    for pos, (rec, rel) in enumerate(scored):
        adjusted.append((-(rel + duals.get(rec.creator_id, 0.0)), pos, rec))
    adjusted.sort(key=lambda t: (t[0], t[1]))
    selected = [rec for _, _, rec in adjusted[:k]]
    counts = {}
    for rec in selected:
        counts[rec.creator_id] = counts.get(rec.creator_id, 0) + 1
    new_duals = dict(duals)
    if alive:
        share = k / len(alive)
        for c in alive:
            updated = new_duals.get(c, 0.0) - eta_dual * (counts.get(c, 0) - share)
            new_duals[c] = min(max(updated, 0.0), dual_max)
    return selected, new_duals


# few distinct values force ties, and 0.0 and -0.0 compare equal
tie_prone = st.sampled_from([0.0, -0.0, 0.5, 1.0, -1.0]) | st.floats(-2, 2)


@st.composite
def rerank_cases(draw):
    """One visitor's candidates (long enough for an unstable sort to show) and the fairness state."""
    n_creators = draw(st.integers(1, 6))
    n = draw(st.integers(0, 40))
    ids = np.asarray(draw(st.permutations(range(100)))[:n], dtype=np.int64)
    creators = draw(hnp.arrays(np.int64, n, elements=st.integers(0, n_creators - 1)))
    genres = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    scores = draw(hnp.arrays(np.float64, n, elements=tie_prone))
    # departed creators keep their exposure and duals
    alive = np.flatnonzero(draw(hnp.arrays(bool, n_creators)))
    exposure = draw(hnp.arrays(np.int64, n_creators, elements=st.integers(0, 30)))
    duals = draw(hnp.arrays(np.float64, n_creators, elements=st.floats(0, 2)))
    k = draw(st.integers(1, n + 3))  # up to past the list's end
    return ids, creators, genres, scores, alive, exposure, duals, k


def _case(scores, creators, alive, exposure, duals, k):
    n = len(scores)
    return (
        np.arange(n, dtype=np.int64), np.asarray(creators, dtype=np.int64),
        np.arange(n, dtype=np.int64) % 2, np.asarray(scores, dtype=np.float64),
        np.asarray(alive, dtype=np.int64), np.asarray(exposure, dtype=np.int64),
        np.asarray(duals, dtype=np.float64), k,
    )


@settings(max_examples=300, deadline=None)
@given(
    rerank_cases(),
    st.floats(0, 1), st.sampled_from([0.0]) | st.floats(0, 2), st.floats(0, 2), st.floats(0, 1),
)
# every score tied
@example(_case([0.5] * 20, [0, 1, 2] * 6 + [0, 1], [0, 1, 2], [4, 0, 2], [0.0, 0.3, 0.0], 5),
         0.5, 0.8, 1.0, 0.1)
# zero mean exposure
@example(_case([0.9, 0.8, 0.8, 0.1], [0, 1, 0, 1], [0, 1], [0, 0], [0.0, 0.0], 2),
         0.5, 0.8, 1.0, 0.1)
# exposure and duals held by departed creators only
@example(_case([0.9, 0.8, 0.7], [2, 2, 1], [0, 1], [0, 0, 50], [0.0, 0.0, 1.5], 2),
         0.5, 0.8, 1.0, 0.1)
# no under-served creator, and k past the list's end
@example(_case([0.9, 0.8, 0.7], [0, 1, 0], [0, 1], [5, 5], [0.0, 0.0], 10),
         0.5, 0.8, 1.0, 0.1)
def test_array_rerankers_equal_reference(case, lam, min_share, lambda_fair, eta):
    ids, creators, genres, scores, alive, exposure, duals, k = case
    scored = [
        (Rec(*rec), rel)
        for *rec, rel in zip(ids.tolist(), creators.tolist(), genres.tolist(), scores.tolist())
    ]
    position = {item: pos for pos, item in enumerate(ids.tolist())}

    def positions(recs):
        return [position[rec.item_id] for rec in recs]

    ledger = RefLedger(dict(enumerate(exposure.tolist())))
    alive_list = alive.tolist()

    assert mmr_rerank(scores, genres, ids, lam, k).tolist() == positions(ref_mmr(scored, lam, k))

    under = fairrec_under_served(exposure, alive, min_share)
    assert fairrec_rerank(creators, under, k).tolist() == positions(
        ref_fairrec(scored, ledger, k, min_share, alive_list)
    )

    errors = fairco_errors(exposure, alive)
    assert fairco_rerank(scores, creators, errors, lambda_fair).tolist() == positions(
        ref_fairco(scored, ledger, lambda_fair, alive_list)
    )

    # the same candidates for three visitors in turn: the duals carry over
    ref_duals = dict(enumerate(duals.tolist()))
    for _ in range(3):
        got = pmmf_rerank(scores, creators, duals, eta, k, alive, DUAL_MAX)
        want, ref_duals = ref_pmmf(scored, ref_duals, eta, k, alive_list, DUAL_MAX)
        assert got.tolist() == positions(want)
        assert duals.tobytes() == np.array([ref_duals[c] for c in range(len(duals))]).tobytes()
