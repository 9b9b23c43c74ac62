import numpy as np
import pytest

from creatorsim.core import Catalog
from creatorsim.recsys import (
    BprRanker,
    EmptyInteractions,
    MfRanker,
    PopRanker,
    RandomRanker,
    build_candidate_pool,
    make_ranker,
    rank_scored,
    serve_session,
)
from creatorsim.users import UserRuntime


def top_ids(ranker, user, pool, k, cat):
    return [item for item, _ in rank_scored(ranker, user, pool, k, cat)]


def catalog_with(n_items, genre_of=lambda i: i % 3, created=lambda i: 0):
    cat = Catalog()
    for i in range(n_items):
        cat.add(i % 2, genre_of(i), f"item{i}", [], "", created(i))
    return cat


class TestCandidatePool:
    def test_boundary_age_included(self):
        cat = Catalog()
        cat.add(0, 0, "t", [], "", 1)
        pool = build_candidate_pool(cat, 21, 20)
        assert 0 in pool.item_ids

    def test_beyond_window_excluded(self):
        cat = Catalog()
        cat.add(0, 0, "t", [], "", 1)
        pool = build_candidate_pool(cat, 22, 20)
        assert len(pool) == 0

    def test_empty_catalog(self):
        assert len(build_candidate_pool(Catalog(), 5, 20)) == 0


class TestPop:
    def test_count_ordering(self):
        cat = catalog_with(3)
        clicks = [(0, 0, 1)] * 3 + [(0, 1, 1)]
        r = PopRanker(window=20).retrain(clicks, cat, step=1)
        s = r.score(0, np.array([0, 1, 2]), cat)
        assert s[0] > s[1] > s[2] == 0

    def test_rank_top2(self):
        cat = catalog_with(3)
        clicks = [(0, 0, 1)] * 3 + [(0, 1, 1)]
        r = PopRanker(window=20).retrain(clicks, cat, step=1)
        pool = build_candidate_pool(cat, 1, 20)
        assert top_ids(r, 0, pool, 2, cat) == [0, 1]

    def test_window_excludes_old_clicks(self):
        cat = catalog_with(2)
        clicks = [(0, 0, 1)] * 5 + [(0, 1, 30)]
        r = PopRanker(window=20).retrain(clicks, cat, step=30)
        s = r.score(0, np.array([0, 1]), cat)
        assert s[0] == 0 and s[1] == 1

    def test_tolerates_empty(self):
        cat = catalog_with(2)
        r = PopRanker(window=20).retrain([], cat, step=0)
        assert r.score(0, np.array([0, 1]), cat).tolist() == [0.0, 0.0]


class TestRank:
    def test_k_larger_than_pool_returns_all(self):
        cat = catalog_with(3)
        r = RandomRanker(seed=1)
        pool = build_candidate_pool(cat, 0, 20)
        assert sorted(top_ids(r, 0, pool, 99, cat)) == [0, 1, 2]

    def test_equal_scores_newer_first_then_lower_id(self):
        cat = Catalog()
        cat.add(0, 0, "a", [], "", 1)
        cat.add(0, 0, "b", [], "", 5)
        cat.add(0, 0, "c", [], "", 5)
        r = PopRanker(window=20).retrain([], cat, step=5)  # all scores 0
        pool = build_candidate_pool(cat, 5, 20)
        assert top_ids(r, 0, pool, 3, cat) == [1, 2, 0]

    def test_output_is_permutation_prefix_of_pool(self):
        cat = catalog_with(20, created=lambda i: i % 7)
        r = RandomRanker(seed=3)
        pool = build_candidate_pool(cat, 6, 20)
        out = top_ids(r, 4, pool, 10, cat)
        assert len(out) == len(set(out)) == 10
        assert set(out) <= {int(i) for i in pool.item_ids}


class TestRandomRanker:
    def test_retrain_is_noop_for_scores(self):
        cat = catalog_with(10)
        r = RandomRanker(seed=9)
        ids = np.arange(10)
        before = r.score(3, ids, cat)
        r.retrain([(0, 1, 2)], cat, step=5)
        assert np.array_equal(before, r.score(3, ids, cat))


class ScriptedRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


class TestServeSession:
    def _user(self):
        pref = np.full(14, 1.0 / 14)
        return UserRuntime(user_id=0, preference=pref, activity=1.0)

    def test_exit_at_position_two_yields_two_exposures(self):
        cat = catalog_with(5, genre_of=lambda i: 0)
        items = [cat[i] for i in range(5)]
        # item1: no click (0.9), no exit (0.9); item2: no click (0.9), exit (0.0)
        rng = ScriptedRng([0.9, 0.9, 0.9, 0.0])
        events = serve_session(items, self._user(), rng, step=3)
        assert len(events) == 2
        assert all(ev.exposed for ev in events)
        assert not any(ev.clicked for ev in events)

    def test_click_all(self):
        cat = catalog_with(5, genre_of=lambda i: 0)
        items = [cat[i] for i in range(5)]
        rng = ScriptedRng([0.0] * 5)
        events = serve_session(items, self._user(), rng, step=3)
        assert len(events) == 5
        assert all(ev.clicked for ev in events)

    def test_empty_list(self):
        assert serve_session([], self._user(), ScriptedRng([]), step=0) == []


def block_diagonal_setup(ranker_name, seed=13):
    """4 users x 4 items, two 2x2 blocks; one held-out positive per block."""
    cat = Catalog()
    for i in range(4):
        cat.add(creator_id=i, genre=i // 2, title=f"i{i}", tags=[], description="", created_step=0)
    train = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 2, 0), (2, 3, 0), (3, 2, 0)]
    held_out = [(1, 1), (3, 3)]
    cross = {1: [2, 3], 3: [0, 1]}
    r = make_ranker(ranker_name, n_users=4, seed=seed)
    for step in range(30):
        r.retrain(train, cat, step)
    return r, cat, held_out, cross


@pytest.mark.parametrize("name", ["mf", "bpr"])
def test_block_diagonal_heldout_beats_cross_block(name):
    r, cat, held_out, cross = block_diagonal_setup(name)
    wins = total = 0
    for user, item in held_out:
        s_in = r.score(user, np.array([item]), cat)[0]
        for other in cross[user]:
            s_out = r.score(user, np.array([other]), cat)[0]
            wins += s_in > s_out
            total += 1
    assert wins / total >= 0.9


def test_bpr_loss_decreases_over_retrains():
    cat = Catalog()
    for i in range(4):
        cat.add(i, i // 2, f"i{i}", [], "", 0)
    train = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 2, 0), (3, 3, 0)]
    fixed = [(0, 0, 2), (0, 1, 3), (1, 0, 2), (2, 2, 0), (3, 3, 1)]
    r = BprRanker(n_users=4, dim=16, lr=0.05, epochs=5, l2=1e-4, seed=5)
    losses = []
    for step in range(6):
        r.retrain(train, cat, step)
        losses.append(r.pairwise_loss(fixed))
    assert all(a > b for a, b in zip(losses, losses[1:]))


def test_mf_empty_interactions_rejected():
    cat = catalog_with(2)
    with pytest.raises(EmptyInteractions):
        MfRanker(n_users=2, dim=8, lr=0.05, epochs=1, l2=0.0, seed=1).retrain([], cat, 0)


def test_cold_item_scored_by_genre_mean():
    cat = catalog_with(6, genre_of=lambda i: i % 2)
    clicks = [(u, i, 0) for u in range(3) for i in range(6)]
    r = MfRanker(n_users=3, dim=8, lr=0.05, epochs=2, l2=0.0, seed=2)
    r.retrain(clicks, cat, 0)
    fresh = cat.add(0, 1, "fresh", [], "", 3)
    trained_genre1 = [i for i in range(6) if cat[i].genre == 1]
    expected_vec = r.Q[trained_genre1].mean(axis=0)
    expected = r.bu[1] + r.bi[trained_genre1].mean() + expected_vec @ r.P[1]
    got = r.score(1, np.array([fresh.item_id]), cat)[0]
    assert got == pytest.approx(expected, abs=1e-12)


def test_pop_exposure_concentrates_on_top_item():
    # with a click-skewed log, the top item's share of top-1 ranks exceeds uniform
    cat = catalog_with(10, genre_of=lambda i: 0)
    clicks = [(0, 0, 1)] * 30 + [(0, i, 1) for i in range(1, 10)]
    r = PopRanker(window=20).retrain(clicks, cat, step=1)
    pool = build_candidate_pool(cat, 1, 20)
    top1 = [top_ids(r, u, pool, 1, cat)[0] for u in range(20)]
    share = top1.count(0) / len(top1)
    assert share > 1 / 10
