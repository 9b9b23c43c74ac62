import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from creatorsim.core import Catalog, SimConfig
from creatorsim.harness import run_simulation
from creatorsim.recsys import (
    SGD_BATCH,
    BprRanker,
    MfRanker,
    PopRanker,
    RandomRanker,
    build_candidate_pool,
    make_ranker,
    pool_view,
    rank_scored,
    _scatter_add,
)
from creatorsim.users import serve_session

CFG = SimConfig()
# make_ranker's settings as the default run config gives them
RANKER_SETTINGS = dict(pop_window=CFG.pop_window, **CFG.section("mf"))


def top_ids(ranker, user, pool, k, cat):
    return rank_scored(pool_view(ranker, pool, cat), user, k)[0].tolist()


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
        assert 0 in pool

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
        s = r.scorer(np.array([0, 1, 2]), cat)(0)
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
        s = r.scorer(np.array([0, 1]), cat)(0)
        assert s[0] == 0 and s[1] == 1

    def test_tolerates_empty(self):
        cat = catalog_with(2)
        r = PopRanker(window=20).retrain([], cat, step=0)
        assert r.scorer(np.array([0, 1]), cat)(0).tolist() == [0.0, 0.0]

    def test_untrained_scores_zeros(self):
        assert PopRanker(window=20).scorer(np.array([0, 1]), Catalog())(0).tolist() == [0.0, 0.0]


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
        assert set(out) <= set(pool.tolist())


class TestRandomRanker:
    def test_retrain_is_noop_for_scores(self):
        cat = catalog_with(10)
        r = RandomRanker(seed=9)
        ids = np.arange(10)
        before = r.scorer(ids, cat)(3)
        r.retrain([(0, 1, 2)], cat, step=5)
        assert np.array_equal(before, r.scorer(ids, cat)(3))


class TestServeSession:
    def _serve(self, genres, uniforms):
        return serve_session(
            genres, np.full(14, 1.0 / 14), np.zeros(14), np.asarray(uniforms, dtype=float),
            alpha_click=0.8, exit_base=0.05, exit_per_skip=0.15,
        )

    def test_exit_at_position_two_yields_two_exposures(self):
        genres = np.zeros(5, dtype=np.int64)
        # item1: no click (0.9), no exit (0.9); item2: no click (0.9), exit (0.0)
        assert self._serve(genres, [0.9, 0.9, 0.9, 0.0]) == [False, False]

    def test_click_all(self):
        genres = np.zeros(5, dtype=np.int64)
        assert self._serve(genres, [0.0] * 5) == [True] * 5

    def test_empty_list(self):
        assert self._serve(np.empty(0, np.int64), []) == []


def block_diagonal_setup(ranker_name, seed=13):
    """4 users x 4 items, two 2x2 blocks; one held-out positive per block."""
    cat = Catalog()
    for i in range(4):
        cat.add(creator_id=i, genre=i // 2, title=f"i{i}", tags=[], description="", created_step=0)
    train = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 2, 0), (2, 3, 0), (3, 2, 0)]
    held_out = [(1, 1), (3, 3)]
    cross = {1: [2, 3], 3: [0, 1]}
    r = make_ranker(ranker_name, n_users=4, seed=seed, **RANKER_SETTINGS)
    for step in range(30):
        r.retrain(train, cat, step)
    return r, cat, held_out, cross


@pytest.mark.parametrize("name", ["mf", "bpr"])
def test_block_diagonal_heldout_beats_cross_block(name):
    r, cat, held_out, cross = block_diagonal_setup(name)
    wins = total = 0
    for user, item in held_out:
        s_in = r.scorer(np.array([item]), cat)(user)[0]
        for other in cross[user]:
            s_out = r.scorer(np.array([other]), cat)(user)[0]
            wins += s_in > s_out
            total += 1
    assert wins / total >= 0.9


def pairwise_loss(r: BprRanker, triples) -> float:
    """Mean -ln sigma(score(u,i) - score(u,j)) over (u, i, j) triples."""
    u, i, j = np.asarray(triples).T
    x = r.bi[i] - r.bi[j] + (r.P[u] * (r.Q[i] - r.Q[j])).sum(axis=1)
    return float(np.mean(np.log1p(np.exp(-x))))


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
        losses.append(pairwise_loss(r, fixed))
    assert all(a > b for a, b in zip(losses, losses[1:]))


@pytest.mark.parametrize("cls", [MfRanker, BprRanker])
def test_empty_table_leaves_ranker_unchanged(cls, monkeypatch):
    """A retrain on no clicks returns at once: no parameter, item row or cold
    factor changes, and no stream is read, even with new items in the catalog."""
    cat = catalog_with(4)
    untrained = cls(n_users=2, dim=8, lr=0.05, epochs=1, l2=0.0, seed=1)
    trained = cls(n_users=2, dim=8, lr=0.05, epochs=1, l2=0.0, seed=1).retrain([(0, 1, 0), (1, 2, 0)], cat, 0)
    cat.add(0, 2, "new", [], "", 1)
    before = [{name: np.copy(value) for name, value in vars(r).items()} for r in (untrained, trained)]

    def no_stream(*key):
        raise AssertionError(f"stream {key} read")

    monkeypatch.setattr("creatorsim.recsys.stream", no_stream)
    for r, expected in zip((untrained, trained), before):
        assert r.retrain(np.empty((0, 3), np.int64), cat, 1) is r
        assert vars(r).keys() == expected.keys()
        assert all(np.array_equal(value, expected[name]) for name, value in vars(r).items())


def test_cold_item_scored_by_genre_mean():
    cat = catalog_with(6, genre_of=lambda i: i % 2)
    clicks = [(u, i, 0) for u in range(3) for i in range(6)]
    r = MfRanker(n_users=3, dim=8, lr=0.05, epochs=2, l2=0.0, seed=2)
    r.retrain(clicks, cat, 0)
    fresh = cat.add(0, 1, "fresh", [], "", 3)
    trained_genre1 = [i for i in range(6) if cat.genre[i] == 1]
    expected_vec = r.Q[trained_genre1].mean(axis=0)
    expected = r.bu[1] + r.bi[trained_genre1].mean() + expected_vec @ r.P[1]
    got = r.scorer(np.array([fresh]), cat)(1)[0]
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


@st.composite
def scatters(draw):
    n_rows = draw(st.integers(1, 6))
    width = draw(st.integers(1, 40))
    batch = draw(st.integers(1, 64))
    if draw(st.booleans()):
        rows = np.full(batch, draw(st.integers(0, n_rows - 1)))
    else:
        rows = draw(hnp.arrays(np.int64, batch, elements=st.integers(0, n_rows - 1)))
    finite = st.floats(-1e6, 1e6, allow_nan=False)
    table = draw(hnp.arrays(np.float64, (n_rows, width), elements=finite))
    values = draw(hnp.arrays(np.float64, (batch, width), elements=finite))
    return table, rows, values


@settings(max_examples=200, deadline=None)
@given(scatters())
def test_scatter_add_matches_add_at(case):
    table, rows, values = case
    expected = table.copy()
    np.add.at(expected, rows, values)
    got = table.copy()
    _scatter_add(got, rows, values)
    assert np.array_equal(got, expected)


@pytest.mark.parametrize("view", [lambda t: t[:, :3], lambda t: t.T])
def test_scatter_add_rejects_non_contiguous_target(view):
    target = view(np.zeros((5, 4)))
    with pytest.raises(ValueError, match="C-contiguous"):
        _scatter_add(target, np.array([0, 1]), np.ones((2, target.shape[1])))


def _mf_epoch_2d(self, users, items, negatives, rng):
    """MF epoch with one 2-D np.add.at per parameter table (the reference)."""
    P, Q, bu, bi = (np.array(a) for a in (self.P, self.Q, self.bu, self.bi))
    u_all = np.concatenate([users, users])
    i_all = np.concatenate([items, negatives])
    y = np.concatenate([np.ones(len(items)), np.zeros(len(items))])
    order = rng.permutation(len(u_all))
    for lo in range(0, len(order), SGD_BATCH):
        sel = order[lo : lo + SGD_BATCH]
        u, i, yy = u_all[sel], i_all[sel], y[sel]
        pu, qi = P[u], Q[i]
        g = 1.0 / (1.0 + np.exp(-(bu[u] + bi[i] + (pu * qi).sum(axis=1)))) - yy
        np.add.at(P, u, -self.lr * (g[:, None] * qi + self.l2 * pu))
        np.add.at(Q, i, -self.lr * (g[:, None] * pu + self.l2 * qi))
        np.add.at(bu, u, -self.lr * (g + self.l2 * bu[u]))
        np.add.at(bi, i, -self.lr * (g + self.l2 * bi[i]))
    self.PB[:, : self.dim], self.PB[:, self.dim] = P, bu
    self.QB[:, : self.dim], self.QB[:, self.dim] = Q, bi


def _bpr_epoch_2d(self, users, items, negatives, rng):
    """BPR epoch with one 2-D np.add.at per (table, row set) (the reference)."""
    P, Q, bi = (np.array(a) for a in (self.P, self.Q, self.bi))
    order = rng.permutation(len(users))
    for lo in range(0, len(order), SGD_BATCH):
        sel = order[lo : lo + SGD_BATCH]
        u, i, j = users[sel], items[sel], negatives[sel]
        pu, qi, qj = P[u], Q[i], Q[j]
        g = -1.0 / (1.0 + np.exp(bi[i] - bi[j] + (pu * (qi - qj)).sum(axis=1)))
        np.add.at(P, u, -self.lr * (g[:, None] * (qi - qj) + self.l2 * pu))
        np.add.at(Q, i, -self.lr * (g[:, None] * pu + self.l2 * qi))
        np.add.at(Q, j, -self.lr * (-g[:, None] * pu + self.l2 * qj))
        np.add.at(bi, i, -self.lr * (g + self.l2 * bi[i]))
        np.add.at(bi, j, -self.lr * (-g + self.l2 * bi[j]))
    self.PB[:, : self.dim] = P
    self.QB[:, : self.dim], self.QB[:, self.dim] = Q, bi


class _Mf2d(MfRanker):
    _epoch = _mf_epoch_2d


class _Bpr2d(BprRanker):
    _epoch = _bpr_epoch_2d


@pytest.mark.parametrize("dim", [1, 7, 8, 31, 32])
@pytest.mark.parametrize("fast, reference", [(MfRanker, _Mf2d), (BprRanker, _Bpr2d)])
def test_factor_sgd_bit_identical_to_2d_add_at(fast, reference, dim):
    # skewed ids put many duplicate rows in every batch; the catalog grows
    # between retrains, so warm starts and cold-genre rows are covered too.
    # A sum over d products rounds like one over d + 1 (with a zero appended)
    # only at some d, so the dims include ones where a kernel that sums the
    # bias column into the dot product would differ.
    rng = np.random.default_rng(7)
    cat = catalog_with(30, genre_of=lambda i: i % 4)
    n = 3000
    clicks = np.column_stack([
        np.minimum(rng.zipf(1.5, n) - 1, 49), np.minimum(rng.zipf(1.3, n) - 1, 29), np.zeros(n, int)
    ])
    rankers = [cls(n_users=50, dim=dim, lr=0.01, epochs=2, l2=1e-3, seed=3) for cls in (fast, reference)]
    for step in range(3):
        for r in rankers:
            r.retrain(clicks, cat, step)
        for k in range(5):
            cat.add(k, k % 4, "new", [], "", step + 1)
    got, want = rankers
    for attr in ("PB", "QB", "cold_vec", "cold_bias"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


def _grow_per_genre(self, catalog):
    """`_FactorRanker._grow` as a per-genre loop: each fresh row takes the mean
    of the trained rows of its genre (the reference)."""
    n = len(catalog)
    if n <= self.n_items:
        return
    genres = catalog.genre
    grown = np.zeros((n, self.dim + 1))
    grown[: self.n_items] = self.QB
    if self.n_items > 0:
        for g in range(int(genres.max()) + 1):
            old = np.where(genres[: self.n_items] == g)[0]
            if len(old) == 0:
                continue
            fresh = np.where(genres[self.n_items:] == g)[0] + self.n_items
            grown[fresh, : self.dim] = self.Q[old].mean(axis=0)
            grown[fresh, self.dim] = self.bi[old].mean()
    self.QB, self.n_items = grown, n


class _MfPerGenre(MfRanker):
    _grow = _grow_per_genre


class _BprPerGenre(BprRanker):
    _grow = _grow_per_genre


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("fast, reference", [(MfRanker, _MfPerGenre), (BprRanker, _BprPerGenre)])
def test_grow_from_cold_table_bit_identical_to_per_genre_means(fast, reference, seed):
    # items arrive every step, in genres 0-5 of which the seed catalog has 0-2,
    # and the rankers retrain every second step on the grown catalog
    rng = np.random.default_rng(seed)
    cat = catalog_with(20, genre_of=lambda i: i % 3)
    rankers = [cls(n_users=12, dim=8, lr=0.05, epochs=2, l2=1e-4, seed=seed) for cls in (fast, reference)]
    for step in range(1, 26):
        for k in range(int(rng.integers(0, 4))):
            cat.add(k % 2, int(rng.integers(0, 6)), "new", [], "", step)
        if step % 2 == 0:
            clicks = np.column_stack([
                rng.integers(0, 12, 100), rng.integers(0, len(cat), 100), np.full(100, step)
            ])
            for r in rankers:
                r.retrain(clicks, cat, step)
    got, want = rankers
    assert got.n_items == want.n_items > 20 and len(got.cold_vec) == 6
    for attr in ("PB", "QB", "cold_vec", "cold_bias"):
        assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


@pytest.mark.parametrize("name", ["mf", "bpr"])
def test_one_item_catalog_run_does_not_warn(tmp_path, name):
    """A run whose synthetic catalog starts with one item drives some logits
    far enough that `exp` overflows to inf; the gradient there is exact."""
    cfg = SimConfig(n_users=60, n_creators=1, n_steps=30, synth_items_per_creator=1, ranker=name)
    run = run_simulation(cfg, out_dir=tmp_path / "run")
    assert run.report["tuw"] > 0


def test_factor_views_are_read_only():
    r = MfRanker(n_users=3, dim=4, lr=0.05, epochs=1, l2=0.0, seed=1)
    r.retrain([(0, 0, 0), (1, 1, 0)], catalog_with(2), 0)
    for view in (r.P, r.Q, r.bu, r.bi):
        assert np.shares_memory(view, r.PB) or np.shares_memory(view, r.QB)
        with pytest.raises(ValueError):
            view[0] = 1.0


def _factor_score_per_user(r, user, item_ids, cat):
    """A factor ranker's score with its item rows gathered for this one user (the reference)."""
    vecs = np.zeros((len(item_ids), r.dim))
    bias = np.zeros(len(item_ids))
    known = item_ids < r.n_items
    vecs[known], bias[known] = r.Q[item_ids[known]], r.bi[item_ids[known]]
    for row in np.flatnonzero(~known):
        g = cat.genre[item_ids[row]]
        if g < len(r.cold_vec):
            vecs[row], bias[row] = r.cold_vec[g], r.cold_bias[g]
    return r.bu[user] + bias + vecs @ r.P[user]


def _trained_rankers():
    """Every ranker trained on genres 0-3, then a catalog grown past it: fresh
    items (rows at or beyond `n_items`) in trained genres and in genres 5 and 6,
    which are outside the cold table."""
    cat = catalog_with(40, genre_of=lambda i: i % 4)
    rng = np.random.default_rng(11)
    clicks = np.column_stack([rng.integers(0, 6, 200), rng.integers(0, 40, 200), np.ones(200, int)])
    rankers = [make_ranker(name, n_users=6, seed=4, **{**RANKER_SETTINGS, "dim": 8}) for name in ("random", "pop", "mf", "bpr")]
    for r in rankers:
        r.retrain(clicks, cat, 1)
    for k in range(12):
        cat.add(k % 2, [0, 3, 5, 6][k % 4], "fresh", [], "", 2)
    return rankers + [PopRanker(window=20)], cat  # the last one never trained


@pytest.mark.parametrize("ids", [
    np.arange(52),                      # trained and fresh rows
    np.array([3, 41, 40, 50, 7, 51]),   # unsorted, with cold rows in and outside the table
    np.array([46, 43]),                 # fresh rows outside the cold table only
    np.array([], dtype=np.int64),       # an empty pool
])
def test_scorer_equals_score_bit_for_bit(ids):
    rankers, cat = _trained_rankers()
    for r in rankers:
        score = r.scorer(ids, cat)
        for user in (0, 5, 2, 0):  # one scorer serves users in turn
            got = score(user)
            assert got.dtype == np.float64 and got.shape == ids.shape
            assert np.array_equal(got, r.scorer(ids, cat)(user)), r.name
            if r.name in ("mf", "bpr"):
                assert np.array_equal(got, _factor_score_per_user(r, user, ids, cat)), r.name


@settings(max_examples=60, deadline=None)
@given(cls=st.sampled_from([MfRanker, BprRanker]), dim=st.sampled_from([1, 8, 33]), data=st.data())
def test_scoring_grows_the_rows_a_retrain_would(cls, dim, data):
    """A factor ranker that scores pools between retrains trains as a twin that
    never scored: the same PB, QB and cold table after every retrain on clicks,
    bit for bit. Each new item it scores gets its genre's cold row, or zeros
    for a genre outside the cold table, and its scores are those of the twin's
    items with the cold rows gathered on the fly."""
    cat = catalog_with(data.draw(st.integers(1, 6), label="seed items"), genre_of=lambda i: i % 2)
    scoring, twin = (cls(n_users=4, dim=dim, lr=0.05, epochs=1, l2=1e-3, seed=dim) for _ in range(2))
    for step in range(5):
        # new items in genres 0-5, some past the cold table (empty until a retrain on clicks)
        for k in range(data.draw(st.integers(0, 3), label="new items")):
            cat.add(k % 2, data.draw(st.integers(0, 5), label="genre"), "new", [], "", step)
        for _ in range(data.draw(st.integers(0, 2), label="pools")):
            ids = np.array(data.draw(st.lists(st.integers(0, len(cat) - 1), max_size=8), label="pool"), np.int64)
            n_rows = scoring.n_items
            score = scoring.scorer(ids, cat)
            for item in ids[ids >= n_rows]:
                g = cat.genre[item]
                in_table = g < len(scoring.cold_vec)
                vec, bias = (scoring.cold_vec[g], scoring.cold_bias[g]) if in_table else (np.zeros(dim), 0.0)
                assert np.array_equal(scoring.Q[item], vec) and scoring.bi[item] == bias
            for user in range(4):
                assert np.array_equal(score(user), _factor_score_per_user(twin, user, ids, cat))
        # the first retrain is on no clicks, the last on some
        n = 0 if step == 0 else data.draw(st.integers(int(step == 4), 30), label="clicks")
        clicks = np.column_stack([
            data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)), label="users"),
            data.draw(hnp.arrays(np.int64, n, elements=st.integers(0, len(cat) - 1)), label="items"),
            np.full(n, step),
        ])
        for r in (scoring, twin):
            r.retrain(clicks, cat, step)
        if n:
            for attr in ("PB", "QB", "cold_vec", "cold_bias"):
                assert np.array_equal(getattr(scoring, attr), getattr(twin, attr)), attr


class _FixedScores:
    """A ranker whose scores are given, the same for every user."""

    def __init__(self, scores):
        self.scores = scores

    def scorer(self, item_ids, catalog):
        return lambda user: self.scores


def catalog_created(ids, created):
    """A catalog in which item `ids[k]` was created at step `created[k]`."""
    n = max(ids.tolist(), default=-1) + 1
    steps = np.zeros(n, dtype=np.int64)
    steps[ids] = created
    cat = Catalog()
    cat.extend([0] * n, [0] * n, steps, [""] * n, [()] * n, [""] * n)
    return cat


def _lexsort_top(ids, created, scores, k):
    """The top-k as a full 3-key lexsort gives it (the reference)."""
    order = np.lexsort((ids, -created, -scores))[:k]
    return ids[order].tolist(), scores[order]


# few distinct values force ties; 0.0 and -0.0 compare equal, NaN sorts last
tie_prone_scores = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.5, np.inf, -np.inf, np.nan])


@st.composite
def ranked_pools(draw):
    n = draw(st.integers(0, 30))
    ids = np.asarray(draw(st.permutations(range(60)))[:n], dtype=np.int64)
    created = draw(hnp.arrays(np.int64, n, elements=st.integers(0, 3)))
    scores = draw(hnp.arrays(np.float64, n, elements=tie_prone_scores | st.floats(-3, 3)))
    k = draw(st.sampled_from([1, n, n + 1]) | st.integers(1, max(n, 1)))
    return ids, created, scores, k


@settings(max_examples=400, deadline=None)
@given(ranked_pools())
def test_rank_scored_equals_lexsort(case):
    ids, created, scores, k = case
    view = pool_view(_FixedScores(scores), ids, catalog_created(ids, created))
    got_ids, got_scores = rank_scored(view, 0, k)
    want_ids, want_scores = _lexsort_top(ids, created, scores, k)
    assert got_ids.tolist() == want_ids
    # bit for bit, so a NaN equals itself and -0.0 differs from 0.0
    assert got_scores.dtype == np.float64 and got_scores.tobytes() == want_scores.tobytes()


def test_rank_scored_nan_cut_keeps_every_item():
    scores = np.array([np.nan, 1.0, np.nan, 0.0, np.nan])
    ids, created = np.arange(5), np.zeros(5, dtype=np.int64)
    view = pool_view(_FixedScores(scores), ids, catalog_created(ids, created))
    assert rank_scored(view, 0, 3)[0].tolist() == [1, 3, 0]
    assert rank_scored(view, 0, 4)[0].tolist() == [1, 3, 0, 2]
