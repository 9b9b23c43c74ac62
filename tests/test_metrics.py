import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim.core import EventLog
from creatorsim.ingest import DEFAULT_GENRES
from creatorsim.metrics import (
    BadDistribution,
    EmptyItems,
    NoCreatorsAtStart,
    NoExposures,
    ZeroBaseline,
    alignment_from_distributions,
    content_genre_diversity,
    creator_retention_rate,
    explore_exploit_table,
    genre_histogram,
    js_divergence,
    normalized_reward_curve,
    per_creator_entropies,
    total_user_welfare,
)


def ev(step, user, item, clicked=False):
    return step, user, item, clicked


def log_of(events):
    """A log holding `events`, (step, user, item, clicked) rows in order."""
    log = EventLog()
    if events:
        log.extend(*zip(*events))
    return log


class TestTuw:
    def test_filtered_count(self):
        log = log_of([
            ev(1, 0, 0, clicked=True),
            ev(2, 0, 1, clicked=True),
            ev(10, 0, 2, clicked=True),
            ev(11, 0, 3, clicked=True),
            ev(12, 0, 4, clicked=True),
        ])
        assert total_user_welfare(log, 10, 20) == 3

    def test_empty_log(self):
        assert total_user_welfare(EventLog(), 0, 100) == 0

    def test_additivity(self):
        log = log_of([ev(s, 0, s % 3, clicked=(s % 2 == 0)) for s in range(20)])
        whole = total_user_welfare(log, 0, 19)
        assert whole == total_user_welfare(log, 0, 9) + total_user_welfare(log, 10, 19)


class TestCrr:
    def test_division(self):
        alive = {10: 50, 100: 45}
        assert creator_retention_rate(lambda n: alive[n], 10, 100) == pytest.approx(0.9)

    def test_no_departures(self):
        assert creator_retention_rate(lambda n: 50, 10, 100) == 1.0

    def test_empty_start_rejected(self):
        with pytest.raises(NoCreatorsAtStart):
            creator_retention_rate(lambda n: 0, 10, 100)


class TestCgd:
    def test_uniform_fourteen_genres_is_ln14(self):
        log = log_of([ev(step, user, g) for step in range(1, 3) for user in range(3) for g in range(14)])
        val = content_genre_diversity(log, np.arange(14), 14, 1, 2)
        assert val == pytest.approx(math.log(14), abs=1e-9)

    def test_single_genre_is_zero(self):
        log = log_of([ev(step, 0, step) for step in range(1, 4)])
        val = content_genre_diversity(log, np.full(4, 5), 14, 1, 3)
        assert val == 0.0

    def test_bounded_by_log_g(self):
        rng = np.random.default_rng(0)
        events = []
        for step in range(1, 10):
            for user in range(4):
                for item in range(6):
                    if rng.random() < 0.5:
                        events.append(ev(step, user, item))
        log = log_of(events)
        val = content_genre_diversity(log, np.arange(6) % 5, 5, 1, 9)
        assert 0.0 <= val <= math.log(5) + 1e-12

    def test_no_exposures_rejected(self):
        with pytest.raises(NoExposures):
            content_genre_diversity(EventLog(), np.zeros(1, np.int64), 14, 1, 10)

    def test_participation_weighting(self):
        # user 0 active 2 steps with entropy 0; user 1 active 1 step, entropy ln 2
        log = log_of([ev(1, 0, 0), ev(1, 1, 0), ev(1, 1, 1), ev(2, 0, 0)])
        val = content_genre_diversity(log, np.arange(2), 2, 1, 2)
        assert val == pytest.approx((2 * 0.0 + 1 * math.log(2)) / 3)


class TestJsd:
    def test_identical_is_zero(self):
        assert js_divergence([0.25, 0.75], [0.25, 0.75]) == 0.0

    def test_disjoint_is_one(self):
        assert js_divergence([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0, abs=1e-9)

    def test_half_vs_point_mass(self):
        assert js_divergence([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.311278, abs=1e-5)

    def test_bad_distribution(self):
        with pytest.raises(BadDistribution):
            js_divergence([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(BadDistribution):
            js_divergence([0.5, 0.5], [1.0, 0.0, 0.0])
        with pytest.raises(BadDistribution):
            js_divergence([-0.5, 1.5], [0.5, 0.5])


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_jsd_symmetric_and_bounded(data):
    n = data.draw(st.integers(2, 10))
    raw_p = [data.draw(st.floats(0.001, 1.0)) for _ in range(n)]
    raw_q = [data.draw(st.floats(0.001, 1.0)) for _ in range(n)]
    p = np.asarray(raw_p) / sum(raw_p)
    q = np.asarray(raw_q) / sum(raw_q)
    a = js_divergence(p, q)
    b = js_divergence(q, p)
    assert a == pytest.approx(b, abs=1e-12)
    assert -1e-12 <= a <= 1.0 + 1e-12


def _alignment(sim_items, ref_items):
    """(preference JSD, diversity JSD) of two lists of (creator, genre) items,
    computed as `report()` computes them."""
    n_genres = len(DEFAULT_GENRES)
    sim = np.asarray(sim_items, dtype=np.int64).reshape(-1, 2)
    ref = np.asarray(ref_items, dtype=np.int64).reshape(-1, 2)
    return alignment_from_distributions(
        genre_histogram(sim[:, 1], n_genres),
        genre_histogram(ref[:, 1], n_genres),
        per_creator_entropies(sim[:, 0], sim[:, 1], n_genres),
        per_creator_entropies(ref[:, 0], ref[:, 1], n_genres),
        n_genres,
    )


class TestAlignment:
    def test_identical_inputs_are_zero(self):
        items = [(0, 1), (0, 2), (1, 1), (1, 1)]
        assert _alignment(items, items) == (0.0, 0.0)

    def test_single_genre_creators_vs_mixed(self):
        ref = [(c, g) for c in range(8) for g in range(4)]
        sim = [(c, 0) for c in range(8) for _ in range(4)]
        pref, div = _alignment(sim, ref)
        assert div > 0.3

    def test_sampling_from_own_histogram_converges(self):
        rng = np.random.default_rng(1)
        ref = [(c, int(g)) for c in range(20) for g in rng.choice(14, size=50, p=np.full(14, 1 / 14))]
        hist = np.bincount([g for _, g in ref], minlength=14).astype(float)
        hist /= hist.sum()
        sim = [(int(c), int(g)) for c, g in zip(rng.integers(0, 20, 3000), rng.choice(14, 3000, p=hist))]
        pref, _ = _alignment(sim, ref)
        assert pref < 0.05

    def test_empty_rejected(self):
        with pytest.raises(EmptyItems):
            _alignment([], [(0, 1)])


class TestNormalizedReward:
    def test_identical_runs_all_ones(self):
        rewards = [0.0, 0.0, 2.0, 3.0]
        assert normalized_reward_curve(rewards, rewards) == [1.0, 1.0, 1.0, 1.0]

    def test_double_baseline(self):
        base = [1.0, 2.0, 3.0]
        run = [2.0, 4.0, 6.0]
        assert normalized_reward_curve(run, base) == [2.0, 2.0, 2.0]

    def test_zero_baseline_rejected(self):
        with pytest.raises(ZeroBaseline):
            normalized_reward_curve([1.0, 1.0], [0.0, 1.0])


class TestExploreExploitTable:
    def test_all_exploit(self):
        decisions = [(q, "EXPLOIT") for q in np.linspace(0, 1, 50)]
        table = explore_exploit_table(decisions)
        for bucket in table["buckets"]:
            assert bucket["exploit"] == 1.0
            assert bucket["explore"] == 0.0

    def test_proportions_sum_to_one(self):
        rng = np.random.default_rng(3)
        decisions = [
            (float(rng.random()), "EXPLORE" if rng.random() < 0.3 else "EXPLOIT")
            for _ in range(200)
        ]
        table = explore_exploit_table(decisions)
        for bucket in table["buckets"]:
            assert bucket["explore"] + bucket["exploit"] == pytest.approx(1.0)

    def test_equal_count_buckets(self):
        decisions = [(q, "EXPLOIT") for q in np.linspace(0, 1, 100)]
        counts = [b["count"] for b in explore_exploit_table(decisions)["buckets"]]
        assert counts == [20] * 5

    def test_sparse_input_marks_empty_buckets(self):
        table = explore_exploit_table([(0.5, "EXPLORE")])
        counts = [b["count"] for b in table["buckets"]]
        assert sum(counts) == 1
        assert any(b["explore"] is None for b in table["buckets"])
