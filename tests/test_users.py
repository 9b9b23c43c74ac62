import numpy as np
import pytest

from creatorsim.core import stream
from creatorsim.users import (
    SessionClosed,
    UserAction,
    UserRuntime,
    click_probability,
    end_step,
    is_active,
    react,
)


class ScriptedRng:
    """Feeds a fixed sequence of uniform draws."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def make_user(n_genres=14, pref=None, activity=0.5):
    if pref is None:
        pref = np.full(n_genres, 1.0 / n_genres)
    return UserRuntime(user_id=0, preference=np.asarray(pref, dtype=float), activity=activity)


class TestIsActive:
    def test_always_visits(self):
        u = make_user(activity=1.0)
        rng = stream(0, "u")
        assert all(is_active(u, rng) for _ in range(50))

    def test_never_visits(self):
        u = make_user(activity=0.0)
        rng = stream(0, "u")
        assert not any(is_active(u, rng) for _ in range(50))

    def test_empirical_rate(self):
        u = make_user(activity=0.3)
        rng = stream(1, "u")
        hits = sum(is_active(u, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.3, abs=0.02)


class TestReact:
    def test_uniform_pref_no_satiation_probability(self):
        u = make_user()
        assert click_probability(u, 0) == pytest.approx(0.8)

    def test_zero_affinity_never_clicks(self):
        pref = np.zeros(14)
        pref[1] = 1.0
        u = make_user(pref=pref)
        rng = stream(3, "u")
        for _ in range(30):
            u.exited = False
            assert react(u, 0, rng) is not UserAction.CLICK

    def test_exit_probability_after_three_skips(self):
        u = make_user(pref=np.zeros(14))
        u.preference[0] = 0.0  # never clicks
        u.consecutive_skips = 3
        # click draw fails (any value), exit draw compared against 0.5
        assert react(u, 0, ScriptedRng([0.9, 0.499])) is UserAction.EXIT
        u = make_user(pref=np.zeros(14))
        u.consecutive_skips = 3
        assert react(u, 0, ScriptedRng([0.9, 0.501])) is UserAction.SKIP

    def test_satiation_discounts_click_probability(self):
        u = make_user()
        u.recent_exposure[0] = 10.0
        assert click_probability(u, 0) == pytest.approx(0.8 / 3.0)

    def test_click_resets_skip_streak(self):
        u = make_user()
        u.consecutive_skips = 4
        assert react(u, 0, ScriptedRng([0.0])) is UserAction.CLICK
        assert u.consecutive_skips == 0

    def test_react_after_exit_rejected(self):
        u = make_user()
        u.exited = True
        with pytest.raises(SessionClosed):
            react(u, 0, ScriptedRng([0.0]))

    def test_click_rate_monotone_in_preference(self):
        probs = []
        for w in np.linspace(0.0, 1.0, 21):
            pref = np.full(14, (1.0 - w) / 13)
            pref[0] = w
            u = make_user(pref=pref)
            probs.append(click_probability(u, 0))
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))


class TestEndStep:
    def test_session_reset(self):
        u = make_user()
        u.consecutive_skips = 4
        u.items_seen = 3
        u.exited = True
        end_step([u], u.recent_exposure)
        assert (u.consecutive_skips, u.items_seen, u.exited) == (0, 0, False)

    def test_decay(self):
        u = make_user()
        u.recent_exposure[2] = 10.0
        end_step([u], u.recent_exposure)
        assert u.recent_exposure[2] == pytest.approx(8.0)
        end_step([u], u.recent_exposure)
        assert u.recent_exposure[2] == pytest.approx(6.4)

    def test_population_decay_equals_per_user_decay(self):
        # users whose counters are rows of one table, decayed in one op, against
        # users with their own arrays, reset and decayed one by one
        n_users, n_genres, decay = 25, 14, 0.7
        pref = np.random.default_rng(0).dirichlet(np.ones(n_genres), size=n_users)
        table = np.zeros((n_users, n_genres))
        users = [
            UserRuntime(i, pref[i], 0.5, recent_exposure=table[i]) for i in range(n_users)
        ]
        alone = [UserRuntime(i, pref[i], 0.5) for i in range(n_users)]
        visits = np.random.default_rng(1)
        for step in range(300):
            visitors = np.flatnonzero(visits.random(n_users) < 0.4).tolist()
            for idx in visitors:
                feed = visits.integers(0, n_genres, size=6).tolist()
                for u in (users[idx], alone[idx]):
                    rng = stream(step, "feed", idx)  # the same draws for both copies
                    for genre in feed:
                        if react(u, genre, rng) is UserAction.EXIT:
                            break
            end_step([users[idx] for idx in visitors], table, decay)
            for u in alone:
                u.consecutive_skips, u.items_seen, u.exited = 0, 0, False
                u.recent_exposure *= decay
            for u, ref in zip(users, alone):
                assert np.array_equal(u.recent_exposure, ref.recent_exposure)
                assert (u.consecutive_skips, u.items_seen, u.exited) == (0, 0, False)
        assert all(np.shares_memory(u.recent_exposure, table) for u in users)
        assert table.any() and not (table > 1e6).any()
