from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim.core import SimConfig, stream
from creatorsim.harness import _World
from creatorsim.ingest import SynthParams, synth_dataset
from creatorsim.recsys import build_candidate_pool
from creatorsim.users import NOVELTY_WEIGHT, click_probability, serve_session

PARAMS = dict(alpha_click=0.8, exit_base=0.05, exit_per_skip=0.15)


# -- the reference: a user object that keeps its session state across items --


@dataclass
class RefUser:
    preference: np.ndarray
    recent_exposure: np.ndarray = field(default=None)
    consecutive_skips: int = 0
    exited: bool = False

    def __post_init__(self):
        if self.recent_exposure is None:
            self.recent_exposure = np.zeros(len(self.preference))


def ref_react(user, genre, rng, alpha_click, exit_base, exit_per_skip):
    """One item: 'click', 'skip' or 'exit'; the hazard uses the streak before this item."""
    assert not user.exited
    novelty = 1.0 / (1.0 + NOVELTY_WEIGHT * user.recent_exposure[genre])
    p_click = min(max(alpha_click * float(user.preference[genre]) * len(user.preference) * novelty, 0.0), 1.0)
    user.recent_exposure[genre] += 1.0
    if rng.random() < p_click:
        user.consecutive_skips = 0
        return "click"
    if rng.random() < exit_base + exit_per_skip * user.consecutive_skips:
        user.exited = True
        return "exit"
    user.consecutive_skips += 1
    return "skip"


def ref_session(genres, user, rng, alpha_click, exit_base, exit_per_skip):
    """The session as item-by-item reactions, then the end-of-step reset."""
    clicked = []
    for genre in genres:
        action = ref_react(user, genre, rng, alpha_click, exit_base, exit_per_skip)
        clicked.append(action == "click")
        if action == "exit":
            break
    user.consecutive_skips, user.exited = 0, False
    return clicked


def uniform(n_genres=14):
    return np.full(n_genres, 1.0 / n_genres)


def serve(genres, preference, satiation, uniforms):
    return serve_session(
        np.asarray(genres, dtype=np.int64), preference, satiation, np.asarray(uniforms, dtype=float),
        **PARAMS,
    )

@st.composite
def sessions(draw):
    G = draw(st.integers(1, 6))
    unit = st.floats(0.0, 1.0, allow_nan=False)
    return dict(
        genres=draw(st.lists(st.integers(0, G - 1), max_size=20)),
        preference=np.asarray(draw(st.lists(unit, min_size=G, max_size=G))),
        satiation=np.asarray(draw(st.lists(st.floats(0.0, 30.0, allow_nan=False), min_size=G, max_size=G))),
        params=dict(
            alpha_click=draw(st.floats(0.0, 3.0, allow_nan=False)),
            exit_base=draw(unit),
            exit_per_skip=draw(st.floats(0.0, 0.5, allow_nan=False)),
        ),
        seed=draw(st.integers(0, 2**32 - 1)),
    )


class TestServeSessionEqualsReactLoop:
    @settings(max_examples=300, deadline=None)
    @given(case=sessions())
    def test_flags_satiation_and_draws_equal_reference(self, case):
        user = RefUser(case["preference"].copy(), case["satiation"].copy())
        ref_rng = np.random.default_rng(case["seed"])
        expected = ref_session(case["genres"], user, ref_rng, **case["params"])

        satiation = case["satiation"].copy()
        # two uniforms per item is the most a session can read
        uniforms = np.random.default_rng(case["seed"]).random(2 * len(case["genres"]))
        got = serve_session(
            np.asarray(case["genres"], dtype=np.int64), case["preference"], satiation, uniforms,
            **case["params"],
        )
        assert got == expected
        assert all(type(flag) is bool for flag in got)
        assert np.array_equal(satiation, user.recent_exposure)
        # the session read as many uniforms as the reference drew: one per
        # click, two per miss
        rng = np.random.default_rng(case["seed"])
        rng.random(2 * len(got) - sum(got))
        assert rng.bit_generator.state == ref_rng.bit_generator.state


def world_visitors(activity: float, n_users: int, n_steps: int) -> list[set[int]]:
    """Each step's visitors, as the users in the step's events, at one visit probability."""
    cfg = SimConfig(
        n_users=n_users, n_creators=5, n_steps=n_steps, ranker="random", reranker="none",
        synth_items_per_creator=4, synth_interactions_per_user=3,
    )
    world = _World(cfg, synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth")))
    world.activity[:] = activity
    visitors = []
    for n in range(1, n_steps + 1):
        pool = build_candidate_pool(world.catalog, n, cfg.timeliness_window)
        assert len(pool), "a visitor with a non-empty pool has at least one exposure"
        world.phase_serve(n, pool)
        visitors.append(set(world.log.user[world.log.step == n].tolist()))
    return visitors


class TestIsActive:
    def test_always_visits(self):
        assert world_visitors(1.0, 30, 10) == [set(range(30))] * 10

    def test_never_visits(self):
        assert world_visitors(0.0, 30, 10) == [set()] * 10

    def test_empirical_rate(self):
        visits = sum(map(len, world_visitors(0.3, 500, 20)))
        assert visits / 10_000 == pytest.approx(0.3, abs=0.02)


class TestReact:
    def test_uniform_pref_no_satiation_probability(self):
        assert click_probability(uniform(), np.zeros(14), 0, 0.8) == pytest.approx(0.8)

    def test_zero_affinity_never_clicks(self):
        pref = np.zeros(14)
        pref[1] = 1.0
        rng = stream(3, "u")
        for _ in range(30):
            assert not any(serve([0] * 5, pref, np.zeros(14), rng.random(10)))

    def test_exit_probability_after_three_skips(self):
        # never clicks; three skips (click draw, exit draw each), then the fourth
        # item's exit draw is compared against 0.05 + 0.15 * 3 = 0.5
        skips = [0.9, 0.9] * 3
        exits = serve([0] * 5, np.zeros(14), np.zeros(14), skips + [0.9, 0.499])
        assert exits == [False] * 4
        stays = serve([0] * 5, np.zeros(14), np.zeros(14), skips + [0.9, 0.501, 0.9, 0.9])
        assert stays == [False] * 5

    def test_satiation_discounts_click_probability(self):
        satiation = np.zeros(14)
        satiation[0] = 10.0
        assert click_probability(uniform(), satiation, 0, 0.8) == pytest.approx(0.8 / 3.0)

    def test_click_resets_skip_streak(self):
        # four skips, a click, then a miss whose exit draw 0.06 stays under the
        # reset hazard 0.05 but not the streak's 0.05 + 0.15 * 4
        draws = [0.99, 0.99] * 4 + [0.0] + [0.99, 0.06] + [0.99, 0.99]
        flags = serve([0] * 7, uniform(), np.zeros(14), draws)
        assert flags == [False] * 4 + [True, False, False]

    def test_click_rate_monotone_in_preference(self):
        probs = []
        for w in np.linspace(0.0, 1.0, 21):
            pref = np.full(14, (1.0 - w) / 13)
            pref[0] = w
            probs.append(click_probability(pref, np.zeros(14), 0, 0.8))
        assert all(a <= b + 1e-12 for a, b in zip(probs, probs[1:]))


class TestEndStep:
    def test_decay(self):
        cfg = SimConfig(n_users=3, n_creators=2, n_steps=2, ranker="random", reranker="none")
        world = _World(cfg, synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth")))
        world.recent_exposure[1, 2] = 10.0
        world.phase_lifecycle(1, 0.0)
        assert world.recent_exposure[1, 2] == pytest.approx(8.0)
        world.phase_lifecycle(2, 0.0)
        assert world.recent_exposure[1, 2] == pytest.approx(6.4)

    def test_population_decay_equals_per_user_decay(self):
        # users whose counters are rows of one table, served in place and decayed
        # in one op, against reference users with their own arrays, reacting
        # item by item and decayed one by one
        n_users, n_genres, decay = 25, 14, 0.7
        pref = np.random.default_rng(0).dirichlet(np.ones(n_genres), size=n_users)
        table = np.zeros((n_users, n_genres))
        alone = [RefUser(pref[i].copy()) for i in range(n_users)]
        visits = np.random.default_rng(1)
        for step in range(300):
            visitors = np.flatnonzero(visits.random(n_users) < 0.4).tolist()
            for idx in visitors:
                feed = visits.integers(0, n_genres, size=6)
                # the same draws for both copies
                flags = serve(feed, pref[idx], table[idx], stream(step, "feed", idx).random(12))
                expected = ref_session(feed.tolist(), alone[idx], stream(step, "feed", idx), **PARAMS)
                assert flags == expected
            table *= decay
            for u in alone:
                u.recent_exposure *= decay
            for row, ref in zip(table, alone):
                assert np.array_equal(row, ref.recent_exposure)
        assert table.any() and not (table > 1e6).any()
