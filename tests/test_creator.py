from dataclasses import dataclass, field

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import creatorsim.harness as harness
from creatorsim.core import Catalog, EventLog, SimConfig, creator_view, stream
from creatorsim.creator import (
    ActionKind,
    Beliefs,
    CreatedContent,
    CreatorRuntime,
    ExploreAction,
    FutureItem,
    RuleBasedPolicy,
    explore_probability,
    item_utility,
    retrieve_creation_memory,
    reward_percentile,
    rule_based_decide,
    template_content,
    update_beliefs,
)
from creatorsim.ingest import SynthParams, synth_dataset

GENRES = tuple(f"G{i}" for i in range(14))
CFG = SimConfig()
P_EXPLORE = (CFG.creagent_p_explore_max, CFG.creagent_p_explore_min)


@dataclass
class Seen(CreatorRuntime):
    """A creator beside the platform its items are rows of; the tests read its
    rows into its memory, as CREATE reads them, before each use."""

    platform: Catalog = field(default_factory=Catalog)


def make_creator(name="Ada", n_genres=14):
    return Seen(
        creator_id=0,
        name=name,
        identity="music enthusiast",
        motivation="sharing",
        activity=1.0,
        n_genres=n_genres,
        beliefs=Beliefs(skill=np.full(n_genres, 1.0 / n_genres), audience=np.full(n_genres, np.nan)),
    )


def read(state):
    """Store the creator's read of its rows as its memory, as CREATE does."""
    state.own = creator_view(state.platform, state.creator_id)


def add_item(state, item_id, genre, step, tags=()):
    while len(state.platform) < item_id:  # lower ids belong to another creator
        state.platform.add(state.creator_id + 1, 0, "other", (), "", 0)
    state.platform.add(state.creator_id, genre, f"t{item_id}", tuple(tags), "", step)
    read(state)


def position(state, item_id):
    """Index of own item `item_id` in the memory arrays."""
    return int(np.flatnonzero(state.own.items == item_id)[0])


def weighted(state, beta=CFG.beta):
    """Each own item's blend of its totals, from a fresh read, as CREATE blends them."""
    read(state)
    return beta * state.own.exposures + (1.0 - beta) * state.own.clicks


def utility(state, item_id, n, beta=CFG.beta):
    """Own item `item_id`'s utility at step `n`, from one read of the totals."""
    return float(item_utility(state, weighted(state, beta), n)[position(state, item_id)])


def refresh(state, n, beta=CFG.beta):
    """Refresh the beliefs as CREATE does, from the utilities at step `n`."""
    update_beliefs(state, item_utility(state, weighted(state, beta), n))


def totals(state, pos):
    """(exposures, clicks) of the own item at `pos`, as the platform keeps them."""
    read(state)
    return state.own.exposures[pos], state.own.clicks[pos]


def add_feedback(state, counts):
    """Add (item, exposures, clicks) counts to the platform's totals."""
    for item_id, exposures, clicks in counts:
        state.platform.add_feedback(np.array([item_id]), exposures, clicks)


class ScriptedRng:
    def __init__(self, values, ints=None):
        self.values = list(values)
        self.ints = list(ints or [])

    def random(self):
        return self.values.pop(0)

    def integers(self, lo, hi):
        return self.ints.pop(0) if self.ints else lo


class TestFeedbackMemory:
    def test_accumulation(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)
        add_feedback(c, [(5, 3, 1), (5, 2, 0)])
        assert totals(c, position(c, 5)) == (5, 1)
        assert c.own.clicks.tolist() == [1]

    def test_empty_step_is_noop(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)
        c.platform.add_feedback(np.array([], dtype=np.int64), 1, 1)
        assert totals(c, position(c, 5)) == (0, 0)

    def test_foreign_rows_are_not_read(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)  # items 0 to 4 are another creator's
        c.platform.add(c.creator_id + 1, 0, "other", (), "", 1)
        add_feedback(c, [(i, 3, 2) for i in (0, 4, 6)] + [(5, 1, 1)])
        read(c)
        assert (c.own.items.tolist(), c.own.exposures.tolist(), c.own.title) == ([5], [1], ["t5"])


class TestItemUtility:
    def test_worked_example(self):
        # created at step 3; per-step exposures (2,3,1), clicks (1,1,0); n=5
        c = make_creator()
        add_item(c, 0, 0, step=3)
        add_feedback(c, [(0, 2, 1), (0, 3, 1), (0, 1, 0)])
        assert utility(c, 0, 5, beta=0.5) == pytest.approx(4 / 3)

    def test_exposure_only_beta(self):
        c = make_creator()
        add_item(c, 0, 0, step=3)
        add_feedback(c, [(0, 2, 1), (0, 3, 1), (0, 1, 0)])
        assert utility(c, 0, 5, beta=1.0) == pytest.approx(2.0)

    def test_no_events_zero(self):
        c = make_creator()
        add_item(c, 0, 0, step=3)
        assert utility(c, 0, 10) == 0.0

    def test_future_item(self):
        c = make_creator()
        add_item(c, 0, 0, step=5)
        with pytest.raises(FutureItem):
            item_utility(c, weighted(c), 4)

    def test_matches_event_log_brute_force(self):
        rng = stream(17, "oracle")
        log = EventLog()
        c = make_creator()
        items = {}
        for step in range(1, 25):
            if step % 3 == 1 and len(items) < 6:
                item_id = len(items)
                items[item_id] = step
                add_item(c, item_id, 0, step)
            rows = []
            for user in range(4):
                for item_id in items:
                    if rng.random() < 0.5:
                        clicked = bool(rng.random() < 0.4)
                        rows.append((user, item_id, clicked))
            if rows:
                users, item_ids, clicks = zip(*rows)
                log.extend(step, users, item_ids, clicks)
            block = log.window(step, step)  # the step's events, added as SERVE adds them
            c.platform.add_feedback(block.item, 1, block.clicked)
            events = list(zip(log.step.tolist(), log.item.tolist(), log.clicked.tolist()))
            for item_id, t in items.items():
                exp = sum(1 for s, i, _ in events if i == item_id and t <= s <= step)
                clk = sum(1 for s, i, clicked in events if i == item_id and clicked and t <= s <= step)
                brute = (0.5 * exp + 0.5 * clk) / (step - t + 1)
                assert abs(utility(c, item_id, step, beta=0.5) - brute) <= 1e-9


class TestBeliefs:
    def test_skill_counting(self):
        c = make_creator()
        for i, g in enumerate([0, 0, 1]):
            add_item(c, i, g, step=1)
        refresh(c, 2)
        assert c.beliefs.skill[0] == pytest.approx(2 / 3)
        assert c.beliefs.skill[1] == pytest.approx(1 / 3)

    def test_audience_mean_utility(self):
        c = make_creator()
        add_item(c, 0, 0, step=1)
        add_item(c, 1, 0, step=1)
        # clicks so that utilities at n=2 are 1.0 and 3.0 (divide by 2)
        add_feedback(c, [(0, 2, 2), (1, 6, 6)])
        refresh(c, 2, beta=0.0)
        assert c.beliefs.audience[0] == pytest.approx(2.0)

    def test_explored_genre_becomes_known_at_zero(self):
        c = make_creator()
        add_item(c, 0, 3, step=1)
        refresh(c, 1)
        assert c.beliefs.audience[3] == 0.0
        assert np.isnan(np.delete(c.beliefs.audience, 3)).all()


class TestDecision:
    def test_explore_probability_endpoints(self):
        assert explore_probability(0.0, *P_EXPLORE) == pytest.approx(0.40)
        assert explore_probability(1.0, *P_EXPLORE) == pytest.approx(0.05)
        assert explore_probability(0.5, *P_EXPLORE) == pytest.approx(0.225)

    def test_first_decision_uses_midpoint(self):
        c = make_creator()
        assert reward_percentile(item_utility(c, weighted(c), 1)) == 0.5
        assert c.reward_pct == 0.5

    def test_threshold_behavior_via_scripted_rng(self):
        c = make_creator()
        # cold creator, q=0.5 -> p_explore=0.225; no known genres forces explore anyway
        action = rule_based_decide(c, ScriptedRng([0.224], ints=[2]), *P_EXPLORE)
        assert action.kind is ActionKind.EXPLORE

    def test_exploit_picks_argmax_product_with_tie_to_lowest(self):
        c = make_creator()
        for i, g in enumerate([0, 1, 2]):
            add_item(c, i, g, step=1)
        refresh(c, 1)
        c.beliefs.audience = np.array([3.0, 3.0, 1.0] + [np.nan] * 11)
        action = rule_based_decide(c, ScriptedRng([0.99]), *P_EXPLORE)
        assert action.kind is ActionKind.EXPLOIT
        assert action.genre == 0

    def test_explore_uniform_over_unknown(self):
        c = make_creator(n_genres=4)
        add_item(c, 0, 0, step=1)
        refresh(c, 1)
        rng = stream(3, "explore")
        actions = [rule_based_decide(c, rng, *P_EXPLORE) for _ in range(300)]
        seen = {a.genre for a in actions if a.kind is ActionKind.EXPLORE}
        assert seen == {1, 2, 3}

    def test_all_known_degrades_to_least_created(self):
        c = make_creator(n_genres=3)
        for i, g in enumerate([0, 0, 1, 1, 2]):
            add_item(c, i, g, step=1)
        refresh(c, 1)
        action = rule_based_decide(c, ScriptedRng([0.0]), *P_EXPLORE)
        assert action.kind is ActionKind.EXPLORE
        assert action.genre == 2

    def test_exploit_probability_monotone_in_percentile(self):
        grid = np.linspace(0, 1, 11)
        p = [1 - explore_probability(q, *P_EXPLORE) for q in grid]
        assert all(a <= b for a, b in zip(p, p[1:]))


def reference_decide(state, audience, rng, p_max, p_min):
    """The rule-based decision with audience beliefs as a dict of the known
    genres, looping over them in genre order, as it was before the array."""
    p_explore = explore_probability(state.reward_pct, p_max, p_min)
    known = sorted(audience.keys())
    explore = rng.random() < p_explore or not known
    if not explore:
        best_g, best_v = None, -np.inf
        for g in known:
            v = audience[g] * state.beliefs.skill[g]
            if v > best_v:
                best_g, best_v = g, v
        return ExploreAction(ActionKind.EXPLOIT, best_g)
    unknown = [g for g in range(state.n_genres) if g not in audience]
    if unknown:
        genre = int(unknown[rng.integers(0, len(unknown))])
    else:
        genre = int(np.argmin(np.bincount(state.own.genre, minlength=state.n_genres)))
    return ExploreAction(ActionKind.EXPLORE, genre)


@st.composite
def belief_cases(draw):
    """A creator with beliefs drawn from a few values, so products tie, and
    with all, some or none of its genres known."""
    G = draw(st.integers(1, 6))
    c = make_creator(n_genres=G)
    for i, g in enumerate(draw(st.lists(st.integers(0, G - 1), max_size=8))):
        add_item(c, i, g, step=1)
    known = draw(st.sampled_from(["all", "none", "some"]))
    values = st.sampled_from([0.0, 0.5, 1.0, 2.0])
    audience = {
        g: draw(values) for g in range(G) if known == "all" or (known == "some" and draw(st.booleans()))
    }
    c.beliefs = Beliefs(
        skill=np.array([draw(st.sampled_from([0.0, 0.25, 0.5, 1.0])) for _ in range(G)]),
        audience=np.array([audience.get(g, np.nan) for g in range(G)]),
    )
    c.reward_pct = draw(st.sampled_from([0.0, 0.5, 1.0]))
    return c, audience


class TestDecisionOnArrays:
    @settings(max_examples=300, deadline=None)
    @given(case=belief_cases(), seed=st.integers(0, 2**32 - 1))
    def test_array_beliefs_decide_as_the_dict_loop(self, case, seed):
        c, audience = case
        rng, reference_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert rule_based_decide(c, rng, *P_EXPLORE) == reference_decide(
            c, audience, reference_rng, *P_EXPLORE
        )
        assert rng.bit_generator.state == reference_rng.bit_generator.state

    def test_reward_percentile_midrank(self):
        # the latest utility 2.0 is above one of four and ties two
        assert reward_percentile(np.array([1.0, 2.0, 2.0, 3.0, 2.0])) == 0.5
        assert reward_percentile(np.array([1.0, 0.5, 3.0])) == 1.0
        assert reward_percentile(np.array([4.0])) == 0.5


class TestContent:
    def test_title_template(self):
        c = make_creator(name="Ada")
        c.creation_count = 2  # two prior creations; this is the 3rd
        content = template_content(c, ExploreAction(ActionKind.EXPLOIT, 2), GENRES, CFG.creagent_memory_k, 0)
        assert content.title == "Ada — G2 #3"

    def test_tag_fallback_is_genre_name(self):
        c = make_creator()
        content = template_content(c, ExploreAction(ActionKind.EXPLORE, 5), GENRES, CFG.creagent_memory_k, 0)
        assert content.tags == ("G5",)

    def test_tags_from_retrieved_memories(self):
        c = make_creator()
        add_item(c, 0, 2, step=1, tags=("rock", "live"))
        add_item(c, 1, 2, step=2, tags=("rock",))
        content = template_content(c, ExploreAction(ActionKind.EXPLOIT, 2), GENRES, CFG.creagent_memory_k, 3)
        assert content.tags[0] == "rock"

    def test_deterministic(self):
        c = make_creator()
        a = template_content(c, ExploreAction(ActionKind.EXPLORE, 1), GENRES, CFG.creagent_memory_k, 0)
        b = template_content(c, ExploreAction(ActionKind.EXPLORE, 1), GENRES, CFG.creagent_memory_k, 0)
        assert a == b


def reference_retrieve(state, action, k, n):
    """Retrieval as one `sorted` over (-score, -created, -item) keys of Python
    values, as it was before the array, kept to check the array version; the
    positions in the memory of the retrieved items."""
    items = state.own.items.tolist()
    genres = state.own.genre.tolist()
    created = state.own.created_step.tolist()

    def score(j: int) -> float:
        relevance = 1.0 if genres[j] == action.genre else 0.25
        return relevance * (n - created[j] + 1) ** -0.5

    ordered = sorted(range(len(items)), key=lambda j: (-score(j), -created[j], -items[j]))
    return ordered[:k]


# An own item of the action's genre at age 16a scores exactly as one of another
# genre at age a. numpy's `**` rounds a ** -0.5 differently from Python's at
# ages 15, 26 and 33 (the first three of 574 in 1..10,000), and breaks the tie
# at a = 2,397 differently.
TIE_AGES = (15, 240, 26, 416, 33, 528, 2_397, 38_352)


@st.composite
def memory_cases(draw):
    """(genre, k, memory, n): the own items as (id gap, genre, age at step n),
    drawn so that ages, and so scores and creation steps, often tie."""
    G = draw(st.integers(1, 4))
    age = st.one_of(st.integers(1, 40), st.integers(1, 40_000), st.sampled_from(TIE_AGES))
    memory = draw(st.lists(st.tuples(st.integers(1, 3), st.integers(0, G - 1), age), max_size=12))
    n = draw(st.integers(max([a for *_, a in memory], default=2) - 1, 40_001))
    return draw(st.integers(0, G - 1)), draw(st.integers(1, 14)), memory, n


def _tie(age, genre=0):
    """The tie case at `age`: the action's genre at 16 * age, another genre at `age`."""
    return genre, 2, [(1, genre, 16 * age), (1, genre + 1, age)], 16 * age


class TestRetrieval:
    @settings(max_examples=300, deadline=None)
    @given(case=memory_cases())
    @example(case=_tie(15))
    @example(case=_tie(26))
    @example(case=_tie(33))
    @example(case=_tie(2_397))
    @example(case=(1, 3, [(2, 1, 15), (1, 0, 15), (3, 1, 240), (1, 0, 38_352), (1, 0, 2_397)], 40_000))
    def test_array_retrieval_equals_the_sorted_loop(self, case):
        genre, k, memory, n = case
        c, item = make_creator(), -1
        for gap, g, age in memory:
            item += gap
            add_item(c, item, g, step=n - age + 1)
        action = ExploreAction(ActionKind.EXPLOIT, genre)
        got = retrieve_creation_memory(c, action, k, n)
        assert got.dtype == np.int64
        assert got.tolist() == reference_retrieve(c, action, k, n)

    def test_recency_prefers_newer(self):
        c = make_creator()
        add_item(c, 0, 1, step=1)
        add_item(c, 1, 1, step=9)
        out = retrieve_creation_memory(c, ExploreAction(ActionKind.EXPLOIT, 1), k=1, n=10)
        assert out[0] == 1

    def test_empty_memory(self):
        c = make_creator()
        assert retrieve_creation_memory(c, ExploreAction(ActionKind.EXPLORE, 0), 3, 1).tolist() == []

    def test_k_larger_than_memory(self):
        c = make_creator()
        add_item(c, 0, 1, step=1)
        add_item(c, 1, 0, step=2)
        out = retrieve_creation_memory(c, ExploreAction(ActionKind.EXPLOIT, 1), k=10, n=3)
        assert len(out) == 2

    def test_genre_match_beats_recency_at_quarter_relevance(self):
        c = make_creator()
        add_item(c, 0, 1, step=9)   # wrong genre, recent: 0.25 * 0.707
        add_item(c, 1, 2, step=1)   # right genre, old: 1.0 * 0.316
        out = retrieve_creation_memory(c, ExploreAction(ActionKind.EXPLOIT, 2), k=1, n=10)
        assert out[0] == 1


def gate_world(create_prob, n_creators=10, seed=1, departure_threshold=1_000_000):
    """A world whose creators each create with `create_prob` a step, and by
    default never depart."""
    cfg = SimConfig(
        n_users=5, n_creators=n_creators, n_steps=50, ranker="random", reranker="none",
        departure_threshold=departure_threshold, synth_items_per_creator=2,
        synth_interactions_per_user=2, seed=seed,
    )
    world = harness._World(cfg, synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth")))
    world.create_prob[:] = create_prob
    return world


def creators_creating(world, steps):
    """Each step's creating creators, read from the trace rows CREATE adds."""
    created = []
    for n in steps:
        before = len(world.trace_rows)
        world.phase_create(n)
        created.append([row[1] for row in world.trace_rows[before:]])
    return created


def reference_gates(seed, create_prob, n_draws):
    """Each creator's first `n_draws` gate outcomes from scalar draws on its own stream."""
    gates = []
    for c, p in enumerate(create_prob.tolist()):
        rng = stream(seed, "creator_activity", c)
        gates.append([rng.random() < p for _ in range(n_draws)])
    return gates


class TestActivity:
    """CREATE's gate: one uniform per alive creator a step, against its create_prob."""

    def test_max_activity_always_creates(self):
        world = gate_world(1.0)
        assert creators_creating(world, range(1, 51)) == [list(range(10))] * 50

    def test_zero_never_creates(self):
        world = gate_world(0.0)
        assert creators_creating(world, range(1, 51)) == [[]] * 50

    def test_half_rate_monte_carlo(self):
        world = gate_world(0.5, n_creators=200)
        hits = sum(map(len, creators_creating(world, range(1, 51))))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)

    def test_departed_creator_never_draws(self):
        # creator 3 is gone for ten steps, then back: its gates continue its
        # stream from the first draw, so it drew nothing while gone
        world = gate_world(0.5)
        expected = reference_gates(1, world.create_prob, 40)
        world.alive[3] = False
        gone = creators_creating(world, range(1, 11))
        assert all(3 not in step for step in gone)
        world.alive[3] = True
        back = creators_creating(world, range(11, 41))
        assert [3 in step for step in back] == expected[3][:30]
        assert [0 in step for step in gone + back] == expected[0]

    def test_only_gated_creators_think(self, tmp_path, monkeypatch):
        # with departures, and workers = 2, which a rule-based run leaves
        # unused: at every step, the creators that decide plus those that
        # depart are exactly those whose gate passed
        step, worlds, thought = [0], [], []
        original_create = harness._World.phase_create

        def create(world, n):
            step[0] = n
            worlds.append(world)
            return original_create(world, n)

        def think(policy, state, n, rng):
            thought.append((n, state.creator_id))
            return original_decide(policy, state, n, rng)

        monkeypatch.setattr(harness._World, "phase_create", create)
        original_decide = RuleBasedPolicy.decide
        monkeypatch.setattr(RuleBasedPolicy, "decide", think)
        cfg = SimConfig(
            n_users=20, n_creators=12, n_steps=30, ranker="pop", reranker="pmmf", workers=2,
            departure_threshold=2, synth_items_per_creator=4, synth_interactions_per_user=6,
            seed=4,
        )
        out = harness.run_simulation(cfg, out_dir=tmp_path / "run")
        with open(out.out_dir / "creator_trace.csv") as f:
            departs = {
                (int(row.split(",")[0]), int(row.split(",")[1]))
                for row in f.readlines()[1:] if ",DEPART," in row
            }
        assert departs, "the run should have departures"
        world = worlds[0]
        gates = [iter(g) for g in reference_gates(cfg.seed, world.create_prob, cfg.n_steps)]
        alive = set(range(cfg.n_creators))
        for n in range(1, cfg.n_steps + 1):
            passed = {c for c in sorted(alive) if next(gates[c])}
            departed = {c for s, c in departs if s == n}
            assert {c for s, c in thought if s == n} | departed == passed
            alive -= departed


def departure_world(threshold, c=2):
    """A world in which only creator `c` creates, at every step, with departure at `threshold`."""
    world = gate_world(0.0, departure_threshold=threshold)
    world.create_prob[c] = 1.0
    return world


def trace_of(world, c):
    """The (step, action kind) of each of creator `c`'s trace rows."""
    return [(row[0], row[2]) for row in world.trace_rows if row[1] == c]


class TestDeparture:
    """CREATE's departure rule on the world's rows. CREATE without SERVE
    leaves every creation unclicked."""

    @pytest.mark.parametrize("threshold", [1, 2, 3])
    def test_threshold_zero_click_creations_depart(self, threshold):
        world, c = departure_world(threshold), 2
        for n in range(1, threshold + 1):
            world.phase_create(n)
            assert world.alive[c]
        world.phase_create(threshold + 1)
        assert not world.alive[c]
        assert world.zero_click_streak[c] == threshold
        rows = trace_of(world, c)
        assert [step for step, _ in rows] == list(range(1, threshold + 2))
        assert [kind == "DEPART" for _, kind in rows] == [False] * threshold + [True]
        # a departed creator neither draws nor decides again
        world.phase_create(threshold + 2)
        assert trace_of(world, c) == rows

    def test_click_resets_the_streak(self):
        world, c = departure_world(3), 2
        for n in range(1, 4):
            world.phase_create(n)
        # a click on the latest creation, added to its totals as SERVE adds it
        latest = np.flatnonzero(world.catalog.creator_id == c)[-1]
        world.catalog.add_feedback(np.array([latest]), 1, np.array([True]))
        world.phase_create(4)
        assert world.zero_click_streak[c] == 0
        for n in range(5, 7):
            world.phase_create(n)
            assert world.alive[c]
        world.phase_create(7)
        assert not world.alive[c]
        assert trace_of(world, c)[-1] == (7, "DEPART")

    def test_departed_items_leave_that_steps_serve_pool(self, monkeypatch):
        world, c = departure_world(2), 2
        world.retrain(0)
        world.phase_create(1)
        world.phase_create(2)
        served_pools, original = [], harness.pool_view

        def spy(ranker, pool, catalog):
            served_pools.append(pool)
            return original(ranker, pool, catalog)

        monkeypatch.setattr(harness, "pool_view", spy)
        world.phase_create(3)
        pool = harness.build_candidate_pool(world.catalog, 3, world.cfg.timeliness_window)
        owner = world.catalog.creator_id
        assert c in owner[pool]
        world.phase_serve(3, pool)
        assert served_pools[0].tolist() == [i for i in pool.tolist() if owner[i] != c]
        assert c not in owner[world.log.item]

def test_policy_wrapper_round_trip():
    policy = RuleBasedPolicy(GENRES, *P_EXPLORE, memory_k=CFG.creagent_memory_k)
    c = make_creator()
    action = policy.decide(c, 1, stream(0, "p"))
    content = policy.make_content(c, action, 1)
    assert isinstance(action, ExploreAction)
    assert isinstance(content, CreatedContent)
    assert content.genre == action.genre
