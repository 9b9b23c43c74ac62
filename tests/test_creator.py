import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creatorsim.harness as harness
from creatorsim.core import AsymmetryViolation, EventLog, SimConfig, creator_view, stream
from creatorsim.creator import (
    ActionKind,
    Beliefs,
    CreatedContent,
    CreatorRuntime,
    DeadCreator,
    ExploreAction,
    FutureItem,
    NotOwned,
    RuleBasedPolicy,
    explore_probability,
    item_utility,
    own_totals,
    register_creation_outcome,
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


def make_creator(name="Ada", n_genres=14, beta=0.5):
    return CreatorRuntime(
        creator_id=0,
        name=name,
        identity="music enthusiast",
        motivation="sharing",
        activity=1.0,
        n_genres=n_genres,
        beliefs=Beliefs(skill=np.full(n_genres, 1.0 / n_genres), audience=np.full(n_genres, np.nan)),
        departure_threshold=CFG.departure_threshold,
        beta=beta,
    )


def add_item(state, item_id, genre, step, tags=()):
    while len(state.catalog) < item_id:  # lower ids belong to another creator
        state.catalog.add(state.creator_id + 1, 0, "other", (), "", 0)
    state.catalog.add(state.creator_id, genre, f"t{item_id}", tuple(tags), "", step)
    state.add_item(item_id)


def utility(state, item_id, n):
    """Own item `item_id`'s utility at step `n`, from one read of the totals."""
    return float(item_utility(state, own_totals(state)[1], n)[state.position(item_id)])


def refresh(state, n):
    """Refresh the beliefs as CREATE does, from the utilities at step `n`."""
    update_beliefs(state, item_utility(state, own_totals(state)[1], n))


def totals(state, pos):
    """(exposures, clicks) of the own item at `pos`, as the platform keeps them."""
    exposures, clicks = creator_view(state.catalog, state.creator_id, state.items)
    return exposures[pos], clicks[pos]


def add_feedback(state, counts):
    """Add (item, exposures, clicks) counts to the platform's totals."""
    for item_id, exposures, clicks in counts:
        state.catalog.add_feedback(np.array([item_id]), exposures, clicks)


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
        assert totals(c, c.position(5)) == (5, 1)
        assert own_totals(c)[0].tolist() == [1]

    def test_empty_step_is_noop(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)
        c.catalog.add_feedback(np.array([], dtype=np.int64), 1, 1)
        assert totals(c, c.position(5)) == (0, 0)

    def test_foreign_item_rejected(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)
        c.add_item(6)  # in the memory, but the catalog has no item 6 of creator 0
        c.catalog.add(c.creator_id + 1, 0, "other", (), "", 1)
        with pytest.raises(AsymmetryViolation):
            own_totals(c)


class TestItemUtility:
    def test_worked_example(self):
        # created at step 3; per-step exposures (2,3,1), clicks (1,1,0); n=5
        c = make_creator(beta=0.5)
        add_item(c, 0, 0, step=3)
        add_feedback(c, [(0, 2, 1), (0, 3, 1), (0, 1, 0)])
        assert utility(c, 0, 5) == pytest.approx(4 / 3)

    def test_exposure_only_beta(self):
        c = make_creator(beta=1.0)
        add_item(c, 0, 0, step=3)
        add_feedback(c, [(0, 2, 1), (0, 3, 1), (0, 1, 0)])
        assert utility(c, 0, 5) == pytest.approx(2.0)

    def test_no_events_zero(self):
        c = make_creator()
        add_item(c, 0, 0, step=3)
        assert utility(c, 0, 10) == 0.0

    def test_future_item(self):
        c = make_creator()
        add_item(c, 0, 0, step=5)
        with pytest.raises(FutureItem):
            item_utility(c, own_totals(c)[1], 4)

    def test_matches_event_log_brute_force(self):
        rng = stream(17, "oracle")
        log = EventLog()
        c = make_creator(beta=0.5)
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
                log.extend(step, users, item_ids, True, clicks)
            block = log.window(step, step)  # the step's events, added as SERVE adds them
            c.catalog.add_feedback(block.item, block.exposed, block.clicked)
            events = list(zip(log.step.tolist(), log.item.tolist(), log.clicked.tolist()))
            for item_id, t in items.items():
                exp = sum(1 for s, i, _ in events if i == item_id and t <= s <= step)
                clk = sum(1 for s, i, clicked in events if i == item_id and clicked and t <= s <= step)
                brute = (0.5 * exp + 0.5 * clk) / (step - t + 1)
                assert abs(utility(c, item_id, step) - brute) <= 1e-9


class TestBeliefs:
    def test_skill_counting(self):
        c = make_creator()
        for i, g in enumerate([0, 0, 1]):
            add_item(c, i, g, step=1)
        refresh(c, 2)
        assert c.beliefs.skill[0] == pytest.approx(2 / 3)
        assert c.beliefs.skill[1] == pytest.approx(1 / 3)

    def test_audience_mean_utility(self):
        c = make_creator(beta=0.0)
        add_item(c, 0, 0, step=1)
        add_item(c, 1, 0, step=1)
        # clicks so that utilities at n=2 are 1.0 and 3.0 (divide by 2)
        add_feedback(c, [(0, 2, 2), (1, 6, 6)])
        refresh(c, 2)
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
        assert reward_percentile(item_utility(c, own_totals(c)[1], 1)) == 0.5
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

    def test_dead_creator_rejected(self):
        c = make_creator()
        c.alive = False
        with pytest.raises(DeadCreator):
            rule_based_decide(c, ScriptedRng([0.0]), *P_EXPLORE)


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
        genre = int(np.argmin(np.bincount(state.genres, minlength=state.n_genres)))
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


class TestRetrieval:
    def test_recency_prefers_newer(self):
        c = make_creator()
        add_item(c, 0, 1, step=1)
        add_item(c, 1, 1, step=9)
        out = retrieve_creation_memory(c, ExploreAction(ActionKind.EXPLOIT, 1), k=1, n=10)
        assert out[0].item_id == 1

    def test_empty_memory(self):
        c = make_creator()
        assert retrieve_creation_memory(c, ExploreAction(ActionKind.EXPLORE, 0), 3, 1) == []

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
        assert out[0].item_id == 1


class TestLifecycle:
    def test_departure_at_threshold(self):
        c = make_creator()
        add_item(c, 0, 0, step=1)
        c.consecutive_zero_click = 4
        register_creation_outcome(c, 0, clicks_in_window=0)
        assert c.consecutive_zero_click == 5
        assert not c.alive

    def test_click_resets(self):
        c = make_creator()
        add_item(c, 0, 0, step=1)
        c.consecutive_zero_click = 4
        register_creation_outcome(c, 0, clicks_in_window=1)
        assert c.consecutive_zero_click == 0
        assert c.alive

    def test_dead_creator_outcome_noop(self):
        c = make_creator()
        add_item(c, 0, 0, step=1)
        c.alive = False
        c.consecutive_zero_click = 3
        register_creation_outcome(c, 0, clicks_in_window=0)
        assert c.consecutive_zero_click == 3

    def test_not_owned(self):
        c = make_creator()
        with pytest.raises(NotOwned):
            register_creation_outcome(c, 7, 0)


def gate_world(create_prob, n_creators=10, seed=1):
    """A world whose creators never depart, each creating with `create_prob` a step."""
    cfg = SimConfig(
        n_users=5, n_creators=n_creators, n_steps=50, ranker="random", reranker="none",
        departure_threshold=1_000_000, synth_items_per_creator=2, synth_interactions_per_user=2,
        seed=seed,
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
        created.append([int(row.split(",")[1]) for row in world.trace_rows[before:]])
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
        world.creators[3].alive = False
        gone = creators_creating(world, range(1, 11))
        assert all(3 not in step for step in gone)
        world.creators[3].alive = True
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


def test_policy_wrapper_round_trip():
    policy = RuleBasedPolicy(GENRES, *P_EXPLORE, memory_k=CFG.creagent_memory_k)
    c = make_creator()
    action = policy.decide(c, 1, stream(0, "p"))
    content = policy.make_content(c, action, 1)
    assert isinstance(action, ExploreAction)
    assert isinstance(content, CreatedContent)
    assert content.genre == action.genre
