import numpy as np
import pytest

from creatorsim.core import AsymmetryViolation, EventLog, stream
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
    register_creation_outcome,
    retrieve_creation_memory,
    reward_percentile,
    rule_based_decide,
    template_content,
    update_beliefs,
    wants_to_create,
)

GENRES = tuple(f"G{i}" for i in range(14))


def make_creator(name="Ada", n_genres=14, beta=0.5, create_prob=0.5):
    return CreatorRuntime(
        creator_id=0,
        name=name,
        identity="music enthusiast",
        motivation="sharing",
        activity=1.0,
        create_prob=create_prob,
        n_genres=n_genres,
        beliefs=Beliefs(skill=np.full(n_genres, 1.0 / n_genres), audience={}),
        beta=beta,
    )


def add_item(state, item_id, genre, step, tags=()):
    while len(state.catalog) < item_id:  # lower ids belong to another creator
        state.catalog.add(state.creator_id + 1, 0, "other", (), "", 0)
    state.catalog.add(state.creator_id, genre, f"t{item_id}", tuple(tags), "", step)
    state.add_item(item_id)


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
        pos = c.position(5)
        assert (c.exposures[pos], c.clicks[pos]) == (5, 1)

    def test_empty_step_is_noop(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)
        c.catalog.add_feedback(np.array([], dtype=np.int64), 1, 1)
        pos = c.position(5)
        assert (c.exposures[pos], c.clicks[pos]) == (0, 0)

    def test_foreign_item_rejected(self):
        c = make_creator()
        add_item(c, 5, 0, step=1)
        c.add_item(6)  # in the memory, but the catalog has no item 6 of creator 0
        c.catalog.add(c.creator_id + 1, 0, "other", (), "", 1)
        for read in (lambda: c.exposures, lambda: c.clicks, lambda: item_utility(c, 5, 2)):
            with pytest.raises(AsymmetryViolation):
                read()


class TestItemUtility:
    def test_worked_example(self):
        # created at step 3; per-step exposures (2,3,1), clicks (1,1,0); n=5
        c = make_creator(beta=0.5)
        add_item(c, 0, 0, step=3)
        add_feedback(c, [(0, 2, 1), (0, 3, 1), (0, 1, 0)])
        assert item_utility(c, 0, 5) == pytest.approx(4 / 3)

    def test_exposure_only_beta(self):
        c = make_creator(beta=1.0)
        add_item(c, 0, 0, step=3)
        add_feedback(c, [(0, 2, 1), (0, 3, 1), (0, 1, 0)])
        assert item_utility(c, 0, 5) == pytest.approx(2.0)

    def test_no_events_zero(self):
        c = make_creator()
        add_item(c, 0, 0, step=3)
        assert item_utility(c, 0, 10) == 0.0

    def test_not_owned(self):
        c = make_creator()
        with pytest.raises(NotOwned):
            item_utility(c, 9, 5)

    def test_future_item(self):
        c = make_creator()
        add_item(c, 0, 0, step=5)
        with pytest.raises(FutureItem):
            item_utility(c, 0, 4)

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
                assert abs(item_utility(c, item_id, step) - brute) <= 1e-9


class TestBeliefs:
    def test_skill_counting(self):
        c = make_creator()
        for i, g in enumerate([0, 0, 1]):
            add_item(c, i, g, step=1)
        update_beliefs(c, 2)
        assert c.beliefs.skill[0] == pytest.approx(2 / 3)
        assert c.beliefs.skill[1] == pytest.approx(1 / 3)

    def test_audience_mean_utility(self):
        c = make_creator(beta=0.0)
        add_item(c, 0, 0, step=1)
        add_item(c, 1, 0, step=1)
        # clicks so that utilities at n=2 are 1.0 and 3.0 (divide by 2)
        add_feedback(c, [(0, 2, 2), (1, 6, 6)])
        update_beliefs(c, 2)
        assert c.beliefs.audience[0] == pytest.approx(2.0)

    def test_explored_genre_becomes_known_at_zero(self):
        c = make_creator()
        add_item(c, 0, 3, step=1)
        update_beliefs(c, 1)
        assert c.beliefs.audience[3] == 0.0


class TestDecision:
    def test_explore_probability_endpoints(self):
        assert explore_probability(0.0) == pytest.approx(0.40)
        assert explore_probability(1.0) == pytest.approx(0.05)
        assert explore_probability(0.5) == pytest.approx(0.225)

    def test_first_decision_uses_midpoint(self):
        c = make_creator()
        assert reward_percentile(c, 1) == 0.5

    def test_threshold_behavior_via_scripted_rng(self):
        c = make_creator()
        # cold creator, q=0.5 -> p_explore=0.225; no known genres forces explore anyway
        action = rule_based_decide(c, 1, ScriptedRng([0.224], ints=[2]))
        assert action.kind is ActionKind.EXPLORE

    def test_exploit_picks_argmax_product_with_tie_to_lowest(self):
        c = make_creator()
        for i, g in enumerate([0, 1, 2]):
            add_item(c, i, g, step=1)
        update_beliefs(c, 1)
        c.beliefs.audience = {0: 3.0, 1: 3.0, 2: 1.0}
        action = rule_based_decide(c, 2, ScriptedRng([0.99]))
        assert action.kind is ActionKind.EXPLOIT
        assert action.genre == 0

    def test_explore_uniform_over_unknown(self):
        c = make_creator(n_genres=4)
        add_item(c, 0, 0, step=1)
        update_beliefs(c, 1)
        rng = stream(3, "explore")
        actions = [rule_based_decide(c, 2, rng) for _ in range(300)]
        seen = {a.genre for a in actions if a.kind is ActionKind.EXPLORE}
        assert seen == {1, 2, 3}

    def test_all_known_degrades_to_least_created(self):
        c = make_creator(n_genres=3)
        for i, g in enumerate([0, 0, 1, 1, 2]):
            add_item(c, i, g, step=1)
        update_beliefs(c, 1)
        action = rule_based_decide(c, 2, ScriptedRng([0.0]))
        assert action.kind is ActionKind.EXPLORE
        assert action.genre == 2

    def test_exploit_probability_monotone_in_percentile(self):
        grid = np.linspace(0, 1, 11)
        p = [1 - explore_probability(q) for q in grid]
        assert all(a <= b for a, b in zip(p, p[1:]))

    def test_dead_creator_rejected(self):
        c = make_creator()
        c.alive = False
        with pytest.raises(DeadCreator):
            rule_based_decide(c, 1, ScriptedRng([0.0]))
        with pytest.raises(DeadCreator):
            wants_to_create(c, ScriptedRng([0.0]))


class TestContent:
    def test_title_template(self):
        c = make_creator(name="Ada")
        c.creation_count = 2  # two prior creations; this is the 3rd
        content = template_content(c, ExploreAction(ActionKind.EXPLOIT, 2), GENRES)
        assert content.title == "Ada — G2 #3"

    def test_tag_fallback_is_genre_name(self):
        c = make_creator()
        content = template_content(c, ExploreAction(ActionKind.EXPLORE, 5), GENRES)
        assert content.tags == ("G5",)

    def test_tags_from_retrieved_memories(self):
        c = make_creator()
        add_item(c, 0, 2, step=1, tags=("rock", "live"))
        add_item(c, 1, 2, step=2, tags=("rock",))
        content = template_content(c, ExploreAction(ActionKind.EXPLOIT, 2), GENRES, n=3)
        assert content.tags[0] == "rock"

    def test_deterministic(self):
        c = make_creator()
        a = template_content(c, ExploreAction(ActionKind.EXPLORE, 1), GENRES)
        b = template_content(c, ExploreAction(ActionKind.EXPLORE, 1), GENRES)
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


class TestActivity:
    def test_max_activity_always_creates(self):
        c = make_creator(create_prob=1.0)
        rng = stream(1, "act")
        assert all(wants_to_create(c, rng) for _ in range(50))

    def test_zero_never_creates(self):
        c = make_creator(create_prob=0.0)
        rng = stream(1, "act")
        assert not any(wants_to_create(c, rng) for _ in range(50))

    def test_half_rate_monte_carlo(self):
        c = make_creator(create_prob=0.5)
        rng = stream(2, "act")
        hits = sum(wants_to_create(c, rng) for _ in range(10_000))
        assert hits / 10_000 == pytest.approx(0.5, abs=0.02)


def test_policy_wrapper_round_trip():
    policy = RuleBasedPolicy(GENRES, memory_k=3)
    c = make_creator()
    action = policy.decide(c, 1, stream(0, "p"))
    content = policy.make_content(c, action, 1)
    assert isinstance(action, ExploreAction)
    assert isinstance(content, CreatedContent)
    assert content.genre == action.genre
