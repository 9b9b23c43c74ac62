import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim.core import (
    AsymmetryViolation,
    Catalog,
    ConfigError,
    DuplicateEvent,
    EventLog,
    IllegalClick,
    InteractionEvent,
    OutOfOrder,
    SimConfig,
    UnknownItem,
    creator_view,
    hash_uniform,
    stream,
)


def ev(step, user, item, exposed=True, clicked=False):
    return InteractionEvent(step, user, item, exposed, clicked)


class TestEventLog:
    def test_single_append(self):
        log = EventLog()
        log.append(ev(1, 0, 0, exposed=True, clicked=True))
        assert len(log) == 1

    def test_step_regression_rejected(self):
        log = EventLog()
        log.append(ev(1, 0, 0))
        with pytest.raises(OutOfOrder):
            log.append(ev(0, 0, 1))

    def test_click_without_exposure_rejected(self):
        log = EventLog()
        with pytest.raises(IllegalClick):
            log.append(ev(0, 0, 0, exposed=False, clicked=True))

    def test_duplicate_triple_rejected(self):
        log = EventLog()
        log.append(ev(2, 1, 3))
        with pytest.raises(DuplicateEvent):
            log.append(ev(2, 1, 3))

    def test_within_step_order_enforced(self):
        log = EventLog()
        log.append(ev(2, 1, 3))
        with pytest.raises(OutOfOrder):
            log.append(ev(2, 0, 9))

    def test_tally_example(self):
        # item exposed at steps {3,3,4} (two users at step 3), clicked at {3}
        log = EventLog()
        log.append(ev(3, 0, 7, clicked=True))
        log.append(ev(3, 1, 7))
        log.append(ev(4, 0, 7))
        assert log.tally(7, 3, 4) == (3, 1)

    def test_tally_empty_range(self):
        log = EventLog()
        log.append(ev(3, 0, 7))
        assert log.tally(7, 10, 20) == (0, 0)

    def test_tally_unknown_item(self):
        log = EventLog()
        log.append(ev(3, 0, 7))
        with pytest.raises(UnknownItem):
            log.tally(8, 0, 10)

    def test_tally_additivity(self):
        log = EventLog()
        rng = np.random.default_rng(5)
        for step in range(20):
            for user in range(3):
                if rng.random() < 0.7:
                    log.append(ev(step, user, 4, clicked=bool(rng.random() < 0.4)))
        whole = log.tally(4, 0, 19)
        parts = [log.tally(4, s, s) for s in range(20)]
        assert whole == (sum(p[0] for p in parts), sum(p[1] for p in parts))

    def test_csv_roundtrip_rebuilds_identical_log(self, tmp_path):
        log = EventLog()
        rng = np.random.default_rng(1)
        for step in range(10):
            for user in range(4):
                for item in range(3):
                    if rng.random() < 0.5:
                        log.append(ev(step, user, item, clicked=bool(rng.random() < 0.3)))
        path = tmp_path / "events.csv"
        log.to_csv(path)
        rebuilt = EventLog.from_csv(path)
        assert list(rebuilt) == list(log)
        for column in ("step", "user", "item", "exposed", "clicked"):
            assert np.array_equal(getattr(rebuilt, column), getattr(log, column))


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_tally_matches_naive_recount(data):
    n_steps = data.draw(st.integers(1, 8))
    n_items = data.draw(st.integers(1, 5))
    log = EventLog()
    for step in range(n_steps):
        for user in range(3):
            for item in range(n_items):
                if data.draw(st.booleans()):
                    clicked = data.draw(st.booleans())
                    log.append(ev(step, user, item, clicked=clicked))
    item = data.draw(st.integers(0, n_items - 1))
    frm = data.draw(st.integers(0, n_steps - 1))
    to = data.draw(st.integers(frm, n_steps - 1))
    expected = (
        sum(1 for e in log if e.item == item and frm <= e.step <= to and e.exposed),
        sum(1 for e in log if e.item == item and frm <= e.step <= to and e.clicked),
    )
    if item in log:
        assert log.tally(item, frm, to) == expected
    else:
        assert expected == (0, 0)


class TestCreatorView:
    def _make_log(self):
        log = EventLog()
        log.append(ev(1, 0, 1, clicked=True))
        log.append(ev(2, 0, 2))
        return log

    def test_owned_item_is_identity_with_tally(self):
        log = self._make_log()
        assert creator_view(log, 0, {1}, 1, 0, 5) == log.tally(1, 0, 5)

    def test_foreign_item_raises(self):
        log = self._make_log()
        with pytest.raises(AsymmetryViolation):
            creator_view(log, 0, {1}, 2, 0, 5)

    def test_empty_ownership_always_raises(self):
        log = self._make_log()
        for item in (1, 2):
            with pytest.raises(AsymmetryViolation):
                creator_view(log, 3, set(), item, 0, 5)


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_creator_view_never_leaks_foreign_items(data):
    n_items = data.draw(st.integers(2, 8))
    owners = {i: data.draw(st.integers(0, 2)) for i in range(n_items)}
    log = EventLog()
    for step in range(4):
        for item in range(n_items):
            if data.draw(st.booleans()):
                log.append(ev(step, 0, item))
    owned = {c: {i for i, o in owners.items() if o == c} for c in range(3)}
    for item in range(n_items):
        for c in range(3):
            if item in owned[c]:
                if item in log:
                    creator_view(log, c, owned[c], item, 0, 4)
            else:
                with pytest.raises(AsymmetryViolation):
                    creator_view(log, c, owned[c], item, 0, 4)


class TestCatalog:
    def test_ids_strictly_increasing(self):
        cat = Catalog()
        a = cat.add(0, 1, "t1", ["x"], "d", 0)
        b = cat.add(1, 2, "t2", [], "d", 1)
        assert (a.item_id, b.item_id) == (0, 1)
        assert (cat[0].creator_id, cat[1].creator_id) == (0, 1)

    def test_csv_roundtrip(self, tmp_path):
        cat = Catalog()
        cat.add(0, 3, "hello, world", ["a", "b"], "desc with, comma", 2)
        cat.add(1, 0, "plain", [], "", 5)
        path = tmp_path / "items.csv"
        cat.to_csv(path)
        back = Catalog.from_csv(path)
        assert list(back) == list(cat)


class TestRngStreams:
    def test_same_key_reproduces(self):
        a = stream(42, "user", 3).random(5)
        b = stream(42, "user", 3).random(5)
        assert np.array_equal(a, b)

    def test_distinct_keys_differ(self):
        a = stream(42, "user", 3).random(5)
        b = stream(42, "user", 4).random(5)
        c = stream(42, "creator", 3).random(5)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_hash_uniform_stable_and_bounded(self):
        ids = np.arange(100)
        a = hash_uniform(7, 3, ids)
        b = hash_uniform(7, 3, ids)
        assert np.array_equal(a, b)
        assert ((a >= 0) & (a < 1)).all()
        assert not np.array_equal(a, hash_uniform(7, 4, ids))
        assert not np.array_equal(a, hash_uniform(8, 3, ids))


class TestSimConfig:
    def test_roundtrip_through_text(self, tmp_path):
        cfg = SimConfig(seed=9, ranker="pop", mmr_lambda=0.3)
        path = tmp_path / "config.txt"
        path.write_text(cfg.to_text())
        back = SimConfig.from_file(path)
        assert back == cfg

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_pairs({"not_a_key": "1"})

    @pytest.mark.parametrize(
        "attr,value",
        [
            ("warmup", 0),
            ("warmup", 101),
            ("list_length", 0),
            ("beta", 1.5),
            ("departure_threshold", 0),
            ("ranker", "deep"),
            ("reranker", "bogus"),
            ("creator_policy", "nobody"),
            ("retrain_period", 0),
            ("synth_n_genres", 20),
        ],
    )
    def test_invariant_violations_rejected(self, attr, value):
        cfg = SimConfig()
        setattr(cfg, attr, value)
        with pytest.raises(ConfigError):
            cfg.validate()

    def test_bad_value_type_rejected(self):
        with pytest.raises(ConfigError):
            SimConfig.from_pairs({"n_users": "many"})
