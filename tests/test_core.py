import tempfile
from pathlib import Path

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
    EventLogError,
    IllegalClick,
    InteractionEvent,
    OutOfOrder,
    SimConfig,
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

    @pytest.mark.parametrize("flags", ["2,0", "-1,0", "1,2", "1,-1"])
    def test_csv_flag_outside_0_1_rejected(self, tmp_path, flags):
        path = tmp_path / "events.csv"
        path.write_text(f"{EventLog.CSV_HEADER}\n1,0,0,1,0\n1,0,1,{flags}\n")
        with pytest.raises(EventLogError, match="line 3"):
            EventLog.from_csv(path)


class TestCreatorView:
    def _make_catalog(self):
        # item 1 is creator 0's, item 2 creator 1's; one click on item 1
        cat = Catalog()
        for creator in (1, 0, 1):
            cat.add(creator, 0, "t", (), "", 0)
        cat.add_feedback(np.array([1, 2, 1]), 1, np.array([1, 0, 0]))
        return cat

    def test_owned_items_read_catalog_totals(self):
        exposures, clicks = creator_view(self._make_catalog(), 0, np.array([1]))
        assert (exposures.tolist(), clicks.tolist()) == ([2], [1])

    def test_foreign_item_raises(self):
        cat = self._make_catalog()
        for items in ([2], [1, 2], [3], [-1]):
            with pytest.raises(AsymmetryViolation):
                creator_view(cat, 0, np.array(items))

    def test_empty_ownership_always_raises(self):
        cat = self._make_catalog()
        for item in range(len(cat)):
            with pytest.raises(AsymmetryViolation):
                creator_view(cat, 3, np.array([item]))


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_creator_view_never_leaks_foreign_items(data):
    n_items = data.draw(st.integers(2, 8))
    cat = Catalog()
    for _ in range(n_items):
        cat.add(data.draw(st.integers(0, 2)), 0, "t", (), "", 0)
    for _ in range(4):
        shown = np.array([i for i in range(n_items) if data.draw(st.booleans())], dtype=np.int64)
        cat.add_feedback(shown, 1, 0)
    for c in range(3):
        owned = np.flatnonzero(cat.creator_id == c)
        assert creator_view(cat, c, owned)[0].tolist() == cat.exposures[owned].tolist()
        for item in np.flatnonzero(cat.creator_id != c).tolist():
            with pytest.raises(AsymmetryViolation):
                creator_view(cat, c, np.append(owned, item))


class TestCatalog:
    def test_ids_strictly_increasing(self):
        cat = Catalog()
        a = cat.add(0, 1, "t1", ["x"], "d", 0)
        b = cat.add(1, 2, "t2", [], "d", 1)
        assert (a.item_id, b.item_id) == (0, 1)
        assert (cat[0].creator_id, cat[1].creator_id) == (0, 1)

    def test_feedback_totals_add_up(self):
        cat = Catalog()
        for _ in range(3):
            cat.add(0, 0, "t", (), "", 0)
        cat.add_feedback(np.array([2, 0, 2]), np.array([1, 1, 1]), np.array([True, False, True]))
        cat.add_feedback(np.array([], dtype=np.int64), 1, 1)
        cat.add_feedback(np.array([2]), 4, 0)
        assert (cat.exposures.tolist(), cat.clicks.tolist()) == ([1, 0, 6], [0, 0, 2])
        assert cat.add(1, 0, "new", (), "", 1).item_id == 3
        assert (cat.exposures[3], cat.clicks[3]) == (0, 0)

    def test_csv_roundtrip(self, tmp_path):
        cat = Catalog()
        cat.add(0, 3, "hello, world", ["a", "b"], "desc with, comma", 2)
        cat.add(1, 0, "plain", [], "", 5)
        path = tmp_path / "items.csv"
        cat.to_csv(path)
        back = Catalog.from_csv(path)
        assert list(back) == list(cat)

    def test_extend_rows_of_unequal_length_add_nothing(self):
        cat = Catalog()
        cat.add(0, 0, "t", (), "", 0)
        with pytest.raises(ValueError):
            cat.extend([1, 2], [0, 0], [1, 1], ["a", "b"], [(), ()], ["d"])
        with pytest.raises(ValueError):
            cat.extend([1, 2], [0], [1, 1], ["a", "b"], [(), ()], ["d", "e"])
        assert len(cat) == 1 and len(cat.genre) == 1 and cat[0].title == "t"
        with pytest.raises(IndexError):
            cat[1]


# free text that CSV must quote or escape, and tag tuples that may be empty
_texts = st.sampled_from(["", "plain", "hello, world", 'say "hi"', "two\nlines", "a|b"])
_rows = st.tuples(
    st.integers(0, 50), st.integers(0, 13), st.integers(0, 100), _texts,
    st.lists(st.sampled_from(["x", "y-z", "a b", "c,d"]), max_size=3).map(tuple), _texts,
)


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_extend_in_chunks_equals_row_at_a_time(data):
    """A catalog filled by `extend` in random chunks, mixed with `add`, equals one built
    a row at a time, and survives a CSV round trip."""
    # the size is drawn first, so catalogs past the first growths (16, 32, 64 rows) are common
    n_rows = data.draw(st.integers(0, 70), label="rows")
    rows = data.draw(st.lists(_rows, min_size=n_rows, max_size=n_rows), label="catalog")
    one_by_one = Catalog()
    for creator, genre, step, title, tags, desc in rows:
        one_by_one.add(creator, genre, title, tags, desc, step)
    chunked, at = Catalog(), 0
    chunked.extend([], [], [], [], [], [])
    while at < len(rows):
        size = data.draw(st.integers(1, len(rows) - at), label="chunk")
        if size == 1 and data.draw(st.booleans(), label="add"):
            creator, genre, step, title, tags, desc = rows[at]
            assert chunked.add(creator, genre, title, tags, desc, step).item_id == at
        else:
            chunked.extend(*zip(*rows[at : at + size]))
        at += size
    with tempfile.TemporaryDirectory() as scratch:
        path = Path(scratch) / "items.csv"
        chunked.to_csv(path)
        reread = Catalog.from_csv(path)
    for cat in (chunked, reread):
        assert len(cat) == len(one_by_one)
        for column in ("creator_id", "genre", "created_step", "exposures", "clicks"):
            assert getattr(cat, column).tolist() == getattr(one_by_one, column).tolist()
        assert [cat[i] for i in range(len(cat))] == [one_by_one[i] for i in range(len(cat))]


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
