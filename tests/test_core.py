import json
import re
import tempfile
import warnings
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim.core import (
    Catalog,
    ConfigError,
    DuplicateEvent,
    EventLog,
    EventLogError,
    OutOfOrder,
    DRAW_BLOCK,
    SimConfig,
    SynthParams,
    UniformStreams,
    creator_view,
    hash_uniform,
    stream,
)
from creatorsim.cli import main as cli_main
from creatorsim.harness import report


def ev(step, user, item, clicked=False):
    return step, user, item, clicked


def extend(log, rows):
    """Append (step, user, item, clicked) rows to `log` as one block."""
    log.extend(*np.array(rows, dtype=np.int64).reshape(-1, 4).T)


class TestEventLog:
    def test_single_append(self):
        log = EventLog()
        log.extend(*ev(1, 0, 0, clicked=True))
        assert len(log) == 1

    def test_step_regression_rejected(self):
        log = EventLog()
        log.extend(*ev(1, 0, 0))
        with pytest.raises(OutOfOrder):
            log.extend(*ev(0, 0, 1))

    def test_click_without_exposure_rejected(self, tmp_path):
        # an event is an exposure: the file's exposed field must be 1
        path = tmp_path / "events.csv"
        path.write_text(f"{EventLog.CSV_HEADER}\n0,0,0,0,1\n")
        with pytest.raises(EventLogError, match="^line 2: exposed is 0, not 1$"):
            EventLog.from_csv(path)

    def test_duplicate_triple_rejected(self):
        log = EventLog()
        log.extend(*ev(2, 1, 3))
        with pytest.raises(DuplicateEvent):
            log.extend(*ev(2, 1, 3))

    def test_within_step_order_enforced(self):
        log = EventLog()
        log.extend(*ev(2, 1, 3))
        with pytest.raises(OutOfOrder):
            log.extend(*ev(2, 0, 9))

    @pytest.mark.parametrize(
        "row,error",
        [
            (ev(2, 0, 9, clicked=-1), EventLogError),
            (ev(2, -1, 9), EventLogError),
            (ev(1, 0, 2**31), EventLogError),
            (ev(2, 1, 3, clicked=2), EventLogError),
        ],
    )
    def test_field_faults_come_before_order_faults(self, row, error):
        # each row also sorts at or behind the log's last row (2, 1, 3)
        log = EventLog()
        log.extend(*ev(2, 1, 3))
        with pytest.raises(EventLogError) as raised:
            log.extend(*row)
        assert type(raised.value) is error and raised.value.row == 0
        assert len(log) == 1

    def test_scalar_applies_to_every_row(self):
        log = EventLog()
        log.extend(4, [0, 0, 2], [1, 5, 0], [False, True, False])
        assert log.step.tolist() == [4, 4, 4]
        assert log.clicked.tolist() == [False, True, False]
        with pytest.raises(ValueError):
            log.extend(5, [0, 1], [0, 1, 2], False)
        assert len(log) == 3

    def test_csv_roundtrip_rebuilds_identical_log(self, tmp_path):
        log = EventLog()
        rng = np.random.default_rng(1)
        rows = []
        for step in range(10):
            for user in range(4):
                for item in range(3):
                    if rng.random() < 0.5:
                        rows.append(ev(step, user, item, clicked=bool(rng.random() < 0.3)))
        extend(log, rows)
        path = tmp_path / "events.csv"
        log.to_csv(path)
        rebuilt = EventLog.from_csv(path)
        assert len(rebuilt) == len(log) == len(rows)
        for column in ("step", "user", "item", "clicked"):
            assert np.array_equal(getattr(rebuilt, column), getattr(log, column))
        # the file keeps its exposed column, 1 on every row
        assert {line.split(",")[3] for line in path.read_text().splitlines()[1:]} == {"1"}

    @pytest.mark.parametrize("flags", ["2,0", "-1,0", "1,2", "1,-1"])
    def test_csv_flag_outside_0_1_rejected(self, tmp_path, flags):
        path = tmp_path / "events.csv"
        path.write_text(f"{EventLog.CSV_HEADER}\n1,0,0,1,0\n1,0,1,{flags}\n")
        with pytest.raises(EventLogError, match="line 3"):
            EventLog.from_csv(path)

    @pytest.mark.parametrize(
        "row,error",
        [
            ("#,0,1,1,0", EventLogError),  # not a comment: a damaged row
            ("1,0,1,1,0,0", EventLogError),
            ("1,0,1,1", EventLogError),
            ("1,0,x,1,0", EventLogError),
            (f"1,0,{2**31},1,0", EventLogError),
            (f"1,0,{2**63},1,0", EventLogError),
            ("1,0,1,0,1", EventLogError),
            ("1,0,1,0,0", EventLogError),
            ("0,0,1,0,1", EventLogError),  # exposed 0 on a row that also sorts behind its predecessor
            ("1,0,0,1,1", DuplicateEvent),
            ("0,0,1,1,1", OutOfOrder),
        ],
    )
    def test_csv_fault_names_its_file_line(self, tmp_path, row, error):
        # the blank line 3 still counts, so the damaged row is line 4
        path = tmp_path / "events.csv"
        path.write_text(f"{EventLog.CSV_HEADER}\n1,0,0,1,0\n\n{row}\n1,1,0,1,0\n")
        with pytest.raises(error, match="^line 4: "):
            EventLog.from_csv(path)

    def test_csv_header_only_is_an_empty_log(self, tmp_path):
        path = tmp_path / "events.csv"
        path.write_text(f"{EventLog.CSV_HEADER}\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            log = EventLog.from_csv(path)
        assert len(log) == 0
        assert [len(getattr(log, name)) for name in ("step", "user", "item", "clicked")] == [0] * 4

    @pytest.mark.parametrize(
        "rows,error,line",
        [
            (["1,0,1,0,0", "1,0,0,1,0"], EventLogError, 3),
            (["1,0,0,1,0", "1,0,2,0,0"], DuplicateEvent, 3),
            (["0,0,1,1,0", "1,0,2,0,0"], OutOfOrder, 3),
        ],
    )
    def test_csv_first_row_at_fault_is_named(self, tmp_path, rows, error, line):
        # an unexposed row and a later or earlier fault: the first line at fault is named
        path = tmp_path / "events.csv"
        path.write_text("\n".join([EventLog.CSV_HEADER, "1,0,0,1,0", *rows]) + "\n")
        with pytest.raises(error, match=f"^line {line}: "):
            EventLog.from_csv(path)


def reference_fault(rows):
    """The error class and row at which appending `rows` one at a time first fails,
    or (None, None): the plain-loop statement of the log's rules."""
    last = None
    for row, (step, user, item, clicked) in enumerate(rows):
        key = (step, user, item)
        if min(key) < 0 or max(key) >= 2**31 or clicked not in (0, 1):
            return EventLogError, row
        if last is not None and key == last:
            return DuplicateEvent, row
        if last is not None and key < last:
            return OutOfOrder, row
        last = key
    return None, None


@st.composite
def event_blocks(draw):
    """Valid event rows in log order, and cut points that split them into blocks."""
    keys = draw(st.lists(st.tuples(st.integers(0, 6), st.integers(0, 3), st.integers(0, 6)),
                         unique=True, max_size=40))
    rows = []
    for key in sorted(keys):
        rows.append((*key, draw(st.booleans())))
    cuts = draw(st.lists(st.integers(0, len(rows)), max_size=6))
    return rows, sorted(cuts)


def blocks_of(n_rows, cuts):
    bounds = [0, *cuts, n_rows]
    return list(zip(bounds[:-1], bounds[1:]))


@settings(max_examples=150, deadline=None)
@given(event_blocks(), st.data())
def test_extend_in_blocks_equals_one_extend(blocks, data):
    """A valid sequence appended in random blocks gives the columns of one `extend`;
    one damaged row raises what the plain loop raises, and the failed block adds nothing."""
    rows, cuts = blocks
    whole, chunked = EventLog(), EventLog()
    extend(whole, rows)
    for start, end in blocks_of(len(rows), cuts):
        extend(chunked, rows[start:end])
    for name, values in zip(("step", "user", "item", "clicked"), zip(*rows) if rows else [()] * 4):
        assert getattr(whole, name).tolist() == getattr(chunked, name).tolist() == list(values)

    if not rows:
        return
    damaged = [list(row) for row in rows]
    # up to three faults in neighbouring rows, so that faults meet in one row and
    # which one is raised first matters
    at = data.draw(st.integers(0, len(damaged) - 1), label="row")
    for _ in range(data.draw(st.integers(1, 3), label="faults")):
        kind = data.draw(st.sampled_from(["swap", "duplicate", "flag", "negative", "int32"]), label="kind")
        at = min(at + data.draw(st.integers(0, 1), label="next"), len(damaged) - 1)
        field = data.draw(st.integers(0, 2), label="field")
        if kind == "swap" and at + 1 < len(damaged):
            damaged[at], damaged[at + 1] = damaged[at + 1], damaged[at]
        elif kind == "duplicate":
            damaged.insert(at + 1, list(damaged[at]))
        elif kind == "flag":
            damaged[at][3] = 2
        elif kind == "negative":
            damaged[at][field] = -1
        elif kind == "int32":
            damaged[at][field] = 2**31
    error, bad_row = reference_fault(damaged)
    if error is None:  # a swap of the last row has nothing to swap with
        return
    log = EventLog()
    for start, end in blocks_of(len(damaged), [c for c in cuts if c <= len(damaged)]):
        if start <= bad_row < end:
            with pytest.raises(EventLogError) as raised:
                extend(log, damaged[start:end])
            assert type(raised.value) is error and raised.value.row == bad_row - start
            assert len(log) == start
            break
        extend(log, damaged[start:end])
    else:
        pytest.fail(f"row {bad_row} was not in a block")


class TestCreatorView:
    def _make_catalog(self):
        # item 1 is creator 0's, item 2 creator 1's; one click on item 1
        cat = Catalog()
        for creator in (1, 0, 1):
            cat.add(creator, 0, "t", (), "", 0)
        cat.add_feedback(np.array([1, 2, 1]), 1, np.array([1, 0, 0]))
        return cat

    def test_owned_items_read_catalog_totals(self):
        own = creator_view(self._make_catalog(), 0)
        assert (own.items.tolist(), own.exposures.tolist(), own.clicks.tolist()) == ([1], [2], [1])

    def test_a_creator_without_items_reads_nothing(self):
        own = creator_view(self._make_catalog(), 3)
        assert [len(column) for column in own] == [0] * 8


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
        owned = [i for i in range(n_items) if cat.creator_id[i] == c]
        own = creator_view(cat, c)
        assert own.items.tolist() == owned
        assert own.exposures.tolist() == [cat.exposures[i] for i in owned]


def catalog_rows(cat: Catalog) -> list[tuple]:
    """Each item's id, creator, genre, title, tags, description and creation step."""
    return list(zip(
        range(len(cat)), cat.creator_id.tolist(), cat.genre.tolist(), cat.title, cat.tags,
        cat.description, cat.created_step.tolist(),
    ))


class TestCatalog:
    def test_ids_strictly_increasing(self):
        cat = Catalog()
        a = cat.add(0, 1, "t1", ["x"], "d", 0)
        b = cat.add(1, 2, "t2", [], "d", 1)
        assert (a, b) == (0, 1)
        assert (cat.creator_id[0], cat.creator_id[1]) == (0, 1)

    def test_feedback_totals_add_up(self):
        cat = Catalog()
        for _ in range(3):
            cat.add(0, 0, "t", (), "", 0)
        cat.add_feedback(np.array([2, 0, 2]), np.array([1, 1, 1]), np.array([True, False, True]))
        cat.add_feedback(np.array([], dtype=np.int64), 1, 1)
        cat.add_feedback(np.array([2]), 4, 0)
        assert (cat.exposures.tolist(), cat.clicks.tolist()) == ([1, 0, 6], [0, 0, 2])
        assert cat.add(1, 0, "new", (), "", 1) == 3
        assert (cat.exposures[3], cat.clicks[3]) == (0, 0)

    def test_csv_roundtrip(self, tmp_path):
        cat = Catalog()
        cat.add(0, 3, "hello, world", ["a", "b"], "desc with, comma", 2)
        cat.add(1, 0, "plain", [], "", 5)
        path = tmp_path / "items.csv"
        cat.to_csv(path)
        back = Catalog.from_csv(path)
        assert catalog_rows(back) == catalog_rows(cat)

    def test_csv_tags_read_as_the_dataset_loader_reads_them(self, tmp_path):
        # an empty part of a tags field is no tag, in items.csv of a run as of a dataset
        path = tmp_path / "items.csv"
        path.write_text("item_id,creator_id,genre,title,tags,description,created_step\n"
                        "0,0,0,t,a||b|,d,0\n1,0,0,t,|,d,0\n2,0,0,t,,d,0\n")
        assert Catalog.from_csv(path).tags == [("a", "b"), (), ()]

    def test_extend_rows_of_unequal_length_add_nothing(self):
        cat = Catalog()
        cat.add(0, 0, "t", (), "", 0)
        with pytest.raises(ValueError):
            cat.extend([1, 2], [0, 0], [1, 1], ["a", "b"], [(), ()], ["d"])
        with pytest.raises(ValueError):
            cat.extend([1, 2], [0], [1, 1], ["a", "b"], [(), ()], ["d", "e"])
        assert len(cat) == 1 and len(cat.genre) == 1 and cat.title == ["t"]
        assert len(cat.tags) == len(cat.description) == 1


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
            assert chunked.add(creator, genre, title, tags, desc, step) == at
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
        assert catalog_rows(cat) == catalog_rows(one_by_one)


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


class ScalarStreams:
    """The reference: each agent's doubles from scalar `random()` calls, and a cursor."""

    def __init__(self, seed, purpose, n):
        self.rngs = [stream(seed, purpose, a) for a in range(n)]
        self.drawn = [[] for _ in range(n)]
        self.cursor = [0] * n

    def peek(self, agent, m):
        while len(self.drawn[agent]) < self.cursor[agent] + m:
            self.drawn[agent].append(self.rngs[agent].random())
        c = self.cursor[agent]
        return self.drawn[agent][c : c + m]

    def take(self, agent, m):
        out = self.peek(agent, m)
        self.cursor[agent] += m
        return out


@st.composite
def stream_ops(draw):
    """An agent count and an interleaving of whole-population draws (repeated),
    subset draws and session windows, some longer than a block."""
    n = draw(st.integers(1, 6))
    whole = st.tuples(st.just("all"), st.integers(1, 2 * DRAW_BLOCK))
    subset = st.tuples(
        st.just("subset"),
        st.permutations(range(n)).flatmap(lambda p: st.integers(0, n).map(lambda k: p[:k])),
    )
    session = st.tuples(
        st.just("session"), st.integers(0, n - 1), st.integers(0, 3 * DRAW_BLOCK)
    ).flatmap(lambda t: st.integers(0, t[2]).map(lambda used: (*t, used)))
    return n, draw(st.lists(st.one_of(whole, subset, session), max_size=40))


class TestUniformStreams:
    @settings(max_examples=200, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), case=stream_ops())
    def test_every_agent_reads_its_scalar_draws(self, seed, case):
        n, ops = case
        streams, ref = UniformStreams(seed, "agent", n), ScalarStreams(seed, "agent", n)
        for op in ops:
            if op[0] == "all":
                for _ in range(op[1]):
                    got = streams.draw(np.arange(n))
                    assert got.tolist() == [ref.take(a, 1)[0] for a in range(n)]
            elif op[0] == "subset":
                agents = np.asarray(op[1], dtype=np.int64)
                got = streams.draw(agents)
                assert got.tolist() == [ref.take(a, 1)[0] for a in op[1]]
            else:
                _, agent, m, used = op
                # a window is not consumed until advanced, by at most its length
                assert streams.peek(agent, m).tolist() == ref.peek(agent, m)
                assert streams.peek(agent, m).tolist() == ref.peek(agent, m)
                streams.advance(agent, used)
                ref.take(agent, used)
        # what is left to read continues each scalar stream
        for a in range(n):
            assert streams.peek(a, 2 * DRAW_BLOCK).tolist() == ref.peek(a, 2 * DRAW_BLOCK)

    def test_block_edges_crossed_by_draws_and_windows(self):
        streams, ref = UniformStreams(5, "agent", 3), ScalarStreams(5, "agent", 3)
        for _ in range(2 * DRAW_BLOCK + 10):
            assert streams.draw(np.arange(3)).tolist() == [ref.take(a, 1)[0] for a in range(3)]
        # a window of 2.5 blocks from mid-row, of which 1.5 blocks are used
        m, used = 5 * DRAW_BLOCK // 2, 3 * DRAW_BLOCK // 2
        assert streams.peek(1, m).tolist() == ref.peek(1, m)
        streams.advance(1, used)
        ref.take(1, used)
        for _ in range(DRAW_BLOCK + 1):
            assert streams.draw(np.array([2, 1])).tolist() == [ref.take(a, 1)[0] for a in (2, 1)]


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


# ---------------------------------------------------------------------------
# The settings schema: every check derives from the fields of SimConfig and
# SynthParams, so these cases are generated from the same fields.

README = Path(__file__).resolve().parents[1] / "README.md"


def _file_key(cls, name):
    return {attr: key for key, attr in cls.file_keys().items()}[name]


def _past_bounds(f):
    """Values just outside each bound of settings field `f`."""
    ge, gt, le = (f.metadata.get(k) for k in ("ge", "gt", "le"))
    kind = type(f.default)
    if kind is float:
        def past(b, direction):
            return float(np.nextafter(b, direction * np.inf))
    else:
        def past(b, direction):
            return b + direction
    values = [] if ge is None else [past(ge, -1)]
    values += [] if gt is None else [kind(gt)]
    return values + ([] if le is None else [past(le, 1)])


SETTINGS = [(cls, f) for cls in (SimConfig, SynthParams) for f in fields(cls)]
FLOAT_SETTINGS = [(cls, f.name) for cls, f in SETTINGS if isinstance(f.default, float)]
PAST_BOUNDS = [(cls, f.name, v) for cls, f in SETTINGS for v in _past_bounds(f)]


class TestSettingsSchema:
    def test_every_numeric_setting_but_llm_temperature_is_bounded(self):
        unbounded = {
            (cls.__name__, f.name) for cls, f in SETTINGS
            if type(f.default) in (int, float) and not _past_bounds(f)
        }
        assert unbounded == {("SimConfig", "llm_temperature")}

    @pytest.mark.parametrize("text", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize(
        "cls, name", FLOAT_SETTINGS, ids=[f"{c.__name__}.{n}" for c, n in FLOAT_SETTINGS]
    )
    def test_non_finite_float_exits_2(self, tmp_path, capsys, cls, name, text):
        key = _file_key(cls, name)
        path = tmp_path / "settings.txt"
        path.write_text(f"{key} = {text}\n")
        command = ["run", "--config"] if cls is SimConfig else ["synth", "--params"]
        assert cli_main([*command, str(path), "--out", str(tmp_path / "out")]) == 2
        assert f"{key} must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "cls, name, value", PAST_BOUNDS, ids=[f"{c.__name__}.{n}={v!r}" for c, n, v in PAST_BOUNDS]
    )
    def test_value_past_a_bound_is_rejected_by_key(self, cls, name, value):
        key = _file_key(cls, name)
        with pytest.raises(ConfigError, match=re.escape(key) + " must be "):
            cls.from_pairs({key: repr(value)})
        with pytest.raises(ConfigError, match=re.escape(key) + " must be "):
            cls(**{name: value}).validate()

    @pytest.mark.parametrize("ranker", ["mf", "bpr"])
    @pytest.mark.parametrize(
        "line, status",
        [("mf.lr = 1e308", 4), ("mf.l2 = 1e308", 4), ("mf.lr = 10", 4), ("pmmf.eta_dual = 1e308", 2)],
    )
    def test_overflowing_setting_exits_with_its_documented_code(
        self, tmp_path, capsys, ranker, line, status
    ):
        """A learning rate or L2 weight that drives the factors toward overflow ends
        the run as `Diverged` (exit 4), never a numpy warning or NaN scores; a dual
        step past its bound is a config error (exit 2)."""
        path = tmp_path / "config.txt"
        path.write_text(
            f"n_users = 15\nn_creators = 6\nn_steps = 100\nwarmup = 2\nreranker = pmmf\n"
            f"ranker = {ranker}\n{line}\n"
        )
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == status
        err = capsys.readouterr().err
        assert ("diverged" if status == 4 else f"{line.split()[0]} must be <= ") in err

    def test_synth_params_share_the_run_config_defaults_and_bounds(self):
        cfg = SimConfig()
        assert SynthParams.from_config(cfg) == SynthParams()
        config_fields = {f.name: f for f in fields(SimConfig)}
        for f in fields(SynthParams):
            twin = config_fields.get(f.name) or config_fields[f"synth_{f.name}"]
            assert (f.default, dict(f.metadata)) == (twin.default, dict(twin.metadata))

    def test_both_files_share_one_value_syntax(self):
        params = SynthParams.from_pairs({"n_users": " 12 ", "genre_skew": "0.5", "seed": "3"})
        cfg = SimConfig.from_pairs({"n_users": " 12 ", "synth.genre_skew": "0.5", "seed": "3"})
        assert params == SynthParams.from_config(cfg)
        for cls in (SimConfig, SynthParams):
            with pytest.raises(ConfigError, match="bad value for n_users"):
                cls.from_pairs({"n_users": "many"})
            with pytest.raises(ConfigError, match="unknown config key"):
                cls.from_pairs({"not_a_key": "1"})

    def test_readme_config_example_parses_to_the_defaults(self, tmp_path):
        text = README.read_text(encoding="utf-8")
        example = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
        path = tmp_path / "config.txt"
        path.write_text(example)
        assert SimConfig.from_file(path) == SimConfig()
        named = set(re.findall(r"^([a-z0-9_.]+) =", example, re.M))
        named |= set(re.findall(r"`([a-z0-9_.]+)`", text))
        assert set(SimConfig.file_keys()) - named == set()


def _at_bounds(f):
    """Settings field `f`'s sweep values: each bound, and for a float also the
    largest and the smallest positive double."""
    values = [f.metadata[k] for k in ("ge", "gt", "le") if f.metadata.get(k) is not None]
    if type(f.default) is float:
        values = [1e308, 5e-324, *values]
    return list(dict.fromkeys(type(f.default)(v) for v in values))


# the settings that pick the component reading each section, besides the ranker
READERS = {
    "mmr": {"reranker": "mmr"}, "fairrec": {"reranker": "fairrec"},
    "fairco": {"reranker": "fairco"}, "pmmf": {"reranker": "pmmf"}, "rerank": {"reranker": "mmr"},
    "cfd": {"creator_policy": "cfd"}, "lbr": {"creator_policy": "lbr"},
    "pop": {"ranker": "pop"}, "llm": {"creator_policy": "creagent_llm"},
}
TINY = {"n_users": 12, "n_creators": 6, "n_steps": 8, "warmup": 2, "retrain_period": 2}
SWEEP = [
    (cls, _file_key(cls, f.name), value)
    for cls, f in SETTINGS
    if type(f.default) in (int, float)
    for value in _at_bounds(f)
]
RUN_SWEEP = [
    (key, value, ranker)
    for cls, key, value in SWEEP if cls is SimConfig
    for ranker in (("pop",) if key.startswith("pop.") else ("random", "pop", "mf", "bpr"))
]


def _stub_reply(url, payload, timeout):
    """Every reply holds a decision and a creation, so both parse paths run."""
    content = (
        '[EXPLOIT]: Music {"name": "stub", "genre": "Music", "tags": ["a"], "description": "d"}'
    )
    return 200, json.dumps({"choices": [{"message": {"content": content}}]})


def _sim(command, path, settings, out):
    path.write_text("".join(f"{key} = {value}\n" for key, value in settings.items()))
    flag = "--config" if command == "run" else "--params"
    return cli_main([command, flag, str(path), "--out", str(out)])


def _run_checked(tmp_path, settings):
    """`sim run` on `settings` exits 0, 2 or 4, and on 0 `report()` equals the
    run's `metrics.json`."""
    out = tmp_path / "run"
    status = _sim("run", tmp_path / "config.txt", settings, out)
    assert status in (0, 2, 4)
    if status == 0:
        assert report(out) == json.loads((out / "metrics.json").read_text())


@pytest.mark.filterwarnings("error")
class TestSettingsSweep:
    """Every valid setting either finishes or is rejected with its documented
    exit code (2 config, 4 runtime), on a tiny run under warnings-as-errors,
    with the component that reads it."""

    @pytest.mark.parametrize(
        "key, value, ranker", RUN_SWEEP, ids=[f"{k}={v!r}-{r}" for k, v, r in RUN_SWEEP]
    )
    def test_run_setting_at_extreme(self, tmp_path, monkeypatch, key, value, ranker):
        monkeypatch.setattr("creatorsim.llm.requests_transport", _stub_reply)
        section = READERS.get(key.split(".")[0], {})
        _run_checked(tmp_path, {**TINY, "ranker": ranker, **section, key: value})

    @pytest.mark.parametrize(
        "key, value",
        [(k, v) for cls, k, v in SWEEP if cls is SynthParams],
        ids=[f"{k}={v!r}" for cls, k, v in SWEEP if cls is SynthParams],
    )
    def test_synth_setting_at_extreme(self, tmp_path, key, value):
        data = tmp_path / "data"
        size = {k: TINY[k] for k in ("n_users", "n_creators")}
        status = _sim("synth", tmp_path / "params.txt", {**size, key: value}, data)
        assert status in (0, 2, 4)
        if status == 0:
            _run_checked(tmp_path, {**TINY, "data_dir": data})
