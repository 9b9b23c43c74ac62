import dataclasses
import hashlib
import io
import re
import shutil
import tempfile
import tracemalloc
import weakref
from collections import defaultdict, namedtuple
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creatorsim.cli import main as cli_main
from creatorsim.core import SimConfig, creator_view, stream
from creatorsim.harness import _World, _index_of, run_simulation
from creatorsim.ingest import (
    DEFAULT_GENRES,
    PREF_SMOOTHING,
    CreatorRow,
    DanglingRef,
    Dataset,
    EmptyDataset,
    InteractionRow,
    InvalidParams,
    Items,
    SchemaError,
    SynthParams,
    UserRow,
    _draw_pairs,
    _median,
    init_creator_seeds,
    init_user_seeds,
    load_dataset,
    synth_dataset,
)
from mutations import MUTATIONS


Item = namedtuple("Item", "item_id creator_id genre title tags description created_day")


def items_of(rows) -> Items:
    """The item table of `Item` rows."""
    rows = list(rows)
    ints = ("item_id", "creator_id", "genre", "created_day")
    return Items(
        *(np.array([getattr(r, name) for r in rows], dtype=np.int64) for name in ints),
        [r.title for r in rows], [tuple(r.tags) for r in rows], [r.description for r in rows],
    )


def item_rows(items: Items) -> list[Item]:
    """The rows of an item table, as `Item`s."""
    return list(map(
        Item, items.item_id.tolist(), items.creator_id.tolist(), items.genre.tolist(), items.title,
        items.tags, items.description, items.created_day.tolist(),
    ))


RECORD_FILES = ("users.csv", "creators.csv", "items.csv", "interactions.csv")


def tiny_dataset():
    users = [UserRow(0, "u0"), UserRow(1, "u1")]
    creators = [CreatorRow(0, "Ada", 100), CreatorRow(1, "Bob", 10)]
    # Ada: genres [0,0,1,0] over days 1..60; Bob: no items
    items = items_of([
        Item(0, 0, 0, "a", ("t",), "", 1),
        Item(1, 0, 0, "b", (), "", 20),
        Item(2, 0, 1, "c", (), "", 40),
        Item(3, 0, 0, "d", (), "", 60),
    ])
    interactions = [
        InteractionRow(0, 0, 2),
        InteractionRow(0, 0, 3),
        InteractionRow(1, 0, 5),  # item 0: 3 interactions
        InteractionRow(0, 1, 25),  # item 1: 1
        InteractionRow(1, 2, 45),  # item 2: 1
    ]
    return Dataset(users, creators, items, interactions)


def known(audience):
    """The known genres of an audience belief row, with their values."""
    return {g: v for g, v in enumerate(audience.tolist()) if not np.isnan(v)}


def creator_seeds(d):
    """(activity, skill, audience) of a dataset whose ids are already 0..n-1."""
    counts = np.bincount([r.item_id for r in d.interactions], minlength=len(d.items))
    return init_creator_seeds(
        d.items.creator_id, d.items.genre, d.items.created_day, counts[d.items.item_id],
        len(d.creators), d.n_genres,
    )


def user_seeds(d):
    """(preference, activity) of a dataset whose ids are already 0..n-1."""
    genre_of = dict(zip(d.items.item_id.tolist(), d.items.genre.tolist()))
    return init_user_seeds(
        np.asarray([r.user_id for r in d.interactions], dtype=np.int64),
        np.asarray([genre_of[r.item_id] for r in d.interactions], dtype=np.int64),
        np.asarray([r.day for r in d.interactions], dtype=np.int64),
        len(d.users),
        d.n_genres,
    )


# ---------------------------------------------------------------------------
# Row-by-row reference: how the seed profiles were derived before they became
# column reductions, kept to check the reductions against.


def reference_creator_seeds(d: Dataset) -> list[tuple[list[Item], float, np.ndarray, dict]]:
    """(history, activity, skill, audience) per creator, in `d.creators` order."""
    G = d.n_genres
    counts_per_item: dict[int, int] = {}
    for r in d.interactions:
        counts_per_item[r.item_id] = counts_per_item.get(r.item_id, 0) + 1

    by_creator: dict[int, list[Item]] = {c.creator_id: [] for c in d.creators}
    for it in item_rows(d.items):
        by_creator[it.creator_id].append(it)

    activities = {}
    for c in d.creators:
        history = by_creator[c.creator_id]
        if history:
            days = [it.created_day for it in history]
            span = max(days) - min(days) + 1
            activities[c.creator_id] = len(history) / span
    median_activity = float(np.median(list(activities.values()))) if activities else 1.0

    seeds = []
    for c in d.creators:
        history = by_creator[c.creator_id]
        skill = np.zeros(G)
        audience: dict[int, float] = {}
        if history:
            for it in history:
                skill[it.genre] += 1
            skill /= skill.sum()
            for g in range(G):
                genre_items = [it for it in history if it.genre == g]
                if genre_items:
                    audience[g] = float(
                        np.mean([counts_per_item.get(it.item_id, 0) for it in genre_items])
                    )
            activity = activities[c.creator_id]
        else:
            skill[:] = 1.0 / G
            activity = median_activity
        seeds.append((history, activity, skill, audience))
    return seeds


def reference_user_seeds(d: Dataset) -> list[tuple[np.ndarray, float]]:
    """(preference, activity) per user, in `d.users` order."""
    G = d.n_genres
    genre_of = dict(zip(d.items.item_id.tolist(), d.items.genre.tolist()))
    by_user: dict[int, list[InteractionRow]] = {u.user_id: [] for u in d.users}
    for r in d.interactions:
        by_user[r.user_id].append(r)

    rates = {}
    for u in d.users:
        rows = by_user[u.user_id]
        if rows:
            days = [r.day for r in rows]
            span = max(days) - min(days) + 1
            rates[u.user_id] = len(rows) / span
    max_rate = max(rates.values()) if rates else 0.0
    median_rate = float(np.median(list(rates.values()))) if rates else 0.0

    seeds = []
    for u in d.users:
        rows = by_user[u.user_id]
        if rows:
            hist = np.zeros(G)
            for r in rows:
                hist[genre_of[r.item_id]] += 1
            pref = (hist + PREF_SMOOTHING) / (hist.sum() + PREF_SMOOTHING * G)
            activity = rates[u.user_id] / max_rate
        else:
            pref = np.full(G, 1.0 / G)
            activity = median_rate / max_rate if max_rate > 0 else 0.5
        seeds.append((pref, activity))
    return seeds


def reference_world(cfg: SimConfig, d: Dataset) -> tuple[list[dict], list[tuple]]:
    """Each kept creator's seed state and each kept user's (preference, activity),
    from the dataset filtered and seeded row by row."""
    users = sorted(d.users, key=lambda u: u.user_id)[: cfg.n_users]
    creators = sorted(d.creators, key=lambda c: c.creator_id)[: cfg.n_creators]
    kept_users = {u.user_id for u in users}
    kept_creators = {c.creator_id for c in creators}
    items = [it for it in item_rows(d.items) if it.creator_id in kept_creators]
    kept_items = {it.item_id for it in items}
    inters = [r for r in d.interactions if r.user_id in kept_users and r.item_id in kept_items]
    kept = Dataset(users, creators, items_of(items), inters, d.genres)

    catalog_order = sorted(items, key=lambda x: (x.created_day, x.item_id))
    item_index = {it.item_id: i for i, it in enumerate(catalog_order)}
    counts = np.bincount([item_index[r.item_id] for r in inters], minlength=len(items))
    seeds = reference_creator_seeds(kept)
    eta = max((activity for _, activity, _, _ in seeds), default=0.0)
    world_creators = []
    for history, activity, skill, audience in seeds:
        own = sorted(item_index[it.item_id] for it in history)
        world_creators.append(dict(
            skill=skill.tolist(), audience=audience, activity=activity,
            create_prob=activity / eta if eta > 0 else 0.0,
            items=own, exposures=counts[own].tolist(), clicks=counts[own].tolist(),
        ))
    world_users = [(pref.tolist(), activity) for pref, activity in reference_user_seeds(kept)]
    return world_creators, world_users


@st.composite
def small_datasets(draw):
    """Small datasets with id gaps, in shuffled row order, with creators that
    have no items and users without interactions."""
    G = draw(st.integers(1, 4))
    ids = lambda n: st.lists(st.integers(0, 3 * n), min_size=1, max_size=n, unique=True)
    users = [UserRow(u, f"u{u}") for u in draw(ids(8))]
    creators = [CreatorRow(c, f"c{c}", draw(st.integers(0, 50))) for c in draw(ids(6))]
    # only some creators make items and only some users interact
    makers = draw(st.lists(st.sampled_from(creators), min_size=1, unique=True))
    viewers = draw(st.lists(st.sampled_from(users), min_size=1, unique=True))
    item_ids = draw(st.lists(st.integers(0, 60), max_size=15, unique=True))
    items = [
        Item(
            i, draw(st.sampled_from(makers)).creator_id, draw(st.integers(0, G - 1)),
            f"t{i}", (), "", draw(st.integers(1, 12)),
        )
        for i in item_ids
    ]
    interactions = [
        InteractionRow(draw(st.sampled_from(viewers)).user_id, it.item_id, draw(st.integers(1, 15)))
        for it in draw(st.lists(st.sampled_from(items), max_size=30))
    ] if items else []
    return Dataset(users, creators, items_of(items), interactions, DEFAULT_GENRES[:G])


class TestWorldSeedsEqualRowReference:
    @settings(max_examples=150, deadline=None)
    @given(data=small_datasets(), n_users=st.integers(1, 9), n_creators=st.integers(1, 7))
    def test_world_seed_state_equals_reference(self, data, n_users, n_creators):
        cfg = SimConfig(n_users=n_users, n_creators=n_creators, ranker="random", reranker="none")
        world = _World(cfg, data)
        creators, users = reference_world(cfg, data)
        assert [
            dict(
                skill=c.beliefs.skill.tolist(), audience=known(c.beliefs.audience),
                activity=c.activity, create_prob=world.create_prob[c.creator_id],
                items=own.items.tolist(), exposures=own.exposures.tolist(), clicks=own.clicks.tolist(),
            )
            for c in world.creators
            for own in [creator_view(world.catalog, c.creator_id)]
        ] == creators
        assert list(zip(world.preference.tolist(), world.activity.tolist())) == users


@settings(max_examples=200, deadline=None)
@given(ids=st.lists(st.integers(-5, 5)), query=st.lists(st.integers(-7, 7)))
def test_index_of_matches_a_dict(ids, query):
    index = {x: i for i, x in enumerate(ids)}  # a repeated id keeps its last position
    got = _index_of(np.asarray(ids, dtype=np.int64), np.asarray(query, dtype=np.int64))
    assert got.tolist() == [index.get(q, -1) for q in query]


class TestCreatorSeeds:
    def test_skill_is_creation_share(self):
        _, skill, _ = creator_seeds(tiny_dataset())
        assert skill[0, 0] == pytest.approx(0.75)
        assert skill[0, 1] == pytest.approx(0.25)

    def test_audience_is_mean_interaction_count(self):
        # genre 0 items have counts {3, 1, 0} -> mean 4/3; genre 1 count {1}
        _, _, audience = creator_seeds(tiny_dataset())
        ada = known(audience[0])
        assert ada[0] == pytest.approx(4 / 3)
        assert ada[1] == pytest.approx(1.0)
        assert 2 not in ada

    def test_activity_is_items_over_day_span(self):
        days = np.linspace(1, 60, 30).astype(int)
        items = items_of(Item(i, 0, 0, "t", (), "", day) for i, day in enumerate(days))
        d = dataclasses.replace(tiny_dataset(), items=items, interactions=[])
        activity, _, _ = creator_seeds(d)
        assert activity[0] == pytest.approx(30 / 60)

    def test_cold_creator_fallbacks(self):
        activity, skill, audience = creator_seeds(tiny_dataset())
        assert np.allclose(skill[1], 1.0 / len(DEFAULT_GENRES))
        assert np.isnan(audience[1]).all()
        assert activity[1] == pytest.approx(activity[0])  # median of one value

    def test_skill_always_probability_vector(self):
        d = synth_dataset(SynthParams(n_users=20, n_creators=12), stream(3, "synth"))
        _, skill, _ = creator_seeds(d)
        assert (skill >= 0).all()
        assert skill.sum(axis=1) == pytest.approx(np.ones(len(d.creators)), abs=1e-9)


class TestUserSeeds:
    def test_smoothed_preference(self):
        # interactions in genres [A,A,B], alpha=0.1, |G|=2 -> 2.1/3.2, 1.1/3.2
        users = [UserRow(0, "u0")]
        creators = [CreatorRow(0, "c", 1)]
        items = items_of([Item(0, 0, 0, "", (), "", 1), Item(1, 0, 1, "", (), "", 1)])
        inters = [InteractionRow(0, 0, 1), InteractionRow(0, 0, 2), InteractionRow(0, 1, 3)]
        d = Dataset(users, creators, items, inters, genres=("A", "B"))
        preference, _ = user_seeds(d)
        assert preference[0, 0] == pytest.approx(2.1 / 3.2)
        assert preference[0, 1] == pytest.approx(1.1 / 3.2)

    def test_no_history_gives_uniform(self):
        d = tiny_dataset()
        d = dataclasses.replace(d, interactions=[r for r in d.interactions if r.user_id != 1])
        preference, _ = user_seeds(d)
        assert np.allclose(preference[1], 1.0 / len(DEFAULT_GENRES))

    def test_most_active_user_normalized_to_one(self):
        _, activity = user_seeds(tiny_dataset())
        assert max(activity) == pytest.approx(1.0)

    def test_purity(self):
        d = tiny_dataset()
        a = user_seeds(d)
        b = user_seeds(d)
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


class TestLoadDataset:
    def test_counts_echo_input(self, tmp_path):
        d = tiny_dataset()
        d.to_dir(tmp_path)
        back = load_dataset(tmp_path)
        assert len(back.users) == 2
        assert len(back.creators) == 2
        assert len(back.items) == 4
        assert len(back.interactions) == 5
        assert back.items.tags[0] == ("t",)

    def test_dangling_interaction_rejected(self, tmp_path):
        d = tiny_dataset()
        d = dataclasses.replace(d, interactions=[*d.interactions, InteractionRow(0, 99, 1)])
        d.to_dir(tmp_path)
        with pytest.raises(DanglingRef):
            load_dataset(tmp_path)

    @pytest.mark.parametrize("who", ["user", "creator"])
    def test_id_beyond_64_bits_rejected(self, tmp_path, who):
        d = tiny_dataset()
        if who == "user":
            d.users.append(UserRow(2**63, "huge"))
        else:
            d.creators.append(CreatorRow(2**63, "huge", 0))
        d.to_dir(tmp_path)
        with pytest.raises(SchemaError, match="64 bits"):
            load_dataset(tmp_path)

    def test_unknown_genre_rejected(self, tmp_path):
        d = tiny_dataset()
        d.to_dir(tmp_path)
        items = (tmp_path / "items.csv").read_text().replace("Film & Animation", "Basket Weaving")
        (tmp_path / "items.csv").write_text(items)
        with pytest.raises(SchemaError):
            load_dataset(tmp_path)

    def test_missing_column_rejected(self, tmp_path):
        d = tiny_dataset()
        d.to_dir(tmp_path)
        (tmp_path / "users.csv").write_text("user_id\n0\n1\n")
        with pytest.raises(SchemaError):
            load_dataset(tmp_path)

    def test_empty_dataset_rejected(self, tmp_path):
        dataclasses.replace(tiny_dataset(), items=items_of([]), interactions=[]).to_dir(tmp_path)
        with pytest.raises(EmptyDataset):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "file, edit",
        [("users.csv", "repeat"), ("creators.csv", "repeat"), ("items.csv", "repeat"),
         *((file, edit) for edit in ("short", "extra", "long", "x7") for file in RECORD_FILES)],
    )
    def test_bad_row_exits_3(self, tmp_path, capsys, file, edit):
        """A row repeated in a record file would make its id a phantom agent or
        item; a row shorter or longer than its header, a field over csv's 131,072
        characters, or an id that is not an integer, cannot be read. `sim
        validate` and `sim run` both reject each as a data error naming the
        file, and the line of a row that cannot be read."""
        data = tmp_path / "data"
        synth_dataset(SynthParams(n_users=15, n_creators=6, seed=2), stream(2, "synth")).to_dir(data)
        lines = (data / file).read_text().splitlines(keepends=True)
        head = lines[2].rstrip("\n").rsplit(",", 1)[0]  # the second row without its last field
        line = f"{file} line {len(lines) + 1}"  # the row appended below
        column = lines[0].split(",")[0]
        repeated = f"{column} {lines[2].split(',')[0]} is on more than one row"
        row, message = {
            "repeat": (lines[2], f"{file}: {repeated}"),
            "short": (head + "\n", f"{line}: fewer fields than the header"),
            "extra": (lines[2].rstrip("\n") + ",extra\n", f"{line}: more fields than the header"),
            "long": (f"{head},{'9' * 200_000}\n", f"{line}: field larger than field limit"),
            "x7": ("x7," + lines[2].split(",", 1)[1],
                   f"{line}: {column}: invalid literal for int() with base 10: 'x7'"),
        }[edit]
        (data / file).write_text("".join(lines + [row]))
        with pytest.raises(SchemaError, match=re.escape(message)):
            load_dataset(data)
        assert cli_main(["validate", str(data)]) == 3
        assert message in capsys.readouterr().err
        config = tmp_path / "config.txt"
        config.write_text(f"n_users = 15\nn_creators = 6\nn_steps = 8\nwarmup = 2\ndata_dir = {data}\n")
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    """The four record files of a tiny synthesized dataset."""
    data = tmp_path_factory.mktemp("tiny") / "data"
    small_synth().to_dir(data)
    return data


@settings(max_examples=150, deadline=None)
@given(file=st.sampled_from(RECORD_FILES), mutation=st.sampled_from(sorted(MUTATIONS)), data=st.data())
def test_validate_and_run_survive_mutated_dataset(tiny_data, file, mutation, data):
    """One mutation of one record file: `sim validate`, and `sim run` on a
    dataset it accepts, finish or name a config, data or runtime error, and
    never fail with a traceback."""
    with tempfile.TemporaryDirectory() as scratch:
        broken = shutil.copytree(tiny_data, Path(scratch) / "data")
        raw = (broken / file).read_bytes()
        (broken / file).write_bytes(MUTATIONS[mutation](raw, data.draw))
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = cli_main(["validate", str(broken)])
            assert code in (0, 2, 3, 4)
            if code == 0:
                cfg = SimConfig(n_users=15, n_creators=6, n_steps=4, warmup=2, data_dir=str(broken))
                config = Path(scratch) / "config.txt"
                config.write_text(cfg.to_text())
                out = str(Path(scratch) / "run")
                assert cli_main(["run", "--config", str(config), "--out", out]) in (0, 2, 3, 4)
        assert "Traceback" not in err.getvalue()


class TestStreamingLoad:
    def test_peak_is_a_small_multiple_of_the_dataset(self, tmp_path):
        """Each file's rows are parsed as they are read, so loading never holds
        a file's rows as text; reading them all first peaked at 7x the result."""
        synth_dataset(SynthParams(n_users=1000, n_creators=200, seed=1), stream(1, "synth")).to_dir(tmp_path)
        tracemalloc.start()
        try:
            data = load_dataset(tmp_path)
            size, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data.users) == 1000 and len(data.interactions) > 25_000
        assert peak < 4 * size

    @pytest.mark.parametrize("file", ["users.csv", "creators.csv", "items.csv", "interactions.csv"])
    def test_headers_are_checked_before_any_row(self, tmp_path, file):
        """A missing column is reported before a bad row in an earlier file."""
        small_synth().to_dir(tmp_path)
        users = (tmp_path / "users.csv").read_text().splitlines(keepends=True)
        (tmp_path / "users.csv").write_text("".join([users[0], "not-a-number,x\n", *users[1:]]))
        text = (tmp_path / file).read_text()
        column = text.split(",", 1)[0]
        (tmp_path / file).write_text(text.replace(column, "renamed", 1))
        with pytest.raises(SchemaError, match=f"{file}: missing column '{column}'"):
            load_dataset(tmp_path)

    def test_bytes_that_are_not_utf8_after_the_first_block_exit_3(self, tmp_path, capsys):
        """A bad byte deep in a file is met while its rows are parsed, and is
        the same data error as one met at its header."""
        synth_dataset(SynthParams(n_users=100, n_creators=20, seed=2), stream(2, "synth")).to_dir(tmp_path)
        path = tmp_path / "interactions.csv"
        raw = path.read_bytes()
        assert len(raw) > 8192
        path.write_bytes(raw + b"0,0,\xff\n")
        with pytest.raises(SchemaError, match="^interactions.csv: 'utf-8' codec can't decode"):
            load_dataset(tmp_path)
        assert cli_main(["validate", str(tmp_path)]) == 3
        assert "can't decode" in capsys.readouterr().err


_SIGNED_ZEROS = st.lists(st.sampled_from([0.0, -0.0, 1.5, -2.0]), min_size=1, max_size=40)


class TestMedian:
    @given(st.one_of(
        st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=40),
        st.lists(st.floats(-1e300, 1e300), min_size=1, max_size=40),
        _SIGNED_ZEROS,
        _SIGNED_ZEROS.map(lambda v: v + v),  # every value repeated, an even length
    ))
    @example([7])
    @example([-0.0])
    @example([3, 1, 2, 2])
    @example([0.0, -0.0, -0.0])
    @example([-0.0, 0.0, 0.0, -0.0])
    @settings(max_examples=300, deadline=None)
    def test_equals_np_median_bit_for_bit(self, values):
        got, want = _median(values), np.median(values)
        assert type(got) is type(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        array = np.asarray(values)
        assert np.asarray(_median(array)).tobytes() == np.asarray(np.median(array)).tobytes()


class TestSynth:
    def test_deterministic_given_seed(self):
        p = SynthParams(n_users=30, n_creators=10, seed=7)
        a = synth_dataset(p, stream(7, "synth"))
        b = synth_dataset(p, stream(7, "synth"))
        assert item_rows(a.items) == item_rows(b.items)
        assert list(a.interactions) == list(b.interactions)
        assert a.creators == b.creators

    def test_zero_skew_gives_near_uniform_genres(self):
        p = SynthParams(n_users=50, n_creators=40, items_per_creator=50,
                        genre_skew=0.0, genre_concentration=0.1, activity_skew=0.0)
        d = synth_dataset(p, stream(11, "synth"))
        counts = np.bincount(d.items.genre, minlength=14)
        expected = len(d.items) / 14
        chi2 = ((counts - expected) ** 2 / expected).sum()
        # chi-square critical value for df=13 at alpha=0.001
        assert chi2 < 34.53

    def test_high_concentration_gives_low_creator_entropy(self):
        p = SynthParams(n_users=20, n_creators=50, items_per_creator=20,
                        genre_concentration=50.0)
        d = synth_dataset(p, stream(5, "synth"))
        entropies = []
        for c in d.creators:
            hist = np.bincount(d.items.genre[d.items.creator_id == c.creator_id], minlength=14)
            if hist.sum() == 0:
                continue
            probs = hist / hist.sum()
            probs = probs[probs > 0]
            entropies.append(float(-(probs * np.log(probs)).sum()))
        assert np.median(entropies) < 0.5

    def test_roundtrip_passes_validation(self, tmp_path):
        d = synth_dataset(SynthParams(n_users=25, n_creators=8), stream(2, "synth"))
        d.to_dir(tmp_path)
        back = load_dataset(tmp_path)
        assert len(back.items) == len(d.items)
        assert len(back.interactions) == len(d.interactions)

    def test_invalid_params(self):
        with pytest.raises(InvalidParams):
            SynthParams(n_users=0).validate()
        with pytest.raises(InvalidParams):
            SynthParams(n_genres=15).validate()
        with pytest.raises(InvalidParams):
            SynthParams(genre_concentration=0.0).validate()
        with pytest.raises(InvalidParams, match="n_days"):
            SynthParams(n_days=2**32).validate()
        with pytest.raises(InvalidParams, match="items_per_creator"):
            SynthParams(n_creators=2**16, items_per_creator=2**16).validate()

    def test_day_span_beyond_32_bits_is_a_usage_error(self, tmp_path):
        """The decoder's draws span fewer than 2**32 values; a longer horizon
        is refused up front instead of looping on an unreachable threshold."""
        params = tmp_path / "params.txt"
        params.write_text(f"n_users = 3\nn_creators = 2\nn_days = {2**32 + 1}\n")
        assert cli_main(["synth", "--params", str(params), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        p = SynthParams(n_users=3, n_creators=2, n_days=2**32 - 1)
        d = synth_dataset(p, stream(p.seed, "synth"))
        assert max(r.day for r in d.interactions) <= 2**32 - 1

    def test_vanishing_genre_concentration_is_a_usage_error(self, tmp_path):
        """Near 0 the Dirichlet weights genre_pop * n_genres / genre_concentration
        overflow; such a value is refused up front, and the bound itself synthesizes."""
        params = tmp_path / "params.txt"
        params.write_text("n_users = 15\nn_creators = 6\ngenre_concentration = 5e-324\n")
        assert cli_main(["synth", "--params", str(params), "--out", str(tmp_path / "out")]) == 2
        assert not (tmp_path / "out").exists()
        p = SynthParams(n_users=15, n_creators=6, genre_concentration=1e-6)
        d = synth_dataset(p, stream(p.seed, "synth"))
        assert len(d.items) and ((0 <= d.items.genre) & (d.items.genre < p.n_genres)).all()

    def test_params_file_roundtrip(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("n_users = 12\nn_creators = 4\ngenre_skew = 0.5\nseed = 3\n")
        p = SynthParams.from_file(path)
        assert (p.n_users, p.n_creators, p.genre_skew, p.seed) == (12, 4, 0.5, 3)
        (tmp_path / "bad.txt").write_text("nope = 1\n")
        with pytest.raises(InvalidParams):
            SynthParams.from_file(tmp_path / "bad.txt")


COLUMNS = ("user_id", "item_id", "day")
ITEM_COLUMNS = ("item_id", "creator_id", "genre", "created_day")


def small_synth():
    return synth_dataset(SynthParams(n_users=15, n_creators=6, seed=2), stream(2, "synth"))


class TestInteractionColumns:
    def test_synth_and_load_give_int64_columns(self, tmp_path):
        d = small_synth()
        d.to_dir(tmp_path)
        back = load_dataset(tmp_path)
        for table, names in (("interactions", COLUMNS), ("items", ITEM_COLUMNS)):
            for name in names:
                a, b = (getattr(getattr(x, table), name) for x in (d, back))
                assert a.dtype == b.dtype == np.int64
                assert np.array_equal(a, b)
        assert (back.items.title, back.items.tags, back.items.description) == (
            d.items.title, d.items.tags, d.items.description
        )

    def test_rows_rebuild_the_same_columns_and_files(self, tmp_path):
        d = small_synth()
        rows = list(d.interactions)
        assert len(rows) == len(d.interactions) > 0
        assert all(type(r) is InteractionRow for r in rows)
        rebuilt = Dataset(d.users, d.creators, d.items, rows, d.genres)
        for name in COLUMNS:
            assert np.array_equal(getattr(rebuilt.interactions, name), getattr(d.interactions, name))
        d.to_dir(tmp_path / "columns")
        rebuilt.to_dir(tmp_path / "rows")
        for f in ("users.csv", "creators.csv", "items.csv", "interactions.csv"):
            assert (tmp_path / "columns" / f).read_bytes() == (tmp_path / "rows" / f).read_bytes()

    def test_run_frees_the_dataset_it_synthesized(self, tmp_path, monkeypatch):
        """The world keeps what it needs of the dataset; the dataset itself is
        gone before the step-0 retrain and the first step."""
        import creatorsim.harness as harness
        from creatorsim.recsys import MfRanker

        refs, alive, retrains = [], [], []
        original_synth, original_create = harness.synth_dataset, harness._World.phase_create
        original_retrain = MfRanker.retrain

        def synth(*args):
            data = original_synth(*args)
            refs.append(weakref.ref(data))
            return data

        def create(world, n):
            alive.append(refs[0]() is not None)
            return original_create(world, n)

        def retrain(ranker, clicks, catalog, step):
            retrains.append((step, refs[0]() is not None))
            return original_retrain(ranker, clicks, catalog, step)

        monkeypatch.setattr(harness, "synth_dataset", synth)
        monkeypatch.setattr(harness._World, "phase_create", create)
        monkeypatch.setattr(MfRanker, "retrain", retrain)
        # mf is the default ranker
        run_simulation(SimConfig(n_users=15, n_creators=6, n_steps=2, warmup=1), out_dir=tmp_path / "run")
        assert alive == [False, False]
        assert retrains == [(0, False)]


def _with_last_field(path, line, value):
    """Record file `path` with the last field of data line `line` set to `value`."""
    lines = path.read_text().splitlines(keepends=True)
    lines[line] = f"{lines[line].rstrip().rsplit(',', 1)[0]},{value}\n"
    path.write_text("".join(lines))


class TestDayRange:
    @pytest.mark.parametrize("file", ["interactions.csv", "items.csv"])
    @pytest.mark.parametrize("day", [2**63, 2**62 + 1, -1, -(2**62)])
    def test_day_outside_range_exits_3(self, tmp_path, capsys, file, day):
        """A day past int64 used to crash `sim run`, and a span of days past
        int64 wrapped a user's activity; both are data errors now."""
        data = tmp_path / "data"
        small_synth().to_dir(data)
        _with_last_field(data / file, 1, day)
        column = "day" if file == "interactions.csv" else "created_day"
        message = f"{file}: {column} {day} outside [0, 2**62]"
        assert cli_main(["validate", str(data)]) == 3
        assert message in capsys.readouterr().err
        config = tmp_path / "config.txt"
        config.write_text(f"n_users = 15\nn_creators = 6\nn_steps = 8\nwarmup = 2\ndata_dir = {data}\n")
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()

    def test_days_at_the_bounds_run(self, tmp_path):
        data = tmp_path / "data"
        small_synth().to_dir(data)
        first_user = [k for k, line in enumerate((data / "interactions.csv").read_text().splitlines())
                      if line.startswith("0,")]
        _with_last_field(data / "interactions.csv", first_user[0], 2**62)
        _with_last_field(data / "items.csv", 1, 0)
        assert cli_main(["validate", str(data)]) == 0
        cfg = SimConfig(n_users=15, n_creators=6, n_steps=4, warmup=2, data_dir=str(data))
        run_simulation(cfg, out_dir=tmp_path / "run")


class TestInMemoryDataset:
    """A dataset built in memory reaches a run only through its files:
    `to_dir` writes what `load_dataset` rejects, and a run reading them from
    `data_dir` stops before it writes anything."""

    @pytest.mark.parametrize("edit", ["user", "creator", "item", "created_day", "day"])
    def test_rejected_as_its_files_are(self, tmp_path, edit):
        d = small_synth()
        if edit == "user":
            d.users.append(d.users[3])
            message = "users.csv: user_id 3 is on more than one row"
        elif edit == "creator":
            d.creators.append(d.creators[2])
            message = "creators.csv: creator_id 2 is on more than one row"
        elif edit == "item":
            d = dataclasses.replace(d, items=items_of([*item_rows(d.items), item_rows(d.items)[5]]))
            message = "items.csv: item_id 5 is on more than one row"
        elif edit == "created_day":
            d.items.created_day[0] = -1
            message = r"items.csv: created_day -1 outside \[0, 2\*\*62\]"
        else:
            d.interactions.day[0] = 2**62 + 1
            message = rf"interactions.csv: day {2**62 + 1} outside \[0, 2\*\*62\]"
        d.to_dir(tmp_path / "data")
        with pytest.raises(SchemaError, match=message):
            load_dataset(tmp_path / "data")
        cfg = SimConfig(n_users=15, n_creators=6, n_steps=4, warmup=2, data_dir=str(tmp_path / "data"))
        with pytest.raises(SchemaError, match=message):
            run_simulation(cfg, out_dir=tmp_path / "run")
        assert not (tmp_path / "run").exists()


# sha256 of each `Dataset.to_dir` file for fixed params, drawn from the same
# stream a run uses. "one-item" has a single item, so 13 of its 14 genres are
# empty and every interaction in them takes the all-items fallback draw.
SYNTH_PINS = {
    "default-small": (
        dict(n_users=30, n_creators=10, seed=7),
        {
            "users.csv": "98782db2431af6aac7b40eb2348db9472537bd2377d25e491de0e6d94b10d14c",
            "creators.csv": "2186f5e8fd1c18cdb5344d8a92f36454b9d5115917d976cabddc5aa0760255d1",
            "items.csv": "7421348d6e30bd77deac98bba21342cb935ece47d72b13f45ebafb8b0888276c",
            "interactions.csv": "10f7d3d426ddb73082d87c275ddb7b8f2ad2ec680bcc93ba27a604e4d6ee8669",
        },
    ),
    "skewed": (
        dict(n_users=60, n_creators=25, n_genres=6, n_days=20, items_per_creator=8,
             interactions_per_user=12, genre_skew=2.0, genre_concentration=0.5,
             activity_skew=1.5, activity_floor=0.2, seed=3),
        {
            "users.csv": "75b19b537437cba5f15d640335a8fc5f62de0c68f6539814f9c49785799d2cd5",
            "creators.csv": "05c1de4e0ede2e1ad8cd0f708df2593b7c1ee72e7bb444624b30c7558a473848",
            "items.csv": "66af880ff6e735dfde3bd4c8deefbbf148b6b8bbe7b941e2c59dce1f686c7288",
            "interactions.csv": "7afb2ffdcc0820f5f4bbf68c80f673f16914c9b54788b545bc3710ed21e87f50",
        },
    ),
    "one-item": (
        dict(n_users=20, n_creators=1, items_per_creator=1, seed=11),
        {
            "users.csv": "2e3885268538eb7023aeb655fde784d87e95c8ff343703f9714e1a4f57b13d7d",
            "creators.csv": "6a0e59ae14eb7b9cfdf1e80a0a221cd4dcb7fd983eef0e768aa2a8fcca2537ed",
            "items.csv": "00af2135b0fde68ee65e358c0fdfd64397288f5186480ee5ec1db28b7fe077b6",
            "interactions.csv": "16a02bb03bf211f8e88550642443362e0cab3aeedd0610884ef34965ed36a71b",
        },
    ),
    "no-interactions": (
        dict(n_users=5, n_creators=4, interactions_per_user=0, seed=2),
        {
            "users.csv": "7d43a862547fe7ca7c55f9022a4a0b578f987cfa01c44034b0e913f532347aae",
            "creators.csv": "1080d0a370873dc25a57b0ec0229a8797605c2545c2a1559ff018c8bf6b4e7fa",
            "items.csv": "59c4686ba992d55c7bc6920cd5c22d388961e3ab7cf9c223dbb70479253efd22",
            "interactions.csv": "57dc1760bcce07fa13328ca33e2239b8ba09f4aa59feb5143bb8a0b9309da809",
        },
    ),
    # the wide-catalog shape: the busiest user has about 4,000 interactions
    "wide": (
        dict(n_users=1000, n_creators=200, seed=1),
        {
            "users.csv": "a9e622ad99c47b7d4d1d55270edb8cba840c155a5ff6767a17006ee232173e18",
            "creators.csv": "278c9a30cb929752738e03d78af1d17189169d3004609e9cd360b739bed5c2d5",
            "items.csv": "66e1c21bf83f678819de88d31afbece5a4360c1deed027d24124dd1acee745ae",
            "interactions.csv": "97a501604e6dc7ad423cae6cb6dd9b7e3bb953b5f4ec82dfc0e4e93299ddf256",
        },
    ),
}


@pytest.mark.parametrize("name", sorted(SYNTH_PINS))
def test_synth_files_pinned(name, tmp_path):
    kwargs, pinned = SYNTH_PINS[name]
    p = SynthParams(**kwargs)
    d = synth_dataset(p, stream(p.seed, "synth"))
    if name == "one-item":
        assert len(d.items) == 1 and len(d.interactions) > 0
    d.to_dir(tmp_path)
    digests = {f: hashlib.sha256((tmp_path / f).read_bytes()).hexdigest() for f in pinned}
    assert digests == pinned


# Spans that stress the decoder: 1 takes no word, and for 2**31 + 1 numpy
# rejects about half the words, so a block outruns its first buffer.
EDGE_SPANS = [1, 2, 3, 2**31 - 1, 2**31, 2**31 + 1, 2**32 - 1]


@st.composite
def pair_draws(draw):
    """A seed, a number of 32-bit words to draw first (an odd number leaves
    half of a 64-bit output buffered), a table of second spans and the
    (base, first span) of each pair."""
    spans = st.one_of(st.sampled_from(EDGE_SPANS), st.integers(1, 2**32 - 1))
    if draw(st.booleans()):
        table = draw(st.lists(spans, min_size=1, max_size=30))
        n = len(table)
    else:
        # one second span for every slot, so first spans may cover the full range
        span = draw(spans)
        table = defaultdict(lambda: span)
        n = 2**32 - 1
    first = draw(st.lists(st.one_of(spans, st.integers(1, n)).map(lambda s: min(s, n)), max_size=80))
    base = [draw(st.integers(0, n - s)) for s in first]
    return draw(st.integers(0, 2**32)), draw(st.integers(0, 3)), table, base, first


def rejections():
    """Half the words rejected in both draws of 64 pairs: about 256 words
    for a first block of 128."""
    span = 2**31 + 1
    return 5, 1, defaultdict(lambda: span), [0] * 64, [span] * 64


@settings(max_examples=300, deadline=None)
@given(case=pair_draws())
@example(case=rejections())
@example(case=(1, 0, [1], [0] * 20, [1] * 20))
@example(case=(2, 1, [5, 1, 1, 2**31 + 1], [0, 0, 1, 3, 0, 2, 1], [3, 4, 3, 1, 1, 2, 2]))
def test_draw_pairs_equal_scalar_draws(case):
    seed, warm, table, base, first = case
    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for r in (rng, ref):
        r.integers(0, 2**32, size=warm, dtype=np.uint64)
    slots, b = _draw_pairs(rng, first, base, table)
    want_slots, want_b = [], []
    for k, s in zip(base, first):
        want_slots.append(k + int(ref.integers(s)))
        want_b.append(int(ref.integers(table[want_slots[-1]])))
    assert (slots, b) == (want_slots, want_b)
    assert rng.bit_generator.state == ref.bit_generator.state
