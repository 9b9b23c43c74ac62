import hashlib
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from creatorsim.cli import main as cli_main
from creatorsim.core import SimConfig, stream
from creatorsim.harness import _World, _index_of
from creatorsim.ingest import (
    DEFAULT_GENRES,
    PREF_SMOOTHING,
    CreatorRow,
    DanglingRef,
    Dataset,
    EmptyDataset,
    InteractionRow,
    InvalidParams,
    ItemRow,
    SchemaError,
    SynthParams,
    UserRow,
    _draw_pairs,
    init_creator_seeds,
    init_user_seeds,
    load_dataset,
    synth_dataset,
)


def tiny_dataset():
    users = [UserRow(0, "u0"), UserRow(1, "u1")]
    creators = [CreatorRow(0, "Ada", 100), CreatorRow(1, "Bob", 10)]
    # Ada: genres [0,0,1,0] over days 1..60; Bob: no items
    items = [
        ItemRow(0, 0, 0, "a", ("t",), "", 1),
        ItemRow(1, 0, 0, "b", (), "", 20),
        ItemRow(2, 0, 1, "c", (), "", 40),
        ItemRow(3, 0, 0, "d", (), "", 60),
    ]
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
        np.asarray([it.creator_id for it in d.items], dtype=np.int64),
        np.asarray([it.genre for it in d.items], dtype=np.int64),
        np.asarray([it.created_day for it in d.items], dtype=np.int64),
        counts[[it.item_id for it in d.items]],
        len(d.creators),
        d.n_genres,
    )


def user_seeds(d):
    """(preference, activity) of a dataset whose ids are already 0..n-1."""
    genre_of = {it.item_id: it.genre for it in d.items}
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


def reference_creator_seeds(d: Dataset) -> list[tuple[list[ItemRow], float, np.ndarray, dict]]:
    """(history, activity, skill, audience) per creator, in `d.creators` order."""
    G = d.n_genres
    counts_per_item: dict[int, int] = {}
    for r in d.interactions:
        counts_per_item[r.item_id] = counts_per_item.get(r.item_id, 0) + 1

    by_creator: dict[int, list[ItemRow]] = {c.creator_id: [] for c in d.creators}
    for it in d.items:
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
    genre_of = {it.item_id: it.genre for it in d.items}
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
    items = [it for it in d.items if it.creator_id in kept_creators]
    kept_items = {it.item_id for it in items}
    inters = [r for r in d.interactions if r.user_id in kept_users and r.item_id in kept_items]
    kept = Dataset(users, creators, items, inters, d.genres)

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
        ItemRow(
            i, draw(st.sampled_from(makers)).creator_id, draw(st.integers(0, G - 1)),
            f"t{i}", (), "", draw(st.integers(1, 12)),
        )
        for i in item_ids
    ]
    interactions = [
        InteractionRow(draw(st.sampled_from(viewers)).user_id, it.item_id, draw(st.integers(1, 15)))
        for it in draw(st.lists(st.sampled_from(items), max_size=30))
    ] if items else []
    return Dataset(users, creators, items, interactions, DEFAULT_GENRES[:G])


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
                items=c.items.tolist(), exposures=world.catalog.exposures[c.items].tolist(),
                clicks=world.catalog.clicks[c.items].tolist(),
            )
            for c in world.creators
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
        d = tiny_dataset()
        d.items = [
            ItemRow(i, 0, 0, "t", (), "", day)
            for i, day in enumerate(np.linspace(1, 60, 30).astype(int))
        ]
        d.interactions = []
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
        items = [ItemRow(0, 0, 0, "", (), "", 1), ItemRow(1, 0, 1, "", (), "", 1)]
        inters = [InteractionRow(0, 0, 1), InteractionRow(0, 0, 2), InteractionRow(0, 1, 3)]
        d = Dataset(users, creators, items, inters, genres=("A", "B"))
        preference, _ = user_seeds(d)
        assert preference[0, 0] == pytest.approx(2.1 / 3.2)
        assert preference[0, 1] == pytest.approx(1.1 / 3.2)

    def test_no_history_gives_uniform(self):
        d = tiny_dataset()
        d.interactions = [r for r in d.interactions if r.user_id != 1]
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
        assert back.items[0].tags == ("t",)

    def test_dangling_interaction_rejected(self, tmp_path):
        d = tiny_dataset()
        d.interactions.append(InteractionRow(0, 99, 1))
        d.to_dir(tmp_path)
        with pytest.raises(DanglingRef):
            load_dataset(tmp_path)

    def test_id_beyond_64_bits_rejected(self, tmp_path):
        d = tiny_dataset()
        d.users.append(UserRow(2**63, "huge"))
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
        d = tiny_dataset()
        d.items = []
        d.interactions = []
        d.to_dir(tmp_path)
        with pytest.raises(EmptyDataset):
            load_dataset(tmp_path)

    @pytest.mark.parametrize(
        "file, column", [("users.csv", "user_id"), ("creators.csv", "creator_id"), ("items.csv", "item_id")]
    )
    def test_repeated_id_exits_3(self, tmp_path, capsys, file, column):
        """A row repeated in a record file would make its id a phantom agent or
        item; `sim validate` and `sim run` both reject it as a data error."""
        data = tmp_path / "data"
        synth_dataset(SynthParams(n_users=15, n_creators=6, seed=2), stream(2, "synth")).to_dir(data)
        lines = (data / file).read_text().splitlines(keepends=True)
        (data / file).write_text("".join(lines + [lines[2]]))
        message = f"{file}: {column} {lines[2].split(',')[0]} is on more than one row"
        with pytest.raises(SchemaError, match=message):
            load_dataset(data)
        assert cli_main(["validate", str(data)]) == 3
        assert message in capsys.readouterr().err
        config = tmp_path / "config.txt"
        config.write_text(f"n_users = 15\nn_creators = 6\nn_steps = 8\nwarmup = 2\ndata_dir = {data}\n")
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 3
        assert message in capsys.readouterr().err
        assert not (tmp_path / "run").exists()


class TestSynth:
    def test_deterministic_given_seed(self):
        p = SynthParams(n_users=30, n_creators=10, seed=7)
        a = synth_dataset(p, stream(7, "synth"))
        b = synth_dataset(p, stream(7, "synth"))
        assert a.items == b.items
        assert a.interactions == b.interactions
        assert a.creators == b.creators

    def test_zero_skew_gives_near_uniform_genres(self):
        p = SynthParams(n_users=50, n_creators=40, items_per_creator=50,
                        genre_skew=0.0, genre_concentration=0.1, activity_skew=0.0)
        d = synth_dataset(p, stream(11, "synth"))
        counts = np.bincount([it.genre for it in d.items], minlength=14)
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
            hist = np.bincount([it.genre for it in d.items if it.creator_id == c.creator_id], minlength=14)
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
        assert d.items and all(0 <= it.genre < p.n_genres for it in d.items)

    def test_params_file_roundtrip(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("n_users = 12\nn_creators = 4\ngenre_skew = 0.5\nseed = 3\n")
        p = SynthParams.from_file(path)
        assert (p.n_users, p.n_creators, p.genre_skew, p.seed) == (12, 4, 0.5, 3)
        (tmp_path / "bad.txt").write_text("nope = 1\n")
        with pytest.raises(InvalidParams):
            SynthParams.from_file(tmp_path / "bad.txt")


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
