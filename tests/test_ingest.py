import numpy as np
import pytest

from creatorsim.core import stream
from creatorsim.ingest import (
    DEFAULT_GENRES,
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


class TestCreatorSeeds:
    def test_skill_is_creation_share(self):
        seeds = init_creator_seeds(tiny_dataset())
        ada = seeds[0]
        assert ada.skill[0] == pytest.approx(0.75)
        assert ada.skill[1] == pytest.approx(0.25)

    def test_audience_is_mean_interaction_count(self):
        # genre 0 items have counts {3, 1, 0} -> mean 4/3; genre 1 count {1}
        seeds = init_creator_seeds(tiny_dataset())
        ada = seeds[0]
        assert ada.audience[0] == pytest.approx(4 / 3)
        assert ada.audience[1] == pytest.approx(1.0)
        assert 2 not in ada.audience

    def test_activity_is_items_over_day_span(self):
        d = tiny_dataset()
        d.items = [
            ItemRow(i, 0, 0, "t", (), "", day)
            for i, day in enumerate(np.linspace(1, 60, 30).astype(int))
        ]
        d.interactions = []
        seeds = init_creator_seeds(d)
        assert seeds[0].activity == pytest.approx(30 / 60)

    def test_cold_creator_fallbacks(self):
        seeds = init_creator_seeds(tiny_dataset())
        bob = seeds[1]
        assert np.allclose(bob.skill, 1.0 / len(DEFAULT_GENRES))
        assert bob.audience == {}
        assert bob.activity == pytest.approx(seeds[0].activity)  # median of one value

    def test_skill_always_probability_vector(self):
        d = synth_dataset(SynthParams(n_users=20, n_creators=12), stream(3, "synth"))
        for seed in init_creator_seeds(d):
            assert (seed.skill >= 0).all()
            assert seed.skill.sum() == pytest.approx(1.0, abs=1e-9)


class TestUserSeeds:
    def test_smoothed_preference(self):
        # interactions in genres [A,A,B], alpha=0.1, |G|=2 -> 2.1/3.2, 1.1/3.2
        users = [UserRow(0, "u0")]
        creators = [CreatorRow(0, "c", 1)]
        items = [ItemRow(0, 0, 0, "", (), "", 1), ItemRow(1, 0, 1, "", (), "", 1)]
        inters = [InteractionRow(0, 0, 1), InteractionRow(0, 0, 2), InteractionRow(0, 1, 3)]
        d = Dataset(users, creators, items, inters, genres=("A", "B"))
        seeds = init_user_seeds(d)
        assert seeds[0].preference[0] == pytest.approx(2.1 / 3.2)
        assert seeds[0].preference[1] == pytest.approx(1.1 / 3.2)

    def test_no_history_gives_uniform(self):
        d = tiny_dataset()
        d.interactions = [r for r in d.interactions if r.user_id != 1]
        seeds = init_user_seeds(d)
        assert np.allclose(seeds[1].preference, 1.0 / len(DEFAULT_GENRES))

    def test_most_active_user_normalized_to_one(self):
        seeds = init_user_seeds(tiny_dataset())
        assert max(s.activity for s in seeds) == pytest.approx(1.0)

    def test_purity(self):
        d = tiny_dataset()
        a = init_user_seeds(d)
        b = init_user_seeds(d)
        for x, y in zip(a, b):
            assert np.array_equal(x.preference, y.preference)
            assert x.activity == y.activity


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

    def test_params_file_roundtrip(self, tmp_path):
        path = tmp_path / "params.txt"
        path.write_text("n_users = 12\nn_creators = 4\ngenre_skew = 0.5\nseed = 3\n")
        p = SynthParams.from_file(path)
        assert (p.n_users, p.n_creators, p.genre_skew, p.seed) == (12, 4, 0.5, 3)
        (tmp_path / "bad.txt").write_text("nope = 1\n")
        with pytest.raises(InvalidParams):
            SynthParams.from_file(tmp_path / "bad.txt")
