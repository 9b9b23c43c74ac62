import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim.core import ItemRecord
from creatorsim.rerank import (
    ExposureLedger,
    fairco_rerank,
    fairrec_rerank,
    mmr_rerank,
    pmmf_rerank,
)


def item(item_id, creator=0, genre=0):
    return ItemRecord(item_id, creator, genre, f"i{item_id}", (), "", 0)


def scored_list(specs):
    """specs: list of (item_id, creator, genre, relevance) in relevance order."""
    return [(item(i, c, g), r) for i, c, g, r in specs]


class TestMmr:
    def test_lambda_one_is_identity(self):
        scored = scored_list([(0, 0, 0, 0.9), (1, 0, 0, 0.8), (2, 0, 1, 0.7)])
        out = mmr_rerank(scored, lam=1.0, k=3)
        assert [r.item_id for r in out] == [0, 1, 2]

    def test_lambda_zero_two_genres_one_each(self):
        scored = scored_list([(0, 0, 0, 0.9), (1, 0, 0, 0.8), (2, 0, 1, 0.1)])
        out = mmr_rerank(scored, lam=0.0, k=2)
        assert {r.genre for r in out} == {0, 1}

    def test_k_one_is_top_relevance(self):
        scored = scored_list([(0, 0, 0, 0.9), (1, 0, 1, 0.8)])
        for lam in (0.0, 0.5, 1.0):
            assert mmr_rerank(scored, lam, 1)[0].item_id == 0


class TestFairrec:
    def test_underexposed_creator_gets_first_slot(self):
        ledger = ExposureLedger()
        ledger.add_exposure(1, 100)
        scored = scored_list([(0, 1, 0, 0.9), (1, 1, 0, 0.8), (2, 0, 1, 0.1)])
        out = fairrec_rerank(scored, ledger, k=2, min_share=0.5, alive_creators=[0, 1])
        assert out[0].creator_id == 0
        assert out[1].item_id == 0

    def test_all_above_threshold_is_relevance_order(self):
        ledger = ExposureLedger()
        ledger.add_exposure(0, 10)
        ledger.add_exposure(1, 10)
        scored = scored_list([(0, 0, 0, 0.9), (1, 1, 0, 0.8), (2, 0, 1, 0.1)])
        out = fairrec_rerank(scored, ledger, k=3, min_share=0.5, alive_creators=[0, 1])
        assert [r.item_id for r in out] == [0, 1, 2]

    def test_single_creator_is_relevance_order(self):
        ledger = ExposureLedger()
        scored = scored_list([(0, 0, 0, 0.9), (1, 0, 0, 0.8)])
        out = fairrec_rerank(scored, ledger, k=2, min_share=0.5, alive_creators=[0])
        assert [r.item_id for r in out] == [0, 1]


class TestFairco:
    def test_lambda_zero_is_identity(self):
        ledger = ExposureLedger()
        ledger.add_exposure(0, 5)
        scored = scored_list([(0, 0, 0, 0.9), (1, 1, 0, 0.8)])
        out = fairco_rerank(scored, ledger, 0.0, alive_creators=[0, 1])
        assert [r.item_id for r in out] == [0, 1]

    def test_underexposed_owner_wins_on_equal_relevance(self):
        ledger = ExposureLedger()
        ledger.add_exposure(1, 100)
        scored = scored_list([(0, 1, 0, 0.5), (1, 0, 0, 0.5)])
        out = fairco_rerank(scored, ledger, 0.5, alive_creators=[0, 1])
        assert out[0].creator_id == 0

    def test_overexposed_scores_unchanged(self):
        # both creators above the mean is impossible; check err caps at 0 for the rich one
        ledger = ExposureLedger()
        ledger.add_exposure(0, 200)
        ledger.add_exposure(1, 0)
        scored = scored_list([(0, 0, 0, 0.9), (1, 0, 0, 0.7)])
        out = fairco_rerank(scored, ledger, 10.0, alive_creators=[0, 1])
        # creator 0 over-exposed: no boost anywhere, order preserved
        assert [r.item_id for r in out] == [0, 1]


class TestPmmf:
    def test_zero_duals_is_relevance_order(self):
        scored = scored_list([(0, 0, 0, 0.9), (1, 1, 0, 0.8)])
        out, _ = pmmf_rerank(scored, {}, eta_dual=0.1, k=2, alive_creators=[0, 1])
        assert [r.item_id for r in out] == [0, 1]

    def test_never_selected_creator_dual_grows_linearly(self):
        # 5 creators, k=5; creator 4 never has a candidate
        duals = {}
        for _ in range(10):
            scored = scored_list([(i, i, 0, 1.0 - 0.1 * i) for i in range(4)])
            _, duals = pmmf_rerank(scored, duals, eta_dual=0.1, k=5,
                                   alive_creators=list(range(5)))
        assert duals[4] == pytest.approx(1.0)

    def test_duals_clamped_at_max(self):
        duals = {}
        for _ in range(100):
            scored = scored_list([(0, 0, 0, 1.0)])
            _, duals = pmmf_rerank(scored, duals, eta_dual=0.5, k=2,
                                   alive_creators=[0, 1], dual_max=2.0)
        assert duals[1] == pytest.approx(2.0)

    def test_starved_creator_breaks_back_in(self):
        # two creators; creator 1's items slightly less relevant
        duals = {}
        exposure = {0: 0, 1: 0}
        for _ in range(200):
            scored = scored_list([(0, 0, 0, 1.0), (1, 1, 1, 0.9)])
            out, duals = pmmf_rerank(scored, duals, eta_dual=0.1, k=1,
                                     alive_creators=[0, 1])
            exposure[out[0].creator_id] += 1
        assert exposure[1] / 200 > 0.2
        # pure relevance starves creator 1 completely
        pure = scored_list([(0, 0, 0, 1.0), (1, 1, 1, 0.9)])
        top = sorted(pure, key=lambda t: -t[1])[0][0]
        assert top.creator_id == 0


@settings(max_examples=50, deadline=None)
@given(st.data())
def test_rerankers_return_permutation_prefix(data):
    n = data.draw(st.integers(1, 12))
    rels = sorted((data.draw(st.floats(0, 1)) for _ in range(n)), reverse=True)
    specs = [(i, data.draw(st.integers(0, 3)), data.draw(st.integers(0, 4)), rels[i]) for i in range(n)]
    scored = scored_list(specs)
    k = data.draw(st.integers(1, n))
    ledger = ExposureLedger()
    for c in range(4):
        ledger.add_exposure(c, data.draw(st.integers(0, 20)))
    input_ids = {rec.item_id for rec, _ in scored}
    outputs = [
        mmr_rerank(scored, data.draw(st.floats(0, 1)), k),
        fairrec_rerank(scored, ledger, k, data.draw(st.floats(0, 1)), range(4)),
        fairco_rerank(scored, ledger, data.draw(st.floats(0, 2)), range(4))[:k],
        pmmf_rerank(scored, {}, 0.1, k, range(4))[0],
    ]
    for out in outputs:
        ids = [r.item_id for r in out]
        assert len(ids) == len(set(ids)) <= k or len(ids) == len(input_ids)
        assert set(ids) <= input_ids
        assert len(ids) == min(k, n)


def test_neutral_parameters_are_identity():
    scored = scored_list([(0, 0, 0, 0.9), (1, 1, 1, 0.8), (2, 2, 0, 0.7), (3, 0, 2, 0.6)])
    ledger = ExposureLedger()
    for c in range(3):
        ledger.add_exposure(c, 7)
    ids = [r.item_id for r, _ in scored]
    assert [r.item_id for r in mmr_rerank(scored, 1.0, 4)] == ids
    assert [r.item_id for r in fairrec_rerank(scored, ledger, 4, 0.0, range(3))] == ids
    assert [r.item_id for r in fairco_rerank(scored, ledger, 0.0, range(3))] == ids
    out, _ = pmmf_rerank(scored, {}, 0.1, 4, range(3))
    assert [r.item_id for r in out] == ids

