"""The columnar catalog and event log against plain loops over the same
events and records, on random small logs and catalogs.

The loops below are the reference: they read the events as they were appended
and the items as they were added, never the columns.
"""

from collections import defaultdict, namedtuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim.core import AsymmetryViolation, Catalog, EventLog, creator_view
from creatorsim.metrics import NoExposures, content_genre_diversity, total_user_welfare
from creatorsim.recsys import build_candidate_pool

Event = namedtuple("Event", "step user item exposed clicked")


def rows_of(log):
    """The log's rows as events, read from its columns."""
    return list(map(Event._make, zip(*(getattr(log, name).tolist() for name in Event._fields))))


def reference_totals(events, item):
    own = [e for e in events if e.item == item]
    return sum(e.exposed for e in own), sum(e.clicked for e in own)


def reference_tuw(events, start, end):
    return sum(1 for e in events if e.clicked and start <= e.step <= end)


def reference_cgd(events, genre_of, n_genres, start, end):
    per_user = defaultdict(lambda: np.zeros(n_genres))
    active_steps = defaultdict(set)
    for e in events:
        if e.exposed and start <= e.step <= end:
            per_user[e.user][genre_of(e.item)] += 1
            active_steps[e.user].add(e.step)
    if not per_user:
        raise NoExposures(f"no exposures in [{start}, {end}]")
    num = den = 0.0
    for user, hist in per_user.items():
        probs = hist / hist.sum()
        probs = probs[probs > 0]
        entropy = float(-(probs * np.log(probs)).sum())
        weight = len(active_steps[user])
        num += weight * entropy
        den += weight
    return num / den


def reference_pool(records, step, window):
    return [r["item_id"] for r in records if 0 <= step - r["created_step"] <= window]


@st.composite
def worlds(draw):
    n_genres = draw(st.integers(1, 14))  # 8 or more exercise numpy's pairwise sums
    n_items = draw(st.integers(1, 16))
    n_steps = draw(st.integers(1, 8))
    records = [
        dict(item_id=i, creator_id=draw(st.integers(0, 3)), genre=draw(st.integers(0, n_genres - 1)),
             created_step=draw(st.integers(0, n_steps)))
        for i in range(n_items)
    ]
    events = []
    for step in range(n_steps + 1):
        for user in range(draw(st.integers(0, 4))):
            for item in range(n_items):
                if draw(st.booleans()):
                    exposed = draw(st.booleans())
                    clicked = exposed and draw(st.booleans())
                    events.append(Event(step, user, item, exposed, clicked))
    return n_genres, n_steps, records, events


def build(records, events):
    catalog = Catalog()
    for r in records:
        catalog.add(r["creator_id"], r["genre"], f"t{r['item_id']}", (), "", r["created_step"])
    log = EventLog()
    for step in sorted({e.step for e in events}):  # one block per step, as serving adds them
        block = [e for e in events if e.step == step]
        log.extend(*zip(*block))
        catalog.add_feedback(
            np.array([e.item for e in block], dtype=np.int64),
            np.array([e.exposed for e in block]), np.array([e.clicked for e in block]),
        )
    return catalog, log


@settings(max_examples=150, deadline=None)
@given(worlds(), st.data())
def test_columns_match_plain_loops(world, data):
    n_genres, n_steps, records, events = world
    catalog, log = build(records, events)
    frm = data.draw(st.integers(-1, n_steps + 1))
    to = data.draw(st.integers(frm, n_steps + 2))

    for item in range(len(records)):
        assert (catalog.exposures[item], catalog.clicks[item]) == reference_totals(events, item)
    for creator in range(4):
        owned = [r["item_id"] for r in records if r["creator_id"] == creator]
        exposures, clicks = creator_view(catalog, creator, owned)
        assert list(zip(exposures.tolist(), clicks.tolist())) == [reference_totals(events, i) for i in owned]
        for item in [r["item_id"] for r in records if r["creator_id"] != creator] + [len(records)]:
            with pytest.raises(AsymmetryViolation):
                creator_view(catalog, creator, owned + [item])

    assert total_user_welfare(log, frm, to) == reference_tuw(events, frm, to)

    genre_of = {r["item_id"]: r["genre"] for r in records}.__getitem__
    try:
        expected_cgd = reference_cgd(events, genre_of, n_genres, frm, to)
    except NoExposures:
        expected_cgd = None
    for scanned in (log, log.window(frm, to)):
        if expected_cgd is None:
            with pytest.raises(NoExposures):
                content_genre_diversity(scanned, catalog.genre.__getitem__, n_genres, frm, to)
        else:
            cgd = content_genre_diversity(scanned, catalog.genre.__getitem__, n_genres, frm, to)
            assert cgd == expected_cgd

    for step in range(n_steps + 2):
        window = data.draw(st.integers(0, 3))
        pool = build_candidate_pool(catalog, step, window)
        expected = reference_pool(records, step, window)
        assert pool.item_ids.tolist() == expected
        assert pool.created_steps.tolist() == [records[i]["created_step"] for i in expected]


@settings(max_examples=60, deadline=None)
@given(worlds(), st.data())
def test_log_and_catalog_round_trip_their_inputs(world, data):
    _, n_steps, records, events = world
    catalog, log = build(records, events)
    assert rows_of(log) == events
    frm = data.draw(st.integers(-1, n_steps + 1))
    to = data.draw(st.integers(frm, n_steps + 2))
    assert rows_of(log.window(frm, to)) == [e for e in events if frm <= e.step <= to]
    assert [r._asdict() for r in catalog] == [
        dict(r, title=f"t{r['item_id']}", tags=(), description="") for r in records
    ]
