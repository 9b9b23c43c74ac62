"""The platform/creator information asymmetry as a property of CREATE.

A creator sees the catalog rows it owns, read through `core.creator_view`,
never the rest of the platform's catalog. So for a creator c, two copies of a
world that differ in every catalog row c does not own (exposures, clicks,
genre, title, tags and description) must give c the same CREATE: the same
trace row, the same new item and, under the LLM policy, the same prompts. A
read that also returns one foreign row fails the property, whether that row
differs in its columns or only in its text.
"""

import copy
import hashlib
import json
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from creatorsim import core
from creatorsim.core import CREATOR_POLICIES, RANKERS, RERANKERS, OwnRows, SimConfig, stream
from creatorsim.harness import _World
from creatorsim.ingest import SynthParams, synth_dataset

# examples per creator policy, 204 in all; each builds a world of at most 12
# users and 5 creators, runs up to 4 steps, then two CREATEs per creator
EXAMPLES = 34

_NICKNAME = re.compile(r"your nickname is (.+?)\.\n")


class RecordingStub:
    """A completion endpoint whose reply is a pure function of the prompt; it
    records every prompt, and one reply in four does not parse."""

    def __init__(self) -> None:
        self.prompts: list[str] = []

    def __call__(self, url, payload, timeout):
        prompt = payload["messages"][0]["content"]
        self.prompts.append(prompt)
        h = hashlib.sha256(prompt.encode("utf-8")).digest()
        if h[0] % 4 == 0:
            text = "~~nonsense~~"
        elif "[Social Identity]" in prompt:
            text = f"[Social Identity]: persona {h[1] % 3}"
        elif "[Intrinsic Motivation]" in prompt:
            text = "[Intrinsic Motivation]: " + ("profit" if h[1] % 2 else "sharing")
        elif "must choose one of the two actions" in prompt:
            unknown, known = (
                part[: part.index(".\n\n")].split(", ") for part in prompt.split("genre name chosen from ")[1:]
            )
            kind, choices = ("EXPLORE", unknown) if h[1] % 2 else ("EXPLOIT", known)
            text = f"[{kind}]:: {choices[h[2] % len(choices)]}"
        else:
            genre = prompt.split("Based on the analysis: [", 1)[1].split(", please", 1)[0].split("]: ")[1]
            text = json.dumps({"name": f"clip {h.hex()[:6]}", "genre": genre, "tags": [f"t{h[1] % 3}"],
                               "description": "d"})
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})

    def __deepcopy__(self, memo):
        return self  # every copy of a world sends to this one endpoint

    def of(self, name: str) -> list[str]:
        """The CREATE prompts sent for the creator named `name`, in order."""
        return [p for p in self.prompts if (m := _NICKNAME.search(p)) and m.group(1) == name]


@st.composite
def configs(draw, policy):
    return SimConfig(
        n_users=draw(st.integers(4, 12)),
        n_creators=draw(st.integers(2, 5)),
        n_steps=draw(st.integers(1, 4)),  # the steps before the CREATE under test
        warmup=1,
        seed=draw(st.integers(0, 2**16)),
        ranker=draw(st.sampled_from(RANKERS)),
        reranker=draw(st.sampled_from(RERANKERS)),
        creator_policy=policy,
        creator_full_information=draw(st.booleans()),
        departure_threshold=draw(st.integers(1, 3)),
        mf_dim=4,
        mf_epochs=1,
        synth_n_genres=draw(st.integers(2, 6)),
        synth_items_per_creator=draw(st.integers(1, 4)),
        synth_interactions_per_user=draw(st.integers(0, 6)),
        llm_endpoint="http://stub.invalid",
        llm_model="stub",
    )


EVERY_COLUMN = ("exposures", "clicks", "genre", "title", "tags", "description")


def change_foreign_rows(world, c: int, rng, changed=EVERY_COLUMN) -> None:
    """Change every catalog row that creator `c` does not own, in the `changed`
    columns, by default every column a policy could read."""
    catalog = world.catalog
    foreign = np.flatnonzero(catalog.creator_id != c)
    n_genres = len(world.genres)
    for name in {"exposures", "clicks"} & set(changed):
        getattr(catalog, name)[foreign] += rng.integers(1, 50, len(foreign))
    if "genre" in changed:
        catalog.genre[foreign] = (catalog.genre[foreign] + rng.integers(1, n_genres, len(foreign))) % n_genres
    for i in foreign.tolist():
        if "title" in changed:
            catalog.title[i] += " (changed)"
        if "tags" in changed:
            catalog.tags[i] = ("changed", f"tag{i}")
        if "description" in changed:
            catalog.description[i] = f"changed description {i}"


def create_as_seen_by(world, stub, c: int, n: int):
    """CREATE at step `n`, and what of it concerns creator `c`: its trace row
    without the item id (the platform numbers items across creators), its new
    catalog rows and its prompts."""
    rows, items = len(world.trace_rows), len(world.catalog)
    stub.prompts.clear()
    world.phase_create(n)
    catalog = world.catalog
    trace = [(*row[:4], *row[5:]) for row in world.trace_rows[rows:] if row[1] == c]
    created = [
        (catalog.genre[i], catalog.title[i], catalog.tags[i], catalog.description[i], catalog.created_step[i])
        for i in range(items, len(catalog)) if catalog.creator_id[i] == c
    ]
    return trace, created, stub.of(world.creators[c].name)


def asymmetry_faults(cfg: SimConfig, changed=EVERY_COLUMN) -> list[int]:
    """The creators whose CREATE after `cfg.n_steps` steps changes with the
    `changed` columns of the catalog rows they do not own."""
    stub = RecordingStub()
    world = _World(cfg, synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth")), stub)
    world.run_steps()
    n, faults = cfg.n_steps + 1, []
    for c in range(len(world.creators)):
        same, other = copy.deepcopy(world), copy.deepcopy(world)
        change_foreign_rows(other, c, np.random.default_rng(c), changed)
        if create_as_seen_by(same, stub, c, n) != create_as_seen_by(other, stub, c, n):
            faults.append(c)
    return faults


@pytest.mark.parametrize("policy", CREATOR_POLICIES)
@settings(max_examples=EXAMPLES, deadline=None)
@given(data=st.data())
def test_create_reads_no_foreign_catalog_row(policy, data):
    assert asymmetry_faults(data.draw(configs(policy), label="cfg")) == []


def leaky_view(catalog, creator: int) -> OwnRows:
    """`core.creator_view` that also returns the platform's newest row `creator` does not own."""
    foreign = np.flatnonzero(catalog.creator_id != creator)[-1:]
    rows = np.union1d(np.flatnonzero(catalog.creator_id == creator), foreign)
    ids = rows.tolist()
    return OwnRows(
        rows, catalog.genre[rows], catalog.created_step[rows], catalog.exposures[rows], catalog.clicks[rows],
        [catalog.title[i] for i in ids], [catalog.tags[i] for i in ids], [catalog.description[i] for i in ids],
    )


@pytest.mark.parametrize("changed", [("genre", "clicks"), ("tags",)], ids=["columns", "text"])
@pytest.mark.parametrize("policy", ["creagent", "creagent_llm"])
def test_a_leaky_memory_fails_the_property(monkeypatch, policy, changed):
    """A read that lets one foreign row into the memory is caught, through that
    row's genre and clicks, and through its tags alone."""
    monkeypatch.setattr(core, "creator_view", leaky_view)
    cfg = SimConfig(
        n_users=12, n_creators=5, n_steps=3, warmup=1, seed=3, creator_policy=policy,
        synth_n_genres=2, synth_items_per_creator=3, synth_interactions_per_user=6,
        llm_endpoint="http://stub.invalid", llm_model="stub",
    )
    assert asymmetry_faults(cfg, changed)
