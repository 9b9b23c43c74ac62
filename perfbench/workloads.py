"""The benchmark's workloads and the inputs each one builds from its seed.

Every workload is a closed loop: one `run_simulation` call at a time in one
process, the next starting when the previous one returns. A workload turns the
seed into a `SimConfig`, and where needed a dataset directory or an LLM
transport; the program sees only those generated inputs.
"""

from __future__ import annotations

import hashlib
import json
import threading
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from creatorsim import Dataset, SimConfig, SynthParams, synth_dataset


@dataclass(frozen=True)
class Inputs:
    """What one workload hands the program for one seed."""

    config: SimConfig
    make_transport: object = None  # zero-argument factory, or None


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    config: dict
    # where the dataset comes from: "synth" lets the program synthesize it from
    # the seed; "fixed" loads one synthesized dataset, the same for every seed;
    # "flat" loads a dataset with flattened user activity, built from the seed
    dataset: str = "synth"
    llm_stub: bool = False  # answer LLM calls with a StubTransport

    def prepare(self, seed: int, work_dir: Path, tiny: bool = False) -> Inputs:
        """The program's inputs for `seed`; `tiny` shrinks them for the smoke check."""
        overrides = {**self.config, **(TINY if tiny else {}), "seed": seed}
        n_users, n_creators = overrides["n_users"], overrides["n_creators"]
        data_dir = work_dir / "data"
        if self.dataset == "fixed":
            params = SynthParams(n_users=n_users, n_creators=n_creators, seed=FIXED_DATA_SEED)
            synth_dataset(params, np.random.default_rng(FIXED_DATA_SEED)).to_dir(data_dir)
            overrides["data_dir"] = str(data_dir)
        elif self.dataset == "flat":
            flattened_dataset(seed, n_users, n_creators).to_dir(data_dir)
            overrides["data_dir"] = str(data_dir)
        make_transport = None
        if self.llm_stub:
            make_transport = lambda: StubTransport(LLM_LATENCY_S, LLM_GARBLE_EVERY)  # noqa: E731
        return Inputs(SimConfig(**overrides), make_transport)


# With the synthetic generator's 1/rank user activity law, a few users carry
# most of the traffic, so a dataset drawn per seed changes the work of a long
# run by about 15% (events, IQR over seeds); one fixed dataset leaves about 6%.
FIXED_DATA_SEED = 0

TINY = {"n_users": 20, "n_creators": 10, "n_steps": 12}


# ---------------------------------------------------------------------------
# Flattened user activity: most users visit on most steps

FLAT_MAX_INTERACTIONS = 12  # kept per user, so the busiest user cannot set the scale
FLAT_ACTIVITY = (0.2, 1.0)  # range of each user's target visit probability


def flattened_dataset(seed: int, n_users: int, n_creators: int) -> Dataset:
    """Synthesize a dataset, then flatten user activity.

    The synthetic generator gives users a 1/rank interaction law, so only a few
    users visit on any step. The program derives a user's visit probability
    from interactions per day of history, relative to the busiest user. Here
    each user keeps at most `FLAT_MAX_INTERACTIONS` interactions, laid out
    over a day span chosen so that the user's rate matches a target drawn
    uniformly from `FLAT_ACTIVITY`. Items, genres and which items each user
    touched are unchanged. Traffic then comes from many users instead of a
    few, so it varies little from seed to seed.
    """
    params = SynthParams(n_users=n_users, n_creators=n_creators, seed=seed)
    data = synth_dataset(params, np.random.default_rng([seed, 1]))
    rng = np.random.default_rng([seed, 2])
    by_user: dict[int, list] = {u.user_id: [] for u in data.users}
    for row in data.interactions:
        by_user[row.user_id].append(row)
    n_days = params.n_days
    interactions = []
    for user_id, rows in by_user.items():
        rows = rows[:FLAT_MAX_INTERACTIONS]
        target = rng.uniform(*FLAT_ACTIVITY)
        if not rows:
            continue
        span = int(np.clip(round(len(rows) / target), 1, n_days))
        first = n_days - span + 1
        for j, row in enumerate(rows):
            offset = round(j * (span - 1) / (len(rows) - 1)) if len(rows) > 1 else 0
            interactions.append(replace(row, day=first + offset))
    return Dataset(data.users, data.creators, data.items, interactions, data.genres)


# ---------------------------------------------------------------------------
# llm-stub: an in-process chat-completion endpoint with injected latency

LLM_LATENCY_S = 0.002
LLM_GARBLE_EVERY = 8  # about one reply in this many is unparsable


class StubTransport:
    """Stands in for `requests_transport` with the same call signature.

    Each call sleeps a fixed latency, then answers with a reply that is a pure
    function of the prompt: the same prompt always gets the same reply, so a
    run's artifacts do not depend on thread timing. Prompts whose hash falls
    in one residue class get a garbled reply, so the policy's fallback path
    runs. The counters are safe to update from the run's worker threads.
    """

    def __init__(self, latency_s: float, garble_every: int):
        self.latency_s = latency_s
        self.garble_every = garble_every
        self.calls = 0
        self.garbled = 0
        self.wait_s = 0.0
        self.max_threads = 0
        self._lock = threading.Lock()

    def __call__(self, url: str, payload: dict, timeout: float) -> tuple[int, str]:
        prompt = payload["messages"][0]["content"]
        digest = hashlib.sha256(prompt.encode("utf-8")).digest()
        started = time.perf_counter()
        time.sleep(self.latency_s)
        waited = time.perf_counter() - started
        garbled = digest[0] % self.garble_every == 0
        threads = threading.active_count()
        with self._lock:
            self.calls += 1
            self.garbled += garbled
            self.wait_s += waited
            self.max_threads = max(self.max_threads, threads)
        text = "I would rather not say." if garbled else stub_reply(prompt, digest)
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})


def _between(text: str, start: str, end: str) -> str:
    lo = text.index(start) + len(start)
    return text[lo : text.index(end, lo)]


def stub_reply(prompt: str, digest: bytes) -> str:
    """A well-formed reply to one of the four prompt templates."""
    if "[Social Identity]" in prompt:
        return f"[Social Identity]: creator number {digest[1] % 16}"
    if "[Intrinsic Motivation]" in prompt:
        return "[Intrinsic Motivation]: " + ("profit" if digest[1] % 2 else "sharing")
    if "To explore a new genre" in prompt:
        # the unknown genres are listed first, then the known ones
        lists = prompt.split("genre name chosen from ")[1:]
        unknown, known = (part[: part.index(".\n\n")].split(", ") for part in lists)
        explore = known == ["(none)"] or (unknown != ["(none)"] and digest[1] % 2 == 0)
        kind, choices = ("EXPLORE", unknown) if explore else ("EXPLOIT", known)
        return f"[{kind}]:: {choices[digest[2] % len(choices)]}"
    genre = _between(prompt, "Based on the analysis: [", ", please").split("]: ", 1)[1]
    return json.dumps(
        {
            "name": f"clip {digest.hex()[:8]}",
            "genre": genre,
            "tags": [genre.split(" ")[0].lower(), f"take-{digest[1] % 4}"],
            "description": f"A {genre} upload.",
        }
    )


# ---------------------------------------------------------------------------
# The workloads; `why` is the one-line reason also recorded in BENCHMARK.json

WORKLOADS = {
    w.name: w
    for w in (
        # Runnable, but left out of BENCHMARK.json: on a shared 2-vCPU machine the
        # run-to-run spread of its times stayed above the 0.25 bound.
        Workload(
            "long-horizon",
            "desk scale over a long horizon on one fixed dataset: retrain, beliefs and CGD "
            "rescan all history every step, so costs that grow faster than the horizon dominate",
            {"n_users": 100, "n_creators": 50, "n_steps": 200, "ranker": "mf", "reranker": "none"},
            dataset="fixed",
        ),
        Workload(
            "wide-catalog",
            "10x users and 4x creators: synthesis at scale, large factor tables, "
            "catalog-wide Python loops and pmmf duals over 200 creators",
            {"n_users": 1000, "n_creators": 200, "n_steps": 20, "ranker": "mf", "reranker": "pmmf"},
        ),
        # Runnable, but left out of BENCHMARK.json: with three workloads, runs
        # could not be long enough to average out the shared machine's speed
        # swings on wide-catalog and llm-stub within the time all runs may take.
        Workload(
            "serve-heavy",
            "flattened user activity loaded from disk, random ranker and fairco: serving, "
            "event-log writes and reads dominate and retrain is a no-op",
            {"n_users": 300, "n_creators": 100, "n_steps": 50, "ranker": "random",
             "reranker": "fairco"},
            dataset="flat",
        ),
        Workload(
            "llm-stub",
            "creagent_llm against an in-process stub with fixed latency and 1 in 8 garbled "
            "replies, 2 workers: the only I/O-bound layer, and the only one where workers help",
            # no departures, so every seed keeps the same number of creators calling the stub
            {"n_users": 100, "n_creators": 50, "n_steps": 60, "ranker": "pop",
             "creator_policy": "creagent_llm", "workers": 2, "departure_threshold": 1_000_000},
            dataset="fixed",
            llm_stub=True,
        ),
    )
}
