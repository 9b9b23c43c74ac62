import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
import threading
import time
import types
import weakref
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import creatorsim
import creatorsim.core as core
import creatorsim.harness as harness
from creatorsim.cli import main as cli_main
from creatorsim.core import SimConfig, stream
from creatorsim.harness import (
    CorruptLog,
    EmptyInput,
    MissingArtifact,
    compare,
    report,
    run_simulation,
)
from creatorsim.ingest import SynthParams, synth_dataset
from mutations import MUTATIONS


def small_cfg(**overrides):
    base = dict(
        n_users=20,
        n_creators=10,
        n_steps=25,
        warmup=5,
        seed=11,
        ranker="mf",
        reranker="pmmf",
        synth_items_per_creator=8,
        synth_interactions_per_user=15,
    )
    base.update(overrides)
    return SimConfig(**base)


def _with_field(line, index, value):
    """`line` with CSV field `index` replaced; the fields before it hold no commas."""
    fields = line.split(",", index + 1)
    fields[index] = value
    return ",".join(fields)


def _without_last(lines, ending):
    """`lines` without the last one that ends with `ending`."""
    drop = max(i for i, line in enumerate(lines) if line.endswith(ending))
    return lines[:drop] + lines[drop + 1 :]


def _without_key(path, key):
    """The text of config file `path` without its `key` line."""
    return "".join(line for line in Path(path).read_text().splitlines(True) if not line.startswith(key))


def copy_run(artifacts, tmp_path):
    return shutil.copytree(artifacts.out_dir, tmp_path / "copy")


@pytest.fixture(scope="module")
def smoke_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("smoke") / "run"
    artifacts = run_simulation(small_cfg(), out_dir=out)
    return artifacts


class TestRunSimulation:
    def test_smoke_completes_with_artifacts(self, smoke_run):
        d = smoke_run.out_dir
        for name in (
            "events.csv",
            "items.csv",
            "creator_trace.csv",
            "timeseries.csv",
            "config.txt",
            "metrics.json",
            "dataset_summary.json",
        ):
            assert (d / name).exists(), name
        assert smoke_run.report["tuw"] > 0

    def test_incremental_tuw_equals_recount(self, smoke_run):
        assert smoke_run.tuw_incremental == smoke_run.report["tuw"]

    def test_timeseries_well_formed(self, smoke_run):
        cfg = SimConfig.from_file(smoke_run.out_dir / "config.txt")
        lines = (smoke_run.out_dir / "timeseries.csv").read_text().splitlines()
        header = lines[0].split(",")
        assert header == ["step", "tuw_cum", "alive_creators", "cgd_window", "step_seconds"]
        assert len(lines) - 1 == cfg.n_steps
        assert all(len(line.split(",")) == len(header) for line in lines[1:])

    def test_warmup_equal_to_steps_boundary(self, tmp_path):
        cfg = small_cfg(n_steps=12, warmup=12)
        artifacts = run_simulation(cfg, out_dir=tmp_path / "w")
        assert artifacts.report["tuw"] >= 0

    def test_same_seed_same_bytes_across_workers(self, tmp_path):
        digests = []
        for w in (1, 3):
            cfg = small_cfg(workers=w)
            d = tmp_path / f"w{w}"
            run_simulation(cfg, out_dir=d)
            digests.append(
                ((d / "events.csv").read_bytes(), (d / "metrics.json").read_bytes())
            )
        assert digests[0] == digests[1]

    def test_different_seeds_differ(self, tmp_path):
        a = run_simulation(small_cfg(seed=1), out_dir=tmp_path / "a")
        b = run_simulation(small_cfg(seed=2), out_dir=tmp_path / "b")
        assert a.report != b.report

    def test_replay_from_embedded_config(self, smoke_run, tmp_path):
        cfg = SimConfig.from_file(smoke_run.out_dir / "config.txt")
        redo = run_simulation(cfg, out_dir=tmp_path / "replay")
        assert (smoke_run.out_dir / "events.csv").read_bytes() == (
            tmp_path / "replay" / "events.csv"
        ).read_bytes()


# examples of the replay property; each is two runs of at most 12 users, 5
# creators and 8 steps
REPLAY_EXAMPLES = 100


@st.composite
def replay_configs(draw):
    """A small config of any ranker, re-ranker and non-LLM policy."""
    return small_cfg(
        n_users=draw(st.integers(4, 12)),
        n_creators=draw(st.integers(2, 5)),
        n_steps=draw(st.integers(1, 8)),
        warmup=1,
        seed=draw(st.integers(0, 2**16)),
        ranker=draw(st.sampled_from(core.RANKERS)),
        reranker=draw(st.sampled_from(core.RERANKERS)),
        creator_policy=draw(st.sampled_from([p for p in core.CREATOR_POLICIES if p != "creagent_llm"])),
        departure_threshold=draw(st.integers(1, 3)),
        workers=draw(st.sampled_from([1, 2])),
        mf_dim=4,
        mf_epochs=1,
        synth_n_genres=draw(st.integers(2, 6)),
        synth_items_per_creator=draw(st.integers(1, 4)),
        synth_interactions_per_user=draw(st.integers(0, 6)),
    )


@settings(max_examples=REPLAY_EXAMPLES, deadline=None)
@given(cfg=replay_configs(), from_dir=st.booleans())
def test_config_txt_replays_the_run(cfg, from_dir):
    """A run's `config.txt` is the run: running it again writes the same
    events, items and creator trace, byte for byte. With `from_dir`, the run
    reads a dataset synthesized under another seed from `data_dir`."""
    with tempfile.TemporaryDirectory() as scratch:
        scratch = Path(scratch)
        if from_dir:
            synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed + 1, "synth")).to_dir(scratch / "data")
            cfg.data_dir = str(scratch / "data")
        run_simulation(cfg, out_dir=scratch / "run")
        run_simulation(SimConfig.from_file(scratch / "run" / "config.txt"), out_dir=scratch / "replay")
        for name in ("events.csv", "items.csv", "creator_trace.csv"):
            assert (scratch / "run" / name).read_bytes() == (scratch / "replay" / name).read_bytes(), name


class TestPhaseInvariants:
    def test_no_click_before_item_creation(self, smoke_run):
        items = {}
        with open(smoke_run.out_dir / "items.csv") as f:
            for row in csv.DictReader(f):
                items[int(row["item_id"])] = int(row["created_step"])
        with open(smoke_run.out_dir / "events.csv") as f:
            for row in csv.DictReader(f):
                assert int(row["step"]) >= items[int(row["item_id"])]

    def test_no_creation_after_departure(self, smoke_run):
        departed_at = {}
        with open(smoke_run.out_dir / "creator_trace.csv") as f:
            for row in csv.DictReader(f):
                cid = int(row["creator_id"])
                if row["action_kind"] == "DEPART":
                    departed_at[cid] = int(row["step"])
                elif cid in departed_at:
                    assert int(row["step"]) <= departed_at[cid]

    def test_retrain_cadence(self, tmp_path, monkeypatch):
        from creatorsim.recsys import MfRanker

        calls = []
        original = MfRanker.retrain

        def spy(self, clicks, catalog, step):
            calls.append(step)
            return original(self, clicks, catalog, step)

        monkeypatch.setattr(MfRanker, "retrain", spy)
        cfg = small_cfg(n_steps=17, retrain_period=5)
        run_simulation(cfg, out_dir=tmp_path / "cadence")
        assert calls == [0, 5, 10, 15]

    @pytest.mark.parametrize("quiet", [False, True], ids=["busy", "quiet"])
    @pytest.mark.parametrize("retrain_period", [1, 3, 5])
    @pytest.mark.parametrize("ranker", ["mf", "pop"])
    def test_retrain_table_is_the_seed_then_the_logged_clicks(
        self, monkeypatch, ranker, retrain_period, quiet
    ):
        """The table each retrain at step n receives is the one the world once
        rebuilt from the whole log: the seed clicks at step 0, then the log's
        clicked rows with step < n, in log order."""
        cfg = SimConfig(n_users=15, n_creators=6, n_steps=12, warmup=2, seed=3, ranker=ranker,
                        retrain_period=retrain_period)
        world = harness._World(cfg, synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth")))
        if quiet:
            world.activity[:] = 0.05  # so that some steps log no click
        seed = world.clicks.copy()
        seed_items = np.flatnonzero(world.catalog.created_step == 0)
        assert len(seed) and not seed[:, 2].any()
        seed_clicks = np.bincount(seed[:, 1], minlength=len(seed_items))
        assert np.array_equal(seed_clicks, world.catalog.clicks[seed_items])

        received = []
        ranker_class = type(world.ranker)
        original = ranker_class.retrain

        def spy(self, clicks, catalog, step):
            received.append((step, np.array(clicks, copy=True)))
            return original(self, clicks, catalog, step)

        monkeypatch.setattr(ranker_class, "retrain", spy)
        world.run_steps()
        log = world.log
        assert [step for step, _ in received] == list(range(0, cfg.n_steps + 1, retrain_period))
        for step, clicks in received:
            logged = log.clicked & (log.step < step)
            logged = np.column_stack((log.user[logged], log.item[logged], log.step[logged]))
            reference = np.concatenate((seed, logged))
            assert clicks.dtype == np.int64
            assert np.array_equal(clicks, reference)
        clicked_steps = len(set(log.step[log.clicked].tolist()))
        assert (0 < clicked_steps < cfg.n_steps) if quiet else clicked_steps == cfg.n_steps

    def test_exposures_never_outside_pool_window(self, smoke_run):
        cfg = SimConfig.from_file(smoke_run.out_dir / "config.txt")
        items = {}
        with open(smoke_run.out_dir / "items.csv") as f:
            for row in csv.DictReader(f):
                items[int(row["item_id"])] = int(row["created_step"])
        with open(smoke_run.out_dir / "events.csv") as f:
            for row in csv.DictReader(f):
                age = int(row["step"]) - items[int(row["item_id"])]
                assert 0 <= age <= cfg.timeliness_window

    def test_no_events_on_departed_creators_items(self, smoke_run):
        departed_at = {}
        with open(smoke_run.out_dir / "creator_trace.csv") as f:
            for row in csv.DictReader(f):
                if row["action_kind"] == "DEPART":
                    departed_at[int(row["creator_id"])] = int(row["step"])
        owner = {}
        with open(smoke_run.out_dir / "items.csv") as f:
            for row in csv.DictReader(f):
                owner[int(row["item_id"])] = int(row["creator_id"])
        assert departed_at, "smoke config should produce at least one departure"
        with open(smoke_run.out_dir / "events.csv") as f:
            for row in csv.DictReader(f):
                c = owner[int(row["item_id"])]
                if c in departed_at:
                    assert int(row["step"]) <= departed_at[c]

    def test_at_most_k_exposures_per_user_step(self, smoke_run):
        cfg = SimConfig.from_file(smoke_run.out_dir / "config.txt")
        counts = {}
        with open(smoke_run.out_dir / "events.csv") as f:
            for row in csv.DictReader(f):
                key = (row["step"], row["user_id"])
                counts[key] = counts.get(key, 0) + 1
        assert max(counts.values()) <= cfg.list_length

    def test_creator_reads_stay_on_owned_items(self, tmp_path, monkeypatch):
        calls, foreign = [0], []
        original = core.creator_view

        def spy(catalog, creator):
            calls[0] += 1
            own = original(catalog, creator)
            foreign.extend((creator, item) for item in own.items[catalog.creator_id[own.items] != creator])
            return own

        monkeypatch.setattr(core, "creator_view", spy)
        run_simulation(small_cfg(n_steps=10), out_dir=tmp_path / "spy")
        assert calls[0] > 0, "no creator read went through core.creator_view"
        assert foreign == []

    @pytest.mark.parametrize("policy", ["creagent", "creagent_llm", "lbr"])
    def test_each_decision_sees_exactly_the_rows_its_creator_owns(self, tmp_path, monkeypatch, policy):
        """Across creations and departures, every creator a policy decides for
        holds as its memory the catalog rows it owns at that step, in id order."""
        import creatorsim.harness as harness

        seen, original_create = [], harness._World.phase_create

        def create(world, n):
            decide = world.policy.create

            def checked(states, n, rngs):
                for state in states:
                    owned = np.flatnonzero(world.catalog.creator_id == state.creator_id)
                    seen.append((n, state.creator_id, np.array_equal(state.own.items, owned)))
                return decide(states, n, rngs)

            world.policy.create = checked
            try:
                original_create(world, n)
            finally:
                del world.policy.create

        def stub(url, payload, timeout):  # no reply parses: every decision falls back
            return 200, json.dumps({"choices": [{"message": {"content": "~~nonsense~~"}}]})

        monkeypatch.setattr(harness._World, "phase_create", create)
        cfg = small_cfg(creator_policy=policy, departure_threshold=2, llm_endpoint="http://stub.invalid")
        out = run_simulation(cfg, out_dir=tmp_path / "run", transport=stub).out_dir
        assert ",DEPART," in (out / "creator_trace.csv").read_text(), "the run should have departures"
        assert len({n for n, _, _ in seen}) > 1, "creators should decide at several steps"
        assert [(n, c) for n, c, same in seen if not same] == []

    @pytest.mark.parametrize("policy", ["creagent", "creagent_llm", "cfd", "simuline"])
    def test_create_reads_each_creators_totals_once(self, tmp_path, monkeypatch, policy):
        """One read of its rows per creator CREATE lets through; each such
        creator writes one trace row, its decision or its DEPART. The policies
        that follow clicks per genre decide on that read's clicks. The LLM
        policy's reads at world build, before any CREATE, are not counted."""
        import creatorsim.harness as harness

        reads, per_step = [0], []  # (reads, trace rows) of each CREATE
        original_view, original_create = core.creator_view, harness._World.phase_create

        def view(*args):
            reads[0] += 1
            return original_view(*args)

        def create(world, n):
            reads[0], rows = 0, len(world.trace_rows)
            original_create(world, n)
            per_step.append((reads[0], len(world.trace_rows) - rows))

        def stub(url, payload, timeout):  # no reply parses: every decision falls back
            return 200, json.dumps({"choices": [{"message": {"content": "~~nonsense~~"}}]})

        monkeypatch.setattr(core, "creator_view", view)
        monkeypatch.setattr(harness._World, "phase_create", create)
        cfg = small_cfg(creator_policy=policy, departure_threshold=2, llm_endpoint="http://stub.invalid")
        out = run_simulation(cfg, out_dir=tmp_path / "run", transport=stub).out_dir
        assert ",DEPART," in (out / "creator_trace.csv").read_text(), "the run should have departures"
        assert sum(rows for _, rows in per_step) > cfg.n_steps
        assert [r for r, _ in per_step] == [rows for _, rows in per_step]

    def test_beliefs_refreshed_only_when_deciding(self, tmp_path, monkeypatch):
        import creatorsim.harness as harness

        step, world = [0], [None]  # the step whose phases are running, and its world
        calls = []  # (step, creator, step of the utilities) of each belief refresh
        beta = small_cfg().beta
        original_create, original_update = harness._World.phase_create, harness.update_beliefs

        def create(w, n):
            step[0], world[0] = n, w
            return original_create(w, n)

        def spy(state, utilities):
            # the utilities of the step before, from the platform's totals
            n, cat = step[0], world[0].catalog
            items = np.flatnonzero(cat.creator_id == state.creator_id)
            blend = beta * cat.exposures[items] + (1.0 - beta) * cat.clicks[items]
            before = np.array_equal(utilities, blend / (n - 1 - cat.created_step[items] + 1))
            calls.append((n, state.creator_id, before))
            return original_update(state, utilities)

        monkeypatch.setattr(harness._World, "phase_create", create)
        monkeypatch.setattr(harness, "update_beliefs", spy)
        run_simulation(small_cfg(), out_dir=tmp_path / "spy")
        with open(tmp_path / "spy" / "creator_trace.csv") as f:
            decisions = sorted(
                (int(row["step"]), int(row["creator_id"]))
                for row in csv.DictReader(f)
                if row["action_kind"] in ("EXPLORE", "EXPLOIT")
            )
        assert decisions[0][0] == 1, "step 1 should have decisions, made on seed beliefs"
        assert not [c for c in calls if c[0] == 1]
        assert sorted((n, creator) for n, creator, _ in calls) == [d for d in decisions if d[0] >= 2]
        assert all(before for _, _, before in calls)

    def test_lifecycle_decays_one_table(self, tmp_path, monkeypatch):
        import creatorsim.harness as harness

        original_serve, original_lifecycle = harness._World.phase_serve, harness._World.phase_lifecycle
        served = []

        def serve(world, n, pool):
            before = world.recent_exposure.copy()
            original_serve(world, n, pool)
            # each of the step's exposures adds one to its user's row, and only there
            exposures = np.bincount(world.log.user[world.log.step == n], minlength=len(before))
            assert np.allclose(world.recent_exposure.sum(axis=1) - before.sum(axis=1), exposures)
            served.append(int(exposures.sum()))

        def lifecycle(world, n, step_seconds):
            before = world.recent_exposure.copy()
            original_lifecycle(world, n, step_seconds)
            assert np.array_equal(world.recent_exposure, before * world.cfg.user_novelty_decay)

        monkeypatch.setattr(harness._World, "phase_serve", serve)
        monkeypatch.setattr(harness._World, "phase_lifecycle", lifecycle)
        run_simulation(small_cfg(n_steps=10), out_dir=tmp_path / "spy")
        assert len(served) == 10 and sum(served) > 0


class TestDrawBlocks:
    """Runs whose per-agent uniform streams cross the ends of drawn-ahead blocks."""

    def test_a_pinned_run_refills_a_user_row_twice(self, tmp_path, monkeypatch):
        import creatorsim.harness as harness
        from test_digests import PINNED, run_digests

        made = []

        class CountingStreams(core.UniformStreams):
            def __init__(self, seed, purpose, n):
                super().__init__(seed, purpose, n)
                self.purpose, self.refills = purpose, np.zeros(n, dtype=np.int64)
                made.append(self)

            def draw(self, agents):
                self.refills[agents[self._cursor[agents] == core.DRAW_BLOCK]] += 1
                return super().draw(agents)

        monkeypatch.setattr(harness, "UniformStreams", CountingStreams)
        monkeypatch.chdir(tmp_path)
        assert run_digests("pop-mmr-lbr", Path("run")) == PINNED["pop-mmr-lbr"]
        (users,) = [s for s in made if s.purpose == "user"]
        assert users.refills.max() >= 2

    def test_sessions_longer_than_a_block(self, tmp_path):
        # no exits, so each session exposes the whole list and reads between
        # one and two uniforms per item: more than a block's worth
        K = 80
        assert K > core.DRAW_BLOCK
        cfg = small_cfg(
            n_steps=12, warmup=2, list_length=K, user_exit_base=0.0, user_exit_per_skip=0.0
        )
        run = run_simulation(cfg, out_dir=tmp_path / "long")
        with open(run.out_dir / "events.csv") as f:
            events = np.array([[int(v) for v in line.split(",")] for line in f.readlines()[1:]])
        step, user, exposed, clicked = events[:, 0], events[:, 1], events[:, 3], events[:, 4]
        assert exposed.all() and (clicked <= exposed).all()
        sessions = step * cfg.n_users + user
        _, exposures = np.unique(sessions, return_counts=True)
        assert len(exposures) > 0 and (exposures == K).all()
        _, session_of = np.unique(sessions, return_inverse=True)
        uniforms = np.bincount(session_of, weights=2 - clicked)
        assert (uniforms > core.DRAW_BLOCK).all()


class TestReport:
    def test_report_equals_metrics_json(self, smoke_run):
        stored = json.loads((smoke_run.out_dir / "metrics.json").read_text())
        assert report(smoke_run.out_dir) == stored

    def test_report_idempotent(self, smoke_run):
        assert report(smoke_run.out_dir) == report(smoke_run.out_dir)

    def test_retired_summary_keys_are_ignored(self, smoke_run, tmp_path):
        """The seed reference is the step-0 rows of items.csv. A run directory
        written when the summary held its own copy still reports the same
        metrics, even with copy values no longer checked (an infinite count, a
        negative entropy)."""
        old = copy_run(smoke_run, tmp_path)
        summary = (old / "dataset_summary.json").read_text().rstrip().removesuffix("}")
        (old / "dataset_summary.json").write_text(
            summary + ',\n  "dataset_creator_entropies": [-1.0, 0.5],\n'
            '  "dataset_genre_counts": [1e999, 0, 3]\n}\n'
        )
        metrics = json.dumps(report(old), sort_keys=True, indent=2) + "\n"
        assert metrics == (smoke_run.out_dir / "metrics.json").read_text()

    def test_truncated_log_rejected(self, smoke_run, tmp_path):
        import shutil

        broken = tmp_path / "broken"
        shutil.copytree(smoke_run.out_dir, broken)
        events = (broken / "events.csv").read_text().splitlines()
        (broken / "events.csv").write_text("\n".join(events[:5]) + "\n1,2\n")
        with pytest.raises(CorruptLog):
            report(broken)

    def test_missing_artifact(self, smoke_run, tmp_path):
        import shutil

        partial = tmp_path / "partial"
        shutil.copytree(smoke_run.out_dir, partial)
        (partial / "events.csv").unlink()
        with pytest.raises(MissingArtifact):
            report(partial)

    def test_normalized_reward_against_baseline(self, smoke_run, tmp_path):
        baseline = run_simulation(small_cfg(creator_policy="random"), out_dir=tmp_path / "base")
        r = report(smoke_run.out_dir, baseline_dir=baseline.out_dir)
        curve = r["normalized_reward"]
        assert curve is not None
        assert len(curve) == len(r["reward_per_step"])
        assert all(v >= 0 for v in curve)
        # a run normalized against itself is flat at 1.0
        self_norm = report(smoke_run.out_dir, baseline_dir=smoke_run.out_dir)
        assert all(v == 1.0 for v in self_norm["normalized_reward"])

    def test_warmup_exclusion(self, smoke_run):
        # clicks strictly before the warmup boundary never count toward TUW
        cfg = SimConfig.from_file(smoke_run.out_dir / "config.txt")
        clicks_in_window = 0
        with open(smoke_run.out_dir / "events.csv") as f:
            for row in csv.DictReader(f):
                if row["clicked"] == "1" and cfg.warmup <= int(row["step"]) <= cfg.n_steps:
                    clicks_in_window += 1
        assert clicks_in_window == smoke_run.report["tuw"]


class TestCompare:
    def test_single_run_sd_zero(self, smoke_run):
        rows = compare([smoke_run.out_dir])
        assert rows[0]["n_runs"] == 1
        assert rows[0]["metrics"]["tuw"]["sd"] == 0.0

    def test_identical_runs_sd_zero(self, smoke_run, tmp_path):
        redo = run_simulation(
            SimConfig.from_file(smoke_run.out_dir / "config.txt"), out_dir=tmp_path / "again"
        )
        rows = compare([smoke_run.out_dir, redo.out_dir])
        assert rows[0]["n_runs"] == 2
        assert rows[0]["metrics"]["tuw"]["sd"] == 0.0
        assert rows[0]["metrics"]["tuw"]["mean"] == smoke_run.report["tuw"]

    def test_groups_by_condition(self, smoke_run, tmp_path):
        other = run_simulation(small_cfg(ranker="pop"), out_dir=tmp_path / "pop")
        rows = compare([smoke_run.out_dir, other.out_dir])
        assert len(rows) == 2
        labels = {r["label"] for r in rows}
        assert any("ranker=pop" in l for l in labels)

    def test_empty_input(self):
        with pytest.raises(EmptyInput):
            compare([])

    def test_missing_key_differs_with_empty_value(self, smoke_run, tmp_path):
        other = copy_run(smoke_run, tmp_path)
        (other / "config.txt").write_text(_without_key(other / "config.txt", "mmr.lambda"))
        rows = compare([smoke_run.out_dir, other])
        assert sorted(r["label"] for r in rows) == ["mmr.lambda=", "mmr.lambda=0.7"]

    @pytest.mark.parametrize("key", ["ranker", "reranker", "creator_policy"])
    def test_label_key_missing_from_every_run(self, smoke_run, tmp_path, key):
        runs = [shutil.copytree(smoke_run.out_dir, tmp_path / name) for name in ("r1", "r2")]
        for run in runs:
            (run / "config.txt").write_text(_without_key(run / "config.txt", key + " ="))
        rows = compare(runs)
        assert [r["n_runs"] for r in rows] == [2]
        assert f"{key}=" in rows[0]["label"].split(",")
        assert cli_main(["compare", *map(str, runs)]) == 0


class HoldingStub:
    """Holds each call a few ms and records the most calls in flight at once.

    `reply(prompt)` gives the reply text; by default nothing parses.
    """

    def __init__(self, reply=lambda prompt: "~~nonsense~~"):
        self.reply = reply
        self.lock = threading.Lock()
        self.in_flight = self.peak = 0

    def __call__(self, url, payload, timeout):
        with self.lock:
            self.in_flight += 1
            self.peak = max(self.peak, self.in_flight)
        time.sleep(0.005)
        with self.lock:
            self.in_flight -= 1
        text = self.reply(payload["messages"][0]["content"])
        return 200, json.dumps({"choices": [{"message": {"content": text}}]})


class TestLlmIntegration:
    def test_deterministic_mode_never_touches_network(self, tmp_path):
        def poisoned(url, payload, timeout):
            raise AssertionError("network transport used in deterministic mode")

        cfg = small_cfg(n_steps=8)
        run_simulation(cfg, out_dir=tmp_path / "nollm", transport=poisoned)

    def test_catalog_tags_are_what_items_csv_reads_back(self, tmp_path):
        """Tags from LLM replies, a "|" inside a tag and empty tags included, are
        held as the run's items.csv gives them back."""

        def odd_tags(url, payload, timeout):
            prompt = payload["messages"][0]["content"]
            text = "~~nonsense~~"
            if "Based on the analysis: [" in prompt:
                genre = prompt.split("Based on the analysis: [", 1)[1].split(", please", 1)[0].split("]: ")[1]
                text = json.dumps({"name": "clip", "genre": genre, "tags": ["x|y", "", "z"], "description": "d"})
            return 200, json.dumps({"choices": [{"message": {"content": text}}]})

        cfg = small_cfg(n_steps=4, creator_policy="creagent_llm", llm_endpoint="http://stub.invalid",
                        llm_model="stub")
        data = synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth"))
        world = harness._World(cfg, data, transport=odd_tags)
        world.run_steps()
        world.catalog.to_csv(tmp_path / "items.csv")
        assert ("x", "y", "z") in world.catalog.tags
        assert core.Catalog.from_csv(tmp_path / "items.csv").tags == world.catalog.tags

    def test_garbage_llm_run_equals_rule_based_run(self, tmp_path):
        rule = run_simulation(small_cfg(n_steps=12), out_dir=tmp_path / "rule")

        def garbage(url, payload, timeout):
            return 200, json.dumps({"choices": [{"message": {"content": "~~nonsense~~"}}]})

        cfg = small_cfg(n_steps=12, creator_policy="creagent_llm",
                        llm_endpoint="http://stub.invalid", llm_model="stub")
        llm = run_simulation(cfg, out_dir=tmp_path / "llm", transport=garbage)
        assert (tmp_path / "rule" / "events.csv").read_bytes() == (
            tmp_path / "llm" / "events.csv"
        ).read_bytes()

    def test_workers_fan_out_llm_calls(self, tmp_path):
        peaks, artifacts = {}, {}
        for workers in (1, 2):
            stub = HoldingStub()
            cfg = small_cfg(n_steps=8, workers=workers, creator_policy="creagent_llm",
                            llm_endpoint="http://stub.invalid", llm_model="stub")
            out = run_simulation(cfg, out_dir=tmp_path / f"w{workers}", transport=stub).out_dir
            peaks[workers] = stub.peak
            artifacts[workers] = [
                (out / name).read_bytes()
                for name in ("events.csv", "items.csv", "creator_trace.csv", "metrics.json")
            ]
        assert peaks == {1: 1, 2: 2}
        assert artifacts[1] == artifacts[2]

    def test_llm_profile_summarization_applied(self, tmp_path):
        def profile_stub(url, payload, timeout):
            prompt = payload["messages"][0]["content"]
            if "social identity" in prompt:
                text = "[Social Identity]: synthwave archivist"
            elif "Intrinsic motivation" in prompt:
                text = "[Intrinsic Motivation]: profit"
            else:
                text = "gibberish"
            return 200, json.dumps({"choices": [{"message": {"content": text}}]})

        from creatorsim.harness import _World
        from creatorsim.ingest import SynthParams, synth_dataset
        from creatorsim.core import stream

        cfg = small_cfg(n_steps=5, creator_policy="creagent_llm",
                        llm_endpoint="http://stub.invalid", llm_model="stub")
        data = synth_dataset(
            SynthParams(n_users=cfg.n_users, n_creators=cfg.n_creators, seed=cfg.seed),
            stream(cfg.seed, "synth"),
        )
        world = _World(cfg, data, transport=profile_stub)
        assert all(c.identity == "synthwave archivist" for c in world.creators)
        assert all(c.motivation == "profit" for c in world.creators)

    def test_workers_fan_out_profile_calls(self):
        from creatorsim.core import stream
        from creatorsim.harness import _World
        from creatorsim.ingest import SynthParams, synth_dataset

        def persona(prompt):
            # a reply that differs per creator, so a slot assigned to the wrong creator shows
            if "[Social Identity]" in prompt:
                return f"[Social Identity]: persona {hashlib.sha256(prompt.encode()).hexdigest()[:8]}"
            return "[Intrinsic Motivation]: " + ("profit" if len(prompt) % 2 else "sharing")

        peaks, profiles = {}, {}
        for workers in (1, 2):
            stub = HoldingStub(persona)
            cfg = small_cfg(n_steps=1, workers=workers, creator_policy="creagent_llm",
                            llm_endpoint="http://stub.invalid", llm_model="stub")
            data = synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth"))
            world = _World(cfg, data, transport=stub)
            peaks[workers] = stub.peak
            profiles[workers] = [(c.identity, c.motivation) for c in world.creators]
        assert peaks == {1: 1, 2: 2}
        assert profiles[1] == profiles[2]
        assert len(set(profiles[1])) > 1

    def test_wellformed_llm_replies_steer_decisions(self, tmp_path):
        from creatorsim.ingest import DEFAULT_GENRES

        def always_explore_gaming(url, payload, timeout):
            prompt = payload["messages"][0]["content"]
            if "must choose one of the two actions" in prompt:
                text = "[EXPLORE]: Gaming"
            else:
                text = json.dumps(
                    {"name": "Stub Video", "genre": "Gaming", "tags": ["stub"], "description": "d"}
                )
            return 200, json.dumps({"choices": [{"message": {"content": text}}]})

        cfg = small_cfg(n_steps=10, creator_policy="creagent_llm",
                        llm_endpoint="http://stub.invalid", llm_model="stub")
        artifacts = run_simulation(cfg, out_dir=tmp_path / "steer", transport=always_explore_gaming)
        gaming = DEFAULT_GENRES.index("Gaming")
        created_genres = []
        with open(artifacts.out_dir / "items.csv") as f:
            for row in csv.DictReader(f):
                if int(row["created_step"]) >= 1:
                    created_genres.append(int(row["genre"]))
        assert created_genres
        # whenever Gaming was still unexplored the stub reply is honored
        assert gaming in created_genres


def out_of_order(url, payload, timeout):
    """A reply that is a pure function of the prompt, after a delay that is one too,

    so replies to prompts sent together finish in an order unrelated to the order
    they were sent in. One prompt in four gets nonsense, so the fallback runs too.
    """
    prompt = payload["messages"][0]["content"]
    h = hashlib.sha256(prompt.encode("utf-8")).digest()
    time.sleep(h[1] / 255 * 0.004)
    if h[0] % 4 == 0:
        text = "~~nonsense~~"
    elif "[Social Identity]" in prompt:
        text = f"[Social Identity]: persona {h[2] % 5}"
    elif "[Intrinsic Motivation]" in prompt:
        text = "[Intrinsic Motivation]: " + ("profit" if h[2] % 2 else "sharing")
    elif "must choose one of the two actions" in prompt:
        unknown, known = (
            part[: part.index(".\n\n")].split(", ")
            for part in prompt.split("genre name chosen from ")[1:]
        )
        kind, choices = ("EXPLORE", unknown) if h[2] % 2 else ("EXPLOIT", known)
        text = f"[{kind}]:: {choices[h[3] % len(choices)]}"
    else:
        genre = prompt.split("Based on the analysis: [", 1)[1].split(", please", 1)[0].split("]: ")[1]
        text = json.dumps({"name": f"clip {h.hex()[:6]}", "genre": genre, "tags": ["t"],
                           "description": "d"})
    return 200, json.dumps({"choices": [{"message": {"content": text}}]})


class TestOneExecutionModel:
    @pytest.mark.parametrize("policy", core.CREATOR_POLICIES)
    def test_every_policy_byte_identical_for_any_worker_count(self, tmp_path, policy):
        outputs = {}
        for workers in (1, 2, 3):
            cfg = small_cfg(n_steps=12, workers=workers, creator_policy=policy,
                            departure_threshold=3, llm_endpoint="http://stub.invalid",
                            llm_model="stub")
            out = run_simulation(cfg, out_dir=tmp_path / f"w{workers}", transport=out_of_order).out_dir
            outputs[workers] = [
                (out / name).read_bytes()
                for name in ("events.csv", "items.csv", "creator_trace.csv", "metrics.json")
            ]
        assert outputs[1] == outputs[2] == outputs[3]

    @pytest.mark.parametrize("policy", [p for p in core.CREATOR_POLICIES if p != "creagent_llm"])
    def test_policies_without_llm_start_no_thread(self, tmp_path, monkeypatch, policy):
        def refuse(thread):
            raise AssertionError(f"thread {thread.name} started")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        cfg = small_cfg(n_steps=10, workers=3, creator_policy=policy, departure_threshold=3)
        assert run_simulation(cfg, out_dir=tmp_path / policy).report["tuw"] > 0


class TestBaselinePolicies:
    @pytest.mark.parametrize("policy", ["cfd", "lbr", "simuline", "random"])
    def test_baseline_policies_run(self, tmp_path, policy):
        cfg = small_cfg(n_steps=10, creator_policy=policy)
        artifacts = run_simulation(cfg, out_dir=tmp_path / policy)
        assert artifacts.report["tuw"] >= 0

    def test_full_information_variant_runs(self, tmp_path):
        cfg = small_cfg(n_steps=10, creator_full_information=True)
        artifacts = run_simulation(cfg, out_dir=tmp_path / "full")
        assert artifacts.report["tuw"] >= 0


class TestCli:
    def test_end_to_end(self, tmp_path, capsys):
        params = tmp_path / "params.txt"
        params.write_text("n_users = 15\nn_creators = 6\nseed = 2\n")
        data_dir = tmp_path / "data"
        assert cli_main(["synth", "--params", str(params), "--out", str(data_dir)]) == 0
        assert cli_main(["validate", str(data_dir)]) == 0

        config = tmp_path / "config.txt"
        cfg = small_cfg(n_users=15, n_creators=6, n_steps=8, data_dir=str(data_dir))
        config.write_text(cfg.to_text())
        run_dir = tmp_path / "run"
        assert cli_main(["run", "--config", str(config), "--out", str(run_dir)]) == 0
        assert cli_main(["report", str(run_dir)]) == 0
        assert cli_main(["compare", str(run_dir), "--metrics", "tuw,crr"]) == 0
        out = capsys.readouterr().out
        assert "tuw" in out

    @pytest.mark.parametrize(
        "edit,code",
        [
            (lambda run: (run / "metrics.json").write_text("{not json"), 3),
            (lambda run: (run / "metrics.json").write_bytes(b'{"tuw": 1}\xff'), 3),
            (lambda run: (run / "metrics.json").write_text('{"tuw": "abc"}'), 3),
            (lambda run: (run / "metrics.json").write_text("[1, 2]"), 3),
            (lambda run: (run / "config.txt").write_text(_without_key(run / "config.txt", "mmr.lambda")), 0),
        ],
        ids=["metrics-not-json", "metrics-not-utf8", "metrics-non-numeric", "metrics-not-object",
             "config-missing-key"],
    )
    def test_compare_malformed_run_exit_code(self, smoke_run, tmp_path, edit, code):
        broken = copy_run(smoke_run, tmp_path)
        edit(broken)
        assert cli_main(["compare", str(smoke_run.out_dir), str(broken)]) == code

    def test_config_error_exit_code(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("not_a_key = 1\n")
        assert cli_main(["run", "--config", str(bad), "--out", str(tmp_path / "x")]) == 2

    @pytest.mark.parametrize("command", ["run --config", "synth --params"])
    def test_settings_file_not_utf8_exit_code(self, tmp_path, capsys, command):
        """A settings file holding a byte that is not UTF-8 is a config error naming the file."""
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"n_users = 15\n\xff\n")
        assert cli_main([*command.split(), str(bad), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert f"config error: {bad}: 'utf-8' codec can't decode byte 0xff" in err
        assert not (tmp_path / "x").exists()

    def test_report_baseline_of_another_length_exit_code(self, smoke_run, tmp_path, capsys):
        """A baseline run of fewer steps is an artifact error naming both step counts and the baseline."""
        base = run_simulation(small_cfg(n_steps=6), out_dir=tmp_path / "base").out_dir
        assert cli_main(["report", str(smoke_run.out_dir), "--baseline", str(base)]) == 3
        err = capsys.readouterr().err
        assert f"data error: baseline {base} has 6 steps, the run {smoke_run.out_dir} has 25" in err

    def test_data_error_exit_code(self, tmp_path):
        cfg = small_cfg(data_dir=str(tmp_path / "nowhere"))
        config = tmp_path / "config.txt"
        config.write_text(cfg.to_text())
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 3

    def test_report_missing_dir_exit_code(self, tmp_path):
        assert cli_main(["report", str(tmp_path / "missing")]) == 3

    def test_report_non_numeric_reward_pct_exit_code(self, smoke_run, tmp_path, capsys):
        broken = copy_run(smoke_run, tmp_path)
        lines = (broken / "creator_trace.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if ",EXPLORE," in line or ",EXPLOIT," in line)
        lines[row] = lines[row].rsplit(",", 1)[0] + ",high"
        (broken / "creator_trace.csv").write_text("\n".join(lines) + "\n")
        assert cli_main(["report", str(broken)]) == 3
        err = capsys.readouterr().err
        assert f"creator_trace.csv line {row + 1}: could not convert string to float: 'high'" in err

    @pytest.mark.parametrize("pct", ["nan", "inf", "-0.5", "1.5", "1e400"])
    def test_report_reward_pct_outside_unit_interval_exit_code(self, smoke_run, tmp_path, capsys, pct):
        """A reward percentile is a share of the creator's own items: one that is
        not in [0, 1], NaN included, is a corrupt trace naming its line."""
        broken = copy_run(smoke_run, tmp_path)
        lines = (broken / "creator_trace.csv").read_text().splitlines()
        row = next(i for i, line in enumerate(lines) if ",EXPLORE," in line or ",EXPLOIT," in line)
        lines[row] = lines[row].rsplit(",", 1)[0] + f",{pct}"
        (broken / "creator_trace.csv").write_text("\n".join(lines) + "\n")
        assert cli_main(["report", str(broken)]) == 3
        assert f"creator_trace.csv line {row + 1}: reward_pct '{pct}' outside [0, 1]" in capsys.readouterr().err

    @pytest.mark.parametrize("spelling", ["underscore", "arabic-indic", "spaced-plus"])
    @pytest.mark.parametrize(
        "source,file,column",
        [
            ("data", "users.csv", "user_id"),
            ("data", "creators.csv", "followers"),
            ("data", "items.csv", "created_day"),
            ("data", "interactions.csv", "day"),
            ("run", "items.csv", "created_step"),
            ("run", "creator_trace.csv", "step"),
            ("run", "creator_trace.csv", "item_id"),
            ("run", "creator_trace.csv", "genre"),
            ("run", "timeseries.csv", "tuw_cum"),
        ],
    )
    def test_integer_field_is_ascii_digits(self, smoke_run, tmp_path, capsys, source, file, column, spelling):
        """An integer field is ASCII digits after an optional sign, with optional
        spaces around them, as events.csv's parser reads it. The same number
        spelled with an underscore or in other digits is a data error naming the
        file and line, for `sim validate` and `sim report` alike."""
        if source == "data":
            folder = tmp_path / "data"
            synth_dataset(SynthParams(n_users=15, n_creators=6, seed=2), stream(2, "synth")).to_dir(folder)
        else:
            folder = copy_run(smoke_run, tmp_path)
        lines = (folder / file).read_text(encoding="utf-8").splitlines()
        k = next(i for i, line in enumerate(lines) if i and ",DEPART," not in line)  # a decision, in the trace
        fields = next(csv.reader([lines[k]]))
        value = fields[lines[0].split(",").index(column)]
        fields[lines[0].split(",").index(column)] = {
            "underscore": f"{value[:-1] or '0'}_{value[-1]}",
            "arabic-indic": value.translate(str.maketrans("0123456789", "٠١٢٣٤٥٦٧٨٩")),
            "spaced-plus": f" +{value} ",
        }[spelling]
        out = io.StringIO()
        csv.writer(out, lineterminator="").writerow(fields)
        lines[k] = out.getvalue()
        (folder / file).write_text("\n".join(lines) + "\n", encoding="utf-8")
        command = "validate" if source == "data" else "report"
        with redirect_stdout(io.StringIO()):
            code = cli_main([command, str(folder)])
        if spelling == "spaced-plus":
            assert code == 0
        else:
            assert code == 3
            assert f"{file} line {k + 1}: " in capsys.readouterr().err

    def test_report_setting_past_int64_exit_code(self, smoke_run, tmp_path, capsys):
        """An integer setting sizes numpy arrays; one past int64 made report()
        fail with an OverflowError and a traceback."""
        broken = copy_run(smoke_run, tmp_path)
        config = (broken / "config.txt").read_text()
        (broken / "config.txt").write_text(re.sub(r"(?m)^n_steps = .*$", f"n_steps = {2**63}", config))
        assert cli_main(["report", str(broken)]) == 2
        assert "n_steps must be in [-2**63, 2**63)" in capsys.readouterr().err

    def test_report_summary_without_n_creators_exit_code(self, smoke_run, tmp_path):
        broken = copy_run(smoke_run, tmp_path)
        summary = json.loads((broken / "dataset_summary.json").read_text())
        del summary["n_creators"]
        (broken / "dataset_summary.json").write_text(json.dumps(summary))
        assert cli_main(["report", str(broken)]) == 3

    @pytest.mark.parametrize("n_creators", ["10", 10.0])
    def test_report_summary_non_integer_n_creators_exit_code(self, smoke_run, tmp_path, n_creators):
        broken = copy_run(smoke_run, tmp_path)
        summary = json.loads((broken / "dataset_summary.json").read_text())
        summary["n_creators"] = n_creators
        (broken / "dataset_summary.json").write_text(json.dumps(summary))
        assert cli_main(["report", str(broken)]) == 3

    @pytest.mark.parametrize("n_users", ["20", 20.0])
    def test_report_summary_non_integer_n_users_exit_code(self, smoke_run, tmp_path, n_users):
        broken = copy_run(smoke_run, tmp_path)
        summary = json.loads((broken / "dataset_summary.json").read_text())
        summary["n_users"] = n_users
        (broken / "dataset_summary.json").write_text(json.dumps(summary))
        assert cli_main(["report", str(broken)]) == 3

    @pytest.mark.parametrize("which", ["first", "click", "no-click", "last"])
    def test_report_unexposed_event_exit_code(self, smoke_run, tmp_path, which):
        """An event is an exposure: an events.csv row whose exposed field is 0 is
        a data error naming its line, a click row or not."""
        broken = copy_run(smoke_run, tmp_path)
        lines = (broken / "events.csv").read_text().splitlines()
        k = {
            "first": 1,
            "click": next(k for k in range(1, len(lines)) if lines[k].endswith(",1")),
            "no-click": next(k for k in range(1, len(lines)) if lines[k].endswith(",0")),
            "last": len(lines) - 1,
        }[which]
        lines[k] = _with_field(lines[k], 3, "0")
        (broken / "events.csv").write_text("\n".join(lines) + "\n")
        err = io.StringIO()
        with redirect_stderr(err):
            assert cli_main(["report", str(broken)]) == 3
        assert f"line {k + 1}: exposed is 0, not 1" in err.getvalue()

    def test_report_event_from_unknown_user_exit_code(self, smoke_run, tmp_path):
        broken = copy_run(smoke_run, tmp_path)
        n_users = json.loads((broken / "dataset_summary.json").read_text())["n_users"]
        lines = (broken / "events.csv").read_text().splitlines()
        lines[-1] = _with_field(lines[-1], 1, str(n_users))
        (broken / "events.csv").write_text("\n".join(lines) + "\n")
        assert cli_main(["report", str(broken)]) == 3

    @pytest.mark.parametrize(
        "artifact,edit",
        [
            ("items.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",soon"]),
            ("items.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0]]),
            ("dataset_summary.json", lambda lines: lines[: len(lines) // 2]),
            ("items.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 2, "14")]),
            ("events.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 0, "10000")]),
            ("events.csv", lambda lines: lines[:1] + ["0,0,{simulated},1,1"] + lines[1:]),
            ("events.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 2, "100000")]),
            ("items.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 1, "-1")]),
            ("items.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 1, "999")]),
            ("items.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",-1"]),
            ("items.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + ",26"]),
            ("items.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 1, str(2**63))]),
            ("events.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 2)[0] + ",2,0"]),
            ("events.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 2)[0] + ",1,-1"]),
            ("items.csv", lambda lines: lines[:-1] + [lines[-1].rsplit(",", 1)[0] + "," + "9" * 200_000]),
            ("timeseries.csv", lambda lines: lines[:-1]),
            ("timeseries.csv", lambda lines: lines[:-1] + lines[-2:-1]),
            ("timeseries.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 0, "x")]),
            ("timeseries.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 1, "0")]),
            ("timeseries.csv", lambda lines: lines[:-1] + [_with_field(lines[-1], 2, "10")]),
            ("config.txt", lambda lines: [re.sub(r"^n_steps = .*", "n_steps = 2000000", x) for x in lines]),
            ("events.csv", lambda lines: _without_last(lines, ",1,1")),
        ],
        ids=["items-non-numeric", "items-short-row", "summary-truncated", "items-genre-out-of-range",
             "events-step-above-n-steps", "events-click-at-step-0", "events-item-outside-catalog",
             "items-creator-negative", "items-creator-above-n-creators", "items-step-negative",
             "items-step-above-n-steps", "items-creator-beyond-int64", "events-exposed-2",
             "events-clicked-negative", "items-field-over-csv-limit", "timeseries-step-missing",
             "timeseries-step-repeated", "timeseries-step-non-integer", "timeseries-tuw-cum-wrong",
             "timeseries-alive-wrong", "config-n-steps-past-the-run", "events-click-dropped"],
    )
    def test_report_malformed_artifact_exit_code(self, smoke_run, tmp_path, artifact, edit):
        broken = copy_run(smoke_run, tmp_path)
        with open(broken / "items.csv") as f:
            simulated = next(r["item_id"] for r in csv.DictReader(f) if int(r["created_step"]) >= 1)
        lines = edit((broken / artifact).read_text().splitlines())
        (broken / artifact).write_text("\n".join(lines).replace("{simulated}", simulated) + "\n")
        assert cli_main(["report", str(broken)]) == 3

    @pytest.mark.parametrize(
        "edit",
        [
            lambda t: t.lines + [f"{t.free[0]},10,DEPART,,,0.5,false,"],
            lambda t: t.lines + [f"{t.free[0]},-1,DEPART,,,0.5,false,"],
            lambda t: t.lines + [f"{s},{t.fresh},DEPART,,,0.5,false," for s in t.free[:2]],
            lambda t: t.lines + [f"0,{t.fresh},DEPART,,,0.5,false,"],
            lambda t: t.lines + [f"{t.n_steps + 1},{t.fresh},DEPART,,,0.5,false,"],
            lambda t: t.lines + [t.exploit],
            lambda t: t.lines + [f"{t.n_steps},{t.departed},EXPLORE,3,999,0.5,true,0.9"],
            lambda t: t.lines + [f"{t.free[0]},{t.fresh},FOO,3,999,0.5,true,0.9"],
            lambda t: [line for line in t.lines if line != t.explore],
            lambda t: [_with_field(line, 4, "0") if line == t.exploit else line for line in t.lines],
            lambda t: [_with_field(line, 3, "14") if line == t.exploit else line for line in t.lines],
            lambda t: t.lines + [f"{t.before},{t.fresh},DEPART,,,0.5,false,"],
        ],
        ids=["creator-above-n-creators", "creator-negative", "creator-repeated", "step-0",
             "step-above-n-steps", "exploit-repeated", "decision-after-depart", "unknown-action-kind",
             "explore-deleted", "decision-names-a-seed-item", "decision-genre-not-its-item",
             "depart-before-own-row"],
    )
    def test_report_impossible_depart_exit_code(self, smoke_run, tmp_path, edit):
        """The simulator writes at most one trace row per (step, creator), a
        creator departs once, at a step of the run, and has no row after that,
        and each created item has one decision row that names it."""
        broken = copy_run(smoke_run, tmp_path)
        lines = (broken / "creator_trace.csv").read_text().splitlines()
        with open(broken / "creator_trace.csv") as f:
            records = list(csv.DictReader(f))
        departed = {int(r["creator_id"]) for r in records if r["action_kind"] == "DEPART"}
        fresh = min(set(range(10)) - departed)  # small_cfg has 10 creators
        n_steps = SimConfig.from_file(broken / "config.txt").n_steps
        busy = {int(r["step"]) for r in records if int(r["creator_id"]) == fresh}
        trace = types.SimpleNamespace(
            lines=lines, fresh=fresh, n_steps=n_steps, departed=min(departed),
            free=list(range(max(busy) + 1, n_steps + 1)),  # the steps after that creator's last row
            before=min(set(range(1, max(busy))) - busy),  # a step before it, without a row
            exploit=next(line for line in lines if ",EXPLOIT," in line),
            explore=next(line for line in lines if ",EXPLORE," in line),
        )
        assert len(trace.free) >= 2
        (broken / "creator_trace.csv").write_text("\n".join(edit(trace)) + "\n")
        assert cli_main(["report", str(broken)]) == 3
        # one valid departure of the same creator is accepted, with the
        # timeseries counting one creator fewer from its step on
        step = trace.free[0]
        departure = f"{step},{fresh},DEPART,,,0.5,false,"
        (broken / "creator_trace.csv").write_text("\n".join(lines + [departure]) + "\n")
        series = (broken / "timeseries.csv").read_text().splitlines()  # line n holds step n
        series[step:] = [_with_field(row, 2, str(int(row.split(",")[2]) - 1)) for row in series[step:]]
        (broken / "timeseries.csv").write_text("\n".join(series) + "\n")
        assert cli_main(["report", str(broken)]) == 0

    @settings(max_examples=300, deadline=None)
    @given(
        artifact=st.sampled_from(
            ["events.csv", "items.csv", "creator_trace.csv", "timeseries.csv", "config.txt",
             "dataset_summary.json"]
        ),
        mutation=st.sampled_from(sorted(MUTATIONS)),
        data=st.data(),
    )
    def test_report_survives_damaged_artifact(self, smoke_run, artifact, mutation, data):
        """One mutation of one artifact: `sim report` accepts the run or names a
        config or data error, and never fails with a traceback."""
        with tempfile.TemporaryDirectory() as scratch:
            broken = shutil.copytree(smoke_run.out_dir, Path(scratch) / "run")
            raw = (broken / artifact).read_bytes()
            (broken / artifact).write_bytes(MUTATIONS[mutation](raw, data.draw))
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                assert cli_main(["report", str(broken)]) in (0, 2, 3)
            assert "Traceback" not in err.getvalue()

    def test_report_non_utf8_artifact_exit_code(self, smoke_run, tmp_path):
        broken = copy_run(smoke_run, tmp_path)
        (broken / "events.csv").write_bytes((broken / "events.csv").read_bytes() + b"\xff\n")
        assert cli_main(["report", str(broken)]) == 3

    def test_config_synth_range_checked_at_load(self, tmp_path):
        # a run on a dataset directory never synthesizes, but its config is still checked
        config = tmp_path / "config.txt"
        config.write_text(small_cfg(data_dir=str(tmp_path / "unused")).to_text()
                          .replace("synth.n_genres = 14", "synth.n_genres = 20"))
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "x")]) == 2
        assert not (tmp_path / "x").exists()

    def test_every_creator_departed_before_warmup(self, tmp_path, capsys):
        cfg = SimConfig(n_users=2, n_creators=3, n_steps=60, warmup=60, departure_threshold=1,
                        synth_interactions_per_user=0, seed=1)
        config = tmp_path / "config.txt"
        config.write_text(cfg.to_text())
        assert cli_main(["run", "--config", str(config), "--out", str(tmp_path / "run")]) == 0
        assert "crr=n/a" in capsys.readouterr().out
        metrics = json.loads((tmp_path / "run" / "metrics.json").read_text())
        assert metrics["alive_at_start"] == 0
        assert metrics["crr"] is None


def _garbage_llm(url, payload, timeout):
    return 200, json.dumps({"choices": [{"message": {"content": "~~nonsense~~"}}]})


class TestRunMemory:
    @pytest.mark.parametrize("overrides", [
        {},
        {"ranker": "bpr", "reranker": "fairco"},
        {"creator_policy": "creagent_llm", "llm_endpoint": "http://stub.invalid", "llm_model": "stub",
         "workers": 2},
    ])
    def test_world_is_freed_before_report(self, tmp_path, monkeypatch, overrides):
        """report() re-reads the artifacts; the run state is gone by then, so
        the run never holds both."""
        refs, alive = [], []
        original_create, original_report = harness._World.phase_create, harness.report

        def create(world, n):
            refs.append(weakref.ref(world))
            return original_create(world, n)

        def report(*args, **kwargs):
            alive.append([ref() is not None for ref in refs])
            return original_report(*args, **kwargs)

        monkeypatch.setattr(harness._World, "phase_create", create)
        monkeypatch.setattr(harness, "report", report)
        cfg = small_cfg(n_steps=3, warmup=1, **overrides)
        run_simulation(cfg, out_dir=tmp_path / "run", transport=_garbage_llm)
        assert alive == [[False] * 3]

    @pytest.mark.parametrize("source", ["synth", "data_dir"])
    def test_run_does_not_import_numpy_ma(self, tmp_path, source):
        """numpy.ma costs about 1 MB of RSS; np.median's NaN check imports it,
        and a run takes its medians without that check."""
        code = """
import sys
from creatorsim import SimConfig, run_simulation
from creatorsim.core import stream
from creatorsim.ingest import SynthParams, synth_dataset

source, data, out = sys.argv[1:]
cfg = SimConfig(n_users=15, n_creators=6, n_steps=3, warmup=1, seed=2)
if source == "data_dir":
    synth_dataset(SynthParams.from_config(cfg), stream(2, "synth")).to_dir(data)
    cfg = cfg.with_overrides(data_dir=data)
run_simulation(cfg, out_dir=out)
print("numpy" in sys.modules, "numpy.ma" in sys.modules)
"""
        src = str(Path(creatorsim.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        args = [sys.executable, "-c", code, source, str(tmp_path / "data"), str(tmp_path / "run")]
        done = subprocess.run(args, env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert done.stdout.split() == ["True", "False"]
        assert (tmp_path / "run" / "metrics.json").exists()
