"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
complete. All runs are seeded and bit-reproducible, so these checks are
deterministic.
"""

import json
import math
import time

import numpy as np
import pytest

from creatorsim.core import (
    Catalog,
    EventLog,
    SimConfig,
    creator_view,
    stream,
)
from creatorsim.creator import CreatorRuntime, Beliefs, item_utility
from creatorsim.harness import run_simulation
from creatorsim.metrics import (
    alignment_from_distributions,
    content_genre_diversity,
    genre_histogram,
    js_divergence,
    per_creator_entropies,
)
from creatorsim.recsys import make_ranker

SEEDS = (1, 2, 3, 4, 5)
DESK = dict(n_users=100, n_creators=50, n_steps=100, warmup=10)


def check(name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {name}: {detail}")
    assert ok, f"{name}: {detail}"


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")


@pytest.fixture(scope="module")
def runs(workdir):
    """Lazy cache of desk-scale runs keyed by (ranker, reranker, full, seed)."""
    cache = {}

    def get(ranker, reranker, seed, full=False):
        key = (ranker, reranker, full, seed)
        if key not in cache:
            cfg = SimConfig(seed=seed, ranker=ranker, reranker=reranker,
                            creator_full_information=full, **DESK)
            out = workdir / f"{ranker}-{reranker}-{'full' if full else 'partial'}-{seed}"
            cache[key] = run_simulation(cfg, out_dir=out)
        return cache[key]

    return get


def mean_metric(artifacts, key):
    values = [a.report[key] for a in artifacts]
    return float(np.mean(values))


def test_01_asymmetry_enforcement():
    rng = stream(99, "acceptance", "asymmetry")
    started = time.perf_counter()
    n_items, n_creators = 60, 8
    foreign_reads = 0
    owned_reads = 0
    queries = 0
    for _ in range(4):  # fresh random store and ownership map per block
        owners = [int(rng.integers(0, n_creators)) for _ in range(n_items)]
        catalog = Catalog()
        for item, owner in enumerate(owners):
            catalog.add(owner, 0, f"t{item}", (), "", 0)
        events = []  # (item, clicked) per exposure, as the test recorded them
        for step in range(30):
            block = []
            for user in range(5):
                for item in sorted(rng.choice(n_items, size=8, replace=False)):
                    block.append((int(item), bool(rng.random() < 0.4)))
            items, clicked = zip(*block)
            catalog.add_feedback(np.array(items), 1, np.array(clicked))
            events += block
        # the block's totals per item, tallied from the test's own record
        expected_exposures = np.bincount(np.array([i for i, _ in events], dtype=int), minlength=n_items)
        expected_clicks = np.bincount(np.array([i for i, c in events if c], dtype=int), minlength=n_items)
        for _ in range(2_500):
            queries += 1
            creator = int(rng.integers(0, n_creators))
            own = creator_view(catalog, creator)
            owned = [item for item in range(n_items) if owners[item] == creator]
            foreign_reads += sum(owners[item] != creator for item in own.items.tolist())
            owned_reads += len(owned)
            assert own.items.tolist() == owned
            assert (own.exposures.tolist(), own.clicks.tolist()) == (
                expected_exposures[owned].tolist(), expected_clicks[owned].tolist()
            )
    elapsed = time.perf_counter() - started
    check(
        "criterion 1: asymmetry enforcement",
        queries == 10_000 and foreign_reads == 0 and owned_reads > 0 and elapsed < 5.0,
        f"{queries} reads over 4 random stores, {owned_reads} owned rows and no foreign one, {elapsed:.2f}s",
    )


def test_02_utility_oracle():
    rng = stream(7, "acceptance", "utility")
    started = time.perf_counter()
    state = CreatorRuntime(
        creator_id=0, name="c", identity="", motivation="", activity=1.0, n_genres=4,
        beliefs=Beliefs(skill=np.full(4, 0.25), audience=np.full(4, np.nan)),
    )
    catalog = Catalog()
    items: dict[int, int] = {}
    totals: dict[int, list[int]] = {}  # running (exposures, clicks) the test accumulates
    checked = 0
    max_err = 0.0
    for step in range(1, 201):
        if len(items) < 25 and step % 2 == 1:
            item_id = len(items)
            items[item_id] = step
            totals[item_id] = [0, 0]
            catalog.add(0, 0, f"t{item_id}", (), "", step)
        shown, clicks = [], []
        for user in range(6):
            for item_id in items:
                if rng.random() < 0.4:
                    clicked = bool(rng.random() < 0.5)
                    shown.append(item_id)
                    clicks.append(clicked)
                    totals[item_id][0] += 1
                    totals[item_id][1] += clicked
        catalog.add_feedback(np.array(shown, dtype=np.int64), 1, np.array(clicks, dtype=bool))
        own = state.own = creator_view(catalog, 0)
        utilities = item_utility(state, 0.5 * own.exposures + 0.5 * own.clicks, step)
        for item_id in rng.choice(list(items), size=min(20, len(items)), replace=False):
            item_id = int(item_id)
            t = items[item_id]
            exp, clk = totals[item_id]
            brute = (0.5 * exp + 0.5 * clk) / (step - t + 1)
            max_err = max(max_err, abs(utilities[item_id] - brute))  # the creator owns every item
            checked += 1
            if checked >= 1000:
                break
        if checked >= 1000:
            break
    elapsed = time.perf_counter() - started
    check(
        "criterion 2: utility oracle",
        checked >= 1000 and max_err <= 1e-9 and elapsed < 5.0,
        f"{checked} pairs, max |delta| = {max_err:.2e}, {elapsed:.2f}s",
    )


def test_03_worker_determinism(workdir):
    started = time.perf_counter()
    digests = []
    for workers in (1, 4, 8):
        cfg = SimConfig(n_users=60, n_creators=30, n_steps=60, warmup=10, seed=42,
                        ranker="mf", reranker="pmmf", workers=workers)
        out = workdir / f"det-w{workers}"
        run_simulation(cfg, out_dir=out)
        digests.append(((out / "events.csv").read_bytes(), (out / "metrics.json").read_bytes()))
    elapsed = time.perf_counter() - started
    check(
        "criterion 3: determinism across workers",
        digests[0] == digests[1] == digests[2] and elapsed < 120.0,
        f"workers 1/4/8 byte-identical, {elapsed:.1f}s",
    )


def test_04_metric_closed_forms():
    log = EventLog()
    for step in range(1, 3):
        for user in range(3):
            log.extend(step, user, np.arange(14), False)
    uniform_cgd = content_genre_diversity(log, np.arange(14), 14, 1, 2)
    single = EventLog()
    single.extend([1, 2, 3], 0, [1, 2, 3], False)
    single_cgd = content_genre_diversity(single, np.full(4, 3), 14, 1, 3)
    rng = stream(5, "acceptance", "jsd")
    sym_ok = True
    for _ in range(50):
        p = rng.dirichlet(np.ones(6))
        q = rng.dirichlet(np.ones(6))
        if abs(js_divergence(p, q) - js_divergence(q, p)) > 1e-12:
            sym_ok = False
    ok = (
        abs(uniform_cgd - math.log(14)) <= 1e-9
        and single_cgd == 0.0
        and sym_ok
        and js_divergence([0.5, 0.5], [0.5, 0.5]) == 0.0
        and abs(js_divergence([1.0, 0.0], [0.0, 1.0]) - 1.0) <= 1e-9
    )
    check(
        "criterion 4: metric closed forms",
        ok,
        f"uniform CGD = ln 14 ± 1e-9, single-genre CGD = 0, JSD symmetric with JSD(p,p)=0, disjoint = 1",
    )


def test_05_retention_random_vs_pop(runs):
    started = time.perf_counter()
    random_crr = mean_metric([runs("random", "none", s) for s in SEEDS], "crr")
    pop_crr = mean_metric([runs("pop", "none", s) for s in SEEDS], "crr")
    gap = random_crr - pop_crr
    elapsed = time.perf_counter() - started
    check(
        "criterion 5: Random vs Pop retention gap",
        gap >= 0.2 and elapsed < 600.0,
        f"CRR random={random_crr:.3f} pop={pop_crr:.3f} gap={gap:+.3f} (need >= 0.2), {elapsed:.0f}s",
    )


def test_06_fairness_protects_creators(runs):
    started = time.perf_counter()
    none_crr = mean_metric([runs("mf", "none", s) for s in SEEDS], "crr")
    pmmf_crr = mean_metric([runs("mf", "pmmf", s) for s in SEEDS], "crr")
    fairrec_crr = mean_metric([runs("mf", "fairrec", s) for s in SEEDS], "crr")
    elapsed = time.perf_counter() - started
    ok = (pmmf_crr - none_crr >= 0.05) and (fairrec_crr - none_crr >= 0.05)
    check(
        "criterion 6: fairness re-ranking raises retention",
        ok and elapsed < 900.0,
        f"CRR none={none_crr:.3f} pmmf={pmmf_crr:.3f} ({pmmf_crr - none_crr:+.3f}) "
        f"fairrec={fairrec_crr:.3f} ({fairrec_crr - none_crr:+.3f}) (need >= +0.05), {elapsed:.0f}s",
    )


def test_07_diversity_direction(runs):
    mmr_cgd = mean_metric([runs("mf", "mmr", s) for s in SEEDS], "cgd")
    none_cgd = mean_metric([runs("mf", "none", s) for s in SEEDS], "cgd")
    check(
        "criterion 7: diversity re-ranking raises CGD",
        mmr_cgd >= none_cgd,
        f"CGD mmr={mmr_cgd:.3f} none={none_cgd:.3f}",
    )


def test_08_prospect_theory_shape(runs):
    artifacts = runs("random", "none", 1)
    buckets = artifacts.report["explore_exploit"]["buckets"]
    exploit = [b["exploit"] for b in buckets if b["exploit"] is not None]
    vl, vh = exploit[0], exploit[-1]
    noise_tolerance = 0.10
    non_decreasing = all(b >= a - noise_tolerance for a, b in zip(exploit, exploit[1:]))
    check(
        "criterion 8: prospect-theory exploitation shape",
        len(exploit) == 5 and vh - vl >= 0.2 and non_decreasing,
        f"exploitation by bucket {['%.3f' % e for e in exploit]}, VH-VL={vh - vl:+.3f} (need >= 0.2)",
    )


def test_09_bounded_rationality(runs):
    wins = 0
    details = []
    for s in SEEDS:
        full = sum(runs("mf", "none", s, full=True).report["reward_per_step"])
        partial = sum(runs("mf", "none", s).report["reward_per_step"])
        wins += full >= partial
        details.append(f"{full}v{partial}")
    check(
        "criterion 9: full information accumulates at least as much reward",
        wins >= 4,
        f"wins {wins}/5 ({', '.join(details)})",
    )


def test_10_ranker_sanity():
    started = time.perf_counter()
    results = {}
    for name in ("mf", "bpr"):
        cat = Catalog()
        for i in range(4):
            cat.add(creator_id=i, genre=i // 2, title=f"i{i}", tags=[], description="", created_step=0)
        train = [(0, 0, 0), (0, 1, 0), (1, 0, 0), (2, 2, 0), (2, 3, 0), (3, 2, 0)]
        cfg = SimConfig()
        ranker = make_ranker(name, n_users=4, seed=13, pop_window=cfg.pop_window, **cfg.section("mf"))
        for step in range(30):
            ranker.retrain(train, cat, step)
        wins = total = 0
        for user, held in ((1, 1), (3, 3)):
            s_in = ranker.scorer(np.array([held]), cat)(user)[0]
            for other in ({1: [2, 3], 3: [0, 1]}[user]):
                wins += s_in > ranker.scorer(np.array([other]), cat)(user)[0]
                total += 1
        results[name] = wins / total
    elapsed = time.perf_counter() - started
    check(
        "criterion 10: MF/BPR block-diagonal sanity",
        all(v >= 0.9 for v in results.values()) and elapsed < 30.0,
        f"held-out in-block wins: mf={results['mf']:.2f} bpr={results['bpr']:.2f}, {elapsed:.1f}s",
    )


def test_11_alignment_machinery():
    rng = stream(3, "acceptance", "alignment")
    ref_items = []
    for c in range(40):
        mix = rng.dirichlet(np.full(14, 0.4))
        for g in rng.choice(14, size=25, p=mix):
            ref_items.append((c, int(g)))
    hist = np.bincount([g for _, g in ref_items], minlength=14).astype(float)
    hist /= hist.sum()
    sim_items = [
        (int(c), int(g))
        for c, g in zip(rng.integers(0, 40, size=10_000), rng.choice(14, size=10_000, p=hist))
    ]

    def alignment(items):
        sim, ref = np.asarray(items), np.asarray(ref_items)
        return alignment_from_distributions(
            genre_histogram(sim[:, 1], 14),
            genre_histogram(ref[:, 1], 14),
            per_creator_entropies(sim[:, 0], sim[:, 1], 14),
            per_creator_entropies(ref[:, 0], ref[:, 1], 14),
            14,
        )

    pref_jsd, _ = alignment(sim_items)
    identical = alignment(ref_items)
    check(
        "criterion 11: alignment machinery",
        pref_jsd < 0.05 and identical == (0.0, 0.0),
        f"sampled-from-own-histogram preference JSD = {pref_jsd:.4f} (< 0.05), identical inputs -> (0, 0)",
    )


def test_12_desk_scale_runtime(workdir):
    cfg = SimConfig(seed=0, ranker="mf", reranker="pmmf", workers=1, **DESK)
    started = time.perf_counter()
    artifacts = run_simulation(cfg, out_dir=workdir / "timing")
    elapsed = time.perf_counter() - started
    check(
        "criterion 12: desk-scale runtime",
        elapsed < 60.0 and artifacts.report["tuw"] > 0,
        f"100 users / 50 creators / 100 steps with MF + pmmf in {elapsed:.2f}s single-threaded",
    )
