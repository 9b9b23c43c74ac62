"""Quantitative outputs of a run.

Three long-term metrics over the evaluation window [start, end]:

* total user welfare: cumulative click count,
* creator retention rate: alive creators at the end divided by alive
  creators when the window opened,
* content genre diversity: participation-weighted mean per-user entropy
  (natural log) of the genres shown; low values indicate a filter bubble.

Plus the behavioral analyses: Jensen-Shannon divergences (base 2, so values
live in [0, 1]) between simulated and reference creation distributions, the
explore/exploit proportions across five reward-percentile buckets, and
reward curves normalized by a baseline run.
"""

from __future__ import annotations

import math
from typing import Callable, Sequence

import numpy as np

from .core import EventLog, SimError


class MetricsError(SimError):
    pass


class NoCreatorsAtStart(MetricsError):
    """Retention undefined when nobody is alive at the window start."""


class NoExposures(MetricsError):
    """Diversity undefined without a single exposure in the window."""


class BadDistribution(MetricsError):
    """Divergence inputs must be same-length probability vectors."""


class EmptyItems(MetricsError):
    """Alignment needs at least one item on each side."""


class ZeroBaseline(MetricsError):
    """Normalization impossible against a still-zero baseline."""


BUCKET_LABELS = ("VL", "L", "M", "H", "VH")


def total_user_welfare(log: EventLog, start: int, end: int) -> int:
    """Number of click events with step in [start, end]."""
    if start > end:
        raise ValueError(f"reversed window [{start}, {end}]")
    return int(np.count_nonzero(log.clicked[log.span(start, end)]))


def creator_retention_rate(alive_at: Callable[[int], int], start: int, end: int) -> float:
    """Alive creators at `end` over alive creators at `start`."""
    base = alive_at(start)
    if base <= 0:
        raise NoCreatorsAtStart(f"no creators alive at step {start}")
    return alive_at(end) / base


def content_genre_diversity(log: EventLog, genre: np.ndarray, n_genres: int, start: int, end: int) -> float:
    """Mean per-user entropy (nats) of the genres shown over [start, end].

    Every event is an exposure; `genre` holds each item id's genre, as the
    catalog's column does. Users are weighted by the number of steps they
    participated in (steps with at least one exposure).
    """
    rows = log.span(start, end)
    users, items, steps = log.user[rows], log.item[rows], log.step[rows]
    if not len(users):
        raise NoExposures(f"no exposures in [{start}, {end}]")
    hist, row = _counts_by_key(users, genre[items], n_genres)
    # events are sorted by (step, user): a user's step starts where either changes
    visit = np.ones(len(users), dtype=bool)
    visit[1:] = (steps[1:] != steps[:-1]) | (users[1:] != users[:-1])
    weights = np.bincount(row[visit], minlength=len(hist)).tolist()
    num = den = 0.0
    for weight, entropy in zip(weights, _row_entropies(hist)):
        num += weight * entropy
        den += weight
    return num / den


def _counts_by_key(keys: np.ndarray, genres: np.ndarray, n_genres: int) -> tuple[np.ndarray, np.ndarray]:
    """Genre counts per distinct key, one row per key in order of first
    appearance, and the row of each input element."""
    _, first, inverse = np.unique(keys, return_index=True, return_inverse=True)
    row = np.argsort(np.argsort(first))[inverse]  # key index -> rank of its first appearance
    cells = np.bincount(row * n_genres + genres, minlength=len(first) * n_genres)
    return cells.reshape(len(first), n_genres).astype(float), row


def _row_entropies(hist: np.ndarray) -> list[float]:
    """Entropy (nats) of each row of a count table, over its nonzero cells."""
    out = []
    for counts in hist:
        probs = counts / counts.sum()
        probs = probs[probs > 0]
        out.append(float(-(probs * np.log(probs)).sum()))
    return out


def js_divergence(p: Sequence[float], q: Sequence[float]) -> float:
    """Jensen-Shannon divergence in bits; symmetric, bounded in [0, 1]."""
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape or p.ndim != 1:
        raise BadDistribution("p and q must be 1-d with equal support size")
    for name, v in (("p", p), ("q", q)):
        if (v < 0).any():
            raise BadDistribution(f"{name} has negative mass")
        if abs(v.sum() - 1.0) > 1e-6:
            raise BadDistribution(f"{name} sums to {v.sum()}, not 1")
    m = 0.5 * (p + q)

    def kl(a: np.ndarray) -> float:
        mask = a > 0
        return float((a[mask] * np.log2(a[mask] / m[mask])).sum())

    return 0.5 * kl(p) + 0.5 * kl(q)


def genre_histogram(genres: np.ndarray, n_genres: int) -> np.ndarray:
    return np.bincount(np.asarray(genres, dtype=np.int64), minlength=n_genres).astype(float)


def per_creator_entropies(creators: np.ndarray, genres: np.ndarray, n_genres: int) -> list[float]:
    """Genre entropy (nats) of each creator's items; one value per creator,
    in order of the creator's first item. Inputs are aligned per item."""
    hist, _ = _counts_by_key(np.asarray(creators, np.int64), np.asarray(genres, np.int64), n_genres)
    return _row_entropies(hist)


def entropy_histogram(entropies: Sequence[float], n_genres: int, bins: int = 10) -> np.ndarray:
    """Fixed-width histogram of per-creator entropies over [0, ln |G|]."""
    top = math.log(n_genres)
    hist = np.zeros(bins)
    for h in entropies:
        idx = min(int(h / top * bins), bins - 1) if top > 0 else 0
        hist[idx] += 1
    return hist


def alignment_from_distributions(
    sim_genre_hist: np.ndarray,
    ref_genre_hist: np.ndarray,
    sim_entropies: Sequence[float],
    ref_entropies: Sequence[float],
    n_genres: int,
) -> tuple[float, float]:
    if sim_genre_hist.sum() == 0 or ref_genre_hist.sum() == 0:
        raise EmptyItems("both item sets must be non-empty")
    preference_jsd = js_divergence(
        sim_genre_hist / sim_genre_hist.sum(), ref_genre_hist / ref_genre_hist.sum()
    )
    sim_h = entropy_histogram(sim_entropies, n_genres)
    ref_h = entropy_histogram(ref_entropies, n_genres)
    if sim_h.sum() == 0 or ref_h.sum() == 0:
        raise EmptyItems("no creators with items on one side")
    diversity_jsd = js_divergence(sim_h / sim_h.sum(), ref_h / ref_h.sum())
    return preference_jsd, diversity_jsd


def normalized_reward_curve(
    run_rewards: Sequence[float], baseline_rewards: Sequence[float]
) -> list[float]:
    """Per-step ratio of cumulative run reward to cumulative baseline reward.

    Steps before either side has accumulated anything ratio to 1.0; a nonzero
    run against a still-zero baseline is an error.
    """
    if len(run_rewards) != len(baseline_rewards):
        raise ValueError("reward series must have equal length")
    out = []
    cum_run = cum_base = 0.0
    for r, b in zip(run_rewards, baseline_rewards):
        cum_run += r
        cum_base += b
        if cum_base > 0:
            out.append(cum_run / cum_base)
        elif cum_run == 0:
            out.append(1.0)
        else:
            raise ZeroBaseline("run accumulated reward before the baseline did")
    return out


def explore_exploit_table(decisions: Sequence[tuple[float, str]]) -> dict:
    """Bucket decisions into five equal-count reward-percentile quantiles.

    Returns {"buckets": [{label, count, explore, exploit}, ...]} ordered from
    very low to very high reward; empty buckets carry null proportions.
    """
    order = sorted(range(len(decisions)), key=lambda i: (decisions[i][0], i))
    chunks = np.array_split(np.asarray(order, dtype=int), len(BUCKET_LABELS))
    buckets = []
    for label, chunk in zip(BUCKET_LABELS, chunks):
        if len(chunk) == 0:
            buckets.append({"label": label, "count": 0, "explore": None, "exploit": None})
            continue
        kinds = [decisions[i][1] for i in chunk]
        explore = sum(1 for k in kinds if k == "EXPLORE") / len(kinds)
        buckets.append(
            {"label": label, "count": len(chunk), "explore": explore, "exploit": 1.0 - explore}
        )
    return {"buckets": buckets}
