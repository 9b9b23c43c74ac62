"""Two-stage recommender: timeliness-filtered candidate pool, trainable
rankers (Random, Pop, MF, BPR), and item-by-item session serving.

Rankers follow a fit/score shape: `retrain(clicks, catalog, step)` refits in
place and returns self, where `clicks` holds (user, item, step) rows (an
(n, 3) int array or anything `np.asarray` turns into one);
`score(user, item_ids, catalog)` is a deterministic pure function of the
trained parameters. MF and BPR are warm-started
factorization models trained by mini-batch SGD on clicks, with one sampled
negative per positive; items created after the last retrain are scored with
a cold-start factor (zero vector plus the genre mean of trained factors).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Catalog, InteractionEvent, ItemRecord, SimError, hash_uniform, stream
from .users import UserAction, UserRuntime, react

def _click_table(clicks) -> np.ndarray:
    return np.asarray(clicks, dtype=np.int64).reshape(-1, 3)

SGD_BATCH = 1024


class EmptyInteractions(SimError):
    """MF/BPR retraining requires at least one click."""


@dataclass(frozen=True)
class CandidatePool:
    """Items eligible for recommendation at `step` (age <= window)."""

    item_ids: np.ndarray
    created_steps: np.ndarray
    step: int

    def __len__(self) -> int:
        return len(self.item_ids)


def build_candidate_pool(catalog: Catalog, step: int, window: int) -> CandidatePool:
    age = step - catalog.created_step
    ids = np.flatnonzero((age >= 0) & (age <= window))
    return CandidatePool(item_ids=ids, created_steps=catalog.created_step[ids], step=step)


class RandomRanker:
    """Uniform pseudo-random scores, stable under retraining."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def retrain(self, clicks, catalog: Catalog, step: int) -> "RandomRanker":
        return self

    def score(self, user: int, item_ids: np.ndarray, catalog: Catalog) -> np.ndarray:
        return hash_uniform(self.seed, user, item_ids)


class PopRanker:
    """Most-popular ranking by windowed click counts."""

    name = "pop"

    def __init__(self, window: int):
        self.window = window
        self.counts: dict[int, int] = {}

    def retrain(self, clicks, catalog: Catalog, step: int) -> "PopRanker":
        table = _click_table(clicks)
        recent = (table[:, 2] >= step - self.window + 1) & (table[:, 2] <= step)
        self.counts = np.bincount(table[recent, 1], minlength=len(catalog)).astype(np.float64)
        return self

    def score(self, user: int, item_ids: np.ndarray, catalog: Catalog) -> np.ndarray:
        known = item_ids < len(self.counts)
        scores = np.zeros(len(item_ids))
        scores[known] = self.counts[item_ids[known]]
        return scores


class _FactorRanker:
    """Shared machinery of the MF and BPR rankers."""

    name = "factor"

    def __init__(self, n_users: int, dim: int, lr: float, epochs: int, l2: float, seed: int):
        self.dim = dim
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        init = stream(seed, "ranker_init", self.name)
        self.P = init.normal(0.0, 0.1, size=(n_users, dim))
        self.bu = np.zeros(n_users)
        self.Q = np.zeros((0, dim))
        self.bi = np.zeros(0)
        self.n_items = 0
        self.cold_vec = np.zeros((0, dim))
        self.cold_bias = np.zeros(0)

    def _grow(self, catalog: Catalog) -> None:
        n = len(catalog)
        if n <= self.n_items:
            return
        genres = catalog.genre
        n_genres = int(genres.max()) + 1
        grown_q = np.zeros((n, self.dim))
        grown_b = np.zeros(n)
        grown_q[: self.n_items] = self.Q
        grown_b[: self.n_items] = self.bi
        if self.n_items > 0:
            for g in range(n_genres):
                old = np.where(genres[: self.n_items] == g)[0]
                if len(old) == 0:
                    continue
                mean_v = self.Q[old].mean(axis=0)
                mean_b = self.bi[old].mean()
                fresh = np.where(genres[self.n_items:] == g)[0] + self.n_items
                grown_q[fresh] = mean_v
                grown_b[fresh] = mean_b
        self.Q, self.bi, self.n_items = grown_q, grown_b, n

    def _refresh_cold(self, catalog: Catalog, n_genres: int) -> None:
        genres = catalog.genre[: self.n_items]
        self.cold_vec = np.zeros((n_genres, self.dim))
        self.cold_bias = np.zeros(n_genres)
        for g in range(n_genres):
            rows = np.where(genres == g)[0]
            if len(rows):
                self.cold_vec[g] = self.Q[rows].mean(axis=0)
                self.cold_bias[g] = self.bi[rows].mean()

    def retrain(self, clicks, catalog: Catalog, step: int) -> "_FactorRanker":
        table = _click_table(clicks)
        if not len(table):
            raise EmptyInteractions(f"{self.name} retraining needs at least one click")
        self._grow(catalog)
        users, items = table[:, 0], table[:, 1]
        rng = stream(self.seed, "retrain", self.name, step)
        for _ in range(self.epochs):
            negatives = rng.integers(0, self.n_items, size=len(items))
            collide = negatives == items
            if collide.any():
                negatives[collide] = (negatives[collide] + 1) % self.n_items
            self._epoch(users, items, negatives, rng)
        self._refresh_cold(catalog, int(catalog.genre.max(initial=-1)) + 1)
        return self

    def _epoch(self, users, items, negatives, rng) -> None:
        raise NotImplementedError

    def score(self, user: int, item_ids: np.ndarray, catalog: Catalog) -> np.ndarray:
        if len(item_ids) == 0:
            return np.zeros(0)
        vecs = np.zeros((len(item_ids), self.dim))
        bias = np.zeros(len(item_ids))
        known = item_ids < self.n_items
        vecs[known] = self.Q[item_ids[known]]
        bias[known] = self.bi[item_ids[known]]
        cold = ~known
        if cold.any() and len(self.cold_vec):
            genres = catalog.genre[item_ids[cold]]
            in_table = genres < len(self.cold_vec)
            rows = np.where(cold)[0][in_table]
            vecs[rows] = self.cold_vec[genres[in_table]]
            bias[rows] = self.cold_bias[genres[in_table]]
        return self.bu[user] + bias + vecs @ self.P[user]


class MfRanker(_FactorRanker):
    """Pointwise logistic matrix factorization over implicit clicks."""

    name = "mf"

    def _epoch(self, users, items, negatives, rng) -> None:
        u_all = np.concatenate([users, users])
        i_all = np.concatenate([items, negatives])
        y = np.concatenate([np.ones(len(items)), np.zeros(len(items))])
        order = rng.permutation(len(u_all))
        for lo in range(0, len(order), SGD_BATCH):
            sel = order[lo : lo + SGD_BATCH]
            u, i, yy = u_all[sel], i_all[sel], y[sel]
            pu, qi = self.P[u], self.Q[i]
            logits = self.bu[u] + self.bi[i] + (pu * qi).sum(axis=1)
            g = 1.0 / (1.0 + np.exp(-logits)) - yy
            np.add.at(self.P, u, -self.lr * (g[:, None] * qi + self.l2 * pu))
            np.add.at(self.Q, i, -self.lr * (g[:, None] * pu + self.l2 * qi))
            np.add.at(self.bu, u, -self.lr * (g + self.l2 * self.bu[u]))
            np.add.at(self.bi, i, -self.lr * (g + self.l2 * self.bi[i]))


class BprRanker(_FactorRanker):
    """Pairwise ranking factorization: positives above sampled negatives."""

    name = "bpr"

    def _epoch(self, users, items, negatives, rng) -> None:
        order = rng.permutation(len(users))
        for lo in range(0, len(order), SGD_BATCH):
            sel = order[lo : lo + SGD_BATCH]
            u, i, j = users[sel], items[sel], negatives[sel]
            pu, qi, qj = self.P[u], self.Q[i], self.Q[j]
            x = self.bi[i] - self.bi[j] + (pu * (qi - qj)).sum(axis=1)
            g = -1.0 / (1.0 + np.exp(x))  # d(-ln sigma(x))/dx
            np.add.at(self.P, u, -self.lr * (g[:, None] * (qi - qj) + self.l2 * pu))
            np.add.at(self.Q, i, -self.lr * (g[:, None] * pu + self.l2 * qi))
            np.add.at(self.Q, j, -self.lr * (-g[:, None] * pu + self.l2 * qj))
            np.add.at(self.bi, i, -self.lr * (g + self.l2 * self.bi[i]))
            np.add.at(self.bi, j, -self.lr * (-g + self.l2 * self.bi[j]))

    def pairwise_loss(self, triples: list[tuple[int, int, int]]) -> float:
        """Mean -ln sigma(score(u,i) - score(u,j)) over (u, i, j) triples."""
        u = np.asarray([t[0] for t in triples])
        i = np.asarray([t[1] for t in triples])
        j = np.asarray([t[2] for t in triples])
        x = self.bi[i] - self.bi[j] + (self.P[u] * (self.Q[i] - self.Q[j])).sum(axis=1)
        return float(np.mean(np.log1p(np.exp(-x))))


def make_ranker(name: str, n_users: int, seed: int, *, dim=32, lr=0.05, epochs=5,
                l2=1e-4, pop_window=20):
    if name == "random":
        return RandomRanker(seed)
    if name == "pop":
        return PopRanker(pop_window)
    if name == "mf":
        return MfRanker(n_users, dim, lr, epochs, l2, seed)
    if name == "bpr":
        return BprRanker(n_users, dim, lr, epochs, l2, seed)
    raise ValueError(f"unknown ranker {name!r}")


def rank_scored(
    ranker, user: int, pool: CandidatePool, k: int, catalog: Catalog
) -> list[tuple[int, float]]:
    """Top-k (item, score) pairs; ties go to the newer item, then lower id."""
    if len(pool) == 0:
        return []
    scores = ranker.score(user, pool.item_ids, catalog)
    order = np.lexsort((pool.item_ids, -pool.created_steps, -scores))
    top = order[:k]
    return [(int(pool.item_ids[i]), float(scores[i])) for i in top]


def serve_session(
    items: list[ItemRecord],
    user: UserRuntime,
    rng: np.random.Generator,
    step: int,
    *,
    alpha_click: float = 0.8,
    exit_base: float = 0.05,
    exit_per_skip: float = 0.15,
) -> list[InteractionEvent]:
    """Serve a ranked list item by item; exposure stops at EXIT.

    Every served item yields one exposure event; a click sets the event's
    clicked flag. Items after an exit produce no events.
    """
    events = []
    for rec in items:
        action = react(user, rec, rng, alpha_click, exit_base, exit_per_skip)
        events.append(
            InteractionEvent(step, user.user_id, rec.item_id, True, action is UserAction.CLICK)
        )
        if action is UserAction.EXIT:
            break
    return events
