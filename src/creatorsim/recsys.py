"""Two-stage recommender: timeliness-filtered candidate pool and trainable
rankers (Random, Pop, MF, BPR).

Rankers follow a fit/score shape: `retrain(clicks, catalog, step)` refits in
place and returns self, where `clicks` holds (user, item, step) rows (an
(n, 3) int array or anything `np.asarray` turns into one);
`scorer(item_ids, catalog)` does a pool's per-item work once (gathering factor
rows, or Pop's counts) and returns `user -> scores`, a deterministic pure
function of the trained parameters. A step's visitors are ranked from one
`PoolView`: the scorer plus the pool's tie order (newer item first, then lower
id), both built once per step. `rank_scored` takes each visitor's exact top-k
from it with a partition, so only the scores tied with or above the k-th are
sorted, and returns the items and their scores as aligned arrays.

MF and BPR are warm-started factorization models trained by mini-batch SGD on
clicks, with one sampled negative per positive; items created after the last
retrain are scored with a cold-start factor (zero vector plus the genre mean of
trained factors).

Each bias is stored as one extra column of its factor table, `PB = [P | bu]`
and `QB = [Q | bi]`, so one SGD batch updates a table with one scatter-add
(`_scatter_add`; BPR scatters its positive and negative items separately).
Within a batch every parameter receives its updates in batch order, and every
gradient reads the parameters as they were before the batch, except BPR's
negative-item bias decay, which reads the bias after the positives' update.
The result is bit-identical to one 2-D `np.add.at` per P, Q, bu and bi, the
reference that `tests/test_recsys.py` keeps.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass

import numpy as np

from .core import Catalog, SimError, hash_uniform, stream


def _click_table(clicks) -> np.ndarray:
    return np.asarray(clicks, dtype=np.int64).reshape(-1, 3)

SGD_BATCH = 1024


class EmptyInteractions(SimError):
    """MF/BPR retraining requires at least one click."""


class Diverged(SimError):
    """Training grew the factors until a score may overflow: `mf.lr` or `mf.l2` is too large."""


@dataclass(frozen=True)
class CandidatePool:
    """Items eligible for recommendation at a step (age <= window)."""

    item_ids: np.ndarray
    created_steps: np.ndarray

    def __len__(self) -> int:
        return len(self.item_ids)


def build_candidate_pool(catalog: Catalog, step: int, window: int) -> CandidatePool:
    age = step - catalog.created_step
    ids = np.flatnonzero((age >= 0) & (age <= window))
    return CandidatePool(item_ids=ids, created_steps=catalog.created_step[ids])


class RandomRanker:
    """Uniform pseudo-random scores, stable under retraining."""

    name = "random"

    def __init__(self, seed: int):
        self.seed = seed

    def retrain(self, clicks, catalog: Catalog, step: int) -> "RandomRanker":
        return self

    def scorer(self, item_ids: np.ndarray, catalog: Catalog) -> Callable[[int], np.ndarray]:
        return lambda user: hash_uniform(self.seed, user, item_ids)


class PopRanker:
    """Most-popular ranking by windowed click counts."""

    name = "pop"

    def __init__(self, window: int):
        self.window = window
        self.counts = np.zeros(0)  # clicks per item id; none before the first retrain

    def retrain(self, clicks, catalog: Catalog, step: int) -> "PopRanker":
        table = _click_table(clicks)
        recent = (table[:, 2] >= step - self.window + 1) & (table[:, 2] <= step)
        self.counts = np.bincount(table[recent, 1], minlength=len(catalog)).astype(np.float64)
        return self

    def scorer(self, item_ids: np.ndarray, catalog: Catalog) -> Callable[[int], np.ndarray]:
        known = item_ids < len(self.counts)
        scores = np.zeros(len(item_ids))
        scores[known] = self.counts[item_ids[known]]
        return lambda user: scores  # the same for every user


def _scatter_add(table: np.ndarray, rows: np.ndarray, values: np.ndarray) -> None:
    """`np.add.at(table, rows, values)` for a C-contiguous 2-D `table`.

    Scatters through the flat indices `rows[k] * width + c`, which numpy runs
    in its fast 1-D indexed loop. Each element still receives its updates in
    batch order, so the result is bit-identical to the 2-D `np.add.at`.
    """
    if not table.flags.c_contiguous:
        # reshape(-1) would return a copy and the updates would be lost
        raise ValueError("_scatter_add needs a C-contiguous table")
    width = table.shape[1]
    flat = rows[:, None] * width + np.arange(width)
    np.add.at(table.reshape(-1), flat.reshape(-1), values.reshape(-1))


class _FactorRanker:
    """Shared machinery of the MF and BPR rankers.

    `PB` is (n_users, dim+1) and `QB` is (n_items, dim+1); `P`, `bu`, `Q` and
    `bi` are read-only views of their columns.
    """

    name = "factor"

    def __init__(self, n_users: int, dim: int, lr: float, epochs: int, l2: float, seed: int):
        self.dim = dim
        self.lr = lr
        self.epochs = epochs
        self.l2 = l2
        self.seed = seed
        init = stream(seed, "ranker_init", self.name)
        self.PB = np.zeros((n_users, dim + 1))
        self.PB[:, :dim] = init.normal(0.0, 0.1, size=(n_users, dim))
        self.QB = np.zeros((0, dim + 1))
        self.n_items = 0
        self.cold_vec = np.zeros((0, dim))
        self.cold_bias = np.zeros(0)

    @staticmethod
    def _read_only(view: np.ndarray) -> np.ndarray:
        view.flags.writeable = False
        return view

    @property
    def P(self) -> np.ndarray:
        return self._read_only(self.PB[:, : self.dim])

    @property
    def bu(self) -> np.ndarray:
        return self._read_only(self.PB[:, self.dim])

    @property
    def Q(self) -> np.ndarray:
        return self._read_only(self.QB[:, : self.dim])

    @property
    def bi(self) -> np.ndarray:
        return self._read_only(self.QB[:, self.dim])

    def _grow(self, catalog: Catalog) -> None:
        """Add a row per item created since the last retrain, from its genre's cold factor.

        The cold table is `_refresh_cold`'s from the end of that retrain, which
        left `Q` and `bi` as they are now.
        """
        n = len(catalog)
        if n <= self.n_items:
            return
        grown = np.zeros((n, self.dim + 1))
        grown[: self.n_items] = self.QB
        genres = catalog.genre[self.n_items :]
        in_table = genres < len(self.cold_vec)
        rows = np.flatnonzero(in_table) + self.n_items
        grown[rows, : self.dim] = self.cold_vec[genres[in_table]]
        grown[rows, self.dim] = self.cold_bias[genres[in_table]]
        self.QB, self.n_items = grown, n

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
            with np.errstate(over="ignore", invalid="ignore"):  # checked below
                self._epoch(users, items, negatives, rng)
            p, q = (float(np.abs(t).max(initial=0.0)) for t in (self.PB, self.QB))
            if not np.isfinite(p + q + self.dim * p * q):  # bounds every score's magnitude
                raise Diverged(f"{self.name} factors diverged in an epoch at step {step}")
        self._refresh_cold(catalog, int(catalog.genre.max(initial=-1)) + 1)
        return self

    def _epoch(self, users, items, negatives, rng) -> None:
        raise NotImplementedError

    def scorer(self, item_ids: np.ndarray, catalog: Catalog) -> Callable[[int], np.ndarray]:
        """The items' factor rows, cold ones from their genre's mean, gathered once.

        Every user's scores are one gemv over the same `vecs`, in `item_ids`
        order, so a score does not depend on which users share the scorer.
        """
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
        P, bu = self.P, self.bu
        return lambda user: bu[user] + bias + vecs @ P[user]


class MfRanker(_FactorRanker):
    """Pointwise logistic matrix factorization over implicit clicks."""

    name = "mf"

    def _epoch(self, users, items, negatives, rng) -> None:
        d = self.dim
        u_all = np.concatenate([users, users])
        i_all = np.concatenate([items, negatives])
        y = np.concatenate([np.ones(len(items)), np.zeros(len(items))])
        order = rng.permutation(len(u_all))
        for lo in range(0, len(order), SGD_BATCH):
            sel = order[lo : lo + SGD_BATCH]
            u, i, yy = u_all[sel], i_all[sel], y[sel]
            pu, qi = self.PB[u], self.QB[i]
            logits = pu[:, d] + qi[:, d] + (pu[:, :d] * qi[:, :d]).sum(axis=1)
            with np.errstate(over="ignore"):  # exp overflows to inf, and g is then -yy
                g = 1.0 / (1.0 + np.exp(-logits)) - yy
            # the bias column's input is 1, and g * 1.0 == g exactly
            grad_u, grad_i = g[:, None] * qi, g[:, None] * pu
            grad_u[:, d] = grad_i[:, d] = g
            _scatter_add(self.PB, u, -self.lr * (grad_u + self.l2 * pu))
            _scatter_add(self.QB, i, -self.lr * (grad_i + self.l2 * qi))


class BprRanker(_FactorRanker):
    """Pairwise ranking factorization: positives above sampled negatives."""

    name = "bpr"

    def _epoch(self, users, items, negatives, rng) -> None:
        d = self.dim
        order = rng.permutation(len(users))
        for lo in range(0, len(order), SGD_BATCH):
            sel = order[lo : lo + SGD_BATCH]
            u, i, j = users[sel], items[sel], negatives[sel]
            pu, qi, qj = self.PB[u], self.QB[i], self.QB[j]
            diff = qi - qj
            x = diff[:, d] + (pu[:, :d] * diff[:, :d]).sum(axis=1)
            with np.errstate(over="ignore"):  # exp overflows to inf, and g is then -0.0
                g = -1.0 / (1.0 + np.exp(x))  # d(-ln sigma(x))/dx
            grad_u, grad_i = g[:, None] * diff, g[:, None] * pu
            grad_u[:, d] = 0.0  # BPR has no user bias
            grad_i[:, d] = g
            _scatter_add(self.PB, u, -self.lr * (grad_u + self.l2 * pu))
            _scatter_add(self.QB, i, -self.lr * (grad_i + self.l2 * qi))
            # the negatives' bias decay reads the bias after the positives' update
            qj[:, d] = self.QB[j, d]
            _scatter_add(self.QB, j, -self.lr * (-grad_i + self.l2 * qj))


def make_ranker(name: str, n_users: int, seed: int, *, dim, lr, epochs, l2, pop_window):
    if name == "random":
        return RandomRanker(seed)
    if name == "pop":
        return PopRanker(pop_window)
    if name == "mf":
        return MfRanker(n_users, dim, lr, epochs, l2, seed)
    if name == "bpr":
        return BprRanker(n_users, dim, lr, epochs, l2, seed)
    raise ValueError(f"unknown ranker {name!r}")


@dataclass(frozen=True)
class PoolView:
    """A step's pool as every visitor's ranking reads it, built once per step."""

    score: Callable[[int], np.ndarray]  # user -> scores in pool order
    tie_order: np.ndarray  # pool positions, newer item first, then lower id
    tie_ids: np.ndarray  # the pool's item ids in tie order


def pool_view(ranker, pool: CandidatePool, catalog: Catalog) -> PoolView:
    tie_order = np.lexsort((pool.item_ids, -pool.created_steps))
    return PoolView(ranker.scorer(pool.item_ids, catalog), tie_order, pool.item_ids[tie_order])


def rank_scored(view: PoolView, user: int, k: int) -> tuple[np.ndarray, np.ndarray]:
    """The top-k items and their scores; ties go to the newer item, then lower id.

    The order is `np.lexsort((item_ids, -created_steps, -scores))[:k]`. With
    the scores in tie order, a stable sort of `-scores` gives it; only the
    scores at or above the k-th largest are sorted. NaN scores sort last, as
    in `np.lexsort`, so a NaN k-th score keeps them all.
    """
    scores = view.score(user)[view.tie_order]
    neg = -scores
    top = np.arange(len(neg))
    if 0 < k < len(neg):
        kth = np.partition(neg, k - 1)[k - 1]
        if kth == kth:  # not NaN
            top = np.flatnonzero(neg <= kth)
    top = top[np.argsort(neg[top], kind="stable")[:k]]
    return view.tie_ids[top], scores[top]
