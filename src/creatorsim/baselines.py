"""Published creator-behavior baselines plus a uniform-random policy.

Each baseline keeps a per-creator creation-probability vector over genres (a
simplex point) and picks the next genre from it:

* feedback-gradient: nudge the strategy along normalized click feedback,
* better-response: try a random zero-sum perturbation, keep it only if it
  improves the strategy's expected utility against current audience beliefs,
* like-sampling: sample the genre proportionally to accumulated clicks,
* random: uniform over all genres.

All of them share the default agent's `TemplatePolicy` base: its per-step
`create` over their own `decide`, and its template content.
"""

from __future__ import annotations

import numpy as np

from .core import SimError
from .creator import (
    ActionKind,
    CreatorRuntime,
    ExploreAction,
    TemplatePolicy,
    own_totals,
)


class EmptyGenres(SimError):
    """Choice requested from an empty genre set."""


def project_to_simplex(v: np.ndarray) -> np.ndarray:
    """Clamp negatives to zero and renormalize; uniform if everything clamps.

    When the clamped sum is not finite, the +inf entries share the mass
    equally; without any, the entries are first scaled by the largest.
    """
    w = np.maximum(v, 0.0)
    with np.errstate(over="ignore"):
        total = w.sum()
    if not np.isfinite(total):
        top = np.isposinf(w)
        w = top * 1.0 if top.any() else w / w.max()
        return w / w.sum()
    if total <= 0:
        return np.full(len(v), 1.0 / len(v))
    return w / total


def cfd_step(s: np.ndarray, feedback: np.ndarray, lr: float) -> np.ndarray:
    """Move the strategy along the normalized click-count gradient."""
    feedback = np.asarray(feedback, dtype=float)
    total = feedback.sum()
    if total <= 0 or lr == 0:
        return s.copy()
    with np.errstate(over="ignore"):  # a huge lr steps to +inf
        return project_to_simplex(s + lr * feedback / total)


def lbr_step(
    s: np.ndarray,
    utility_of,
    step_size: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Try one random zero-sum perturbation; keep it only if strictly better."""
    if step_size == 0:
        return s.copy()
    direction = rng.normal(size=len(s))
    direction -= direction.mean()
    with np.errstate(over="ignore"):  # a huge step size steps to +-inf
        candidate = project_to_simplex(s + step_size * direction)
    if utility_of(candidate) > utility_of(s):
        return candidate
    return s.copy()


def simuline_choose(likes: np.ndarray, rng: np.random.Generator) -> int:
    """Sample a genre proportionally to like counts; uniform when all zero."""
    likes = np.asarray(likes, dtype=float)
    if (likes < 0).any():
        raise ValueError("negative like counts")
    total = likes.sum()
    if total <= 0:
        return int(rng.integers(0, len(likes)))
    return int(rng.choice(len(likes), p=likes / total))


def random_choose(genres, rng: np.random.Generator) -> int:
    genres = list(genres)
    if not genres:
        raise EmptyGenres("no genres to choose from")
    return int(genres[rng.integers(0, len(genres))])


# ---------------------------------------------------------------------------
# Policy wrappers


def _per_genre_clicks(state: CreatorRuntime) -> np.ndarray:
    return np.bincount(state.genres, weights=own_totals(state)[0], minlength=state.n_genres)


def _action_for(state: CreatorRuntime, genre: int) -> ExploreAction:
    kind = ActionKind.EXPLOIT if (state.genres == genre).any() else ActionKind.EXPLORE
    return ExploreAction(kind, genre)


class _BaselinePolicy(TemplatePolicy):
    """Shared state handling: one strategy vector per creator, seeded by `register`
    from the creator's seed skill before the first step."""

    def __init__(self, genre_names, memory_k: int):
        super().__init__(genre_names, memory_k)
        self.strategies: dict[int, np.ndarray] = {}

    def register(self, state: CreatorRuntime) -> None:
        self.strategies[state.creator_id] = project_to_simplex(state.beliefs.skill)


class CfdPolicy(_BaselinePolicy):
    name = "cfd"

    def __init__(self, genre_names, lr: float, memory_k: int):
        super().__init__(genre_names, memory_k)
        self.lr = lr
        self._click_snapshots: dict[int, np.ndarray] = {}

    def decide(self, state: CreatorRuntime, n: int, rng: np.random.Generator) -> ExploreAction:
        s = self.strategies[state.creator_id]
        clicks = _per_genre_clicks(state)
        snapshot = self._click_snapshots.get(state.creator_id, np.zeros(state.n_genres))
        delta = clicks - snapshot
        self._click_snapshots[state.creator_id] = clicks
        s = cfd_step(s, delta, self.lr)
        self.strategies[state.creator_id] = s
        genre = int(rng.choice(len(s), p=s))
        return _action_for(state, genre)


class LbrPolicy(_BaselinePolicy):
    name = "lbr"

    def __init__(self, genre_names, step_size: float, memory_k: int):
        super().__init__(genre_names, memory_k)
        self.step_size = step_size

    def decide(self, state: CreatorRuntime, n: int, rng: np.random.Generator) -> ExploreAction:
        s = self.strategies[state.creator_id]
        # an unknown genre is worth nothing yet
        audience = np.where(np.isnan(state.beliefs.audience), 0.0, state.beliefs.audience)
        s = lbr_step(s, lambda strategy: float(strategy @ audience), self.step_size, rng)
        self.strategies[state.creator_id] = s
        genre = int(rng.choice(len(s), p=s))
        return _action_for(state, genre)


class SimulinePolicy(_BaselinePolicy):
    name = "simuline"

    def decide(self, state: CreatorRuntime, n: int, rng: np.random.Generator) -> ExploreAction:
        genre = simuline_choose(_per_genre_clicks(state), rng)
        return _action_for(state, genre)


class RandomPolicy(_BaselinePolicy):
    name = "random"

    def decide(self, state: CreatorRuntime, n: int, rng: np.random.Generator) -> ExploreAction:
        genre = random_choose(range(state.n_genres), rng)
        return _action_for(state, genre)
