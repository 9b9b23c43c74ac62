"""Parametric user agents.

Users visit probabilistically and respond to an item-by-item feed with
click, skip, or exit. Long-term genre preferences stay fixed within a run;
a decayed per-genre exposure count implements satiation, so hammering one
genre suppresses its click rate and filter-bubble dynamics can emerge.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .core import SimError

NOVELTY_WEIGHT = 0.2  # marginal satiation per recent same-genre exposure


class SessionClosed(SimError):
    """react() called after the user exited the session."""


class UserAction(Enum):
    CLICK = "click"
    SKIP = "skip"
    EXIT = "exit"


@dataclass
class UserRuntime:
    user_id: int
    preference: np.ndarray          # simplex over genres, fixed for the run
    activity: float                 # visit probability per step
    consecutive_skips: int = 0
    items_seen: int = 0
    exited: bool = False
    recent_exposure: np.ndarray = field(default=None)

    def __post_init__(self):
        if self.recent_exposure is None:
            self.recent_exposure = np.zeros(len(self.preference))


def is_active(user: UserRuntime, rng: np.random.Generator) -> bool:
    """Whether the user visits the platform this step."""
    return bool(rng.random() < user.activity)


def click_probability(user: UserRuntime, genre: int, alpha_click: float = 0.8) -> float:
    """Click probability for an item of `genre`, including satiation.

    p = clamp(alpha_click * pref(genre) * |G| / (1 + w * recent_exposures), 0, 1)
    where recent_exposures is the decayed same-genre exposure count.
    """
    n_genres = len(user.preference)
    novelty = 1.0 / (1.0 + NOVELTY_WEIGHT * user.recent_exposure[genre])
    p = alpha_click * float(user.preference[genre]) * n_genres * novelty
    return min(max(p, 0.0), 1.0)


def react(
    user: UserRuntime,
    genre: int,
    rng: np.random.Generator,
    alpha_click: float = 0.8,
    exit_base: float = 0.05,
    exit_per_skip: float = 0.15,
) -> UserAction:
    """Respond to one recommended item, of `genre`: click, skip, or exit.

    The exit hazard grows with the skip streak: eps = exit_base +
    exit_per_skip * consecutive_skips, evaluated before this item's outcome.
    """
    if user.exited:
        raise SessionClosed(f"user {user.user_id} already exited this step")
    p_click = click_probability(user, genre, alpha_click)
    user.recent_exposure[genre] += 1.0
    user.items_seen += 1
    if rng.random() < p_click:
        user.consecutive_skips = 0
        return UserAction.CLICK
    eps = exit_base + exit_per_skip * user.consecutive_skips
    if rng.random() < eps:
        user.exited = True
        return UserAction.EXIT
    user.consecutive_skips += 1
    return UserAction.SKIP


def end_step(
    visitors: list[UserRuntime], recent_exposure: np.ndarray, novelty_decay: float = 0.8
) -> None:
    """Reset the visitors' session state and decay every user's satiation counters.

    `recent_exposure` holds the counters of every user, such as the
    (n_users, n_genres) table whose rows are the users' `recent_exposure`
    views; it is decayed in place. Only a visitor's session state can have
    changed since the last reset, so only the visitors' is reset.
    """
    for user in visitors:
        user.consecutive_skips = 0
        user.items_seen = 0
        user.exited = False
    recent_exposure *= novelty_decay
