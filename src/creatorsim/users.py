"""Parametric users and their feed sessions.

A user is a row of the world's arrays: a genre preference, fixed for the run,
a visit probability per step, and decayed per-genre exposure counts that
implement satiation, so hammering one genre suppresses its click rate and
filter-bubble dynamics can emerge. Everything else a user does lasts one
session: `serve_session` serves a ranked list item by item, and the user
clicks, skips, or exits.
"""

from __future__ import annotations

import numpy as np

NOVELTY_WEIGHT = 0.2  # marginal satiation per recent same-genre exposure


def click_probability(preference, satiation, genre: int, alpha_click: float) -> float:
    """Click probability for an item of `genre`, including satiation.

    p = clamp(alpha_click * pref(genre) * |G| / (1 + w * recent_exposures), 0, 1)
    where recent_exposures is the decayed same-genre exposure count.
    """
    novelty = 1.0 / (1.0 + NOVELTY_WEIGHT * satiation[genre])
    p = alpha_click * float(preference[genre]) * len(preference) * novelty
    return min(max(p, 0.0), 1.0)


def serve_session(
    genres: np.ndarray,
    preference_row: np.ndarray,
    satiation_row: np.ndarray,
    uniforms: np.ndarray,
    *,
    alpha_click: float,
    exit_base: float,
    exit_per_skip: float,
) -> list[bool]:
    """Serve a ranked list, given as its items' genres, item by item; exposure stops at EXIT.

    Each item's click probability uses the satiation from before the item,
    which then counts it; `satiation_row` is updated in place. The user's
    next uniform decides the click; on a miss, the one after decides the exit,
    whose hazard exit_base + exit_per_skip * skips grows with the current skip
    streak. A session so reads one of `uniforms` per click and two per miss,
    two per item at most. Returns one click flag per exposure, so the items
    shown are the list's first `len(result)`.
    """
    preference, satiation = preference_row.tolist(), satiation_row.tolist()
    draws = iter(uniforms.tolist())
    clicked: list[bool] = []
    skips = 0
    for genre in genres.tolist():
        p_click = click_probability(preference, satiation, genre, alpha_click)
        satiation[genre] += 1.0
        click = next(draws) < p_click
        clicked.append(click)
        if click:
            skips = 0
        elif next(draws) < exit_base + exit_per_skip * skips:
            break
        else:
            skips += 1
    satiation_row[:] = satiation
    return clicked
