"""Creator agents: memories, beliefs, utility, the explore/exploit decision,
content creation, and departure.

A creator only ever sees feedback on its own items. Its memory is the ids of
its own items in creation order; their genres, creation steps and exposure and
click totals are the platform catalog's columns, and the totals are read only
through `own_totals`, one ownership-checked `core.creator_view` per decision:
every utility, the latest item's outcome and reward percentile, and the belief
refresh come from that one read. It distills the memory into two genre-indexed
beliefs: skill (its per-genre creation share) and audience (its per-genre
estimate of receptiveness, the mean utility of its own items in that genre,
NaN for genres never tried). The thinking step is pluggable; the default
rule-based policy explores more after poor rewards and exploits more after
good ones, with the explore probability falling linearly in the reward
percentile of the latest item.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from . import core
from .core import Catalog, ItemRecord, SimError


class NotOwned(SimError):
    """Operation on an item the creator does not own."""


class FutureItem(SimError):
    """Utility queried for a step before the item existed."""


class DeadCreator(SimError):
    """Action requested from a departed creator."""


class ActionKind(Enum):
    EXPLORE = "EXPLORE"
    EXPLOIT = "EXPLOIT"


@dataclass(frozen=True)
class ExploreAction:
    kind: ActionKind
    genre: int


@dataclass(frozen=True)
class CreatedContent:
    title: str
    genre: int
    tags: tuple[str, ...]
    description: str


@dataclass
class Beliefs:
    # both (n_genres,) arrays, replaced on refresh and never written in place
    skill: np.ndarray                      # simplex over genres
    audience: np.ndarray                   # mean utility per genre; NaN = unknown


@dataclass
class CreatorRuntime:
    creator_id: int
    name: str
    identity: str
    motivation: str
    activity: float                        # items per day from the seed profile
    n_genres: int
    beliefs: Beliefs
    departure_threshold: int
    beta: float
    catalog: Catalog = field(default_factory=Catalog)  # the platform's items
    # Own item ids in creation order, which is also id order, so every float
    # reduction over them is reproducible.
    items: np.ndarray = field(default_factory=lambda: np.zeros(0, np.int64))
    consecutive_zero_click: int = 0
    alive: bool = True
    creation_count: int = 0                # simulated creations, for title numbering
    pending_item: int | None = None        # last creation awaiting its outcome
    # the latest item's reward percentile among the own items and its utility,
    # as the read at the deciding step found them (utility None without items)
    reward_pct: float = 0.5
    last_utility: float | None = None

    @property
    def creations(self) -> list[ItemRecord]:
        """The creation memory: records of the creator's own items, oldest first."""
        return [self.catalog[i] for i in self.items.tolist()]

    @property
    def genres(self) -> np.ndarray:
        """Genre of each own item, aligned with `items`."""
        return self.catalog.genre[self.items]

    def add_item(self, item_id: int) -> None:
        if len(self.items) and item_id <= self.items[-1]:
            raise ValueError(f"item {item_id} added after item {self.items[-1]}")
        self.items = np.append(self.items, item_id)

    def last_item(self) -> int | None:
        return int(self.items[-1]) if len(self.items) else None

    def position(self, item_id: int) -> int | None:
        """Index of `item_id` in the memory arrays, or None if not owned."""
        pos = int(self.items.searchsorted(item_id))
        return pos if pos < len(self.items) and self.items[pos] == item_id else None


# ---------------------------------------------------------------------------
# Utility, beliefs and departure


def own_totals(state: CreatorRuntime) -> tuple[np.ndarray, np.ndarray]:
    """Clicks, and the blend beta * exposures + (1 - beta) * clicks, of each own
    item, aligned with `items`: one ownership-checked read of the platform's totals."""
    exposures, clicks = core.creator_view(state.catalog, state.creator_id, state.items)
    return clicks, state.beta * exposures + (1.0 - state.beta) * clicks


def item_utility(state: CreatorRuntime, weighted: np.ndarray, n: int) -> np.ndarray:
    """Utility at step `n` of each own item: its blend from `own_totals`
    averaged over the steps since its creation.

    z = (beta * exposures + (1 - beta) * clicks) / (n - created_step + 1).
    Items are in creation order, so only the latest can postdate `n`.
    """
    created = state.catalog.created_step[state.items]
    if len(created) and n < created[-1]:
        raise FutureItem(f"item {state.items[-1]} created at step {created[-1]}, queried at {n}")
    return weighted / (n - created + 1)


def update_beliefs(state: CreatorRuntime, utilities: np.ndarray) -> None:
    """Refresh skill and audience beliefs from `item_utility` at the step whose
    feedback the totals last took in: n - 1 for a creator deciding at step n."""
    genres = state.genres
    counts = np.bincount(genres, minlength=state.n_genres)
    if len(genres):
        state.beliefs.skill = counts / counts.sum()
    audience = np.full(state.n_genres, np.nan)
    for g in np.flatnonzero(counts):
        audience[g] = np.mean(utilities[genres == g])
    state.beliefs.audience = audience


def register_creation_outcome(state: CreatorRuntime, item_id: int, clicks_in_window: int) -> None:
    """Advance or reset the zero-click streak; departure at the threshold."""
    if not state.alive:
        return
    if state.position(item_id) is None:
        raise NotOwned(f"creator {state.creator_id} does not own item {item_id}")
    if clicks_in_window == 0:
        state.consecutive_zero_click += 1
        if state.consecutive_zero_click >= state.departure_threshold:
            state.alive = False
    else:
        state.consecutive_zero_click = 0


# ---------------------------------------------------------------------------
# The rule-based thinking policy


def reward_percentile(utilities: np.ndarray) -> float:
    """Rank of the latest item's utility among the creator's own `utilities`.

    Midrank convention for ties; 0.5 when there is nothing to compare against.
    """
    if len(utilities) < 2:
        return 0.5
    z_last, others = utilities[-1], utilities[:-1]
    below = int(np.count_nonzero(others < z_last))
    ties = int(np.count_nonzero(others == z_last))
    return (below + 0.5 * ties) / len(others)


def explore_probability(q: float, p_max: float, p_min: float) -> float:
    """Linear map from reward percentile to explore probability."""
    return p_max - (p_max - p_min) * q


def rule_based_decide(
    state: CreatorRuntime,
    rng: np.random.Generator,
    p_max: float,
    p_min: float,
) -> ExploreAction:
    """Default explore/exploit decision.

    Explores with probability falling linearly in `state.reward_pct`, the
    latest reward percentile. Exploit picks the known genre maximizing
    audience * skill (ties to the lowest genre id); explore samples uniformly
    among unknown genres, degrading to the least-created genre once all are known.
    """
    if not state.alive:
        raise DeadCreator(f"creator {state.creator_id} has departed")
    p_explore = explore_probability(state.reward_pct, p_max, p_min)
    audience = state.beliefs.audience
    known = ~np.isnan(audience)
    explore = rng.random() < p_explore or not known.any()

    if not explore:
        value = np.where(known, audience * state.beliefs.skill, -np.inf)
        return ExploreAction(ActionKind.EXPLOIT, int(np.argmax(value)))

    unknown = np.flatnonzero(~known)
    if len(unknown):
        genre = int(unknown[rng.integers(0, len(unknown))])
    else:
        genre = int(np.argmin(np.bincount(state.genres, minlength=state.n_genres)))
    return ExploreAction(ActionKind.EXPLORE, genre)


def retrieve_creation_memory(
    state: CreatorRuntime, action: ExploreAction, k: int, n: int
) -> list[ItemRecord]:
    """Top-k past creations by relevance * recency.

    Relevance is 1 for the action's genre and 0.25 otherwise; recency decays
    as (n - created_step + 1) ** -0.5. Ties prefer the newer item.
    """
    items = state.items.tolist()
    genres = state.genres.tolist()
    created = state.catalog.created_step[state.items].tolist()

    def score(j: int) -> float:
        relevance = 1.0 if genres[j] == action.genre else 0.25
        return relevance * (n - created[j] + 1) ** -0.5

    ordered = sorted(range(len(items)), key=lambda j: (-score(j), -created[j], -items[j]))
    return [state.catalog[items[j]] for j in ordered[:k]]


def template_content(
    state: CreatorRuntime,
    action: ExploreAction,
    genre_names,
    memory_k: int,
    n: int,
) -> CreatedContent:
    """Deterministic template creation for the decided genre.

    Tags reuse the most frequent tags among retrieved same-genre memories,
    falling back to the genre name.
    """
    genre_name = genre_names[action.genre]
    counter = state.creation_count + 1
    title = f"{state.name} — {genre_name} #{counter}"
    retrieved = retrieve_creation_memory(state, action, memory_k, n)
    tag_counts: dict[str, int] = {}
    for rec in retrieved:
        if rec.genre != action.genre:
            continue
        for tag in rec.tags:
            tag_counts[tag] = tag_counts.get(tag, 0) + 1
    if tag_counts:
        ranked = sorted(tag_counts.items(), key=lambda kv: (-kv[1], kv[0]))
        tags = tuple(tag for tag, _ in ranked[:3])
    else:
        tags = (genre_name,)
    description = (
        f"{state.name}, {state.identity} creating for {state.motivation}, "
        f"presents new {genre_name} content."
    )
    return CreatedContent(title=title, genre=action.genre, tags=tags, description=description)


class TemplatePolicy:
    """A policy that decides each creator's action in turn and writes template content.

    `create(states, n, rngs)` is the per-step call of every creator policy: the
    (action, content) of each creating creator, in the order given, each
    drawing on its own rng.
    """

    def __init__(self, genre_names, memory_k: int):
        self.genre_names = tuple(genre_names)
        self.memory_k = memory_k

    def create(self, states, n: int, rngs) -> list[tuple[ExploreAction, CreatedContent]]:
        created = []
        for state, rng in zip(states, rngs):
            action = self.decide(state, n, rng)
            created.append((action, self.make_content(state, action, n)))
        return created

    def make_content(self, state: CreatorRuntime, action: ExploreAction, n: int) -> CreatedContent:
        return template_content(state, action, self.genre_names, self.memory_k, n)


class RuleBasedPolicy(TemplatePolicy):
    """The default creator policy: rule-based thinking plus template content."""

    name = "creagent"

    def __init__(self, genre_names, p_max: float, p_min: float, memory_k: int):
        super().__init__(genre_names, memory_k)
        self.p_max = p_max
        self.p_min = p_min

    def decide(self, state: CreatorRuntime, n: int, rng: np.random.Generator) -> ExploreAction:
        return rule_based_decide(state, rng, self.p_max, self.p_min)
