"""Dataset loading and seed profiles.

Reads a four-file record dataset (users, creators, items, interactions) or
generates a synthetic one with the same shape: long-tailed creator activity,
skewed genre popularity, and per-creator genre concentration. The seed
profiles (creator activity, skill and audience beliefs; user preferences and
activity) are reductions over the columns of a dataset the run has already
re-indexed: dense user and creator indices, one row per kept item and per
kept interaction.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# SynthParams and InvalidParams live beside the run config they share settings with
from .core import DEFAULT_GENRES, DataError, InvalidParams, SynthParams  # noqa: F401

PREF_SMOOTHING = 0.1  # add-alpha smoothing for user genre histograms


class SchemaError(DataError):
    """Record file is missing a column, holds an out-of-vocabulary value or repeats an id."""


class DanglingRef(DataError):
    """A row references an id that does not resolve."""


class EmptyDataset(DataError):
    """One of the required record files has no data rows."""


@dataclass(frozen=True)
class UserRow:
    user_id: int
    name: str


@dataclass(frozen=True)
class CreatorRow:
    creator_id: int
    name: str
    followers: int


@dataclass(frozen=True)
class ItemRow:
    item_id: int
    creator_id: int
    genre: int
    title: str
    tags: tuple[str, ...]
    description: str
    created_day: int


@dataclass(frozen=True)
class InteractionRow:
    user_id: int
    item_id: int
    day: int


@dataclass
class Dataset:
    users: list[UserRow]
    creators: list[CreatorRow]
    items: list[ItemRow]
    interactions: list[InteractionRow]
    genres: tuple[str, ...] = DEFAULT_GENRES

    @property
    def n_genres(self) -> int:
        return len(self.genres)

    def to_dir(self, path: str | Path) -> None:
        path = Path(path)
        path.mkdir(parents=True, exist_ok=True)
        with open(path / "users.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["user_id", "name"])
            for u in self.users:
                w.writerow([u.user_id, u.name])
        with open(path / "creators.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["creator_id", "name", "followers"])
            for c in self.creators:
                w.writerow([c.creator_id, c.name, c.followers])
        with open(path / "items.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["item_id", "creator_id", "genre", "title", "tags", "description", "created_day"])
            for it in self.items:
                w.writerow(
                    [it.item_id, it.creator_id, self.genres[it.genre], it.title,
                     "|".join(it.tags), it.description, it.created_day]
                )
        with open(path / "interactions.csv", "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["user_id", "item_id", "day"])
            for r in self.interactions:
                w.writerow([r.user_id, r.item_id, r.day])


def _read_rows(path: Path, required: list[str]) -> list[dict[str, str]]:
    if not path.exists():
        raise SchemaError(f"missing record file {path}")
    with open(path, "r", encoding="utf-8", newline="") as f:
        reader = csv.DictReader(f)
        header = reader.fieldnames or []
        for col in required:
            if col not in header:
                raise SchemaError(f"{path.name}: missing column {col!r}")
        return list(reader)


def _unique_ids(ids, what: str) -> set[int]:
    """The set of `ids`; an id on two rows is a SchemaError naming `what`."""
    seen: set[int] = set()
    for i in ids:
        if i in seen:
            raise SchemaError(f"{what} {i} is on more than one row")
        seen.add(i)
    return seen


def load_dataset(path: str | Path, genres: tuple[str, ...] = DEFAULT_GENRES) -> Dataset:
    """Load and cross-validate the four record files under `path`; each id is on one row."""
    path = Path(path)
    genre_index = {g: i for i, g in enumerate(genres)}

    try:
        user_rows = _read_rows(path / "users.csv", ["user_id", "name"])
        creator_rows = _read_rows(path / "creators.csv", ["creator_id", "name", "followers"])
        item_rows = _read_rows(
            path / "items.csv",
            ["item_id", "creator_id", "genre", "title", "tags", "description", "created_day"],
        )
        inter_rows = _read_rows(path / "interactions.csv", ["user_id", "item_id", "day"])
        users = [UserRow(int(r["user_id"]), r["name"]) for r in user_rows]
        creators = [CreatorRow(int(r["creator_id"]), r["name"], int(r["followers"])) for r in creator_rows]
    except ValueError as e:
        raise SchemaError(f"non-numeric id field: {e}") from e

    if not users or not creators or not item_rows:
        raise EmptyDataset(f"dataset at {path} has an empty record file")

    creator_ids = _unique_ids((c.creator_id for c in creators), "creators.csv: creator_id")
    items: list[ItemRow] = []
    for r in item_rows:
        genre_name = r["genre"]
        if genre_name not in genre_index:
            raise SchemaError(f"items.csv: genre {genre_name!r} outside the vocabulary")
        try:
            item = ItemRow(
                item_id=int(r["item_id"]),
                creator_id=int(r["creator_id"]),
                genre=genre_index[genre_name],
                title=r["title"],
                tags=tuple(t for t in r["tags"].split("|") if t),
                description=r["description"],
                created_day=int(r["created_day"]),
            )
        except ValueError as e:
            raise SchemaError(f"items.csv: {e}") from e
        if item.creator_id not in creator_ids:
            raise DanglingRef(f"item {item.item_id} references unknown creator {item.creator_id}")
        items.append(item)

    user_ids = _unique_ids((u.user_id for u in users), "users.csv: user_id")
    item_ids = _unique_ids((it.item_id for it in items), "items.csv: item_id")
    # the world re-indexes user and item ids as int64 columns
    if not all(-(2**63) <= i < 2**63 for i in user_ids | item_ids):
        raise SchemaError("a user_id or item_id does not fit in 64 bits")
    interactions: list[InteractionRow] = []
    for r in inter_rows:
        try:
            row = InteractionRow(int(r["user_id"]), int(r["item_id"]), int(r["day"]))
        except ValueError as e:
            raise SchemaError(f"interactions.csv: {e}") from e
        if row.user_id not in user_ids:
            raise DanglingRef(f"interaction references unknown user {row.user_id}")
        if row.item_id not in item_ids:
            raise DanglingRef(f"interaction references unknown item {row.item_id}")
        interactions.append(row)

    return Dataset(users=users, creators=creators, items=items, interactions=interactions, genres=genres)


# ---------------------------------------------------------------------------
# Seed profiles
#
# Both take aligned columns of a re-indexed dataset (owners already dense
# indices) and reduce them with bincount. Each mean is an integer sum over an
# integer count, which is bit for bit the `np.mean` of the same integers.


def _rates(owner: np.ndarray, day: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Rows per day over each owner's span of days (0 without rows), and which owners have rows."""
    count = np.bincount(owner, minlength=n)
    first = np.full(n, np.iinfo(np.int64).max)
    last = np.full(n, np.iinfo(np.int64).min)
    np.minimum.at(first, owner, day)
    np.maximum.at(last, owner, day)
    has = count > 0
    rate = np.zeros(n)
    rate[has] = count[has] / (last[has] - first[has] + 1)
    return rate, has


def init_creator_seeds(
    creator: np.ndarray, genre: np.ndarray, day: np.ndarray, interactions: np.ndarray,
    n_creators: int, n_genres: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-creator activity, skill rows and audience rows from aligned item columns.

    Each seed item gives its creator index, genre, creation day and
    interaction count. Activity is items per day over the creator's span of
    creation days; skill is the per-genre share of its items; audience is,
    for each genre it created in, the mean interaction count of those items,
    and NaN (unknown) for genres never created. Creators without items fall
    back to the median activity of the others (1.0 if none has items), a
    uniform skill and an all-unknown audience.
    """
    activity, has = _rates(creator, day, n_creators)
    activity[~has] = float(np.median(activity[has])) if has.any() else 1.0
    cell = creator * n_genres + genre
    size = n_creators * n_genres
    made = np.bincount(cell, minlength=size).reshape(n_creators, n_genres)
    total = np.bincount(cell, weights=interactions, minlength=size).reshape(n_creators, n_genres)
    skill = np.full((n_creators, n_genres), 1.0 / n_genres)
    skill[has] = made[has] / made[has].sum(axis=1, keepdims=True)
    audience = np.divide(total, made, out=np.full(size, np.nan).reshape(made.shape), where=made > 0)
    return activity, skill, audience


def init_user_seeds(
    user: np.ndarray, genre: np.ndarray, day: np.ndarray, n_users: int, n_genres: int
) -> tuple[np.ndarray, np.ndarray]:
    """Per-user preference rows and activity from aligned interaction columns.

    Each seed interaction gives its user index, the item's genre and its
    day. Preference is the add-alpha smoothed genre histogram of the user's
    interactions; activity is interactions per day over the user's span of
    days, divided by the largest such rate. Users without interactions get a
    uniform preference and the median rate of the others (0.5 if none has
    interactions).
    """
    rate, has = _rates(user, day, n_users)
    hist = np.bincount(user * n_genres + genre, minlength=n_users * n_genres).reshape(n_users, n_genres)
    preference = np.full((n_users, n_genres), 1.0 / n_genres)
    preference[has] = (hist[has] + PREF_SMOOTHING) / (
        hist[has].sum(axis=1, keepdims=True) + PREF_SMOOTHING * n_genres
    )
    if not has.any():
        return preference, np.full(n_users, 0.5)
    rate[~has] = np.median(rate[has])
    return preference, rate / rate.max()


# ---------------------------------------------------------------------------
# Synthetic datasets


_WORD = 1 << 32


def _draw_pairs(rng: np.random.Generator, first_span, base, second_span) -> tuple[list, list]:
    """Decode the scalar draws `a[k] = rng.integers(first_span[k])`, then
    `b[k] = rng.integers(second_span[base[k] + a[k]])`, for k = 0, 1, ...;
    returns the slots `base + a` and `b` as lists.

    Spans are Python ints in [1, 2**32 - 1] (a numpy uint64 would wrap the
    64-bit products). The values, and the generator's state afterwards, are
    those of the scalar calls: the words come from one block of `next_uint32`
    output (extended if rejections use it up), each draw is decoded from them
    by numpy's rule, and the generator is then rewound and advances by exactly
    the words used.
    """
    start = rng.bit_generator.state
    words = rng.integers(0, _WORD, size=2 * len(first_span), dtype=np.uint64).tolist()
    used = 0

    def draw(span):
        nonlocal used
        if span == 1:
            return 0
        threshold = (_WORD - span) % span
        while True:
            if used == len(words):
                words.extend(rng.integers(0, _WORD, size=len(words) + 1, dtype=np.uint64).tolist())
            m = words[used] * span
            used += 1
            if m & (_WORD - 1) >= threshold:
                return m >> 32

    slots, b = [], []
    for span, k in zip(first_span, base):
        slots.append(k + draw(span))
        b.append(draw(second_span[slots[-1]]))
    rng.bit_generator.state = start
    rng.integers(0, _WORD, size=used, dtype=np.uint64)
    return slots, b


def synth_dataset(params: SynthParams, rng: np.random.Generator) -> Dataset:
    """Generate a reproducible synthetic dataset.

    Creator output follows a power law (a few prolific creators, a long tail),
    genre popularity follows a power law with exponent `genre_skew`, and each
    creator's genre mix is a Dirichlet draw sharpened by `genre_concentration`.

    A user's interactions are defined by scalar draws: per interaction, an
    item `candidates[rng.integers(len(candidates))]` of its genre (any item,
    `rng.integers(n_items)`, when the genre has none; `Generator.choice(a)`
    over a 1-D population without `p` draws the same index), then a day
    `rng.integers(created_day[item], n_days + 1)`. `_draw_pairs` decodes them
    from one block of words per user, relying on three facts of numpy's
    `Generator`:

    - a draw over a range of `span` values, `span` below 2**32, is Lemire's
      multiply-shift on a `next_uint32` word `x`: `(x * span) >> 32`, redrawn
      while `(x * span) & 0xFFFFFFFF` is below `(2**32 - span) % span`;
    - a draw with `span` 1 uses no word;
    - `integers(0, 2**32, dtype=np.uint64)` returns consecutive `next_uint32`
      words.

    The pinned dataset files (`SYNTH_PINS` in tests/test_ingest.py) check
    these facts on whichever numpy is installed.
    """
    params.validate()
    p = params
    G = p.n_genres

    genre_pop = (np.arange(G, dtype=float) + 1.0) ** (-p.genre_skew)
    genre_pop /= genre_pop.sum()

    creators = [CreatorRow(c, f"creator{c:03d}", int(rng.lognormal(6.0, 1.5))) for c in range(p.n_creators)]
    users = [UserRow(u, f"user{u:04d}") for u in range(p.n_users)]

    creator_weights = (np.arange(p.n_creators, dtype=float) + 1.0) ** (-p.activity_skew)
    creator_weights = np.maximum(creator_weights, p.activity_floor)
    creator_weights /= creator_weights.sum()
    item_counts = rng.multinomial(p.n_creators * p.items_per_creator, creator_weights)

    alpha = np.maximum(genre_pop * G / p.genre_concentration, 1e-6)
    slugs = [DEFAULT_GENRES[g].split(" ")[0].lower().strip(",&") for g in range(G)]
    tags = [[(slug, f"{slug}-style-{r}") for r in range(3)] for slug in slugs]
    items: list[ItemRow] = []
    for c in range(p.n_creators):
        mix = rng.dirichlet(alpha)
        genres = rng.choice(G, size=item_counts[c], p=mix).tolist()
        days = np.sort(rng.integers(1, p.n_days + 1, size=item_counts[c])).tolist()
        name = creators[c].name
        for k, (g, day) in enumerate(zip(genres, days)):
            items.append(
                ItemRow(
                    item_id=len(items),
                    creator_id=c,
                    genre=g,
                    title=f"{name} clip {k + 1}",
                    tags=tags[g][k % 3],
                    description=f"A {DEFAULT_GENRES[g]} upload by {name}.",
                    created_day=day,
                )
            )

    user_weights = (np.arange(p.n_users, dtype=float) + 1.0) ** (-1.0)
    user_weights /= user_weights.sum()
    inter_counts = rng.multinomial(p.n_users * p.interactions_per_user, user_weights)
    n_items = len(items)
    item_genre = np.array([it.genre for it in items], dtype=np.int64)
    created_day = np.array([it.created_day for it in items], dtype=np.uint64)
    # The pool holds each genre's items in id order, then every item again for
    # the genres without any; an interaction of genre g picks one of the
    # span[g] slots from base[g] on.
    size = np.bincount(item_genre, minlength=G).astype(np.uint64)
    pool = np.concatenate([np.argsort(item_genre, kind="stable"), np.arange(n_items)])
    span = np.where(size > 0, size, np.uint64(n_items))
    base = np.where(size > 0, np.cumsum(size) - size, np.uint64(n_items))
    pool_day = created_day[pool]
    day_span = (p.n_days + 1 - pool_day).tolist()
    pool_day = pool_day.tolist()
    # rows share the items' id objects, as indexing a list of ids did
    ids = [it.item_id for it in items]
    pool_id = [ids[i] for i in pool.tolist()]
    pref_alpha = np.maximum(genre_pop * G / 2.0, 1e-6)
    interactions: list[InteractionRow] = []
    for u in range(p.n_users):
        pref = rng.dirichlet(pref_alpha)
        g = rng.choice(G, size=inter_counts[u], p=pref)
        slots, b = _draw_pairs(rng, span[g].tolist(), base[g].tolist(), day_span)
        interactions.extend(InteractionRow(u, pool_id[s], pool_day[s] + d) for s, d in zip(slots, b))

    return Dataset(users=users, creators=creators, items=items, interactions=interactions)
