"""Shared domain types: identifiers, the platform's item catalog and
interaction event log, run configuration, and seeded random streams.

The catalog and the event log are the platform's store, both kept as numpy
columns that `extend` fills a block at a time: each item fact and each event
is stored once, and consumers read whole columns. The log checks and records
every event; the catalog keeps each item's running exposure and click totals
beside its other columns. The platform reads all of it; creators may only read
the totals, and only through :func:`creator_view`, which checks the catalog's
ownership column and enforces the platform/creator information boundary.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Errors


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Invalid or unknown configuration."""


class DataError(SimError):
    """Invalid input data or artifacts."""


class EventLogError(SimError):
    """Event log contract violation; `row` is the row at fault in an appended block."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class OutOfOrder(EventLogError):
    """Appended event sorts behind its predecessor."""


class IllegalClick(EventLogError):
    """Click recorded without exposure."""


class DuplicateEvent(EventLogError):
    """Second event for the same (step, user, item) triple."""


class AsymmetryViolation(SimError):
    """A creator attempted to read feedback on an item it does not own."""


# ---------------------------------------------------------------------------
# Columns


class _Columns:
    """Equal-length numpy columns, read as attributes; rows [0, n) are live.

    Appending grows every column by doubling, so a long run appends in
    amortized constant time; `_trim` drops the spare capacity.
    """

    __slots__ = ("_data", "n")

    def __init__(self, data: dict[str, np.ndarray]) -> None:
        self._data = data
        self.n = len(next(iter(data.values())))

    def __getattr__(self, name: str) -> np.ndarray:
        if name.startswith("_") or name not in self._data:
            raise AttributeError(name)
        return self._data[name][: self.n]

    def __len__(self) -> int:
        return self.n

    def _extend(self, columns) -> None:
        """Append rows given as one sequence per column, in column order.

        The first column sets the number of rows; a later one may be a single
        value for every row. Nothing is appended if a column does not fit.
        """
        data, n = self._data, self.n
        m = n + len(columns[0])
        capacity = len(next(iter(data.values())))
        if m > capacity:
            while capacity < m:
                capacity = max(16, 2 * capacity)
            for name, column in data.items():
                data[name] = np.empty(capacity, column.dtype)
                data[name][:n] = column[:n]
        for column, values in zip(data.values(), columns):
            column[n:m] = values
        self.n = m

    def _trim(self) -> None:
        self._data = {name: column[: self.n].copy() for name, column in self._data.items()}


# ---------------------------------------------------------------------------
# Identifiers and the event log
#
# UserId, ItemId, CreatorId, GenreId are opaque non-negative ints; Step is a
# non-negative simulation tick. Item ids are assigned by the catalog in
# creation order, so they are strictly increasing over time.


_EVENT_COLUMNS = {
    "step": np.int32, "user": np.int32, "item": np.int32, "exposed": np.bool_, "clicked": np.bool_,
}
_INT32_MAX = int(np.iinfo(np.int32).max)


def _parse_rows(rows: list[str]) -> np.ndarray:
    """Lines of five comma-separated integers as an (n, 5) int64 array; ValueError otherwise."""
    if not rows:
        return np.empty((0, 5), np.int64)
    # without comments=None a damaged row that starts with "#" would be skipped
    values = np.loadtxt(rows, delimiter=",", dtype=np.int64, comments=None, ndmin=2)
    if values.shape[1] != 5:
        raise ValueError(f"{values.shape[1]} fields")
    return values


class EventLog(_Columns):
    """Append-only record of exposure/click events, stored as columns.

    The `step`, `user`, `item`, `exposed` and `clicked` columns are aligned
    and sorted by (step, user, item), one event per triple, so the events of
    a step range are one slice found by binary search on the step column.
    Events enter only through `extend`, a block at a time.
    """

    CSV_HEADER = "step,user_id,item_id,exposed,clicked"
    __slots__ = ()

    def __init__(self, columns: dict[str, np.ndarray] | None = None) -> None:
        """An empty log, or one over already ordered `columns`."""
        super().__init__(columns or {name: np.empty(0, dtype) for name, dtype in _EVENT_COLUMNS.items()})

    def extend(self, step, user, item, exposed, clicked) -> None:
        """Append a block of events given as aligned columns; a scalar applies to every row.

        The block is checked as a whole, against itself and the log's last row; its first
        row at fault raises what a row-by-row check would raise, and nothing is appended.
        """
        block = np.broadcast_arrays(*map(np.atleast_1d, (step, user, item, exposed, clicked)))
        keys = np.stack(block[:3]).astype(np.int64)
        flags = np.stack(block[3:])
        # the key before the block's first row; (-1, -1, -1) sorts before every valid key
        last = [self._data[name][self.n - 1] if self.n else -1 for name in ("step", "user", "item")]
        gap = np.diff(np.column_stack((last, keys)), axis=1)
        order = np.where(gap[0] != 0, gap[0], np.where(gap[1] != 0, gap[1], gap[2]))
        faults = (
            (((keys < 0) | (keys > _INT32_MAX)).any(axis=0), EventLogError, "field outside [0, 2**31)"),
            (((flags != 0) & (flags != 1)).any(axis=0), EventLogError, "exposed and clicked must be 0 or 1"),
            ((flags[1] != 0) & (flags[0] == 0), IllegalClick, "click without exposure"),
            (order == 0, DuplicateEvent, "event already recorded"),
            (order < 0, OutOfOrder, "event behind its predecessor"),
        )
        bad = np.logical_or.reduce([mask for mask, _, _ in faults])
        if bad.any():
            row = int(bad.argmax())
            error, what = next((error, what) for mask, error, what in faults if mask[row])
            raise error(f"{what}: (step, user, item) = {tuple(keys[:, row].tolist())}", row)
        self._extend(block)

    def span(self, frm: int, to: int) -> slice:
        """The rows whose step lies in [frm, to]."""
        # bounds in the column's dtype, or numpy converts the whole column to search it
        step = self.step
        lo = step.searchsorted(np.int32(min(max(frm, -1), _INT32_MAX)), "left")
        hi = step.searchsorted(np.int32(min(max(to, -1), _INT32_MAX)), "right")
        return slice(int(lo), int(hi))

    def window(self, frm: int, to: int) -> "EventLog":
        """The events with step in [frm, to], as a log sharing this one's memory."""
        rows = self.span(frm, to)
        return EventLog({name: getattr(self, name)[rows] for name in _EVENT_COLUMNS})

    def to_csv(self, path: str | Path) -> None:
        columns = [getattr(self, name).astype(np.int64).tolist() for name in _EVENT_COLUMNS]
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.CSV_HEADER + "\n")
            f.writelines(f"{s},{u},{i},{e},{c}\n" for s, u, i, e, c in zip(*columns))

    @classmethod
    def from_csv(cls, path: str | Path) -> "EventLog":
        """Read a persisted log with one parse of the file and one `extend`.

        Blank lines are skipped; an error names the file line at fault.
        """
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != cls.CSV_HEADER:
                raise EventLogError(f"bad header {header!r}")
            lines = f.read().split("\n")
        linenos = [lineno for lineno, line in enumerate(lines, start=2) if line.strip()]
        rows = [lines[lineno - 2] for lineno in linenos]
        try:
            values = _parse_rows(rows)
        except ValueError as e:
            for lineno, row in zip(linenos, rows):  # parse line by line to name the first at fault
                try:
                    _parse_rows([row])
                except ValueError:
                    raise EventLogError(f"line {lineno}: expected 5 integer fields, got {row!r}") from e
            raise EventLogError(str(e)) from e
        log = cls()
        try:
            log.extend(*values.T)
        except EventLogError as e:
            raise type(e)(f"line {linenos[e.row]}: {e}") from e
        log._trim()
        return log


# ---------------------------------------------------------------------------
# Item catalog


class ItemRecord(NamedTuple):
    item_id: int
    creator_id: int
    genre: int
    title: str
    tags: tuple[str, ...]
    description: str
    created_step: int


class Catalog(_Columns):
    """All items on the platform, seeded and simulated, in creation order.

    An item's id is its row. `creator_id`, `genre` and `created_step` are int
    columns, the only place those facts are stored; `exposures` and `clicks`
    are the item's feedback totals, grown by `add_feedback`. Titles, tags and
    descriptions are lists. Items enter only through `extend`, of which `add`
    is the one-row case. Indexing and iteration build `ItemRecord`s.
    """

    CSV_HEADER = "item_id,creator_id,genre,title,tags,description,created_step"
    __slots__ = ("_titles", "_tags", "_descriptions")

    def __init__(self) -> None:
        columns = ("creator_id", "genre", "created_step", "exposures", "clicks")
        super().__init__({name: np.empty(0, np.int64) for name in columns})
        self._titles: list[str] = []
        self._tags: list[tuple[str, ...]] = []
        self._descriptions: list[str] = []

    def __getitem__(self, item_id: int) -> ItemRecord:
        if not 0 <= item_id < self.n:
            raise IndexError(f"item {item_id} not in the catalog")
        data = self._data
        return ItemRecord(
            int(item_id), data["creator_id"].item(item_id), data["genre"].item(item_id),
            self._titles[item_id], self._tags[item_id], self._descriptions[item_id],
            data["created_step"].item(item_id),
        )

    def add(
        self, creator_id: int, genre: int, title: str, tags: Iterable[str], description: str,
        created_step: int,
    ) -> ItemRecord:
        self.extend((creator_id,), (genre,), (created_step,), (title,), (tags,), (description,))
        return self[len(self) - 1]

    def extend(
        self, creator_id: Sequence[int], genre: Sequence[int], created_step: Sequence[int],
        titles: Sequence[str], tags: Iterable[Iterable[str]], descriptions: Sequence[str],
    ) -> None:
        """Append one item per row of the aligned arguments, in order, with zero feedback."""
        tags = [tuple(t) for t in tags]
        columns = (creator_id, genre, created_step, titles, tags, descriptions)
        if len({len(column) for column in columns}) != 1:
            raise ValueError("catalog columns of unequal length")
        self._extend((creator_id, genre, created_step, 0, 0))
        self._titles.extend(titles)
        self._tags.extend(tags)
        self._descriptions.extend(descriptions)

    def add_feedback(self, items: np.ndarray, exposures, clicks) -> None:
        """Add counts to the totals of `items`; an item listed twice gets both."""
        np.add.at(self.exposures, items, exposures)
        np.add.at(self.clicks, items, clicks)

    def to_csv(self, path: str | Path) -> None:
        import csv

        rows = zip(
            range(len(self)), self.creator_id.tolist(), self.genre.tolist(), self._titles,
            ("|".join(t) for t in self._tags), self._descriptions, self.created_step.tolist(),
        )
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(self.CSV_HEADER.split(","))
            w.writerows(rows)

    @classmethod
    def from_csv(cls, path: str | Path) -> "Catalog":
        """Read a persisted catalog: rows are parsed one by one, then added with one `extend`."""
        import csv

        creators, genres, steps, titles, tags, descriptions = [], [], [], [], [], []
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != cls.CSV_HEADER.split(","):
                raise DataError(f"bad catalog header in {path}")
            for row in reader:
                try:
                    item_id, creator_id, genre, title, tag_text, desc, step = row
                    if int(item_id) != len(titles):
                        raise DataError(f"non-contiguous item id {item_id} in {path}")
                    creators.append(int(creator_id))
                    genres.append(int(genre))
                    steps.append(int(step))
                except ValueError as e:
                    raise DataError(f"{path} line {reader.line_num}: {e}") from e
                titles.append(title)
                tags.append(tag_text.split("|") if tag_text else ())
                descriptions.append(desc)
        cat = cls()
        try:
            cat.extend(creators, genres, steps, titles, tags, descriptions)
        except OverflowError as e:
            raise DataError(f"{path}: {e}") from e
        return cat


def creator_view(catalog: Catalog, creator: int, items) -> tuple[np.ndarray, np.ndarray]:
    """Exposure and click totals of `items` as visible to `creator`, aligned
    with `items`.

    Raises :class:`AsymmetryViolation` unless the catalog's `creator_id`
    column names `creator` as the owner of every item. All creator-side
    feedback reads must go through this function.
    """
    items = np.asarray(items, dtype=np.int64)
    owned = (items >= 0) & (items < len(catalog))
    owned[owned] = catalog.creator_id[items[owned]] == creator
    if not owned.all():
        raise AsymmetryViolation(f"creator {creator} queried foreign item {items[~owned][0]}")
    return catalog.exposures[items], catalog.clicks[items]


# ---------------------------------------------------------------------------
# Seeded randomness
#
# Streams are keyed by (master seed, stable ids), never by execution order,
# so the worker schedule cannot change results.


def _key_part(part) -> int:
    if isinstance(part, (int, np.integer)):
        if part < 0:
            raise ValueError(f"negative stream key {part}")
        return int(part)
    digest = hashlib.sha256(str(part).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def stream(master_seed: int, *key) -> np.random.Generator:
    """Independent generator for (master_seed, key); same inputs, same sequence."""
    seq = np.random.SeedSequence(master_seed, spawn_key=tuple(_key_part(p) for p in key))
    return np.random.default_rng(seq)


DRAW_BLOCK = 32  # doubles drawn ahead per agent: 1,200 agents hold 0.3 MB


class UniformStreams:
    """One uniform stream per agent, drawn ahead a block at a time.

    Agent `a` reads exactly the doubles that successive `random()` calls on
    `stream(seed, purpose, a)` return, in order, since `random(m)` returns the
    same doubles as `m` scalar calls. Its next doubles are its buffer row from
    its cursor on, then its generator's; a spent row is refilled from the
    generator. Choosing which of many agents act is then one gather and one
    comparison instead of a Python call per agent.
    """

    def __init__(self, seed: int, purpose: str, n: int) -> None:
        self._rngs = [stream(seed, purpose, a) for a in range(n)]
        self._rows = np.empty((n, DRAW_BLOCK))
        for rng, row in zip(self._rngs, self._rows):
            rng.random(out=row)
        self._cursor = np.zeros(n, dtype=np.int64)

    def draw(self, agents: np.ndarray) -> np.ndarray:
        """The next uniform of each of `agents`, distinct indices, in their order."""
        spent = agents[self._cursor[agents] == DRAW_BLOCK]
        for a in spent.tolist():
            self._rngs[a].random(out=self._rows[a])
        self._cursor[spent] = 0
        cursor = self._cursor[agents]
        self._cursor[agents] = cursor + 1
        return self._rows[agents, cursor]

    def peek(self, agent: int, m: int) -> np.ndarray:
        """The agent's next `m` uniforms, read-only and not consumed: `advance` consumes."""
        c = int(self._cursor[agent])
        if c + m <= DRAW_BLOCK:
            return self._rows[agent, c : c + m]
        # past the row's end: read on from the generator, then rewind it
        rng = self._rngs[agent]
        state = rng.bit_generator.state
        ahead = np.concatenate((self._rows[agent, c:], rng.random(c + m - DRAW_BLOCK)))
        rng.bit_generator.state = state
        return ahead

    def advance(self, agent: int, used: int) -> None:
        """Consume the agent's next `used` uniforms."""
        c = int(self._cursor[agent]) + used
        if c > DRAW_BLOCK:
            self._rngs[agent].random(c - DRAW_BLOCK)  # the ones used past the row's end
            c = DRAW_BLOCK
        self._cursor[agent] = c


_SM_GAMMA = np.uint64(0x9E3779B97F4A7C15)


def _splitmix64(x: np.ndarray) -> np.ndarray:
    x = x + _SM_GAMMA
    x = (x ^ (x >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    x = (x ^ (x >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return x ^ (x >> np.uint64(31))


def hash_uniform(seed: int, a: int, ids: np.ndarray) -> np.ndarray:
    """Stable pseudo-uniform draws in [0, 1) keyed by (seed, a, id).

    Pure function of its inputs; used where scores must be random-looking but
    bit-reproducible without consuming any stream state.
    """
    with np.errstate(over="ignore"):
        base = _splitmix64(np.uint64((seed & 0xFFFFFFFFFFFFFFFF) ^ (a + 1) * 0x9E3779B9))
        x = _splitmix64(ids.astype(np.uint64) ^ base)
    return (x >> np.uint64(11)).astype(np.float64) * (2.0**-53)


# ---------------------------------------------------------------------------
# Run configuration

RANKERS = ("random", "pop", "mf", "bpr")
RERANKERS = ("none", "mmr", "fairrec", "fairco", "pmmf")
CREATOR_POLICIES = ("creagent", "creagent_llm", "cfd", "lbr", "simuline", "random")


# Config-file sections: field `<section>_<name>` is written `<section>.<name>`.
_SECTIONS = (
    "creator", "creagent", "cfd", "lbr", "user", "mf", "pop", "rerank", "mmr", "fairrec",
    "fairco", "pmmf", "llm", "synth",
)
# Top-level keys that happen to start with a section name.
_UNDOTTED = ("creator_policy",)


def _config_key(field_name: str) -> str:
    section, _, name = field_name.partition("_")
    if section in _SECTIONS and field_name not in _UNDOTTED:
        return f"{section}.{name}"
    return field_name


@dataclass
class SimConfig:
    """Flat run configuration; persisted verbatim with every run."""

    n_users: int = 100
    n_creators: int = 50
    n_steps: int = 100
    warmup: int = 10
    list_length: int = 5
    retrain_period: int = 5
    timeliness_window: int = 20
    beta: float = 0.5
    departure_threshold: int = 5
    seed: int = 0
    workers: int = 1
    ranker: str = "mf"
    reranker: str = "none"
    creator_policy: str = "creagent"
    data_dir: str = ""
    creator_full_information: bool = False
    creagent_p_explore_max: float = 0.40
    creagent_p_explore_min: float = 0.05
    creagent_memory_k: int = 3
    cfd_lr: float = 0.1
    lbr_step_size: float = 0.1
    user_alpha_click: float = 0.8
    user_exit_base: float = 0.05
    user_exit_per_skip: float = 0.15
    user_novelty_decay: float = 0.8
    mf_dim: int = 32
    mf_lr: float = 0.05
    mf_epochs: int = 5
    mf_l2: float = 1e-4
    pop_window: int = 20
    rerank_pool_multiplier: int = 4
    mmr_lambda: float = 0.7
    fairrec_min_share: float = 0.5
    fairco_lambda: float = 0.5
    pmmf_eta_dual: float = 0.1
    pmmf_dual_max: float = 2.0
    llm_endpoint: str = ""
    llm_model: str = ""
    llm_temperature: float = 0.0
    llm_max_tokens: int = 256
    llm_timeout: float = 10.0
    llm_retries: int = 1
    synth_n_genres: int = 14
    synth_n_days: int = 60
    synth_items_per_creator: int = 15
    synth_interactions_per_user: int = 30
    synth_genre_skew: float = 1.0
    synth_genre_concentration: float = 12.0
    synth_activity_skew: float = 1.0
    synth_activity_floor: float = 0.05

    @classmethod
    def file_keys(cls) -> dict[str, str]:
        """Dotted config-file key -> field name, in field order."""
        return {_config_key(f.name): f.name for f in fields(cls)}

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]) -> "SimConfig":
        keys = cls.file_keys()
        default = cls()
        kwargs = {}
        for key, raw in pairs.items():
            attr = keys.get(key)
            if attr is None:
                raise ConfigError(f"unknown config key {key!r}")
            kind = type(getattr(default, attr))
            try:
                if kind is bool:
                    low = raw.strip().lower()
                    if low in ("true", "1", "yes"):
                        value = True
                    elif low in ("false", "0", "no"):
                        value = False
                    else:
                        raise ValueError(f"not a boolean: {raw!r}")
                elif kind is int:
                    value = int(raw)
                elif kind is float:
                    value = float(raw)
                else:
                    value = raw.strip()
            except ValueError as e:
                raise ConfigError(f"bad value for {key}: {e}") from e
            kwargs[attr] = value
        cfg = cls(**kwargs)
        cfg.validate()
        return cfg

    @classmethod
    def from_file(cls, path: str | Path) -> "SimConfig":
        pairs = read_kv_file(path)
        return cls.from_pairs(pairs)

    def section(self, prefix: str) -> dict:
        """The `<prefix>.*` settings, keyed by the name after the dot."""
        return {
            key[len(prefix) + 1 :]: getattr(self, attr)
            for key, attr in self.file_keys().items()
            if key.startswith(prefix + ".")
        }

    def to_text(self) -> str:
        lines = []
        for key, attr in self.file_keys().items():
            value = getattr(self, attr)
            if isinstance(value, bool):
                value = "true" if value else "false"
            lines.append(f"{key} = {value}")
        return "\n".join(lines) + "\n"

    def with_overrides(self, **kwargs) -> "SimConfig":
        cfg = replace(self, **kwargs)
        cfg.validate()
        return cfg

    def validate(self) -> None:
        c = self
        checks = [
            (c.n_users >= 1, "n_users must be >= 1"),
            (c.n_creators >= 1, "n_creators must be >= 1"),
            (c.n_steps >= 1, "n_steps must be >= 1"),
            (1 <= c.warmup <= c.n_steps, "warmup must satisfy 1 <= warmup <= n_steps"),
            (c.list_length >= 1, "list_length must be >= 1"),
            (c.retrain_period >= 1, "retrain_period must be >= 1"),
            (c.timeliness_window >= 1, "timeliness_window must be >= 1"),
            (0.0 <= c.beta <= 1.0, "beta must be in [0, 1]"),
            (c.departure_threshold >= 1, "departure_threshold must be >= 1"),
            (c.seed >= 0, "seed must be >= 0"),
            (c.workers >= 1, "workers must be >= 1"),
            (c.ranker in RANKERS, f"ranker must be one of {RANKERS}"),
            (c.reranker in RERANKERS, f"reranker must be one of {RERANKERS}"),
            (c.creator_policy in CREATOR_POLICIES, f"creator_policy must be one of {CREATOR_POLICIES}"),
            (0.0 <= c.creagent_p_explore_min <= c.creagent_p_explore_max <= 1.0,
             "explore probabilities must satisfy 0 <= min <= max <= 1"),
            (c.creagent_memory_k >= 1, "creagent.memory_k must be >= 1"),
            (c.cfd_lr >= 0.0, "cfd.lr must be >= 0"),
            (c.lbr_step_size >= 0.0, "lbr.step_size must be >= 0"),
            (c.user_alpha_click >= 0.0, "user.alpha_click must be >= 0"),
            (c.user_exit_base >= 0.0, "user.exit_base must be >= 0"),
            (c.user_exit_per_skip >= 0.0, "user.exit_per_skip must be >= 0"),
            (0.0 <= c.user_novelty_decay <= 1.0, "user.novelty_decay must be in [0, 1]"),
            (c.mf_dim >= 1, "mf.dim must be >= 1"),
            (c.mf_lr > 0.0, "mf.lr must be > 0"),
            (c.mf_epochs >= 1, "mf.epochs must be >= 1"),
            (c.mf_l2 >= 0.0, "mf.l2 must be >= 0"),
            (c.pop_window >= 1, "pop.window must be >= 1"),
            (c.rerank_pool_multiplier >= 1, "rerank.pool_multiplier must be >= 1"),
            (0.0 <= c.mmr_lambda <= 1.0, "mmr.lambda must be in [0, 1]"),
            (0.0 <= c.fairrec_min_share <= 1.0, "fairrec.min_share must be in [0, 1]"),
            (c.fairco_lambda >= 0.0, "fairco.lambda must be >= 0"),
            (c.pmmf_eta_dual > 0.0, "pmmf.eta_dual must be > 0"),
            (c.pmmf_dual_max >= 0.0, "pmmf.dual_max must be >= 0"),
            (c.llm_timeout > 0.0, "llm.timeout must be > 0"),
            (c.llm_retries >= 0, "llm.retries must be >= 0"),
            (c.llm_max_tokens >= 1, "llm.max_tokens must be >= 1"),
        ]
        for ok, message in checks:
            if not ok:
                raise ConfigError(message)
        from .ingest import InvalidParams, SynthParams

        try:
            SynthParams.from_config(self).validate()
        except InvalidParams as e:
            raise ConfigError(f"synth.{e}") from e


def read_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` file; `#` lines are comments."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        for lineno, line in enumerate(f, start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected 'key = value'")
            key, _, value = line.partition("=")
            key = key.strip()
            if key in pairs:
                raise ConfigError(f"{path}:{lineno}: duplicate key {key!r}")
            pairs[key] = value.strip()
    return pairs
