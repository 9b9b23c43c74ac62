"""Shared domain types: identifiers, the record-file format, the platform's
item catalog and interaction event log, run configuration and synthetic-data
parameters, and seeded random streams.

Every CSV file the program writes goes through :func:`write_records`, and every
one it reads but the event log through :class:`Records`: one format and one set
of fault rules, with each file's columns declared once, beside its owner. An
item's tags are one field, joined and split by :func:`join_tags` and :func:`split_tags`.

The catalog and the event log are the platform's store, both kept as numpy
columns that `extend` fills a block at a time: each item fact and each event
is stored once, and consumers read whole columns. An event is one exposure, a
served item, with its click flag; the log checks and records every event. The
catalog keeps each item's running exposure and click totals beside its other
columns. The platform reads all of it; a creator reads it only through
:func:`creator_view`, one read of the rows it owns: their ids, genres, creation
steps and totals, and their texts by position among them, as an :class:`OwnRows`.
No creator holds the catalog or names a row, so none can read another's.
"""

from __future__ import annotations

import csv
import hashlib
import math
from contextlib import ExitStack, contextmanager
from itertools import repeat
from dataclasses import dataclass, field, fields, replace
from pathlib import Path
from typing import Iterable, NamedTuple, Sequence

import numpy as np


# ---------------------------------------------------------------------------
# Errors


class SimError(Exception):
    """Base class for all simulator errors."""


class ConfigError(SimError):
    """Invalid or unknown configuration."""


class InvalidParams(ConfigError):
    """Synthetic generator parameters out of range."""


class DataError(SimError):
    """Invalid input data or artifacts."""


class SchemaError(DataError):
    """Record file is missing or lacks a column, or a row is unreadable, out of vocabulary or repeated."""


class EventLogError(SimError):
    """Event log contract violation; `row` is the row at fault in an appended block."""

    def __init__(self, message: str, row: int | None = None) -> None:
        super().__init__(message)
        self.row = row


class OutOfOrder(EventLogError):
    """Appended event sorts behind its predecessor."""


class DuplicateEvent(EventLogError):
    """Second event for the same (step, user, item) triple."""


# ---------------------------------------------------------------------------
# Record files


def parse_int(text: str) -> int:
    """Record field `text` as an integer: ASCII digits after one optional sign, with optional
    surrounding spaces, as the event log's parser reads them; ValueError otherwise."""
    if "_" in text or not text.isascii():  # int() would take 1_5 or ١٥ as 15
        raise ValueError(f"invalid literal for int() with base 10: {text!r}")
    return int(text)


def write_records(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    """Write record file `path`: the `header` row, then `rows`."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        w = csv.writer(f, lineterminator="\n")
        w.writerow(header)
        w.writerows(rows)


class Records:
    """The rows of record file `path` as lists of its `header` columns, in that
    order, with the `ints` columns parsed; read as iterated, closed with `files`.

    The file's presence and header are checked first. Columns are matched by
    name, other columns are ignored and blank lines are skipped. A row without
    the header's field count, a line csv cannot read (a field over its size
    limit) or an `ints` field that `parse_int` rejects is a SchemaError naming the
    file and line; bytes that are not UTF-8, decoded ahead in blocks, are one
    naming the file. `where` names the line for a caller's own error.
    """

    def __init__(
        self, files: ExitStack, path: str | Path, header: Sequence[str], ints: Sequence[str] = ()
    ) -> None:
        path = Path(path)
        if not path.exists():
            raise SchemaError(f"missing record file {path}")
        self.name = path.name
        self._reader = csv.reader(files.enter_context(open(path, "r", encoding="utf-8", newline="")))
        with self._faults():
            names = next(self._reader, [])
        for col in header:
            if col not in names:
                raise SchemaError(f"{self.name}: missing column {col!r}")
        self._header = header
        self._width = len(names)
        self._columns = None if list(header) == names else [names.index(col) for col in header]
        self._ints = [k for k, col in enumerate(header) if col in ints]

    @property
    def where(self) -> str:
        """The file and the line last read, as an error message names them."""
        return f"{self.name} line {self._reader.line_num}"

    @contextmanager
    def _faults(self):
        try:
            yield
        except csv.Error as e:  # csv counts the line it fails on
            raise SchemaError(f"{self.where}: {e}") from e
        except UnicodeDecodeError as e:
            raise SchemaError(f"{self.name}: {e}") from e

    def __iter__(self):
        width, columns, ints = self._width, self._columns, self._ints
        with self._faults():
            for row in self._reader:
                if not row:
                    continue
                if len(row) != width:
                    than = "fewer" if len(row) < width else "more"
                    raise SchemaError(f"{self.where}: {than} fields than the header")
                if columns is not None:
                    row = [row[i] for i in columns]
                try:
                    for k in ints:
                        row[k] = parse_int(row[k])
                except ValueError as e:
                    raise SchemaError(f"{self.where}: {self._header[k]}: {e}") from e
                yield row


def join_tags(tags: Iterable[str]) -> str:
    """An item's tags as one record field."""
    return "|".join(tags)


def split_tags(text: str) -> tuple[str, ...]:
    """The tags of record field `text`: its `|`-separated parts, empty ones dropped."""
    return tuple(t for t in text.split("|") if t)


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


_EVENT_COLUMNS = {"step": np.int32, "user": np.int32, "item": np.int32, "clicked": np.bool_}
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
    """Append-only record of exposure events, stored as columns.

    An event is one served item: the `step`, `user`, `item` and `clicked`
    columns are aligned and sorted by (step, user, item), one event per
    triple, so the events of a step range are one slice found by binary
    search on the step column. Events enter only through `extend`, a block at
    a time. The CSV file keeps an `exposed` column, always 1.
    """

    CSV_HEADER = "step,user_id,item_id,exposed,clicked"
    __slots__ = ()

    def __init__(self, columns: dict[str, np.ndarray] | None = None) -> None:
        """An empty log, or one over already ordered `columns`."""
        super().__init__(columns or {name: np.empty(0, dtype) for name, dtype in _EVENT_COLUMNS.items()})

    def extend(self, step, user, item, clicked) -> None:
        """Append a block of events given as aligned columns; a scalar applies to every row.

        The block is checked as a whole, against itself and the log's last row; its first
        row at fault raises what a row-by-row check would raise, and nothing is appended.
        """
        block = np.broadcast_arrays(*map(np.atleast_1d, (step, user, item, clicked)))
        keys = np.stack(block[:3]).astype(np.int64)
        # the key before the block's first row; (-1, -1, -1) sorts before every valid key
        last = [self._data[name][self.n - 1] if self.n else -1 for name in ("step", "user", "item")]
        gap = np.diff(np.column_stack((last, keys)), axis=1)
        order = np.where(gap[0] != 0, gap[0], np.where(gap[1] != 0, gap[1], gap[2]))
        faults = (
            (((keys < 0) | (keys > _INT32_MAX)).any(axis=0), EventLogError, "field outside [0, 2**31)"),
            ((block[3] != 0) & (block[3] != 1), EventLogError, "clicked must be 0 or 1"),
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
        step, user, item, clicked = (getattr(self, name).astype(np.int64).tolist() for name in _EVENT_COLUMNS)
        write_records(path, self.CSV_HEADER.split(","), zip(step, user, item, repeat(1), clicked))

    @classmethod
    def from_csv(cls, path: str | Path) -> "EventLog":
        """Read a persisted log with one parse of the file and one `extend`.

        Blank lines are skipped; an error names the file line at fault, and an
        `exposed` field other than 1 is one.
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
        # the rows before the first exposed field other than 1 go first, so an earlier fault is named
        stop = next(iter(np.flatnonzero(values[:, 3] != 1).tolist()), len(values))
        log = cls()
        try:
            log.extend(*values[:stop, [0, 1, 2, 4]].T)
        except EventLogError as e:
            raise type(e)(f"line {linenos[e.row]}: {e}") from e
        if stop < len(values):
            raise EventLogError(f"line {linenos[stop]}: exposed is {values[stop, 3]}, not 1")
        log._trim()
        return log


# ---------------------------------------------------------------------------
# Item catalog


class Catalog(_Columns):
    """All items on the platform, seeded and simulated, in creation order.

    An item's id is its row. `creator_id`, `genre` and `created_step` are int
    columns, the only place those facts are stored; `exposures` and `clicks`
    are the item's feedback totals, grown by `add_feedback`. `title`, `tags`
    and `description` are lists aligned with them. Items enter only through
    `extend`, of which `add` is the one-row case; an item is read by its row
    in each column.
    """

    COLUMNS = ("item_id", "creator_id", "genre", "title", "tags", "description", "created_step")
    __slots__ = ("title", "tags", "description")

    def __init__(self) -> None:
        columns = ("creator_id", "genre", "created_step", "exposures", "clicks")
        super().__init__({name: np.empty(0, np.int64) for name in columns})
        self.title: list[str] = []
        self.tags: list[tuple[str, ...]] = []
        self.description: list[str] = []

    def add(
        self, creator_id: int, genre: int, title: str, tags: Iterable[str], description: str,
        created_step: int,
    ) -> int:
        """Append one item; returns its id."""
        self.extend((creator_id,), (genre,), (created_step,), (title,), (tags,), (description,))
        return self.n - 1

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
        self.title.extend(titles)
        self.tags.extend(tags)
        self.description.extend(descriptions)

    def add_feedback(self, items: np.ndarray, exposures, clicks) -> None:
        """Add counts to the totals of `items`; an item listed twice gets both."""
        np.add.at(self.exposures, items, exposures)
        np.add.at(self.clicks, items, clicks)

    def to_csv(self, path: str | Path) -> None:
        write_records(path, self.COLUMNS, zip(
            range(len(self)), self.creator_id.tolist(), self.genre.tolist(), self.title,
            map(join_tags, self.tags), self.description, self.created_step.tolist(),
        ))

    @classmethod
    def from_csv(cls, path: str | Path) -> "Catalog":
        """Read a persisted catalog: rows are parsed one by one, then added with one `extend`."""
        creators, genres, steps, titles, tags, descriptions = [], [], [], [], [], []
        with ExitStack() as files:
            rows = Records(files, path, cls.COLUMNS, ("item_id", "creator_id", "genre", "created_step"))
            for item_id, creator_id, genre, title, tag_text, desc, step in rows:
                if item_id != len(titles):
                    raise SchemaError(f"{rows.where}: non-contiguous item id {item_id}")
                creators.append(creator_id)
                genres.append(genre)
                steps.append(step)
                titles.append(title)
                tags.append(split_tags(tag_text))
                descriptions.append(desc)
        cat = cls()
        try:
            cat.extend(creators, genres, steps, titles, tags, descriptions)
        except OverflowError as e:
            raise SchemaError(f"{rows.name}: {e}") from e
        return cat


class OwnRows(NamedTuple):
    """The catalog rows one creator owns, as one read found them.

    `items` are their ids, ascending, which is creation order; the other
    fields are aligned with it, so a row is read by its position here, never
    by its catalog id.
    """

    items: np.ndarray
    genre: np.ndarray
    created_step: np.ndarray
    exposures: np.ndarray
    clicks: np.ndarray
    title: list[str]
    tags: list[tuple[str, ...]]
    description: list[str]


def creator_view(catalog: Catalog, creator: int) -> OwnRows:
    """The rows of the catalog whose `creator_id` is `creator`: all a creator
    sees of the platform. Every creator-side read goes through this function."""
    data = catalog._data  # rows past catalog.n are spare capacity, never gathered
    rows = np.flatnonzero(data["creator_id"][: catalog.n] == creator)
    ids = rows.tolist()
    return OwnRows(
        rows, data["genre"][rows], data["created_step"][rows], data["exposures"][rows], data["clicks"][rows],
        [catalog.title[i] for i in ids], [catalog.tags[i] for i in ids], [catalog.description[i] for i in ids],
    )


# ---------------------------------------------------------------------------
# Seeded randomness
#
# Streams are keyed by (master seed, stable ids), never by execution order, so
# neither the order agents are visited in nor LLM reply timing changes results.


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
#
# A settings class is a dataclass whose fields are its settings, each stated
# once: its field declares the default and, through `setting`, the bounds.
# `_Settings` derives the file keys, the typed parse of `key = value` pairs and
# the bound checks from the fields.

RANKERS = ("random", "pop", "mf", "bpr")
RERANKERS = ("none", "mmr", "fairrec", "fairco", "pmmf")
CREATOR_POLICIES = ("creagent", "creagent_llm", "cfd", "lbr", "simuline", "random")

# Content categories of a mainstream video platform; the default vocabulary.
DEFAULT_GENRES = (
    "Film & Animation", "Autos & Vehicles", "Music", "Pets & Animals", "Sports", "Travel & Events",
    "Gaming", "People & Blogs", "Comedy", "Entertainment", "News & Politics", "Howto & Style",
    "Education", "Science & Technology",
)


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


def setting(default, *, ge=None, gt=None, le=None):
    """A settings field: `default`, and values must be >= `ge` (or > `gt`) and <= `le`."""
    return field(default=default, metadata={"ge": ge, "gt": gt, "le": le})


class _Settings:
    """Base of the settings dataclasses: file keys, parsing and checks from the fields."""

    _error = ConfigError  # raised for a bad key or value

    @staticmethod
    def _key(name: str) -> str:
        return name

    @classmethod
    def file_keys(cls) -> dict[str, str]:
        """Config-file key -> field name, in field order."""
        return {cls._key(f.name): f.name for f in fields(cls)}

    @classmethod
    def from_pairs(cls, pairs: dict[str, str]):
        """The settings of `key = value` pairs, each typed as its field's default, validated."""
        by_key = {cls._key(f.name): f for f in fields(cls)}
        kwargs = {}
        for key, raw in pairs.items():
            if key not in by_key:
                raise cls._error(f"unknown config key {key!r}")
            kind = type(by_key[key].default)
            try:
                if kind is bool:
                    low = raw.strip().lower()
                    if low not in ("true", "1", "yes", "false", "0", "no"):
                        raise ValueError(f"not a boolean: {raw!r}")
                    value = low in ("true", "1", "yes")
                elif kind is str:
                    value = raw.strip()
                else:
                    value = kind(raw)
            except ValueError as e:
                raise cls._error(f"bad value for {key}: {e}") from e
            kwargs[by_key[key].name] = value
        settings = cls(**kwargs)
        settings.validate()
        return settings

    @classmethod
    def from_file(cls, path: str | Path):
        return cls.from_pairs(read_kv_file(path))

    def validate(self) -> None:
        """Check that every float is finite, every int fits in int64 and every setting is in bounds."""
        for f in fields(self):
            value = getattr(self, f.name)
            ge, gt, le = (f.metadata.get(k) for k in ("ge", "gt", "le"))
            if isinstance(value, float) and not math.isfinite(value):
                need = "finite"
            # an integer setting sizes, bounds or seeds numpy arrays and streams
            elif isinstance(value, int) and not -(2**63) <= value < 2**63:
                need = "in [-2**63, 2**63)"
            elif ge is not None and not value >= ge:
                need = f">= {ge}"
            elif gt is not None and not value > gt:
                need = f"> {gt}"
            elif le is not None and not value <= le:
                need = f"<= {le}"
            else:
                continue
            raise self._error(f"{self._key(f.name)} must be {need}")


@dataclass
class SimConfig(_Settings):
    """Flat run configuration; persisted verbatim with every run."""

    _key = staticmethod(_config_key)

    n_users: int = setting(100, ge=1)
    n_creators: int = setting(50, ge=1)
    n_steps: int = setting(100, ge=1)
    warmup: int = setting(10, ge=1)  # and <= n_steps
    list_length: int = setting(5, ge=1)
    retrain_period: int = setting(5, ge=1)
    timeliness_window: int = setting(20, ge=1)
    beta: float = setting(0.5, ge=0, le=1)
    departure_threshold: int = setting(5, ge=1)
    seed: int = setting(0, ge=0)
    workers: int = setting(1, ge=1)
    ranker: str = "mf"
    reranker: str = "none"
    creator_policy: str = "creagent"
    data_dir: str = ""
    creator_full_information: bool = False
    creagent_p_explore_max: float = setting(0.40, ge=0, le=1)
    creagent_p_explore_min: float = setting(0.05, ge=0, le=1)  # and <= p_explore_max
    creagent_memory_k: int = setting(3, ge=1)
    cfd_lr: float = setting(0.1, ge=0)
    lbr_step_size: float = setting(0.1, ge=0)
    user_alpha_click: float = setting(0.8, ge=0)
    user_exit_base: float = setting(0.05, ge=0)
    user_exit_per_skip: float = setting(0.15, ge=0)
    user_novelty_decay: float = setting(0.8, ge=0, le=1)
    mf_dim: int = setting(32, ge=1)
    mf_lr: float = setting(0.05, gt=0)
    mf_epochs: int = setting(5, ge=1)
    mf_l2: float = setting(1e-4, ge=0)
    pop_window: int = setting(20, ge=1)
    rerank_pool_multiplier: int = setting(4, ge=1)
    mmr_lambda: float = setting(0.7, ge=0, le=1)
    fairrec_min_share: float = setting(0.5, ge=0, le=1)
    fairco_lambda: float = setting(0.5, ge=0)
    pmmf_eta_dual: float = setting(0.1, gt=0, le=1e6)  # larger steps only saturate the duals
    pmmf_dual_max: float = setting(2.0, ge=0)
    llm_endpoint: str = ""
    llm_model: str = ""
    llm_temperature: float = 0.0
    llm_max_tokens: int = setting(256, ge=1)
    llm_timeout: float = setting(10.0, gt=0)
    llm_retries: int = setting(1, ge=0)
    synth_n_genres: int = setting(14, ge=1, le=len(DEFAULT_GENRES))
    # a day is drawn over a span of at most n_days values, which must be below 2**32
    synth_n_days: int = setting(60, ge=1, le=2**32 - 1)
    synth_items_per_creator: int = setting(15, ge=1)
    synth_interactions_per_user: int = setting(30, ge=0)
    synth_genre_skew: float = setting(1.0, ge=0)  # power-law exponent of genre popularity
    # higher: creators focus on fewer genres; at 1e-6 every creator's mix is the
    # popularity mix to ~1e-3 already, and near 0 the Dirichlet weights overflow
    synth_genre_concentration: float = setting(12.0, ge=1e-6)
    synth_activity_skew: float = setting(1.0, ge=0)  # power-law exponent of creator output
    synth_activity_floor: float = setting(0.05, ge=0, le=1)  # tail output as a fraction of the head's

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
        super().validate()
        for ok, message in (
            (self.warmup <= self.n_steps, "warmup must be <= n_steps"),
            (self.creagent_p_explore_min <= self.creagent_p_explore_max,
             "creagent.p_explore_min must be <= creagent.p_explore_max"),
            (self.ranker in RANKERS, f"ranker must be one of {RANKERS}"),
            (self.reranker in RERANKERS, f"reranker must be one of {RERANKERS}"),
            (self.creator_policy in CREATOR_POLICIES, f"creator_policy must be one of {CREATOR_POLICIES}"),
        ):
            if not ok:
                raise ConfigError(message)
        try:
            SynthParams.from_config(self).validate()
        except InvalidParams as e:
            raise ConfigError(f"synth.{e}") from e


def _config_field(name: str):
    """A field with the default and bounds of `SimConfig`'s field `name`."""
    f = SimConfig.__dataclass_fields__[name]
    return field(default=f.default, metadata=f.metadata)


@dataclass
class SynthParams(_Settings):
    """Knobs for the synthetic generator; desk-scale stand-in data.

    Each knob is the run config's `synth.<name>`, or its `n_users`, `n_creators`
    or `seed`, with that setting's default and bounds.
    """

    _error = InvalidParams

    n_users: int = _config_field("n_users")
    n_creators: int = _config_field("n_creators")
    n_genres: int = _config_field("synth_n_genres")
    n_days: int = _config_field("synth_n_days")
    items_per_creator: int = _config_field("synth_items_per_creator")
    interactions_per_user: int = _config_field("synth_interactions_per_user")
    genre_skew: float = _config_field("synth_genre_skew")
    genre_concentration: float = _config_field("synth_genre_concentration")
    activity_skew: float = _config_field("synth_activity_skew")
    activity_floor: float = _config_field("synth_activity_floor")
    seed: int = _config_field("seed")

    @classmethod
    def from_config(cls, cfg: SimConfig) -> "SynthParams":
        """A run config's `synth.*` section, sized and seeded by the run."""
        return cls(
            n_users=cfg.n_users, n_creators=cfg.n_creators, seed=cfg.seed, **cfg.section("synth")
        )

    def validate(self) -> None:
        super().validate()
        # every draw of an item index spans fewer than 2**32 values
        if self.n_creators * self.items_per_creator >= 2**32:
            raise InvalidParams("n_creators * items_per_creator must be < 2**32")


def read_kv_file(path: str | Path) -> dict[str, str]:
    """Parse a flat `key = value` UTF-8 file; `#` lines are comments."""
    pairs: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as f:
        try:
            lines = f.read().split("\n")  # the lines iterating `f` yields, less their newlines
        except UnicodeDecodeError as e:
            raise ConfigError(f"{path}: {e}") from e
        for lineno, line in enumerate(lines, start=1):
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
