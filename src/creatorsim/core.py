"""Shared domain types: identifiers, the interaction event log, run
configuration, and seeded random streams.

The event log is the single source of truth for user feedback. The platform
holds the full log; creators may only read it through :func:`creator_view`,
which is the enforcement point for the platform/creator information boundary.
"""

from __future__ import annotations

import hashlib
from collections.abc import Set as AbstractSet
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Iterable, Iterator, NamedTuple

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
    """Event log contract violation."""


class OutOfOrder(EventLogError):
    """Appended event regresses behind the log's current position."""


class IllegalClick(EventLogError):
    """Click recorded without exposure."""


class DuplicateEvent(EventLogError):
    """Second event for the same (step, user, item) triple."""


class UnknownItem(EventLogError):
    """Item has no events in the log."""


class AsymmetryViolation(SimError):
    """A creator attempted to read feedback on an item it does not own."""


# ---------------------------------------------------------------------------
# Identifiers and events
#
# UserId, ItemId, CreatorId, GenreId are opaque non-negative ints; Step is a
# non-negative simulation tick. Item ids are assigned by the catalog in
# creation order, so they are strictly increasing over time.


class InteractionEvent(NamedTuple):
    step: int
    user: int
    item: int
    exposed: bool
    clicked: bool


class EventLog:
    """Append-only record of exposure/click events.

    Events are kept sorted by (step, user, item); the per-item index maps an
    item id to the offsets of its events. One event per (step, user, item).
    """

    CSV_HEADER = "step,user_id,item_id,exposed,clicked"

    def __init__(self) -> None:
        self._events: list[InteractionEvent] = []
        self._by_item: dict[int, list[int]] = {}

    def __len__(self) -> int:
        return len(self._events)

    def __iter__(self) -> Iterator[InteractionEvent]:
        return iter(self._events)

    @property
    def events(self) -> list[InteractionEvent]:
        return self._events

    def __contains__(self, item: int) -> bool:
        return item in self._by_item

    def append(self, ev: InteractionEvent) -> None:
        if ev.step < 0 or ev.user < 0 or ev.item < 0:
            raise EventLogError(f"negative field in event {ev}")
        if ev.clicked and not ev.exposed:
            raise IllegalClick(f"click without exposure: {ev}")
        if self._events:
            last = self._events[-1]
            key, last_key = (ev.step, ev.user, ev.item), (last.step, last.user, last.item)
            if key == last_key:
                raise DuplicateEvent(f"event already recorded for {last_key}")
            if key < last_key:
                raise OutOfOrder(f"event {key} appended after {last_key}")
        self._by_item.setdefault(ev.item, []).append(len(self._events))
        self._events.append(ev)

    def tally(self, item: int, frm: int, to: int) -> tuple[int, int]:
        """Exact (exposures, clicks) counts for `item` over steps [frm, to]."""
        if frm > to:
            raise ValueError(f"empty-reversed range [{frm}, {to}]")
        if item not in self._by_item:
            raise UnknownItem(f"item {item} has no events")
        exposures = clicks = 0
        for pos in self._by_item[item]:
            ev = self._events[pos]
            if frm <= ev.step <= to:
                exposures += ev.exposed
                clicks += ev.clicked
        return exposures, clicks

    def to_csv(self, path: str | Path) -> None:
        with open(path, "w", encoding="utf-8", newline="\n") as f:
            f.write(self.CSV_HEADER + "\n")
            for ev in self._events:
                f.write(f"{ev.step},{ev.user},{ev.item},{int(ev.exposed)},{int(ev.clicked)}\n")

    @classmethod
    def from_csv(cls, path: str | Path) -> "EventLog":
        """Rebuild a log by replaying a persisted file through `append`."""
        log = cls()
        with open(path, "r", encoding="utf-8") as f:
            header = f.readline().strip()
            if header != cls.CSV_HEADER:
                raise EventLogError(f"bad header {header!r}")
            for lineno, line in enumerate(f, start=2):
                line = line.strip()
                if not line:
                    continue
                parts = line.split(",")
                if len(parts) != 5:
                    raise EventLogError(f"line {lineno}: expected 5 fields")
                try:
                    step, user, item, exp, clk = (int(p) for p in parts)
                except ValueError as e:
                    raise EventLogError(f"line {lineno}: {e}") from e
                log.append(InteractionEvent(step, user, item, bool(exp), bool(clk)))
        return log


def creator_view(
    log: EventLog, creator: int, owned: Iterable[int], item: int, frm: int, to: int
) -> tuple[int, int]:
    """Feedback counts for `item` as visible to `creator`.

    Identical to ``log.tally`` when the item is owned; raises
    :class:`AsymmetryViolation` otherwise. All creator-side feedback reads
    must go through this function.
    """
    owned_set = owned if isinstance(owned, AbstractSet) else set(owned)
    if item not in owned_set:
        raise AsymmetryViolation(f"creator {creator} queried foreign item {item}")
    return log.tally(item, frm, to)


# ---------------------------------------------------------------------------
# Item catalog


@dataclass(frozen=True)
class ItemRecord:
    item_id: int
    creator_id: int
    genre: int
    title: str
    tags: tuple[str, ...]
    description: str
    created_step: int


class Catalog:
    """All items on the platform, seeded and simulated, in creation order."""

    CSV_HEADER = "item_id,creator_id,genre,title,tags,description,created_step"

    def __init__(self) -> None:
        self._items: list[ItemRecord] = []

    def __len__(self) -> int:
        return len(self._items)

    def __iter__(self) -> Iterator[ItemRecord]:
        return iter(self._items)

    def __getitem__(self, item_id: int) -> ItemRecord:
        return self._items[item_id]

    def add(
        self,
        creator_id: int,
        genre: int,
        title: str,
        tags: Iterable[str],
        description: str,
        created_step: int,
    ) -> ItemRecord:
        rec = ItemRecord(
            item_id=len(self._items),
            creator_id=creator_id,
            genre=genre,
            title=title,
            tags=tuple(tags),
            description=description,
            created_step=created_step,
        )
        self._items.append(rec)
        return rec

    def to_csv(self, path: str | Path) -> None:
        import csv

        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(self.CSV_HEADER.split(","))
            for r in self._items:
                w.writerow(
                    [r.item_id, r.creator_id, r.genre, r.title, "|".join(r.tags), r.description, r.created_step]
                )

    @classmethod
    def from_csv(cls, path: str | Path) -> "Catalog":
        import csv

        cat = cls()
        with open(path, "r", encoding="utf-8", newline="") as f:
            reader = csv.reader(f)
            header = next(reader, None)
            if header != cls.CSV_HEADER.split(","):
                raise DataError(f"bad catalog header in {path}")
            for row in reader:
                item_id, creator_id, genre, title, tags, desc, step = row
                rec = cat.add(int(creator_id), int(genre), title, tags.split("|") if tags else [], desc, int(step))
                if rec.item_id != int(item_id):
                    raise DataError(f"non-contiguous item id {item_id} in {path}")
        return cat


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
