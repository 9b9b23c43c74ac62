"""Run orchestration: the per-step phase loop, the snapshot/commit barrier,
artifact persistence, and post-hoc reporting.

Each step executes CREATE, POOL, RETRAIN (on schedule), SERVE, and LIFECYCLE
in that order. CREATE picks the creators that create with one comparison of
each alive creator's next uniform against its creation probability, and only
those think; SERVE picks its visitors with one comparison of each user's next
uniform against its visit probability, and a visitor's session reads that
user's following uniforms. The uniforms are each agent's own seeded stream,
drawn ahead in blocks by `core.UniformStreams`: the same doubles, in the same
order, as one scalar draw at a time. SERVE ranks every visitor from one
`recsys.PoolView` of the step's pool (the ranker's scorer and the pool's tie
order, both built once per step), gathers the step's events, one per served
item with its click flag, as columns, appends them to the log as one block,
and adds them to the catalog's exposure and click totals. Users are rows of the
world's arrays (preference, visit probability, satiation counters); a session's
skip streak lives only inside `users.serve_session`. Creators' liveness and
zero-click streaks are rows of the world's arrays too, and CREATE applies the
departure rule beside the DEPART row it writes: a click on a creator's latest
creation resets its streak, a miss extends it, and a streak at
`departure_threshold` departs the creator before it decides. SERVE drops
departed creators' items from the same step's pool, and LIFECYCLE counts the
alive from the same array. LIFECYCLE decays every user's satiation counters,
rows of one (n_users, n_genres) table, in one in-place multiply.
The fairness re-rankers read creator-indexed arrays: the served exposure per
creator, which SERVE adds the step's exposures to at its end, and P-MMF's
duals, which change visitor by visitor inside the serial SERVE loop.
Agents read the previous step's committed world and mutate only their own
state; cross-agent effects (the event log, the catalog, the exposure counts)
are committed at phase barriers in stable id order. Every phase runs in one
thread, CREATE included. For each creating creator, in id order, it reads the
rows the creator owns once, with `core.creator_view`, and keeps the read as the
creator's memory, all a policy sees: from it come the utilities at this step
and the last, the last creation's outcome (a creator may depart here), the
belief refresh, and the reward percentile and latest utility. (Creators hold no
catalog; only the LLM policy's profile summaries read one more time, at world
build.) It then asks the policy for all their creations with one `create` call
and commits them in id order. The only I/O, the LLM policy's completion calls,
fans out over `workers` threads inside that call, and its replies are parsed in
creator order, so results are bit-identical for any worker count.
The retrain schedule starts with a step-0 retrain on the dataset's
interactions, after the dataset is freed. The world keeps one click table,
seeded with those interactions at step 0, and each retrain extends it with the
clicks logged since the last one, then hands it to the ranker, empty or not.
Metrics are always recomputed from the persisted artifacts, which makes every
run replayable and every report reproducible; the report first checks the
trace against the catalog and the timeseries against the log and the trace.
"""

from __future__ import annotations

import json
import time
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import core
from .core import (
    Catalog,
    DataError,
    EventLog,
    EventLogError,
    Records,
    SchemaError,
    SimConfig,
    SimError,
    UniformStreams,
    stream,
    write_records,
)
from .creator import (
    Beliefs,
    CreatorRuntime,
    RuleBasedPolicy,
    item_utility,
    reward_percentile,
    update_beliefs,
)
from .baselines import CfdPolicy, LbrPolicy, RandomPolicy, SimulinePolicy
from .ingest import Dataset, SynthParams, load_dataset, synth_dataset
from .ingest import _median, init_creator_seeds, init_user_seeds
from .metrics import (
    EmptyItems,
    NoCreatorsAtStart,
    NoExposures,
    alignment_from_distributions,
    content_genre_diversity,
    creator_retention_rate,
    explore_exploit_table,
    genre_histogram,
    normalized_reward_curve,
    per_creator_entropies,
    total_user_welfare,
)
from .recsys import build_candidate_pool, make_ranker, pool_view, rank_scored
from .rerank import (
    fairco_errors,
    fairco_rerank,
    fairrec_rerank,
    fairrec_under_served,
    mmr_rerank,
    pmmf_rerank,
)
from .users import serve_session


class ArtifactError(DataError):
    pass


class MissingArtifact(ArtifactError):
    """A required run file is absent."""


class CorruptLog(ArtifactError):
    """A persisted artifact fails its own consistency rules."""


class EmptyInput(SimError):
    """compare() called without any run directories."""


EVENTS_FILE = "events.csv"
ITEMS_FILE = "items.csv"
TRACE_FILE = "creator_trace.csv"
TIMESERIES_FILE = "timeseries.csv"
CONFIG_FILE = "config.txt"
METRICS_FILE = "metrics.json"
SUMMARY_FILE = "dataset_summary.json"

TRACE_COLUMNS = tuple("step creator_id action_kind genre item_id utility_of_last alive reward_pct".split())
TIMESERIES_COLUMNS = tuple("step tuw_cum alive_creators cgd_window step_seconds".split())


@dataclass
class RunArtifacts:
    out_dir: Path
    seed: int
    report: dict
    tuw_incremental: int


def _build_policy(cfg: SimConfig, genres, transport=None):
    rule = RuleBasedPolicy(
        genres,
        p_max=cfg.creagent_p_explore_max,
        p_min=cfg.creagent_p_explore_min,
        memory_k=cfg.creagent_memory_k,
    )
    if cfg.creator_policy == "creagent":
        return rule
    if cfg.creator_policy == "creagent_llm":
        from .llm import LlmPolicy

        return LlmPolicy(cfg, genres, rule, transport=transport)
    if cfg.creator_policy == "cfd":
        return CfdPolicy(genres, lr=cfg.cfd_lr, memory_k=cfg.creagent_memory_k)
    if cfg.creator_policy == "lbr":
        return LbrPolicy(genres, step_size=cfg.lbr_step_size, memory_k=cfg.creagent_memory_k)
    if cfg.creator_policy == "simuline":
        return SimulinePolicy(genres, memory_k=cfg.creagent_memory_k)
    if cfg.creator_policy == "random":
        return RandomPolicy(genres, memory_k=cfg.creagent_memory_k)
    raise SimError(f"unknown creator policy {cfg.creator_policy!r}")


def _index_of(ids: np.ndarray, query: np.ndarray) -> np.ndarray:
    """Each query id's position in `ids`, its last one if repeated, or -1 if absent."""
    order = np.argsort(ids, kind="stable")
    pos = np.searchsorted(ids[order], query, side="right") - 1
    found = pos >= 0
    found[found] = ids[order[pos[found]]] == query[found]
    index = np.full(len(query), -1, dtype=np.int64)
    index[found] = order[pos[found]]
    return index


class _World:
    """Mutable run state; built once from (config, dataset)."""

    def __init__(self, cfg: SimConfig, data: Dataset, transport=None):
        self.cfg = cfg
        self.genres = data.genres
        G = len(self.genres)

        # Re-index the dataset once: kept users and creators by id, their
        # items in historical order as catalog rows (created at step 0), and
        # the interactions among them as (user, item, day) rows.
        users = sorted(data.users, key=lambda u: u.user_id)[: cfg.n_users]
        creators = sorted(data.creators, key=lambda c: c.creator_id)[: cfg.n_creators]
        items = data.items
        creator_ids = np.asarray([c.creator_id for c in creators], dtype=np.int64)
        creator_of = _index_of(creator_ids, items.creator_id)
        rows = np.flatnonzero(creator_of >= 0)  # the kept items, by (created_day, item_id)
        rows = rows[np.lexsort((items.item_id[rows], items.created_day[rows]))]
        picked = rows.tolist()
        self.catalog = Catalog()
        self.catalog.extend(
            creator_of[rows], items.genre[rows], np.zeros(len(rows), dtype=np.int64),
            [items.title[i] for i in picked], [items.tags[i] for i in picked],
            [items.description[i] for i in picked],
        )
        user = _index_of(np.asarray([u.user_id for u in users], dtype=np.int64), data.interactions.user_id)
        item = _index_of(items.item_id[rows], data.interactions.item_id)
        kept = (user >= 0) & (item >= 0)
        seen = np.column_stack((user[kept], item[kept], data.interactions.day[kept]))
        # the dataset's interactions train the ranker as clicks at step 0, and
        # count toward each seed item's exposure and click totals
        self.clicks, self.last_retrain = seen * (1, 1, 0), 0
        counts = np.bincount(seen[:, 1], minlength=len(rows))
        self.catalog.add_feedback(np.arange(len(rows)), counts, counts)

        owner, genre = self.catalog.creator_id, self.catalog.genre
        activity, skill, audience = init_creator_seeds(
            owner, genre, items.created_day[rows], counts, len(creators), G
        )
        preference, user_activity = init_user_seeds(
            seen[:, 0], genre[seen[:, 1]], seen[:, 2], len(users), G
        )

        # users are rows: genre preference, visit probability per step, and
        # satiation counters, decayed in one op
        self.preference = preference
        self.activity = user_activity
        self.recent_exposure = np.zeros((len(users), G))
        self.population_preference = np.mean(preference, axis=0)
        # with full information every creator believes the population's preference
        self.revealed_audience = self.population_preference if cfg.creator_full_information else None
        if self.revealed_audience is not None:
            audience[:] = self.revealed_audience

        follower_median = float(_median([c.followers for c in creators]))
        # a creator's id is its row; one uniform a step decides whether it
        # creates, against its activity over the population's highest
        eta = activity.max(initial=0.0)
        self.create_prob = activity / eta if eta > 0 else np.zeros(len(creators))
        n_own = np.bincount(owner, minlength=len(creators))
        self.creators = [
            CreatorRuntime(
                creator_id=c,
                name=row.name,
                identity=f"{self.genres[np.argmax(skill[c])]} enthusiast" if n_own[c] else "new creator",
                motivation="profit" if row.followers > follower_median else "sharing",
                activity=float(activity[c]),
                n_genres=G,
                beliefs=Beliefs(skill=skill[c], audience=audience[c]),
            )
            for c, row in enumerate(creators)
        ]

        self.ranker = make_ranker(
            cfg.ranker, n_users=len(users), seed=cfg.seed, pop_window=cfg.pop_window,
            **cfg.section("mf"),
        )

        self.policy = _build_policy(cfg, self.genres, transport)
        if hasattr(self.policy, "register"):
            for state in self.creators:
                self.policy.register(state)
        if cfg.creator_policy == "creagent_llm":
            for state in self.creators:
                state.own = core.creator_view(self.catalog, state.creator_id)
            self.policy.summarize_profiles(self.creators, [c.followers for c in creators])

        self.log = EventLog()
        # creators are rows too: liveness, and the zero-click creations in a
        # row since the last click, which decide it
        self.alive = np.ones(len(self.creators), dtype=bool)
        self.zero_click_streak = np.zeros(len(self.creators), dtype=np.int64)
        # served exposures per creator since warm-up, and P-MMF's dual variables
        self.exposure = np.zeros(len(self.creators), dtype=np.int64)
        self.duals = np.zeros(len(self.creators))
        self.creator_draws = UniformStreams(cfg.seed, "creator_activity", len(self.creators))
        self.creator_policy_rng = [stream(cfg.seed, "creator_policy", c.creator_id) for c in self.creators]
        # a user's visit and session draws
        self.user_draws = UniformStreams(cfg.seed, "user", len(users))
        self.trace_rows: list[tuple] = []  # rows of TRACE_FILE, floats formatted, as are timeseries_rows
        self.timeseries_rows: list[tuple] = []
        self.tuw_incremental = 0

    def retrain(self, n: int) -> None:
        """Add the log's clicks since the last retrain to the click table, then retrain the ranker on it."""
        log, rows = self.log, self.log.span(self.last_retrain, n - 1)  # retrain m precedes step m's clicks
        logged = np.column_stack((log.user[rows], log.item[rows], log.step[rows]))[log.clicked[rows]]
        self.clicks, self.last_retrain = np.concatenate((self.clicks, logged)), n
        self.ranker.retrain(self.clicks, self.catalog, n)

    # -- phases -------------------------------------------------------------

    def run_steps(self) -> None:
        """The step-0 retrain, then steps 1 to n_steps; a step's pool ends with this call."""
        cfg = self.cfg
        self.retrain(0)
        for n in range(1, cfg.n_steps + 1):
            started = time.perf_counter()
            self.phase_create(n)
            pool = build_candidate_pool(self.catalog, n, cfg.timeliness_window)
            if n % cfg.retrain_period == 0:
                self.retrain(n)
            self.phase_serve(n, pool)
            self.phase_lifecycle(n, time.perf_counter() - started)

    def phase_create(self, n: int) -> None:
        cfg = self.cfg
        # one draw per alive creator, on that creator's stream; only those that pass think
        alive = np.flatnonzero(self.alive)
        creating = alive[self.creator_draws.draw(alive) < self.create_prob[alive]]
        slots, states = [], []  # the trace row slot of each creator that decides
        for c in creating.tolist():
            # the creator's one read of its rows; a creator that decided
            # before created then, so its latest item awaits its outcome
            state = self.creators[c]
            own = state.own = core.creator_view(self.catalog, c)
            weighted = cfg.beta * own.exposures + (1.0 - cfg.beta) * own.clicks
            utilities = item_utility(state, weighted, n)
            z_last = state.last_utility = float(utilities[-1]) if len(utilities) else None
            if state.creation_count:
                # a click resets the streak; at the threshold the creator departs
                streak = 0 if own.clicks[-1] else self.zero_click_streak[c] + 1
                self.zero_click_streak[c] = streak
                if streak >= cfg.departure_threshold:
                    self.alive[c] = False
                    self.trace_rows.append((n, c, "DEPART", "", "", f"{z_last:.10g}", "false", ""))
                    continue
            # the totals last changed in SERVE at step n - 1; step 1 decides
            # on the seed beliefs
            if n > 1:
                update_beliefs(state, item_utility(state, weighted, n - 1))
                if self.revealed_audience is not None:
                    state.beliefs.audience = self.revealed_audience
            state.reward_pct = reward_percentile(utilities)
            slots.append(len(self.trace_rows))
            states.append(state)
            self.trace_rows.append(None)  # written once the creation is committed

        rngs = [self.creator_policy_rng[state.creator_id] for state in states]
        created = self.policy.create(states, n, rngs)
        for slot, state, (action, content) in zip(slots, states, created):
            item = self.catalog.add(
                state.creator_id, content.genre, content.title, content.tags, content.description, n
            )
            state.creation_count += 1
            z_text = "" if state.last_utility is None else f"{state.last_utility:.10g}"
            self.trace_rows[slot] = (
                n, state.creator_id, action.kind.value, content.genre, item, z_text, "true",
                f"{state.reward_pct:.10g}",
            )

    def phase_serve(self, n: int, pool) -> None:
        """Serve this step's visitors and commit their events."""
        cfg = self.cfg
        K = cfg.list_length
        reranker = cfg.reranker if n >= cfg.warmup else "none"
        top_m = K if reranker == "none" else cfg.rerank_pool_multiplier * K
        owner, genre, alive = self.catalog.creator_id, self.catalog.genre, self.alive
        alive_ids = np.flatnonzero(alive)
        # exposure changes only at the end of SERVE, so what is read from it is fixed for the step
        if reranker == "fairrec":
            under = fairrec_under_served(self.exposure, alive_ids, cfg.fairrec_min_share)
        elif reranker == "fairco":
            errors = fairco_errors(self.exposure, alive_ids)

        # departed creators' items leave the platform with them
        pool = pool[alive[owner[pool]]]

        # one draw per user, on that user's stream
        draws = self.user_draws.draw(np.arange(len(self.activity)))
        active = np.flatnonzero(draws < self.activity).tolist()

        view = pool_view(self.ranker, pool, self.catalog)
        users, items, clicks = [], [], []
        for idx in active:
            ranked, scores = rank_scored(view, idx, top_m)
            if reranker == "none":
                final = ranked[:K]
            elif reranker == "mmr":
                final = ranked[mmr_rerank(scores, genre[ranked], ranked, cfg.mmr_lambda, K)]
            elif reranker == "fairrec":
                final = ranked[fairrec_rerank(owner[ranked], under, K)]
            elif reranker == "fairco":
                final = ranked[fairco_rerank(scores, owner[ranked], errors, cfg.fairco_lambda)[:K]]
            else:
                final = ranked[pmmf_rerank(
                    scores, owner[ranked], self.duals, cfg.pmmf_eta_dual, K, alive_ids,
                    cfg.pmmf_dual_max,
                )]
            flags = serve_session(
                genre[final],
                self.preference[idx],
                self.recent_exposure[idx],
                self.user_draws.peek(idx, 2 * len(final)),
                alpha_click=cfg.user_alpha_click,
                exit_base=cfg.user_exit_base,
                exit_per_skip=cfg.user_exit_per_skip,
            )
            # a click read one uniform, a miss two
            self.user_draws.advance(idx, 2 * len(flags) - sum(flags))
            users += [idx] * len(flags)
            items.append(final[: len(flags)])
            clicks += flags

        # an event is a served item; the log keeps a step's events by (user, item)
        user = np.array(users, dtype=np.int64)
        item = np.concatenate(items) if items else np.empty(0, np.int64)
        order = np.lexsort((item, user))
        user, item, clicked = user[order], item[order], np.array(clicks, dtype=bool)[order]
        self.log.extend(n, user, item, clicked)
        self.catalog.add_feedback(item, 1, clicked)
        if cfg.warmup <= n <= cfg.n_steps:
            self.tuw_incremental += int(np.count_nonzero(clicked))
        if n >= cfg.warmup:
            self.exposure += np.bincount(owner[item], minlength=len(self.exposure))

    def phase_lifecycle(self, n: int, step_seconds: float) -> None:
        cfg = self.cfg
        alive = int(np.count_nonzero(self.alive))
        self.recent_exposure *= cfg.user_novelty_decay
        window_lo = max(1, n - cfg.timeliness_window + 1)
        try:
            cgd_window = content_genre_diversity(
                self.log.window(window_lo, n), self.catalog.genre, len(self.genres), window_lo, n
            )
            cgd_text = f"{cgd_window:.10g}"
        except NoExposures:
            cgd_text = ""
        self.timeseries_rows.append((n, self.tuw_incremental, alive, cgd_text, f"{step_seconds:.6f}"))

    # -- persistence ----------------------------------------------------------

    def write_artifacts(self, out_dir: Path) -> None:
        out_dir.mkdir(parents=True, exist_ok=True)
        self.log.to_csv(out_dir / EVENTS_FILE)
        self.catalog.to_csv(out_dir / ITEMS_FILE)
        write_records(out_dir / TRACE_FILE, TRACE_COLUMNS, self.trace_rows)
        write_records(out_dir / TIMESERIES_FILE, TIMESERIES_COLUMNS, self.timeseries_rows)
        (out_dir / CONFIG_FILE).write_text(self.cfg.to_text(), encoding="utf-8")
        # the alignment reference, the seed items, is the step-0 rows of ITEMS_FILE
        summary = {
            "genres": list(self.genres),
            "n_creators": len(self.creators),
            "n_users": len(self.preference),
            "population_preference": self.population_preference.tolist(),
        }
        with open(out_dir / SUMMARY_FILE, "w", encoding="utf-8", newline="\n") as f:
            json.dump(summary, f, sort_keys=True, indent=2)
            f.write("\n")


def run_simulation(cfg: SimConfig, out_dir: str | Path = "run", transport=None) -> RunArtifacts:
    """Execute the full step loop and persist all artifacts under `out_dir`.

    The dataset is `cfg.data_dir`'s, or synthesized from `cfg` when that is
    empty, so the run's `config.txt` replays it.
    """
    cfg.validate()
    if cfg.data_dir:
        data = load_dataset(cfg.data_dir)
    else:
        data = synth_dataset(SynthParams.from_config(cfg), stream(cfg.seed, "synth"))
    world = _World(cfg, data, transport)
    del data  # the world keeps what it needs; the dataset is freed
    world.run_steps()
    out_dir = Path(out_dir)
    world.write_artifacts(out_dir)
    tuw_incremental = world.tuw_incremental
    # report() re-reads the artifacts; the run state is freed first, so the
    # run holds one of the two at a time
    del world
    metrics = report(out_dir)
    with open(out_dir / METRICS_FILE, "w", encoding="utf-8", newline="\n") as f:
        json.dump(metrics, f, sort_keys=True, indent=2)
        f.write("\n")
    return RunArtifacts(out_dir=out_dir, seed=cfg.seed, report=metrics, tuw_incremental=tuw_incremental)


# ---------------------------------------------------------------------------
# Post-hoc reporting


def _require(path: Path) -> Path:
    if not path.exists():
        raise MissingArtifact(f"missing artifact {path}")
    return path


def _read_trace(path: Path, catalog: Catalog) -> tuple[list[tuple[int, int]], list[tuple[float, str]]]:
    """The (step, creator) of each DEPART row and the (reward_pct, kind) of each decision.

    A creator has at most one row a step and none after the step it departs
    at, and each decision names its creation: the catalog row created at its
    step by its creator in its genre, with a reward percentile in [0, 1].
    Every created item has its decision.
    """
    departs, decisions, seen = [], [], set()
    departed, latest = {}, {}  # each creator's DEPART step, and the step of its latest row
    owner, genre, created = catalog.creator_id, catalog.genre, catalog.created_step
    with ExitStack() as files:
        rows = Records(files, path, TRACE_COLUMNS, ("step", "creator_id"))
        for step, creator, kind, genre_text, item_text, *_, reward_pct in rows:
            if (step, creator) in seen:  # a creator departs or decides, once a step
                raise CorruptLog(f"{rows.where}: second row of creator {creator} at step {step}")
            seen.add((step, creator))
            if kind not in ("DEPART", "EXPLORE", "EXPLOIT"):
                raise CorruptLog(f"{rows.where}: action kind {kind!r} is not DEPART, EXPLORE or EXPLOIT")
            if step > departed.get(creator, step):
                raise CorruptLog(f"{rows.where}: creator {creator} departed at step {departed[creator]}")
            if kind == "DEPART" and latest.get(creator, step) > step:
                raise CorruptLog(f"{rows.where}: creator {creator} has a row at step {latest[creator]}")
            latest[creator] = max(step, latest.get(creator, step))
            if kind == "DEPART":
                departed[creator] = step
                departs.append((step, creator))
                continue
            try:
                item, g, pct = core.parse_int(item_text), core.parse_int(genre_text), float(reward_pct)
            except ValueError as e:
                raise SchemaError(f"{rows.where}: {e}") from e
            if not 0 <= pct <= 1:  # NaN included
                raise CorruptLog(f"{rows.where}: reward_pct {reward_pct!r} outside [0, 1]")
            made = (created[item], owner[item], genre[item]) if 0 <= item < len(catalog) else None
            if step < 1 or made != (step, creator, g):
                raise CorruptLog(
                    f"{rows.where}: item {item} is not creator {creator}'s step-{step} creation in genre {g}"
                )
            decisions.append((pct, kind))
    # a second decision naming an item would repeat its (step, creator)
    n_created = int(np.count_nonzero(created >= 1))
    if len(decisions) != n_created:
        raise CorruptLog(f"{path.name}: {len(decisions)} decisions for {n_created} created items")
    return departs, decisions


@contextmanager
def _reading(name: str, *errors: type[Exception]):
    """Turn bytes that are not UTF-8, or `errors`, while reading `name` into CorruptLog."""
    try:
        yield
    except (UnicodeDecodeError, *errors) as e:
        raise CorruptLog(f"{name}: {type(e).__name__}: {e}") from e


def report(run_dir: str | Path, baseline_dir: str | Path | None = None) -> dict:
    """Recompute the full metrics report from the persisted artifacts.

    With `baseline_dir`, the normalized reward curve is filled in: the run's
    cumulative per-step creator reward divided by the baseline run's.
    """
    run_dir = Path(run_dir)
    cfg = SimConfig.from_file(_require(run_dir / CONFIG_FILE))
    with _reading(EVENTS_FILE, EventLogError):
        log = EventLog.from_csv(_require(run_dir / EVENTS_FILE))
    catalog = Catalog.from_csv(_require(run_dir / ITEMS_FILE))
    departs, decisions = _read_trace(_require(run_dir / TRACE_FILE), catalog)
    with _reading(SUMMARY_FILE, ValueError, KeyError, TypeError):
        with open(_require(run_dir / SUMMARY_FILE), "r", encoding="utf-8") as f:
            summary = json.load(f)
        n_creators, n_users = summary["n_creators"], summary["n_users"]
        if type(n_creators) is not int or type(n_users) is not int:
            raise TypeError(f"n_creators {n_creators!r} or n_users {n_users!r} is not an integer")
        n_genres = len(summary["genres"])

    start, end = cfg.warmup, cfg.n_steps
    if not ((log.step >= 1) & (log.step <= end)).all():
        raise CorruptLog(f"{EVENTS_FILE}: step outside [1, {end}]")
    for name, column, size in (("item", log.item, len(catalog)), ("user", log.user, n_users)):
        if not (column < size).all():
            raise CorruptLog(f"{EVENTS_FILE}: {name} outside [0, {size})")
    for name, column, lo, hi in (
        ("genre", catalog.genre, 0, n_genres - 1),
        ("creator_id", catalog.creator_id, 0, n_creators - 1),
        ("created_step", catalog.created_step, 0, end),
    ):
        if not ((column >= lo) & (column <= hi)).all():
            raise CorruptLog(f"{ITEMS_FILE}: {name} outside [{lo}, {hi}]")

    departures = sorted(step for step, _ in departs)
    departed = [creator for _, creator in departs]
    for bad, what in (
        (any(not 0 <= c < n_creators for c in departed), f"creator outside [0, {n_creators})"),
        (any(not 1 <= s <= end for s in departures), f"step outside [1, {end}]"),
    ):
        if bad:
            raise CorruptLog(f"{TRACE_FILE}: DEPART {what}")

    def alive_at(step: int) -> int:
        return n_creators - sum(1 for s in departures if s <= step)

    # the per-step record agrees with the log and the trace, and sizes every per-step array
    checked = ("step", "tuw_cum", "alive_creators")
    with ExitStack() as files:
        series = list(Records(files, _require(run_dir / TIMESERIES_FILE), checked, checked))
    if len(series) != end or [row[0] for row in series] != list(range(1, end + 1)):
        raise CorruptLog(f"{TIMESERIES_FILE}: steps are not 1 to {end}")
    clicks = np.bincount(log.step[log.clicked], minlength=end + 1)
    clicks[:start] = 0  # welfare counts from warm-up
    for (step, *recorded), tuw_cum in zip(series, np.cumsum(clicks)[1:].tolist()):
        if recorded != [tuw_cum, alive_at(step)]:
            raise CorruptLog(
                f"{TIMESERIES_FILE}: tuw_cum and alive_creators at step {step} are {recorded}, "
                f"the log and trace give {[tuw_cum, alive_at(step)]}"
            )

    tuw = total_user_welfare(log, start, end)
    try:
        crr = creator_retention_rate(alive_at, start, end)
    except NoCreatorsAtStart:
        crr = None
    try:
        cgd = content_genre_diversity(log, catalog.genre, n_genres, start, end)
    except NoExposures:
        cgd = None

    # simulated creations against the seed items, the catalog's step-0 rows
    simulated = catalog.created_step >= 1
    sim_genre, ref_genre = catalog.genre[simulated], catalog.genre[~simulated]
    try:
        preference_jsd, diversity_jsd = alignment_from_distributions(
            genre_histogram(sim_genre, n_genres),
            genre_histogram(ref_genre, n_genres),
            per_creator_entropies(catalog.creator_id[simulated], sim_genre, n_genres),
            per_creator_entropies(catalog.creator_id[~simulated], ref_genre, n_genres),
            n_genres,
        )
    except EmptyItems:
        preference_jsd, diversity_jsd = None, None

    table = explore_exploit_table(decisions)

    rewarded = log.clicked & simulated[log.item]
    reward_per_step = np.bincount(log.step[rewarded] - 1, minlength=end).tolist()

    normalized = None
    if baseline_dir is not None:
        baseline = report(baseline_dir)["reward_per_step"]
        if len(baseline) != end:
            raise ArtifactError(f"baseline {baseline_dir} has {len(baseline)} steps, the run {run_dir} has {end}")
        normalized = normalized_reward_curve(reward_per_step, baseline)

    return {
        "tuw": tuw,
        "crr": crr,
        "cgd": cgd,
        "alive_at_start": alive_at(start),
        "alive_at_end": alive_at(end),
        "preference_jsd": preference_jsd,
        "diversity_jsd": diversity_jsd,
        "explore_exploit": table,
        "reward_per_step": reward_per_step,
        "normalized_reward": normalized,
        "seed": cfg.seed,
    }


def compare(run_dirs, metric_keys=("tuw", "crr", "cgd")) -> list[dict]:
    """Group runs by configuration-minus-seed; mean and sd per metric."""
    run_dirs = [Path(d) for d in run_dirs]
    if not run_dirs:
        raise EmptyInput("no run directories to compare")
    conditions: dict[tuple, dict] = {}
    for d in run_dirs:
        pairs = core.read_kv_file(_require(d / CONFIG_FILE))
        pairs.pop("seed", None)
        key = tuple(sorted(pairs.items()))
        with _reading(METRICS_FILE, ValueError, TypeError, AttributeError):
            with open(_require(d / METRICS_FILE), "r", encoding="utf-8") as f:
                metrics = json.load(f)
            values = {k: metrics.get(k) for k in metric_keys}
            if any(v is not None and not isinstance(v, (int, float)) for v in values.values()):
                raise TypeError(f"non-numeric metric in {values}")
        conditions.setdefault(key, {"pairs": pairs, "runs": []})["runs"].append(values)

    # label conditions by the keys on which they actually differ; a key a run
    # lacks differs, with an empty value
    all_pairs = [c["pairs"] for c in conditions.values()]
    differing = sorted(
        k
        for k in set().union(*all_pairs)
        if any(p.get(k) != all_pairs[0].get(k) for p in all_pairs)
    )
    rows = []
    for key, cond in sorted(conditions.items()):
        if differing:
            label = ",".join(f"{k}={cond['pairs'].get(k, '')}" for k in differing)
        else:
            label = ",".join(
                f"{k}={cond['pairs'].get(k, '')}" for k in ("ranker", "reranker", "creator_policy")
            )
        stats = {}
        for metric in metric_keys:
            values = [r[metric] for r in cond["runs"] if r[metric] is not None]
            if not values:
                stats[metric] = {"mean": None, "sd": None}
                continue
            mean = float(np.mean(values))
            sd = float(np.std(values, ddof=1)) if len(values) > 1 else 0.0
            stats[metric] = {"mean": mean, "sd": sd}
        rows.append({"label": label, "n_runs": len(cond["runs"]), "metrics": stats})
    return rows
