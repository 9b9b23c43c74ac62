"""The traced run: spans and counts around the program's layer boundaries.

The tracer wraps the public functions the harness calls, under the names the
harness looks them up by (module globals of `creatorsim.harness`, class
methods of the rankers and policies, `core.creator_view`, `EventLog.append`,
...). Each call records a span (name, start, end, parent, step, thread) in
memory; hooks add counts at the same boundary. A wrapper whose target is gone
is reported by name instead of failing the run.

Self time is measured inside the step loop only. A layer span's self time is
its duration minus the part its child spans cover; where spans on different
threads overlap, each instant is split evenly between the spans running then.
`harness.self_s` is the step time no layer span covers, so the per-layer self
times and `harness.self_s` add up to the traced run's summed step time.
"""

from __future__ import annotations

import csv
import importlib
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

LAYERS = ("core", "creator", "ingest", "llm", "metrics", "recsys", "rerank", "users")

# Phases of the step loop; they are containers for parent links and mark where a
# step starts (phase_create) and ends (phase_lifecycle), not a layer.
PHASES = ("phase_create", "phase_serve", "phase_feedback", "phase_beliefs", "phase_lifecycle")

RANKERS = ("RandomRanker", "PopRanker", "MfRanker", "BprRanker")
POLICIES = (
    ("creatorsim.creator", "RuleBasedPolicy"),
    ("creatorsim.llm", "LlmPolicy"),
    ("creatorsim.baselines", "CfdPolicy"),
    ("creatorsim.baselines", "LbrPolicy"),
    ("creatorsim.baselines", "SimulinePolicy"),
    ("creatorsim.baselines", "RandomPolicy"),
)


def _sgd_rows(self, args) -> int:
    passes = {"mf": 2, "bpr": 1}.get(getattr(self, "name", ""), 0)
    return len(args[0]) * getattr(self, "epochs", 0) * passes


# span name -> {counter: function(args, result) -> amount}; counted on every
# outermost call of that name that returns, inside the step loop or not
COUNTERS = {
    "recsys.retrain": {
        "recsys.retrain_calls": lambda a, r: 1,
        "recsys.retrain_clicks": lambda a, r: len(a[1]),
        "recsys.sgd_rows": lambda a, r: _sgd_rows(a[0], a[1:]),
    },
    "recsys.pool": {"recsys.pool_items": lambda a, r: len(r)},
    "recsys.rank": {"recsys.rank_calls": lambda a, r: 1},
    "recsys.session": {"recsys.sessions": lambda a, r: 1, "recsys.exposures": lambda a, r: len(r)},
    "rerank.rerank": {"rerank.calls": lambda a, r: 1},
    "creator.beliefs": {"creator.beliefs_items_scanned": lambda a, r: len(a[0].creations)},
    "creator.content": {"creator.creations": lambda a, r: 1},
    "metrics.cgd": {
        "metrics.cgd_calls": lambda a, r: 1,
        "metrics.cgd_events_scanned": lambda a, r: len(a[0]),
    },
    "core.view": {"core.view_calls": lambda a, r: 1},
    "llm.parse": {"llm.parses": lambda a, r: 1},
}

# span name -> counter bumped when the call raises
ERROR_COUNTERS = {"llm.parse": "llm.parse_failures"}

# counters that only count calls made inside the step loop
STEP_ONLY = {"core.log_append": {"core.log_events": lambda a, r: 1}}


def targets():
    """(module path, class name or None, attribute, span name) per wrapper."""
    h = "creatorsim.harness"
    found = [
        (h, None, "synth_dataset", "ingest.synth"),
        (h, None, "load_dataset", "ingest.load"),
        (h, None, "init_creator_seeds", "ingest.profiles"),
        (h, None, "init_user_seeds", "ingest.profiles"),
        (h, None, "build_candidate_pool", "recsys.pool"),
        (h, None, "rank_scored", "recsys.rank"),
        (h, None, "serve_session", "recsys.session"),
        (h, None, "mmr_rerank", "rerank.rerank"),
        (h, None, "fairrec_rerank", "rerank.rerank"),
        (h, None, "fairco_rerank", "rerank.rerank"),
        (h, None, "pmmf_rerank", "rerank.rerank"),
        (h, None, "is_active", "users.visit"),
        (h, None, "end_step", "users.end_step"),
        (h, None, "wants_to_create", "creator.wants_to_create"),
        (h, None, "item_utility", "creator.item_utility"),
        (h, None, "register_creation_outcome", "creator.register_outcome"),
        (h, None, "reward_percentile", "creator.reward_pct"),
        (h, None, "update_feedback_memory", "creator.feedback"),
        (h, None, "update_beliefs", "creator.beliefs"),
        (h, None, "content_genre_diversity", "metrics.cgd"),
        (h, None, "report", "harness.report"),
        ("creatorsim.core", None, "creator_view", "core.view"),
        ("creatorsim.core", "EventLog", "append", "core.log_append"),
        ("creatorsim.core", "EventLog", "to_csv", "core.csv_write"),
        ("creatorsim.core", "Catalog", "to_csv", "core.csv_write"),
        ("creatorsim.core", "EventLog", "from_csv", "core.csv_read"),
        ("creatorsim.core", "Catalog", "from_csv", "core.csv_read"),
        ("creatorsim.llm", None, "complete", "llm.complete"),
        ("creatorsim.llm", None, "parse_explore_action", "llm.parse"),
        ("creatorsim.llm", None, "parse_content", "llm.parse"),
        ("creatorsim.llm", None, "parse_profile_slot", "llm.parse"),
    ]
    found += [("creatorsim.recsys", cls, "retrain", "recsys.retrain") for cls in RANKERS]
    for module, cls in POLICIES:
        found += [
            (module, cls, "decide", "creator.decide"),
            (module, cls, "make_content", "creator.content"),
        ]
    found += [(h, "_World", phase, f"harness.{phase}") for phase in PHASES]
    return found


@dataclass
class Span:
    sid: int
    name: str
    start: float
    end: float
    parent: int | None
    step: int | None
    thread: int


class Tracer:
    """Installs wrappers, records spans and counts, and removes the wrappers."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.missing: list[str] = []
        self.steps: list[tuple[float, float]] = []  # (start, end) of each step
        self._ids = itertools.count()
        self._local = threading.local()
        self._main = threading.get_ident()
        self._main_stack: list[tuple[int, str]] = []  # (span id, name) of open spans
        self._step: int | None = None
        self._step_start = 0.0
        self._undo: list[tuple[object, str, object, bool]] = []

    # -- installing ---------------------------------------------------------

    def __enter__(self) -> "Tracer":
        for module_path, cls_name, attr, name in targets():
            label = f"{module_path}.{cls_name + '.' if cls_name else ''}{attr}"
            try:
                owner = importlib.import_module(module_path)
                if cls_name:
                    owner = getattr(owner, cls_name)
                target = getattr(owner, attr)
            except (ImportError, AttributeError):
                self.missing.append(label)
                continue
            if cls_name and isinstance(owner.__dict__.get(attr), classmethod):
                wrapped = classmethod(self._wrap(name, attr, target.__func__))
            else:
                wrapped = self._wrap(name, attr, target)
            self._undo.append((owner, attr, owner.__dict__.get(attr), attr in owner.__dict__))
            setattr(owner, attr, wrapped)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, original, owned in reversed(self._undo):
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def _stack(self) -> list[tuple[int, str]]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, attr: str, fn):
        tracer = self
        counters = COUNTERS.get(name, {})
        step_counters = STEP_ONLY.get(name, {})
        error_counter = ERROR_COUNTERS.get(name)
        starts_step = attr == "phase_create"
        ends_step = attr == "phase_lifecycle"

        def wrapper(*args, **kwargs):
            if starts_step:
                tracer._open_step(args[1])
            stack = tracer._stack()
            sid = next(tracer._ids)
            if stack:
                parent = stack[-1][0]
            elif tracer._main_stack:  # first span on a worker thread
                parent = tracer._main_stack[-1][0]
            else:
                parent = None
            outermost = all(open_name != name for _, open_name in stack)
            stack.append((sid, name))
            step = tracer._step
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                if error_counter and outermost:
                    tracer.counts[error_counter] += 1
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(Span(sid, name, start, end, parent, step, threading.get_ident()))
            if outermost:
                for counter, amount in counters.items():
                    tracer.counts[counter] += amount(args, result)
                if step is not None:
                    for counter, amount in step_counters.items():
                        tracer.counts[counter] += amount(args, result)
            if ends_step:
                tracer._close_step()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        return wrapper

    def _open_step(self, n: int) -> None:
        self._step = n
        self._step_start = time.perf_counter()

    def _close_step(self) -> None:
        self.steps.append((self._step_start, time.perf_counter()))
        self._step = None

    # -- results ------------------------------------------------------------

    def inclusive_seconds(self, step_only: bool = False) -> dict[str, float]:
        """Summed duration per span name, outermost calls of that name only."""
        by_id = {s.sid: s for s in self.spans}
        totals: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if step_only and s.step is None:
                continue
            parent = by_id.get(s.parent)
            while parent is not None and parent.name != s.name:
                parent = by_id.get(parent.parent)
            if parent is None:
                totals[s.name] += s.end - s.start
        return totals

    def self_seconds(self) -> dict[str, float]:
        """Self time per layer inside the step loop, plus `harness` for the rest."""
        layer_spans = [s for s in self.spans if s.step is not None and s.name.split(".")[0] in LAYERS]
        children: dict[int, list[Span]] = defaultdict(list)
        for s in layer_spans:
            children[s.parent].append(s)
        intervals = []  # (start, end, layer) pieces of self time
        for s in layer_spans:
            cursor = s.start
            for child in sorted(children.get(s.sid, ()), key=lambda c: c.start):
                if child.start > cursor:
                    intervals.append((cursor, child.start, s.name.split(".")[0]))
                cursor = max(cursor, child.end)
            if s.end > cursor:
                intervals.append((cursor, s.end, s.name.split(".")[0]))
        shares = _split_overlaps(intervals)
        step_total = sum(end - start for start, end in self.steps)
        shares["harness"] = step_total - sum(shares.values())
        shares["step_total"] = step_total
        return shares

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8", newline="") as f:
            w = csv.writer(f, lineterminator="\n")
            w.writerow(["id", "name", "start_s", "end_s", "parent", "step", "thread"])
            t0 = min((s.start for s in self.spans), default=0.0)
            for s in sorted(self.spans, key=lambda s: s.sid):
                w.writerow(
                    [s.sid, s.name, f"{s.start - t0:.7f}", f"{s.end - t0:.7f}",
                     "" if s.parent is None else s.parent, "" if s.step is None else s.step, s.thread]
                )


def _split_overlaps(intervals: list[tuple[float, float, str]]) -> dict[str, float]:
    """Attribute covered time to layers, splitting overlaps evenly."""
    edges = []
    for start, end, layer in intervals:
        edges.append((start, 1, layer))
        edges.append((end, -1, layer))
    edges.sort(key=lambda e: (e[0], e[1]))
    active: dict[str, int] = defaultdict(int)
    n_active = 0
    shares: dict[str, float] = defaultdict(float)
    last = None
    for t, delta, layer in edges:
        if n_active and last is not None and t > last:
            dt = t - last
            for name, count in active.items():
                if count:
                    shares[name] += dt * count / n_active
        active[layer] += delta
        n_active += delta
        last = t
    return shares
