"""Optional adapter driving creator thinking through a chat-completion
service.

The simulator never needs this module: every call site has a deterministic
fallback, and runs with the adapter disabled perform no network activity.
When enabled, the slow-thinking prompt asks for `[EXPLORE]: <genre>` /
`[EXPLOIT]: <genre>` replies and the fast-thinking prompt for a JSON object;
anything unparsable falls back to the rule-based policy, so a misbehaving
model degrades the run to deterministic behavior instead of breaking it.
"""

from __future__ import annotations

import json
import os
import re
from dataclasses import dataclass

from .core import SimError
from .creator import (
    ActionKind, CreatedContent, CreatorRuntime, ExploreAction, RuleBasedPolicy, item_utility,
    retrieve_creation_memory,
)

ENDPOINT_ENV = "CREATORSIM_LLM_ENDPOINT"
API_KEY_ENV = "CREATORSIM_LLM_API_KEY"


class LlmError(SimError):
    pass


class MissingVar(LlmError):
    """A template placeholder was left unbound."""


class ParseFailure(LlmError):
    """Model reply did not follow the response grammar."""


class Timeout(LlmError):
    """Endpoint unreachable or too slow on every attempt."""


class HttpError(LlmError):
    """Endpoint answered with a non-retryable error."""


class ExhaustedRetries(LlmError):
    """Transient server errors on every attempt."""


@dataclass(frozen=True)
class LlmConfig:
    """The run config's `llm.*` section."""

    endpoint: str
    model: str
    temperature: float
    max_tokens: int
    timeout: float
    retries: int


@dataclass(frozen=True)
class PromptTemplate:
    template_id: str
    text: str


SOCIAL_IDENTITY = PromptTemplate(
    "social_identity",
    "You are a content creator on {platform} and your name is {name}. "
    "Here is the basic information about the content you have previously created.\n\n"
    "Recent created content: {recent_content}\n\n"
    "Created content genre (the genres you have created in the past and their "
    "respective proportions): {genre_proportions}\n\n"
    "Creation frequency (the average number of items you create each day): {creation_frequency}\n\n"
    "Please summarize your social identity in the following format: "
    "[Social Identity]: <the specific identity>. For example, [Social Identity]: movie enthusiast.",
)

INTRINSIC_MOTIVATION = PromptTemplate(
    "intrinsic_motivation",
    "You are a content creator on {platform} and your name is {name}. "
    "Here is the basic information about the content you have previously created.\n\n"
    "Follower number: {followers}\n\n"
    "Recent created content: {recent_content}\n\n"
    "Creation frequency (the average number of items you create each day): {creation_frequency}\n\n"
    "Intrinsic motivation refers to whether your purpose for creating content is for profit "
    "or simply for sharing. Please summarize your intrinsic motivation in the following format: "
    "[Intrinsic Motivation]: <the specific motivation>. For example, [Intrinsic Motivation]: profit.",
)

SLOW_THINKER = PromptTemplate(
    "slow_thinker",
    "You are a content creator on {platform} and your nickname is {name}.\n\n"
    "{profile}\n\n"
    "The average utility per item of each genre {name} has created is as below: "
    "{audience_beliefs}. ([unknown] means the item genre {name} has not explored.)\n\n"
    "Recently, {name} created an item of genre {last_genre}, and receives {last_utility} utility.\n\n"
    "Due to the statistical data, {name}'s profile and {name}'s familiarity on each genre: "
    "{skill_beliefs}, {name} must choose one of the two actions below to obtain more user clicks:\n\n"
    "(1) [EXPLORE] Create content in a new genre that has not been explored before, which means "
    "other genres may have a larger audience and more opportunities to profit. But it might not "
    "be {name}'s area of expertise and requires greater effort to create.\n\n"
    "(2) [EXPLOIT] Sticking to creating content of a familiar genre, which means {name} will "
    "leverage his creative expertise to build a stable brand identity. But it might limit "
    "{name}'s audience reach and lead to insufficient income.\n\n"
    "To explore a new genre, write: [EXPLORE]:: <genre name>. If so, give the specific genre "
    "name chosen from {unknown_genres}.\n\n"
    "To stick to familiar genres, write: [EXPLOIT]:: <genre name>. If so, give the specific "
    "genre name chosen from {known_genres}.\n\n"
    "Let's think step by step. Please answer concisely and strictly follow the output rules.",
)

FAST_THINKER = PromptTemplate(
    "fast_thinker",
    "You are a content creator on {platform} and your nickname is {name}.\n\n"
    "{profile}\n\n"
    "Based on the analysis: {analysis}, please create ONE new content for {name} that fits "
    "user's interest.\n\n"
    "You can refer to the creation history of {name}: {history}\n\n"
    "Response in JSON dictionary format. Write "
    '{"name": [item name], "genre": "genre1|genre2|...", "tags": [tag1, tag2, tag3], '
    '"description": "item description text"}',
)

_PLACEHOLDER = re.compile(r"\{([a-z][a-z0-9_]*)\}")


def render_prompt(template: PromptTemplate, variables: dict[str, str]) -> str:
    """Substitute every `{placeholder}`; unbound placeholders are an error.

    Rendering a text with no placeholders left is the identity, so rendering
    is idempotent.
    """
    missing = {m.group(1) for m in _PLACEHOLDER.finditer(template.text)} - set(variables)
    if missing:
        raise MissingVar(f"{template.template_id}: unbound placeholders {sorted(missing)}")
    return _PLACEHOLDER.sub(lambda m: str(variables[m.group(1)]), template.text)


# ---------------------------------------------------------------------------
# Transport


def requests_transport(url: str, payload: dict, timeout: float) -> tuple[int, str]:
    """Default HTTP transport; swap out in tests or for other protocols."""
    import requests

    headers = {}
    api_key = os.environ.get(API_KEY_ENV)
    if api_key:
        headers["Authorization"] = f"Bearer {api_key}"
    try:
        resp = requests.post(url, json=payload, timeout=timeout, headers=headers)
    except requests.exceptions.RequestException as e:
        raise TimeoutError(str(e)) from e
    return resp.status_code, resp.text


def complete(cfg: LlmConfig, prompt: str, transport=None) -> str:
    """One chat-completion round trip with bounded retries.

    Connection failures and timeouts raise Timeout once attempts run out;
    5xx answers raise ExhaustedRetries; other non-200 answers raise HttpError
    immediately. The endpoint can be overridden through the environment.
    """
    transport = transport or requests_transport
    endpoint = os.environ.get(ENDPOINT_ENV) or cfg.endpoint
    payload = {
        "model": cfg.model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.temperature,
        "max_tokens": cfg.max_tokens,
    }
    attempts = cfg.retries + 1
    last_kind = None
    for attempt in range(attempts):
        try:
            status, body = transport(endpoint, payload, cfg.timeout)
        except (TimeoutError, OSError) as e:
            last_kind = Timeout(f"attempt {attempt + 1}/{attempts}: {e}")
            continue
        if status >= 500:
            last_kind = ExhaustedRetries(f"attempt {attempt + 1}/{attempts}: HTTP {status}")
            continue
        if status != 200:
            raise HttpError(f"HTTP {status}: {body[:200]}")
        try:
            data = json.loads(body)
            return data["choices"][0]["message"]["content"]
        except (json.JSONDecodeError, KeyError, IndexError, TypeError) as e:
            raise HttpError(f"malformed completion envelope: {e}") from e
    raise last_kind


# ---------------------------------------------------------------------------
# Reply parsing

_ACTION = re.compile(r"\[(explore|exploit)\]\s*:{1,2}\s*([^\n\r]+)", re.IGNORECASE)


def _match_genre(text: str, genre_names) -> int | None:
    cleaned = text.strip().strip(".\"'`]").strip()
    lowered = cleaned.lower()
    for idx, name in enumerate(genre_names):
        if name.lower() == lowered:
            return idx
    return None


def parse_explore_action(text: str, genre_names) -> ExploreAction:
    """Extract the first `[EXPLORE]`/`[EXPLOIT]` token and its genre."""
    m = _ACTION.search(text)
    if not m:
        raise ParseFailure("no [EXPLORE]/[EXPLOIT] token in reply")
    kind = ActionKind.EXPLORE if m.group(1).lower() == "explore" else ActionKind.EXPLOIT
    genre = _match_genre(m.group(2), genre_names)
    if genre is None:
        raise ParseFailure(f"genre {m.group(2)!r} not in the vocabulary")
    return ExploreAction(kind, genre)


def _first_json_object(text: str) -> dict:
    decoder = json.JSONDecoder()
    start = text.find("{")
    while start != -1:
        try:
            return decoder.raw_decode(text, start)[0]
        except json.JSONDecodeError:
            start = text.find("{", start + 1)
    raise ParseFailure("no JSON object in reply")


def parse_content(text: str, genre_names) -> CreatedContent:
    """Extract creation JSON with keys name, genre, tags, description.

    The genre value may list alternatives separated by `|`; the first one
    matching the vocabulary wins.
    """
    obj = _first_json_object(text)
    for key in ("name", "genre", "tags", "description"):
        if key not in obj:
            raise ParseFailure(f"creation JSON missing key {key!r}")
    title = str(obj["name"]).strip()
    if not title:
        raise ParseFailure("empty item name")
    genre = None
    for candidate in str(obj["genre"]).split("|"):
        genre = _match_genre(candidate, genre_names)
        if genre is not None:
            break
    if genre is None:
        raise ParseFailure(f"no vocabulary genre in {obj['genre']!r}")
    tags = obj["tags"]
    if not isinstance(tags, (list, tuple)):
        raise ParseFailure("tags must be a list")
    return CreatedContent(
        title=title,
        genre=genre,
        tags=tuple(str(t) for t in tags),
        description=str(obj["description"]),
    )


_IDENTITY = re.compile(r"\[social identity\]\s*:{1,2}\s*([^\n\r]+)", re.IGNORECASE)
_MOTIVATION = re.compile(r"\[intrinsic motivation\]\s*:{1,2}\s*([^\n\r]+)", re.IGNORECASE)


def parse_profile_slot(text: str, slot: str) -> str:
    pattern = _IDENTITY if slot == "social_identity" else _MOTIVATION
    m = pattern.search(text)
    if not m:
        raise ParseFailure(f"no {slot} line in reply")
    return m.group(1).strip().strip(".")


# ---------------------------------------------------------------------------
# Policy


class LlmPolicy:
    """Creator policy backed by a completion endpoint.

    Every failure mode (transport, grammar, vocabulary, belief-support
    mismatch) falls back to the wrapped rule-based policy with the same rng
    stream, so a fully garbled endpoint reproduces the deterministic run.
    """

    name = "creagent_llm"

    def __init__(
        self,
        cfg: LlmConfig,
        genre_names,
        fallback: RuleBasedPolicy,
        transport=None,
        platform: str = "the platform",
    ):
        self.cfg = cfg
        self.genre_names = tuple(genre_names)
        self.fallback = fallback
        self.transport = transport
        self.platform = platform

    def _profile_text(self, state: CreatorRuntime) -> str:
        return f"{state.name} is a {state.identity} who creates for {state.motivation}."

    def _belief_text(self, state: CreatorRuntime) -> tuple[str, str, list[str], list[str]]:
        known, unknown = [], []
        audience_parts, skill_parts = [], []
        for g, name in enumerate(self.genre_names):
            if g in state.beliefs.audience:
                known.append(name)
                audience_parts.append(f"{name}: {state.beliefs.audience[g]:.3f}")
            else:
                unknown.append(name)
                audience_parts.append(f"{name}: [unknown]")
            if state.beliefs.skill[g] > 0:
                skill_parts.append(f"{name}: {state.beliefs.skill[g]:.3f}")
        return ", ".join(audience_parts), ", ".join(skill_parts), known, unknown

    def decide(self, state: CreatorRuntime, n: int, rng) -> ExploreAction:
        audience_text, skill_text, known, unknown = self._belief_text(state)
        last = state.last_item()
        last_genre = self.genre_names[state.catalog.genre[last]] if last is not None else "none"
        last_utility = f"{item_utility(state, last, n):.3f}" if last is not None else "0.000"
        prompt = render_prompt(
            SLOW_THINKER,
            {
                "platform": self.platform,
                "name": state.name,
                "profile": self._profile_text(state),
                "audience_beliefs": audience_text,
                "last_genre": last_genre,
                "last_utility": last_utility,
                "skill_beliefs": skill_text,
                "unknown_genres": ", ".join(unknown) if unknown else "(none)",
                "known_genres": ", ".join(known) if known else "(none)",
            },
        )
        try:
            reply = complete(self.cfg, prompt, transport=self.transport)
            action = parse_explore_action(reply, self.genre_names)
            known_ids = set(state.beliefs.audience)
            if action.kind is ActionKind.EXPLOIT and action.genre not in known_ids:
                raise ParseFailure("exploit outside the known-genre support")
            if action.kind is ActionKind.EXPLORE and action.genre in known_ids:
                raise ParseFailure("explore inside the known-genre support")
            return action
        except LlmError:
            return self.fallback.decide(state, n, rng)

    def make_content(self, state: CreatorRuntime, action: ExploreAction, n: int) -> CreatedContent:
        retrieved = retrieve_creation_memory(state, action, self.fallback.memory_k, n)
        history = "; ".join(
            f"{e.title} ({self.genre_names[e.genre]}, tags: {', '.join(e.tags)})" for e in retrieved
        )
        prompt = render_prompt(
            FAST_THINKER,
            {
                "platform": self.platform,
                "name": state.name,
                "profile": self._profile_text(state),
                "analysis": f"[{action.kind.value}]: {self.genre_names[action.genre]}",
                "history": history or "(none yet)",
            },
        )
        try:
            reply = complete(self.cfg, prompt, transport=self.transport)
            return parse_content(reply, self.genre_names)
        except LlmError:
            return self.fallback.make_content(state, action, n)


def summarize_profile(
    cfg: LlmConfig, slot: str, variables: dict[str, str], transport=None
) -> str:
    """LLM-backed profile slot summarization; raises LlmError on any failure."""
    template = SOCIAL_IDENTITY if slot == "social_identity" else INTRINSIC_MOTIVATION
    reply = complete(cfg, render_prompt(template, variables), transport=transport)
    return parse_profile_slot(reply, slot)


def summarize_profile_slots(
    cfg: LlmConfig,
    name: str,
    followers: int,
    activity: float,
    skill_text: str,
    recent_content: str,
    fallback: tuple[str, str],
    transport=None,
    platform: str = "the platform",
) -> tuple[str, str]:
    """Summarize (identity, motivation) for one creator, slot by slot.

    Each slot falls back independently to its deterministic template value.
    """
    shared = {
        "platform": platform,
        "name": name,
        "recent_content": recent_content,
        "creation_frequency": f"{activity:.3f}",
    }
    try:
        identity = summarize_profile(
            cfg, "social_identity", {**shared, "genre_proportions": skill_text}, transport
        )
    except LlmError:
        identity = fallback[0]
    try:
        motivation = summarize_profile(
            cfg, "intrinsic_motivation", {**shared, "followers": str(followers)}, transport
        )
    except LlmError:
        motivation = fallback[1]
    return identity, motivation
