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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .core import SimConfig, SimError, join_tags, split_tags
from .creator import (
    ActionKind, CreatedContent, CreatorRuntime, ExploreAction, RuleBasedPolicy,
    retrieve_creation_memory,
)

ENDPOINT_ENV = "CREATORSIM_LLM_ENDPOINT"
API_KEY_ENV = "CREATORSIM_LLM_API_KEY"
PLATFORM = "the platform"  # how the prompts name the platform


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


def complete(cfg: SimConfig, prompt: str, transport=None) -> str:
    """One chat-completion round trip with bounded retries, as the run's `llm.*` settings say.

    Connection failures and timeouts raise Timeout once attempts run out;
    5xx answers raise ExhaustedRetries; other non-200 answers raise HttpError
    immediately. The endpoint can be overridden through the environment.
    """
    transport = transport or requests_transport
    endpoint = os.environ.get(ENDPOINT_ENV) or cfg.llm_endpoint
    payload = {
        "model": cfg.llm_model,
        "messages": [{"role": "user", "content": prompt}],
        "temperature": cfg.llm_temperature,
        "max_tokens": cfg.llm_max_tokens,
    }
    attempts = cfg.llm_retries + 1
    last_kind = None
    for attempt in range(attempts):
        try:
            status, body = transport(endpoint, payload, cfg.llm_timeout)
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
    matching the vocabulary wins. The tags are kept as `items.csv` reads them back.
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
        tags=split_tags(join_tags(map(str, tags))),
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


def _parsed(parse, reply: str | None, default, *args):
    """`parse(reply, *args)`, or `default` when there is no reply or it does not parse."""
    if reply is None:
        return default
    try:
        return parse(reply, *args)
    except ParseFailure:
        return default


class LlmPolicy:
    """Creator policy backed by a completion endpoint.

    Every failure mode (transport, grammar, vocabulary, belief-support
    mismatch) falls back to the wrapped rule-based policy with the same rng
    stream, so a fully garbled endpoint reproduces the deterministic run.
    Only the completion calls run on threads, at most the run's `workers` at
    once; prompts are built and replies parsed in the calling thread, in creator
    order, so a run does not depend on which reply arrives first.
    """

    name = "creagent_llm"

    def __init__(self, cfg: SimConfig, genre_names, fallback: RuleBasedPolicy, transport=None):
        self.cfg = cfg
        self.genre_names = tuple(genre_names)
        self.fallback = fallback
        self.transport = transport

    def _ask(self, prompt: str) -> str | None:
        """The endpoint's reply to `prompt`, or None when the call fails."""
        try:
            return complete(self.cfg, prompt, transport=self.transport)
        except LlmError:
            return None

    def _profile_text(self, state: CreatorRuntime) -> str:
        return f"{state.name} is a {state.identity} who creates for {state.motivation}."

    def _decide_prompt(self, state: CreatorRuntime) -> str:
        audience, skill, names = state.beliefs.audience, state.beliefs.skill, self.genre_names
        unknown, made = np.isnan(audience), len(state.own.items) > 0
        return render_prompt(
            SLOW_THINKER,
            {
                "platform": PLATFORM,
                "name": state.name,
                "profile": self._profile_text(state),
                "audience_beliefs": ", ".join(
                    f"{name}: [unknown]" if unknown[g] else f"{name}: {audience[g]:.3f}"
                    for g, name in enumerate(names)
                ),
                "last_genre": names[state.own.genre[-1]] if made else "none",
                "last_utility": f"{state.last_utility:.3f}" if made else "0.000",
                "skill_beliefs": ", ".join(
                    f"{name}: {skill[g]:.3f}" for g, name in enumerate(names) if skill[g] > 0
                ),
                "unknown_genres": ", ".join(np.compress(unknown, names)) or "(none)",
                "known_genres": ", ".join(np.compress(~unknown, names)) or "(none)",
            },
        )

    def _content_prompt(self, state: CreatorRuntime, action: ExploreAction, n: int) -> str:
        own = state.own
        retrieved = retrieve_creation_memory(state, action, self.fallback.memory_k, n)
        history = "; ".join(
            f"{own.title[j]} ({self.genre_names[g]}, tags: {', '.join(own.tags[j])})"
            for j, g in zip(retrieved.tolist(), own.genre[retrieved].tolist())
        )
        return render_prompt(
            FAST_THINKER,
            {
                "platform": PLATFORM,
                "name": state.name,
                "profile": self._profile_text(state),
                "analysis": f"[{action.kind.value}]: {self.genre_names[action.genre]}",
                "history": history or "(none yet)",
            },
        )

    def create(self, states, n: int, rngs) -> list[tuple[ExploreAction, CreatedContent]]:
        """Every decision prompt is sent at once; each reply is parsed in creator
        order, and that creator's content prompt is sent as soon as its action is
        known. The content replies are then parsed in creator order."""
        with ThreadPoolExecutor(self.cfg.workers) as pool:
            decisions = [pool.submit(self._ask, self._decide_prompt(s)) for s in states]
            actions, contents = [], []
            for state, rng, reply in zip(states, rngs, decisions):
                actions.append(self.decide(state, n, rng, reply.result()))
                contents.append(pool.submit(self._ask, self._content_prompt(state, actions[-1], n)))
            return [
                (action, self.make_content(state, action, n, reply.result()))
                for state, action, reply in zip(states, actions, contents)
            ]

    def decide(self, state: CreatorRuntime, n: int, rng, reply: str | None) -> ExploreAction:
        """The action `reply` names, if the beliefs allow it: EXPLOIT of a known
        genre or EXPLORE of an unknown one; otherwise the rule-based action."""
        action = _parsed(parse_explore_action, reply, None, self.genre_names)
        if action is not None and (action.kind is ActionKind.EXPLOIT) != np.isnan(
            state.beliefs.audience[action.genre]
        ):
            return action
        return self.fallback.decide(state, n, rng)

    def make_content(
        self, state: CreatorRuntime, action: ExploreAction, n: int, reply: str | None
    ) -> CreatedContent:
        content = _parsed(parse_content, reply, None, self.genre_names)
        return content or self.fallback.make_content(state, action, n)

    def summarize_profiles(self, states, followers) -> None:
        """Summarize each creator's social identity and intrinsic motivation
        through the endpoint, all 2 * len(states) prompts over `workers` threads;
        a slot whose reply fails or does not parse keeps its template value.
        Each state's `own` is its read of its seed items; `followers` is indexed
        by creator id."""
        genres, prompts = self.genre_names, []
        for state in states:
            own = state.own  # its last seed item is the last in catalog order
            recent_text = "(none yet)" if not len(own.items) else (
                f"title: {own.title[-1]}, genre: {genres[own.genre[-1]]}, "
                f"description: {own.description[-1]}"
            )
            shared = {
                "platform": PLATFORM,
                "name": state.name,
                "recent_content": recent_text,
                "creation_frequency": f"{state.activity:.3f}",
            }
            skill = state.beliefs.skill
            proportions = ", ".join(
                f"{genres[g]}: {skill[g]:.2f}" for g in range(len(genres)) if skill[g] > 0
            )
            prompts += [
                render_prompt(SOCIAL_IDENTITY, {**shared, "genre_proportions": proportions}),
                render_prompt(
                    INTRINSIC_MOTIVATION, {**shared, "followers": str(followers[state.creator_id])}
                ),
            ]
        with ThreadPoolExecutor(self.cfg.workers) as pool:
            replies = list(pool.map(self._ask, prompts))
        for state, identity, motivation in zip(states, replies[::2], replies[1::2]):
            state.identity = _parsed(parse_profile_slot, identity, state.identity, "social_identity")
            state.motivation = _parsed(
                parse_profile_slot, motivation, state.motivation, "intrinsic_motivation"
            )
