import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

from creatorsim.core import SimConfig
from creatorsim.creator import ActionKind
from creatorsim.llm import (
    FAST_THINKER,
    SLOW_THINKER,
    ExhaustedRetries,
    HttpError,
    MissingVar,
    ParseFailure,
    PromptTemplate,
    Timeout,
    complete,
    parse_content,
    parse_explore_action,
    parse_profile_slot,
    render_prompt,
)

GENRES = ("Music", "Gaming", "Entertainment", "Sports")


def llm_config(**settings):
    """The default run config with each `llm.<key>` of `settings` replaced."""
    return SimConfig(**{f"llm_{key}": value for key, value in settings.items()})


def slow_vars(**overrides):
    base = {
        "platform": "the platform",
        "name": "Ada",
        "profile": "Ada is a music enthusiast.",
        "audience_beliefs": "Music: 1.0",
        "last_genre": "Music",
        "last_utility": "1.0",
        "skill_beliefs": "Music: 1.0",
        "unknown_genres": "Gaming, Entertainment, Sports",
        "known_genres": "Music",
    }
    base.update(overrides)
    return base


class TestRenderPrompt:
    def test_slow_thinker_contains_grammar_instruction(self):
        out = render_prompt(SLOW_THINKER, slow_vars())
        assert "To explore a new genre, write" in out
        assert "Ada" in out
        assert "{" not in out.replace('{"name"', "")  # no unresolved placeholders

    def test_missing_variable_rejected(self):
        variables = slow_vars()
        del variables["name"]
        with pytest.raises(MissingVar):
            render_prompt(SLOW_THINKER, variables)

    def test_idempotent_on_rendered_text(self):
        rendered = render_prompt(SLOW_THINKER, slow_vars())
        again = render_prompt(PromptTemplate("noop", rendered), {})
        assert again == rendered

    def test_fast_thinker_json_braces_survive(self):
        out = render_prompt(
            FAST_THINKER,
            {
                "platform": "p",
                "name": "Ada",
                "profile": "x",
                "analysis": "[EXPLOIT]: Music",
                "history": "none",
            },
        )
        assert '{"name":' in out


class TestParseExploreAction:
    def test_single_colon(self):
        action = parse_explore_action("[EXPLORE]: Entertainment", GENRES)
        assert action.kind is ActionKind.EXPLORE
        assert action.genre == 2

    def test_double_colon_and_case(self):
        action = parse_explore_action("after thought...\n[exploit]:: Music", GENRES)
        assert action.kind is ActionKind.EXPLOIT
        assert action.genre == 0

    def test_no_token(self):
        with pytest.raises(ParseFailure):
            parse_explore_action("I think I'll keep making videos", GENRES)

    def test_unknown_genre(self):
        with pytest.raises(ParseFailure):
            parse_explore_action("[EXPLORE]: Knitting", GENRES)


class TestParseContent:
    def test_well_formed(self):
        reply = '{"name": "My Vlog", "genre": "Entertainment", "tags": ["fun"], "description": "d"}'
        content = parse_content(reply, GENRES)
        assert content.title == "My Vlog"
        assert content.genre == 2
        assert content.tags == ("fun",)

    def test_tags_kept_as_a_record_file_holds_them(self):
        # a tag holding "|" is split there, and an empty one is dropped
        reply = '{"name": "x", "genre": "Music", "tags": ["x|y", "", "z", 7], "description": ""}'
        assert parse_content(reply, GENRES).tags == ("x", "y", "z", "7")

    def test_pipe_separated_genre_takes_first_match(self):
        reply = '{"name": "x", "genre": "Music|Entertainment", "tags": [], "description": ""}'
        assert parse_content(reply, GENRES).genre == 0

    def test_prose_wrapped_json(self):
        reply = 'Sure! Here it is: {"name": "x", "genre": "Sports", "tags": ["a"], "description": "d"} hope you like it'
        assert parse_content(reply, GENRES).genre == 3

    def test_truncated_json(self):
        with pytest.raises(ParseFailure):
            parse_content('{"name": "x", "genre": "Mus', GENRES)

    def test_missing_key(self):
        with pytest.raises(ParseFailure):
            parse_content('{"name": "x", "genre": "Music", "tags": []}', GENRES)


def test_action_round_trip():
    action = parse_explore_action("[EXPLORE]: Gaming", GENRES)
    synthetic = f"[{action.kind.value}]: {GENRES[action.genre]}"
    assert parse_explore_action(synthetic, GENRES) == action


def test_parse_profile_slot():
    assert parse_profile_slot("[Social Identity]: movie enthusiast.", "social_identity") == "movie enthusiast"
    with pytest.raises(ParseFailure):
        parse_profile_slot("no identity here", "social_identity")


# ---------------------------------------------------------------------------
# Transport semantics


def canned_reply(text):
    return json.dumps({"choices": [{"message": {"content": text}}]})


def test_complete_happy_path_with_fake_transport():
    calls = []

    def transport(url, payload, timeout):
        calls.append(payload)
        return 200, canned_reply("hello")

    cfg = llm_config(endpoint="http://example/v1", model="m", retries=1)
    assert complete(cfg, "prompt", transport=transport) == "hello"
    assert calls[0]["messages"][0]["content"] == "prompt"
    assert calls[0]["model"] == "m"


def test_complete_retries_transient_500_then_succeeds():
    state = {"n": 0}

    def transport(url, payload, timeout):
        state["n"] += 1
        if state["n"] == 1:
            return 500, "boom"
        return 200, canned_reply("ok")

    cfg = llm_config(endpoint="http://example", model="m", retries=1)
    assert complete(cfg, "p", transport=transport) == "ok"
    assert state["n"] == 2


def test_complete_exhausted_retries_on_500():
    cfg = llm_config(endpoint="http://example", model="m", retries=2)
    with pytest.raises(ExhaustedRetries):
        complete(cfg, "p", transport=lambda u, p, t: (500, "boom"))


def test_complete_timeout_counts_attempts():
    attempts = []

    def transport(url, payload, timeout):
        attempts.append(timeout)
        raise TimeoutError("unreachable")

    cfg = llm_config(endpoint="http://example", model="m", timeout=0.5, retries=2)
    with pytest.raises(Timeout):
        complete(cfg, "p", transport=transport)
    assert attempts == [0.5, 0.5, 0.5]


def test_complete_client_error_not_retried():
    calls = {"n": 0}

    def transport(url, payload, timeout):
        calls["n"] += 1
        return 404, "nope"

    cfg = llm_config(endpoint="http://example", model="m", retries=3)
    with pytest.raises(HttpError):
        complete(cfg, "p", transport=transport)
    assert calls["n"] == 1


def test_endpoint_env_override(monkeypatch):
    from creatorsim.llm import ENDPOINT_ENV

    seen = []

    def transport(url, payload, timeout):
        seen.append(url)
        return 200, canned_reply("ok")

    monkeypatch.setenv(ENDPOINT_ENV, "http://override/v1")
    cfg = llm_config(endpoint="http://configured/v1", model="m")
    complete(cfg, "p", transport=transport)
    assert seen == ["http://override/v1"]


def test_api_key_header_env(monkeypatch):
    from creatorsim.llm import API_KEY_ENV

    monkeypatch.setenv(API_KEY_ENV, "sekrit")
    captured = {}

    class _KeyHandler(BaseHTTPRequestHandler):
        def do_POST(self):
            captured["auth"] = self.headers.get("Authorization")
            length = int(self.headers["Content-Length"])
            self.rfile.read(length)
            self.send_response(200)
            self.end_headers()
            self.wfile.write(canned_reply("ok").encode())

        def log_message(self, *args):
            pass

    server = HTTPServer(("127.0.0.1", 0), _KeyHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cfg = llm_config(endpoint=f"http://127.0.0.1:{server.server_port}/v1", model="m", timeout=5.0)
        assert complete(cfg, "p") == "ok"
        assert captured["auth"] == "Bearer sekrit"
    finally:
        server.shutdown()


class _EchoHandler(BaseHTTPRequestHandler):
    def do_POST(self):
        length = int(self.headers["Content-Length"])
        body = json.loads(self.rfile.read(length))
        reply = canned_reply(f"echo:{body['messages'][0]['content']}")
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.end_headers()
        self.wfile.write(reply.encode())

    def log_message(self, *args):
        pass


def test_complete_against_local_http_stub():
    server = HTTPServer(("127.0.0.1", 0), _EchoHandler)
    thread = threading.Thread(target=server.serve_forever, daemon=True)
    thread.start()
    try:
        cfg = llm_config(
            endpoint=f"http://127.0.0.1:{server.server_port}/v1/chat/completions",
            model="stub",
            timeout=5.0,
        )
        assert complete(cfg, "ping") == "echo:ping"
    finally:
        server.shutdown()
