"""Single mutations of a record file's or artifact's bytes, shared by the
property tests that feed damaged inputs to the `sim` commands."""

import re

from hypothesis import strategies as st


def _at_row(edit):
    """A mutation that applies `edit(lines, k, draw)` at a drawn row k of the file's lines."""

    def mutate(raw, draw):
        lines = raw.splitlines(keepends=True) or [b""]
        edit(lines, draw(st.integers(0, len(lines) - 1), label="row"), draw)
        return b"".join(lines)

    return mutate


def _insert_byte(byte):
    def mutate(raw, draw):
        at = draw(st.integers(0, len(raw)), label="at")
        return raw[:at] + byte + raw[at:]

    return mutate


def _replace_byte(raw, draw):
    at = draw(st.integers(0, len(raw) - 1), label="at")
    return raw[:at] + bytes([draw(st.integers(0, 255), label="byte")]) + raw[at + 1 :]


def _swap(lines, k, draw):
    j = draw(st.integers(0, len(lines) - 1), label="other")
    lines[k], lines[j] = lines[j], lines[k]


# one mutation of an artifact's bytes: (raw, draw) -> mutated bytes
MUTATIONS = {
    "truncate": lambda raw, draw: raw[: draw(st.integers(0, len(raw)), label="at")],
    "replace-byte": _replace_byte,
    "drop-row": _at_row(lambda lines, k, draw: lines.pop(k)),
    "repeat-row": _at_row(lambda lines, k, draw: lines.insert(k, lines[k])),
    "swap-rows": _at_row(_swap),
    "short-row": _at_row(lambda lines, k, draw: lines.insert(k, lines[k].split(b",")[0] + b"\n")),
    "extra-field": _at_row(lambda lines, k, draw: lines.insert(k, lines[k].rstrip(b"\n") + b",9\n")),
    "long-field": _at_row(
        lambda lines, k, draw: lines.insert(k, lines[k].rstrip(b"\n") + b"," + b"9" * 200_000 + b"\n")
    ),
    "not-utf8": _insert_byte(b"\xff"),
    "nul": _insert_byte(b"\x00"),
    "empty": lambda raw, draw: b"",
    "int-past-int64": _at_row(
        lambda lines, k, draw: lines.__setitem__(k, re.sub(rb"\d+", str(2**63).encode(), lines[k], count=1))
    ),
}
