"""Byte-for-byte CLI output on a fixed corpus.

The files under tests/golden/ hold the exact stdout of `check --json`,
`elaborate --discourse --json` and plain `elaborate --discourse` on the
discourses below.  Any change to derivation order, sharing, printing or
serialization that alters a single byte fails here.  Regenerate them with
`PYTHONPATH=src python tests/test_golden_bytes.py` only when an output change
is intended.
"""

import io
from pathlib import Path

import pytest

from presup import format_term, interpret, parse_discourse
from presup.cli import main

GOLDEN_DIR = Path(__file__).parent / "golden"

DISCOURSES = {
    "pronoun": "A man walked in. He sat down.",
    "definite": "A man walked in. The man (then) sat down.",
    "donkey_conditional": "If a farmer owns a donkey, he beats it.",
    "donkey_universal": "Every farmer who owns a donkey beats it.",
    "two_definites": "A farmer owns a donkey. The farmer beats the donkey.",
    "pronoun_x3": "A man walked in. He sat down. " * 2 + "A man walked in. He sat down.",
    "entity_then_donkey": "A man walked in. If a farmer owns a donkey, he beats it.",
}

COMMANDS = {
    "check.json": lambda text: ["check", "--json", format_term(interpret(parse_discourse(text)))],
    "elaborate.json": lambda text: ["elaborate", "--discourse", "--json", text],
    "elaborate.txt": lambda text: ["elaborate", "--discourse", text],
}

CASES = [(name, kind) for name in DISCOURSES for kind in COMMANDS]


def render(name: str, kind: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main(COMMANDS[kind](DISCOURSES[name]), out=out, err=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


@pytest.mark.parametrize("name,kind", CASES, ids=[f"{n}.{k}" for n, k in CASES])
def test_cli_output_matches_golden_bytes(name, kind):
    expected = (GOLDEN_DIR / f"{name}.{kind}").read_bytes()
    assert render(name, kind).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, kind in CASES:
        (GOLDEN_DIR / f"{name}.{kind}").write_bytes(render(name, kind).encode("utf-8"))
