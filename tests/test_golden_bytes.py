"""Byte-for-byte CLI output on a fixed corpus.

The files under tests/golden/ hold the exact stdout of `check --json`,
`elaborate --discourse --json` and plain `elaborate --discourse` on the
discourses below, of `solve` and `solve --json` in two discourse contexts,
of `--help` for the program and each subcommand (at 80 columns), and the
exact stderr of an unresolved presupposition in an empty and a non-empty
context.  Any change to derivation order, sharing, printing, serialization
or the command-line surface that alters a single byte fails here.
Regenerate them with `PYTHONPATH=src python tests/test_golden_bytes.py`
only when an output change is intended.
"""

import contextlib
import io
import os
import tempfile
from pathlib import Path

import pytest

from presup import format_term, interpret, parse_discourse
from presup.cli import main

from conftest import DONKEY_LINE, PCTX_LINE

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

CONTEXT_LINES = {"pctx": PCTX_LINE, "donkey": DONKEY_LINE}

# Golden file -> (argv, expected exit code, stream compared); "{pctx}" and
# "{donkey}" stand for files holding those discourse contexts.
SURFACES = {
    "help.presup.txt": (["--help"], 0, "stdout"),
    **{
        f"help.{command}.txt": ([command, "--help"], 0, "stdout")
        for command in ("check", "elaborate", "solve", "repl")
    },
    **{
        f"solve.{name}.{kind}": (["solve", "--context", f"{{{name}}}", *flags, "E"], 0, "stdout")
        for name in CONTEXT_LINES
        for kind, flags in (("txt", []), ("json", ["--json"]))
    },
    "unresolved.empty.stderr": (["check", "SatDown (require x : E in x)"], 1, "stderr"),
    "unresolved.pctx.stderr": (
        ["check", "--context", "{pctx}", "SatDown (require x : Donkey (fst p) in fst p)"],
        1,
        "stderr",
    ),
}


def render(name: str, kind: str) -> str:
    out, err = io.StringIO(), io.StringIO()
    code = main(COMMANDS[kind](DISCOURSES[name]), out=out, err=err)
    assert code == 0, err.getvalue()
    return out.getvalue()


def render_surface(surface: str, directory: Path) -> str:
    """The stream a SURFACES entry compares, after checking its exit code.
    `--help` prints through argparse to sys.stdout and exits."""
    argv, expected_code, stream = SURFACES[surface]
    paths = {}
    for name, line in CONTEXT_LINES.items():
        path = directory / name
        path.write_text(line + "\n", encoding="utf-8")
        paths[name] = str(path)
    argv = [arg.format(**paths) for arg in argv]
    out, err = io.StringIO(), io.StringIO()
    saved = os.environ.get("COLUMNS")
    os.environ["COLUMNS"] = "80"
    try:
        with contextlib.redirect_stdout(out):
            code = main(argv, out=out, err=err)
    except SystemExit as stop:
        code = stop.code
    finally:
        if saved is None:
            del os.environ["COLUMNS"]
        else:
            os.environ["COLUMNS"] = saved
    assert code == expected_code, err.getvalue()
    return (out if stream == "stdout" else err).getvalue()


@pytest.mark.parametrize("name,kind", CASES, ids=[f"{n}.{k}" for n, k in CASES])
def test_cli_output_matches_golden_bytes(name, kind):
    expected = (GOLDEN_DIR / f"{name}.{kind}").read_bytes()
    assert render(name, kind).encode("utf-8") == expected


@pytest.mark.parametrize("surface", list(SURFACES))
def test_cli_surface_matches_golden_bytes(surface, tmp_path):
    expected = (GOLDEN_DIR / surface).read_bytes()
    assert render_surface(surface, tmp_path).encode("utf-8") == expected


if __name__ == "__main__":
    GOLDEN_DIR.mkdir(exist_ok=True)
    for name, kind in CASES:
        (GOLDEN_DIR / f"{name}.{kind}").write_bytes(render(name, kind).encode("utf-8"))
    with tempfile.TemporaryDirectory() as scratch:
        for surface in SURFACES:
            text = render_surface(surface, Path(scratch))
            (GOLDEN_DIR / surface).write_bytes(text.encode("utf-8"))
