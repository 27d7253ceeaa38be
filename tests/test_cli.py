import argparse
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import presup
from presup import alpha_eq, parse_term
from presup.cli import main

from conftest import DONKEY_LINE, PCTX_LINE
from helpers import reference_to_json_dict


def run(argv, stdin=""):
    out, err = io.StringIO(), io.StringIO()
    code = main(argv, out=out, err=err, instream=io.StringIO(stdin))
    return code, out.getvalue(), err.getvalue()


@pytest.fixture
def pctx_file(tmp_path):
    path = tmp_path / "pctx"
    path.write_text(PCTX_LINE + "\n", encoding="utf-8")
    return str(path)


@pytest.fixture
def donkey_file(tmp_path):
    path = tmp_path / "donkeyctx"
    path.write_text(DONKEY_LINE + "\n", encoding="utf-8")
    return str(path)


def test_check_pronoun_in_discourse_context(pctx_file):
    code, out, err = run(
        ["check", "--context", pctx_file, "SatDown (require x : E in x)"]
    )
    assert code == 0
    assert out == "Set0, 1 derivation\n"


def test_check_unresolved_presupposition_exit_code():
    code, out, err = run(["check", "require x : E in x"])
    assert code == 1
    assert "unresolved presupposition: E" in err
    assert "context: <empty>" in err


def test_check_projection_of_universe_fails():
    code, out, err = run(["check", "fst Set0"])
    assert code == 1
    assert "not a pair" in err


def test_check_syntax_error_exit_code():
    code, out, err = run(["check", "fst snd"])
    assert code == 2
    assert "syntax error" in err


def test_check_donkey_consequent_counts_derivations(donkey_file):
    code, out, err = run(
        ["check", "--context", donkey_file, "Beats (require z : E in z) (require w : E in w)"]
    )
    assert code == 0
    assert out == "Set0, 4 derivations\n"


def test_check_json_contains_derivation_nodes(pctx_file):
    code, out, err = run(
        ["check", "--context", pctx_file, "--json", "SatDown (require x : E in x)"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["rule"] == "PiE"
    witnesses = _collect_witnesses(payload[0])
    assert witnesses == ["fst p"]


def test_elaborate_discourse_first_example():
    code, out, err = run(["elaborate", "--discourse", "A man walked in. He sat down."])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    term_text = lines[0].rsplit(" : ", 1)[0]
    expected = parse_term("(p : (x : E) * (Man x * WalkedIn x)) * SatDown (fst p)")
    assert alpha_eq(parse_term(term_text), expected)


def test_elaborate_discourse_donkey_has_four_results():
    code, out, err = run(
        ["elaborate", "--discourse", "If a farmer owns a donkey, he beats it."]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 4


def test_elaborate_max_truncates():
    code, out, err = run(
        ["elaborate", "--max", "2", "--discourse", "If a farmer owns a donkey, he beats it."]
    )
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_elaborate_plain_universe():
    code, out, err = run(["elaborate", "Set0"])
    assert code == 0
    assert out == "Set0 : Set1\n"


def test_elaborate_term_from_file(tmp_path, pctx_file):
    term_file = tmp_path / "term.txt"
    term_file.write_text("SatDown (require x : E in x)\n", encoding="utf-8")
    code, out, err = run(["elaborate", "--context", pctx_file, f"@{term_file}"])
    assert code == 0
    assert out == "SatDown (fst p) : Set0\n"


def test_elaborate_resolves_a_presupposition_in_a_let_annotation(pctx_file):
    term = "let f : (require z : E in Man z) -> Set0 = \\w. E in Man (fst p)"
    code, out, err = run(["elaborate", "--context", pctx_file, term])
    assert (code, err) == (0, "")
    assert "require" not in out
    assert out == "let f : Man (fst p) -> Set0 = \\w. E in Man (fst p) : Set0\n"


def test_solve_discourse_context(pctx_file):
    code, out, err = run(["solve", "--context", pctx_file, "E"])
    assert code == 0
    assert out == "fst p : E\n"


def test_solve_donkey_context(donkey_file):
    code, out, err = run(["solve", "--context", donkey_file, "E"])
    assert code == 0
    assert out == "fst p : E\nfst (snd (snd p)) : E\n"


def test_solve_empty_context_exit_code():
    code, out, err = run(["solve", "E"])
    assert code == 1
    assert "no solutions" in err


def test_solve_rejects_non_type_goals():
    code, out, err = run(["solve", "Man"])
    assert code == 1
    assert "not a type" in err
    code, out, err = run(["solve", "Man (fst q)"])
    assert code == 1
    assert "unbound name" in err


def test_solve_searches_for_the_goal_its_presuppositions_denote(pctx_file):
    goal = "require x : E in Man x"
    assert run(["solve", "--context", pctx_file, goal]) == (0, "fst (snd p) : Man (fst p)\n", "")
    code, out, err = run(["solve", "--context", pctx_file, "--json", goal])
    assert (code, json.loads(out), err) == (
        0, [{"type": "Man (fst p)", "witness": "fst (snd p)"}], ""
    )
    code, out, err = run(["repl", "--context", pctx_file], stdin=f":solve {goal}\n:quit\n")
    assert (code, err) == (0, "")
    assert "> fst (snd p) : Man (fst p)\n" in out


def test_solve_respects_depth_flag(donkey_file):
    code, out, err = run(["solve", "--depth", "1", "--context", donkey_file, "E"])
    assert code == 0
    assert out == "fst p : E\n"


def test_solve_respects_max_solutions(donkey_file):
    code, out, err = run(["solve", "--max-solutions", "1", "--context", donkey_file, "E"])
    assert out == "fst p : E\n"


def test_signature_file_extension(tmp_path):
    sig_file = tmp_path / "sig"
    sig_file.write_text("Happy : E -> Set0\n", encoding="utf-8")
    code, out, err = run(["check", "--signature", str(sig_file), "Happy"])
    assert code == 0
    assert out == "E -> Set0, 1 derivation\n"


def test_signature_file_duplicate_rejected(tmp_path):
    sig_file = tmp_path / "sig"
    sig_file.write_text("Man : E -> Set0\n", encoding="utf-8")
    code, out, err = run(["check", "--signature", str(sig_file), "Man"])
    assert code == 1
    assert "duplicate" in err


def test_missing_context_file_reported():
    code, out, err = run(["check", "--context", "/nonexistent/ctx", "E"])
    assert code == 1
    assert "error" in err


def test_json_outputs_byte_identical_across_runs(pctx_file, donkey_file):
    commands = [
        ["check", "--context", pctx_file, "--json", "SatDown (require x : E in x)"],
        ["elaborate", "--json", "--discourse", "If a farmer owns a donkey, he beats it."],
        ["solve", "--context", donkey_file, "--json", "E"],
    ]
    for argv in commands:
        first = run(argv)
        second = run(argv)
        assert first == second
        json.loads(first[1])


def test_repl_session():
    script = (
        ":ctx add p : (x : E) * (Man x * WalkedIn x)\n"
        ":solve E\n"
        ":check SatDown (require x : E in x)\n"
        ":elab SatDown (require x : E in x)\n"
        ":quit\n"
    )
    code, out, err = run(["repl"], stdin=script)
    assert code == 0
    assert "added p" in out
    assert "fst p : E" in out
    assert "Set0" in out
    assert "SatDown (fst p) : Set0" in out


def test_repl_discourse_command():
    script = ":discourse A man walked in. He sat down.\n:quit\n"
    code, out, err = run(["repl"], stdin=script)
    assert code == 0
    assert "meaning:" in out
    assert "SatDown (fst p) : Set0" in out


def test_repl_recovers_from_errors():
    script = ":check fst snd\n:solve E\n:frobnicate\n:quit\n"
    code, out, err = run(["repl"], stdin=script)
    assert code == 0
    assert "error" in out
    assert "no solutions" in out
    assert "unknown command" in out


def test_repl_exits_on_eof():
    code, out, err = run(["repl"], stdin=":solve E\n")
    assert code == 0


def _collect_witnesses(node):
    found = []
    if "witness" in node:
        found.append(node["witness"])
    for premise in node["premises"]:
        found.extend(_collect_witnesses(premise))
    return found


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--max-solutions", "0", "argument --max-solutions: must be at least 1, got 0"),
        ("--depth", "-3", "argument --depth: must be at least 0, got -3"),
        ("--step-budget", "-1", "argument --step-budget: must be at least 0, got -1"),
        ("--max", "-1", "argument --max: must be at least 0, got -1"),
        ("--max-derivations", "0", "argument --max-derivations: must be at least 1, got 0"),
    ],
)
def test_bound_flags_reject_out_of_range_values(pctx_file, capsys, flag, value, message):
    with pytest.raises(SystemExit) as exit_info:
        run(["elaborate", flag, value, "--context", pctx_file, "fst p"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.rstrip("\n").endswith(f"error: {message}")


def test_bound_flags_accept_their_least_values(pctx_file):
    assert run(["solve", "--depth", "0", "--context", pctx_file, "E"])[0] == 1
    assert run(["solve", "--max-solutions", "1", "--context", pctx_file, "E"])[1] == "fst p : E\n"


def test_definite_past_fifteen_fillers():
    text = "A farmer owns a donkey. " + "A man walked in. " * 15 + "The farmer beats the donkey."
    code, out, err = run(["elaborate", "--discourse", text])
    assert code == 0
    assert err == ""
    assert out.endswith(" * Beats (fst p) (fst (snd (snd p))) : Set0\n")


def test_deeply_nested_input_is_a_one_line_error():
    code, out, err = run(["elaborate", "--discourse", "A man walked in. " * 500])
    assert code == 1
    assert out == ""
    assert err == "error: input nested too deeply (Python recursion limit reached)\n"


def test_three_hundred_sentences_elaborate_in_process():
    # Every term walker recurses once per nesting level with no extra frame
    # (no comprehension, generator or lambda in the recursion), which keeps
    # 300 sentences under the default recursion limit even inside pytest.
    code, out, err = run(
        ["elaborate", "--discourse", "A man walked in. " * 300 + "He sat down.", "--max", "1"]
    )
    assert code == 0
    assert err == ""
    assert out.count("\n") == 1


def test_python_dash_m_runs_the_cli(pctx_file):
    package_root = str(Path(presup.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": package_root}
    result = subprocess.run(
        [sys.executable, "-m", "presup", "solve", "--context", pctx_file, "E"],
        capture_output=True,
        text=True,
        env=env,
        check=False,
    )
    assert (result.returncode, result.stdout) == (0, "fst p : E\n")


class ClosedPipe(io.StringIO):
    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")


def test_a_closed_pipe_ends_the_run_quietly():
    err = io.StringIO()
    assert main(["check", "--json", "E"], out=ClosedPipe(), err=err) == 0
    assert err.getvalue() == ""


def test_a_reader_that_closes_the_pipe_early_gets_a_quiet_exit(tmp_path):
    # check --json on the x4 chain writes about a megabyte; the reader takes 10 bytes.
    text = "A man walked in. He sat down. " * 4
    term = tmp_path / "term"
    meaning = presup.interpret(presup.parse_discourse(text))
    term.write_text(presup.format_term(meaning), encoding="utf-8")
    package_root = str(Path(presup.__file__).resolve().parents[1])
    process = subprocess.Popen(
        [sys.executable, "-m", "presup", "check", "--json", f"@{term}"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": package_root},
    )
    assert len(process.stdout.read(10)) == 10
    process.stdout.close()
    stderr = process.stderr.read()
    process.stderr.close()
    assert (process.wait(timeout=120), stderr) == (0, b"")


@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--signature", "{bad}", "E"],
        ["check", "--context", "{bad}", "E"],
        ["check", "@{bad}"],
    ],
)
def test_file_that_is_not_utf8_is_a_one_line_error(tmp_path, argv):
    bad = tmp_path / "latin1"
    bad.write_bytes(b"p : E\n# caf\xe9\n")
    code, out, err = run([arg.format(bad=bad) for arg in argv])
    assert (code, out) == (1, "")
    assert err == f"error: {bad}: not valid UTF-8 (invalid continuation byte at byte 11)\n"


def test_repl_malformed_ctx_add_reports_and_continues():
    script = ":ctx add 1x\n:ctx add p : E\n:ctx\n:quit\n"
    code, out, err = run(["repl"], stdin=script)
    assert code == 0
    assert "> error: at position 0: expected 'name : type' (got '1x')\n" in out
    assert out.endswith("> added p : E\n> p : E\n> ")


def test_check_groups_distinct_types_in_first_seen_order(tmp_path):
    ctx_file = tmp_path / "ctx"
    ctx_file.write_text("a : E\nb : E\nf : (y : E) -> Man y\n", encoding="utf-8")
    code, out, err = run(
        ["check", "--context", str(ctx_file), "require x : E in require y : E in f x"]
    )
    assert code == 0
    # Witnesses come newest hypothesis first, so b's group precedes a's.
    assert out == "Man b, 2 derivations\nMan a, 2 derivations\n"


# A reserved word as a name is reported like any other malformed line.
BAD_NAMES = ("1x", "fst", "snd", "require", "let", "in", "Set", "Set0", "Set12")


@pytest.mark.parametrize("name", BAD_NAMES)
@pytest.mark.parametrize("option", ["--context", "--signature"])
def test_reserved_word_entry_name_is_a_syntax_error(tmp_path, option, name):
    path = tmp_path / "entries"
    path.write_text(f"{name} : E\n", encoding="utf-8")
    code, out, err = run(["solve", option, str(path), "E"])
    assert (code, out) == (2, "")
    assert err == f"syntax error: at position 0: expected 'name : type' (got '{name} : E')\n"


def test_repl_ctx_add_rejects_reserved_word():
    script = ":ctx add fst : E\n:ctx add fst' : E\n:ctx\n:quit\n"
    code, out, err = run(["repl"], stdin=script)
    assert code == 0
    assert "> error: at position 0: expected 'name : type' (got 'fst : E')\n" in out
    assert out.endswith("> added fst' : E\n> fst' : E\n> ")


CHAIN_X6 = "A man walked in. He sat down. " * 6


def test_budget_message_names_the_flag():
    code, out, err = run(["elaborate", "--max", "1", "--discourse", CHAIN_X6])
    assert (code, out) == (1, "")
    assert err == (
        "error: more than 256 derivations; raise max_total_derivations"
        " (--max-derivations N on the command line)\n"
    )


def test_max_derivations_lets_the_x6_chain_elaborate():
    code, out, err = run(
        ["elaborate", "--max", "1", "--max-derivations", "720", "--discourse", CHAIN_X6]
    )
    assert (code, err) == (0, "")
    assert len(out.splitlines()) == 1 and "require" not in out
    code, out, err = run(["elaborate", "--max-derivations", "719", "--discourse", CHAIN_X6])
    assert code == 1 and "more than 719 derivations" in err
    assert run(["check", "--max-derivations", "1", "E"]) == (0, "Set0, 1 derivation\n", "")


@pytest.mark.parametrize(
    "budget, expected",
    [
        ("3", (1, "", "error: more than 3 derivations")),
        ("4", (1, "", "error: more than 4 derivations")),
        ("5", (0, "E, 5 derivations\n", "")),
    ],
)
def test_a_witness_over_budget_is_not_taken_for_a_failed_one(tmp_path, budget, expected):
    # Witness b gives one reading and a gives four; a's alone exceed 3.
    path = tmp_path / "ctx"
    path.write_text("a : E\nm1 : Man a\nm2 : Man a\nb : E\nn1 : Man b\n", encoding="utf-8")
    term = "require x : E in require q : Man x in require r : Man x in x"
    code, out, err = run(["check", "--context", str(path), "--max-derivations", budget, term])
    assert (code, out, err.partition(";")[0]) == expected


@pytest.mark.parametrize("digits", ["9" * 5000, "9" * 4300, "0" * 5000 + "1"])
def test_universe_level_too_long_to_print_is_a_syntax_error(digits):
    limit = sys.get_int_max_str_digits()
    message = f"a universe level of at most {limit} digits, its successor too"
    expected = (2, "", f"syntax error: at position 0: expected {message}\n")
    assert run(["check", f"Set{digits}"]) == expected


def test_long_universe_level_within_the_int_limit_prints():
    expected = (0, "Set100000000000000000000000000, 1 derivation\n", "")
    assert run(["check", "Set99999999999999999999999999"]) == expected
    zeros = "0" * (sys.get_int_max_str_digits() - 1)
    assert run(["check", f"Set{zeros}9"]) == (0, "Set10, 1 derivation\n", "")


def test_repl_rejects_json(capsys):
    with pytest.raises(SystemExit) as exit_info:
        run(["repl", "--json"])
    assert exit_info.value.code == 2
    assert capsys.readouterr().err.rstrip("\n").endswith("error: unrecognized arguments: --json")


@pytest.mark.parametrize(
    "text",
    [
        "A man walked in. He sat down. " * 4,
        "A man walked in. A donkey sat down. If a farmer owns a donkey, he beats it.",
    ],
)
def test_check_json_matches_the_unshared_reference(sig, text):
    meaning = presup.format_term(presup.interpret(presup.parse_discourse(text)))
    derivations = presup.infer_all(sig, presup.Context(), parse_term(meaning, sig.names))
    expected = json.dumps(
        [reference_to_json_dict(d) for d in derivations], sort_keys=True, indent=2
    )
    code, out, err = run(["check", "--json", meaning])
    assert (code, err) == (0, "")
    assert out == expected + "\n"


@pytest.mark.parametrize(
    "text,message",
    [
        (
            "If, a man walked in, he sat down.",
            "at position 0: expected a determiner or pronoun (got ',')",
        ),
        ("A ,man walked in. He sat down.", "at position 0: expected a noun (got ',')"),
        ("A man walked in. A wombat sat down.", "unknown word: wombat"),
    ],
)
def test_misplaced_comma_is_a_grammar_error_not_an_unknown_word(text, message):
    assert run(["elaborate", "--discourse", text]) == (2, "", f"syntax error: {message}\n")


def test_main_builds_no_argument_parser(monkeypatch, pctx_file):
    built = []
    construct = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert run(["check", "--context", pctx_file, "SatDown (require x : E in x)"])[0] == 0
    assert run(["elaborate", "--discourse", "A man walked in. He sat down."])[0] == 0
    assert run(["solve", "--context", pctx_file, "E"])[0] == 0
    assert run(["repl"], stdin=":solve E\n:quit\n")[0] == 0
    assert built == []
    argparse.ArgumentParser(prog="probe")
    assert built == ["probe"]
