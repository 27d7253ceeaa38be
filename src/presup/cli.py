"""Command-line surface: check, elaborate, solve, and a small REPL.

Exit codes: 0 on success, 1 on semantic errors (type errors, unresolved
presuppositions, empty solution sets), 2 on syntax or usage errors.  Reports
go to stdout, errors to stderr; `--json` output is byte-stable across runs.
"""

from __future__ import annotations

import argparse
import os
import sys
from collections import Counter
from dataclasses import replace

from .derivations import CheckConfig, dump_json, to_json_dicts
from .elaborate import elaborate, elaborate_all
from .evaluator import EvalError, normalize
from .frontend import (
    ParseError,
    UnknownWord,
    _parse_entry_line,
    interpret,
    parse_context_text,
    parse_discourse,
    parse_signature_text,
    parse_term,
)
from .lexicon import base_signature
from .solver import solve
from .syntax import Context, Universe, alpha_key, format_term
from .typecheck import TypeCheckError, UnresolvedPresupposition, check_context, check_signature, infer_all


_TOO_DEEP = "error: input nested too deeply (Python recursion limit reached)"


def _at_least(minimum: int):
    def bound(text: str) -> int:
        value = int(text)
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be at least {minimum}, got {value}")
        return value

    return bound


def _config(args) -> CheckConfig:
    bounds = {
        "solver_depth": args.depth,
        "max_solutions_per_require": args.max_solutions,
        "step_budget": args.step_budget,
        "max_total_derivations": args.max_derivations,
    }
    return replace(CheckConfig(), **{k: v for k, v in bounds.items() if v is not None})


def _load_environment(args, cfg: CheckConfig):
    sig = base_signature()
    if args.signature:
        sig = parse_signature_text(_read_file(args.signature), sig)
    check_signature(sig, cfg)
    ctx = Context()
    if args.context:
        ctx = parse_context_text(_read_file(args.context), sig)
    check_context(sig, ctx, cfg)
    return sig, ctx


def _read_file(path: str) -> str:
    """The file's text; undecodable bytes are an OSError like a missing file."""
    with open(path, encoding="utf-8") as handle:
        try:
            return handle.read()
        except UnicodeDecodeError as error:
            raise OSError(f"{path}: not valid UTF-8 ({error.reason} at byte {error.start})")


def _read_input(value: str) -> str:
    return _read_file(value[1:]).strip() if value.startswith("@") else value


def _write_elaborations(results, out) -> None:
    for elaborated, classifier in results:
        out.write(f"{format_term(elaborated)} : {format_term(classifier)}\n")


def _write_solutions(solutions, out) -> None:
    for solution in solutions:
        rendered = format_term(solution.derivation.conclusion.classifier)
        out.write(f"{format_term(solution.witness)} : {rendered}\n")


def _print_json(payload, out) -> None:
    out.write(dump_json(payload))
    out.write("\n")


def _report_semantic_error(error: Exception, err) -> int:
    err.write(f"error: {error}\n")
    if isinstance(error, UnresolvedPresupposition):
        hypotheses = "; ".join(f"{name} : {format_term(t)}" for name, t in error.ctx.entries)
        err.write(f"context: {hypotheses or '<empty>'}\n")
    return 1


def cmd_check(args, sig, ctx, cfg, out, err, instream) -> int:
    term = parse_term(_read_input(args.term), sig.names)
    derivations = infer_all(sig, ctx, term, cfg)
    if args.json:
        _print_json(to_json_dicts(derivations), out)
        return 0
    # Counter keeps the classifiers in first-seen order.
    groups = Counter(format_term(d.conclusion.classifier) for d in derivations)
    for rendered, count in groups.items():
        plural = "derivation" if count == 1 else "derivations"
        out.write(f"{rendered}, {count} {plural}\n")
    return 0


def cmd_elaborate(args, sig, ctx, cfg, out, err, instream) -> int:
    text = _read_input(args.input)
    if args.discourse:
        term = interpret(parse_discourse(text))
    else:
        term = parse_term(text, sig.names)
    results = elaborate_all(sig, ctx, term, cfg)
    if args.max is not None:
        results = results[: args.max]
    if args.json:
        payload = [
            {"term": format_term(t), "type": format_term(ty)} for t, ty in results
        ]
        _print_json(payload, out)
        return 0
    _write_elaborations(results, out)
    return 0


def _solve_goal(sig, ctx, text: str, cfg: CheckConfig) -> list:
    """The witnesses of each distinct elaborated reading of the goal typed by a universe."""
    goal = parse_term(text, sig.names)
    goals = {}
    for derivation in infer_all(sig, ctx, goal, cfg):
        if isinstance(normalize(derivation.conclusion.classifier, cfg.step_budget), Universe):
            elaborated = elaborate(derivation)
            goals.setdefault(alpha_key(elaborated), elaborated)
    if not goals:
        raise TypeCheckError(f"{format_term(goal)} is not a type")
    return [s for elaborated in goals.values() for s in solve(sig, ctx, elaborated, cfg)]


def cmd_solve(args, sig, ctx, cfg, out, err, instream) -> int:
    solutions = _solve_goal(sig, ctx, _read_input(args.goal), cfg)
    if args.json:
        payload = [
            {
                "witness": format_term(s.witness),
                "type": format_term(s.derivation.conclusion.classifier),
            }
            for s in solutions
        ]
        _print_json(payload, out)
    elif solutions:
        _write_solutions(solutions, out)
    else:
        err.write("no solutions\n")
    return 0 if solutions else 1


def cmd_repl(args, sig, ctx, cfg, out, err, instream) -> int:
    out.write("commands: :check :elab :solve :discourse :ctx add NAME : TYPE :quit\n")
    while True:
        out.write("> ")
        out.flush()
        line = instream.readline()
        if not line:
            return 0
        line = line.strip()
        if not line:
            continue
        if line == ":quit":
            return 0
        try:
            ctx = _repl_dispatch(line, sig, ctx, cfg, out)
        except (ParseError, UnknownWord, TypeCheckError, EvalError) as error:
            _report_semantic_error(error, out)
        except RecursionError:
            out.write(f"{_TOO_DEEP}\n")
        except OSError as error:
            out.write(f"error: {error}\n")


def _repl_dispatch(line: str, sig, ctx, cfg, out):
    command, _, rest = line.partition(" ")
    rest = rest.strip()
    if command == ":check":
        derivations = infer_all(sig, ctx, parse_term(rest, sig.names), cfg)
        for derivation in derivations:
            out.write(f"{format_term(derivation.conclusion.classifier)}\n")
    elif command == ":elab":
        _write_elaborations(elaborate_all(sig, ctx, parse_term(rest, sig.names), cfg), out)
    elif command == ":solve":
        solutions = _solve_goal(sig, ctx, rest, cfg)
        if not solutions:
            out.write("no solutions\n")
        _write_solutions(solutions, out)
    elif command == ":discourse":
        meaning = interpret(parse_discourse(rest))
        out.write(f"meaning: {format_term(meaning)}\n")
        _write_elaborations(elaborate_all(sig, ctx, meaning, cfg), out)
    elif command == ":ctx":
        if rest.startswith("add "):
            name, entry_type = _parse_entry_line(rest[4:].strip(), sig.names)
            extended = ctx.extend(name, entry_type)
            check_context(sig, extended, cfg)
            out.write(f"added {name} : {format_term(entry_type)}\n")
            return extended
        if not rest:
            for name, entry_type in ctx.entries:
                out.write(f"{name} : {format_term(entry_type)}\n")
        else:
            out.write("usage: :ctx [add NAME : TYPE]\n")
    else:
        out.write(f"unknown command: {command}\n")
    return ctx


# Shared options, as parents that add them in help order: the environment
# and bounds every subcommand takes, elaborate's own flags, then --json.
_COMMON = argparse.ArgumentParser(add_help=False)
_COMMON.add_argument("--signature", metavar="FILE", help="extend the base signature from FILE")
_COMMON.add_argument("--context", metavar="FILE", help="load local hypotheses from FILE")
_COMMON.add_argument("--depth", type=_at_least(0), default=None, help="witness search depth")
_COMMON.add_argument(
    "--max-solutions", type=_at_least(1), default=None, help="witnesses per presupposition"
)
_COMMON.add_argument("--step-budget", type=_at_least(0), default=None, help="reduction step budget")
_COMMON.add_argument(
    "--max-derivations", type=_at_least(1), default=None, help="derivations per term"
)
_ELABORATE = argparse.ArgumentParser(add_help=False)
_ELABORATE.add_argument(
    "--discourse", action="store_true", help="treat the input as controlled English"
)
_ELABORATE.add_argument("--max", type=_at_least(0), default=None, help="print at most N results")
_JSON = argparse.ArgumentParser(add_help=False)
_JSON.add_argument("--json", action="store_true", help="structured output")

# Built once per process; each subcommand names its handler as `run`.
_PARSER = argparse.ArgumentParser(
    prog="presup",
    description="Type-check, solve and elaborate presuppositions in a small dependent type theory.",
)
_SUB = _PARSER.add_subparsers(dest="command", required=True)
_check = _SUB.add_parser(
    "check", parents=[_COMMON, _JSON], help="type-check a term, printing each derived type"
)
_check.add_argument("term", metavar="TERM", help="a term, or @FILE to read one")
_check.set_defaults(run=cmd_check)
_elab = _SUB.add_parser(
    "elaborate",
    parents=[_COMMON, _ELABORATE, _JSON],
    help="replace presuppositions by their witnesses",
)
_elab.add_argument("input", metavar="INPUT", help="a term or discourse, or @FILE")
_elab.set_defaults(run=cmd_elaborate)
_solve = _SUB.add_parser("solve", parents=[_COMMON, _JSON], help="list witnesses for a goal type")
_solve.add_argument("goal", metavar="GOALTYPE", help="the goal type, or @FILE")
_solve.set_defaults(run=cmd_solve)
_SUB.add_parser("repl", parents=[_COMMON], help="interactive loop").set_defaults(run=cmd_repl)


def main(argv=None, out=None, err=None, instream=None) -> int:
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    instream = instream if instream is not None else sys.stdin
    args = _PARSER.parse_args(argv)
    try:
        cfg = _config(args)
        sig, ctx = _load_environment(args, cfg)
        return args.run(args, sig, ctx, cfg, out, err, instream)
    except (ParseError, UnknownWord) as error:
        err.write(f"syntax error: {error}\n")
        return 2
    except (TypeCheckError, EvalError) as error:
        return _report_semantic_error(error, err)
    except BrokenPipeError:
        # The reader has all the output it wants.
        return 0
    except OSError as error:
        err.write(f"error: {error}\n")
        return 1
    except RecursionError:
        err.write(f"{_TOO_DEEP}\n")
        return 1


def entry_point() -> None:
    code = main()
    try:
        sys.stdout.flush()
    except BrokenPipeError:
        # The interpreter flushes stdout again at exit, and on a closed pipe
        # that would print a warning; send what is left to devnull instead.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    sys.exit(code)
