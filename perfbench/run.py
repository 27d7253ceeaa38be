"""Benchmark of the presup pipeline, driven from outside.

    python3 perfbench/run.py --workload readings_all --seed 1 --seconds 30 --trace 0

Workloads (see README.md): `readings_all` and `definites_long` call the
library (parse, interpret, infer_all, elaborate, format_term);
`cli_session` calls `presup.cli.main` with captured streams.

A run repeats whole rounds of the seeded requests, always in the same order,
until `--seconds` have passed, so every run does the same requests per round
and the clock never stops inside a round.  Outputs are checked against the
generator's oracles after the timed section.  The last line of stdout is one
JSON object: `correct`, `attempted`, `failed` and `metrics` (end-to-end with
`--trace 0`, per layer with `--trace 1`).

Run from the root of a checkout that holds `src/presup`; the benchmark
imports the package from there, and exits with code 2 if it is missing.
"""

from __future__ import annotations

import argparse
import io
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
import types
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("readings_all", "definites_long", "cli_session")
# Fresh processes timed from spawn to ready, this many before and as many
# after the timed section; setup_s is their median.
SETUP_PROBES = 8
# Untraced and traced passes of the traced run; the overhead is the
# difference of their median wall times.
OVERHEAD_PASSES = 3
MODULES = ("__init__", "cli", "derivations", "elaborate", "evaluator",
           "frontend", "lexicon", "solver", "syntax", "typecheck")

sys.path.insert(0, str(HERE))
import workloads as W  # noqa: E402


class MissingProgram(Exception):
    pass


def import_presup():
    package = ROOT / "src" / "presup" / "__init__.py"
    if not package.is_file():
        raise MissingProgram(f"no presup package at {package.parent}")
    sys.path.insert(0, str(ROOT / "src"))
    import presup
    import presup.cli

    if Path(presup.__file__).resolve() != package.resolve():
        raise MissingProgram(f"imported presup from {presup.__file__}, not {package}")
    return presup


# ---------------------------------------------------------------------------
# Requests


@dataclass
class Outcome:
    ok: bool  # False: the operation failed (counted in `failed`)
    latency: float
    first: float | None  # seconds to the first formatted result, if any
    results: int
    output: object  # what the checks compare
    cli: bool = False


class FirstWrite(io.StringIO):
    """stdout for the CLI that remembers when its first byte came."""

    def __init__(self):
        super().__init__()
        self.first = None

    def write(self, text):
        if self.first is None and text:
            self.first = perf_counter()
        return super().write(text)


@dataclass
class Bench:
    presup: types.ModuleType
    api: types.SimpleNamespace
    sig: object
    cfg: object
    work: Path
    requests: list = field(default_factory=list)  # (label, callable, check)


def library_request(bench: Bench, discourse: W.Discourse, keep_derivations: bool):
    """parse -> interpret -> infer_all -> elaborate + format_term per reading."""
    api = bench.api
    text = discourse.text

    def run() -> Outcome:
        begin = perf_counter()
        meaning = api.interpret(api.parse_discourse(text))
        derivations = api.infer_all(bench.sig, api.Context(), meaning, bench.cfg)
        first = None
        readings = []
        for derivation in derivations:
            term = api.elaborate(derivation)
            classifier = derivation.conclusion.classifier
            readings.append((api.format_term(term), api.format_term(classifier), term, classifier))
            if first is None:
                first = perf_counter()
        end = perf_counter()
        kept = derivations if keep_derivations else None
        return Outcome(True, end - begin, first - begin, len(readings), (readings, kept))

    return run


def cli_request(bench: Bench, argv: list):
    api = bench.api

    def run() -> Outcome:
        out, err = FirstWrite(), io.StringIO()
        begin = perf_counter()
        code = api.cli_main(argv, out, err)
        end = perf_counter()
        first = None if out.first is None else out.first - begin
        output = (code, out.getvalue(), err.getvalue())
        return Outcome(True, end - begin, first, 0, output, cli=True)

    return run


# ---------------------------------------------------------------------------
# Checks, made outside the timed section.  Each returns an error or None.


def check_reading(bench: Bench, discourse: W.Discourse, outcome: Outcome):
    readings, derivations = outcome.output
    if len(readings) != discourse.readings:
        return f"{len(readings)} readings, oracle says {discourse.readings}: {discourse.text}"
    keys = {W.debruijn(term) for _, _, term, _ in readings}
    if len(keys) != len(readings):
        return f"readings not pairwise distinct up to alpha: {discourse.text}"
    api, presup = bench.api, bench.presup
    for shown, _, term, classifier in readings:
        if W.mentions_require(term):
            return f"elaborated term still has a require: {shown}"
        again = presup.infer_all(bench.sig, api.Context(), term, bench.cfg)
        if not any(presup.convertible(d.conclusion.classifier, classifier) for d in again):
            return f"elaborated term does not re-infer at its type: {shown}"
    if discourse.trail is not None:
        trail = witness_trail(bench, derivations[0])
        if trail != discourse.trail:
            return f"witnesses {trail}, generator says {discourse.trail}: {discourse.text}"
    return None


def witness_trail(bench: Bench, derivation) -> list:
    trail = []
    stack = [derivation]
    while stack:
        node = stack.pop()
        if node.witness is not None:
            trail.append(bench.presup.format_term(node.witness))
        stack.extend(reversed(node.premises))
    return trail


def check_solve(expected: set, outcome: Outcome):
    code, out, err = outcome.output
    if not expected:
        if code != 1 or out or "no solutions" not in err:
            return f"goal without witnesses: exit {code}, stdout {out[:80]!r}"
        return None
    if code != 0:
        return f"solve exit {code}: {err.strip()}"
    witnesses = [line.split(" : ", 1)[0] for line in out.splitlines()]
    if len(witnesses) != len(set(witnesses)) or set(witnesses) != expected:
        missing = sorted(expected - set(witnesses))[:3]
        extra = sorted(set(witnesses) - expected)[:3]
        return f"solve witnesses differ: missing {missing}, extra {extra}"
    return None


def _json_witnesses(node, acc):
    if "witness" in node:
        acc.append(node["witness"])
    for premise in node["premises"]:
        _json_witnesses(premise, acc)
    return acc


def check_check_json(discourse: W.Discourse, outcome: Outcome):
    code, out, err = outcome.output
    if code != 0:
        return f"check --json exit {code}: {err.strip()}"
    payload = json.loads(out)
    if len(payload) != discourse.readings:
        return f"check --json gave {len(payload)} derivations, oracle says {discourse.readings}"
    trails = {tuple(_json_witnesses(node, [])) for node in payload}
    if len(trails) != len(payload):
        return "check --json derivations repeat a witness choice"
    return None


def check_elaborate_json(discourse: W.Discourse, outcome: Outcome):
    code, out, err = outcome.output
    if code != 0:
        return f"elaborate --json exit {code}: {err.strip()}"
    payload = json.loads(out)
    terms = [item["term"] for item in payload]
    if len(terms) != discourse.readings or len(set(terms)) != len(terms):
        return f"elaborate --json gave {len(terms)} readings, oracle says {discourse.readings}"
    if any("require" in term for term in terms):
        return "elaborate --json printed a require"
    if discourse.text in W.PAPER_EXAMPLES[:2] and terms != [W.GOLDEN_FIRST]:
        return f"paper example elaborated to {terms}"
    return None


def check_max_one(outcome: Outcome):
    """`elaborate --max 1` on the 720-reading chain: one reading, or (today)
    the derivation-cap failure, which is counted as a failed operation."""
    code, out, err = outcome.output
    if code == 0 and len(out.splitlines()) == 1 and "require" not in out:
        return None
    if code == 1 and "max_total_derivations" in err:
        outcome.ok = False
        return None
    return f"elaborate --max 1: exit {code}, {err.strip()[:120]}"


# ---------------------------------------------------------------------------
# Setup


def setup(workload: str, seed: int) -> Bench:
    """Import presup, build and check the signature, generate and parse the
    inputs, and warm up with one request of every kind."""
    presup = import_presup()
    api = types.SimpleNamespace(
        Context=presup.Context,
        parse_discourse=presup.parse_discourse,
        interpret=presup.interpret,
        infer_all=presup.infer_all,
        elaborate=presup.elaborate,
        format_term=presup.format_term,
        cli_main=presup.cli.main,
    )
    sig = presup.base_signature()
    presup.check_signature(sig)
    cfg = presup.CheckConfig(max_total_derivations=W.MAX_DERIVATIONS)
    work = OUT / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    bench = Bench(presup, api, sig, cfg, work)
    if workload == "cli_session":
        add_cli_requests(bench, *W.cli_session(seed))
    else:
        round_ = W.readings_all(seed) if workload == "readings_all" else W.definites_long(seed)
        for discourse in round_:
            presup.interpret(presup.parse_discourse(discourse.text))
            bench.requests.append(
                (discourse.text[:40], library_request(bench, discourse, discourse.trail is not None),
                 lambda o, d=discourse: check_reading(bench, d, o))
            )
    warm_up(bench)
    return bench


def add_cli_requests(bench: Bench, contexts, check_discourses, examples) -> None:
    presup = bench.presup
    for index, case in enumerate(contexts):
        path = bench.work / f"context{index}.txt"
        path.write_text(case.context_text, encoding="utf-8")
        presup.parse_context_text(case.context_text, bench.sig)
        for goal, expected in case.goals:
            argv = ["solve", "--max-solutions", "100000", "--context", str(path), goal]
            bench.requests.append(
                (f"solve {goal}", cli_request(bench, argv),
                 lambda o, e=expected: check_solve(e, o))
            )
    for discourse in check_discourses:
        meaning = presup.format_term(presup.interpret(presup.parse_discourse(discourse.text)))
        presup.parse_term(meaning, bench.sig.names)
        bench.requests.append(
            (f"check --json {discourse.readings}", cli_request(bench, ["check", "--json", meaning]),
             lambda o, d=discourse: check_check_json(d, o))
        )
    for discourse in examples:
        argv = ["elaborate", "--discourse", "--json", discourse.text]
        bench.requests.append(
            (f"elaborate {discourse.text[:30]}", cli_request(bench, argv),
             lambda o, d=discourse: check_elaborate_json(d, o))
        )
    argv = ["elaborate", "--max", "1", "--discourse", W.FAILING_CHAIN]
    bench.requests.append(("elaborate --max 1 chain", cli_request(bench, argv), check_max_one))


def warm_up(bench: Bench) -> None:
    """One small request of each kind the benchmark makes, on fixed inputs,
    so every module's first-call costs are paid before timing."""
    example = W.paper_example(W.PAPER_EXAMPLES[2])
    outcome = library_request(bench, example, False)()
    error = check_reading(bench, example, outcome)
    context = bench.work / "warmup.txt"
    context.write_text("h : (x : E) * Man x * WalkedIn x\n", encoding="utf-8")
    for argv in (
        ["solve", "--context", str(context), "E"],
        ["check", "--json", "SatDown (require x : E in x)", "--context", str(context)],
        ["elaborate", "--discourse", "--json", W.PAPER_EXAMPLES[0]],
    ):
        code, _, err = cli_request(bench, argv)().output
        if code != 0:
            error = error or f"warm-up {argv[0]}: exit {code}: {err.strip()}"
    if error:
        raise RuntimeError(f"warm-up failed: {error}")


def probe_setup(workload: str, seed: int) -> float:
    """Seconds from spawning a fresh interpreter until its setup is done."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
            "--seed", str(seed), "--setup-only"]
    spawned = time.time()
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, cwd=ROOT)
    if done.returncode != 0:
        raise RuntimeError(f"setup probe failed: {done.stderr.strip()[-300:]}")
    return float(done.stdout.strip().splitlines()[-1]) - spawned


# ---------------------------------------------------------------------------
# Timed section


@dataclass
class Tally:
    attempted: int = 0
    failed: int = 0
    rounds: int = 0
    round_walls: list = field(default_factory=list)
    # Per round, the seconds that its completed and its failed requests took.
    busy: list = field(default_factory=list)
    failing: list = field(default_factory=list)
    # (request index, latency, time to first result) of every request made
    samples: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    firsts: list = field(default_factory=list)
    errors: list = field(default_factory=list)
    # Per request: the first round's outcome, which the checks examine.
    # Later rounds are only compared with it, then dropped.
    first_round: list = field(default_factory=list)
    mismatches: int = 0
    per_round: tuple = (0, 0)  # completed requests and results in one round


def digest(outcome: Outcome):
    if outcome.cli:
        return outcome.output
    readings, _ = outcome.output
    return [(shown, typ) for shown, typ, _, _ in readings]


def run_rounds(bench: Bench, seconds: float, tracer=None) -> Tally:
    """Whole rounds of the requests until `seconds` have passed (one round
    if `seconds` is 0)."""
    tally = Tally()
    reference = []
    begin = perf_counter()
    while True:
        round_begin = perf_counter()
        for index, (_, request, _) in enumerate(bench.requests):
            if tracer is not None:
                tracer.current_request = index
            outcome = request()
            if tally.rounds == 0:
                tally.first_round.append(outcome)
                reference.append(digest(outcome))
            elif digest(outcome) != reference[index]:
                tally.mismatches += 1
            tally.attempted += 1
            tally.samples.append((index, outcome.latency, outcome.first))
        tally.rounds += 1
        tally.round_walls.append(perf_counter() - round_begin)
        if perf_counter() - begin >= seconds:
            break
    return tally


def evaluate(bench: Bench, tally: Tally) -> None:
    """Run the checks on the first round; they decide which requests failed,
    and every round repeats that verdict."""
    verdicts = []
    for (label, _, check), outcome in zip(bench.requests, tally.first_round):
        error = check(outcome)
        if error:
            tally.errors.append(f"{label}: {error}")
        verdicts.append(outcome.ok)
    if tally.mismatches:
        tally.errors.append(f"{tally.mismatches} outputs differ between rounds")
    results = [count_results(outcome) for outcome in tally.first_round]
    latencies = [[] for _ in bench.requests]
    firsts = [[] for _ in bench.requests]
    tally.busy = [0.0] * tally.rounds
    tally.failing = [0.0] * tally.rounds
    for position, (index, latency, first) in enumerate(tally.samples):
        round_ = position // len(bench.requests)
        if not verdicts[index]:
            tally.failed += 1
            tally.failing[round_] += latency
            continue
        tally.busy[round_] += latency
        latencies[index].append(latency)
        if first is not None:
            firsts[index].append(first)
    # Per request, the median over the rounds: one slow round of one request
    # must not move the median of the mix.
    tally.latencies = [statistics.median(x) for x in latencies if x]
    tally.firsts = [statistics.median(x) for x in firsts if x]
    tally.per_round = (sum(verdicts), sum(r for r, ok in zip(results, verdicts) if ok))


def count_results(outcome: Outcome) -> int:
    """Readings, `--json` derivations or entries, or solver witnesses."""
    if not outcome.cli:
        return outcome.results
    _, out, _ = outcome.output
    if out.startswith("["):
        return len(json.loads(out))
    return len(out.splitlines())


# ---------------------------------------------------------------------------
# Per-layer metrics


def loc(path: Path) -> int:
    lines = path.read_text(encoding="utf-8").splitlines()
    return sum(1 for line in lines if line.strip() and not line.strip().startswith("#"))


def layer_metrics(tracer, pass_wall: float, plain_wall: float, traced_wall: float,
                  stdout_bytes: int) -> dict:
    """`pass_wall` is the wall time of the pass the tracer saw; `plain_wall`
    and `traced_wall` are the medians of the untraced and traced passes."""
    from tracer import walk_nodes

    s = tracer.summary()
    calls, total, own, sizes = s["calls"], s["total_s"], s["self_s"], s["sizes"]

    def ms(seconds):
        return seconds * 1000.0

    def layer_self(layer):
        return sum(v for k, v in own.items() if k.startswith(layer + "."))

    candidates = s["by_parent"].get(("evaluator.convertible", "solver.solve"), 0)
    nodes, distinct = walk_nodes(tracer.kept)
    validate_elab = total.get("derivations.validate", 0.0) + layer_self("elaborate")
    m = {
        "cli.main.calls": (calls.get("cli.main", 0), "count"),
        "cli.self_ms": (ms(layer_self("cli")), "ms"),
        "cli.stdout_kb": (stdout_bytes / 1024.0, "kB"),
        "frontend.parse_discourse.ms": (ms(total.get("frontend.parse_discourse", 0.0)), "ms"),
        "frontend.interpret.ms": (ms(total.get("frontend.interpret", 0.0)), "ms"),
        "frontend.parse_term.ms": (ms(total.get("frontend.parse_term", 0.0)), "ms"),
        "typecheck.infer_all.calls": (calls.get("typecheck.infer_all", 0), "count"),
        "typecheck.self_ms": (ms(layer_self("typecheck")), "ms"),
        "typecheck.env_check.ms": (ms(total.get("typecheck.check_signature", 0.0)
                                      + total.get("typecheck.check_context", 0.0)), "ms"),
        "typecheck.derivations_kept": (sizes.get("typecheck.infer_all", 0), "count"),
        "solver.solve.calls": (calls.get("solver.solve", 0), "count"),
        "solver.solve.ms": (ms(total.get("solver.solve", 0.0)), "ms"),
        "solver.self_ms": (ms(layer_self("solver")), "ms"),
        "solver.candidates": (candidates, "count"),
        "solver.solutions": (sizes.get("solver.solve", 0), "count"),
        "solver.hit_ratio": (sizes.get("solver.solve", 0) / max(candidates, 1), "ratio"),
        "evaluator.normalize.calls": (calls.get("evaluator.normalize", 0), "count"),
        "evaluator.convertible.calls": (calls.get("evaluator.convertible", 0), "count"),
        "evaluator.ms": (ms(tracer.layer_total("evaluator")), "ms"),
        "syntax.alpha_key.calls": (calls.get("syntax.alpha_key", 0), "count"),
        "syntax.alpha_key.ms": (ms(total.get("syntax.alpha_key", 0.0)), "ms"),
        "syntax.alpha_eq.calls": (calls.get("syntax.alpha_eq", 0), "count"),
        "syntax.substitute.calls": (calls.get("syntax.substitute", 0), "count"),
        "syntax.format_term.ms": (ms(total.get("syntax.format_term", 0.0)), "ms"),
        "derivations.validate.calls": (calls.get("derivations.validate", 0), "count"),
        "derivations.validate.ms": (ms(total.get("derivations.validate", 0.0)), "ms"),
        "derivations.nodes": (nodes, "count"),
        "derivations.unique_node_ratio": (distinct / max(nodes, 1), "ratio"),
        "derivations.to_json.ms": (ms(total.get("derivations.to_json_dict", 0.0)
                                      + total.get("derivations.to_json", 0.0)), "ms"),
        "elaborate.elaborate.calls": (calls.get("elaborate.elaborate", 0), "count"),
        "elaborate.self_ms": (ms(layer_self("elaborate")), "ms"),
        "trace.wall_ms": (ms(traced_wall), "ms"),
        "trace.untraced_ms": (ms(plain_wall), "ms"),
        "trace.overhead_ms": (ms(traced_wall - plain_wall), "ms"),
        "trace.spans": (s["spans"], "count"),
        "trace.solve_share": (total.get("solver.solve", 0.0) / pass_wall, "ratio"),
        "trace.validate_elaborate_share": (validate_elab / pass_wall, "ratio"),
    }
    for module in MODULES:
        name = "init" if module == "__init__" else module
        m[f"{name}.loc"] = (loc(ROOT / "src" / "presup" / f"{module}.py"), "lines")
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


# ---------------------------------------------------------------------------


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print the wall-clock time when ready, and exit")
    return parser.parse_args(argv)


def timed_run(args) -> dict:
    setups = [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    bench = setup(args.workload, args.seed)
    try:
        tally = run_rounds(bench, args.seconds)
        peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        evaluate(bench, tally)
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    setups += [probe_setup(args.workload, args.seed) for _ in range(SETUP_PROBES)]
    for line in tally.errors:
        print(f"check failed: {line}", file=sys.stderr)
    # Throughput counts only the time of the completed requests, so a kept
    # failure neither adds results nor takes time from them.
    busy = statistics.median(tally.busy)
    failing = statistics.median(tally.failing) / statistics.median(tally.round_walls)
    print(f"{args.workload}: {tally.rounds} rounds of {len(bench.requests)} requests, "
          f"{', '.join(f'{s:.3f}' for s in tally.round_walls)} s, failed requests "
          f"{failing:.1%} of a round; setups {', '.join(f'{s:.3f}' for s in setups)} s",
          file=sys.stderr)
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "requests_per_s": (tally.per_round[0] / busy, "1/s"),
        "results_per_s": (tally.per_round[1] / busy, "1/s"),
        "latency_p50_ms": (statistics.median(tally.latencies) * 1000.0, "ms"),
        "first_output_ms": (statistics.median(tally.firsts) * 1000.0, "ms"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    return {
        "correct": not tally.errors,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def one_pass(bench: Bench, tracer=None) -> tuple:
    """The warm-up and one round, under `tracer` if one is given; returns the
    wall time of both and the round's tally."""
    if tracer is not None:
        tracer.install(bench.api)
    try:
        begin = perf_counter()
        warm_up(bench)
        tally = run_rounds(bench, 0.0, tracer)
        return perf_counter() - begin, tally
    finally:
        if tracer is not None:
            tracer.uninstall()


def traced_run(args) -> dict:
    """Untraced passes, then traced ones (a pass is the warm-up and one
    round).  Per-layer figures come from the first traced pass, and its
    shares of time are shares of that pass's wall time; the overhead is the
    median traced pass minus the median untraced one."""
    from tracer import Tracer

    bench = setup(args.workload, args.seed)
    try:
        plain = [one_pass(bench)[0] for _ in range(OVERHEAD_PASSES)]
        tracer = Tracer()
        traced_wall, traced = one_pass(bench, tracer)
        walls = [traced_wall] + [one_pass(bench, Tracer())[0] for _ in range(OVERHEAD_PASSES - 1)]
        evaluate(bench, traced)
        stdout = sum(len(o.output[1].encode()) for o in traced.first_round if o.cli)
        metrics = layer_metrics(tracer, traced_wall, statistics.median(plain),
                                statistics.median(walls), stdout)
        tracer.write(OUT / f"spans-{args.workload}-{args.seed}.bin")
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
    for line in traced.errors:
        print(f"check failed: {line}", file=sys.stderr)
    return {
        "correct": not traced.errors,
        "attempted": traced.attempted,
        "failed": traced.failed,
        "metrics": metrics,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    # Unwind on SIGTERM too, so the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        import_presup()
        if args.setup_only:
            bench = setup(args.workload, args.seed)
            print(repr(time.time()))
            shutil.rmtree(bench.work, ignore_errors=True)
            return 0
        result = traced_run(args) if args.trace else timed_run(args)
    except MissingProgram as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
