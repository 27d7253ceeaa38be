"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own report.
"""

import io
import json
import random
from contextlib import contextmanager

from presup import (
    App,
    CheckConfig,
    Const,
    Context,
    Fst,
    Pi,
    Sigma,
    Universe,
    UnresolvedPresupposition,
    Var,
    alpha_eq,
    alpha_key,
    check_all,
    contains_require,
    convertible,
    elaborate,
    elaborate_all,
    explicit_the,
    infer_all,
    interpret,
    normalize,
    parse_discourse,
    parse_term,
    substitute,
)
from presup.cli import main

from conftest import DONKEY_LINE, PCTX_LINE
from helpers import nested_proj, oracle_filter, random_context, solver_witness_keys, typed_pool, typed_spine_universe

GOLDEN_ONE = "(p : (x : E) * (Man x * WalkedIn x)) * SatDown (fst p)"
GOLDEN_DONKEY = (
    "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
    " -> Beats (fst p) (fst (snd (snd p)))"
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({label}): FAIL")
        raise
    print(f"criterion {number} ({label}): PASS")


def _elaborate_discourse(text: str, sig):
    meaning = interpret(parse_discourse(text))
    return elaborate_all(sig, Context(), meaning)


def test_criterion_1_golden_elaboration_pronoun(sig):
    with criterion(1, "golden elaboration, pronoun discourse"):
        results = _elaborate_discourse("A man walked in. He sat down.", sig)
        assert len(results) == 1
        assert alpha_eq(results[0][0], parse_term(GOLDEN_ONE))


def test_criterion_2_golden_elaboration_definite(sig):
    with criterion(2, "golden elaboration, definite description"):
        meaning = interpret(parse_discourse("A man walked in. The man (then) sat down."))
        derivations = infer_all(sig, Context(), meaning)
        assert len(derivations) == 1
        elaborated = elaborate(derivations[0])
        assert alpha_eq(elaborated, parse_term(GOLDEN_ONE))
        # The nested derivation discharges both presuppositions: the entity
        # and the evidence that it is a man.
        witnesses = _witnesses(derivations[0])
        assert alpha_key(parse_term("fst p")) in witnesses
        assert alpha_key(parse_term("fst (snd p)")) in witnesses


def test_criterion_3_donkey_conditional_solution_count(sig):
    with criterion(3, "conditional donkey sentence: four solutions"):
        results = _elaborate_discourse("If a farmer owns a donkey, he beats it.", sig)
        assert len(results) == 4
        golden = parse_term(GOLDEN_DONKEY)
        assert any(alpha_eq(term, golden) for term, _ in results)
        p = Var("p")
        assert alpha_eq(golden.codomain, App(App(Const("Beats"), nested_proj(p, 1)), nested_proj(p, 3)))


def test_criterion_4_universal_donkey_solution_count(sig, donkey_ctx):
    with criterion(4, "universal donkey sentence: two solutions"):
        results = _elaborate_discourse("Every farmer who owns a donkey beats it.", sig)
        assert len(results) == 2
        golden = parse_term(GOLDEN_DONKEY)
        assert any(alpha_eq(term, golden) for term, _ in results)
        # The count is exactly the brute-force witness count for E in that context.
        cfg = CheckConfig()
        oracle = oracle_filter(typed_spine_universe(sig, donkey_ctx, 8, cfg), Const("E"))
        assert len(oracle) == 2


def test_criterion_5_beta_law_for_the(sig):
    with criterion(5, "beta law for the explicit definite determiner"):
        p = Var("p")
        applied = App(
            App(App(explicit_the(), Const("Man")), nested_proj(p, 1)), nested_proj(p, 2)
        )
        assert alpha_eq(normalize(applied), Fst(p))


def test_criterion_6_type_preservation_suite(sig, pctx, donkey_ctx):
    with criterion(6, "type preservation of elaboration"):
        cfg = CheckConfig()
        checked_derivations = 0
        # Golden corpus: the four discourses, plus require-bearing fragments.
        goldens = [
            (Context(), interpret(parse_discourse("A man walked in. He sat down."))),
            (
                Context(),
                interpret(parse_discourse("A man walked in. The man (then) sat down.")),
            ),
            (
                Context(),
                interpret(parse_discourse("If a farmer owns a donkey, he beats it.")),
            ),
            (
                Context(),
                interpret(parse_discourse("Every farmer who owns a donkey beats it.")),
            ),
            (pctx, parse_term("SatDown (require x : E in x)")),
            (pctx, parse_term("require x : E in (require q : Man x in x)")),
            (donkey_ctx, parse_term("Beats (require z : E in z) (require w : E in w)")),
        ]
        for ctx, term in goldens:
            for derivation in infer_all(sig, ctx, term, cfg):
                elaborated = elaborate(derivation)
                assert not contains_require(elaborated)
                assert check_all(sig, ctx, elaborated, derivation.conclusion.classifier, cfg)
                checked_derivations += 1
        # Randomly generated well-typed terms, seeded, depth <= 5.
        rng = random.Random(2024)
        generated_terms = 0
        while generated_terms < 1000:
            ctx = random_context(rng)
            for pooled in typed_pool(rng, sig, ctx, 28, cfg, with_requires=True):
                generated_terms += 1
                derivations = check_all(sig, ctx, pooled.term, pooled.type, cfg)
                assert derivations
                for derivation in derivations[:2]:
                    elaborated = elaborate(derivation)
                    assert not contains_require(elaborated)
                    assert check_all(
                        sig, ctx, elaborated, derivation.conclusion.classifier, cfg
                    )
                    checked_derivations += 1
        assert generated_terms >= 1000
        assert checked_derivations >= 1000


def test_criterion_7_solver_oracle_equivalence(sig, pctx, donkey_ctx):
    with criterion(7, "solver matches the brute-force enumerator"):
        cfg = CheckConfig()
        paper_contexts = [Context(), pctx, donkey_ctx, pctx.extend("q", Const("E"))]
        for ctx in paper_contexts:
            universe = typed_spine_universe(sig, ctx, 5, cfg)
            goals = [Const("E"), Universe(0)]
            if ctx.lookup("p") is not None:
                goals.append(App(Const("Man"), Fst(Var("p"))))
            for goal in goals:
                assert solver_witness_keys(sig, ctx, goal, 5) == oracle_filter(universe, goal)
        rng = random.Random(77)
        contexts_checked = 0
        for _ in range(200):
            ctx = random_context(rng, max_hyps=4, max_nesting=4)
            universe = typed_spine_universe(sig, ctx, 4, cfg)
            goals = [Const("E"), Universe(0), Pi("_", Const("E"), Const("E"))]
            spine_types = sorted({alpha_key(t) for _, t in universe})
            for _, spine_type in universe:
                if alpha_key(spine_type) in (spine_types[0], spine_types[-1]):
                    goals.append(spine_type)
            for goal in goals[:6]:
                assert solver_witness_keys(sig, ctx, goal, 4) == oracle_filter(universe, goal)
            contexts_checked += 1
        assert contexts_checked == 200


def test_criterion_8_unresolved_presupposition(sig):
    with criterion(8, "unresolved presupposition still has a meaning"):
        term = parse_term("require x : E in x")  # parses: the meaning exists
        assert contains_require(term)
        try:
            infer_all(sig, Context(), term)
            raise AssertionError("expected an unresolved presupposition")
        except UnresolvedPresupposition as error:
            assert alpha_eq(error.goal, Const("E"))
        out, err = io.StringIO(), io.StringIO()
        code = main(["check", "require x : E in x"], out=out, err=err, instream=io.StringIO())
        assert code == 1
        assert "unresolved presupposition: E" in err.getvalue()


def test_criterion_9_elimination_soundness(sig, pctx, donkey_ctx):
    with criterion(9, "elimination rules are sound on generated terms"):
        cfg = CheckConfig()
        rng = random.Random(99)
        projections = applications = 0
        for _ in range(12):
            ctx = random_context(rng)
            pool = typed_pool(rng, sig, ctx, 30, cfg)
            inferable = [e for e in pool if e.inferable]
            for entry in inferable:
                if isinstance(entry.type, Sigma):
                    assert check_all(sig, ctx, Fst(entry.term), entry.type.domain, cfg)
                    second = substitute(
                        entry.type.codomain, entry.type.binder, Fst(entry.term)
                    )
                    from presup import Snd

                    assert check_all(sig, ctx, Snd(entry.term), second, cfg)
                    projections += 1
                if isinstance(entry.type, Pi):
                    domain = entry.type.domain
                    args = [
                        e
                        for e in pool
                        if convertible(e.type, domain, cfg.step_budget) and e.depth < 5
                    ]
                    for arg in args[:2]:
                        result = substitute(entry.type.codomain, entry.type.binder, arg.term)
                        assert check_all(sig, ctx, App(entry.term, arg.term), result, cfg)
                        applications += 1
        assert projections >= 30 and applications >= 30
        # Normalization preserves type across the golden corpus.
        corpus = [
            (Context(), interpret(parse_discourse("A man walked in. He sat down."))),
            (Context(), interpret(parse_discourse("If a farmer owns a donkey, he beats it."))),
            (pctx, parse_term("SatDown (require x : E in x)")),
            (donkey_ctx, parse_term("Beats (require z : E in z) (require w : E in w)")),
        ]
        for ctx, term in corpus:
            for derivation in infer_all(sig, ctx, term, cfg):
                reduced = normalize(term)
                assert check_all(sig, ctx, reduced, derivation.conclusion.classifier, cfg)


def test_criterion_10_json_determinism(tmp_path):
    with criterion(10, "byte-identical --json output"):
        pctx_file = tmp_path / "pctx"
        pctx_file.write_text(PCTX_LINE + "\n", encoding="utf-8")
        donkey_file = tmp_path / "donkeyctx"
        donkey_file.write_text(DONKEY_LINE + "\n", encoding="utf-8")
        commands = [
            ["check", "--context", str(pctx_file), "--json", "SatDown (require x : E in x)"],
            ["check", "--json", "Set0"],
            ["elaborate", "--json", "--discourse", "A man walked in. He sat down."],
            ["elaborate", "--json", "--discourse", "A man walked in. The man (then) sat down."],
            ["elaborate", "--json", "--discourse", "If a farmer owns a donkey, he beats it."],
            ["elaborate", "--json", "--discourse", "Every farmer who owns a donkey beats it."],
            ["solve", "--context", str(donkey_file), "--json", "E"],
        ]
        for argv in commands:
            runs = []
            for _ in range(2):
                out, err = io.StringIO(), io.StringIO()
                code = main(argv, out=out, err=err, instream=io.StringIO())
                runs.append((code, out.getvalue().encode(), err.getvalue()))
            assert runs[0] == runs[1]
            json.loads(runs[0][1])


def _witnesses(derivation):
    found = set()

    def walk(node):
        if node.witness is not None:
            found.add(alpha_key(node.witness))
        for premise in node.premises:
            walk(premise)

    walk(derivation)
    return found
