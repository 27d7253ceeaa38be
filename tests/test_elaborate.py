import random

import pytest

from presup import (
    CheckConfig,
    Const,
    Context,
    Fst,
    InvalidDerivation,
    Judgment,
    Derivation,
    Universe,
    Var,
    alpha_eq,
    check_all,
    contains_require,
    elaborate,
    elaborate_all,
    infer_all,
    parse_term,
    validate,
)

from helpers import nested_proj, random_context, typed_pool


def test_elaborate_pronoun_subject(sig, pctx):
    term = parse_term("SatDown (require x : E in x)")
    (derivation,) = infer_all(sig, pctx, term)
    assert alpha_eq(elaborate(derivation), parse_term("SatDown (fst p)"))


def test_elaborate_nested_definite_description(sig, pctx):
    term = parse_term("require x : E in (require q : Man x in x)")
    (derivation,) = infer_all(sig, pctx, term)
    assert alpha_eq(elaborate(derivation), Fst(Var("p")))


def test_elaborate_identity_on_require_free_terms(sig, pctx):
    for text in ("fst p", "snd (snd p)", "Man (fst p)", "(x : E) -> Man x", "Set0"):
        term = parse_term(text)
        for derivation in infer_all(sig, pctx, term):
            assert alpha_eq(elaborate(derivation), term)


def test_elaborate_rejects_invalid_derivations(sig):
    bogus = Derivation(
        "Hyp", Judgment(sig, Context(), Var("p"), Const("E"))
    )
    with pytest.raises(InvalidDerivation):
        elaborate(bogus)


def test_validator_rejects_unknown_rules(sig):
    judgment = Judgment(sig, Context(), Universe(0), Universe(1))
    bogus = Derivation("Magic", judgment)
    with pytest.raises(InvalidDerivation, match="unknown rule"):
        validate(bogus)
    with pytest.raises(InvalidDerivation, match="unknown rule"):
        elaborate(bogus)


def test_elaborate_all_first_discourse_meaning(sig):
    meaning = parse_term(
        "(p : (x : E) * (Man x * WalkedIn x)) * SatDown (require y : E in y)"
    )
    results = elaborate_all(sig, Context(), meaning)
    assert len(results) == 1
    term, classifier = results[0]
    expected = parse_term("(p : (x : E) * (Man x * WalkedIn x)) * SatDown (fst p)")
    assert alpha_eq(term, expected)
    assert classifier == Universe(0)


def test_elaborate_all_donkey_conditional(sig):
    meaning = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (require z : E in z) (require w : E in w)"
    )
    results = elaborate_all(sig, Context(), meaning)
    assert len(results) == 4
    golden = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (fst p) (fst (snd (snd p)))"
    )
    assert any(alpha_eq(term, golden) for term, _ in results)
    for term, _ in results:
        assert not contains_require(term)


def test_elaborate_all_universal_donkey(sig):
    meaning = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (fst p) (require w : E in w)"
    )
    results = elaborate_all(sig, Context(), meaning)
    assert len(results) == 2
    p = Var("p")
    golden_near = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y)))) -> Beats (fst p) (fst p)"
    )
    golden_far = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (fst p) (fst (snd (snd p)))"
    )
    assert any(alpha_eq(term, golden_near) for term, _ in results)
    assert any(alpha_eq(term, golden_far) for term, _ in results)
    assert alpha_eq(golden_far.codomain.arg, nested_proj(p, 3))


def test_elaborate_all_order_matches_infer_all(sig, donkey_ctx):
    term = parse_term("Beats (require z : E in z) (require w : E in w)")
    derivations = infer_all(sig, donkey_ctx, term)
    results = elaborate_all(sig, donkey_ctx, term)
    assert len(derivations) == len(results)
    for derivation, (elaborated, classifier) in zip(derivations, results):
        assert alpha_eq(elaborate(derivation), elaborated)
        assert alpha_eq(derivation.conclusion.classifier, classifier)


def test_type_preservation_on_goldens(sig, pctx, donkey_ctx):
    corpus = [
        (Context(), "(p : (x : E) * (Man x * WalkedIn x)) * SatDown (require y : E in y)"),
        (pctx, "SatDown (require x : E in require q : Man x in x)"),
        (donkey_ctx, "Beats (require z : E in z) (require w : E in w)"),
    ]
    for ctx, text in corpus:
        for derivation in infer_all(sig, ctx, parse_term(text)):
            elaborated = elaborate(derivation)
            assert not contains_require(elaborated)
            assert check_all(sig, ctx, elaborated, derivation.conclusion.classifier)


def test_type_preservation_on_generated_terms(sig):
    rng = random.Random(51)
    cfg = CheckConfig()
    checked = 0
    for _ in range(8):
        ctx = random_context(rng)
        for pooled in typed_pool(rng, sig, ctx, 20, cfg, with_requires=True):
            for derivation in check_all(sig, ctx, pooled.term, pooled.type, cfg)[:2]:
                elaborated = elaborate(derivation)
                assert not contains_require(elaborated)
                assert check_all(sig, ctx, elaborated, derivation.conclusion.classifier, cfg)
                checked += 1
    assert checked >= 200


def test_elaboration_idempotent(sig, pctx):
    term = parse_term("SatDown (require x : E in x)")
    (derivation,) = infer_all(sig, pctx, term)
    once = elaborate(derivation)
    (rechecked,) = infer_all(sig, pctx, once)
    assert alpha_eq(elaborate(rechecked), once)


def test_elaboration_depends_only_on_the_derivation(sig, donkey_ctx):
    term = parse_term("Beats (require z : E in z) (require w : E in w)")
    derivations = infer_all(sig, donkey_ctx, term)
    snapshot = [elaborate(d) for d in derivations]
    # Re-running with a different (still sufficient) configuration afterward
    # does not change what an already-built derivation elaborates to.
    infer_all(sig, donkey_ctx, term, CheckConfig(solver_depth=5))
    for derivation, before in zip(derivations, snapshot):
        assert alpha_eq(elaborate(derivation), before)
