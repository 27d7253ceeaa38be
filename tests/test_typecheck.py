import random

import pytest

from presup import (
    App,
    BinderEscape,
    CannotInfer,
    CheckConfig,
    Const,
    Context,
    DuplicateName,
    Fst,
    IllTypedEntry,
    Lam,
    NotAFunction,
    NotAPair,
    Pair,
    Pi,
    Require,
    Sigma,
    Signature,
    TypeMismatch,
    UnboundName,
    Universe,
    UnresolvedPresupposition,
    Var,
    alpha_eq,
    check_all,
    check_context,
    check_signature,
    convertible,
    infer_all,
    interpret,
    parse_discourse,
    parse_term,
    to_json,
    validate,
)
from presup.lexicon import entry

from helpers import random_context, typed_pool

SET0 = Universe(0)
ENTITY = Const("E")


def test_check_signature_empty():
    check_signature(Signature())


def test_check_signature_base(sig):
    check_signature(sig)


def test_check_signature_duplicate():
    sig = Signature((("E", SET0), ("E", SET0)))
    with pytest.raises(DuplicateName):
        check_signature(sig)


def test_check_signature_ill_typed_entry():
    sig = Signature((("E", SET0), ("Man", App(Const("E"), Const("E")))))
    with pytest.raises(IllTypedEntry):
        check_signature(sig)


def test_check_signature_entry_out_of_order():
    # Man's type uses E before E is declared.
    sig = Signature((("Man", Pi("_", ENTITY, SET0)), ("E", SET0)))
    with pytest.raises(IllTypedEntry):
        check_signature(sig)


def test_check_context_empty(sig):
    check_context(sig, Context())


def test_check_context_discourse_referent(sig, pctx):
    check_context(sig, pctx)


def test_check_context_clash_with_signature(sig):
    with pytest.raises(DuplicateName):
        check_context(sig, Context((("Man", ENTITY),)))


def test_check_context_duplicate_hypothesis(sig):
    ctx = Context((("p", ENTITY), ("p", ENTITY)))
    with pytest.raises(DuplicateName):
        check_context(sig, ctx)


def test_convertible_projection_reduction():
    assert convertible(
        App(Const("Man"), Fst(Pair(Var("m"), Var("w")))), App(Const("Man"), Var("m"))
    )


def test_convertible_distinct_canonical_forms():
    assert not convertible(Universe(0), Universe(1))


def test_infer_hypothesis(sig, pctx):
    (derivation,) = infer_all(sig, pctx, Var("p"))
    assert derivation.rule == "Hyp"
    assert alpha_eq(derivation.conclusion.classifier, pctx.lookup("p"))


def test_infer_constant(sig):
    (derivation,) = infer_all(sig, Context(), Const("Beats"))
    assert alpha_eq(derivation.conclusion.classifier, parse_term("E -> E -> Set0"))


def test_infer_universe_least_level(sig):
    (derivation,) = infer_all(sig, Context(), Universe(0))
    assert derivation.rule == "Cumulativity"
    assert derivation.conclusion.classifier == Universe(1)


def test_infer_unbound_name(sig):
    with pytest.raises(UnboundName):
        infer_all(sig, Context(), Var("nobody"))


def test_infer_pronoun_with_antecedent(sig, pctx):
    term = parse_term("SatDown (require x : E in x)")
    derivations = infer_all(sig, pctx, term)
    assert len(derivations) == 1
    derivation = derivations[0]
    assert derivation.conclusion.classifier == SET0
    requires = _require_nodes(derivation)
    assert len(requires) == 1
    assert alpha_eq(requires[0].witness, Fst(Var("p")))


def test_infer_pronoun_without_antecedent(sig):
    term = parse_term("require x : E in x")
    with pytest.raises(UnresolvedPresupposition) as info:
        infer_all(sig, Context(), term)
    assert alpha_eq(info.value.goal, ENTITY)


def test_infer_donkey_consequent_has_four_derivations(sig, donkey_ctx):
    term = parse_term("Beats (require z : E in z) (require w : E in w)")
    derivations = infer_all(sig, donkey_ctx, term)
    assert len(derivations) == 4
    for derivation in derivations:
        assert derivation.conclusion.classifier == SET0


def test_infer_projection_types(sig, pctx):
    (first,) = infer_all(sig, pctx, parse_term("fst p"))
    assert alpha_eq(first.conclusion.classifier, ENTITY)
    (second,) = infer_all(sig, pctx, parse_term("snd p"))
    expected = parse_term("Man (fst p) * WalkedIn (fst p)")
    assert alpha_eq(second.conclusion.classifier, expected)


def test_infer_not_a_function(sig):
    with pytest.raises(NotAFunction):
        infer_all(sig, Context(), parse_term("Set0 Set1"))


def test_infer_not_a_pair(sig):
    with pytest.raises(NotAPair):
        infer_all(sig, Context(), parse_term("fst Set0"))


def test_infer_lambda_and_pair_need_annotations(sig):
    with pytest.raises(CannotInfer):
        infer_all(sig, Context(), Lam("x", Var("x")))
    with pytest.raises(CannotInfer):
        infer_all(sig, Context(), Pair(SET0, SET0))


def test_infer_let(sig):
    term = parse_term("let x : Set1 = Set0 in <x, x>")
    with pytest.raises(CannotInfer):
        infer_all(sig, Context(), term)
    (derivation,) = infer_all(sig, Context(), parse_term("let x : Set1 = Set0 in E"))
    assert derivation.rule == "Let"
    assert derivation.conclusion.classifier == SET0


def test_check_indefinite_entry_at_its_level(sig):
    # Formation is at the maximum of the component levels, so quantifier
    # results land in Set0, not Set1.
    meaning = entry("a").meaning
    good = parse_term("(P : E -> Set0) -> (Q : E -> Set0) -> Set0")
    assert check_all(sig, Context(), meaning, good)
    higher = parse_term("(P : E -> Set0) -> (Q : E -> Set0) -> Set1")
    with pytest.raises(TypeMismatch):
        check_all(sig, Context(), meaning, higher)


def test_check_universal_entry(sig):
    meaning = entry("every").meaning
    good = parse_term("(P : E -> Set0) -> (Q : E -> Set0) -> Set0")
    assert check_all(sig, Context(), meaning, good)


def test_check_pair_with_cumulativity(sig):
    derivations = check_all(sig, Context(), Pair(SET0, SET0), parse_term("(x : Set1) * Set1"))
    assert derivations
    assert derivations[0].rule == "SigI"
    for premise in derivations[0].premises:
        assert premise.rule == "Cumulativity"


def test_check_lambda_against_pair_type_fails(sig):
    with pytest.raises(TypeMismatch):
        check_all(sig, Context(), Lam("x", Var("x")), parse_term("(x : E) * E"))


def test_check_against_convertible_type_records_conv(sig, pctx):
    expected = App(Const("Man"), Fst(Pair(Fst(Var("p")), SET0)))
    derivations = check_all(sig, pctx, parse_term("fst (snd p)"), expected)
    assert derivations
    assert derivations[0].rule == "Conv"


def test_check_universe_against_higher_universe_only(sig):
    assert check_all(sig, Context(), Universe(0), Universe(2))
    with pytest.raises(TypeMismatch):
        check_all(sig, Context(), Universe(1), Universe(1))
    with pytest.raises(TypeMismatch):
        check_all(sig, Context(), Universe(2), Universe(1))


def test_every_derivation_revalidates(sig, pctx, donkey_ctx):
    corpus = [
        (pctx, "SatDown (require x : E in x)"),
        (pctx, "SatDown (require x : E in require q : Man x in x)"),
        (donkey_ctx, "Beats (require z : E in z) (require w : E in w)"),
        (Context(), "(x : E) -> Man x"),
        (Context(), "let y : Set1 = Set0 in E"),
    ]
    for ctx, text in corpus:
        for derivation in infer_all(sig, ctx, parse_term(text)):
            validate(derivation)


def test_require_side_condition_enforced(sig, pctx, donkey_ctx):
    for ctx, text in [
        (pctx, "SatDown (require x : E in x)"),
        (donkey_ctx, "Beats (require z : E in z) (require w : E in w)"),
    ]:
        for derivation in infer_all(sig, ctx, parse_term(text)):
            for node in _require_nodes(derivation):
                from presup import free_vars

                assert node.conclusion.subject.binder not in free_vars(
                    node.conclusion.classifier
                )


def test_weakening(sig, pctx):
    term = parse_term("SatDown (require x : E in x)")
    base = infer_all(sig, pctx, term)
    extended = pctx.extend("q", App(Const("Man"), Fst(Var("p"))))
    widened = infer_all(sig, extended, term)
    base_types = {to_json(d.premises[0]) for d in base}
    assert len(widened) >= len(base)
    base_keys = {_witnesses(d) for d in base}
    widened_keys = {_witnesses(d) for d in widened}
    assert base_keys <= widened_keys
    assert base_types  # sanity: something was compared


def test_single_derivation_for_require_free_terms(sig, pctx):
    rng = random.Random(31)
    cfg = CheckConfig()
    for _ in range(10):
        ctx = random_context(rng)
        for pooled in typed_pool(rng, sig, ctx, 20, cfg):
            if not pooled.inferable:
                continue
            derivations = infer_all(sig, ctx, pooled.term, cfg)
            assert len(derivations) == 1
            assert convertible(derivations[0].conclusion.classifier, pooled.type)


def test_subjects_alpha_equal_across_derivations(sig, donkey_ctx):
    term = parse_term("Beats (require z : E in z) (require w : E in w)")
    derivations = infer_all(sig, donkey_ctx, term)
    for derivation in derivations:
        assert alpha_eq(derivation.conclusion.subject, term)


def test_json_serialization_stable(sig, pctx):
    term = parse_term("SatDown (require x : E in x)")
    first = [to_json(d) for d in infer_all(sig, pctx, term)]
    second = [to_json(d) for d in infer_all(sig, pctx, term)]
    assert first == second
    assert '"rule"' in first[0] and '"witness"' in first[0]


def test_step_budget_propagates_to_conversion(sig):
    # Exposing the pair type here takes one reduction, so a zero budget trips
    # the non-termination guard inside the checker.
    from presup import NonTermination, parse_context_text

    ctx = parse_context_text("k : (Q : E -> Set0) -> (x : E) -> Q x\ne : E", sig)
    term = parse_term("fst (k (\\y. (x : E) * Man x) e)")
    assert infer_all(sig, ctx, term)
    with pytest.raises(NonTermination):
        infer_all(sig, ctx, term, CheckConfig(step_budget=0))


def test_budget_exceeded_on_too_many_derivations(sig):
    from presup import BudgetExceeded

    ctx = Context()
    for index in range(4):
        ctx = ctx.extend(f"e{index}", Const("E"))
    term = parse_term("Beats (require z : E in z) (require w : E in w)")
    assert len(infer_all(sig, ctx, term)) == 16
    with pytest.raises(BudgetExceeded):
        infer_all(sig, ctx, term, CheckConfig(max_total_derivations=10))


def test_generated_terms_check_at_their_constructed_types(sig):
    rng = random.Random(32)
    cfg = CheckConfig()
    for _ in range(8):
        ctx = random_context(rng)
        for pooled in typed_pool(rng, sig, ctx, 25, cfg, with_requires=True):
            assert check_all(sig, ctx, pooled.term, pooled.type, cfg)


def _require_nodes(derivation):
    nodes = []

    def walk(node):
        if node.rule == "Require":
            nodes.append(node)
        for premise in node.premises:
            walk(premise)

    walk(derivation)
    return nodes


def _witnesses(derivation):
    from presup import alpha_key

    return tuple(alpha_key(node.witness) for node in _require_nodes(derivation))


def _entities_with_one_donkey(count):
    """e0 .. e(count-1) : E, newest last, and a Donkey proof for e0 only."""
    ctx = Context()
    for index in range(count):
        ctx = ctx.extend(f"e{index}", ENTITY)
    return ctx.extend("d", App(Const("Donkey"), Var("e0")))


def test_require_looks_past_the_cap_for_a_witness_whose_body_checks(sig):
    # The 20 entities are all candidates for x; only the oldest, beyond the
    # first 16, lets the inner presupposition resolve.
    ctx = _entities_with_one_donkey(20)
    term = parse_term("require x : E in require y : Donkey x in x", sig.names)
    inferred = infer_all(sig, ctx, term)
    assert [d.witness for d in inferred] == [Var("e0")]
    checked = check_all(sig, ctx, term, ENTITY)
    assert [d.witness for d in checked] == [Var("e0")]
    for derivation in inferred + checked:
        validate(derivation)


def test_require_cap_counts_witnesses_whose_body_checks(sig):
    ctx = Context()
    for index in range(20):
        donkey = App(Const("Donkey"), Var(f"e{index}"))
        ctx = ctx.extend(f"e{index}", ENTITY).extend(f"d{index}", donkey)
    term = parse_term("require x : E in require y : Donkey x in x", sig.names)
    cfg = CheckConfig(max_solutions_per_require=3)
    witnesses = [d.witness for d in infer_all(sig, ctx, term, cfg)]
    assert witnesses == [Var("e19"), Var("e18"), Var("e17")]
    assert len(infer_all(sig, ctx, term)) == 16


def test_require_in_a_repeated_name_context_sees_the_entry_lookup_finds(sig):
    # Unchecked (a : E, a : Man a): a is an entity, so nothing proves Man a.
    man_a = App(Const("Man"), Var("a"))
    ctx = Context().extend("a", ENTITY).extend("a", man_a)
    with pytest.raises(UnresolvedPresupposition):
        infer_all(sig, ctx, Require("x", man_a, Var("x")))


@pytest.mark.parametrize(
    "field, minimum",
    [
        ("solver_depth", 0),
        ("max_solutions_per_require", 1),
        ("max_total_derivations", 1),
        ("step_budget", 0),
    ],
)
def test_check_config_bounds_have_a_minimum(field, minimum):
    assert getattr(CheckConfig(**{field: minimum}), field) == minimum
    with pytest.raises(ValueError, match=f"^{field} must be at least {minimum}, got {minimum - 1}$"):
        CheckConfig(**{field: minimum - 1})


def test_definite_resolves_past_fifteen_later_entities(sig):
    text = "A farmer owns a donkey. " + "A man walked in. " * 15 + "The farmer beats the donkey."
    readings = infer_all(sig, Context(), interpret(parse_discourse(text)))
    assert len(readings) == 1
    validate(readings[0])


def test_require_binder_escape_is_a_type_error(sig):
    # An unchecked context whose hypothesis mentions the binder's name.
    ctx = Context().extend("e", ENTITY).extend("h", App(Const("Man"), Var("x")))
    term = parse_term("require x : E in h", sig.names)
    with pytest.raises(BinderEscape):
        infer_all(sig, ctx, term)


def _distinct_nodes(derivations) -> int:
    seen = set()
    stack = list(derivations)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen.add(id(node))
            stack.extend(node.premises)
    return len(seen)


def test_readings_share_their_codomain_derivations(sig):
    # x5 pronoun chain: 5! readings.  Each sentence's codomain (the rest of
    # the discourse) is derived once and shared by every reading of the
    # sentence, so the readings reach far fewer nodes than 120 separate trees.
    meaning = interpret(parse_discourse("A man walked in. He sat down. " * 5))
    derivations = infer_all(sig, Context(), meaning)
    assert len(derivations) == 120
    assert _distinct_nodes(derivations) < 1000
    for derivation in derivations:
        validate(derivation)


PAPER_DISCOURSES = (
    "A man walked in. He sat down.",
    "A man walked in. The man (then) sat down.",
    "If a farmer owns a donkey, he beats it.",
    "Every farmer who owns a donkey beats it.",
    "A farmer owns a donkey. The farmer beats the donkey.",
    "A man walked in. If a farmer owns a donkey, he beats it.",
    "A man walked in. He sat down. " * 5,
)


def _assert_distinct_trails(derivations):
    trails = [_witnesses(derivation) for derivation in derivations]
    assert len(set(trails)) == len(trails)
    assert len({len(trail) for trail in trails}) == 1


def test_readings_have_distinct_witness_trails(sig):
    # Only a require branches, the solver returns alpha-distinct witnesses
    # and a witness adds no require, so the readings of one term meet the
    # same requires in the same order and no two choose the same witnesses.
    # This is why infer_all and check_all return the readings as built.
    for text in PAPER_DISCOURSES:
        _assert_distinct_trails(infer_all(sig, Context(), interpret(parse_discourse(text))))
    rng = random.Random(33)
    cfg = CheckConfig()
    branching = 0
    for _ in range(8):
        ctx = random_context(rng)
        for pooled in typed_pool(rng, sig, ctx, 25, cfg, with_requires=True):
            checked = check_all(sig, ctx, pooled.term, pooled.type, cfg)
            _assert_distinct_trails(checked)
            branching += len(checked) > 1
            if pooled.inferable:
                _assert_distinct_trails(infer_all(sig, ctx, pooled.term, cfg))
    assert branching


def test_formation_reports_domain_errors_before_codomain_errors(sig):
    with pytest.raises(NotAPair):
        infer_all(sig, Context(), Sigma("x", Fst(Universe(0)), Var("missing")))
    with pytest.raises(UnboundName):
        infer_all(sig, Context(), Sigma("x", Const("E"), Var("missing")))


@pytest.mark.parametrize(
    "term_text,type_text",
    [("\\x. x", "E -> E"), ("<fst p, snd p>", "(x : E) * (Man x * WalkedIn x)"), ("Set0", "Set1")],
)
def test_checking_adds_conv_exactly_when_the_expected_type_is_not_normal(
    sig, pctx, term_text, type_text
):
    term = parse_term(term_text, sig.names)
    normal = parse_term(type_text, sig.names)
    redex = App(Lam("A", Var("A")), normal)
    for expected in (normal, redex):
        derivations = check_all(sig, pctx, term, expected)
        assert derivations
        for derivation in derivations:
            assert derivation.conclusion.classifier is expected
            assert (derivation.rule == "Conv") == (expected is redex)
            validate(derivation)


def test_a_failed_alternative_leaves_no_reference_cycle(sig):
    import gc

    # b is the newest entity, but only a is a man: the definite's first
    # witness fails its noun check, and the collector keeps that error.
    ctx = Context((("a", Const("E")), ("m", App(Const("Man"), Var("a"))), ("b", Const("E"))))
    term = parse_term("SatDown (require x : E in require q : Man x in x)", sig.names)
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        (derivation,) = infer_all(sig, ctx, term)
        del derivation
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()
