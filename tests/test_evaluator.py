import random
from dataclasses import fields

import pytest

from presup import (
    App,
    Const,
    Fst,
    Lam,
    Let,
    NonTermination,
    Pair,
    Pi,
    Snd,
    StuckTerm,
    Term,
    Universe,
    UnresolvedRequire,
    Var,
    alpha_eq,
    check_all,
    contains_require,
    convertible,
    eval_closed,
    explicit_the,
    normalize,
    parse_term,
)
from presup.derivations import CheckConfig

from helpers import (
    leftmost_outermost,
    nested_proj,
    random_context,
    random_syntactic_term,
    reference_normalize,
    typed_pool,
)


def test_eval_projection_of_pair():
    assert eval_closed(parse_term("fst <Set0, Set1>")) == Universe(0)


def test_eval_two_applications():
    term = parse_term("(\\P. \\Q. (x : P) -> Q) Set0 Set0")
    assert alpha_eq(eval_closed(term), Pi("x", Universe(0), Universe(0)))


def test_eval_let():
    assert eval_closed(parse_term("let x : Set1 = Set0 in x")) == Universe(0)


def test_eval_canonical_forms_self_evaluate():
    for text in ("Set0", "\\x. x", "<Set0, Set1>", "(x : Set0) -> Set0", "(x : Set0) * Set0"):
        term = parse_term(text, constants=frozenset())
        assert eval_closed(term) == term


def test_eval_call_by_name_skips_unused_divergence():
    # (\x. Set0) applied to a diverging argument returns without evaluating it.
    omega = App(Lam("x", App(Var("x"), Var("x"))), Lam("x", App(Var("x"), Var("x"))))
    assert eval_closed(App(Lam("y", Universe(0)), omega)) == Universe(0)


def test_eval_stuck_projection():
    with pytest.raises(StuckTerm):
        eval_closed(parse_term("fst Set0"))


def test_eval_stuck_application():
    with pytest.raises(StuckTerm):
        eval_closed(parse_term("Set0 Set1"))


def test_eval_require_has_no_value():
    with pytest.raises(UnresolvedRequire):
        eval_closed(parse_term("require x : Set0 in x", constants=frozenset()))


def test_eval_constants_are_not_part_of_the_computation_system():
    with pytest.raises(StuckTerm):
        eval_closed(parse_term("Man"))


def test_eval_divergence_hits_budget():
    omega = App(Lam("x", App(Var("x"), Var("x"))), Lam("x", App(Var("x"), Var("x"))))
    with pytest.raises(NonTermination):
        eval_closed(omega, step_budget=500)


def test_normalize_beta_law_for_explicit_the(pctx):
    # the_explicit Man (fst p) (fst (snd p)) reduces to the referent fst p.
    p = Var("p")
    term = App(App(App(explicit_the(), Const("Man")), nested_proj(p, 1)), nested_proj(p, 2))
    assert alpha_eq(normalize(term), Fst(p))


def test_normalize_indefinite_applied(sig):
    from presup.lexicon import entry

    term = App(App(entry("a").meaning, Const("Man")), Const("WalkedIn"))
    expected = parse_term("(x : E) * (Man x * WalkedIn x)")
    assert alpha_eq(normalize(term), expected)


def test_normalize_neutral_variable():
    assert normalize(Var("x")) == Var("x")


def test_normalize_preserves_require_nodes():
    term = parse_term("SatDown (require x : E in x)")
    assert normalize(term) == term
    reduced = normalize(App(Lam("y", Var("y")), parse_term("require x : E in x")))
    assert contains_require(reduced)


def test_normalize_under_binders():
    term = parse_term("\\y. (\\x. x) y", constants=frozenset())
    assert alpha_eq(normalize(term), Lam("y", Var("y")))


def test_normalize_idempotent_on_random_terms():
    rng = random.Random(21)
    for _ in range(40):
        ctx = random_context(rng)
        from presup import base_signature

        pool = typed_pool(rng, base_signature(), ctx, 25, CheckConfig())
        for entry in pool:
            once = normalize(entry.term)
            assert alpha_eq(normalize(once), once)


def test_normalize_agrees_with_leftmost_outermost_oracle(sig):
    rng = random.Random(22)
    checked = 0
    for _ in range(30):
        ctx = random_context(rng)
        pool = typed_pool(rng, sig, ctx, 30, CheckConfig())
        for entry in pool:
            assert alpha_eq(normalize(entry.term), leftmost_outermost(entry.term))
            checked += 1
    assert checked >= 300


def test_eval_closed_agrees_with_normalize_on_closed_terms():
    # Canonical forms are lazy (a pair evaluates to itself), so big-step
    # results agree with full normal forms after normalizing the value.
    exact = [
        "fst <Set0, Set1>",
        "(\\P. \\Q. (x : P) -> Q) Set0 Set0",
        "let x : Set1 = Set0 in x",
        "(\\x. snd <x, x>) Set2",
    ]
    for text in exact:
        term = parse_term(text, constants=frozenset())
        assert alpha_eq(eval_closed(term), normalize(term))
    lazy = parse_term("<fst <Set0, Set1>, Set2>", constants=frozenset())
    assert alpha_eq(normalize(eval_closed(lazy)), normalize(lazy))


def test_determinism_and_alpha_insensitivity():
    a = parse_term("(\\x. \\y. x y) (\\z. z)", constants=frozenset())
    b = parse_term("(\\u. \\v. u v) (\\w. w)", constants=frozenset())
    assert alpha_eq(normalize(a), normalize(b))
    assert alpha_eq(normalize(a), normalize(a))


def test_normalize_preserves_type_on_generated_corpus(sig):
    rng = random.Random(23)
    cfg = CheckConfig()
    for _ in range(10):
        ctx = random_context(rng)
        for entry in typed_pool(rng, sig, ctx, 25, cfg):
            reduced = normalize(entry.term)
            assert check_all(sig, ctx, reduced, entry.type, cfg)


def test_convertible_after_projection(pctx):
    pair = Pair(Var("m"), Var("w"))
    assert convertible(App(Const("Man"), Fst(pair)), App(Const("Man"), Var("m")))


def test_convertible_distinct_universes():
    assert not convertible(Universe(0), Universe(1))


def test_convertible_substitution_vs_pair_projection():
    # [M/x]B is computationally equal to [fst <M, N>/x]B.
    rng = random.Random(24)
    from helpers import random_syntactic_term
    from presup import substitute

    for _ in range(100):
        body = random_syntactic_term(rng, 3)
        first = random_syntactic_term(rng, 2)
        second = random_syntactic_term(rng, 2)
        direct = substitute(body, "x", first)
        projected = substitute(body, "x", Fst(Pair(first, second)))
        assert convertible(direct, projected)


def _outcome(normalizer, term, budget):
    try:
        return normalizer(term, budget)
    except NonTermination:
        return NonTermination


def test_normalize_equals_reference_walker_step_for_step():
    # Same normal forms, binder names included, and the same budgets run out.
    rng = random.Random(25)
    stopped = reduced = 0
    for _ in range(200):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        for budget in (0, 1, 2, 3, 5, 12):
            result = _outcome(normalize, term, budget)
            assert result == _outcome(reference_normalize, term, budget)
            stopped += result is NonTermination
        reduced += _outcome(normalize, term, 0) is NonTermination
    assert stopped > 60 and reduced > 40


def test_normalize_returns_a_normal_term_itself():
    # The solver reuses a term's alpha key when normalizing it changed nothing.
    rng = random.Random(26)
    normal_forms = 0
    for _ in range(200):
        normal = _outcome(normalize, random_syntactic_term(rng, rng.randrange(1, 6)), 100)
        if normal is not NonTermination:
            assert normalize(normal) is normal
            normal_forms += 1
    assert normal_forms > 100
    for text in ("E", "Man (fst p)", "(x : E) * Man x", "\\x. <snd x, x>", "require x : E in Man x"):
        term = parse_term(text)
        assert normalize(term) is term


def test_normalize_returns_its_argument_exactly_when_alpha_equal_to_it():
    # The solver and the checker tell a normal type by identity: a reduct has
    # no redex, so it is never alpha-equal to the term it came from.
    rng = random.Random(28)
    same = changed = 0
    for _ in range(300):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        normal = _outcome(normalize, term, 100)
        if normal is NonTermination:
            continue
        assert (normal is term) == alpha_eq(normal, term)
        same += normal is term
        changed += normal is not term
    assert same > 50 and changed > 50


def _nodes(term):
    stack = [term]
    while stack:
        node = stack.pop()
        yield node
        for field in fields(node):
            value = getattr(node, field.name)
            if isinstance(value, Term):
                stack.append(value)


def _has_redex(term) -> bool:
    return any(
        isinstance(node, Let)
        or isinstance(node, App) and isinstance(node.fun, Lam)
        or isinstance(node, (Fst, Snd)) and isinstance(node.pair, Pair)
        for node in _nodes(term)
    )


def test_normal_mark_only_on_redex_free_terms_and_budgets_still_hold():
    # Marks persist across calls: normalizing every subterm (and each normal
    # form) at a large budget first marks the normal ones, and the small
    # budgets after it must still run out exactly where the reference
    # walker does.
    rng = random.Random(27)
    marked = unmarked = 0
    for _ in range(200):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        nodes = list(_nodes(term))
        for node in nodes:
            normal = _outcome(normalize, node, 100)
            if normal is not NonTermination:
                assert normalize(normal, 0) is normal and normal._normal
        for budget in (12, 5, 3, 2, 1, 0):
            result = _outcome(normalize, term, budget)
            assert result == _outcome(reference_normalize, term, budget)
        for node in nodes:
            if getattr(node, "_normal", False):
                marked += 1
                assert not _has_redex(node)
                assert normalize(node, 0) is node
            else:
                unmarked += 1
                assert _has_redex(node) or isinstance(node, (Var, Const, Universe))
    assert marked > 1000 and unmarked > 150
