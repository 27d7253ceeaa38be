import random
from dataclasses import fields

from presup import (
    App,
    Const,
    Fst,
    Lam,
    Pair,
    Pi,
    Require,
    Sigma,
    Snd,
    Term,
    Var,
    alpha_eq,
    alpha_key,
    format_term,
    free_vars,
    interpret,
    nested_proj,
    parse_discourse,
    parse_term,
    substitute,
)

from helpers import random_syntactic_term, reference_format

PAPER_DISCOURSES = (
    "A man walked in. He sat down.",
    "A man walked in. The man (then) sat down.",
    "If a farmer owns a donkey, he beats it.",
    "Every farmer who owns a donkey beats it.",
    "A farmer owns a donkey. The farmer beats the donkey.",
    "A man walked in. He sat down. " * 6,
)


def _rebuilt(term: Term) -> Term:
    """A structurally equal copy that shares no term node with the original."""
    values = [getattr(term, f.name) for f in fields(term)]
    return type(term)(*[_rebuilt(v) if isinstance(v, Term) else v for v in values])


def _renamed(term: Term, counter: list) -> Term:
    """An alpha-equivalent copy with every binder renamed to a fresh name."""
    values = {f.name: getattr(term, f.name) for f in fields(term)}
    for name, value in values.items():
        if isinstance(value, Term):
            values[name] = _renamed(value, counter)
    if "binder" in values:
        counter[0] += 1
        fresh = f"r{counter[0]}"
        scope = next(n for n in ("codomain", "body") if n in values)
        values[scope] = substitute(values[scope], values["binder"], Var(fresh))
        values["binder"] = fresh
    return type(term)(**values)


def test_substitute_variable_head():
    assert substitute(Var("x"), "x", Fst(Var("p"))) == Fst(Var("p"))


def test_substitute_under_application():
    body = App(Const("SatDown"), Var("x"))
    assert substitute(body, "x", Fst(Var("p"))) == App(Const("SatDown"), Fst(Var("p")))


def test_substitute_avoids_capture():
    # [y/x](\y. x y) must rename the binder, not capture y.
    body = Lam("y", App(Var("x"), Var("y")))
    result = substitute(body, "x", Var("y"))
    assert alpha_eq(result, Lam("w", App(Var("y"), Var("w"))))
    assert not alpha_eq(result, Lam("y", App(Var("y"), Var("y"))))


def test_substitute_shadowed_binder_untouched():
    body = Lam("x", Var("x"))
    assert substitute(body, "x", Const("A")) == body


def test_substitute_identity():
    rng = random.Random(11)
    for _ in range(200):
        term = random_syntactic_term(rng, 4)
        assert alpha_eq(substitute(term, "x", Var("x")), term)


def test_substitution_lemma():
    # [v/y][u/x]t == [[v/y]u/x][v/y]t  when x != y and x not free in v.
    rng = random.Random(12)
    checked = 0
    for _ in range(400):
        t = random_syntactic_term(rng, 3)
        u = random_syntactic_term(rng, 2)
        v = random_syntactic_term(rng, 2)
        if "x" in free_vars(v):
            continue
        left = substitute(substitute(t, "x", u), "y", v)
        right = substitute(substitute(t, "y", v), "x", substitute(u, "y", v))
        assert alpha_eq(left, right)
        checked += 1
    assert checked > 100


def test_free_vars_of_substitution():
    rng = random.Random(13)
    for _ in range(300):
        t = random_syntactic_term(rng, 3)
        u = random_syntactic_term(rng, 2)
        result = free_vars(substitute(t, "x", u))
        assert result <= (free_vars(t) - {"x"}) | free_vars(u)


def test_alpha_eq_renamed_identity():
    assert alpha_eq(Lam("x", Var("x")), Lam("y", Var("y")))


def test_alpha_eq_renamed_sigma():
    entity = Const("E")
    a = Sigma("x", entity, App(Const("Man"), Var("x")))
    b = Sigma("y", entity, App(Const("Man"), Var("y")))
    assert alpha_eq(a, b)


def test_alpha_eq_distinct_constructors():
    assert not alpha_eq(Fst(Var("p")), Snd(Var("p")))


def test_alpha_eq_free_variables_by_name():
    assert not alpha_eq(Var("x"), Var("y"))
    assert not alpha_eq(Var("x"), Const("x"))


def test_alpha_eq_is_an_equivalence():
    rng = random.Random(14)
    terms = [random_syntactic_term(rng, 3) for _ in range(60)]
    for t in terms:
        assert alpha_eq(t, t)
    for a in terms[:20]:
        for b in terms[:20]:
            assert alpha_eq(a, b) == alpha_eq(b, a)
            if alpha_eq(a, b):
                for c in terms[:20]:
                    if alpha_eq(b, c):
                        assert alpha_eq(a, c)


def test_free_vars_closed_lambda():
    assert free_vars(Lam("x", Var("x"))) == frozenset()


def test_free_vars_constant_application():
    assert free_vars(App(Const("SatDown"), Fst(Var("p")))) == {"p"}


def test_free_vars_require_binder_removed():
    assert free_vars(Require("x", Const("E"), Var("x"))) == frozenset()


def test_nested_proj_base():
    assert nested_proj(Var("p"), 1) == Fst(Var("p"))


def test_nested_proj_second():
    assert nested_proj(Var("p"), 2) == Fst(Snd(Var("p")))


def test_nested_proj_third():
    assert nested_proj(Var("p"), 3) == Fst(Snd(Snd(Var("p"))))


def test_nested_proj_matches_concrete_syntax():
    assert alpha_eq(nested_proj(Var("p"), 3), parse_term("fst (snd (snd p))"))


def test_pair_projection_components():
    pair = Pair(Const("A"), Const("B"))
    assert free_vars(pair) == frozenset()
    assert nested_proj(pair, 1) == Fst(pair)


def test_format_term_matches_reference_printer_on_random_terms():
    rng = random.Random(21)
    for _ in range(200):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        assert format_term(term) == reference_format(term)


def test_format_term_matches_reference_printer_on_paper_meanings():
    for text in PAPER_DISCOURSES:
        meaning = interpret(parse_discourse(text))
        assert format_term(meaning) == reference_format(meaning)


def test_alpha_eq_agrees_with_alpha_key_on_seeded_pairs():
    rng = random.Random(22)
    counter = [0]
    pairs = []
    for _ in range(150):
        a = random_syntactic_term(rng, rng.randrange(1, 5))
        b = random_syntactic_term(rng, rng.randrange(1, 5))
        shared = random_syntactic_term(rng, 3)
        pairs += [
            (a, b),
            (a, a),
            (a, _rebuilt(a)),
            (a, _renamed(a, counter)),
            (Pi("x", shared, shared), Pi("y", shared, _rebuilt(shared))),
            (Pair(shared, a), Pair(shared, b)),
            (Sigma("x", a, shared), Sigma("x", _renamed(a, counter), shared)),
            (Lam("x", shared), Lam("x", _renamed(shared, counter))),
        ]
    agreed = {True: 0, False: 0}
    for a, b in pairs:
        expected = alpha_key(a) == alpha_key(b)
        assert alpha_eq(a, b) == expected
        assert alpha_eq(b, a) == expected
        agreed[expected] += 1
    assert agreed[True] > 500 and agreed[False] > 100
