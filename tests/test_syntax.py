import itertools
import random
from dataclasses import fields

import pytest

from presup import (
    App,
    Const,
    Fst,
    Lam,
    Let,
    Pair,
    Pi,
    Require,
    Sigma,
    Snd,
    Term,
    Universe,
    Var,
    alpha_eq,
    alpha_key,
    contains_require,
    format_term,
    free_vars,
    interpret,
    nested_proj,
    parse_discourse,
    parse_term,
    normalize,
    substitute,
)
from presup import syntax

from helpers import (
    random_syntactic_term,
    reference_alpha_key,
    reference_contains_require,
    reference_format,
    reference_free_vars,
    reference_substitute,
)

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


def test_free_vars_matches_reference_walker_before_and_after_sharing():
    rng = random.Random(14)
    terms = [random_syntactic_term(rng, rng.randrange(1, 6)) for _ in range(200)]
    for term in terms:
        assert free_vars(term) == reference_free_vars(term)
        assert free_vars(term) is free_vars(term)
    # New terms over the already-computed ones: every cached set is reused
    # under binders that do and do not capture it.
    for a, b in zip(terms, reversed(terms)):
        for shared in (
            App(a, b),
            Pair(b, a),
            Pi("x", a, b),
            Sigma("y", b, Lam("x", a)),
            Require("z", a, App(a, b)),
            Let("w", a, b, Fst(a)),
        ):
            assert free_vars(shared) == reference_free_vars(shared)
    # A union or difference equal to one operand is that operand's set.
    for term in terms:
        assert free_vars(App(term, Const("A"))) is free_vars(term)
        assert free_vars(Lam("unused", term)) is free_vars(term)


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
    # The first print marks each composite node, the second keeps its text
    # and the third reads the kept text back.
    rng = random.Random(21)
    for _ in range(200):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        expected = reference_format(term)
        assert [format_term(term) for _ in range(3)] == [expected] * 3


def _shared_positions(shared: Term) -> list:
    """Terms that hold shared at the top, as an operand of -> and *, as an
    application's function and argument, and as a projection's pair."""
    e = Const("E")
    return [
        shared,
        Pi("_", shared, e),
        Sigma("_", shared, e),
        App(shared, Var("y")),
        App(Const("f"), shared),
        Fst(shared),
    ]


@pytest.mark.parametrize(
    "build",
    [
        lambda: Pi("x", Const("E"), App(Const("Man"), Var("x"))),
        lambda: Sigma("x", Const("E"), Const("E")),
        lambda: Lam("x", Var("x")),
        lambda: Require("x", Const("E"), Var("x")),
        lambda: Let("x", Const("E"), Var("c"), Var("x")),
        lambda: App(Const("Man"), Var("x")),
        lambda: Snd(Var("p")),
        lambda: Pair(Var("a"), Var("b")),
    ],
    ids=["pi", "sigma", "lam", "require", "let", "app", "snd", "pair"],
)
def test_shared_subterm_prints_its_parentheses_in_every_position(build):
    expected = [reference_format(term) for term in _shared_positions(build())]
    for order in itertools.permutations(range(len(expected))):
        terms = _shared_positions(build())
        printed = {index: format_term(terms[index]) for index in order}
        assert [printed[index] for index in range(len(terms))] == expected, order
        assert [format_term(term) for term in terms] == expected, order


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


def _concrete_constructors():
    """Every Term subclass that presup.syntax defines, however deep (the
    slotted dataclass, not the class it replaced)."""
    found, stack = set(), [Term]
    while stack:
        for cls in stack.pop().__subclasses__():
            stack.append(cls)
            if getattr(syntax, cls.__name__, None) is cls:
                found.add(cls)
    return found


def test_shape_table_declares_every_constructor_once():
    leaves = {Var, Const, Universe}
    assert not leaves & syntax._SHAPES.keys()
    assert _concrete_constructors() == leaves | syntax._SHAPES.keys()
    for cls, (tag, outer, scope) in syntax._SHAPES.items():
        declared = {f.name: f.type for f in fields(cls)}
        if scope is None:
            assert list(declared) == list(outer)
        else:
            # The binder comes first, is a name, and scopes over the last field.
            assert list(declared) == ["binder", *outer, scope]
            assert declared.pop("binder") in (str, "str")
        assert all(kind in (Term, "Term") for kind in declared.values())
    tags = [tag for tag, _, _ in syntax._SHAPES.values()]
    assert len(set(tags)) == len(tags) and not {"var", "bvar", "const", "set"} & set(tags)


class _Undeclared(Term):
    __slots__ = ()


@pytest.mark.parametrize("non_term", [object(), "x", None, _Undeclared()])
def test_walkers_reject_non_terms(non_term):
    for walk in (
        free_vars,
        alpha_key,
        contains_require,
        normalize,
        format_term,
        lambda t: substitute(t, "x", Var("y")),
        lambda t: substitute(Lam("y", t), "x", Var("y")),
    ):
        with pytest.raises(TypeError, match="not a term"):
            walk(non_term)


def _values(rng):
    # Variables named like the generator's binders make capture likely, and
    # primed ones make the first renaming candidate taken.
    return [Var(name) for name in ("x", "y", "z", "w", "x'", "y'")] + [
        App(Var("y"), Var("z")),
        random_syntactic_term(rng, 2),
    ]


def test_substitute_and_contains_require_equal_reference_walkers():
    rng = random.Random(15)
    renamed = 0
    for _ in range(200):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        assert contains_require(term) == reference_contains_require(term)
        for var in ("x", "y"):
            for value in _values(rng):
                result = substitute(term, var, value)
                assert result == reference_substitute(term, var, value)
                renamed += "'" in format_term(result)
                # Again into the result, whose free primed names (from the
                # primed values) a renamed binder must avoid.
                again = App(Var("x"), Var("y"))
                assert substitute(result, "z", again) == reference_substitute(result, "z", again)
    assert renamed > 50


def test_substitute_memo_agrees_with_reference_under_interleaved_calls():
    # Each body keeps only its last substitution: an equal value that is not
    # the same object hits it, another var or value evicts it.
    rng = random.Random(18)
    hits = 0
    for _ in range(200):
        term = random_syntactic_term(rng, rng.randrange(1, 6))
        value, other = random_syntactic_term(rng, 2), App(Var("y"), Var("x'"))
        calls = [
            ("x", value), ("x", _rebuilt(value)), ("y", value), ("x", value),
            ("x", other), ("x", _rebuilt(other)), ("y", other), ("x", _rebuilt(value)),
        ]
        last = None
        for var, val in calls:
            result = substitute(term, var, val)
            assert result == reference_substitute(term, var, val)
            if last is not None and last[:2] == (var, val):
                if not isinstance(term, (Var, Const, Universe)):
                    assert result is last[2]
                    hits += 1
            last = (var, val, result)
    assert hits > 150


def test_alpha_key_equality_equals_reference_key_equality():
    rng = random.Random(16)
    counter = [0]
    pairs = []
    for _ in range(200):
        a = random_syntactic_term(rng, rng.randrange(1, 5))
        b = random_syntactic_term(rng, rng.randrange(1, 5))
        pairs += [
            (a, b),
            (a, _renamed(a, counter)),
            (Lam("x", a), Lam("y", substitute(a, "x", Var("y")))),
            (a, substitute(a, "x", Var("y"))),
        ]
    agreed = {True: 0, False: 0}
    for a, b in pairs:
        expected = reference_alpha_key(a) == reference_alpha_key(b)
        assert (alpha_key(a) == alpha_key(b)) == expected
        agreed[expected] += 1
    assert agreed[True] > 300 and agreed[False] > 200


def test_telescope_lookup_keeps_the_first_entry_and_its_caches_stay_hidden():
    entries = (("x", Const("E")), ("y", Var("x")), ("x", Universe(0)))
    fresh, used = syntax.Telescope(entries), syntax.Telescope(entries)
    assert used.lookup("x") == Const("E")
    assert used.lookup("y") == Var("x") and used.lookup("z") is None
    assert used.names == frozenset({"x", "y"})
    assert used == fresh and hash(used) == hash(fresh) and repr(used) == repr(fresh)
    assert used.extend("z", Const("E")).lookup("z") == Const("E")
