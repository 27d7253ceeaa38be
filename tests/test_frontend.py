import random

import pytest

from presup import (
    App,
    Conditional,
    Const,
    DetNP,
    DiscourseTree,
    ParseError,
    PronNP,
    RelClause,
    Require,
    Sigma,
    Simple,
    UnknownWord,
    Var,
    alpha_eq,
    format_term,
    interpret,
    parse_context_text,
    parse_discourse,
    parse_signature_text,
    parse_term,
)

from helpers import random_syntactic_term


def test_parse_require():
    term = parse_term("require x : E in x")
    assert term == Require("x", Const("E"), Var("x"))


def test_parse_golden_meaning():
    term = parse_term("(p : (x : E) * Man x * WalkedIn x) * SatDown (fst p)")
    grouped = parse_term("(p : (x : E) * (Man x * WalkedIn x)) * SatDown (fst p)")
    assert alpha_eq(term, grouped)


def test_parse_missing_operand():
    with pytest.raises(ParseError):
        parse_term("fst snd")


def test_parse_reports_position():
    with pytest.raises(ParseError) as info:
        parse_term("fst ]")
    assert info.value.position == 4


def test_parse_application_left_associative():
    assert parse_term("Beats x y") == App(App(Const("Beats"), Var("x")), Var("y"))


def test_parse_arrow_right_associative():
    a = parse_term("E -> E -> Set0")
    b = parse_term("E -> (E -> Set0)")
    assert alpha_eq(a, b)


def test_parse_binders_extend_right():
    a = parse_term("(x : E) * Man x * WalkedIn x")
    b = parse_term("(x : E) * (Man x * WalkedIn x)")
    assert alpha_eq(a, b)


def test_parse_set_shorthand():
    assert alpha_eq(parse_term("Set"), parse_term("Set0"))
    assert parse_term("Set2") == parse_term("Set2")


def test_parse_pairs_and_lets():
    term = parse_term("let x : Set1 = Set0 in <x, x>")
    assert format_term(term) == "let x : Set1 = Set0 in <x, x>"


def test_parse_bound_names_shadow_constants():
    term = parse_term("\\E. E")
    assert alpha_eq(term, parse_term("\\x. x", constants=frozenset()))


def test_parse_free_unknown_identifiers_are_variables():
    assert parse_term("fst p") == __import__("presup").Fst(Var("p"))


def test_format_require():
    assert format_term(Require("x", Const("E"), Var("x"))) == "require x : E in x"


def test_format_nested_projection():
    from presup import nested_proj

    assert format_term(nested_proj(Var("p"), 3)) == "fst (snd (snd p))"


def test_round_trip_golden_corpus():
    corpus = [
        "(p : (x : E) * (Man x * WalkedIn x)) * SatDown (fst p)",
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (fst p) (fst (snd (snd p)))",
        "\\P. \\Q. (x : E) * (P x * Q x)",
        "\\P. require x : E in (require p : P x in x)",
        "require x : E in x",
        "let x : Set1 = Set0 in x",
        "(x : Set0) -> x -> x",
        "<Set0, <Set1, Set2>>",
        "fst p q",
    ]
    for text in corpus:
        term = parse_term(text)
        assert alpha_eq(parse_term(format_term(term)), term)


def test_round_trip_random_terms():
    rng = random.Random(61)
    for _ in range(400):
        term = random_syntactic_term(rng, 4)
        printed = format_term(term)
        assert alpha_eq(parse_term(printed, constants=frozenset({"A", "B"})), term)


def test_parse_signature_text(sig):
    extended = parse_signature_text("Happy : E -> Set0\n\n# a comment\nStone : Set0\n", sig)
    assert alpha_eq(extended.lookup("Happy"), parse_term("E -> Set0"))
    assert extended.lookup("Stone") == parse_term("Set0")


def test_parse_context_text(sig):
    ctx = parse_context_text("p : (x : E) * Man x\nq : Man (fst p)\n", sig)
    assert [name for name, _ in ctx.entries] == ["p", "q"]
    assert alpha_eq(ctx.lookup("q"), App(Const("Man"), __import__("presup").Fst(Var("p"))))


def test_parse_discourse_two_sentences():
    tree = parse_discourse("A man walked in. He sat down.")
    assert tree == DiscourseTree(
        (
            Simple(DetNP("a", "man"), "walked in"),
            Simple(PronNP("he"), "sat down"),
        )
    )


def test_parse_discourse_relative_clause():
    tree = parse_discourse("Every farmer who owns a donkey beats it.")
    assert tree == DiscourseTree(
        (
            Simple(
                DetNP("every", "farmer", RelClause("owns", DetNP("a", "donkey"))),
                "beats",
                PronNP("it"),
            ),
        )
    )


def test_parse_discourse_conditional():
    tree = parse_discourse("If a farmer owns a donkey, he beats it.")
    assert tree == DiscourseTree(
        (
            Conditional(
                Simple(DetNP("a", "farmer"), "owns", DetNP("a", "donkey")),
                Simple(PronNP("he"), "beats", PronNP("it")),
            ),
        )
    )


def test_parse_discourse_filler_and_case():
    a = parse_discourse("A man walked in. The man (then) sat down.")
    b = parse_discourse("a man walked in. the man sat down.")
    assert a == b


def test_parse_discourse_word_salad():
    with pytest.raises(ParseError):
        parse_discourse("Man the walked in.")


def test_parse_discourse_unknown_word():
    with pytest.raises(UnknownWord):
        parse_discourse("A wombat walked in.")


def test_interpret_first_discourse():
    meaning = interpret(parse_discourse("A man walked in. He sat down."))
    expected = parse_term(
        "(p : (x : E) * (Man x * WalkedIn x)) * SatDown (require y : E in y)"
    )
    assert alpha_eq(meaning, expected)


def test_interpret_names_sentence_binders_p_p_prime_and_so_on():
    term = interpret(parse_discourse("A man walked in. " * 299 + "He sat down."))
    binders = []
    while isinstance(term, Sigma):
        binders.append(term.binder)
        term = term.codomain
    assert binders == ["p" + "'" * index for index in range(299)]


def test_interpret_definite_description_discourse():
    meaning = interpret(parse_discourse("A man walked in. The man (then) sat down."))
    expected = parse_term(
        "(p : (x : E) * (Man x * WalkedIn x))"
        " * SatDown (require y : E in (require q : Man y in y))"
    )
    assert alpha_eq(meaning, expected)


def test_interpret_donkey_conditional():
    meaning = interpret(parse_discourse("If a farmer owns a donkey, he beats it."))
    expected = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (require z : E in z) (require w : E in w)"
    )
    assert alpha_eq(meaning, expected)


def test_interpret_universal_donkey():
    meaning = interpret(parse_discourse("Every farmer who owns a donkey beats it."))
    expected = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " -> Beats (fst p) (require w : E in w)"
    )
    assert alpha_eq(meaning, expected)


def test_interpret_single_pronoun_sentence():
    meaning = interpret(parse_discourse("He sat down."))
    assert alpha_eq(meaning, parse_term("SatDown (require x : E in x)"))


def test_interpret_three_sentences_right_nested():
    meaning = interpret(
        parse_discourse("A man walked in. A farmer sat down. He walked in.")
    )
    expected = parse_term(
        "(p : (x : E) * (Man x * WalkedIn x)) *"
        " ((p' : (x : E) * (Farmer x * SatDown x)) * WalkedIn (require y : E in y))"
    )
    assert alpha_eq(meaning, expected)


def test_interpret_stable_under_reparse():
    texts = [
        "A man walked in. He sat down.",
        "If a farmer owns a donkey, he beats it.",
    ]
    for text in texts:
        first = interpret(parse_discourse(text))
        second = interpret(parse_discourse(text))
        assert alpha_eq(first, second)
