"""Results kept on the nodes: each derivation's elaboration, which marks it
as validated, and each term's free-variable set, alpha key, normal mark,
last substitution and printed text.  Each is computed once per distinct
node, can never vouch for a node it was not computed on, and stays
invisible to ==, hash and repr."""

import dataclasses
from collections import Counter

import pytest

import presup.derivations as D
from presup import (
    App,
    Const,
    Context,
    Derivation,
    InvalidDerivation,
    Judgment,
    Sigma,
    Term,
    Var,
    alpha_key,
    elaborate,
    format_term,
    free_vars,
    infer_all,
    interpret,
    normalize,
    parse_discourse,
    parse_term,
    substitute,
    syntax,
    validate,
)

CHAIN_X5 = "A man walked in. He sat down. " * 5


def _message(derivation) -> str:
    with pytest.raises(InvalidDerivation) as caught:
        validate(derivation)
    return str(caught.value)


@pytest.fixture
def checked(sig, pctx):
    """A validated application node, Man (fst p), over validated premises."""
    (derivation,) = infer_all(sig, pctx, parse_term("Man (fst p)", sig.names))
    assert derivation.rule == D.PI_E
    validate(derivation)
    return derivation


def _retyped(derivation, classifier) -> Judgment:
    j = derivation.conclusion
    return Judgment(j.sig, j.ctx, j.subject, classifier)


def test_tampered_node_over_validated_premises_is_rejected(checked):
    assert all(premise._elaborated is not None for premise in checked.premises)
    tampered = Derivation(checked.rule, _retyped(checked, Const("E")), checked.premises)
    assert _message(tampered) == (
        "PiE node for Man (fst p): classifier is not the instantiated codomain"
    )
    assert tampered._elaborated is None


def test_failed_node_stays_unmarked_and_fails_again(sig, checked):
    bogus = Derivation(D.HYP, Judgment(sig, Context(), Var("p"), Const("E")))
    expected = "Hyp node for p: classifier is not the declared hypothesis type"
    assert _message(bogus) == expected
    assert bogus._elaborated is None
    assert _message(bogus) == expected
    # A node over the failed one fails with it, premise errors first.
    above = Derivation(D.PI_E, checked.conclusion, (checked.premises[0], bogus))
    assert _message(above) == expected
    assert above._elaborated is None


def test_replace_of_a_validated_node_is_unmarked(sig, checked):
    copy = dataclasses.replace(checked)
    assert checked._elaborated is not None
    assert copy == checked and copy._elaborated is None
    retyped = dataclasses.replace(checked, conclusion=_retyped(checked, Const("E")))
    assert _message(retyped) == (
        "PiE node for Man (fst p): classifier is not the instantiated codomain"
    )
    bogus = Derivation(D.HYP, Judgment(sig, checked.conclusion.ctx, Var("p"), Const("E")))
    swapped = dataclasses.replace(checked, premises=(checked.premises[0], bogus))
    assert _message(swapped) == "Hyp node for p: classifier is not the declared hypothesis type"


def test_constructor_cannot_set_a_mark(checked):
    with pytest.raises(TypeError):
        Derivation(checked.rule, checked.conclusion, checked.premises, _elaborated=Const("E"))


def _distinct(derivations) -> dict:
    """Every node under the derivations, by id."""
    seen, stack = {}, list(derivations)
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node.premises)
    return seen


def test_each_distinct_node_is_checked_and_elaborated_once(sig, monkeypatch):
    meaning = interpret(parse_discourse(CHAIN_X5))
    checks = Counter()
    for rule, checker in D._CHECKERS.items():
        def counted(d, checker=checker):
            checks[id(d)] += 1
            checker(d)

        monkeypatch.setitem(D._CHECKERS, rule, counted)

    derivations = infer_all(sig, Context(), meaning)
    assert len(derivations) == 120
    terms = [validate(derivation) for derivation in derivations]
    nodes = _distinct(derivations)
    assert set(checks) == nodes.keys()
    assert sum(checks.values()) == len(checks) == 785
    # Witness premises included, every node keeps its elaboration, and a
    # second elaboration of a reading checks nothing and returns it.
    assert all(node._elaborated is not None for node in nodes.values())
    again_terms = [elaborate(derivation) for derivation in derivations]
    assert sum(checks.values()) == 785
    assert all(again is term for again, term in zip(again_terms, terms))

    # A fresh infer_all builds fresh nodes, which are checked in full again.
    checks.clear()
    again = infer_all(sig, Context(), meaning)
    assert not nodes.keys() & _distinct(again).keys()
    for derivation in again:
        validate(derivation)
    assert sum(checks.values()) == len(checks) == 785


def _term_classes():
    classes = [cls for cls in Term.__subclasses__() if getattr(syntax, cls.__name__, None) is cls]
    assert len(classes) == 12
    return classes


def test_nodes_have_no_instance_dict(checked):
    values = {"str": "x", "int": 0, "Term": Var("x")}
    for cls in _term_classes():
        term = cls(*[values[f.type] for f in dataclasses.fields(cls)])
        free_vars(term)
        assert not hasattr(term, "__dict__"), cls
    elaborate(checked)
    for node in (checked.conclusion, checked):
        assert not hasattr(node, "__dict__"), type(node)


def test_kept_results_stay_out_of_eq_hash_and_repr(checked):
    term = App(Const("Man"), Var("x"))
    fresh = App(Const("Man"), Var("x"))
    free_vars(term)
    assert term._fv == frozenset({"x"})
    assert (term, hash(term), repr(term)) == (fresh, hash(fresh), repr(fresh))
    assert "_fv" not in repr(term)

    elaborate(checked)
    assert checked._elaborated is not None
    copy = Derivation(checked.rule, checked.conclusion, checked.premises, checked.witness)
    assert copy._elaborated is None
    assert (checked, hash(checked), repr(checked)) == (copy, hash(copy), repr(copy))
    assert "_elaborated" not in repr(checked)


def _man_of(name):
    return Sigma(name, Const("E"), App(Const("Man"), Var(name)))


def test_term_results_stay_out_of_eq_hash_and_repr():
    term, fresh = _man_of("x"), _man_of("x")
    key = alpha_key(_man_of("x"))
    assert alpha_key(term) == key and normalize(term) is term
    assert substitute(term.codomain, "x", Var("y")) == App(Const("Man"), Var("y"))
    assert format_term(term) == format_term(term) == "(x : E) * Man x"
    assert term._ak == key and term._normal
    assert term.codomain._sub == ("x", Var("y"), App(Const("Man"), Var("y")))
    assert term._text == "(x : E) * Man x" and term.codomain._text == "Man x"
    once = _man_of("x")
    assert format_term(once) == "(x : E) * Man x" and once._text is False
    assert (once, hash(once), repr(once)) == (fresh, hash(fresh), repr(fresh))
    for node, copy in ((term, fresh), (term.codomain, fresh.codomain)):
        assert (node, hash(node), repr(node)) == (copy, hash(copy), repr(copy))
        assert not any(slot in repr(node) for slot in ("_ak", "_normal", "_sub", "_text"))
    # Alpha-equal terms are not equal, whatever their kept keys say.
    renamed = _man_of("z")
    assert alpha_key(renamed) == key and renamed != term


@pytest.mark.parametrize("slot", ["_fv", "_ak", "_normal", "_sub", "_text"])
def test_constructor_cannot_set_a_term_result(slot):
    with pytest.raises(TypeError):
        App(Const("Man"), Var("x"), **{slot: None})


def _occurrences(root: Term):
    """How many positions of the tree under root each node fills, and the
    nodes, both by id."""
    counts, nodes, stack = Counter(), {}, [root]
    while stack:
        node = stack.pop()
        counts[id(node)] += 1
        nodes[id(node)] = node
        children = (getattr(node, f.name) for f in dataclasses.fields(node))
        stack.extend(child for child in children if isinstance(child, Term))
    return counts, nodes


def test_a_term_printed_once_keeps_text_only_on_its_repeated_subterms():
    meaning = interpret(parse_discourse("A man walked in. " * 300 + "The man sat down."))
    format_term(meaning)
    # Every node on the discourse's spine, whose texts are its suffixes, keeps
    # a mark only.
    spine, node = 0, meaning
    while isinstance(node, Sigma):
        assert node._text is False
        spine, node = spine + 1, node.codomain
    assert spine >= 300
    # Text is kept only on nodes that fill two or more positions: the
    # subterms each sentence shares with the others.  So the kept texts do
    # not grow with the discourse: none is longer than one sentence's meaning.
    counts, nodes = _occurrences(meaning)
    kept = {i: getattr(node, "_text", None) for i, node in nodes.items()}
    assert all(counts[i] > 1 for i, text in kept.items() if text)
    stored = [text for text in kept.values() if text]
    sentence = format_term(interpret(parse_discourse("A man walked in.")))
    assert stored and max(map(len, stored)) <= len(sentence)
