"""The rule tables: every rule is either a composite form of
derivations.FORMS or one of the five others in derivations.PREMISE_COUNTS,
and the validator rejects a composite node whose premises do not build its
subject in the contexts the table gives them."""

import dataclasses

import pytest

import presup.derivations as D
from presup import (
    Derivation,
    InvalidDerivation,
    Judgment,
    Let,
    Var,
    check_all,
    infer_all,
    parse_term,
    syntax,
    validate,
)

from conftest import PCTX_LINE

PCTX_TYPE = PCTX_LINE.partition(" : ")[2]

# A valid node of each composite rule, in the context after "A man walked
# in.": the term, and the type it is checked against (None to infer it).
COMPOSITES = {
    D.PI_F: ("(x : E) -> Man x", None),
    D.SIG_F: ("(x : E) * Man x", None),
    D.PI_I: ("\\x. x", "E -> E"),
    D.PI_E: ("Man (fst p)", None),
    D.SIG_I: ("<fst p, snd p>", PCTX_TYPE),
    D.SIG_E1: ("fst p", None),
    D.SIG_E2: ("snd p", None),
    D.LET: ("let y : E = fst p in Man y", None),
}

RULES = sorted(
    value for name, value in vars(D).items() if name.isupper() and isinstance(value, str)
)


def _derive(sig, ctx, text, type_text=None) -> list:
    term = parse_term(text, sig.names)
    if type_text is None:
        return infer_all(sig, ctx, term)
    return check_all(sig, ctx, term, parse_term(type_text, sig.names))


def _composite(sig, pctx, rule) -> Derivation:
    (derivation,) = _derive(sig, pctx, *COMPOSITES[rule])
    assert derivation.rule == rule
    validate(derivation)
    return derivation


@pytest.mark.parametrize("rule", RULES)
def test_every_rule_is_a_form_or_one_of_five_others(sig, pctx, rule):
    assert rule in D._CHECKERS
    assert (rule in D.FORMS) != (rule in D.PREMISE_COUNTS)
    if rule not in D.FORMS:
        assert rule in {D.CONST, D.HYP, D.CUMULATIVITY, D.CONV, D.REQUIRE}
        return
    form = D.FORMS[rule]
    _, outer, scope = syntax._SHAPES[form]
    count = len(outer) + (scope is not None)
    assert count == sum(f.name != "binder" for f in dataclasses.fields(form))
    assert len(_composite(sig, pctx, rule).premises) == count


def _another_subject(premise: Derivation) -> Derivation:
    # let u : A = M in u derives the same type A as M in the same context.
    j = premise.conclusion
    term = Let("u", j.classifier, j.subject, Var("u"))
    (other,) = check_all(j.sig, j.ctx, term, j.classifier)
    return other


def _rederived(premise: Derivation, ctx) -> Derivation:
    j = premise.conclusion
    (derivation,) = check_all(j.sig, ctx, j.subject, j.classifier)
    return derivation


def _tampered(d: Derivation, how: str) -> Derivation:
    j = d.conclusion
    premises = list(d.premises)
    if how == "swapped":
        premises[-1] = _another_subject(premises[-1])
    elif how == "dropped":
        premises.pop()
    else:
        # The conclusion moves into its scope premise's context, and the
        # field premises are derived afresh there: every premise is valid
        # and the subject still rebuilds, but the binder is not bound.
        ctx = premises[-1].conclusion.ctx
        premises[:-1] = [_rederived(premise, ctx) for premise in premises[:-1]]
        j = Judgment(j.sig, ctx, j.subject, j.classifier)
    return Derivation(d.rule, j, tuple(premises))


_BINDING = [rule for rule in COMPOSITES if syntax._SHAPES[D.FORMS[rule]][2] is not None]
_TAMPERS = [(rule, how) for rule in COMPOSITES for how in ("swapped", "dropped")]
_TAMPERS += [(rule, "unextended") for rule in _BINDING]


@pytest.mark.parametrize("rule, how", _TAMPERS)
def test_validator_rejects_a_tampered_composite_node(sig, pctx, rule, how):
    tampered = _tampered(_composite(sig, pctx, rule), how)
    with pytest.raises(InvalidDerivation):
        validate(tampered)
