"""Typing judgments, explicit derivation trees, and their re-validation.

A derivation records which rule produced each judgment, so the elaborator can
walk the tree and the validator can re-check every node against the rule
shapes alone, independently of the typechecker that built it.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .evaluator import DEFAULT_STEP_BUDGET, convertible
from .syntax import (
    App,
    Const,
    Context,
    Fst,
    Lam,
    Let,
    Pair,
    Pi,
    Require,
    Sigma,
    Signature,
    Snd,
    Term,
    Universe,
    Var,
    alpha_eq,
    format_term,
    free_vars,
    substitute,
)

CONST = "Const"
HYP = "Hyp"
CUMULATIVITY = "Cumulativity"
PI_F = "PiF"
PI_I = "PiI"
PI_E = "PiE"
SIG_F = "SigF"
SIG_I = "SigI"
SIG_E1 = "SigE1"
SIG_E2 = "SigE2"
REQUIRE = "Require"
LET = "Let"
CONV = "Conv"

@dataclass(frozen=True, slots=True)
class Judgment:
    """sig; ctx |- subject : classifier"""

    sig: Signature
    ctx: Context
    subject: Term
    classifier: Term


@dataclass(frozen=True, slots=True)
class Derivation:
    """One derivation node: a rule name, its conclusion, and its premises.

    witness is present exactly on Require nodes; it is the chosen term whose
    derivation is the first premise.

    Two results are kept on the node once computed, so readings that share a
    subtree do that work once: _valid is set by the validator after the node
    and all of its premises have passed, and _elaborated holds the
    elaborator's term.  Neither can be passed to the constructor, neither
    takes part in equality, hashing or repr, and dataclasses.replace yields
    a node without them.
    """

    rule: str
    conclusion: Judgment
    premises: tuple = ()
    witness: Term | None = None
    _valid: bool = field(default=False, init=False, repr=False, compare=False)
    _elaborated: Term | None = field(default=None, init=False, repr=False, compare=False)


@dataclass(frozen=True)
class CheckConfig:
    """Bounds on the otherwise unbounded non-determinism of presuppositions."""

    solver_depth: int = 8
    max_solutions_per_require: int = 16
    max_total_derivations: int = 256
    step_budget: int = DEFAULT_STEP_BUDGET


DEFAULT_CONFIG = CheckConfig()


class InvalidDerivation(Exception):
    """A derivation node does not follow from its premises by its rule."""


def validate(derivation: Derivation) -> None:
    """Re-check every node of the derivation against the rule shapes.

    This only pattern-matches: it never runs inference, so it is an
    independent check on whatever produced the tree.  Raises
    InvalidDerivation on the first ill-formed node.  A node that has passed
    once is marked and not checked again: its validity depends only on its
    own immutable subtree.
    """
    _validate(derivation)


def _fail(derivation: Derivation, reason: str):
    subject = format_term(derivation.conclusion.subject)
    raise InvalidDerivation(f"{derivation.rule} node for {subject}: {reason}")


def _validate(derivation: Derivation) -> None:
    if derivation._valid:
        return
    conclusion = derivation.conclusion
    for premise in derivation.premises:
        if premise.conclusion.sig != conclusion.sig:
            _fail(derivation, "premise under a different signature")
        _validate(premise)
    checker = _CHECKERS.get(derivation.rule)
    if checker is None:
        _fail(derivation, "unknown rule")
    if (derivation.witness is not None) != (derivation.rule == REQUIRE):
        _fail(derivation, "witness present iff the rule is Require")
    checker(derivation)
    object.__setattr__(derivation, "_valid", True)


def _premise_count(derivation: Derivation, count: int) -> None:
    if len(derivation.premises) != count:
        _fail(derivation, f"expected {count} premises, got {len(derivation.premises)}")


def _same_context(derivation: Derivation, premise: Derivation) -> None:
    if premise.conclusion.ctx != derivation.conclusion.ctx:
        _fail(derivation, "premise context differs from conclusion context")


def _extended_context(derivation: Derivation, premise: Derivation, domain: Term):
    """The premise context must be the conclusion context plus one hypothesis
    whose type is alpha-equal to domain; returns that hypothesis's name."""
    outer = derivation.conclusion.ctx.entries
    inner = premise.conclusion.ctx.entries
    if inner[:-1] != outer or len(inner) != len(outer) + 1:
        _fail(derivation, "premise context is not a one-hypothesis extension")
    binder, entry_type = inner[-1]
    if not alpha_eq(entry_type, domain):
        _fail(derivation, "extended hypothesis type differs from the domain")
    return binder


def _check_const(d: Derivation) -> None:
    _premise_count(d, 0)
    j = d.conclusion
    if not isinstance(j.subject, Const):
        _fail(d, "subject is not a constant")
    declared = j.sig.lookup(j.subject.name)
    if declared is None or not alpha_eq(declared, j.classifier):
        _fail(d, "classifier is not the declared signature type")


def _check_hyp(d: Derivation) -> None:
    _premise_count(d, 0)
    j = d.conclusion
    if not isinstance(j.subject, Var):
        _fail(d, "subject is not a variable")
    declared = j.ctx.lookup(j.subject.name)
    if declared is None or not alpha_eq(declared, j.classifier):
        _fail(d, "classifier is not the declared hypothesis type")


def _check_cumulativity(d: Derivation) -> None:
    _premise_count(d, 0)
    j = d.conclusion
    if not (isinstance(j.subject, Universe) and isinstance(j.classifier, Universe)):
        _fail(d, "subject and classifier must be universes")
    if not j.subject.level < j.classifier.level:
        _fail(d, "universe levels must strictly increase")


def _check_formation(d: Derivation) -> None:
    _premise_count(d, 2)
    j = d.conclusion
    shape = Pi if d.rule == PI_F else Sigma
    dom_premise, cod_premise = d.premises
    _same_context(d, dom_premise)
    if not isinstance(j.subject, shape):
        _fail(d, "subject has the wrong head")
    binder = _extended_context(d, cod_premise, dom_premise.conclusion.subject)
    rebuilt = shape(binder, dom_premise.conclusion.subject, cod_premise.conclusion.subject)
    if not alpha_eq(j.subject, rebuilt):
        _fail(d, "subject does not rebuild from the premises")
    dom_level = dom_premise.conclusion.classifier
    cod_level = cod_premise.conclusion.classifier
    if not (isinstance(dom_level, Universe) and isinstance(cod_level, Universe)):
        _fail(d, "premises must conclude in universes")
    expected = Universe(max(dom_level.level, cod_level.level))
    if j.classifier != expected:
        _fail(d, f"classifier must be {format_term(expected)}")


def _check_pi_i(d: Derivation) -> None:
    _premise_count(d, 1)
    j = d.conclusion
    (body_premise,) = d.premises
    if not isinstance(j.subject, Lam) or not isinstance(j.classifier, Pi):
        _fail(d, "subject must be a lambda and classifier a function type")
    binder = _extended_context(d, body_premise, j.classifier.domain)
    if not alpha_eq(j.subject, Lam(binder, body_premise.conclusion.subject)):
        _fail(d, "lambda body does not match the premise subject")
    rebuilt = Pi(binder, j.classifier.domain, body_premise.conclusion.classifier)
    if not alpha_eq(j.classifier, rebuilt):
        _fail(d, "codomain does not match the premise classifier")


def _check_pi_e(d: Derivation) -> None:
    _premise_count(d, 2)
    j = d.conclusion
    fun_premise, arg_premise = d.premises
    _same_context(d, fun_premise)
    _same_context(d, arg_premise)
    if not isinstance(j.subject, App):
        _fail(d, "subject is not an application")
    fun_type = fun_premise.conclusion.classifier
    if not isinstance(fun_type, Pi):
        _fail(d, "function premise classifier is not a function type")
    if not alpha_eq(j.subject.fun, fun_premise.conclusion.subject):
        _fail(d, "function does not match the premise")
    if not alpha_eq(j.subject.arg, arg_premise.conclusion.subject):
        _fail(d, "argument does not match the premise")
    if not alpha_eq(arg_premise.conclusion.classifier, fun_type.domain):
        _fail(d, "argument type does not match the domain")
    expected = substitute(fun_type.codomain, fun_type.binder, j.subject.arg)
    if not alpha_eq(j.classifier, expected):
        _fail(d, "classifier is not the instantiated codomain")


def _check_sig_i(d: Derivation) -> None:
    _premise_count(d, 2)
    j = d.conclusion
    first_premise, second_premise = d.premises
    _same_context(d, first_premise)
    _same_context(d, second_premise)
    if not isinstance(j.subject, Pair) or not isinstance(j.classifier, Sigma):
        _fail(d, "subject must be a pair and classifier a pair type")
    if not alpha_eq(j.subject.first, first_premise.conclusion.subject):
        _fail(d, "first component does not match the premise")
    if not alpha_eq(j.subject.second, second_premise.conclusion.subject):
        _fail(d, "second component does not match the premise")
    if not alpha_eq(first_premise.conclusion.classifier, j.classifier.domain):
        _fail(d, "first component type does not match the domain")
    expected = substitute(j.classifier.codomain, j.classifier.binder, j.subject.first)
    if not alpha_eq(second_premise.conclusion.classifier, expected):
        _fail(d, "second component type is not the instantiated codomain")


def _projection_premise(d: Derivation):
    _premise_count(d, 1)
    (pair_premise,) = d.premises
    _same_context(d, pair_premise)
    pair_type = pair_premise.conclusion.classifier
    if not isinstance(pair_type, Sigma):
        _fail(d, "premise classifier is not a pair type")
    return pair_premise, pair_type


def _check_sig_e1(d: Derivation) -> None:
    pair_premise, pair_type = _projection_premise(d)
    j = d.conclusion
    if not isinstance(j.subject, Fst):
        _fail(d, "subject is not a first projection")
    if not alpha_eq(j.subject.pair, pair_premise.conclusion.subject):
        _fail(d, "projected pair does not match the premise")
    if not alpha_eq(j.classifier, pair_type.domain):
        _fail(d, "classifier is not the domain")


def _check_sig_e2(d: Derivation) -> None:
    pair_premise, pair_type = _projection_premise(d)
    j = d.conclusion
    if not isinstance(j.subject, Snd):
        _fail(d, "subject is not a second projection")
    if not alpha_eq(j.subject.pair, pair_premise.conclusion.subject):
        _fail(d, "projected pair does not match the premise")
    expected = substitute(
        pair_type.codomain, pair_type.binder, Fst(pair_premise.conclusion.subject)
    )
    if not alpha_eq(j.classifier, expected):
        _fail(d, "classifier is not the codomain at the first projection")


def _check_require(d: Derivation) -> None:
    _premise_count(d, 2)
    j = d.conclusion
    witness_premise, body_premise = d.premises
    _same_context(d, witness_premise)
    _same_context(d, body_premise)
    if not isinstance(j.subject, Require):
        _fail(d, "subject is not a presupposition")
    if not alpha_eq(witness_premise.conclusion.subject, d.witness):
        _fail(d, "first premise does not derive the witness")
    if not alpha_eq(witness_premise.conclusion.classifier, j.subject.goal_type):
        _fail(d, "witness type does not match the goal")
    expected_body = substitute(j.subject.body, j.subject.binder, d.witness)
    if not alpha_eq(body_premise.conclusion.subject, expected_body):
        _fail(d, "second premise does not derive the substituted body")
    if not alpha_eq(j.classifier, body_premise.conclusion.classifier):
        _fail(d, "classifier does not match the body premise")
    if j.subject.binder in free_vars(j.classifier):
        _fail(d, "bound variable escapes into the classifier")


def _check_let(d: Derivation) -> None:
    _premise_count(d, 2)
    j = d.conclusion
    value_premise, body_premise = d.premises
    _same_context(d, value_premise)
    if not isinstance(j.subject, Let):
        _fail(d, "subject is not a let")
    if not alpha_eq(value_premise.conclusion.classifier, j.subject.annot):
        _fail(d, "definition type does not match the annotation")
    binder = _extended_context(d, body_premise, j.subject.annot)
    rebuilt = Let(
        binder,
        j.subject.annot,
        value_premise.conclusion.subject,
        body_premise.conclusion.subject,
    )
    if not alpha_eq(j.subject, rebuilt):
        _fail(d, "subject does not rebuild from the premises")
    if not alpha_eq(j.classifier, body_premise.conclusion.classifier):
        _fail(d, "classifier does not match the body premise")
    if binder in free_vars(j.classifier):
        _fail(d, "bound variable escapes into the classifier")


def _check_conv(d: Derivation) -> None:
    _premise_count(d, 1)
    j = d.conclusion
    (premise,) = d.premises
    _same_context(d, premise)
    if not alpha_eq(premise.conclusion.subject, j.subject):
        _fail(d, "subject changed across a conversion")
    if not convertible(premise.conclusion.classifier, j.classifier):
        _fail(d, "classifiers are not computationally equal")


_CHECKERS = {
    CONST: _check_const,
    HYP: _check_hyp,
    CUMULATIVITY: _check_cumulativity,
    PI_F: _check_formation,
    PI_I: _check_pi_i,
    PI_E: _check_pi_e,
    SIG_F: _check_formation,
    SIG_I: _check_sig_i,
    SIG_E1: _check_sig_e1,
    SIG_E2: _check_sig_e2,
    REQUIRE: _check_require,
    LET: _check_let,
    CONV: _check_conv,
}


def to_json_dict(derivation: Derivation) -> dict:
    """Serialize a derivation to plain dicts; terms in concrete syntax.

    The result shares sub-objects (one dict per distinct node, one `ctx`
    list per distinct context), so treat it as read-only.
    """
    return to_json_dicts([derivation])[0]


def to_json_dicts(derivations) -> list:
    """`to_json_dict` of each derivation, with nodes and contexts shared
    between them serialized once (terms keep their own text)."""
    # The memo maps the id of a node to its dict and of a context to its
    # `ctx` list.  Both stay alive while the caller holds the derivations, so
    # their ids are distinct for the call.
    memo = {}
    return [_json_node(d, memo) for d in derivations]


def _json_node(derivation: Derivation, memo: dict) -> dict:
    node = memo.get(id(derivation))
    if node is not None:
        return node
    j = derivation.conclusion
    ctx = memo.get(id(j.ctx))
    if ctx is None:
        ctx = memo[id(j.ctx)] = [f"{name} : {format_term(t)}" for name, t in j.ctx.entries]
    node = memo[id(derivation)] = {
        "rule": derivation.rule,
        "ctx": ctx,
        "term": format_term(j.subject),
        "type": format_term(j.classifier),
        "premises": [_json_node(p, memo) for p in derivation.premises],
    }
    if derivation.witness is not None:
        node["witness"] = format_term(derivation.witness)
    return node


def to_json(derivation: Derivation) -> str:
    """Stable textual serialization: sorted keys, deterministic order."""
    return dump_json(to_json_dict(derivation))


_quote = json.encoder.encode_basestring_ascii


def dump_json(payload) -> str:
    """Exactly `json.dumps(payload, sort_keys=True, indent=2)`, for payloads
    of dicts with string keys, lists, strings and scalars.

    A list of strings is rendered once per nesting level and reused, keyed
    by identity: a node's `ctx` list recurs at every node below its binder.
    Other containers are written out on each visit, never cached, so memory
    stays linear in the output rather than in depth times output.
    """
    out = []
    _write(payload, "\n", out, {})
    return "".join(out)


def _write(value, newline: str, out: list, leaves: dict) -> None:
    # newline is a line break plus the indentation of value's own level.
    if type(value) is str:
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key in sorted(value):
            item = value[key]
            if type(item) is str:
                out.append(f"{separator}{_quote(key)}: {_quote(item)}")
            else:
                out.append(f"{separator}{_quote(key)}: ")
                _write(item, inner, out, leaves)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        key = (id(value), len(newline))
        text = leaves.get(key)
        if text is not None:
            out.append(text)
            return
        inner = newline + "  "
        if all(type(item) is str for item in value):
            text = leaves[key] = f"[{inner}{(',' + inner).join(map(_quote, value))}{newline}]"
            out.append(text)
            return
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write(item, inner, out, leaves)
            separator = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))
