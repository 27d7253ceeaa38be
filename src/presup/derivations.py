"""Typing judgments, explicit derivation trees, and their re-validation.

A derivation records which rule produced each judgment, so the validator can
re-check every node against the rule shapes alone, independently of the
typechecker that built it, and in the same walk elaborate the tree.
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
    _SHAPES,
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

    One result is kept on the node once computed, so readings that share a
    subtree do that work once: _elaborated, the node's elaboration, set by
    the validator after the node and all of its premises have passed.  It
    cannot be passed to the constructor, takes no part in equality, hashing
    or repr, and dataclasses.replace yields a node without it.
    """

    rule: str
    conclusion: Judgment
    premises: tuple = ()
    witness: Term | None = None
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


def validate(derivation: Derivation) -> Term:
    """Re-check every node of the derivation against the rule shapes, and
    return the derivation's elaboration: its subject with every
    presupposition replaced by the witness recorded for it.

    This only pattern-matches: it never runs inference, so it is an
    independent check on whatever produced the tree.  Raises
    InvalidDerivation on the first ill-formed node.  A node that has passed
    once keeps its elaboration and is not checked again: both depend only on
    its own immutable subtree.
    """
    term = derivation._elaborated
    if term is not None:
        return term
    conclusion = derivation.conclusion
    # A plain loop: the recursion takes one frame per derivation level.
    parts = []
    for premise in derivation.premises:
        if premise.conclusion.sig != conclusion.sig:
            _fail(derivation, "premise under a different signature")
        parts.append(validate(premise))
    checker = _CHECKERS.get(derivation.rule)
    if checker is None:
        _fail(derivation, "unknown rule")
    if (derivation.witness is not None) != (derivation.rule == REQUIRE):
        _fail(derivation, "witness present iff the rule is Require")
    if derivation.rule in FORMS:
        _check_structure(derivation)
        term = rebuild(derivation, parts)
    else:
        _premise_count(derivation, PREMISE_COUNTS[derivation.rule])
        for premise in derivation.premises:
            _same_context(derivation, premise)
        # A Require's witness is already substituted in its last premise.
        term = parts[-1] if parts else conclusion.subject
    checker(derivation)
    object.__setattr__(derivation, "_elaborated", term)
    return term


def _fail(derivation: Derivation, reason: str):
    subject = format_term(derivation.conclusion.subject)
    raise InvalidDerivation(f"{derivation.rule} node for {subject}: {reason}")


# The composite rules and the constructor of each one's subject.  Premise i
# derives the i-th field of the constructor's syntax._SHAPES row: the field
# premises under the conclusion's context, and a binding form's scope
# premise, its last, under that context plus the binder.
FORMS = {
    PI_F: Pi,
    SIG_F: Sigma,
    PI_I: Lam,
    PI_E: App,
    SIG_I: Pair,
    SIG_E1: Fst,
    SIG_E2: Snd,
    LET: Let,
}

# The other rules and their premise counts; every premise sits under the
# conclusion's context.
PREMISE_COUNTS = {CONST: 0, HYP: 0, CUMULATIVITY: 0, CONV: 1, REQUIRE: 2}


def rebuild(d: Derivation, parts: list) -> Term:
    """The subject of composite node d assembled from parts, one term per
    premise in premise order.  A binding form's binder is the newest
    hypothesis of its scope premise: the typechecker records the (possibly
    freshened) binder there."""
    form = FORMS[d.rule]
    if _SHAPES[form][2] is None:
        return form(*parts)
    return form(_hypothesis(d)[0], *parts)


def _hypothesis(d: Derivation) -> tuple:
    # The (name, type) a binding node's scope premise adds to its context.
    return d.premises[-1].conclusion.ctx.entries[-1]


def _check_structure(d: Derivation) -> None:
    # What every composite rule shares: the subject rebuilds from the
    # premises, which sit under the contexts the table gives them.
    _, fields, scope = _SHAPES[FORMS[d.rule]]
    _premise_count(d, len(fields) + (scope is not None))
    premises = d.premises
    for premise in premises[: len(fields)]:
        _same_context(d, premise)
    if scope is not None:
        outer = d.conclusion.ctx.entries
        inner = premises[-1].conclusion.ctx.entries
        if inner[:-1] != outer or len(inner) != len(outer) + 1:
            _fail(d, "premise context is not a one-hypothesis extension")
        # A binding form's first field, if it has one, types its binder.
        if fields and not alpha_eq(inner[-1][1], premises[0].conclusion.subject):
            _fail(d, "extended hypothesis type differs from the domain")
    subjects = [premise.conclusion.subject for premise in premises]
    if not alpha_eq(d.conclusion.subject, rebuild(d, subjects)):
        _fail(d, "subject does not rebuild from the premises")


def _premise_count(derivation: Derivation, count: int) -> None:
    if len(derivation.premises) != count:
        _fail(derivation, f"expected {count} premises, got {len(derivation.premises)}")


def _same_context(derivation: Derivation, premise: Derivation) -> None:
    if premise.conclusion.ctx != derivation.conclusion.ctx:
        _fail(derivation, "premise context differs from conclusion context")


# The checkers below run after the premise count and contexts are checked,
# and keep only their typing conditions.


def _check_const(d: Derivation) -> None:
    j = d.conclusion
    if not isinstance(j.subject, Const):
        _fail(d, "subject is not a constant")
    declared = j.sig.lookup(j.subject.name)
    if declared is None or not alpha_eq(declared, j.classifier):
        _fail(d, "classifier is not the declared signature type")


def _check_hyp(d: Derivation) -> None:
    j = d.conclusion
    if not isinstance(j.subject, Var):
        _fail(d, "subject is not a variable")
    declared = j.ctx.lookup(j.subject.name)
    if declared is None or not alpha_eq(declared, j.classifier):
        _fail(d, "classifier is not the declared hypothesis type")


def _check_cumulativity(d: Derivation) -> None:
    j = d.conclusion
    if not (isinstance(j.subject, Universe) and isinstance(j.classifier, Universe)):
        _fail(d, "subject and classifier must be universes")
    if not j.subject.level < j.classifier.level:
        _fail(d, "universe levels must strictly increase")


def _check_formation(d: Derivation) -> None:
    dom_level = d.premises[0].conclusion.classifier
    cod_level = d.premises[1].conclusion.classifier
    if not (isinstance(dom_level, Universe) and isinstance(cod_level, Universe)):
        _fail(d, "premises must conclude in universes")
    expected = Universe(max(dom_level.level, cod_level.level))
    if d.conclusion.classifier != expected:
        _fail(d, f"classifier must be {format_term(expected)}")


def _check_pi_i(d: Derivation) -> None:
    j = d.conclusion
    (body_premise,) = d.premises
    if not isinstance(j.classifier, Pi):
        _fail(d, "classifier is not a function type")
    binder, binder_type = _hypothesis(d)
    if not alpha_eq(binder_type, j.classifier.domain):
        _fail(d, "extended hypothesis type differs from the domain")
    rebuilt = Pi(binder, j.classifier.domain, body_premise.conclusion.classifier)
    if not alpha_eq(j.classifier, rebuilt):
        _fail(d, "codomain does not match the premise classifier")


def _check_pi_e(d: Derivation) -> None:
    j = d.conclusion
    fun_premise, arg_premise = d.premises
    fun_type = fun_premise.conclusion.classifier
    if not isinstance(fun_type, Pi):
        _fail(d, "function premise classifier is not a function type")
    if not alpha_eq(arg_premise.conclusion.classifier, fun_type.domain):
        _fail(d, "argument type does not match the domain")
    expected = substitute(fun_type.codomain, fun_type.binder, j.subject.arg)
    if not alpha_eq(j.classifier, expected):
        _fail(d, "classifier is not the instantiated codomain")


def _check_sig_i(d: Derivation) -> None:
    j = d.conclusion
    first_premise, second_premise = d.premises
    if not isinstance(j.classifier, Sigma):
        _fail(d, "classifier is not a pair type")
    if not alpha_eq(first_premise.conclusion.classifier, j.classifier.domain):
        _fail(d, "first component type does not match the domain")
    expected = substitute(j.classifier.codomain, j.classifier.binder, j.subject.first)
    if not alpha_eq(second_premise.conclusion.classifier, expected):
        _fail(d, "second component type is not the instantiated codomain")


def _check_projection(d: Derivation) -> None:
    (pair_premise,) = d.premises
    pair_type = pair_premise.conclusion.classifier
    if not isinstance(pair_type, Sigma):
        _fail(d, "premise classifier is not a pair type")
    if d.rule == SIG_E1:
        expected = pair_type.domain
    else:
        first = Fst(pair_premise.conclusion.subject)
        expected = substitute(pair_type.codomain, pair_type.binder, first)
    if not alpha_eq(d.conclusion.classifier, expected):
        _fail(d, "classifier is not the projected component's type")


def _check_require(d: Derivation) -> None:
    j = d.conclusion
    witness_premise, body_premise = d.premises
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
    j = d.conclusion
    annot_premise, value_premise, body_premise = d.premises
    if not isinstance(annot_premise.conclusion.classifier, Universe):
        _fail(d, "annotation premise must conclude in a universe")
    if not alpha_eq(value_premise.conclusion.classifier, j.subject.annot):
        _fail(d, "definition type does not match the annotation")
    if not alpha_eq(j.classifier, body_premise.conclusion.classifier):
        _fail(d, "classifier does not match the body premise")
    if _hypothesis(d)[0] in free_vars(j.classifier):
        _fail(d, "bound variable escapes into the classifier")


def _check_conv(d: Derivation) -> None:
    j = d.conclusion
    (premise,) = d.premises
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
    SIG_E1: _check_projection,
    SIG_E2: _check_projection,
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
