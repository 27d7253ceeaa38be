"""Derivation-directed elaboration: rewrite presuppositions to their witnesses.

Elaboration is a structural map over derivations, not over terms: the
derivation records which witness discharged each presupposition, and the
corresponding node simply elaborates the premise in which the witness has
already been substituted.  The result is free of presupposition nodes and
keeps its type (checked by the tests with an independent re-check).
"""

from __future__ import annotations

from . import derivations as D
from .derivations import CheckConfig, Derivation, validate
from .syntax import Context, Signature, Term
from .typecheck import infer_all


def elaborate(derivation: Derivation) -> Term:
    """The derivation's subject with every presupposition replaced by the
    witness recorded in the derivation.  Re-validates first and raises
    InvalidDerivation if the tree does not hold together."""
    validate(derivation)
    return _elab(derivation)


def _elab(d: Derivation) -> Term:
    # Kept on the node, so readings sharing a subtree share its elaboration.
    term = d._elaborated
    if term is None:
        term = _elab_node(d)
        object.__setattr__(d, "_elaborated", term)
    return term


def _elab_node(d: Derivation) -> Term:
    # validate has rejected every rule but these.
    if d.rule in D.FORMS:
        # A plain loop: the recursion takes no frame between the _elab calls.
        parts = []
        for premise in d.premises:
            parts.append(_elab(premise))
        return D.rebuild(d, parts)
    if d.rule in (D.CONV, D.REQUIRE):
        # A Require's witness is already substituted in its last premise.
        return _elab(d.premises[-1])
    return d.conclusion.subject


def elaborate_all(
    sig: Signature, ctx: Context, term: Term, cfg: CheckConfig | None = None
) -> list:
    """Every (elaborated term, type) pair for term, one per derivation, in the
    typechecker's order.  Each elaborated term is presupposition-free."""
    return [
        (elaborate(derivation), derivation.conclusion.classifier)
        for derivation in infer_all(sig, ctx, term, cfg)
    ]
