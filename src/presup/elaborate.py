"""Derivation-directed elaboration: rewrite presuppositions to their witnesses.

Elaboration is a structural map over derivations, not over terms: the
derivation records which witness discharged each presupposition, and the
corresponding node simply elaborates the premise in which the witness has
already been substituted.  `derivations.validate` computes it in the walk
that checks each node.  The result is free of presupposition nodes and
keeps its type (checked by the tests with an independent re-check).
"""

from __future__ import annotations

from .derivations import CheckConfig, Derivation, validate
from .syntax import Context, Signature, Term
from .typecheck import infer_all


def elaborate(derivation: Derivation) -> Term:
    """The derivation's subject with every presupposition replaced by the
    witness recorded in the derivation.  Re-validates, which computes it,
    and raises InvalidDerivation if the tree does not hold together."""
    return validate(derivation)


def elaborate_all(
    sig: Signature, ctx: Context, term: Term, cfg: CheckConfig | None = None
) -> list:
    """Every (elaborated term, type) pair for term, one per derivation, in the
    typechecker's order.  Each elaborated term is presupposition-free."""
    return [
        (elaborate(derivation), derivation.conclusion.classifier)
        for derivation in infer_all(sig, ctx, term, cfg)
    ]
