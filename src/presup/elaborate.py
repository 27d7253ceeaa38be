"""Derivation-directed elaboration: rewrite presuppositions to their witnesses.

Elaboration is a structural map over derivations, not over terms: the
derivation records which witness discharged each presupposition, and the
corresponding node simply elaborates the premise in which the witness has
already been substituted.  The result is free of presupposition nodes and
keeps its type (checked by the tests with an independent re-check).
"""

from __future__ import annotations

from . import derivations as D
from .derivations import CheckConfig, Derivation, InvalidDerivation, validate
from .syntax import App, Context, Fst, Lam, Let, Pair, Pi, Sigma, Signature, Snd, Term
from .typecheck import infer_all


def elaborate(derivation: Derivation) -> Term:
    """The derivation's subject with every presupposition replaced by the
    witness recorded in the derivation.  Re-validates first and raises
    InvalidDerivation if the tree does not hold together."""
    validate(derivation)
    return _elab(derivation)


def _binder_of(premise: Derivation) -> str:
    # Binder-extending premises record the (possibly freshened) binder as the
    # newest hypothesis.
    return premise.conclusion.ctx.entries[-1][0]


def _elab(d: Derivation) -> Term:
    premises = d.premises
    match d.rule:
        case D.CONST | D.HYP | D.CUMULATIVITY:
            return d.conclusion.subject
        case D.PI_F:
            return Pi(_binder_of(premises[1]), _elab(premises[0]), _elab(premises[1]))
        case D.SIG_F:
            return Sigma(_binder_of(premises[1]), _elab(premises[0]), _elab(premises[1]))
        case D.PI_I:
            return Lam(_binder_of(premises[0]), _elab(premises[0]))
        case D.PI_E:
            return App(_elab(premises[0]), _elab(premises[1]))
        case D.SIG_I:
            return Pair(_elab(premises[0]), _elab(premises[1]))
        case D.SIG_E1:
            return Fst(_elab(premises[0]))
        case D.SIG_E2:
            return Snd(_elab(premises[0]))
        case D.LET:
            return Let(
                _binder_of(premises[1]),
                d.conclusion.subject.annot,
                _elab(premises[0]),
                _elab(premises[1]),
            )
        case D.CONV:
            return _elab(premises[0])
        case D.REQUIRE:
            # The witness is already substituted in the second premise.
            return _elab(premises[1])
    raise InvalidDerivation(f"unknown rule: {d.rule}")


def elaborate_all(
    sig: Signature, ctx: Context, term: Term, cfg: CheckConfig | None = None
) -> list:
    """Every (elaborated term, type) pair for term, one per derivation, in the
    typechecker's order.  Each elaborated term is presupposition-free."""
    return [
        (elaborate(derivation), derivation.conclusion.classifier)
        for derivation in infer_all(sig, ctx, term, cfg)
    ]
