"""Big-step evaluation of closed terms and full normalization of open ones.

Closed evaluation follows the substitution-based rules of the computation
system: canonical forms (universes, function and pair types, lambdas, pairs)
evaluate to themselves, projections force the pair, application and let
substitute and continue.  A presupposition has no value here; its witness is
supplied elsewhere.

Normalization additionally reduces under binders so that open types can be
compared; variables, constants and presupposition nodes are left in place as
neutral terms.
"""

from __future__ import annotations

from .syntax import (
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
    _shape,
    alpha_eq,
    substitute,
)

DEFAULT_STEP_BUDGET = 100_000


class EvalError(Exception):
    """Base class for evaluation failures."""


class StuckTerm(EvalError):
    """Projection of a non-pair, application of a non-function, or a name with
    no value in the bare computation system."""


class UnresolvedRequire(EvalError):
    """A presupposition reached evaluation position without a witness."""


class NonTermination(EvalError):
    """The reduction step budget was exhausted."""


class _Budget:
    __slots__ = ("remaining",)

    def __init__(self, limit: int):
        self.remaining = limit

    def spend(self) -> None:
        if self.remaining <= 0:
            raise NonTermination("evaluation step budget exceeded")
        self.remaining -= 1


def eval_closed(term: Term, step_budget: int = DEFAULT_STEP_BUDGET) -> Term:
    """Big-step evaluation of a closed term to its canonical form.

    The term must contain no free variables and no constants; projections and
    applications of non-canonical subjects are stuck, and a presupposition in
    evaluation position raises UnresolvedRequire.
    """
    return _eval(term, _Budget(step_budget))


def _eval(term: Term, budget: _Budget) -> Term:
    match term:
        case Universe() | Pi() | Sigma() | Lam() | Pair():
            return term
        case Fst(pair):
            value = _eval(pair, budget)
            if not isinstance(value, Pair):
                raise StuckTerm(f"fst of a non-pair: {value}")
            budget.spend()
            return _eval(value.first, budget)
        case Snd(pair):
            value = _eval(pair, budget)
            if not isinstance(value, Pair):
                raise StuckTerm(f"snd of a non-pair: {value}")
            budget.spend()
            return _eval(value.second, budget)
        case App(fun, arg):
            value = _eval(fun, budget)
            if not isinstance(value, Lam):
                raise StuckTerm(f"application of a non-function: {value}")
            budget.spend()
            return _eval(substitute(value.body, value.binder, arg), budget)
        case Let(binder, _, value, body):
            budget.spend()
            return _eval(substitute(body, binder, value), budget)
        case Require():
            raise UnresolvedRequire(f"no witness for {term}")
        case Var(name):
            raise StuckTerm(f"free variable in closed evaluation: {name}")
        case Const(name):
            raise StuckTerm(f"constant in the bare computation system: {name}")
    raise TypeError(f"not a term: {term!r}")


def normalize(term: Term, step_budget: int = DEFAULT_STEP_BUDGET) -> Term:
    """Full beta-normal form, reducing under binders.

    Variables and constants are neutral.  Presupposition nodes are preserved
    (their goal type and body are normalized in place); their resolution
    belongs to the solver and elaborator, not to computation.

    A term that normalizes to itself spent no step, so it is marked normal
    (its _normal slot) and returned at once next time, whatever the budget.
    """
    if getattr(term, "_normal", False):
        return term
    result = _norm(term, _Budget(step_budget))
    if result is term:
        object.__setattr__(term, "_normal", True)
    return result


def _norm(term: Term, budget: _Budget) -> Term:
    # A node none of whose fields change is returned as it is, so callers
    # can tell a normal term by identity.
    match term:
        case Var() | Const() | Universe():
            return term
        case App(fun, arg):
            fun_nf = _norm(fun, budget)
            arg_nf = _norm(arg, budget)
            if isinstance(fun_nf, Lam):
                budget.spend()
                return _norm(substitute(fun_nf.body, fun_nf.binder, arg_nf), budget)
            if fun_nf is fun and arg_nf is arg:
                return term
            return App(fun_nf, arg_nf)
        case Fst(pair) | Snd(pair):
            pair_nf = _norm(pair, budget)
            if isinstance(pair_nf, Pair):
                budget.spend()
                return pair_nf.first if isinstance(term, Fst) else pair_nf.second
            if pair_nf is pair:
                return term
            return type(term)(pair_nf)
        case Let(binder, _, value, body):
            budget.spend()
            return _norm(substitute(body, binder, value), budget)
    # Congruence: every other form normalizes its fields in place.
    _, fields, scope = _shape(term)
    if scope is not None:
        fields += (scope,)
    args = []
    changed = False
    for field in fields:
        value = getattr(term, field)
        args.append(_norm(value, budget))
        changed = changed or args[-1] is not value
    if not changed:
        return term
    if scope is None:
        return type(term)(*args)
    return type(term)(term.binder, *args)


def convertible(a: Term, b: Term, step_budget: int = DEFAULT_STEP_BUDGET) -> bool:
    """Definitional equality: both sides normalize to alpha-equal terms."""
    return alpha_eq(normalize(a, step_budget), normalize(b, step_budget))
