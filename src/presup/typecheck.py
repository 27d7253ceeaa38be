"""Signature/context validity and the typing judgment, with explicit derivations.

Checking is bidirectional: introduction forms (lambdas, pairs) are checked
against a type and everything else infers.  A term containing presupposition
nodes has one derivation per way the solver can discharge them, so the main
entry points return lists, in the solver's deterministic order.  No two
readings coincide: only a presupposition branches, over the alpha-distinct
witnesses of its goal's readings, which have distinct normal forms; and a
witness is a projection spine that adds no presupposition of its own, so
distinct readings choose distinct witnesses.
"""

from __future__ import annotations

from .derivations import (
    CONST,
    CONV,
    CUMULATIVITY,
    HYP,
    LET,
    PI_E,
    PI_F,
    PI_I,
    REQUIRE,
    SIG_E1,
    SIG_E2,
    SIG_F,
    SIG_I,
    DEFAULT_CONFIG,
    CheckConfig,
    Derivation,
    Judgment,
    validate,
)
from .evaluator import convertible, normalize
from .solver import solve, with_spine_tables
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
    alpha_key,
    contains_require,
    format_term,
    free_vars,
    fresh_name,
    substitute,
)


class TypeCheckError(Exception):
    """Base class for typing failures."""


class DuplicateName(TypeCheckError):
    def __init__(self, name: str):
        super().__init__(f"duplicate name: {name}")
        self.name = name


class IllTypedEntry(TypeCheckError):
    def __init__(self, name: str, cause: Exception):
        super().__init__(f"ill-typed entry {name}: {cause}")
        self.name = name
        self.cause = cause


class UnboundName(TypeCheckError):
    def __init__(self, name: str):
        super().__init__(f"unbound name: {name}")
        self.name = name


class CannotInfer(TypeCheckError):
    """The form carries no annotation; it can only be checked against a type."""


class NotAFunction(TypeCheckError):
    def __init__(self, term: Term, actual: Term):
        super().__init__(f"{format_term(term)} is not a function (type {format_term(actual)})")
        self.term = term
        self.actual = actual


class NotAPair(TypeCheckError):
    def __init__(self, term: Term, actual: Term):
        super().__init__(f"{format_term(term)} is not a pair (type {format_term(actual)})")
        self.term = term
        self.actual = actual


class NotAType(TypeCheckError):
    def __init__(self, term: Term, actual: Term):
        super().__init__(
            f"{format_term(term)} is not a type (it has type {format_term(actual)},"
            " not a universe)"
        )
        self.term = term
        self.actual = actual


class TypeMismatch(TypeCheckError):
    def __init__(self, expected: Term, subject: Term, actual: Term | None = None):
        detail = f", inferred {format_term(actual)}" if actual is not None else ""
        super().__init__(
            f"{format_term(subject)} does not check against {format_term(expected)}{detail}"
        )
        self.expected = expected
        self.subject = subject
        self.actual = actual


class UnresolvedPresupposition(TypeCheckError):
    """The term is still a meaning; the context just offers no witness."""

    def __init__(self, goal: Term, ctx: Context):
        # The message is built only when asked for: the typechecker raises
        # and catches one for every witness whose noun check fails.
        super().__init__()
        self.goal = goal
        self.ctx = ctx

    def __str__(self) -> str:
        return f"unresolved presupposition: {format_term(self.goal)}"


class BudgetExceeded(TypeCheckError):
    def __init__(self, limit: int):
        super().__init__(
            f"more than {limit} derivations; raise max_total_derivations"
            " (--max-derivations N on the command line)"
        )
        self.limit = limit


class BinderEscape(TypeCheckError):
    def __init__(self, name: str, classifier: Term):
        super().__init__(
            f"bound variable {name} occurs in the result type {format_term(classifier)}"
        )
        self.name = name
        self.classifier = classifier


@with_spine_tables
def check_signature(sig: Signature, cfg: CheckConfig | None = None) -> None:
    """Each entry's type must inhabit some universe in the empty context under
    the preceding prefix; names must be fresh.  Raises on failure."""
    prefix = Signature()
    for name, entry_type in sig.entries:
        check_entry(prefix, Context(), name, entry_type, cfg)
        prefix = prefix.extend(name, entry_type)


@with_spine_tables
def check_context(sig: Signature, ctx: Context, cfg: CheckConfig | None = None) -> None:
    """Each hypothesis type must inhabit some universe under the signature and
    the preceding prefix; names fresh with respect to both telescopes."""
    prefix = Context()
    for name, entry_type in ctx.entries:
        check_entry(sig, prefix, name, entry_type, cfg)
        prefix = prefix.extend(name, entry_type)


@with_spine_tables
def check_entry(
    sig: Signature, ctx: Context, name: str, entry_type: Term, cfg: CheckConfig | None = None
) -> None:
    """`name : entry_type` may extend ctx under sig (a signature entry is
    checked with the prefix as sig and ctx empty)."""
    if sig.lookup(name) is not None or ctx.lookup(name) is not None:
        raise DuplicateName(name)
    try:
        _type_derivations(sig, ctx, entry_type, cfg or DEFAULT_CONFIG)
    except TypeCheckError as cause:
        raise IllTypedEntry(name, cause) from cause


@with_spine_tables
def infer_all(sig: Signature, ctx: Context, term: Term, cfg: CheckConfig | None = None) -> list:
    """Every derivation of `term : A` for some A, one per distinct choice of
    presupposition witnesses within the configured bounds.

    Raises rather than returning an empty list; in particular
    UnresolvedPresupposition when a goal has no witness in scope.
    """
    return _infer(sig, ctx, term, cfg or DEFAULT_CONFIG)


@with_spine_tables
def check_all(
    sig: Signature, ctx: Context, term: Term, expected: Term, cfg: CheckConfig | None = None
) -> list:
    """Every derivation of `term : expected` within the configured bounds.

    Lambdas check against function types and pairs against pair types (both
    after normalization); anything else is inferred and compared up to
    computation, recording a Conv node when the types are not already
    alpha-equal.
    """
    return _check(sig, ctx, term, expected, cfg or DEFAULT_CONFIG)


@with_spine_tables
def goal_witnesses(sig: Signature, ctx: Context, goal: Term, cfg: CheckConfig) -> list:
    """A goal type's witnesses as (goal premises, Solution) pairs, reading by
    reading, each in the solver's order.  A require-free goal is its own
    reading, searched as written with no goal premise.  A goal that
    presupposes has one reading per normal form of its elaborations: the
    first such elaboration, searched with its type derivation as premise."""
    derivations = _type_derivations(sig, ctx, goal, cfg)
    if not contains_require(goal):
        return [((), solution) for solution in solve(sig, ctx, goal, cfg)]
    readings = {}
    for derivation, _ in derivations:
        normal = normalize(validate(derivation), cfg.step_budget)
        readings.setdefault(alpha_key(normal), derivation)
    return [((derivation,), solution) for derivation in readings.values()
            for solution in solve(sig, ctx, validate(derivation), cfg)]


class _Alternatives:
    """A rule's derivations in reading order, and the first error of an
    alternative that failed; the derivation budget is checked here only."""

    __slots__ = ("derivations", "pending", "cfg")

    def __init__(self, cfg: CheckConfig):
        self.derivations = []
        self.pending = None
        self.cfg = cfg

    def add(self, derivation: Derivation) -> None:
        self.derivations.append(derivation)
        if len(self.derivations) > self.cfg.max_total_derivations:
            raise BudgetExceeded(self.cfg.max_total_derivations)

    def note(self, error: TypeCheckError) -> None:
        # Without its traceback, whose frames hold this collector, the error
        # leaves no reference cycle; `result` raises it with a fresh one.
        self.pending = self.pending or error.with_traceback(None)

    def result(self) -> list:
        if not self.derivations:
            raise self.pending
        return self.derivations


def _conv(derivation: Derivation, classifier: Term) -> Derivation:
    j = derivation.conclusion
    return Derivation(CONV, Judgment(j.sig, j.ctx, j.subject, classifier), (derivation,))


def _expose(derivation: Derivation, shape, cfg: CheckConfig):
    """Return (derivation, head) where the derivation's classifier is a
    syntactic instance of shape, inserting a Conv node if normalization is
    needed to expose it; head is None if the normal form has the wrong head."""
    classifier = derivation.conclusion.classifier
    if isinstance(classifier, shape):
        return derivation, classifier
    normal = normalize(classifier, cfg.step_budget)
    if isinstance(normal, shape):
        return _conv(derivation, normal), normal
    return derivation, None


def _open_binder(sig: Signature, ctx: Context, binder: str, scope: Term, avoid=frozenset()):
    """Rename a binder so it can become a fresh hypothesis name."""
    if binder not in ctx.names and binder not in sig.names and binder not in avoid:
        return binder, scope
    taken = ctx.names | sig.names | avoid
    renamed = fresh_name(binder, taken | free_vars(scope))
    return renamed, substitute(scope, binder, Var(renamed))


def _type_derivations(sig: Signature, ctx: Context, term: Term, cfg: CheckConfig) -> list:
    """Derivations concluding `term : Set_i` (with a syntactic universe
    classifier), one per witness choice inside term."""
    out = []
    for derivation in _infer(sig, ctx, term, cfg):
        exposed, universe = _expose(derivation, Universe, cfg)
        if universe is None:
            raise NotAType(term, derivation.conclusion.classifier)
        out.append((exposed, universe.level))
    return out


def _infer(sig: Signature, ctx: Context, term: Term, cfg: CheckConfig) -> list:
    match term:
        case Var(name):
            declared = ctx.lookup(name)
            if declared is None:
                raise UnboundName(name)
            return [Derivation(HYP, Judgment(sig, ctx, term, declared))]
        case Const(name):
            declared = sig.lookup(name)
            if declared is None:
                raise UnboundName(name)
            return [Derivation(CONST, Judgment(sig, ctx, term, declared))]
        case Universe(level):
            # Least admissible level: Set_i : Set_(i+1).
            return [Derivation(CUMULATIVITY, Judgment(sig, ctx, term, Universe(level + 1)))]
        case Pi() | Sigma():
            return _infer_formation(sig, ctx, term, cfg)
        case App():
            return _infer_application(sig, ctx, term, cfg)
        case Fst() | Snd():
            return _infer_projection(sig, ctx, term, cfg)
        case Require():
            return _require(sig, ctx, term, cfg)
        case Let():
            return _infer_let(sig, ctx, term, cfg)
        case Lam():
            raise CannotInfer("a lambda has no annotation; check it against a function type")
        case Pair():
            raise CannotInfer("a pair has no annotation; check it against a pair type")
    raise TypeError(f"not a term: {term!r}")


def _infer_formation(sig: Signature, ctx: Context, term: Term, cfg: CheckConfig) -> list:
    #  ctx |- A : Set_i    ctx, x : A |- B : Set_j
    #  -------------------------------------------
    #        ctx |- (x : A) -> B : Set_max(i,j)        (and likewise for *)
    shape = type(term)
    rule = PI_F if shape is Pi else SIG_F
    # The codomain's derivations do not depend on the domain's, so they are
    # built once, after the domain's (whose errors come first), and shared by
    # every reading of the domain.
    binder, codomain = _open_binder(sig, ctx, term.binder, term.codomain)
    dom_derivations = _type_derivations(sig, ctx, term.domain, cfg)
    inner = ctx.extend(binder, term.domain)
    cod_derivations = _type_derivations(sig, inner, codomain, cfg)
    subject = shape(binder, term.domain, codomain)
    found = _Alternatives(cfg)
    for dom_derivation, dom_level in dom_derivations:
        for cod_derivation, cod_level in cod_derivations:
            classifier = Universe(max(dom_level, cod_level))
            found.add(
                Derivation(
                    rule,
                    Judgment(sig, ctx, subject, classifier),
                    (dom_derivation, cod_derivation),
                )
            )
    return found.result()


def _infer_application(sig: Signature, ctx: Context, term: App, cfg: CheckConfig) -> list:
    #  ctx |- F : (x : A) -> B    ctx |- N : A
    #  ---------------------------------------
    #         ctx |- F N : [N/x]B
    found = _Alternatives(cfg)
    for fun_derivation in _infer(sig, ctx, term.fun, cfg):
        exposed, pi = _expose(fun_derivation, Pi, cfg)
        if pi is None:
            found.note(NotAFunction(term.fun, fun_derivation.conclusion.classifier))
            continue
        try:
            arg_derivations = _check(sig, ctx, term.arg, pi.domain, cfg)
        except BudgetExceeded:
            raise
        except TypeCheckError as error:
            found.note(error)
            continue
        classifier = substitute(pi.codomain, pi.binder, term.arg)
        for arg_derivation in arg_derivations:
            found.add(
                Derivation(PI_E, Judgment(sig, ctx, term, classifier), (exposed, arg_derivation))
            )
    return found.result()


def _infer_projection(sig: Signature, ctx: Context, term: Term, cfg: CheckConfig) -> list:
    found = _Alternatives(cfg)
    for pair_derivation in _infer(sig, ctx, term.pair, cfg):
        exposed, sigma = _expose(pair_derivation, Sigma, cfg)
        if sigma is None:
            found.note(NotAPair(term.pair, pair_derivation.conclusion.classifier))
            continue
        if isinstance(term, Fst):
            rule, classifier = SIG_E1, sigma.domain
        else:
            rule, classifier = SIG_E2, substitute(sigma.codomain, sigma.binder, Fst(term.pair))
        found.add(Derivation(rule, Judgment(sig, ctx, term, classifier), (exposed,)))
    return found.result()


def _require(
    sig: Signature, ctx: Context, term: Require, cfg: CheckConfig, expected: Term | None = None
) -> list:
    #  [ctx |- A : Set_i]    ctx |- M : A'    ctx |- [M/x]N : B    x not free in B
    #  --------------------------------------------------------------------------
    #                     ctx |- require x : A in N : B
    # One derivation per witness M for a reading A' of A (A itself when A
    # presupposes nothing, else an elaboration of A, whose type derivation is
    # then the first premise), in the order of goal_witnesses, up to the
    # configured number of witnesses whose body goes through.  The body is
    # inferred, or checked against `expected` when that is given (and then B
    # is `expected`).
    witnesses = goal_witnesses(sig, ctx, term.goal_type, cfg)
    if not witnesses:
        raise UnresolvedPresupposition(term.goal_type, ctx)
    avoid = frozenset() if expected is None else free_vars(expected)
    binder, body = _open_binder(sig, ctx, term.binder, term.body, avoid)
    subject = Require(binder, term.goal_type, body)
    found = _Alternatives(cfg)
    accepted = 0
    for goal_premises, solution in witnesses:
        if accepted >= cfg.max_solutions_per_require:
            break
        substituted = substitute(body, binder, solution.witness)
        try:
            if expected is None:
                body_derivations = _infer(sig, ctx, substituted, cfg)
            else:
                body_derivations = _check(sig, ctx, substituted, expected, cfg)
        except BudgetExceeded:
            raise
        except TypeCheckError as error:
            found.note(error)
            continue
        before = len(found.derivations)
        for body_derivation in body_derivations:
            if expected is None:
                classifier = body_derivation.conclusion.classifier
                if binder in free_vars(classifier):
                    found.note(BinderEscape(binder, classifier))
                    continue
            else:
                # The binder was renamed away from the free names of expected.
                classifier = expected
            premises = (*goal_premises, solution.derivation, body_derivation)
            found.add(Derivation(REQUIRE, Judgment(sig, ctx, subject, classifier), premises))
        if len(found.derivations) > before:
            accepted += 1
    return found.result()


def _infer_let(sig: Signature, ctx: Context, term: Let, cfg: CheckConfig) -> list:
    #  ctx |- A : Set_i    ctx |- M : A    ctx, x : A |- N : B    x not free in B
    #  -------------------------------------------------------------------------
    #                      ctx |- let x : A = M in N : B
    annot_derivations = _type_derivations(sig, ctx, term.annot, cfg)
    value_derivations = _check(sig, ctx, term.value, term.annot, cfg)
    binder, body = _open_binder(sig, ctx, term.binder, term.body)
    inner = ctx.extend(binder, term.annot)
    body_derivations = _infer(sig, inner, body, cfg)
    subject = Let(binder, term.annot, term.value, body)
    found = _Alternatives(cfg)
    # One reading per witness choice in the annotation, the value and the body.
    for annot_derivation, _ in annot_derivations:
        for value_derivation in value_derivations:
            for body_derivation in body_derivations:
                classifier = body_derivation.conclusion.classifier
                if binder in free_vars(classifier):
                    found.note(BinderEscape(binder, classifier))
                    continue
                found.add(
                    Derivation(
                        LET,
                        Judgment(sig, ctx, subject, classifier),
                        (annot_derivation, value_derivation, body_derivation),
                    )
                )
    return found.result()


def _check(sig: Signature, ctx: Context, term: Term, expected: Term, cfg: CheckConfig) -> list:
    normal = normalize(expected, cfg.step_budget)
    needs_conv = normal is not expected
    match term:
        case Lam(binder, body):
            #  ctx, x : A |- M : B
            #  -----------------------------
            #  ctx |- \x. M : (x : A) -> B
            if not isinstance(normal, Pi):
                raise TypeMismatch(expected, term)
            binder, body = _open_binder(sig, ctx, binder, body)
            codomain = substitute(normal.codomain, normal.binder, Var(binder))
            inner = ctx.extend(binder, normal.domain)
            found = _Alternatives(cfg)
            for body_derivation in _check(sig, inner, body, codomain, cfg):
                subject = Lam(binder, body_derivation.conclusion.subject)
                node = Derivation(
                    PI_I, Judgment(sig, ctx, subject, normal), (body_derivation,)
                )
                found.add(_conv(node, expected) if needs_conv else node)
        case Pair(first, second):
            if not isinstance(normal, Sigma):
                raise TypeMismatch(expected, term)
            second_type = substitute(normal.codomain, normal.binder, first)
            first_derivations = _check(sig, ctx, first, normal.domain, cfg)
            second_derivations = _check(sig, ctx, second, second_type, cfg)
            found = _Alternatives(cfg)
            for first_derivation in first_derivations:
                for second_derivation in second_derivations:
                    subject = Pair(
                        first_derivation.conclusion.subject,
                        second_derivation.conclusion.subject,
                    )
                    node = Derivation(
                        SIG_I,
                        Judgment(sig, ctx, subject, normal),
                        (first_derivation, second_derivation),
                    )
                    found.add(_conv(node, expected) if needs_conv else node)
        case Require():
            return _require(sig, ctx, term, cfg, expected)
        case Universe(level):
            # Cumulativity applies only to universe subjects: Set_i : Set_j, i < j.
            if isinstance(normal, Universe) and level < normal.level:
                node = Derivation(CUMULATIVITY, Judgment(sig, ctx, term, normal))
                return [_conv(node, expected) if needs_conv else node]
            raise TypeMismatch(expected, term)
        case _:
            found = _Alternatives(cfg)
            for derivation in _infer(sig, ctx, term, cfg):
                inferred = derivation.conclusion.classifier
                if alpha_eq(inferred, expected):
                    found.add(derivation)
                elif convertible(inferred, expected, cfg.step_budget):
                    found.add(_conv(derivation, expected))
                else:
                    found.note(TypeMismatch(expected, term, inferred))
    return found.result()
