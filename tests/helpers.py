"""Independent oracles and random generators shared by the test suite.

The oracles are deliberately naive and separate from the implementation paths
they check: normalization is compared against a leftmost-outermost rewriter
run to fixpoint, and the witness solver against a brute-force enumeration of
every projection spine filtered by the typechecker.  The reference_* term
walkers spell out one match case per constructor, as the kernel's walkers
did before they read the binding structure from syntax's shape table.
"""

from __future__ import annotations

import random
from collections import deque

from presup import (
    contains_require,
    App,
    CheckConfig,
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
    TypeCheckError,
    Universe,
    NonTermination,
    Var,
    alpha_eq,
    alpha_key,
    convertible,
    format_term,
    infer_all,
    normalize,
    solve,
    substitute,
)
from presup.derivations import CONST, CONV, HYP, SIG_E1, SIG_E2, Derivation, Judgment
from presup.solver import Solution

# ---------------------------------------------------------------------------
# Leftmost-outermost rewriting (oracle for normalize)


def _step(term: Term):
    """One leftmost-outermost reduction, or None if term is normal."""
    match term:
        case App(Lam(binder, body), arg):
            return substitute(body, binder, arg)
        case Fst(Pair(first, _)):
            return first
        case Snd(Pair(_, second)):
            return second
        case Let(binder, _, value, body):
            return substitute(body, binder, value)
        case Var() | Const() | Universe():
            return None
        case App(fun, arg):
            reduced = _step(fun)
            if reduced is not None:
                return App(reduced, arg)
            reduced = _step(arg)
            return None if reduced is None else App(fun, reduced)
        case Pair(first, second):
            reduced = _step(first)
            if reduced is not None:
                return Pair(reduced, second)
            reduced = _step(second)
            return None if reduced is None else Pair(first, reduced)
        case Fst(pair):
            reduced = _step(pair)
            return None if reduced is None else Fst(reduced)
        case Snd(pair):
            reduced = _step(pair)
            return None if reduced is None else Snd(reduced)
        case Pi(binder, domain, codomain):
            reduced = _step(domain)
            if reduced is not None:
                return Pi(binder, reduced, codomain)
            reduced = _step(codomain)
            return None if reduced is None else Pi(binder, domain, reduced)
        case Sigma(binder, domain, codomain):
            reduced = _step(domain)
            if reduced is not None:
                return Sigma(binder, reduced, codomain)
            reduced = _step(codomain)
            return None if reduced is None else Sigma(binder, domain, reduced)
        case Lam(binder, body):
            reduced = _step(body)
            return None if reduced is None else Lam(binder, reduced)
        case Require(binder, goal, body):
            reduced = _step(goal)
            if reduced is not None:
                return Require(binder, reduced, body)
            reduced = _step(body)
            return None if reduced is None else Require(binder, goal, reduced)
    raise TypeError(f"not a term: {term!r}")


def leftmost_outermost(term: Term, max_steps: int = 20_000) -> Term:
    for _ in range(max_steps):
        reduced = _step(term)
        if reduced is None:
            return term
        term = reduced
    raise AssertionError("oracle rewriter did not reach a normal form")


# ---------------------------------------------------------------------------
# Brute-force witness enumeration (oracle for solve)


def typed_spine_universe(sig: Signature, ctx: Context, depth: int, cfg: CheckConfig):
    """Every term of the grammar {head, fst t, snd t} up to `depth` projections,
    paired with its normalized inferred type (well-typed ones only).

    Built once per context so several goals can be filtered against it."""
    heads = [Var(name) for name, _ in ctx.entries]
    heads += [Const(name) for name, _ in sig.entries]
    terms = list(heads)
    layer = heads
    for _ in range(depth):
        layer = [wrap(t) for t in layer for wrap in (Fst, Snd)]
        terms.extend(layer)
    typed = []
    for term in terms:
        try:
            derivations = infer_all(sig, ctx, term, cfg)
        except TypeCheckError:
            continue
        inferred = normalize(derivations[0].conclusion.classifier, cfg.step_budget)
        typed.append((term, inferred))
    return typed


def oracle_filter(typed_universe, goal: Term, step_budget: int = 100_000):
    """Alpha keys of the spine terms whose type is convertible with goal."""
    goal = normalize(goal, step_budget)
    return {
        alpha_key(normalize(term, step_budget))
        for term, inferred in typed_universe
        if alpha_key(inferred) == alpha_key(goal)
    }


def spine_oracle(sig: Signature, ctx: Context, goal: Term, depth: int, cfg: CheckConfig):
    """Brute-force witness set for a single goal (see typed_spine_universe)."""
    return oracle_filter(typed_spine_universe(sig, ctx, depth, cfg), goal, cfg.step_budget)


def solver_witness_keys(sig, ctx, goal, depth, max_solutions=10_000):
    cfg = CheckConfig(solver_depth=depth, max_solutions_per_require=max_solutions)
    return {alpha_key(normalize(s.witness)) for s in solve(sig, ctx, goal, cfg)}


def reference_spines(sig: Signature, ctx: Context, depth: int, step_budget: int = 100_000):
    """(term, normal type, derivation) for every projection spine, heads
    newest hypothesis first then signature oldest first, each head's paths
    breadth-first: a linear scan that rebuilds every spine on each call."""
    heads = [(Var(name), entry_type, HYP) for name, entry_type in reversed(ctx.entries)]
    heads += [(Const(name), entry_type, CONST) for name, entry_type in sig.entries]
    out = []
    for head, declared, rule in heads:
        derivation = Derivation(rule, Judgment(sig, ctx, head, declared))
        normal = normalize(declared, step_budget)
        if not alpha_eq(normal, declared):
            derivation = Derivation(CONV, Judgment(sig, ctx, head, normal), (derivation,))
        queue = deque([(head, normal, derivation, 0)])
        while queue:
            term, spine_type, term_derivation, length = queue.popleft()
            out.append((term, spine_type, term_derivation))
            if length >= depth or not isinstance(spine_type, Sigma):
                continue
            first = Fst(term)
            first_derivation = Derivation(
                SIG_E1, Judgment(sig, ctx, first, spine_type.domain), (term_derivation,)
            )
            queue.append((first, spine_type.domain, first_derivation, length + 1))
            second = Snd(term)
            second_type = substitute(spine_type.codomain, spine_type.binder, first)
            second_derivation = Derivation(
                SIG_E2, Judgment(sig, ctx, second, second_type), (term_derivation,)
            )
            second_normal = normalize(second_type, step_budget)
            if not alpha_eq(second_normal, second_type):
                second_derivation = Derivation(
                    CONV, Judgment(sig, ctx, second, second_normal), (second_derivation,)
                )
            queue.append((second, second_normal, second_derivation, length + 1))
    return out


def reference_solve(sig: Signature, ctx: Context, goal: Term, cfg: CheckConfig) -> list:
    """Witnesses by testing every spine from reference_spines for
    convertibility with the goal, deduplicated and truncated at the cap."""
    solutions = []
    seen = set()
    for term, spine_type, derivation in reference_spines(
        sig, ctx, cfg.solver_depth, cfg.step_budget
    ):
        if len(solutions) >= cfg.max_solutions_per_require:
            break
        if not convertible(spine_type, goal, cfg.step_budget):
            continue
        key = alpha_key(normalize(term, cfg.step_budget))
        if key in seen:
            continue
        seen.add(key)
        if not alpha_eq(spine_type, goal):
            derivation = Derivation(CONV, Judgment(sig, ctx, term, goal), (derivation,))
        solutions.append(Solution(term, derivation))
    return solutions


# ---------------------------------------------------------------------------
# Random syntactic terms (for the purely syntactic laws)

_VAR_NAMES = ("x", "y", "z", "w")
_CONST_NAMES = ("A", "B")


def random_syntactic_term(rng: random.Random, depth: int) -> Term:
    """An arbitrary (not necessarily well-typed) term of bounded depth."""
    if depth <= 0:
        return rng.choice(
            [Var(rng.choice(_VAR_NAMES)), Const(rng.choice(_CONST_NAMES)), Universe(rng.randrange(3))]
        )
    shape = rng.randrange(11)
    sub = lambda: random_syntactic_term(rng, depth - 1)
    binder = rng.choice(_VAR_NAMES)
    if shape == 0:
        return Var(rng.choice(_VAR_NAMES))
    if shape == 1:
        return Const(rng.choice(_CONST_NAMES))
    if shape == 2:
        return Universe(rng.randrange(3))
    if shape == 3:
        return Pi(binder, sub(), sub())
    if shape == 4:
        return Sigma(binder, sub(), sub())
    if shape == 5:
        return Lam(binder, sub())
    if shape == 6:
        return App(sub(), sub())
    if shape == 7:
        return Pair(sub(), sub())
    if shape == 8:
        return rng.choice([Fst, Snd])(sub())
    if shape == 9:
        return Require(binder, sub(), sub())
    return Let(binder, sub(), sub(), sub())


# ---------------------------------------------------------------------------
# Random contexts and well-typed terms


def random_context(rng: random.Random, max_hyps: int = 4, max_nesting: int = 4) -> Context:
    """A telescope of 1..max_hyps hypotheses over the base signature, with
    pair-type nesting bounded by max_nesting."""
    ctx = Context()
    for index in range(rng.randint(1, max_hyps)):
        ctx = ctx.extend(f"h{index}", _random_type(rng, max_nesting, (), index * 10))
    return ctx


def _random_type(rng, nesting, entity_scope, salt) -> Term:
    if nesting <= 0 or rng.random() < 0.35:
        return _leaf_type(rng, entity_scope)
    binder = f"v{salt}_{nesting}"
    domain = _random_type(rng, nesting - 1, entity_scope, salt + 1)
    inner_scope = entity_scope + ((binder,) if domain == Const("E") else ())
    codomain = _random_type(rng, nesting - 1, inner_scope, salt + 2)
    shape = Sigma if rng.random() < 0.8 else Pi
    return shape(binder, domain, codomain)


def _leaf_type(rng, entity_scope) -> Term:
    entity = Const("E")
    if not entity_scope:
        return entity if rng.random() < 0.8 else Universe(0)
    roll = rng.random()
    if roll < 0.4:
        return entity
    if roll < 0.55:
        return Universe(0)
    subject = Var(rng.choice(entity_scope))
    if roll < 0.85:
        predicate = Const(rng.choice(("Man", "Farmer", "Donkey", "WalkedIn", "SatDown")))
        return App(predicate, subject)
    relation = Const(rng.choice(("Owns", "Beats")))
    return App(App(relation, subject), Var(rng.choice(entity_scope)))


class PoolEntry:
    """A generated term with the type it was built to have."""

    __slots__ = ("term", "type", "depth", "inferable")

    def __init__(self, term, type_, depth, inferable):
        self.term = term
        self.type = type_
        self.depth = depth
        self.inferable = inferable


def typed_pool(
    rng: random.Random,
    sig: Signature,
    ctx: Context,
    steps: int,
    cfg: CheckConfig,
    with_requires: bool = False,
    max_depth: int = 5,
) -> list:
    """Grow a pool of well-typed terms bottom-up from the hypotheses and
    constants: pairs, projections, applications, lambdas, formations, lets,
    and (optionally) presupposition wrappers around solvable types and lets
    whose annotation presupposes an entity."""
    pool = [PoolEntry(Var(n), normalize(t), 1, True) for n, t in ctx.entries]
    pool += [PoolEntry(Const(n), normalize(t), 1, True) for n, t in sig.entries]
    pool.append(PoolEntry(Universe(0), Universe(1), 1, True))
    fresh = 0
    entity = Const("E")
    entity_in_scope = with_requires and bool(solve(sig, ctx, entity, cfg))

    def pick(predicate):
        candidates = [e for e in pool if predicate(e)]
        return rng.choice(candidates) if candidates else None

    for _ in range(steps):
        op = rng.randrange(9)
        if op == 0:  # non-dependent pair
            a, b = pick(lambda e: True), pick(lambda e: True)
            if a.depth >= max_depth or b.depth >= max_depth:
                continue
            pool.append(
                PoolEntry(
                    Pair(a.term, b.term),
                    Sigma("_", a.type, b.type),
                    max(a.depth, b.depth) + 1,
                    False,
                )
            )
        elif op == 1:  # first projection
            e = pick(lambda e: e.inferable and isinstance(e.type, Sigma) and e.depth < max_depth)
            if e is None:
                continue
            pool.append(PoolEntry(Fst(e.term), e.type.domain, e.depth + 1, True))
        elif op == 2:  # second projection
            e = pick(lambda e: e.inferable and isinstance(e.type, Sigma) and e.depth < max_depth)
            if e is None:
                continue
            second_type = normalize(substitute(e.type.codomain, e.type.binder, Fst(e.term)))
            # A presupposition in a dependent position would leak into the
            # type, where it has no computational interpretation; keep
            # classifiers presupposition-free, as the discourse corpus does.
            if contains_require(second_type):
                continue
            pool.append(PoolEntry(Snd(e.term), second_type, e.depth + 1, True))
        elif op == 3:  # application
            f = pick(lambda e: e.inferable and isinstance(e.type, Pi) and e.depth < max_depth)
            if f is None:
                continue
            domain = f.type.domain
            a = pick(
                lambda e: e.depth < max_depth
                and convertible(e.type, domain, cfg.step_budget)
            )
            if a is None:
                continue
            result = normalize(substitute(f.type.codomain, f.type.binder, a.term))
            if contains_require(result):
                continue
            pool.append(
                PoolEntry(App(f.term, a.term), result, max(f.depth, a.depth) + 1, True)
            )
        elif op == 4:  # constant or identity function
            fresh += 1
            binder = f"g{fresh}"
            domain = _pool_type(rng, pool)
            if domain is None:
                continue
            if rng.random() < 0.5:
                body, body_type, depth = Var(binder), domain, 1
            else:
                e = pick(lambda e: e.depth < max_depth - 1)
                body, body_type, depth = e.term, e.type, e.depth
            pool.append(
                PoolEntry(Lam(binder, body), Pi(binder, domain, body_type), depth + 1, False)
            )
        elif op == 5:  # formation as a term
            fresh += 1
            binder = f"t{fresh}"
            shape = Sigma if rng.random() < 0.6 else Pi
            predicate = Const(rng.choice(("Man", "Farmer", "Donkey")))
            term = shape(binder, Const("E"), App(predicate, Var(binder)))
            pool.append(PoolEntry(term, Universe(0), 2, True))
        elif op == 6:  # universe
            level = rng.randrange(3)
            pool.append(PoolEntry(Universe(level), Universe(level + 1), 1, True))
        elif op == 7 and with_requires:  # presupposition around a solvable type
            e = pick(
                lambda e: e.depth < max_depth
                and not isinstance(e.type, Universe)
                and solve(sig, ctx, e.type, cfg)
            )
            if e is None:
                continue
            fresh += 1
            binder = f"r{fresh}"
            pool.append(
                PoolEntry(Require(binder, e.type, Var(binder)), e.type, e.depth + 1, True)
            )
        elif op == 8:  # let around an unrelated body
            value = pick(lambda e: e.depth < max_depth - 1)
            body = pick(lambda e: e.inferable and e.depth < max_depth)
            fresh += 1
            annot, defined = value.type, value.term
            if entity_in_scope and rng.random() < 0.5:
                # A function type whose domain presupposes an entity:
                # (w : require r : E in P r) -> A, defined by \w. value.
                predicate = Const(rng.choice(("Man", "Farmer", "Donkey")))
                goal = Require(f"r{fresh}", entity, App(predicate, Var(f"r{fresh}")))
                annot = Pi(f"w{fresh}", goal, value.type)
                defined = Lam(f"w{fresh}", value.term)
            term = Let(f"l{fresh}", annot, defined, body.term)
            depth = max(value.depth + 1, body.depth) + 1
            pool.append(PoolEntry(term, body.type, depth, True))
    return pool


def _pool_type(rng, pool):
    """A small well-formed type to use as a lambda domain."""
    candidates = [e.term for e in pool if isinstance(e.type, Universe)]
    candidates.append(Const("E"))
    return rng.choice(candidates)


# ---------------------------------------------------------------------------
# Per-constructor term walkers (oracles for the table-driven ones) and the
# recursive printer (oracle for format_term)


def reference_free_vars(term: Term) -> set:
    """free_vars as a plain recursion that keeps nothing on the nodes."""
    match term:
        case Var(name):
            return {name}
        case Const() | Universe():
            return set()
        case App(fun, arg):
            return reference_free_vars(fun) | reference_free_vars(arg)
        case Pair(first, second):
            return reference_free_vars(first) | reference_free_vars(second)
        case Fst(pair) | Snd(pair):
            return reference_free_vars(pair)
        case Pi(binder, domain, scope) | Sigma(binder, domain, scope) | Require(
            binder, domain, scope
        ):
            return reference_free_vars(domain) | (reference_free_vars(scope) - {binder})
        case Lam(binder, body):
            return reference_free_vars(body) - {binder}
        case Let(binder, annot, value, body):
            return (
                reference_free_vars(annot)
                | reference_free_vars(value)
                | (reference_free_vars(body) - {binder})
            )
    raise TypeError(f"not a term: {term!r}")


def reference_substitute(body: Term, var: str, value: Term) -> Term:
    """substitute with one case per constructor, renaming a capturing binder
    to the first primed name free in neither value nor the scope."""
    match body:
        case Var(name):
            return value if name == var else body
        case Const() | Universe():
            return body
        case App(fun, arg):
            return App(reference_substitute(fun, var, value), reference_substitute(arg, var, value))
        case Pair(first, second):
            return Pair(
                reference_substitute(first, var, value), reference_substitute(second, var, value)
            )
        case Fst(pair):
            return Fst(reference_substitute(pair, var, value))
        case Snd(pair):
            return Snd(reference_substitute(pair, var, value))
        case Pi(binder, domain, codomain):
            binder, codomain = _reference_under(binder, codomain, var, value)
            return Pi(binder, reference_substitute(domain, var, value), codomain)
        case Sigma(binder, domain, codomain):
            binder, codomain = _reference_under(binder, codomain, var, value)
            return Sigma(binder, reference_substitute(domain, var, value), codomain)
        case Lam(binder, lam_body):
            return Lam(*_reference_under(binder, lam_body, var, value))
        case Require(binder, goal_type, req_body):
            binder, req_body = _reference_under(binder, req_body, var, value)
            return Require(binder, reference_substitute(goal_type, var, value), req_body)
        case Let(binder, annot, defn, let_body):
            binder, let_body = _reference_under(binder, let_body, var, value)
            return Let(
                binder,
                reference_substitute(annot, var, value),
                reference_substitute(defn, var, value),
                let_body,
            )
    raise TypeError(f"not a term: {body!r}")


def _reference_under(binder: str, scope: Term, var: str, value: Term):
    if binder == var:
        return binder, scope
    if binder in reference_free_vars(value) and var in reference_free_vars(scope):
        avoid = reference_free_vars(value) | reference_free_vars(scope) | {var}
        renamed = binder
        while renamed in avoid:
            renamed += "'"
        scope = reference_substitute(scope, binder, Var(renamed))
        binder = renamed
    return binder, reference_substitute(scope, var, value)


def reference_alpha_key(term: Term, bound=None, depth: int = 0):
    """alpha_key with one case per constructor: bound variables become their
    binder depth."""
    bound = {} if bound is None else bound
    match term:
        case Var(name):
            return ("bvar", bound[name]) if name in bound else ("var", name)
        case Const(name):
            return ("const", name)
        case Universe(level):
            return ("set", level)
        case App(fun, arg):
            return ("app", reference_alpha_key(fun, bound, depth), reference_alpha_key(arg, bound, depth))
        case Pair(first, second):
            return (
                "pair",
                reference_alpha_key(first, bound, depth),
                reference_alpha_key(second, bound, depth),
            )
        case Fst(pair):
            return ("fst", reference_alpha_key(pair, bound, depth))
        case Snd(pair):
            return ("snd", reference_alpha_key(pair, bound, depth))
        case Lam(binder, body):
            return ("lam", reference_alpha_key(body, {**bound, binder: depth}, depth + 1))
        case Pi(binder, domain, codomain):
            return (
                "pi",
                reference_alpha_key(domain, bound, depth),
                reference_alpha_key(codomain, {**bound, binder: depth}, depth + 1),
            )
        case Sigma(binder, domain, codomain):
            return (
                "sigma",
                reference_alpha_key(domain, bound, depth),
                reference_alpha_key(codomain, {**bound, binder: depth}, depth + 1),
            )
        case Require(binder, goal_type, body):
            return (
                "require",
                reference_alpha_key(goal_type, bound, depth),
                reference_alpha_key(body, {**bound, binder: depth}, depth + 1),
            )
        case Let(binder, annot, value, body):
            return (
                "let",
                reference_alpha_key(annot, bound, depth),
                reference_alpha_key(value, bound, depth),
                reference_alpha_key(body, {**bound, binder: depth}, depth + 1),
            )
    raise TypeError(f"not a term: {term!r}")


def reference_contains_require(term: Term) -> bool:
    """contains_require with one case per constructor."""
    match term:
        case Var() | Const() | Universe():
            return False
        case Require():
            return True
        case App(fun, arg):
            return reference_contains_require(fun) or reference_contains_require(arg)
        case Pair(first, second):
            return reference_contains_require(first) or reference_contains_require(second)
        case Fst(pair) | Snd(pair):
            return reference_contains_require(pair)
        case Pi(_, domain, codomain) | Sigma(_, domain, codomain):
            return reference_contains_require(domain) or reference_contains_require(codomain)
        case Lam(_, body):
            return reference_contains_require(body)
        case Let(_, annot, value, body):
            return (
                reference_contains_require(annot)
                or reference_contains_require(value)
                or reference_contains_require(body)
            )
    raise TypeError(f"not a term: {term!r}")


def reference_normalize(term: Term, step_budget: int = 100_000) -> Term:
    """normalize with one congruence case per constructor, spending one step
    per beta, projection or let reduction and raising NonTermination when the
    budget runs out."""
    remaining = [step_budget]

    def spend():
        if remaining[0] <= 0:
            raise NonTermination("evaluation step budget exceeded")
        remaining[0] -= 1

    def norm(term):
        match term:
            case Var() | Const() | Universe():
                return term
            case Pi(binder, domain, codomain):
                return Pi(binder, norm(domain), norm(codomain))
            case Sigma(binder, domain, codomain):
                return Sigma(binder, norm(domain), norm(codomain))
            case Lam(binder, body):
                return Lam(binder, norm(body))
            case Pair(first, second):
                return Pair(norm(first), norm(second))
            case App(fun, arg):
                fun = norm(fun)
                arg = norm(arg)
                if isinstance(fun, Lam):
                    spend()
                    return norm(reference_substitute(fun.body, fun.binder, arg))
                return App(fun, arg)
            case Fst(pair):
                pair = norm(pair)
                if isinstance(pair, Pair):
                    spend()
                    return pair.first
                return Fst(pair)
            case Snd(pair):
                pair = norm(pair)
                if isinstance(pair, Pair):
                    spend()
                    return pair.second
                return Snd(pair)
            case Let(binder, _, value, body):
                spend()
                return norm(reference_substitute(body, binder, value))
            case Require(binder, goal_type, body):
                return Require(binder, norm(goal_type), norm(body))
        raise TypeError(f"not a term: {term!r}")

    return norm(term)


def reference_format(term: Term) -> str:
    """format_term as a plain recursion that recomputes the free variables of
    every codomain it meets (quadratic on right-nested types)."""
    match term:
        case Lam(binder, body):
            return f"\\{binder}. {reference_format(body)}"
        case Require(binder, goal_type, body):
            return f"require {binder} : {reference_format(goal_type)} in {reference_format(body)}"
        case Let(binder, annot, value, body):
            return (
                f"let {binder} : {reference_format(annot)} = {reference_format(value)}"
                f" in {reference_format(body)}"
            )
        case Pi(binder, domain, codomain) | Sigma(binder, domain, codomain):
            arrow = "->" if isinstance(term, Pi) else "*"
            if binder in reference_free_vars(codomain):
                return f"({binder} : {reference_format(domain)}) {arrow} {reference_format(codomain)}"
            return f"{_reference_operand(domain)} {arrow} {reference_format(codomain)}"
        case _:
            return _reference_app(term)


def _reference_operand(term: Term) -> str:
    match term:
        case Pi() | Sigma() | Lam() | Require() | Let():
            return f"({reference_format(term)})"
        case _:
            return _reference_app(term)


def _reference_app(term: Term) -> str:
    match term:
        case App(fun, arg):
            return f"{_reference_app(fun)} {_reference_atom(arg)}"
        case Fst(pair):
            return f"fst {_reference_atom(pair)}"
        case Snd(pair):
            return f"snd {_reference_atom(pair)}"
        case _:
            return _reference_atom(term)


def _reference_atom(term: Term) -> str:
    match term:
        case Var(name) | Const(name):
            return name
        case Universe(level):
            return f"Set{level}"
        case Pair(first, second):
            return f"<{reference_format(first)}, {reference_format(second)}>"
        case _:
            return f"({reference_format(term)})"


def reference_to_json_dict(derivation: Derivation) -> dict:
    """to_json_dict as a plain recursion: a fresh dict at every visit of a
    node and a fresh `ctx` list at every node, sharing nothing."""
    j = derivation.conclusion
    node = {
        "rule": derivation.rule,
        "ctx": [f"{name} : {format_term(t)}" for name, t in j.ctx.entries],
        "term": format_term(j.subject),
        "type": format_term(j.classifier),
        "premises": [reference_to_json_dict(p) for p in derivation.premises],
    }
    if derivation.witness is not None:
        node["witness"] = format_term(derivation.witness)
    return node
