"""Witness search for presuppositions.

The search space is exactly the projection spines: a hypothesis or constant
under a chain of fst/snd, descending only while the type at hand is a pair
type.  This is the finite, deterministic stand-in for "any witness
experienced so far": everything the discourse context makes available by
projection, most recent hypothesis first.

A head's spines depend only on the head and its declared type, so each head
gets one table per top-level call: its spines in breadth-first order with
their normalized types, indexed by the alpha key of that type.  A goal is
normalized and keyed once; its witnesses are the index hits, and derivation
trees are built only for them.

Each (signature, context) pair searched gets one view per top-level call:
its heads' tables in search order, and next to each table the derivations
already built from it under that pair.  So a context's head list is built
once however many goals it is asked, and the same spine in the same
context is one `Derivation` object in every solution that uses it (the
validator then checks it once).  Views are keyed by the identity of the two
telescopes and hold both, so their ids are not reused meanwhile.

The tables and views live in a context variable that the outermost call of
`solve`, `enumerate_spines` or a typechecker entry point sets and clears, so
nothing outlives that call.
"""

from __future__ import annotations

import functools
from collections import deque
from contextvars import ContextVar
from dataclasses import dataclass

from .derivations import (
    CONST,
    CONV,
    HYP,
    SIG_E1,
    SIG_E2,
    DEFAULT_CONFIG,
    CheckConfig,
    Derivation,
    Judgment,
)
from .evaluator import normalize
from .syntax import (
    Const,
    Context,
    Fst,
    Sigma,
    Signature,
    Snd,
    Term,
    Var,
    alpha_key,
    substitute,
)

# The spine tables and the views of the current top-level call, as a pair of
# dicts, or None outside one.
_TABLES: ContextVar = ContextVar("spine_tables", default=None)


@dataclass(frozen=True)
class Solution:
    """A witness for a presupposition goal, with its typing derivation."""

    witness: Term
    derivation: Derivation


def with_spine_tables(fn):
    """Give fn's call its own spine tables, unless an enclosing call has
    some already; they are dropped when the outermost such call returns."""

    @functools.wraps(fn)
    def scoped(*args, **kwargs):
        if _TABLES.get() is not None:
            return fn(*args, **kwargs)
        token = _TABLES.set(({}, {}))
        try:
            return fn(*args, **kwargs)
        finally:
            _TABLES.reset(token)

    return scoped


class _Table:
    """The spines of one head, breadth-first, to a fixed depth.

    Spine i is (term, normal type, classifier before normalization, parent
    index or -1, rule); `index` maps the alpha key of a normal type to the
    indices of the spines that have it, in order.  `normalize` returns a
    normal term itself, so the two types differ exactly when they are
    distinct objects.

    Only the head's type is normalized: a normal pair type's domain is normal,
    and putting the neutral `fst t` for its normal codomain's binder makes no redex.
    """

    __slots__ = ("spines", "index")

    def __init__(self, head: Term, declared: Term, rule: str, depth: int, step_budget: int):
        self.spines = []
        self.index = {}
        queue = deque([(head, declared, -1, rule, 0)])
        while queue:
            term, raw, parent, rule, length = queue.popleft()
            spine_type = normalize(raw, step_budget) if parent < 0 else raw
            normal_key = alpha_key(spine_type)
            position = len(self.spines)
            self.spines.append((term, spine_type, raw, parent, rule))
            self.index.setdefault(normal_key, []).append(position)
            if length >= depth or not isinstance(spine_type, Sigma):
                continue
            first = Fst(term)
            queue.append((first, spine_type.domain, position, SIG_E1, length + 1))
            second_type = substitute(spine_type.codomain, spine_type.binder, first)
            queue.append((Snd(term), second_type, position, SIG_E2, length + 1))

    def derivation(self, position: int, sig: Signature, ctx: Context, built: dict) -> Derivation:
        """The derivation of spine `position` in sig; ctx, sharing the nodes
        of its ancestors through `built`."""
        if position in built:
            return built[position]
        term, spine_type, raw, parent, rule = self.spines[position]
        premises = () if parent < 0 else (self.derivation(parent, sig, ctx, built),)
        node = Derivation(rule, Judgment(sig, ctx, term, raw), premises)
        if spine_type is not raw:
            node = Derivation(CONV, Judgment(sig, ctx, term, spine_type), (node,))
        built[position] = node
        return node


def _view(sig: Signature, ctx: Context, depth: int, step_budget: int) -> tuple:
    """(tables, built): one table per head, the context newest-first, then
    the signature oldest-first, and beside each table its derivations built
    so far in sig; ctx.  Both are reused within the current top-level call."""
    by_head, views = _TABLES.get()
    view_key = (id(sig), id(ctx), depth, step_budget)
    view = views.get(view_key)
    if view is None:
        heads = [(Var, HYP, entry) for entry in reversed(ctx.entries)]
        heads += [(Const, CONST, entry) for entry in sig.entries]
        tables = []
        for make, rule, entry in heads:
            # Entry tuples are shared between a context and its extensions;
            # the cached value holds the entry, so its id is not reused
            # meanwhile.  A view holds its telescopes for the same reason.
            key = (id(entry), rule, depth, step_budget)
            cached = by_head.get(key)
            if cached is None:
                name, declared = entry
                table = _Table(make(name), declared, rule, depth, step_budget)
                cached = by_head[key] = (entry, table)
            tables.append(cached[1])
        view = views[view_key] = (tables, [{} for _ in tables], sig, ctx)
    return view[0], view[1]


@with_spine_tables
def enumerate_spines(sig: Signature, ctx: Context, depth: int) -> list:
    """All projection spines with their normalized types.

    Heads are taken from the context newest-first, then the signature
    oldest-first; for a fixed head, paths come in breadth-first order and
    descend only through pair types, to at most `depth` projections.
    """
    return [
        (term, spine_type)
        for table in _view(sig, ctx, depth, DEFAULT_CONFIG.step_budget)[0]
        for term, spine_type, *_ in table.spines
    ]


@with_spine_tables
def solve(
    sig: Signature,
    ctx: Context,
    goal: Term,
    cfg: CheckConfig | None = None,
    *,
    capped: bool = True,
) -> list:
    """All spine witnesses whose type is convertible with the goal.

    Order is that of `enumerate_spines`, duplicates (up to alpha on the
    witness) are dropped, and the list holds at most the configured number
    of witnesses unless `capped` is false.  An empty list means the
    presupposition is unresolved in this context; that is the caller's
    error to report.
    """
    cfg = cfg or DEFAULT_CONFIG
    limit = cfg.max_solutions_per_require if capped else None
    tables, built = _view(sig, ctx, cfg.solver_depth, cfg.step_budget)
    # Spine types are normal, so convertibility with the goal is equality
    # of alpha keys with the goal's normal form.
    normal_goal = normalize(goal, cfg.step_budget)
    normal_key = alpha_key(normal_goal)
    solutions = []
    seen = set()
    for table, table_built in zip(tables, built):
        for position in table.index.get(normal_key, ()):
            if limit is not None and len(solutions) >= limit:
                return solutions
            term = table.spines[position][0]
            key = alpha_key(term)
            if key in seen:
                continue
            seen.add(key)
            derivation = table.derivation(position, sig, ctx, table_built)
            if normal_goal is not goal:
                derivation = Derivation(CONV, Judgment(sig, ctx, term, goal), (derivation,))
            solutions.append(Solution(term, derivation))
    return solutions
