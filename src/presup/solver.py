"""Witness search for presuppositions.

The search space is exactly the projection spines: a hypothesis or constant
under a chain of fst/snd, descending only while the type at hand is a pair
type.  This is the finite, deterministic stand-in for "any witness
experienced so far": everything the discourse context makes available by
projection, most recent hypothesis first.

A head's spines depend only on the head and its declared type, so each head
gets at most one table per top-level call: its spines in breadth-first order
with their normalized types, indexed by the top symbol of that type (head
constructor, name or level, argument count).  A goal is normalized once;
only spines under its symbol are compared by alpha key, and derivation
trees are built only for the hits.  A table is built when a goal first
reaches its head: a spine type's free variables are the head's and its
declared type's, as normalizing and projecting only substitute subterms,
so a head that lacks a free variable of the normal goal is passed over and
its type is never normalized (nor its step budget spent).

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
    App,
    Const,
    Context,
    Fst,
    Sigma,
    Signature,
    Snd,
    Term,
    Var,
    alpha_key,
    free_vars,
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
    """The spines of one head, breadth-first, to a fixed depth, once `fill`
    has listed them.

    Spine i is (term, normal type, parent index or -1, rule); `index` maps
    the top symbol of a normal type to the indices of the spines that have
    it, in order.  `names` caches the free variables a spine type can have.

    Only the head's type is normalized, and `declared` keeps it as given: a
    normal pair type's domain is normal, and putting the neutral `fst t` for
    its normal codomain's binder makes no redex.  `normalize` returns a
    normal term itself, so the head's two types differ exactly when they are
    distinct objects.
    """

    __slots__ = ("head", "declared", "rule", "names", "spines", "index")

    def __init__(self, head: Term, declared: Term, rule: str):
        self.head, self.declared, self.rule = head, declared, rule
        self.names = self.index = None

    def fill(self, depth: int, step_budget: int) -> dict:
        spines, index = [], {}
        queue = deque([(self.head, normalize(self.declared, step_budget), -1, self.rule, 0)])
        while queue:
            term, spine_type, parent, rule, length = queue.popleft()
            index.setdefault(_symbol(spine_type), []).append(len(spines))
            spines.append((term, spine_type, parent, rule))
            if length >= depth or not isinstance(spine_type, Sigma):
                continue
            first = Fst(term)
            queue.append((first, spine_type.domain, len(spines) - 1, SIG_E1, length + 1))
            second_type = substitute(spine_type.codomain, spine_type.binder, first)
            queue.append((Snd(term), second_type, len(spines) - 1, SIG_E2, length + 1))
        self.spines, self.index = spines, index
        return index

    def derivation(self, position: int, sig: Signature, ctx: Context, built: dict) -> Derivation:
        """The derivation of spine `position` in sig; ctx, sharing the nodes
        of its ancestors through `built`."""
        if position in built:
            return built[position]
        term, spine_type, parent, rule = self.spines[position]
        raw = self.declared if parent < 0 else spine_type
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
        heads = [(Var, HYP, entry) for entry in reversed(_looked_up(ctx))]
        heads += [(Const, CONST, entry) for entry in _looked_up(sig)]
        tables = []
        for make, rule, entry in heads:
            # Entry tuples are shared between a context and its extensions;
            # the cached value holds the entry, so its id is not reused
            # meanwhile.  A view holds its telescopes for the same reason.
            key = (id(entry), rule, depth, step_budget)
            cached = by_head.get(key)
            if cached is None:
                name, declared = entry
                cached = by_head[key] = (entry, _Table(make(name), declared, rule))
            tables.append(cached[1])
        view = views[view_key] = (tables, [{} for _ in tables], sig, ctx)
    return view[0], view[1]


def _symbol(term: Term) -> tuple:
    # The head constructor, the head's name or level if it is a leaf, and
    # the number of arguments: alpha-equivalent terms share it.
    arity = 0
    while type(term) is App:
        term, arity = term.fun, arity + 1
    return type(term), getattr(term, "name", getattr(term, "level", None)), arity


def _looked_up(telescope) -> tuple:
    # The entries `lookup` finds, in order: the first of each name.
    if len(telescope.names) == len(telescope.entries):
        return telescope.entries
    first = {}
    for entry in telescope.entries:
        first.setdefault(entry[0], entry)
    return tuple(first.values())


@with_spine_tables
def enumerate_spines(sig: Signature, ctx: Context, depth: int) -> list:
    """All projection spines with their normalized types.

    Heads are taken from the context newest-first, then the signature
    oldest-first; for a fixed head, paths come in breadth-first order and
    descend only through pair types, to at most `depth` projections.
    """
    step_budget = DEFAULT_CONFIG.step_budget
    tables = _view(sig, ctx, depth, step_budget)[0]
    for table in tables:
        if table.index is None:
            table.fill(depth, step_budget)
    return [(term, spine_type) for table in tables for term, spine_type, *_ in table.spines]


@with_spine_tables
def solve(sig: Signature, ctx: Context, goal: Term, cfg: CheckConfig | None = None) -> list:
    """Every spine witness whose type is convertible with the goal, in the
    order of `enumerate_spines`.

    The witnesses are distinct, since each name is searched once, through
    the entry `lookup` finds.  An empty list means the presupposition is
    unresolved in this context.  Reporting that, and capping the list, are
    the caller's business.
    """
    cfg = cfg or DEFAULT_CONFIG
    tables, built = _view(sig, ctx, cfg.solver_depth, cfg.step_budget)
    # Spine types are normal, so convertibility with the goal is equality
    # of alpha keys with the goal's normal form.
    normal_goal = normalize(goal, cfg.step_budget)
    symbol = _symbol(normal_goal)
    normal_key = alpha_key(normal_goal)
    goal_names = free_vars(normal_goal)
    solutions = []
    for table, table_built in zip(tables, built):
        index = table.index
        if index is None:
            # A head none of whose spine types can have all of the goal's
            # free variables holds no witness: its table waits for a goal
            # that reaches it.
            if goal_names:
                if table.names is None:
                    table.names = free_vars(table.declared) | free_vars(table.head)
                if not goal_names <= table.names:
                    continue
            index = table.fill(cfg.solver_depth, cfg.step_budget)
        for position in index.get(symbol, ()):
            spine = table.spines[position]
            if alpha_key(spine[1]) != normal_key:
                continue
            term = spine[0]
            derivation = table.derivation(position, sig, ctx, table_built)
            if normal_goal is not goal:
                derivation = Derivation(CONV, Judgment(sig, ctx, term, goal), (derivation,))
            solutions.append(Solution(term, derivation))
    return solutions
