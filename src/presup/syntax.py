"""Core term syntax: terms, signatures, contexts, and the syntactic operations.

Terms are immutable trees identified up to renaming of bound variables; every
operation defined here is insensitive to the choice of bound names.  Binders
(in function and pair types, lambdas, presupposition requirements and lets)
scope over the final subterm only, never over domains or annotations.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    """Base class for all syntax nodes."""

    __slots__ = ()

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True)
class Var(Term):
    """A variable: either bound by an enclosing binder or a local hypothesis."""

    name: str


@dataclass(frozen=True)
class Const(Term):
    """A name declared in the ambient signature (a lexical constant)."""

    name: str


@dataclass(frozen=True)
class Universe(Term):
    """The type of types at the given level, written Set0, Set1, ..."""

    level: int


@dataclass(frozen=True)
class Pi(Term):
    """Dependent function type, written (binder : domain) -> codomain."""

    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Lam(Term):
    """Function literal, written \\binder. body.  Unannotated: checked, never inferred."""

    binder: str
    body: Term


@dataclass(frozen=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True)
class Sigma(Term):
    """Dependent pair type, written (binder : domain) * codomain."""

    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True)
class Pair(Term):
    first: Term
    second: Term


@dataclass(frozen=True)
class Fst(Term):
    pair: Term


@dataclass(frozen=True)
class Snd(Term):
    pair: Term


@dataclass(frozen=True)
class Require(Term):
    """Presupposition: find some witness of goal_type and bind it in body.

    Does not reduce on its own; it is discharged by the solver and removed by
    elaboration.
    """

    binder: str
    goal_type: Term
    body: Term


@dataclass(frozen=True)
class Let(Term):
    """Local definition with a type annotation: let binder : annot = value in body."""

    binder: str
    annot: Term
    value: Term
    body: Term


def free_vars(term: Term) -> frozenset[str]:
    """The set of variable names occurring free in term.

    Constants never count as free variables; binders remove their name from
    their scope only.
    """
    return _free(term, None)


def _free(term: Term, memo: dict | None) -> frozenset[str]:
    # With a memo (keyed by node identity, owned by one caller), each node's
    # set is computed once however often it is asked for.
    if memo is not None:
        found = memo.get(id(term))
        if found is not None:
            return found
    match term:
        case Var(name):
            result = frozenset((name,))
        case Const() | Universe():
            result = frozenset()
        case App(fun, arg):
            result = _free(fun, memo) | _free(arg, memo)
        case Pair(first, second):
            result = _free(first, memo) | _free(second, memo)
        case Fst(pair) | Snd(pair):
            result = _free(pair, memo)
        case Pi(binder, domain, codomain) | Sigma(binder, domain, codomain):
            result = _free(domain, memo) | (_free(codomain, memo) - {binder})
        case Lam(binder, body):
            result = _free(body, memo) - {binder}
        case Require(binder, goal_type, body):
            result = _free(goal_type, memo) | (_free(body, memo) - {binder})
        case Let(binder, annot, value, body):
            result = (
                _free(annot, memo) | _free(value, memo) | (_free(body, memo) - {binder})
            )
        case _:
            raise TypeError(f"not a term: {term!r}")
    if memo is not None:
        memo[id(term)] = result
    return result


def fresh_name(base: str, avoid) -> str:
    """The first of base, base', base'', ... not in avoid."""
    name = base
    while name in avoid:
        name += "'"
    return name


def substitute(body: Term, var: str, value: Term) -> Term:
    """Replace free occurrences of var in body by value: [value/var]body.

    Capture is avoided by renaming bound variables (with primes) when they
    would trap a free variable of value.
    """
    match body:
        case Var(name):
            return value if name == var else body
        case Const() | Universe():
            return body
        case App(fun, arg):
            return App(substitute(fun, var, value), substitute(arg, var, value))
        case Pair(first, second):
            return Pair(substitute(first, var, value), substitute(second, var, value))
        case Fst(pair):
            return Fst(substitute(pair, var, value))
        case Snd(pair):
            return Snd(substitute(pair, var, value))
        case Pi(binder, domain, codomain):
            binder, codomain = _subst_under(binder, codomain, var, value)
            return Pi(binder, substitute(domain, var, value), codomain)
        case Sigma(binder, domain, codomain):
            binder, codomain = _subst_under(binder, codomain, var, value)
            return Sigma(binder, substitute(domain, var, value), codomain)
        case Lam(binder, lam_body):
            binder, lam_body = _subst_under(binder, lam_body, var, value)
            return Lam(binder, lam_body)
        case Require(binder, goal_type, req_body):
            binder, req_body = _subst_under(binder, req_body, var, value)
            return Require(binder, substitute(goal_type, var, value), req_body)
        case Let(binder, annot, defn, let_body):
            binder, let_body = _subst_under(binder, let_body, var, value)
            return Let(
                binder,
                substitute(annot, var, value),
                substitute(defn, var, value),
                let_body,
            )
    raise TypeError(f"not a term: {body!r}")


def _subst_under(binder: str, scope: Term, var: str, value: Term):
    """Substitute in the scope of a binder, renaming the binder if it would
    capture a free variable of value."""
    if binder == var:
        return binder, scope
    if binder in free_vars(value) and var in free_vars(scope):
        renamed = fresh_name(binder, free_vars(value) | free_vars(scope) | {var})
        scope = substitute(scope, binder, Var(renamed))
        binder = renamed
    return binder, substitute(scope, var, value)


def alpha_key(term: Term):
    """A hashable key equal exactly for alpha-equivalent terms.

    Bound variables are replaced by their binder depth, so the key is
    independent of bound names; free variables and constants keep theirs.
    """
    return _key(term, {}, 0)


def _key(term: Term, bound: dict, depth: int):
    match term:
        case Var(name):
            if name in bound:
                return ("bvar", bound[name])
            return ("var", name)
        case Const(name):
            return ("const", name)
        case Universe(level):
            return ("set", level)
        case App(fun, arg):
            return ("app", _key(fun, bound, depth), _key(arg, bound, depth))
        case Pair(first, second):
            return ("pair", _key(first, bound, depth), _key(second, bound, depth))
        case Fst(pair):
            return ("fst", _key(pair, bound, depth))
        case Snd(pair):
            return ("snd", _key(pair, bound, depth))
        case Pi(binder, domain, codomain):
            inner = {**bound, binder: depth}
            return ("pi", _key(domain, bound, depth), _key(codomain, inner, depth + 1))
        case Sigma(binder, domain, codomain):
            inner = {**bound, binder: depth}
            return ("sigma", _key(domain, bound, depth), _key(codomain, inner, depth + 1))
        case Lam(binder, body):
            inner = {**bound, binder: depth}
            return ("lam", _key(body, inner, depth + 1))
        case Require(binder, goal_type, body):
            inner = {**bound, binder: depth}
            return (
                "require",
                _key(goal_type, bound, depth),
                _key(body, inner, depth + 1),
            )
        case Let(binder, annot, value, body):
            inner = {**bound, binder: depth}
            return (
                "let",
                _key(annot, bound, depth),
                _key(value, bound, depth),
                _key(body, inner, depth + 1),
            )
    raise TypeError(f"not a term: {term!r}")


def alpha_eq(a: Term, b: Term) -> bool:
    """True iff a and b are identical up to renaming of bound variables.

    Structurally equal terms are alpha-equivalent, and `==` on the frozen
    dataclasses compares fields identity-first, so terms that share most of
    their structure are settled without building either key.
    """
    return a is b or a == b or alpha_key(a) == alpha_key(b)


def nested_proj(term: Term, index: int) -> Term:
    """The index-th component of a right-nested tuple: fst (snd^(index-1) term).

    Purely syntactic; the caller is responsible for index being consistent
    with the tuple's type (the last component of a tuple is its own snd-spine,
    not a projection of one).
    """
    if index < 1:
        raise ValueError("component index must be >= 1")
    for _ in range(index - 1):
        term = Snd(term)
    return Fst(term)


def contains_require(term: Term) -> bool:
    """True iff a presupposition node occurs anywhere in term."""
    match term:
        case Var() | Const() | Universe():
            return False
        case Require():
            return True
        case App(fun, arg):
            return contains_require(fun) or contains_require(arg)
        case Pair(first, second):
            return contains_require(first) or contains_require(second)
        case Fst(pair) | Snd(pair):
            return contains_require(pair)
        case Pi(_, domain, codomain) | Sigma(_, domain, codomain):
            return contains_require(domain) or contains_require(codomain)
        case Lam(_, body):
            return contains_require(body)
        case Let(_, annot, value, body):
            return (
                contains_require(annot)
                or contains_require(value)
                or contains_require(body)
            )
    raise TypeError(f"not a term: {term!r}")


@dataclass(frozen=True)
class Signature:
    """Ordered telescope of named constants.  Names are pairwise distinct and
    each entry's type must check in the empty context under the preceding
    prefix (validated by the typechecker, not on construction)."""

    entries: tuple = ()

    def lookup(self, name: str):
        for entry_name, entry_type in self.entries:
            if entry_name == name:
                return entry_type
        return None

    def extend(self, name: str, entry_type: Term) -> "Signature":
        return Signature(self.entries + ((name, entry_type),))

    @property
    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entries)


@dataclass(frozen=True)
class Context:
    """Ordered telescope of local hypotheses, disjoint from the signature."""

    entries: tuple = ()

    def lookup(self, name: str):
        for entry_name, entry_type in self.entries:
            if entry_name == name:
                return entry_type
        return None

    def extend(self, name: str, entry_type: Term) -> "Context":
        return Context(self.entries + ((name, entry_type),))

    @property
    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entries)


# Words that cannot be used as identifiers in the concrete syntax.
RESERVED_WORDS = frozenset({"fst", "snd", "require", "let", "in"})


def format_term(term: Term) -> str:
    """Render a term in the concrete syntax with minimal parentheses.

    Parsing the result gives back an alpha-equal term.  Non-dependent function
    and pair types print as A -> B and A * B; both extend maximally to the
    right, as do all binders.
    """
    # One free-variable memo per call (see _free): the dependency test at a
    # Pi/Sigma reuses the sets computed for the codomains nested inside it.
    return _format(term, {})


def _format(term: Term, memo: dict) -> str:
    match term:
        case Lam(binder, body):
            return f"\\{binder}. {_format(body, memo)}"
        case Require(binder, goal_type, body):
            return f"require {binder} : {_format(goal_type, memo)} in {_format(body, memo)}"
        case Let(binder, annot, value, body):
            return (
                f"let {binder} : {_format(annot, memo)} = {_format(value, memo)}"
                f" in {_format(body, memo)}"
            )
        case Pi(binder, domain, codomain):
            if binder in _free(codomain, memo):
                return f"({binder} : {_format(domain, memo)}) -> {_format(codomain, memo)}"
            return f"{_format_operand(domain, memo)} -> {_format(codomain, memo)}"
        case Sigma(binder, domain, codomain):
            if binder in _free(codomain, memo):
                return f"({binder} : {_format(domain, memo)}) * {_format(codomain, memo)}"
            return f"{_format_operand(domain, memo)} * {_format(codomain, memo)}"
        case _:
            return _format_app(term, memo)


def _format_operand(term: Term, memo: dict) -> str:
    # Left operand of -> or *: binder-like forms would swallow the operator.
    match term:
        case Pi() | Sigma() | Lam() | Require() | Let():
            return f"({_format(term, memo)})"
        case _:
            return _format_app(term, memo)


def _format_app(term: Term, memo: dict) -> str:
    match term:
        case App(fun, arg):
            return f"{_format_app(fun, memo)} {_format_atom(arg, memo)}"
        case Fst(pair):
            return f"fst {_format_atom(pair, memo)}"
        case Snd(pair):
            return f"snd {_format_atom(pair, memo)}"
        case _:
            return _format_atom(term, memo)


def _format_atom(term: Term, memo: dict) -> str:
    match term:
        case Var(name) | Const(name):
            return name
        case Universe(level):
            return f"Set{level}"
        case Pair(first, second):
            return f"<{_format(first, memo)}, {_format(second, memo)}>"
        case _:
            return f"({_format(term, memo)})"
