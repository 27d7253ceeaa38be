"""Core term syntax: terms, telescopes, and the syntactic operations.

Terms are immutable trees identified up to renaming of bound variables; every
operation defined here is insensitive to the choice of bound names.  Binders
(in function and pair types, lambdas, presupposition requirements and lets)
scope over the final subterm only, never over domains or annotations.
"""

from __future__ import annotations

from dataclasses import dataclass


class Term:
    """Base class for all syntax nodes.

    The one slot outside the dataclass fields, _fv, holds the term's
    free-variable set once free_vars has computed it; it takes no part in
    equality, hashing or repr.
    """

    __slots__ = ("_fv",)

    def __str__(self) -> str:
        return format_term(self)


@dataclass(frozen=True, slots=True)
class Var(Term):
    """A variable: either bound by an enclosing binder or a local hypothesis."""

    name: str


@dataclass(frozen=True, slots=True)
class Const(Term):
    """A name declared in the ambient signature (a lexical constant)."""

    name: str


@dataclass(frozen=True, slots=True)
class Universe(Term):
    """The type of types at the given level, written Set0, Set1, ..."""

    level: int


@dataclass(frozen=True, slots=True)
class Pi(Term):
    """Dependent function type, written (binder : domain) -> codomain."""

    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True, slots=True)
class Lam(Term):
    """Function literal, written \\binder. body.  Unannotated: checked, never inferred."""

    binder: str
    body: Term


@dataclass(frozen=True, slots=True)
class App(Term):
    fun: Term
    arg: Term


@dataclass(frozen=True, slots=True)
class Sigma(Term):
    """Dependent pair type, written (binder : domain) * codomain."""

    binder: str
    domain: Term
    codomain: Term


@dataclass(frozen=True, slots=True)
class Pair(Term):
    first: Term
    second: Term


@dataclass(frozen=True, slots=True)
class Fst(Term):
    pair: Term


@dataclass(frozen=True, slots=True)
class Snd(Term):
    pair: Term


@dataclass(frozen=True, slots=True)
class Require(Term):
    """Presupposition: find some witness of goal_type and bind it in body.

    Does not reduce on its own; it is discharged by the solver and removed by
    elaboration.
    """

    binder: str
    goal_type: Term
    body: Term


@dataclass(frozen=True, slots=True)
class Let(Term):
    """Local definition with a type annotation: let binder : annot = value in body."""

    binder: str
    annot: Term
    value: Term
    body: Term


_NO_VARS: frozenset[str] = frozenset()


def free_vars(term: Term) -> frozenset[str]:
    """The set of variable names occurring free in term.

    Constants never count as free variables; binders remove their name from
    their scope only.  Each node computes its set once and keeps it in its
    _fv slot, so shared subterms are never walked twice.
    """
    try:
        return term._fv
    except AttributeError:
        pass
    match term:
        case Var(name):
            result = frozenset((name,))
        case Const() | Universe():
            result = _NO_VARS
        case App(fun, arg):
            result = _union(free_vars(fun), free_vars(arg))
        case Pair(first, second):
            result = _union(free_vars(first), free_vars(second))
        case Fst(pair) | Snd(pair):
            result = free_vars(pair)
        case Pi(binder, domain, codomain) | Sigma(binder, domain, codomain):
            result = _union(free_vars(domain), _without(free_vars(codomain), binder))
        case Lam(binder, body):
            result = _without(free_vars(body), binder)
        case Require(binder, goal_type, body):
            result = _union(free_vars(goal_type), _without(free_vars(body), binder))
        case Let(binder, annot, value, body):
            result = _union(
                _union(free_vars(annot), free_vars(value)),
                _without(free_vars(body), binder),
            )
        case _:
            raise TypeError(f"not a term: {term!r}")
    object.__setattr__(term, "_fv", result)
    return result


def _union(a: frozenset, b: frozenset) -> frozenset:
    # Reuse an operand when the union equals it, so nested terms share sets.
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(names: frozenset, name: str) -> frozenset:
    return names - {name} if name in names else names


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
class Telescope:
    """Ordered telescope of named entries, each typed under the preceding
    prefix.  A judgment is typed against two of them: the signature of
    lexical constants, whose types check in the empty context, and the
    context of local hypotheses, whose names are also fresh for the
    signature.  Names are pairwise distinct (all validated by the
    typechecker, not on construction)."""

    entries: tuple = ()

    def lookup(self, name: str):
        for entry_name, entry_type in self.entries:
            if entry_name == name:
                return entry_type
        return None

    def extend(self, name: str, entry_type: Term) -> "Telescope":
        return Telescope(self.entries + ((name, entry_type),))

    @property
    def names(self) -> frozenset[str]:
        return frozenset(name for name, _ in self.entries)


# The two roles a telescope plays in a judgment.
Signature = Context = Telescope


def format_term(term: Term) -> str:
    """Render a term in the concrete syntax with minimal parentheses.

    Parsing the result gives back an alpha-equal term.  Non-dependent function
    and pair types print as A -> B and A * B; both extend maximally to the
    right, as do all binders.
    """
    match term:
        case Lam(binder, body):
            return f"\\{binder}. {format_term(body)}"
        case Require(binder, goal_type, body):
            return f"require {binder} : {format_term(goal_type)} in {format_term(body)}"
        case Let(binder, annot, value, body):
            return (
                f"let {binder} : {format_term(annot)} = {format_term(value)}"
                f" in {format_term(body)}"
            )
        case Pi(binder, domain, codomain):
            if binder in free_vars(codomain):
                return f"({binder} : {format_term(domain)}) -> {format_term(codomain)}"
            return f"{_format_operand(domain)} -> {format_term(codomain)}"
        case Sigma(binder, domain, codomain):
            if binder in free_vars(codomain):
                return f"({binder} : {format_term(domain)}) * {format_term(codomain)}"
            return f"{_format_operand(domain)} * {format_term(codomain)}"
        case _:
            return _format_app(term)


def _format_operand(term: Term) -> str:
    # Left operand of -> or *: binder-like forms would swallow the operator.
    match term:
        case Pi() | Sigma() | Lam() | Require() | Let():
            return f"({format_term(term)})"
        case _:
            return _format_app(term)


def _format_app(term: Term) -> str:
    match term:
        case App(fun, arg):
            return f"{_format_app(fun)} {_format_atom(arg)}"
        case Fst(pair):
            return f"fst {_format_atom(pair)}"
        case Snd(pair):
            return f"snd {_format_atom(pair)}"
        case _:
            return _format_atom(term)


def _format_atom(term: Term) -> str:
    match term:
        case Var(name) | Const(name):
            return name
        case Universe(level):
            return f"Set{level}"
        case Pair(first, second):
            return f"<{format_term(first)}, {format_term(second)}>"
        case _:
            return f"({format_term(term)})"
