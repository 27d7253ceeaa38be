"""Core term syntax: terms, telescopes, and the syntactic operations.

Terms are immutable trees identified up to renaming of bound variables; every
operation defined here is insensitive to the choice of bound names.  Binders
(in function and pair types, lambdas, presupposition requirements and lets)
scope over the final subterm only, never over domains or annotations.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property


class Term:
    """Base class for all syntax nodes.

    The slots outside the dataclass fields keep results computed on the
    term: _fv, its free-variable set (free_vars); _ak, its alpha key
    (alpha_key); _sub, the last substitution into it as (var, value,
    result) (substitute); and _text, False once the term has been printed
    and its text from its second print on (format_term).  None of them
    takes part in construction, equality, hashing or repr.
    """

    __slots__ = ("_fv", "_ak", "_sub", "_text")

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


# The nine composite constructors, with the tag alpha_key gives each, the
# term fields outside any binder's scope, and the field a binding form's
# binder scopes over (None for the rest).  Fields are in constructor order:
# a binding form's first field is its binder, a name, and its scope is its
# last field.  The term walkers below and evaluator.normalize's congruence
# rule read the binding structure from here; Var, Const and Universe, the
# leaves, are each walker's explicit cases.
_SHAPES = {
    Pi: ("pi", ("domain",), "codomain"),
    Sigma: ("sigma", ("domain",), "codomain"),
    Lam: ("lam", (), "body"),
    Require: ("require", ("goal_type",), "body"),
    Let: ("let", ("annot", "value"), "body"),
    App: ("app", ("fun", "arg"), None),
    Pair: ("pair", ("first", "second"), None),
    Fst: ("fst", ("pair",), None),
    Snd: ("snd", ("pair",), None),
}


def _shape(term) -> tuple:
    """The table row of a composite term; TypeError on anything else."""
    shape = _SHAPES.get(type(term))
    if shape is None:
        raise TypeError(f"not a term: {term!r}")
    return shape


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
        case _:
            _, fields, scope = _shape(term)
            result = None
            for field in fields:
                names = free_vars(getattr(term, field))
                result = names if result is None else _union(result, names)
            if scope is not None:
                names = _without(free_vars(getattr(term, scope)), term.binder)
                result = names if result is None else _union(result, names)
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
    would trap a free variable of value.  A composite body keeps its last
    substitution, which answers a repeated one with the same var and an
    identical or equal value.
    """
    if isinstance(body, (Var, Const, Universe)):
        return _substitute(body, var, value)
    memo = getattr(body, "_sub", None)
    if memo is not None and memo[0] == var and (memo[1] is value or memo[1] == value):
        return memo[2]
    result = _substitute(body, var, value)
    object.__setattr__(body, "_sub", (var, value, result))
    return result


def _substitute(body: Term, var: str, value: Term) -> Term:
    match body:
        case Var(name):
            return value if name == var else body
        case Const() | Universe():
            return body
    _, fields, scope = _shape(body)
    args = []
    for field in fields:
        args.append(_substitute(getattr(body, field), var, value))
    if scope is None:
        return type(body)(*args)
    binder, inner = body.binder, getattr(body, scope)
    if binder != var:
        if binder in free_vars(value) and var in free_vars(inner):
            renamed = fresh_name(binder, free_vars(value) | free_vars(inner))
            inner = _substitute(inner, binder, Var(renamed))
            binder = renamed
        inner = _substitute(inner, var, value)
    return type(body)(binder, *args, inner)


def alpha_key(term: Term):
    """A hashable key equal exactly for alpha-equivalent terms.

    Bound variables are replaced by their binder depth, so the key is
    independent of bound names; free variables and constants keep theirs.
    Each term keeps its key in its _ak slot once computed.
    """
    key = getattr(term, "_ak", None)
    if key is None:
        key = _key(term, {}, 0)
        object.__setattr__(term, "_ak", key)
    return key


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
    tag, fields, scope = _shape(term)
    key = [tag]
    for field in fields:
        key.append(_key(getattr(term, field), bound, depth))
    if scope is not None:
        key.append(_key(getattr(term, scope), {**bound, term.binder: depth}, depth + 1))
    return tuple(key)


def alpha_eq(a: Term, b: Term) -> bool:
    """True iff a and b are identical up to renaming of bound variables.

    Structurally equal terms are alpha-equivalent, and `==` on the frozen
    dataclasses compares fields identity-first, so terms that share most of
    their structure are settled without building either key.
    """
    return a is b or a == b or alpha_key(a) == alpha_key(b)


def contains_require(term: Term) -> bool:
    """True iff a presupposition node occurs anywhere in term."""
    match term:
        case Var() | Const() | Universe():
            return False
        case Require():
            return True
        # The shapes of a typical presupposition goal, walked without _shape.
        case App(fun, arg):
            return contains_require(fun) or contains_require(arg)
        case Fst(pair) | Snd(pair):
            return contains_require(pair)
    _, fields, scope = _shape(term)
    for field in fields:
        if contains_require(getattr(term, field)):
            return True
    return scope is not None and contains_require(getattr(term, scope))


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
        return self._types.get(name)

    def extend(self, name: str, entry_type: Term) -> "Telescope":
        return Telescope(self.entries + ((name, entry_type),))

    # Built on first use and kept in the instance dict, out of the dataclass
    # fields, so ==, hash and repr see the entries only.
    @cached_property
    def _types(self) -> dict:
        # Reversed, so the first entry of a repeated name wins, as a left
        # scan would find it.
        return dict(reversed(self.entries))

    # The distinct names: a view of the lookup table's keys, not a copy.
    @property
    def names(self):
        return self._types.keys()


# The two roles a telescope plays in a judgment.
Signature = Context = Telescope


def format_term(term: Term) -> str:
    """Render a term in the concrete syntax with minimal parentheses.

    Parsing the result gives back an alpha-equal term.  Non-dependent function
    and pair types print as A -> B and A * B; both extend maximally to the
    right, as do all binders.

    A composite term is marked on its first print and keeps its text in its
    _text slot from its second print on, so a subterm shared by many printed
    terms is rendered twice at most, while a term printed once (such as a
    long discourse's single reading) keeps marks only.
    """
    text = getattr(term, "_text", None)
    if text:
        return text
    match term:
        case Var(name) | Const(name):
            return name
        case Universe(level):
            return f"Set{level}"
        case Lam(binder, body):
            rendered = f"\\{binder}. {format_term(body)}"
        case Require(binder, goal_type, body):
            rendered = f"require {binder} : {format_term(goal_type)} in {format_term(body)}"
        case Let(binder, annot, value, body):
            rendered = (
                f"let {binder} : {format_term(annot)} = {format_term(value)}"
                f" in {format_term(body)}"
            )
        case Pi(binder, domain, codomain):
            if binder in free_vars(codomain):
                rendered = f"({binder} : {format_term(domain)}) -> {format_term(codomain)}"
            else:
                rendered = f"{_format_operand(domain)} -> {format_term(codomain)}"
        case Sigma(binder, domain, codomain):
            if binder in free_vars(codomain):
                rendered = f"({binder} : {format_term(domain)}) * {format_term(codomain)}"
            else:
                rendered = f"{_format_operand(domain)} * {format_term(codomain)}"
        case App(fun, arg):
            rendered = f"{_format_operand(fun)} {_format_atom(arg)}"
        case Fst(pair):
            rendered = f"fst {_format_atom(pair)}"
        case Snd(pair):
            rendered = f"snd {_format_atom(pair)}"
        case Pair(first, second):
            rendered = f"<{format_term(first)}, {format_term(second)}>"
        case _:
            raise TypeError(f"not a term: {term!r}")
    object.__setattr__(term, "_text", rendered if text is False else False)
    return rendered


def _format_operand(term: Term) -> str:
    # Left operand of -> or * and the function of an application: a binding
    # form would swallow what follows it.
    if isinstance(term, (Pi, Sigma, Lam, Require, Let)):
        return f"({format_term(term)})"
    return format_term(term)


def _format_atom(term: Term) -> str:
    # Argument of an application or a projection.
    if isinstance(term, (Var, Const, Universe, Pair)):
        return format_term(term)
    return f"({format_term(term)})"
