"""The base signature of lexical constants and the meanings of the closed
vocabulary.

Entities inhabit the constant type E; common nouns and verb phrases are
predicates E -> Set0, transitive verbs E -> E -> Set0.  Indefinites and
universals are generalized quantifiers over such predicates; the definite
determiner and the pronouns presuppose their referent with a require node,
so they only acquire a value once a discourse context supplies a witness.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

from .derivations import CheckConfig
from .syntax import (
    App,
    Const,
    Context,
    Fst,
    Lam,
    Pi,
    Require,
    Sigma,
    Signature,
    Term,
    Universe,
    Var,
    contains_require,
    free_vars,
)
from .typecheck import check_all, check_signature

SET0 = Universe(0)
ENTITY = Const("E")

_PREDICATE = Pi("_", ENTITY, SET0)
_RELATION = Pi("_", ENTITY, Pi("_", ENTITY, SET0))


@functools.cache
def base_signature() -> Signature:
    """E, then the content words' constants at their types, in the order of
    their lexical entries; built and checked once per process, on the first
    call."""
    content = [(lex.meaning.name, lex.meaning_type) for lex in _ENTRIES.values()
               if isinstance(lex.meaning, Const)]
    sig = Signature((("E", SET0), *content))
    check_signature(sig)
    return sig


class UnknownWord(Exception):
    def __init__(self, word: str):
        super().__init__(f"unknown word: {word}")
        self.word = word


@dataclass(frozen=True)
class LexEntry:
    surface: str
    category: str
    meaning: Term
    meaning_type: Term


_P = Var("P")
_Q = Var("Q")
_X = Var("x")

# a P Q = (x : E) * (P x * Q x): some P that Q's, with the witness available
# to later discourse by projection.
_A = Lam(
    "P",
    Lam("Q", Sigma("x", ENTITY, Sigma("_", App(_P, _X), App(_Q, _X)))),
)

# every P Q = (p : (x : E) * P x) -> Q (fst p): any P, together with the
# evidence that it is one, Q's.
_EVERY = Lam(
    "P",
    Lam(
        "Q",
        Pi("p", Sigma("x", ENTITY, App(_P, _X)), App(_Q, Fst(Var("p")))),
    ),
)

# the P: presuppose an entity and a proof that it is a P, and refer to it.
_THE = Lam("P", Require("x", ENTITY, Require("q", App(_P, _X), _X)))

# he / it: presuppose an entity and refer to it.
_PRONOUN = Require("x", ENTITY, _X)

# if P Q = (p : P) -> Q: any way P holds gives Q, with the evidence in scope.
_IF = Lam("P", Lam("Q", Pi("p", _P, _Q)))

# who P Q = \x. P x * Q x: intersective relative clause.
_WHO = Lam("P", Lam("Q", Lam("x", Sigma("_", App(_P, _X), App(_Q, _X)))))

_QUANTIFIER_TYPE = Pi("P", _PREDICATE, Pi("Q", _PREDICATE, SET0))
_CONNECTIVE_TYPE = Pi("P", SET0, Pi("Q", SET0, SET0))
_RELATIVIZER_TYPE = Pi("P", _PREDICATE, Pi("Q", _PREDICATE, _PREDICATE))
_THE_TYPE = Pi("P", _PREDICATE, ENTITY)


def _content(surface: str, category: str, constant: str, meaning_type: Term) -> LexEntry:
    return LexEntry(surface, category, Const(constant), meaning_type)


_ENTRIES = {
    entry.surface: entry
    for entry in (
        LexEntry("a", "Det", _A, _QUANTIFIER_TYPE),
        LexEntry("the", "Det", _THE, _THE_TYPE),
        LexEntry("every", "Det", _EVERY, _QUANTIFIER_TYPE),
        LexEntry("if", "Cond", _IF, _CONNECTIVE_TYPE),
        LexEntry("he", "Pron", _PRONOUN, ENTITY),
        LexEntry("it", "Pron", _PRONOUN, ENTITY),
        LexEntry("who", "Rel", _WHO, _RELATIVIZER_TYPE),
        # The content words, in the base signature's order.
        _content("man", "N", "Man", _PREDICATE),
        _content("walked in", "VP", "WalkedIn", _PREDICATE),
        _content("sat down", "VP", "SatDown", _PREDICATE),
        _content("farmer", "N", "Farmer", _PREDICATE),
        _content("donkey", "N", "Donkey", _PREDICATE),
        _content("owns", "TV", "Owns", _RELATION),
        _content("beats", "TV", "Beats", _RELATION),
    )
}


def entry(word: str) -> LexEntry:
    """The lexical entry for a word of the closed vocabulary."""
    found = _ENTRIES.get(word.lower())
    if found is None:
        raise UnknownWord(word)
    return found


def surfaces(category: str) -> frozenset[str]:
    """All surface forms of a given category."""
    return frozenset(e.surface for e in _ENTRIES.values() if e.category == category)


def explicit_the() -> Term:
    """The definite determiner with its referent and property witness passed
    as explicit arguments instead of presupposed: \\P. \\x. \\q. x.

    Applying it to a predicate, an entity, and a proof beta-reduces to the
    entity; the presuppositional entry packages the same behavior behind
    require nodes.
    """
    return Lam("P", Lam("x", Lam("q", _X)))


def validate_entries(cfg: CheckConfig | None = None) -> None:
    """Check the lexicon against the base signature.

    Entries without presuppositions must check at their declared type in the
    empty context.  Presuppositional entries (the pronouns and the definite
    determiner) cannot: their whole point is that they lack a value until a
    context supplies a witness, so for them only closedness and the declared
    type's well-formedness are checked here.
    """
    sig = base_signature()
    check_signature(sig, cfg)
    for lex in _ENTRIES.values():
        if free_vars(lex.meaning):
            raise ValueError(f"lexical entry {lex.surface!r} is not closed")
        if contains_require(lex.meaning):
            check_all(sig, Context(), lex.meaning_type, _universe_of(lex), cfg)
        else:
            check_all(sig, Context(), lex.meaning, lex.meaning_type, cfg)


def _universe_of(lex: LexEntry) -> Term:
    # Declared types of presuppositional entries live at these levels.
    return SET0 if lex.meaning_type == ENTITY else Universe(1)
