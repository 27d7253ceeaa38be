"""Seeded input generators for the three workloads, with their oracles.

Every generator returns plain data (strings, counts, witness paths) built
from the structure it chose, never from the program under test, so the
benchmark can check the program's outputs against it.  This module imports
nothing from `presup`.

Oracles:
- a discourse's reading count is the product, over its presupposition
  slots, of the number of antecedents in scope at that slot;
- a definite description's witnesses are the projection paths of the one
  entity (and its noun proof) that the generator introduced for it;
- a `solve` goal's witness set is the set of projection paths, in the
  generated context, whose component type is the goal.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

NOUNS = ("man", "farmer", "donkey")
IVS = ("walked in", "sat down")
TVS = ("owns", "beats")
PRONOUNS = ("he", "it")

CONSTANT = {
    "man": "Man",
    "farmer": "Farmer",
    "donkey": "Donkey",
    "walked in": "WalkedIn",
    "sat down": "SatDown",
    "owns": "Owns",
    "beats": "Beats",
}

# The raised derivation cap of the library path: above the 720 readings of
# the longest pronoun chain.
MAX_DERIVATIONS = 10_000

# The fixed input of the one operation that fails today: `elaborate --max 1`
# builds every reading before truncating, so the 256-derivation cap fires.
FAILING_CHAIN = "A man walked in. He sat down. " * 6


def proj(path: str, term: str) -> str:
    """Apply a projection path such as "fst.snd" (innermost first) to term,
    in the concrete syntax `format_term` prints."""
    for step in path.split("."):
        term = f"{step} ({term})" if " " in term else f"{step} {term}"
    return term


# Entity and noun-proof paths inside the meaning of an introducing sentence:
# "A N VP."        = (x : E) * N x * VP x
# "A N1 TV a N2."  = (x : E) * N1 x * (x' : E) * N2 x' * TV x x'
_IV_PATHS = (("fst", "snd.fst"),)
_TV_PATHS = (("fst", "snd.fst"), ("snd.snd.fst", "snd.snd.snd.fst"))


@dataclass
class Entity:
    noun: str
    witness: str
    proof: str


@dataclass
class Discourse:
    """A generated discourse with what its readings must be."""

    sentences: list = field(default_factory=list)
    entities: list = field(default_factory=list)
    # One entry per presupposition slot, in textual order: the number of
    # antecedents in scope there.
    slot_choices: list = field(default_factory=list)
    # Expected witness trail (each require's witness, in derivation
    # pre-order) when every slot has exactly one antecedent; else None.
    trail: list | None = field(default_factory=list)

    @property
    def text(self) -> str:
        return " ".join(self.sentences)

    @property
    def readings(self) -> int:
        product = 1
        for choices in self.slot_choices:
            product *= choices
        return product

    def _binder(self) -> str:
        # interpret() names the sentence binders p, p', p'', ...
        return "p" + "'" * len(self.sentences)

    def _add(self, sentence: str, introduced=()) -> None:
        binder = self._binder()
        for noun, (witness, proof) in introduced:
            self.entities.append(Entity(noun, proj(witness, binder), proj(proof, binder)))
        self.sentences.append(sentence)

    def _pronoun(self, local: int = 0) -> None:
        self.slot_choices.append(len(self.entities) + local)
        self.trail = None

    def _definite(self, noun: str) -> None:
        matches = [e for e in self.entities if e.noun == noun]
        self.slot_choices.append(len(matches))
        if self.trail is not None and len(matches) == 1:
            self.trail += [matches[0].witness, matches[0].proof]
        else:
            self.trail = None

    # Sentence kinds ---------------------------------------------------------

    def intro_iv(self, noun: str, verb: str) -> None:
        self._add(f"A {noun} {verb}.", [(noun, _IV_PATHS[0])])

    def intro_tv(self, noun1: str, verb: str, noun2: str) -> None:
        self._add(
            f"A {noun1} {verb} a {noun2}.",
            [(noun1, _TV_PATHS[0]), (noun2, _TV_PATHS[1])],
        )

    def pron_iv(self, pronoun: str, verb: str) -> None:
        self._pronoun()
        self._add(f"{pronoun.capitalize()} {verb}.")

    def pron_tv(self, pronoun1: str, verb: str, pronoun2: str) -> None:
        self._pronoun()
        self._pronoun()
        self._add(f"{pronoun1.capitalize()} {verb} {pronoun2}.")

    def def_iv(self, noun: str, verb: str) -> None:
        self._definite(noun)
        self._add(f"The {noun} {verb}.")

    def def_tv(self, noun1: str, verb: str, noun2: str) -> None:
        self._definite(noun1)
        self._definite(noun2)
        self._add(f"The {noun1} {verb} the {noun2}.")

    def conditional(self, noun1, verb1, noun2, pronoun1, verb2, pronoun2) -> None:
        # Both pronouns see the discourse so far and the antecedent's two
        # entities, which are local to the conditional.
        self._pronoun(local=2)
        self._pronoun(local=2)
        self._add(f"If a {noun1} {verb1} a {noun2}, {pronoun1} {verb2} {pronoun2}.")

    def every_relative(self, noun1, verb1, noun2, verb2, pronoun) -> None:
        # The pronoun sees the discourse so far and the restrictor's two
        # entities.
        self._pronoun(local=2)
        self._add(f"Every {noun1} who {verb1} a {noun2} {verb2} {pronoun}.")


# ---------------------------------------------------------------------------
# readings_all


def _cycle(rng: random.Random, words: tuple, count: int) -> list:
    """count words, cycling through a seeded order of all of them, so that
    every seed uses each word about equally often (and the printed terms
    have the same total length)."""
    order = rng.sample(words, len(words))
    return [order[i % len(order)] for i in range(count)]


def pronoun_chain(rng: random.Random, k: int) -> Discourse:
    """ "A N walked in. He sat down." k times: k! readings."""
    d = Discourse()
    nouns, pronouns = _cycle(rng, NOUNS, k), _cycle(rng, PRONOUNS, k)
    verbs = _cycle(rng, IVS, 2 * k)
    for i in range(k):
        d.intro_iv(nouns[i], verbs[2 * i])
        d.pron_iv(pronouns[i], verbs[2 * i + 1])
    return d


def _tv(rng):
    return rng.choice(NOUNS), rng.choice(TVS), rng.choice(NOUNS)


def _pron_tv(rng):
    return rng.choice(PRONOUNS), rng.choice(TVS), rng.choice(PRONOUNS)


def _intros(rng: random.Random, d: Discourse, count: int) -> None:
    for _ in range(count):
        d.intro_iv(rng.choice(NOUNS), rng.choice(IVS))


def _conditional(rng: random.Random, prior: int) -> Discourse:
    d = Discourse()
    _intros(rng, d, prior)
    d.conditional(*_tv(rng), *_pron_tv(rng))
    return d


def _relative(rng: random.Random, prior: int) -> Discourse:
    d = Discourse()
    _intros(rng, d, prior)
    d.every_relative(*_tv(rng), rng.choice(TVS), rng.choice(PRONOUNS))
    return d


def _mixed(rng: random.Random, skeleton: str) -> Discourse:
    """A farmer/donkey/man discourse of a fixed skeleton: I = one-entity
    intro, T = two-entity intro, p = pronoun sentence, P = two-pronoun
    sentence, d = definite sentence, C = conditional."""
    d = Discourse()
    # With a definite, the three introduced entities have three different
    # nouns, so the definite has one antecedent whichever noun it names.
    nouns = iter(rng.sample(NOUNS, 3) if "d" in skeleton else [])
    for kind in skeleton:
        if kind == "I":
            d.intro_iv(next(nouns, None) or rng.choice(NOUNS), rng.choice(IVS))
        elif kind == "T":
            noun1, verb, noun2 = _tv(rng)
            d.intro_tv(next(nouns, noun1), verb, next(nouns, noun2))
        elif kind == "p":
            d.pron_iv(rng.choice(PRONOUNS), rng.choice(IVS))
        elif kind == "P":
            d.pron_tv(*_pron_tv(rng))
        elif kind == "d":
            d.def_iv(rng.choice([e.noun for e in d.entities]), rng.choice(IVS))
        elif kind == "C":
            d.conditional(*_tv(rng), *_pron_tv(rng))
    return d


# Fixed skeletons, so every seed gives the same reading counts.
_MIXED = ("TIPp", "ITdP", "TIPC")


def readings_all(seed: int) -> list:
    """The readings_all round, 17 discourses of 1 to 720 readings: pronoun
    chains x1..x6, donkey relatives after 0-2 introduced entities, donkey
    conditionals after 0-2 entities (three of them after one), and mixed
    discourses.

    Seven requests are cheaper and seven dearer than the three conditionals
    after one entity, so the median request of the round is one of three
    alike ones whatever the seed, and latency_p50_ms does not jump between
    requests of different sizes."""
    rng = random.Random(f"readings_all/{seed}")
    round_ = [pronoun_chain(rng, k) for k in range(1, 7)]
    round_ += [_relative(rng, prior) for prior in range(3)]
    round_ += [_conditional(rng, prior) for prior in (0, 1, 1, 1, 2)]
    round_ += [_mixed(rng, skeleton) for skeleton in _MIXED]
    rng.shuffle(round_)
    return round_


# ---------------------------------------------------------------------------
# definites_long

# (sentences, filler entities): at most 2 + 13 = 15 entities in scope, so the
# solver's 16-candidate cap never hides the antecedent.
DEFINITE_SHAPES = ((20, 4), (24, 3), (28, 3), (32, 2), (36, 2), (40, 2))


def long_definites(rng: random.Random, length: int, fillers: int) -> Discourse:
    """One two-entity opener, `fillers` one-entity intros of a third noun, then
    definite sentences about the two unique nouns."""
    unique1, unique2, filler = rng.sample(NOUNS, 3)
    d = Discourse()
    if rng.random() < 0.5:
        unique1, unique2 = unique2, unique1
    d.intro_tv(unique1, rng.choice(TVS), unique2)
    for _ in range(fillers):
        d.intro_iv(filler, rng.choice(IVS))
    # Transitive and intransitive sentences alternate, so every seed asks for
    # the same number of definites at the same positions.
    for position in range(length - 1 - fillers):
        first, second = rng.sample((unique1, unique2), 2)
        if position % 2 == 0:
            d.def_tv(first, rng.choice(TVS), second)
        else:
            d.def_iv(first, rng.choice(IVS))
    return d


def definites_long(seed: int) -> list:
    rng = random.Random(f"definites_long/{seed}")
    round_ = [long_definites(rng, length, fillers) for length, fillers in DEFINITE_SHAPES]
    rng.shuffle(round_)
    return round_


# ---------------------------------------------------------------------------
# cli_session


@dataclass
class SolveCase:
    """A wide context, and goals with many, one and no witnesses."""

    context_text: str
    goals: list  # (goal text, expected witness set)


# The shapes of the hypotheses h0, h1, ... in turn: one-entity pairs,
# two-entity nested pairs and relation facts between the newest and the
# third-newest entity.  Shapes, fact arguments and goal positions are fixed,
# so every seed asks the solver for the same amount of work; the seed picks
# the nouns and verbs.
_SHAPES = "pnpfnpnf"


def wide_context(rng: random.Random, size: int) -> SolveCase:
    """`size` hypotheses cycling through _SHAPES, and three goals: E (every
    entity), the middle relation fact (one witness), and a relation of an
    entity to itself (no witness: facts relate distinct entities)."""
    lines = []
    entities = []  # witness paths of type E
    facts = {}  # goal text -> witness paths proving it
    relations = []  # the relation facts, in order
    for i in range(size):
        name = f"h{i}"
        shape = _SHAPES[i % len(_SHAPES)]
        if shape == "p":
            noun, verb = CONSTANT[rng.choice(NOUNS)], CONSTANT[rng.choice(IVS)]
            lines.append(f"{name} : (x : E) * {noun} x * {verb} x")
            entity = proj("fst", name)
            entities.append(entity)
            facts.setdefault(f"{noun} ({entity})", []).append(proj("snd.fst", name))
            facts.setdefault(f"{verb} ({entity})", []).append(proj("snd.snd", name))
        elif shape == "n":
            noun1, verb, noun2 = (CONSTANT[w] for w in _tv(rng))
            lines.append(f"{name} : (x : E) * {noun1} x * (y : E) * {noun2} y * {verb} x y")
            first, second = proj("fst", name), proj("snd.snd.fst", name)
            entities += [first, second]
            facts.setdefault(f"{noun1} ({first})", []).append(proj("snd.fst", name))
            facts.setdefault(f"{noun2} ({second})", []).append(proj("snd.snd.snd.fst", name))
            facts.setdefault(f"{verb} ({first}) ({second})", []).append(
                proj("snd.snd.snd.snd", name)
            )
        else:
            verb = CONSTANT[rng.choice(TVS)]
            fact = f"{verb} ({entities[-1]}) ({entities[-3]})"
            lines.append(f"{name} : {fact}")
            facts.setdefault(fact, []).append(name)
            relations.append(fact)
    one = relations[len(relations) // 2]
    middle = entities[len(entities) // 2]
    absent = f"{CONSTANT[rng.choice(TVS)]} ({middle}) ({middle})"
    assert len(facts[one]) == 1 and absent not in facts
    goals = [("E", set(entities)), (one, set(facts[one])), (absent, set())]
    return SolveCase("\n".join(lines) + "\n", goals)


CONTEXT_SIZES = (16, 32, 64, 128)

# The paper's examples, and one discourse with two definites.
PAPER_EXAMPLES = (
    "A man walked in. He sat down.",
    "A man walked in. The man (then) sat down.",
    "If a farmer owns a donkey, he beats it.",
    "Every farmer who owns a donkey beats it.",
    "A farmer owns a donkey. The farmer beats the donkey.",
)

# The first two examples elaborated: the pronoun and the definite both
# become fst p.
GOLDEN_FIRST = "(p : (x : E) * Man x * WalkedIn x) * SatDown (fst p)"


def paper_example(text: str) -> Discourse:
    """The paper examples as generator discourses, for their oracles."""
    d = Discourse()
    if text == PAPER_EXAMPLES[0]:
        d.intro_iv("man", "walked in")
        d.pron_iv("he", "sat down")
    elif text == PAPER_EXAMPLES[1]:
        d.intro_iv("man", "walked in")
        d.def_iv("man", "sat down")
        d.sentences[-1] = "The man (then) sat down."
    elif text == PAPER_EXAMPLES[2]:
        d.conditional("farmer", "owns", "donkey", "he", "beats", "it")
    elif text == PAPER_EXAMPLES[3]:
        d.every_relative("farmer", "owns", "donkey", "beats", "it")
    else:
        d.intro_tv("farmer", "owns", "donkey")
        d.def_tv("farmer", "beats", "donkey")
    assert d.text == text
    return d


def check_json_discourses(rng: random.Random) -> list:
    """Discourses whose meanings have 6 to 24 derivations."""
    return [
        pronoun_chain(rng, 3),  # 6
        _conditional(rng, 1),  # 9
        _conditional(rng, 2),  # 16
        pronoun_chain(rng, 4),  # 24
    ]


def cli_session(seed: int):
    """The cli_session inputs: wide solver contexts, discourses for
    `check --json`, and the paper examples."""
    rng = random.Random(f"cli_session/{seed}")
    contexts = [wide_context(rng, size) for size in CONTEXT_SIZES]
    return contexts, check_json_discourses(rng), [paper_example(t) for t in PAPER_EXAMPLES]


# ---------------------------------------------------------------------------
# An alpha-equivalence key made apart from the program's own.


def debruijn(term):
    """A hashable key of a presup term, equal exactly for alpha-equivalent
    terms.  Walks the term dataclasses by field name."""
    return _db(term, ())


_BINDERS = {"Pi": ("domain",), "Sigma": ("domain",), "Lam": (), "Require": ("goal_type",), "Let": ("annot", "value")}
_SCOPES = {"Pi": "codomain", "Sigma": "codomain", "Lam": "body", "Require": "body", "Let": "body"}


def _db(term, bound: tuple):
    kind = type(term).__name__
    if kind == "Var":
        if term.name in bound:
            return ("b", len(bound) - 1 - bound[::-1].index(term.name))
        return ("v", term.name)
    if kind == "Const":
        return ("c", term.name)
    if kind == "Universe":
        return ("u", term.level)
    if kind in _BINDERS:
        outside = tuple(_db(getattr(term, f), bound) for f in _BINDERS[kind])
        return (kind, outside, _db(getattr(term, _SCOPES[kind]), bound + (term.binder,)))
    if kind == "App":
        return (kind, _db(term.fun, bound), _db(term.arg, bound))
    if kind == "Pair":
        return (kind, _db(term.first, bound), _db(term.second, bound))
    if kind in ("Fst", "Snd"):
        return (kind, _db(term.pair, bound))
    raise TypeError(f"not a term: {term!r}")


def mentions_require(term) -> bool:
    """True if a Require node occurs anywhere in term."""
    stack = [term]
    while stack:
        node = stack.pop()
        if type(node).__name__ == "Require":
            return True
        for name in node.__dataclass_fields__:
            value = getattr(node, name)
            if hasattr(value, "__dataclass_fields__"):
                stack.append(value)
    return False
