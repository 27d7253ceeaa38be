"""Concrete syntax for terms and for the controlled-English fragment.

The term grammar: `Set0`, `Set1`, ... (`Set` alone means `Set0`); `(x : A) -> B`
and `(x : A) * B` with the non-dependent sugar `A -> B` / `A * B`; `\\x. M`;
application by juxtaposition (left-associative); `<M, N>`; `fst M`; `snd M`;
`require x : A in M`; `let x : A = M in N`; parentheses for grouping.  Binders
and both type operators extend maximally to the right.

Identifiers bound by an enclosing binder parse as variables; free identifiers
parse as constants when they name something in the signature (by default the
base lexicon) and as variables otherwise, so hypothesis names in open terms
come out as variables.

The English fragment covers exactly the closed vocabulary: simple sentences
with an optional object, `if S, S` conditionals, and `who`-relative clauses.
"""

from __future__ import annotations

import re
import sys
from dataclasses import dataclass

from . import lexicon
from .evaluator import normalize
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
    Telescope,
    Term,
    Universe,
    Var,
)
from .lexicon import UnknownWord


class ParseError(Exception):
    def __init__(self, position: int, expected: str):
        super().__init__(f"at position {position}: expected {expected}")
        self.position = position
        self.expected = expected


# Every position matches: a token, the end of the text, or a stray
# character, which takes the rest of the text with it.  Universe names (Set
# alone is Set0) and the reserved words are their own kinds, as whole words
# only; they never name a variable or a constant.
_TOKEN = re.compile(
    r"\s*(?:(?P<punct>->|[()\\.:*<>,=])"
    r"|(?:(?P<universe>Set[0-9]*)|(?P<keyword>fst|snd|require|let|in))(?![A-Za-z0-9_'])"
    r"|(?P<ident>[A-Za-z_][A-Za-z0-9_']*)|(?P<eof>\Z)|(?P<stray>.).*)",
    re.DOTALL,
)

# A punctuation token's kind, and the reserved words, each its own kind.
_KINDS = {
    "->": "arrow", "(": "lparen", ")": "rparen", "\\": "lambda", ".": "dot", ":": "colon",
    "*": "star", "<": "langle", ">": "rangle", ",": "comma", "=": "equals",
    **{word: word for word in ("fst", "snd", "require", "let", "in")},
}


def _tokenize(text: str) -> list:
    """(kind, text, position) for each token, then one or two eof tokens."""
    tokens = []
    for match in _TOKEN.finditer(text):
        group = match.lastgroup
        value = match[group]
        tokens.append((_KINDS.get(value, group), value, match.start(group)))
    kind, value, start = tokens[-2] if len(tokens) > 1 else tokens[-1]
    if kind == "stray":
        raise ParseError(start, f"a token (found {value!r})")
    return tokens


_ARGUMENT_START = frozenset(("ident", "universe", "lparen", "langle", "fst", "snd"))


class _TermParser:
    def __init__(self, text: str, constants: frozenset):
        tokens = _tokenize(text)
        # Two more eof tokens, so that peek(2) stays inside the list.  The
        # parser stops at the first eof it takes: it is an error or the end.
        self.tokens = tokens + tokens[-1:] * 2
        self.index = 0
        self.constants = constants

    def peek(self, offset: int = 0):
        return self.tokens[self.index + offset]

    def advance(self):
        self.index += 1
        return self.tokens[self.index - 1]

    def expect(self, kind: str, what: str):
        token = self.advance()
        if token[0] != kind:
            raise ParseError(token[2], what)
        return token

    def term(self, bound: frozenset) -> Term:
        kind = self.tokens[self.index][0]
        if kind == "lambda":
            self.advance()
            binder = self.expect("ident", "a binder name")[1]
            self.expect("dot", "'.' after the binder")
            return Lam(binder, self.term(bound | {binder}))
        if kind == "require":
            self.advance()
            binder = self.expect("ident", "a binder name")[1]
            self.expect("colon", "':' after the binder")
            goal = self.term(bound)
            self.expect("in", "'in' after the goal type")
            return Require(binder, goal, self.term(bound | {binder}))
        if kind == "let":
            self.advance()
            binder = self.expect("ident", "a binder name")[1]
            self.expect("colon", "':' after the binder")
            annot = self.term(bound)
            self.expect("equals", "'=' after the annotation")
            value = self.term(bound)
            self.expect("in", "'in' after the definition")
            return Let(binder, annot, value, self.term(bound | {binder}))
        if kind == "lparen" and self.peek(1)[0] == "ident" and self.peek(2)[0] == "colon":
            self.advance()
            binder = self.advance()[1]
            self.advance()
            domain = self.term(bound)
            self.expect("rparen", "')' after the binder type")
            op = self.advance()
            if op[0] == "arrow":
                return Pi(binder, domain, self.term(bound | {binder}))
            if op[0] == "star":
                return Sigma(binder, domain, self.term(bound | {binder}))
            raise ParseError(op[2], "'->' or '*' after a binder")
        left = self.application(bound)
        kind = self.tokens[self.index][0]
        if kind == "arrow":
            self.advance()
            return Pi("_", left, self.term(bound | {"_"}))
        if kind == "star":
            self.advance()
            return Sigma("_", left, self.term(bound | {"_"}))
        return left

    def application(self, bound: frozenset) -> Term:
        term = self.head(bound)
        while self.tokens[self.index][0] in _ARGUMENT_START:
            term = App(term, self.head(bound))
        return term

    def head(self, bound: frozenset) -> Term:
        kind, value, pos = self.advance()
        if kind == "ident":
            return Var(value) if value in bound or value not in self.constants else Const(value)
        if kind == "fst":
            return Fst(self.head(bound))
        if kind == "snd":
            return Snd(self.head(bound))
        if kind == "universe":
            digits = value[3:] or "0"
            # int() and str() convert at most `limit` digits, leading zeros
            # included.  The level's type, the level above it, is printed too,
            # and it has one digit more when every digit is a 9.
            limit = sys.get_int_max_str_digits()
            if limit and len(digits) + (set(digits) == {"9"}) > limit:
                raise ParseError(pos, f"a universe level of at most {limit} digits, its successor too")
            return Universe(int(digits))
        if kind == "langle":
            first = self.term(bound)
            self.expect("comma", "',' between pair components")
            second = self.term(bound)
            self.expect("rangle", "'>' closing the pair")
            return Pair(first, second)
        if kind == "lparen":
            term = self.term(bound)
            self.expect("rparen", "')'")
            return term
        raise ParseError(pos, "a term")


def parse_term(text: str, constants: frozenset | None = None) -> Term:
    """Parse the concrete term syntax.

    Free identifiers in `constants` (default: the base signature's names)
    become constants; everything else is a variable.
    """
    if constants is None:
        constants = lexicon.base_signature().names
    parser = _TermParser(text, constants)
    term = parser.term(frozenset())
    end = parser.advance()
    if end[0] != "eof":
        raise ParseError(end[2], "end of input")
    return term


def parse_signature_text(text: str, base: Signature | None = None) -> Signature:
    """Parse `name : type` lines, appending to the base signature.

    Later lines may use earlier names as constants.  Blank lines and lines
    starting with '#' are skipped.  Validation is the typechecker's job.
    """
    return _parse_entries(text, base if base is not None else lexicon.base_signature(), None)


def parse_context_text(text: str, sig: Signature) -> Context:
    """Parse `name : type` lines as local hypotheses under sig."""
    return _parse_entries(text, Context(), sig.names)


def _parse_entries(text: str, telescope: Telescope, constants: frozenset | None) -> Telescope:
    # Free identifiers in constants parse as constants; None means the
    # telescope's own names so far.
    for line in text.splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            known = telescope.names if constants is None else constants
            telescope = telescope.extend(*_parse_entry_line(line, known))
    return telescope


_ENTRY = re.compile(r"([A-Za-z_][A-Za-z0-9_']*)\s*:\s*(.+)")


def _parse_entry_line(line: str, constants: frozenset):
    match = _ENTRY.fullmatch(line)
    if match is None or _TOKEN.match(match.group(1)).lastgroup != "ident":
        raise ParseError(0, f"'name : type' (got {line!r})")
    return match.group(1), parse_term(match.group(2), constants)


# ---------------------------------------------------------------------------
# Controlled English


@dataclass(frozen=True)
class PronNP:
    word: str


@dataclass(frozen=True)
class RelClause:
    verb: str
    obj: "DetNP | PronNP"


@dataclass(frozen=True)
class DetNP:
    det: str
    noun: str
    rel: RelClause | None = None


@dataclass(frozen=True)
class Simple:
    subject: "DetNP | PronNP"
    verb: str
    obj: "DetNP | PronNP | None" = None


@dataclass(frozen=True)
class Conditional:
    antecedent: Simple
    consequent: Simple


@dataclass(frozen=True)
class DiscourseTree:
    sentences: tuple


_FILLER = re.compile(r"\(\s*then\s*\)", re.IGNORECASE)
_WORD = re.compile(r"[a-z']+|,")
# Outside the alphabet: what _WORD, the periods and the spacing do not cover.
_STRAY = re.compile(r"[^a-z',.\s]")


def _words(sentence: str) -> list:
    """Lexemes of one sentence, greedily merging multiword verbs."""
    raw = _WORD.findall(sentence)
    words = []
    i = 0
    while i < len(raw):
        if i + 1 < len(raw) and f"{raw[i]} {raw[i + 1]}" in _TWO_WORD:
            words.append(f"{raw[i]} {raw[i + 1]}")
            i += 2
        else:
            words.append(raw[i])
            i += 1
    return words


class _SentenceParser:
    def __init__(self, words: list, position: int):
        self.words = words
        self.index = 0
        self.position = position

    def peek(self):
        return self.words[self.index] if self.index < len(self.words) else None

    def take(self, what: str) -> str:
        word = self.peek()
        if word is None:
            raise ParseError(self.position, what)
        self.index += 1
        return word

    def sentence(self):
        if self.peek() == "if":
            self.index += 1
            antecedent = self.simple(stop_at_comma=True)
            if self.peek() != ",":
                raise ParseError(self.position, "',' after the antecedent")
            self.index += 1
            consequent = self.simple()
            return Conditional(antecedent, consequent)
        return self.simple()

    def simple(self, stop_at_comma: bool = False) -> Simple:
        subject = self.np()
        verb = self.take("a verb")
        if verb in _IV:
            return Simple(subject, verb)
        if verb not in _TV:
            raise ParseError(self.position, f"a verb (got {verb!r})")
        obj = self.np()
        sentence = Simple(subject, verb, obj)
        trailing = self.peek()
        if trailing is not None and not (stop_at_comma and trailing == ","):
            raise ParseError(self.position, f"end of sentence (got {trailing!r})")
        return sentence

    def np(self):
        word = self.take("a noun phrase")
        if word in _PRON:
            return PronNP(word)
        if word not in _DET:
            raise ParseError(self.position, f"a determiner or pronoun (got {word!r})")
        noun = self.take("a noun")
        if noun not in _NOUN:
            raise ParseError(self.position, f"a noun (got {noun!r})")
        rel = None
        if self.peek() == "who":
            self.index += 1
            verb = self.take("a verb in the relative clause")
            if verb not in _TV:
                raise ParseError(self.position, f"a transitive verb (got {verb!r})")
            rel = RelClause(verb, self.np())
        return DetNP(word, noun, rel)


def parse_discourse(text: str) -> DiscourseTree:
    """Parse period-separated controlled-English sentences (case-insensitive;
    the filler '(then)' is ignored).  Any character but an ASCII letter, an
    apostrophe, a comma, a period or whitespace is a syntax error."""
    cleaned = _FILLER.sub(" ", text).lower()
    stray = _STRAY.search(cleaned)
    if stray is not None:
        raise ParseError(cleaned.count(".", 0, stray.start()), f"a word (found {stray.group()!r})")
    pieces = [piece.strip() for piece in cleaned.split(".")]
    sentences = []
    position = 0
    for piece in pieces:
        if not piece:
            position += 1
            continue
        words = _words(piece)
        for word in words:
            if word != "," and word not in _ALL_WORDS:
                raise UnknownWord(word)
        parser = _SentenceParser(words, position)
        sentence = parser.sentence()
        if parser.peek() is not None:
            raise ParseError(position, f"end of sentence (got {parser.peek()!r})")
        sentences.append(sentence)
        position += 1
    if not sentences:
        raise ParseError(0, "at least one sentence")
    return DiscourseTree(tuple(sentences))


_DET = lexicon.surfaces("Det")
_NOUN = lexicon.surfaces("N")
_IV = lexicon.surfaces("VP")
_TV = lexicon.surfaces("TV")
_PRON = lexicon.surfaces("Pron")
_TWO_WORD = frozenset(w for w in _IV | _TV if " " in w)
_ALL_WORDS = _DET | _NOUN | _IV | _TV | _PRON | frozenset({"if", "who"})


def _meaning(word: str) -> Term:
    return lexicon.entry(word).meaning


def _noun_pred(np: DetNP) -> Term:
    """The predicate an NP restricts over, with any relative clause folded in."""
    noun = _meaning(np.noun)
    if np.rel is None:
        return noun
    return App(App(_meaning("who"), noun), _vp_pred(np.rel.verb, np.rel.obj))


def _entity(np) -> Term | None:
    """The meaning of an NP that denotes an entity (pronouns and definites)."""
    if isinstance(np, PronNP):
        return _meaning(np.word)
    if np.det == "the":
        return App(_meaning("the"), _noun_pred(np))
    return None


def _vp_pred(verb: str, obj) -> Term:
    """The verb phrase as a predicate over the subject entity."""
    verb_meaning = _meaning(verb)
    if obj is None:
        return verb_meaning
    entity = _entity(obj)
    if entity is not None:
        return Lam("z", App(App(verb_meaning, Var("z")), entity))
    # Quantified object: the quantifier scopes inside the verb phrase.
    quantifier = App(_meaning(obj.det), _noun_pred(obj))
    inner = Lam("y", App(App(verb_meaning, Var("z")), Var("y")))
    return Lam("z", App(quantifier, inner))


def _simple_meaning(sentence: Simple) -> Term:
    vp = _vp_pred(sentence.verb, sentence.obj)
    entity = _entity(sentence.subject)
    if entity is not None:
        return App(vp, entity)
    subject = sentence.subject
    return App(App(_meaning(subject.det), _noun_pred(subject)), vp)


def _sentence_meaning(sentence) -> Term:
    if isinstance(sentence, Conditional):
        return App(
            App(_meaning("if"), _simple_meaning(sentence.antecedent)),
            _simple_meaning(sentence.consequent),
        )
    return _simple_meaning(sentence)


def interpret(tree: DiscourseTree) -> Term:
    """Compose the discourse meaning and beta-normalize it.

    Sentences sequence as right-nested dependent pairs with binders p, p',
    p'', so later sentences can project witnesses from earlier ones.  The
    result may contain require nodes; it is the meaning before elaboration.
    """
    *earlier, result = [_sentence_meaning(s) for s in tree.sentences]
    for index in reversed(range(len(earlier))):
        result = Sigma("p" + "'" * index, earlier[index], result)
    return normalize(result)
