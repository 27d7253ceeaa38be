"""End-to-end robustness: random inputs through the whole stack.

Anything that parses must round-trip; any well-formed discourse must
interpret; elaboration must either produce presupposition-free terms that
re-check at their types or raise the declared errors, never anything else.
"""

import random
import string

from presup import (
    Context,
    ParseError,
    TypeCheckError,
    UnknownWord,
    alpha_eq,
    base_signature,
    check_all,
    contains_require,
    elaborate_all,
    format_term,
    interpret,
    parse_discourse,
    parse_term,
)

from helpers import DETS, IVS, NOUNS, PRONS, TVS, random_sentence

_ALPHABET = string.ascii_letters + string.digits + " ()\\.:*<>,=->_'"


def test_term_parser_rejects_cleanly_and_round_trips():
    rng = random.Random(71)
    parsed = 0
    for _ in range(4000):
        text = "".join(rng.choice(_ALPHABET) for _ in range(rng.randint(0, 40)))
        try:
            term = parse_term(text)
        except ParseError:
            continue
        assert alpha_eq(parse_term(format_term(term)), term)
        parsed += 1
    assert parsed > 100


def test_discourse_parser_rejects_word_sequences_cleanly():
    rng = random.Random(72)
    vocabulary = DETS + NOUNS + IVS + TVS + PRONS + ["if", ",", "(then)", "who"]
    for _ in range(4000):
        text = " ".join(rng.choice(vocabulary) for _ in range(rng.randint(0, 10))) + "."
        try:
            parse_discourse(text)
        except (ParseError, UnknownWord):
            pass


def test_random_discourses_elaborate_or_fail_honestly():
    sig = base_signature()
    rng = random.Random(73)
    elaborated = unresolved = 0
    for _ in range(250):
        text = ". ".join(random_sentence(rng, 2) for _ in range(rng.randint(1, 3))) + "."
        meaning = interpret(parse_discourse(text))
        try:
            results = elaborate_all(sig, Context(), meaning)
        except TypeCheckError:
            unresolved += 1
            continue
        assert results
        for term, classifier in results:
            assert not contains_require(term)
            assert check_all(sig, Context(), term, classifier)
        elaborated += 1
    assert elaborated > 30
    assert unresolved > 30


def test_cross_sentence_donkey_readings():
    # The sequencing pair carries both witnesses into the second sentence,
    # so a discourse version of the donkey sentence has the same four readings.
    sig = base_signature()
    meaning = interpret(parse_discourse("A farmer owns a donkey. He beats it."))
    results = elaborate_all(sig, Context(), meaning)
    assert len(results) == 4
    golden = parse_term(
        "(p : (x : E) * (Farmer x * ((y : E) * (Donkey y * Owns x y))))"
        " * Beats (fst p) (fst (snd (snd p)))"
    )
    assert any(alpha_eq(term, golden) for term, _ in results)
