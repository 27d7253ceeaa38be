"""elaborate_all against reference_readings, an enumeration oracle that shares
no code with the typechecker's require rule, as ordered lists.

The caps sit above every count here, so truncation plays no part.  Inputs
come from seeded generators: the paper examples, pronoun chains, donkey
sentences after a few entities, random discourses over the whole grammar,
typed_pool terms with presuppositions, and goals that themselves presuppose.
"""

import random

import pytest

from presup import (
    CheckConfig,
    Context,
    TypeCheckError,
    base_signature,
    elaborate_all,
    interpret,
    parse_context_text,
    parse_discourse,
    parse_term,
)

from helpers import (
    random_context,
    random_sentence,
    reference_alpha_key,
    reference_normalize,
    reference_readings,
    typed_pool,
)

CFG = CheckConfig(max_solutions_per_require=100_000, max_total_derivations=100_000)

PAPER_EXAMPLES = (
    "A man walked in. He sat down.",
    "If a farmer owns a donkey, he beats it.",
    "Every farmer who owns a donkey beats it.",
    "A farmer owns a donkey. The farmer beats the donkey.",
)
INTROS = ("A man walked in.", "A donkey sat down.", "A farmer owns a donkey.")
DONKEYS = ("Every farmer who owns a donkey beats it.", "If a farmer owns a donkey, he beats it.")

GOAL_CONTEXT = "a : E\nm : Man a\nb : E\no : Owns a b\nf : Farmer b\nd : Donkey a\nn : Owns b b"
GOAL_ARGUMENTS = ("a", "b", "require y : E in y", "require y : E in require q : Man y in y")
GOAL_PREDICATES = ("Man", "Farmer", "Donkey", "Owns a", "Owns b")


def _keys(readings) -> list:
    return [
        (reference_alpha_key(term), reference_alpha_key(reference_normalize(classifier)))
        for term, classifier in readings
    ]


def _agree(sig, ctx, term) -> int:
    try:
        kernel = elaborate_all(sig, ctx, term, CFG)
    except TypeCheckError:
        kernel = []
    reference = reference_readings(sig, ctx, term, CFG)
    assert _keys(kernel) == _keys(reference), term
    return len(reference)


def _discourse(text: str):
    return interpret(parse_discourse(text))


def _goal_terms(rng: random.Random) -> list:
    """`require x : G in x` for goals G that presuppose an entity, some of
    them twice, plus a let that binds one."""
    terms = []
    for _ in range(20):
        predicate = rng.choice(GOAL_PREDICATES)
        goal = f"{predicate} ({rng.choice(GOAL_ARGUMENTS)})"
        terms.append(f"require x : {goal} in x")
        terms.append(f"Owns ({rng.choice(GOAL_ARGUMENTS)}) (require x : {goal} in a)")
    terms.append("require x : Owns (require y : E in y) (require w : E in w) in x")
    terms.append("require x : (let z : E = (require y : E in y) in Man a) in x")
    return terms


def test_oracle_agrees_on_discourses():
    sig = base_signature()
    ctx = Context()
    texts = list(PAPER_EXAMPLES)
    texts += ["A man walked in. He sat down. " * k for k in range(1, 6)]
    texts += [" ".join(INTROS[:prior]) + " " + donkey for prior in range(3) for donkey in DONKEYS]
    rng = random.Random(2310)
    for _ in range(300):
        # Up to two sentences first that introduce entities for the pronouns.
        intros = rng.sample(INTROS, rng.randint(0, 2))
        sentences = [f"{random_sentence(rng, 1)}." for _ in range(rng.randint(1, 2))]
        texts.append(" ".join(intros + sentences))
    counts = [_agree(sig, ctx, _discourse(text)) for text in texts]
    assert counts[4:9] == [1, 2, 6, 24, 120]
    assert sum(count > 1 for count in counts) > 60
    assert sum(count == 0 for count in counts) > 30


def test_oracle_agrees_on_goals_that_presuppose():
    sig = base_signature()
    ctx = parse_context_text(GOAL_CONTEXT, sig)
    counts = [
        _agree(sig, ctx, parse_term(text, sig.names)) for text in _goal_terms(random.Random(2311))
    ]
    assert counts[-2:] == [2, 1]
    assert sum(count > 0 for count in counts) > 15


@pytest.mark.parametrize("seed", range(6))
def test_oracle_agrees_on_typed_pool_terms(seed):
    sig = base_signature()
    rng = random.Random(2320 + seed)
    ctx = random_context(rng)
    pool = typed_pool(rng, sig, ctx, 60, CFG, with_requires=True)
    terms = [entry.term for entry in pool if entry.inferable and entry.depth > 1]
    assert terms
    for term in terms:
        _agree(sig, ctx, term)
