"""Fast tests of the benchmark's generators and oracles (no presup needed).

    python3 -m pytest perfbench -q
"""

import math
import random

import workloads as W


def _texts(round_):
    return [d.text for d in round_]


def test_same_seed_same_inputs():
    assert _texts(W.readings_all(7)) == _texts(W.readings_all(7))
    assert _texts(W.definites_long(7)) == _texts(W.definites_long(7))
    first, second = W.cli_session(7), W.cli_session(7)
    assert [c.context_text for c in first[0]] == [c.context_text for c in second[0]]
    assert [c.goals for c in first[0]] == [c.goals for c in second[0]]
    assert _texts(first[1]) == _texts(second[1])


def test_other_seed_other_inputs():
    assert _texts(W.readings_all(1)) != _texts(W.readings_all(2))
    assert _texts(W.definites_long(1)) != _texts(W.definites_long(2))


def test_donkey_conditional_has_four_readings():
    d = W.paper_example("If a farmer owns a donkey, he beats it.")
    assert d.readings == 4


def test_pronoun_chain_has_k_factorial_readings():
    for k in range(1, 8):
        assert W.pronoun_chain(random.Random(k), k).readings == math.factorial(k)


def test_every_seed_gives_the_same_reading_counts():
    counts = sorted(d.readings for d in W.readings_all(1))
    for seed in range(2, 12):
        assert sorted(d.readings for d in W.readings_all(seed)) == counts
    assert min(counts) == 1 and max(counts) == 720


def test_definites_have_one_antecedent_and_few_entities():
    for seed in range(5):
        for d in W.definites_long(seed):
            assert 20 <= len(d.sentences) <= 40
            assert len(d.entities) <= 15
            assert d.readings == 1 and d.trail


def test_definite_witness_paths():
    d = W.paper_example("A farmer owns a donkey. The farmer beats the donkey.")
    assert d.trail == ["fst p", "fst (snd p)", "fst (snd (snd p))", "fst (snd (snd (snd p)))"]


def test_wide_context_goals_have_many_one_and_no_witnesses():
    contexts, _, _ = W.cli_session(3)
    for case in contexts:
        (many, entities), (_, one), (_, none) = case.goals
        assert many == "E" and len(entities) >= len(case.context_text.splitlines()) // 2
        assert len(one) == 1 and none == set()


def test_debruijn_is_alpha_invariant():
    from dataclasses import dataclass

    @dataclass(frozen=True)
    class Var:
        name: str

    @dataclass(frozen=True)
    class Lam:
        binder: str
        body: object

    assert W.debruijn(Lam("x", Var("x"))) == W.debruijn(Lam("y", Var("y")))
    assert W.debruijn(Lam("x", Var("z"))) != W.debruijn(Lam("y", Var("y")))
