import random
from collections import Counter

import pytest

from presup import (
    App,
    CheckConfig,
    Const,
    Context,
    Fst,
    Lam,
    Pair,
    Pi,
    Sigma,
    Snd,
    Universe,
    Var,
    alpha_eq,
    alpha_key,
    check_context,
    convertible,
    enumerate_spines,
    parse_context_text,
    parse_term,
    solve,
    validate,
)

from helpers import (
    random_context,
    reference_solve,
    reference_spines,
    solver_witness_keys,
    spine_oracle,
    wide_context,
)

ENTITY = Const("E")


def _keys(pairs):
    return [alpha_key(term) for term, _ in pairs]


def test_enumerate_spines_discourse_context(sig, pctx):
    spines = enumerate_spines(sig, pctx, 8)
    rendered = {(str(term), str(spine_type)) for term, spine_type in spines}
    assert ("p", "(x : E) * Man x * WalkedIn x") in rendered
    assert ("fst p", "E") in rendered
    assert ("snd p", "Man (fst p) * WalkedIn (fst p)") in rendered
    assert ("fst (snd p)", "Man (fst p)") in rendered
    assert ("snd (snd p)", "WalkedIn (fst p)") in rendered


def test_enumerate_spines_empty_context(sig):
    spines = enumerate_spines(sig, Context(), 8)
    # Only the constants themselves: none of their types is a pair type.
    assert [str(term) for term, _ in spines] == [name for name, _ in sig.entries]


def test_enumerate_spines_donkey_witnesses(sig, donkey_ctx):
    keys = _keys(enumerate_spines(sig, donkey_ctx, 8))
    assert alpha_key(Fst(Var("p"))) in keys
    assert alpha_key(Fst(Snd(Snd(Var("p"))))) in keys


def test_enumerate_spines_breadth_first_order(sig, pctx):
    spines = [str(term) for term, _ in enumerate_spines(sig, pctx, 8)]
    assert spines.index("p") < spines.index("fst p")
    assert spines.index("fst p") < spines.index("snd p")
    assert spines.index("snd p") < spines.index("fst (snd p)")


def test_enumerate_spines_context_before_signature(sig, pctx):
    spines = [str(term) for term, _ in enumerate_spines(sig, pctx, 8)]
    assert spines.index("p") < spines.index("E")


def test_enumerate_spines_newest_hypothesis_first(sig, pctx):
    extended = pctx.extend("q", ENTITY)
    spines = [str(term) for term, _ in enumerate_spines(sig, extended, 8)]
    assert spines.index("q") < spines.index("p")


def test_enumerate_spines_depth_limit(sig, pctx):
    shallow = enumerate_spines(sig, pctx, 1)
    rendered = [str(term) for term, _ in shallow]
    assert "fst (snd p)" not in rendered
    assert "fst p" in rendered


def test_solve_entity_in_discourse_context(sig, pctx):
    solutions = solve(sig, pctx, ENTITY)
    assert [str(s.witness) for s in solutions] == ["fst p"]


def test_solve_property_witness(sig, pctx):
    goal = App(Const("Man"), Fst(Var("p")))
    solutions = solve(sig, pctx, goal)
    assert [str(s.witness) for s in solutions] == ["fst (snd p)"]


def test_solve_empty_context(sig):
    assert solve(sig, Context(), ENTITY) == []


def test_solve_donkey_entities_in_order(sig, donkey_ctx):
    solutions = solve(sig, donkey_ctx, ENTITY)
    assert [str(s.witness) for s in solutions] == ["fst p", "fst (snd (snd p))"]


def test_solutions_revalidate_at_the_goal(sig, pctx, donkey_ctx):
    for ctx, goal in [
        (pctx, ENTITY),
        (pctx, App(Const("Man"), Fst(Var("p")))),
        (donkey_ctx, ENTITY),
    ]:
        for solution in solve(sig, ctx, goal):
            validate(solution.derivation)
            assert alpha_eq(solution.derivation.conclusion.subject, solution.witness)
            assert convertible(solution.derivation.conclusion.classifier, goal)


def test_solve_determinism(sig, donkey_ctx):
    first = [str(s.witness) for s in solve(sig, donkey_ctx, ENTITY)]
    second = [str(s.witness) for s in solve(sig, donkey_ctx, ENTITY)]
    assert first == second


def test_solve_monotone_under_context_growth(sig, pctx):
    base = {alpha_key(s.witness) for s in solve(sig, pctx, ENTITY)}
    extended = pctx.extend("q", ENTITY)
    grown = {alpha_key(s.witness) for s in solve(sig, extended, ENTITY)}
    assert base <= grown


def test_solve_witnesses_are_require_free(sig, donkey_ctx):
    from presup import contains_require

    for solution in solve(sig, donkey_ctx, ENTITY):
        assert not contains_require(solution.witness)


def test_solve_agrees_with_brute_force_on_paper_contexts(sig, pctx, donkey_ctx):
    cfg = CheckConfig()
    contexts = [Context(), pctx, donkey_ctx, pctx.extend("q", ENTITY)]
    goals = [ENTITY, App(Const("Man"), Fst(Var("p"))), Universe(0), Pi("_", ENTITY, Universe(0))]
    for ctx in contexts:
        for goal in goals:
            if ctx is not pctx and "p" in _free(goal):
                continue
            assert solver_witness_keys(sig, ctx, goal, 8) == spine_oracle(
                sig, ctx, goal, 8, cfg
            )


def test_solve_agrees_with_brute_force_on_random_contexts(sig):
    from helpers import oracle_filter, typed_spine_universe

    rng = random.Random(41)
    cfg = CheckConfig()
    for _ in range(25):
        ctx = random_context(rng)
        universe = typed_spine_universe(sig, ctx, 4, cfg)
        spines = enumerate_spines(sig, ctx, 4)
        goals = [ENTITY, Universe(0)]
        goals += [spine_type for _, spine_type in rng.sample(spines, min(2, len(spines)))]
        for goal in goals:
            assert solver_witness_keys(sig, ctx, goal, 4) == oracle_filter(universe, goal)


def _free(term):
    from presup import free_vars

    return free_vars(term)


def _redex_context():
    """Hypotheses whose declared types and second projections need
    normalizing, so spine derivations carry Conv nodes."""
    man = Lam("y", App(Const("Man"), Var("y")))
    entity_pair = Sigma("x", ENTITY, App(Const("Man"), Var("x")))
    return (
        Context()
        .extend("r", App(Lam("y", entity_pair), ENTITY))
        .extend("s", Sigma("x", ENTITY, App(man, Var("x"))))
    )


def _solver_contexts(pctx, donkey_ctx):
    rng = random.Random(59)
    contexts = [Context(), pctx, donkey_ctx, pctx.extend("q", ENTITY), _redex_context()]
    return contexts + [random_context(rng) for _ in range(25)]


@pytest.mark.parametrize("depth", [1, 4, 8])
def test_solve_equals_reference_scan(sig, pctx, donkey_ctx, depth):
    rng = random.Random(depth)
    for ctx in _solver_contexts(pctx, donkey_ctx):
        spines = reference_spines(sig, ctx, depth)
        # Fst <E, E> is convertible with E but not alpha-equal to it.
        goals = [ENTITY, Universe(0), Fst(Pair(ENTITY, ENTITY))]
        goals += [spine_type for _, spine_type, _ in rng.sample(spines, min(3, len(spines)))]
        # solve returns every witness; the reference scan stops at the cap.
        above = CheckConfig(solver_depth=depth, max_solutions_per_require=len(spines) + 1)
        for goal in goals:
            solutions = solve(sig, ctx, goal, above)
            assert solutions == reference_solve(sig, ctx, goal, above)
            for cap in (1, 3, 16):
                cfg = CheckConfig(solver_depth=depth, max_solutions_per_require=cap)
                assert solve(sig, ctx, goal, cfg)[:cap] == reference_solve(sig, ctx, goal, cfg)
            for solution in solutions:
                validate(solution.derivation)


@pytest.mark.parametrize("depth", [0, 1, 4, 8])
def test_enumerate_spines_order_equals_reference_scan(sig, pctx, donkey_ctx, depth):
    for ctx in _solver_contexts(pctx, donkey_ctx):
        spines = reference_spines(sig, ctx, depth)
        expected = [(term, spine_type) for term, spine_type, _ in spines]
        assert enumerate_spines(sig, ctx, depth) == expected


def test_uncapped_solve_returns_every_witness_in_order(sig):
    # The cap is the callers' to apply: _require's and the CLI's.
    ctx = Context()
    for index in range(20):
        ctx = ctx.extend(f"e{index}", ENTITY)
    cfg = CheckConfig(max_solutions_per_require=3)
    witnesses = [str(s.witness) for s in solve(sig, ctx, ENTITY, cfg)]
    assert witnesses == [f"e{index}" for index in reversed(range(20))]


def test_solve_truncates_at_max_solutions(sig):
    # solve finds all five witnesses; require and the solve command keep three.
    from presup import Require, infer_all
    from presup.cli import _solve_goal

    ctx = Context()
    for index in range(5):
        ctx = ctx.extend(f"e{index}", ENTITY)
    cfg = CheckConfig(max_solutions_per_require=3)
    assert len(solve(sig, ctx, ENTITY, cfg)) == 5
    assert len(infer_all(sig, ctx, Require("x", ENTITY, Var("x")), cfg)) == 3
    assert len(_solve_goal(sig, ctx, "E", cfg)) == 3
    assert len(_solve_goal(sig, ctx, "E", CheckConfig())) == 5


def test_no_solver_state_survives_top_level_calls(sig, pctx):
    from presup import infer_all, parse_term, solver

    term = parse_term("SatDown (require x : E in x)", sig.names)
    before = dict(vars(solver))
    for _ in range(2):
        infer_all(sig, pctx, term)
        solve(sig, pctx, ENTITY)
        assert solver._TABLES.get() is None
    assert vars(solver) == before


def _count_fills(monkeypatch) -> list:
    # The heads whose spine tables are built, in the order they are built.
    from presup import solver

    built = []
    fill = solver._Table.fill

    def counting(table, *args):
        built.append(str(table.head))
        return fill(table, *args)

    monkeypatch.setattr(solver._Table, "fill", counting)
    return built


def test_tables_are_built_once_per_head_within_a_call(sig, pctx, monkeypatch):
    from presup import infer_all

    built = _count_fills(monkeypatch)
    term = parse_term(
        "SatDown (require x : E in x) * WalkedIn (require y : E in y) * Man (require z : E in z)",
        sig.names,
    )
    assert len(infer_all(sig, pctx, term)) == 1
    # Three presuppositions (and the hypotheses that the pair types bind),
    # but each head's spines are computed once; a goal E reaches every head.
    assert len(built) == len(set(built))
    assert {"p"} | {name for name, _ in sig.entries} <= set(built)


def test_tables_are_built_only_for_the_heads_a_goal_reaches(sig, monkeypatch):
    from presup import solver

    built = _count_fills(monkeypatch)
    ctx = parse_context_text("a : E\nm : Man a\nb : E\nn : Man b\nc : Man b -> E\n", sig)
    check_context(sig, ctx)
    goals = [parse_term(text, sig.names) for text in ("Man a", "Man b", "Man a", "E")]

    @solver.with_spine_tables
    def in_one_call():
        return [[str(s.witness) for s in solve(sig, ctx, goal)] for goal in goals]

    assert in_one_call() == [["m"], ["n"], ["m"], ["b", "a"]]
    # A spine type of head h has its free variables among h's and those of
    # h's declared type: Man a reaches m and a, Man b reaches c, n and b,
    # and E, which has none, reaches the rest.  No head is built twice.
    assert built == ["m", "a", "c", "n", "b", "E", "Man", "WalkedIn", "SatDown", "Farmer",
                     "Donkey", "Owns", "Beats"]


DEFINITES = (
    "A farmer owns a donkey. A man walked in. The farmer beats the donkey. "
    "The man sat down. The farmer walked in. The donkey sat down. "
    "The farmer owns the donkey. The man walked in. The donkey beats the farmer. "
    "The farmer sat down."
)


def test_one_call_builds_each_view_once_and_shares_its_spine_derivations(sig, monkeypatch):
    from presup import infer_all, interpret, parse_discourse, solver
    import presup.derivations as D

    # Every head list _view hands out, per (sig, ctx) pair; holding the
    # lists and telescopes keeps their ids from being reused.
    handed = {}
    make_view = solver._view

    def recording(sig_, ctx, *args):
        tables, built = make_view(sig_, ctx, *args)
        handed.setdefault((id(sig_), id(ctx)), (sig_, ctx, []))[2].append(tables)
        return tables, built

    monkeypatch.setattr(solver, "_view", recording)
    checks = Counter()
    for rule, row in D.RULES.items():
        def counted(d, check=row.check):
            checks[id(d)] += 1
            check(d)

        monkeypatch.setitem(D.RULES, rule, row._replace(check=counted))

    fills = Counter()
    fill = solver._Table.fill

    def counted_fill(table, *args):
        fills[id(table)] += 1
        return fill(table, *args)

    monkeypatch.setattr(solver._Table, "fill", counted_fill)
    (derivation,) = infer_all(sig, Context(), interpret(parse_discourse(DEFINITES)))
    lists = [tables_per_call for _, _, tables_per_call in handed.values()]
    assert sum(map(len, lists)) > 2 * len(lists)
    # Each pair's head list was built once and handed out on every solve.
    assert all(all(tables is ours[0] for tables in ours) for ours in lists)
    assert len({id(ours[0]) for ours in lists}) == len(lists)
    # The views share their heads' tables, and each table is built at most
    # once, only when a goal reaches it.
    tables = {id(table): table for ours in lists for table in ours[0]}
    assert len(tables) < sum(len(ours[0]) for ours in lists)
    assert set(fills.values()) == {1}
    assert set(fills) == {key for key, table in tables.items() if table.index is not None}
    validate(derivation)
    # 177 when every solve builds its own spine derivations.
    assert sum(checks.values()) == len(checks) == 152


def test_solves_in_one_call_share_spine_derivations(sig, pctx):
    from presup import solver

    @solver.with_spine_tables
    def twice(goal):
        return solve(sig, pctx, goal), solve(sig, pctx, goal)

    for goal in (ENTITY, App(Const("Man"), Fst(Var("p")))):
        first, second = twice(goal)
        assert first == second and len(first) == 1
        assert first[0].derivation is second[0].derivation
        # Separate top-level calls share nothing.
        (again,) = solve(sig, pctx, goal)
        assert again.derivation == first[0].derivation
        assert again.derivation is not first[0].derivation


def test_a_repeated_name_is_searched_once_through_the_entry_lookup_finds(sig):
    # An unchecked context: lookup, and so the validator, sees a : E.
    man_a = App(Const("Man"), Var("a"))
    ctx = Context().extend("a", ENTITY).extend("a", man_a)
    hypotheses = [(term, ty) for term, ty in enumerate_spines(sig, ctx, 8) if isinstance(term, Var)]
    assert hypotheses == [(Var("a"), ENTITY)]
    for goal in (ENTITY, man_a):
        for solution in solve(sig, ctx, goal):
            validate(solution.derivation)
    assert [s.witness for s in solve(sig, ctx, ENTITY)][:1] == [Var("a")]
    assert solve(sig, ctx, man_a) == []


@pytest.mark.parametrize("seed", range(4))
def test_solve_on_wide_contexts_equals_the_reference_scan(sig, seed):
    from presup import solver

    rng = random.Random(seed)
    text, entities, facts, properties = wide_context(rng, rng.choice((16, 24, 32)))
    ctx = parse_context_text(text, sig)
    check_context(sig, ctx)
    middle = entities[len(entities) // 2]
    # A relation fact, one with no witness (facts relate distinct
    # entities), a fact whose witness projects from the head it mentions,
    # E, goals that normalize away the names they mention, a goal headed by
    # a variable, and a universe.
    texts = [
        facts[len(facts) // 2],
        f"{rng.choice(('Owns', 'Beats'))} ({middle}) ({middle})",
        properties[len(properties) // 2],
        "E",
        f"let z : E = {entities[0]} in E",
        "let z : E -> Set0 = Man in E",
        "A",
        "Set0",
    ]
    goals = [parse_term(goal, sig.names) for goal in texts]
    cfg = CheckConfig(max_solutions_per_require=10_000)
    expected = [reference_solve(sig, ctx, goal, cfg) for goal in goals]
    assert [solve(sig, ctx, goal, cfg) for goal in goals] == expected
    assert [len(solutions) > 0 for solutions in expected] == [True, False] + [True] * 6

    # The same goals in one call, whose tables are built as goals reach them.
    @solver.with_spine_tables
    def in_one_call():
        return [solve(sig, ctx, goal, cfg) for goal in goals]

    assert in_one_call() == expected
