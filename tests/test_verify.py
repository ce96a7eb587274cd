import importlib

import pytest
from hypothesis import given, settings, strategies as st

from cosafe import coalgebra, formula

from cosafe.closure import (BOTH, EQUIVARIANT, IMAGE, LITERAL, PRESERVING,
                            REFLECTING, AlgebraicOperator, ClosureConfig,
                            ClosureEngine, KnowledgeBase)
from cosafe.coalgebra import System, Walk, behaviour_system
from cosafe.formula import ASSERT, REFUTE, TABLE, Property, formula_similarity
from cosafe.models import (dial_model, dial_eventually, lock_model,
                           lock_operators, lock_properties, puzzle_model,
                           swat_model, swat_properties)
from cosafe.predicate import (Complement, FiniteSet, FiniteSpace, Universe,
                              member, member_fn)
from cosafe.syntax import SyntaxContext, print_formula
from cosafe.verify import (DEFAULT_MAX_PAIRS, FAILS, HOLDS, INFERRED_FAILS,
                           INFERRED_HOLDS, UNKNOWN, Stats, Verdict,
                           _property_verdict, check_many, check_property,
                           order_properties, verify)

verify_module = importlib.import_module("cosafe.verify")


def neq_body(sys, *values):
    space = sys.observation_space
    return TABLE.mk_always(
        TABLE.mk_obs(Complement(space, FiniteSet(space, frozenset(values)))),
        sys.input_pred)


def fresh(ops=(), **kw):
    return KnowledgeBase(), ClosureConfig(operators=ops, **kw)


def test_dial_always_tt_holds_and_explores_all_states():
    d = dial_model()
    kb, cfg = fresh()
    body = TABLE.mk_always(TABLE.tt(), d.input_pred)
    v, kb = verify(d, 0, body, kb, cfg)
    assert v.outcome == HOLDS
    assert v.stats.pairs_explored == 10
    assert len(kb.R) == 10


def test_dial_never_n_fails_with_counterexample():
    d = dial_model()
    kb, cfg = fresh()
    body = neq_body(d, 7)
    v, kb = verify(d, 0, body, kb, cfg)
    assert v.outcome == FAILS
    assert v.counterexample == (7, body)
    assert kb.F == {(7, body)}
    assert not kb.R  # tentative pairs are discarded on failure


def test_dial_eventually_property_negates():
    d = dial_model()
    kb, cfg = fresh()
    v, kb = check_property(d, 0, dial_eventually(d, 7), kb, cfg)
    assert v.outcome == HOLDS
    assert v.witness == (7, neq_body(d, 7))


def test_refute_of_holding_formula_fails():
    d = dial_model()
    kb, cfg = fresh()
    body = TABLE.mk_always(TABLE.tt(), d.input_pred)
    v, kb = check_property(d, 0, Property("p", REFUTE, body), kb, cfg)
    assert v.outcome == FAILS


def test_unknown_on_pair_budget():
    lock = lock_model(4)
    kb, cfg = fresh()
    v, kb = verify(lock, 0, neq_body(lock, 9999), kb, cfg, max_pairs=50)
    assert v.outcome == UNKNOWN
    assert not kb.R and not kb.F


def brute_force_holds(sys, states, x0, psi):
    """The greatest simulation between system states and formula states,
    computed by naive fixpoint refinement."""
    reach = TABLE.reachable(psi, sys.inputs)
    rel = {(x, f) for x in states for f in reach}
    changed = True
    while changed:
        changed = False
        for (x, f) in sorted(rel, key=repr):
            allowed = TABLE.obs(f)
            ok = member(allowed, sys.observe_value(x)) and all(
                (sys.step(x, i), TABLE.next(f, i)) in rel
                for i in sys.inputs)
            if not ok:
                rel.discard((x, f))
                changed = True
    return (x0, psi) in rel


def dial_formulas(d):
    """G tt, G <.!=3>, and three formulae whose obligation changes with
    the input, so that the verifier searches (state, formula) pairs."""
    space = d.observation_space
    return [
        TABLE.mk_always(TABLE.tt(), d.input_pred),
        neq_body(d, 3),
        TABLE.mk_obs(FiniteSet(space, frozenset((0, 1)))),
        TABLE.mk_box(d.input_pred,
                     TABLE.mk_obs(FiniteSet(space, frozenset((1,))))),
        TABLE.mk_and([
            TABLE.mk_obs(FiniteSet(space, frozenset((0,)))),
            TABLE.mk_box(d.input_pred,
                         TABLE.mk_obs(Complement(
                             space, FiniteSet(space, frozenset((5,)))))),
        ]),
    ]


def test_verify_matches_brute_force_on_dial():
    d = dial_model()
    for psi in dial_formulas(d):
        for x0 in range(10):
            kb, cfg = fresh()
            v, _ = verify(d, x0, psi, kb, cfg)
            assert v.holds() == brute_force_holds(d, range(10), x0, psi), \
                (x0, psi)


def test_verify_matches_brute_force_on_small_lock():
    lock = lock_model(2)
    for code in (0, 7, 42, 99):
        kb, cfg = fresh()
        v, _ = verify(lock, 0, neq_body(lock, code), kb, cfg)
        assert v.holds() == brute_force_holds(lock, range(100), 0,
                                              neq_body(lock, code))


def test_knowledge_reuse_infers_shifted_failures():
    lock = lock_model(2)
    ops = lock_operators(2, ("shift",))
    kb, cfg = fresh(tuple(ops.values()))
    props = lock_properties(lock)
    # checking F[.=01] directly records the counterexample at code 1;
    # F[.=10] is its image under the dial swap and is inferred
    v1, kb = check_property(lock, 0, props[1], kb, cfg)
    assert v1.outcome == HOLDS
    results, kb, inferred = check_many(lock, 0, [props[10]], kb, cfg)
    assert results[0][1].outcome == INFERRED_HOLDS
    assert inferred == 1


def test_operator_soundness_differential_small_lock():
    lock = lock_model(2)
    props = lock_properties(lock)

    def run(ops):
        kb = KnowledgeBase()
        cfg = ClosureConfig(operators=ops)
        results, _, _ = check_many(lock, 0, props, kb, cfg)
        return [v.holds() for (_, v) in results]

    plain = run(())
    assert all(plain)  # every code is reachable from 0000
    assert run(tuple(lock_operators(2).values())) == plain


def test_fast_path_agrees_with_general_loop():
    d = dial_model()
    body = neq_body(d, 6)
    kb1, cfg1 = fresh()
    v1, _ = verify(d, 0, body, kb1, cfg1)
    # an extra implication entry disables the specialized loop
    kb2 = KnowledgeBase()
    cfg2 = ClosureConfig(
        implication=[(TABLE.mk_always(TABLE.tt(), d.input_pred), body)])
    v2, _ = verify(d, 0, body, kb2, cfg2)
    assert v1.outcome == v2.outcome == FAILS
    assert v1.counterexample == v2.counterexample
    assert v1.stats.pairs_explored == v2.stats.pairs_explored


def dial_turn(k, direction):
    """Turning the dial by k commutes with stepping and maps the
    observation v to v + k; `direction` declares which way it is used."""
    return AlgebraicOperator("turn%d" % k, lambda x: (x + k) % 10,
                             lambda v: (v + k) % 10, direction)


def loop_cases():
    """name -> (system, config, steps, max_pairs).  Each step is
    (x0, property), checked with check_many on the knowledge base the
    earlier steps left.  "state/..." rows check G formulae, so the
    verifier searches bare states; "pair/..." rows check formulae whose
    obligation changes with the input, so it searches (state, formula)
    pairs."""
    d = dial_model()
    T, N3, P01, B1, A = dial_formulas(d)
    space = d.observation_space
    N8 = neq_body(d, 8)
    N38 = TABLE.mk_always(TABLE.mk_obs(Complement(
        space, FiniteSet(space, frozenset((3, 8))))), d.input_pred)
    B6 = TABLE.mk_box(d.input_pred,
                      TABLE.mk_obs(FiniteSet(space, frozenset((6,)))))
    named = {"T": T, "N3": N3, "N8": N8, "N38": N38, "P01": P01,
             "B1": B1, "B6": B6, "A": A}
    # G tt is left out, as it was when the table was recorded
    implication = formula_similarity([f for f in named.values() if f != T],
                                     d.inputs)

    def steps(*spec):
        out = []
        for x0, name in spec:
            polarity = REFUTE if name.startswith("!") else ASSERT
            out.append((x0, Property(name, polarity, named[name.lstrip("!")])))
        return out

    puzzle = puzzle_model(3)
    pspace = puzzle.observation_space
    U100 = TABLE.mk_always(TABLE.mk_obs(Complement(
        pspace, FiniteSet(pspace, frozenset((100,))))), puzzle.input_pred)
    U100_101 = TABLE.mk_always(TABLE.mk_obs(Complement(
        pspace, FiniteSet(pspace, frozenset((100, 101))))), puzzle.input_pred)
    puzzle_impl = formula_similarity([U100, U100_101], puzzle.inputs)

    def puzzle_steps(first):
        # first proved from a successor of the initial state, whose
        # committed pairs the check from the initial state then meets
        x_read = puzzle.step(puzzle.initial, 1)
        return [(x_read, Property("first", ASSERT, first)),
                (puzzle.initial, Property("U100", ASSERT, U100)),
                (puzzle.initial, Property("!U100", REFUTE, U100))]

    lock = lock_model(2)
    lock_props = lock_properties(lock)
    lock_steps = [(0, lock_props[n]) for n in (12, 21, 11, 30, 3)]
    shift = tuple(lock_operators(2, ("shift",)).values())

    cfg = ClosureConfig
    turn_eq = (dial_turn(5, EQUIVARIANT),)
    turn_pres = (dial_turn(5, PRESERVING),)
    g_steps = steps((0, "N8"), (0, "!N3"), (0, "T"), (0, "!T"), (3, "N38"))
    return {
        "state/none": (d, cfg(), g_steps, None),
        "state/unknown": (d, cfg(), steps((0, "T")), 3),
        "state/implication": (d, cfg(implication=implication),
                              steps((0, "N3"), (0, "N38"), (0, "!N38"),
                                    (0, "T"), (4, "T")), None),
        "state/equivariant": (d, cfg(turn_eq), g_steps, None),
        "state/literal": (d, cfg(turn_pres, failure_mode=LITERAL), g_steps,
                          None),
        "state/lock-shift": (lock, cfg(shift), lock_steps, None),
        "state/committed": (puzzle, cfg(), puzzle_steps(U100), None),
        "state/committed-implication": (puzzle, cfg(implication=puzzle_impl),
                                        puzzle_steps(U100_101), None),
        "pair/none": (d, cfg(),
                      steps((0, "P01"), (0, "B1"), (0, "A"), (4, "P01"),
                            (4, "B1"), (0, "!A"), (2, "!A")), None),
        "pair/unknown": (d, cfg(), steps((0, "B1")), 2),
        "pair/implication": (d, cfg(implication=implication),
                             steps((0, "A"), (0, "P01"), (0, "B1"),
                                   (4, "P01"), (0, "!A")), None),
        "pair/equivariant": (d, cfg(turn_eq),
                             steps((5, "B1"), (0, "B6"), (0, "P01"),
                                   (1, "!P01")), None),
        "pair/literal": (d, cfg(turn_pres, failure_mode=LITERAL),
                         steps((5, "B1"), (0, "B6"), (0, "!B6"),
                               (0, "P01")), None),
    }


def run_loop_case(system, cfg, steps, max_pairs):
    """Each verdict as (x0, property, outcome, counterexample, witness,
    pairs_explored, closure_hits, subset_checks), a pair printed as
    (state, formula text); then (|R|, |F|) of the final knowledge base."""
    ctx = SyntaxContext(system.observation_space, system.input_pred)

    def show(pair):
        return pair and (pair[0], print_formula(pair[1], ctx))

    kb = KnowledgeBase()
    rows = []
    for x0, prop in steps:
        results, kb, _ = check_many(system, x0, [prop], kb, cfg,
                                    max_pairs=max_pairs or 10 ** 6)
        v = results[0][1]
        rows.append((x0, prop.name, v.outcome, show(v.counterexample),
                     show(v.witness), v.stats.pairs_explored,
                     v.stats.closure_hits, v.stats.subset_checks))
    return rows, (len(kb.R), len(kb.F))


# Recorded from the three-loop verifier that the single search loop
# replaced; the loop must reproduce every field.
LOOP_TABLE = {
    'state/none': (
        [(0, 'N8', 'Fails', (8, 'G <.!=8>'), None, 9, 0, 9),
         (0, '!N3', 'Holds', None, (3, 'G <.!=3>'), 4, 0, 4),
         (0, 'T', 'Holds', None, None, 10, 0, 10),
         (0, '!T', 'InferredFails', None, (0, 'nu v. [tt] v'), 1, 1, 0),
         (3, 'N38', 'Fails', (3, 'G <!{3,8}>'), None, 1, 0, 1)],
        (10, 3)),
    'state/unknown': (
        [(0, 'T', 'Unknown', None, None, 4, 0, 3)],
        (0, 0)),
    'state/implication': (
        [(0, 'N3', 'Fails', (3, 'G <.!=3>'), None, 4, 0, 4),
         (0, 'N38', 'InferredFails', None, (3, 'G <!{3,8}>'), 4, 1, 3),
         (0, '!N38', 'InferredHolds', None, (3, 'G <!{3,8}>'), 4, 1, 3),
         (0, 'T', 'Holds', None, None, 10, 0, 10),
         (4, 'T', 'InferredHolds', None, (4, 'nu v. [tt] v'), 1, 1, 0)],
        (10, 1)),
    'state/equivariant': (
        [(0, 'N8', 'Fails', (8, 'G <.!=8>'), None, 9, 0, 9),
         (0, '!N3', 'InferredHolds', None, (3, 'G <.!=3>'), 4, 1, 3),
         (0, 'T', 'Holds', None, None, 5, 1, 5),
         (0, '!T', 'InferredFails', None, (0, 'nu v. [tt] v'), 1, 1, 0),
         (3, 'N38', 'Fails', (3, 'G <!{3,8}>'), None, 1, 0, 1)],
        (5, 2)),
    'state/literal': (
        [(0, 'N8', 'Fails', (8, 'G <.!=8>'), None, 9, 0, 9),
         (0, '!N3', 'InferredHolds', None, (3, 'G <.!=3>'), 4, 1, 3),
         (0, 'T', 'Holds', None, None, 10, 0, 10),
         (0, '!T', 'InferredFails', None, (0, 'nu v. [tt] v'), 1, 1, 0),
         (3, 'N38', 'Fails', (3, 'G <!{3,8}>'), None, 1, 0, 1)],
        (10, 2)),
    'state/lock-shift': (
        [(0, 'F[.=12]', 'Holds', None, (12, 'G <.!=12>'), 98, 0, 98),
         (0, 'F[.=21]', 'InferredHolds', None, (21, 'G <.!=21>'), 14, 1, 13),
         (0, 'F[.=11]', 'Holds', None, (11, 'G <.!=11>'), 55, 16, 55),
         (0, 'F[.=30]', 'Holds', None, (30, 'G <.!=30>'), 90, 0, 90),
         (0, 'F[.=03]', 'InferredHolds', None, (3, 'G <.!=3>'), 4, 1, 3)],
        (0, 3)),
    'state/committed': (
        [((('R', 1), ('Q', 0), 1), 'first', 'Holds', None, None, 78, 0, 78),
         ((('Q', 0), ('Q', 0), 1), 'U100', 'Holds', None, None, 7, 6, 7),
         ((('Q', 0), ('Q', 0), 1), '!U100', 'InferredFails', None, ((('Q', 0), ('Q', 0), 1), 'G <.!=100>'), 1, 1, 0)],
        (85, 0)),
    'state/committed-implication': (
        [((('R', 1), ('Q', 0), 1), 'first', 'Holds', None, None, 78, 0, 78),
         ((('Q', 0), ('Q', 0), 1), 'U100', 'Holds', None, None, 7, 6, 7),
         ((('Q', 0), ('Q', 0), 1), '!U100', 'InferredFails', None, ((('Q', 0), ('Q', 0), 1), 'G <.!=100>'), 1, 1, 0)],
        (85, 0)),
    'pair/none': (
        [(0, 'P01', 'Holds', None, None, 11, 0, 11),
         (0, 'B1', 'Holds', None, None, 2, 1, 2),
         (0, 'A', 'Holds', None, None, 2, 1, 2),
         (4, 'P01', 'Fails', (4, '<{0,1}>'), None, 1, 0, 1),
         (4, 'B1', 'Fails', (5, '<.=1>'), None, 2, 0, 2),
         (0, '!A', 'InferredFails', None, (0, '<.=0> & [tt] <.!=5>'), 1, 1, 0),
         (2, '!A', 'Holds', None, (2, '<.=0> & [tt] <.!=5>'), 1, 0, 1)],
        (15, 3)),
    'pair/unknown': (
        [(0, 'B1', 'Unknown', None, None, 3, 0, 2)],
        (0, 0)),
    'pair/implication': (
        [(0, 'A', 'Holds', None, None, 10, 1, 10),
         (0, 'P01', 'InferredHolds', None, (0, '<{0,1}>'), 1, 1, 0),
         (0, 'B1', 'Holds', None, None, 2, 1, 2),
         (4, 'P01', 'Fails', (4, '<{0,1}>'), None, 1, 0, 1),
         (0, '!A', 'InferredFails', None, (0, '<.=0> & [tt] <.!=5>'), 1, 1, 0)],
        (12, 1)),
    'pair/equivariant': (
        [(5, 'B1', 'Fails', (6, '<.=1>'), None, 2, 0, 2),
         (0, 'B6', 'InferredFails', None, (1, '<.=6>'), 2, 1, 1),
         (0, 'P01', 'Holds', None, None, 6, 1, 6),
         (1, '!P01', 'Fails', None, None, 1, 1, 1)],
        (7, 1)),
    'pair/literal': (
        [(5, 'B1', 'Fails', (6, '<.=1>'), None, 2, 0, 2),
         (0, 'B6', 'InferredFails', None, (1, '<.=6>'), 2, 1, 1),
         (0, '!B6', 'InferredHolds', None, (1, '<.=6>'), 2, 1, 1),
         (0, 'P01', 'Holds', None, None, 11, 0, 11)],
        (11, 1)),
}


@pytest.mark.parametrize("name", sorted(LOOP_TABLE))
def test_search_loop_table(name):
    assert run_loop_case(*loop_cases()[name]) == LOOP_TABLE[name]


def test_check_many_prescreen_uses_committed_knowledge():
    d = dial_model()
    body = TABLE.mk_always(TABLE.tt(), d.input_pred)
    prop = Property("p", ASSERT, body)
    kb, cfg = fresh()
    results, kb, inferred = check_many(d, 0, [prop, prop], kb, cfg)
    assert results[0][1].outcome == HOLDS
    assert results[1][1].outcome == INFERRED_HOLDS
    assert results[1][1].stats.pairs_explored == 1
    assert inferred == 1


def test_verdict_helpers():
    assert Verdict(HOLDS).holds() and not Verdict(HOLDS).inferred()
    assert Verdict(INFERRED_HOLDS).holds() and Verdict(INFERRED_HOLDS).inferred()
    assert Verdict(FAILS).fails() and Verdict(INFERRED_FAILS).fails()
    u = Verdict(UNKNOWN)
    assert not u.holds() and not u.fails()


def test_order_properties_puts_implicants_first():
    s = swat_model()
    props = swat_properties(s)
    impl = formula_similarity([p.body for p in props.values()], s.inputs)
    ordered = order_properties([props["Con"], props["Hg"], props["Lvl"]],
                               impl)
    names = [p.name for p in ordered]
    assert names.index("Lvl") < names.index("Hg")
    assert names == ["Lvl", "Hg", "Con"]


def test_order_properties_stable_without_implications():
    d = dial_model()
    props = [dial_eventually(d, n) for n in (4, 1, 8)]
    assert order_properties(props, frozenset()) == props


def test_verify_rejects_open_or_unguarded_formulae():
    d = dial_model()
    for psi in (TABLE.mk_nu(TABLE.var(0)), TABLE.var(0)):
        kb, cfg = fresh()
        with pytest.raises(ValueError):
            verify(d, 0, psi, kb, cfg)
        assert not kb.R and not kb.F
        # check_many too, even where knowledge would answer the query,
        # and again: the rejection is not remembered as an answer
        kb = KnowledgeBase(R=[(0, psi)])
        for _ in range(2):
            with pytest.raises(ValueError):
                check_many(d, 0, [Property("p", ASSERT, psi)], kb, cfg)


def test_verify_rejects_an_engine_that_did_not_load_its_knowledge_base():
    # the engine reads and writes the knowledge base it loaded, so with
    # another one a run would read one store and write the other
    d = dial_model()
    kb, cfg = fresh()
    other = ClosureEngine(cfg)
    other.load(KnowledgeBase())
    for engine in (other, ClosureEngine(cfg)):
        with pytest.raises(ValueError):
            verify(d, 0, neq_body(d, 7), kb, cfg, engine=engine)
    assert not kb.R and not kb.F and not other.kb.F


def test_check_many_steps_each_state_once():
    # lock(2) has 100 states; checked one by one, the five properties
    # would step most of them five times
    lock = lock_model(2)
    stepped = []
    base = lock.successors

    def successors(x):
        stepped.append(x)
        return base(x)

    lock.successors = successors
    props = [Property("p%d" % v, ASSERT, neq_body(lock, v))
             for v in (99, 42, 7, 0, 58)]
    results, kb, _ = check_many(lock, 0, props, *fresh())
    assert [v.outcome for _, v in results] == [FAILS] * 5
    assert len(stepped) == len(set(stepped)) <= 100


def even_dial():
    """The dial stepping by 2: from 0 it reaches 0, 2, 4, 6, 8, in that
    order, and records each state it steps."""
    d = dial_model()
    d.stepped = []

    def step(x, i):
        d.stepped.append(x)
        return (x + 2) % 10

    d.step = step
    return d


def test_scanned_holds_still_indexes_preserving_images():
    # turning by 2 commutes with the step, so x |= G <.!=1> gives
    # x + 2 |= G <.!=3>; only the image index can tell the second run
    d = even_dial()
    odd1, odd3 = neq_body(d, 1), neq_body(d, 3)
    kb, cfg = fresh((dial_turn(2, PRESERVING),), failure_mode=IMAGE)
    props = [Property("!=1", ASSERT, odd1), Property("!=3", ASSERT, odd3)]
    results, kb, inferred = check_many(d, 0, props, kb, cfg)
    assert [(v.outcome, v.stats.pairs_explored) for _, v in results] == \
        [(HOLDS, 5), (INFERRED_HOLDS, 1)]
    assert inferred == 1
    assert kb.R == {(x, odd1) for x in (0, 2, 4, 6, 8)}


def test_search_reads_a_scanned_holds():
    # G <.!=1> unfolded once: a search on (state, formula) pairs whose
    # obligation after the first step is what the first run proved at
    # every state it walked
    d = even_dial()
    space = d.observation_space
    odd1 = neq_body(d, 1)
    unfolded = TABLE.mk_and([
        TABLE.mk_obs(Complement(space, FiniteSet(space, frozenset((1,))))),
        TABLE.mk_box(d.input_pred, odd1)])
    props = [Property("G", ASSERT, odd1), Property("once", ASSERT, unfolded)]
    results, kb, _ = check_many(d, 0, props, *fresh())
    assert [(v.outcome, v.stats.pairs_explored, v.stats.closure_hits)
            for _, v in results] == [(HOLDS, 5, 0), (HOLDS, 1, 1)]
    assert kb.R == {(x, odd1) for x in (0, 2, 4, 6, 8)} | {(0, unfolded)}


@pytest.mark.parametrize("first, max_pairs, outcomes, stepped", [
    # the first run lists all five states, the second is one short
    (1, 4, [(UNKNOWN, 5), (UNKNOWN, 5)], [0, 2, 4, 6]),
    # the first run lists 0, 2, 4, 6; the second lists 8 and stops
    (6, 4, [(FAILS, 4), (UNKNOWN, 5)], [0, 2, 4, 6]),
    # the budget is exactly the reachable count
    (1, 5, [(HOLDS, 5), (HOLDS, 5)], [0, 2, 4, 6, 8]),
])
def test_walk_budget_edges(first, max_pairs, outcomes, stepped):
    d = even_dial()
    props = [Property("first", ASSERT, neq_body(d, first)),
             Property("!=3", ASSERT, neq_body(d, 3))]
    results, _, _ = check_many(d, 0, props, *fresh(), max_pairs=max_pairs)
    assert [(v.outcome, v.stats.pairs_explored)
            for _, v in results] == outcomes
    assert d.stepped == stepped
    # the same verdicts as a search for each property alone
    for (prop, _), expect in zip(results, outcomes):
        searched, _ = verify(d, 0, prop.body, *fresh(), max_pairs=max_pairs)
        assert (searched.outcome, searched.stats.pairs_explored) == expect


def flaky(base, fail_at, where, on_raise=None):
    """base rebuilt from its step and observe_value, recording each state
    it steps; the first time fail_at is stepped (where == "step") or
    observed (where == "observe"), it calls on_raise and raises."""
    stepped = []
    armed = [True]

    def trip(x, here):
        if here == where and x == fail_at and armed[0]:
            armed[0] = False
            on_raise()
            raise RuntimeError("flaky at %r" % (x,))

    def step(x, i):
        trip(x, "step")
        stepped.append(x)
        return base.step(x, i)

    def observe_value(x):
        trip(x, "observe")
        return base.observe_value(x)

    system = System(base.name, base.inputs, observe_value, step,
                    observation_space=base.observation_space)
    system.input_pred = base.input_pred
    return system, stepped


@pytest.mark.parametrize("where", ("step", "observe"))
@pytest.mark.parametrize("model, first, fail, second", [
    # positions in the walk: the one-input dial lists a path, lock(2)
    # (two inputs) a depth-first order
    ("dial", 3, 5, 8),
    ("lock2", 20, 30, 60),
])
def test_walk_unchanged_when_the_system_raises(model, first, fail, second,
                                               where):
    base = dial_model() if model == "dial" else lock_model(2)
    everything = Walk(base, 0)
    everything.find(member_fn(Universe(base.observation_space)),
                    DEFAULT_MAX_PAIRS)
    order = everything.states
    props = [Property("first", ASSERT, neq_body(base, order[first])),
             Property("second", ASSERT, neq_body(base, order[second])),
             Property("none", ASSERT, neq_body(base, -1))]
    fresh_system, fresh_stepped = flaky(base, None, where)
    expect, _, _ = check_many(fresh_system, 0, props, *fresh())

    def state():
        return (list(walk.states), list(walk.values), set(walk.seen),
                list(walk.succ))

    before = []
    system, stepped = flaky(base, order[fail], where,
                            lambda: before.append(state()))
    walk = Walk(system, 0)
    kb, cfg = fresh()
    engine = ClosureEngine(cfg)
    engine.load(kb)
    got = [verify(system, 0, props[0].body, kb, cfg, engine=engine,
                  _walk=walk)[0]]
    with pytest.raises(RuntimeError):
        verify(system, 0, props[1].body, kb, cfg, engine=engine, _walk=walk)
    # the run listed states up to the one that raised, and no further
    assert len(walk.states) == fail + (where == "step")
    assert before == [state()]
    # retried, the runs give what a fresh check_many gives, and the walk
    # steps the same states as there, none twice
    for prop in props[1:]:
        got.append(verify(system, 0, prop.body, kb, cfg, engine=engine,
                          _walk=walk)[0])

    def show(verdict):
        return (verdict.outcome, verdict.counterexample,
                verdict.stats.pairs_explored)

    assert [show(v) for v in got] == [show(v) for _, v in expect]
    assert stepped == fresh_stepped


@st.composite
def systems_and_properties(draw):
    """A random deterministic system (states 0..n-1 for n at most 30,
    stored as its `size`, at most 3 inputs, observations in 0..3), two
    start states, and properties, each asserted or refuted.  A property
    is G <Q>, or after the first <Q> & [A] G <Q'> or G <Q> & [A] G <Q'>
    for a set A of inputs, whose nodes are (state, formula) pairs.  Each
    G <Q> is drawn from the same few, one of which holds at every state,
    so that runs on pairs meet what earlier G runs committed."""
    n = draw(st.integers(1, 30))
    inputs = tuple(range(draw(st.integers(1, 3))))
    table = [tuple(draw(st.integers(0, n - 1)) for _ in inputs)
             for _ in range(n)]
    value = [draw(st.integers(0, 3)) for _ in range(n)]
    space = FiniteSpace(frozenset(range(4)))
    system = System("random", inputs, value.__getitem__,
                    lambda x, i: table[x][i], observation_space=space)
    system.size = n
    input_space = FiniteSpace(frozenset(inputs))
    system.input_pred = Universe(input_space)

    def observation():
        allowed = FiniteSet(space, frozenset(
            draw(st.sets(st.integers(0, 3), max_size=4))))
        if draw(st.booleans()):
            allowed = Complement(space, allowed)
        return TABLE.mk_obs(allowed)

    everywhere = TABLE.mk_obs(FiniteSet(space, frozenset(value)))
    always = [TABLE.mk_always(obs, system.input_pred) for obs in
              [everywhere] + [observation()
                              for _ in range(draw(st.integers(0, 2)))]]
    props = []
    for k in range(draw(st.integers(1, 6))):
        body = draw(st.sampled_from(always))
        kind = draw(st.sampled_from(("G", "<Q> & [A] G", "G & [A] G")))
        if k and kind != "G":
            after = FiniteSet(input_space, frozenset(
                draw(st.sets(st.sampled_from(inputs), min_size=1))))
            first = observation() if kind == "<Q> & [A] G" else body
            body = TABLE.mk_and([first, TABLE.mk_box(
                after, draw(st.sampled_from(always)))])
        polarity = draw(st.sampled_from((ASSERT, REFUTE)))
        props.append(Property("p%d" % k, polarity, body))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2))
    return system, starts, props


def searched_check_many(system, x0, props, kb, cfg, max_pairs):
    """check_many with a search from x0 in every run: the same prescreen,
    then verify on each property."""
    engine = ClosureEngine(cfg)
    engine.load(kb)
    out = []
    for prop in props:
        pair = (x0, prop.body)
        for hit, outcome in ((engine.sat_hit, INFERRED_HOLDS),
                             (engine.fail_hit, INFERRED_FAILS)):
            if hit(pair):
                inner = Verdict(outcome, witness=pair,
                                stats=Stats(pairs_explored=1, closure_hits=1))
                break
        else:
            inner, kb = verify(system, x0, prop.body, kb, cfg,
                               engine=engine, max_pairs=max_pairs)
        out.append((prop, _property_verdict(prop, inner)))
    return out, kb


# Hypothesis draws the first mode most often: runs scan the walk only
# under the first two
@settings(max_examples=300, deadline=None)
@given(systems_and_properties(), st.sampled_from((IMAGE, BOTH, LITERAL)),
       st.data(), st.sampled_from((3, 10, DEFAULT_MAX_PAIRS)))
def test_check_many_walk_agrees_with_search(case, mode, data, max_pairs):
    # The implication relation is none, the similarity of the formulae
    # or a part of it, and the knowledge starts with drawn pairs of
    # states and formulae of the runs, confirmed or failing: runs then
    # meet committed implicants and known failures of implied formulae
    # at states the walk reaches and at states it does not.  Walk and
    # search consult the same knowledge, so they agree whether or not
    # it is true.
    system, starts, props = case
    similar = sorted(formula_similarity([p.body for p in props],
                                        system.inputs))
    implication = data.draw(st.one_of(
        st.none(), st.just(similar),
        st.lists(st.sampled_from(similar), unique=True)), label="implication")
    formulae = sorted(set().union(*(TABLE.reachable(p.body, system.inputs)
                                    for p in props)))
    pairs = st.tuples(st.integers(0, system.size - 1),
                      st.sampled_from(formulae))
    known_R = data.draw(st.sets(pairs, max_size=6), label="R")
    known_F = data.draw(st.sets(pairs, max_size=4), label="F") - known_R
    cfg = ClosureConfig(implication=implication, failure_mode=mode)

    def show(results):
        return [(p.name, v.outcome, v.counterexample, v.witness,
                 v.stats.pairs_explored, v.stats.closure_hits,
                 v.stats.subset_checks) for p, v in results]

    kb_walk = KnowledgeBase(known_R, known_F)
    kb_search = KnowledgeBase(known_R, known_F)
    for x0 in starts:  # the second call meets the first one's knowledge
        walked, kb_walk, _ = check_many(system, x0, props, kb_walk, cfg,
                                        max_pairs=max_pairs)
        searched, kb_search = searched_check_many(system, x0, props,
                                                  kb_search, cfg, max_pairs)
        assert show(walked) == show(searched)
    assert (kb_walk.R, kb_walk.F) == (kb_search.R, kb_search.F)


_LOCK_OPERATORS = {digits: lock_operators(digits) for digits in (2, 3)}


@st.composite
def scan_cases(draw):
    """A system whose runs scan with failure knowledge: lock(2) or
    lock(3) from a depth-first walk, or a one-input lasso of up to 40
    states walked as a path, observed whole or as (x // width) mod m, so
    that values repeat, three times in a row for width 3; operators
    drawn from its symmetries, each declared reflecting, equivariant or
    preserving; and G <.!=B> properties with up to three excluded
    values, each asserted or refuted.  The value m is never observed,
    so a B of it alone holds, and its run lists the whole walk."""
    if draw(st.booleans()):
        digits = draw(st.sampled_from((2, 3)))
        base = lock_model(digits)
        n = 10 ** digits
        inputs, successors, step = base.inputs, base.successors, base.step
        symmetries = list(_LOCK_OPERATORS[digits].values())
    else:
        n = draw(st.integers(2, 40))
        back = draw(st.integers(0, n - 1))
        nxt = [x + 1 for x in range(n - 1)] + [back]
        inputs, successors, step = ("*",), None, lambda x, i: nxt[x]
        symmetries = [AlgebraicOperator("turn%d" % k,
                                        lambda x, k=k: (x + k) % n,
                                        lambda v, k=k: v + k, EQUIVARIANT)
                      for k in range(1, 4)]
    m = draw(st.sampled_from((n, 3, 7)))
    width = 1 if m == n else draw(st.sampled_from((1, 3)))
    space = FiniteSpace(frozenset(range(m + 1)))
    system = System("scan", inputs, lambda x: x // width % m, step,
                    observation_space=space, successors=successors)
    system.size = n
    system.input_pred = Universe(FiniteSpace(frozenset(inputs)))
    ops = []
    for op in draw(st.lists(st.sampled_from(symmetries), unique=True,
                            max_size=3)):
        direction = draw(st.sampled_from((REFLECTING, EQUIVARIANT,
                                          PRESERVING)))
        # a lock operator's value map is a table of the n codes
        ops.append(AlgebraicOperator(
            op.name, op.state_map,
            lambda v, f=op.obs_value_map: f(v) if v < n else v, direction,
            input_map=op.input_map))
    # excluded sets from a few values, so that bodies imply each other,
    # and m among them, so that some run often lists the whole walk
    pool = [m] + draw(st.lists(st.integers(0, m - 1), min_size=1,
                               max_size=3, unique=True))
    props = []
    for k in range(draw(st.integers(1, 8))):
        excluded = draw(st.sets(st.sampled_from(pool), min_size=1,
                                max_size=3))
        props.append(Property("p%d" % k, draw(st.sampled_from(
            (ASSERT, REFUTE))), neq_body(system, *excluded)))
    starts = draw(st.lists(st.integers(0, n - 1), min_size=1, max_size=2))
    return system, ops, starts, props


# the walk stops at the first bad value, at the first state with a
# successor known to fail, or at the budget; each is drawn often.  Runs
# scan only in the first two modes; literal runs are answered by the
# prescreen or search
@settings(max_examples=300, deadline=None)
@given(scan_cases(), st.sampled_from((IMAGE, BOTH, LITERAL)), st.data(),
       st.sampled_from((1, 2, 5, 20, 100, DEFAULT_MAX_PAIRS)))
def test_check_many_failure_scans_agree_with_search(case, mode, data,
                                                     max_pairs):
    # Failures come from the runs themselves, their images under the
    # operators, implication edges from a body with more excluded values
    # to one with fewer, and drawn known failures.  A drawn failure is
    # every successor of one state, often a start state, so that the
    # state's first failing successor in input order is the witness.
    # Confirmed pairs are drawn as they are, or as the preimage of a
    # body at a start or any state under a preserving operator, whose
    # image then sits in the engine's sat_index and sat_formulae only.
    # A committed implicant, or such an image, makes a run be answered
    # by the prescreen or search.
    system, ops, starts, props = case
    bodies = [p.body for p in props]
    similar = sorted(formula_similarity(bodies, system.inputs))
    implication = data.draw(st.one_of(
        st.just(similar), st.lists(st.sampled_from(similar), unique=True)),
        label="implication")
    known_F = set()
    for body in data.draw(st.lists(st.sampled_from(bodies), max_size=2),
                          label="failing formulae"):
        x = data.draw(st.one_of(st.sampled_from(starts),
                                st.integers(0, system.size - 1)),
                      label="state")
        known_F.update((y, body) for y in system.successors(x))
    known_R = set()
    preserving = [op for op in ops if op.preserves()]
    for body in data.draw(st.lists(st.sampled_from(bodies), max_size=2),
                          label="confirmed formulae"):
        x = data.draw(st.one_of(st.sampled_from(starts),
                                st.integers(0, system.size - 1)),
                      label="confirmed state")
        if preserving and data.draw(st.booleans(), label="preimage"):
            op = data.draw(st.sampled_from(preserving), label="under")
            excluded = TABLE.run_facts(body, system.inputs)[2]
            pre = neq_body(system, *(
                v for v in system.observation_space.values
                if op.obs_value_map(v) in excluded))
            if op.map_formula(pre) == body:
                body = pre
                x = next(y for y in range(system.size)
                         if op.state_map(y) == x)
        known_R.add((x, body))
    known_F -= known_R
    cfg = ClosureConfig(ops, implication=implication, failure_mode=mode)

    def show(results):
        return [(p.name, v.outcome, v.counterexample, v.witness,
                 v.stats.pairs_explored, v.stats.closure_hits,
                 v.stats.subset_checks) for p, v in results]

    kb_walk = KnowledgeBase(known_R, known_F)
    kb_search = KnowledgeBase(known_R, known_F)
    for x0 in starts:
        walked, kb_walk, _ = check_many(system, x0, props, kb_walk, cfg,
                                        max_pairs=max_pairs)
        searched, kb_search = searched_check_many(system, x0, props,
                                                  kb_search, cfg, max_pairs)
        assert show(walked) == show(searched)
    assert (kb_walk.R, kb_walk.F) == (kb_search.R, kb_search.F)


@pytest.mark.parametrize("mode", (LITERAL, BOTH))
def test_check_many_prescreen_answers_before_any_search(mode, monkeypatch):
    # add maps (0, G <.!=5>) to (1, G <.!=6>), a known failure: in
    # literal mode the closure answers the run at its start pair, though
    # no formula G <.!=5> implies is known to fail anywhere; in both
    # mode add is equivariant, so the image direction finds nothing and
    # the run scans.  Neither searches.
    lock = lock_model(2)
    add = lock_operators(2)["add"]
    body = neq_body(lock, 5)
    known_F = {(1, neq_body(lock, 6))}
    searched = []
    monkeypatch.setattr(verify_module, "verify",
                        lambda *args, **kw: searched.append(args))
    results, kb, inferred = check_many(
        lock, 0, [Property("!=5", ASSERT, body)], KnowledgeBase(F=known_F),
        ClosureConfig([add], failure_mode=mode))
    (_, verdict), = results
    assert searched == []
    if mode == LITERAL:
        assert (verdict.outcome, verdict.witness, verdict.stats,
                inferred) == (INFERRED_FAILS, (0, body), Stats(1, 1, 0), 1)
    else:
        assert (verdict.outcome, verdict.counterexample[1],
                inferred) == (FAILS, body, 0)


@pytest.mark.parametrize("model, excluded, failing", [
    # the dial lists 0-2, then 3-5; the third run asks for 4, listed
    # after the first-position index last grew
    ("dial", (2, 5, 4), ()),
    # the first run lists all of lock(2), and 11 fails for the second:
    # its first predecessor is 1 at position 1, its last 10
    ("lock2", (100, 99), (11,)),
])
def test_walk_indexes_follow_the_walk(model, excluded, failing):
    system = dial_model() if model == "dial" else lock_model(2)
    props = [Property(str(v), ASSERT, neq_body(system, v)) for v in excluded]
    known_F = {(y, props[-1].body) for y in failing}
    walked, _, _ = check_many(system, 0, props, KnowledgeBase(F=known_F),
                              ClosureConfig())
    searched, _ = searched_check_many(system, 0, props,
                                      KnowledgeBase(F=known_F),
                                      ClosureConfig(), DEFAULT_MAX_PAIRS)
    assert [(v.outcome, v.counterexample, v.witness, v.stats)
            for _, v in walked] == [(v.outcome, v.counterexample, v.witness,
                                     v.stats) for _, v in searched]

def prefix_classes(system, k):
    """Each state's class of depth-k behaviour prefixes, by k rounds of
    naive refinement over all states: a state's depth-d class is its
    value with its successors' depth-(d-1) classes."""
    states = range(system.size)
    ids = [system.observe_value(x) for x in states]
    for _ in range(k):
        index = {}
        ids = [index.setdefault((system.observe_value(x), tuple(
            ids[system.step(x, i)] for i in system.inputs)), len(index))
            for x in states]
    return ids


@settings(max_examples=200, deadline=None)
@given(systems_and_properties(), st.sampled_from((IMAGE, BOTH, LITERAL)),
       st.booleans())
def test_behaviour_system_keeps_check_many_outcomes(case, mode, implied):
    # with k = n, more rounds than refinement can split blocks of n
    # states, depth-k prefixes are full behaviours, so the behaviour
    # system is the quotient by bisimilarity, and every property holds
    # or fails as on the base system.  Whether it is inferred may
    # differ: knowledge about one state covers its whole class in the
    # quotient.
    system, starts, props = case
    n = system.size
    behaviour = behaviour_system(system, n)
    classes = prefix_classes(system, n)
    for x in range(n):
        for y in range(n):
            assert (behaviour.wrap(x) == behaviour.wrap(y)) == \
                (classes[x] == classes[y]), (x, y)
    assert behaviour.exact
    implication = (formula_similarity([p.body for p in props], system.inputs)
                   if implied else None)
    cfg = ClosureConfig(implication=implication, failure_mode=mode)
    for x0 in starts:
        base, _, _ = check_many(system, x0, props, KnowledgeBase(), cfg)
        quotient, _, _ = check_many(behaviour, behaviour.wrap(x0), props,
                                    KnowledgeBase(), cfg)
        assert [(v.holds(), v.fails()) for _, v in quotient] == \
            [(v.holds(), v.fails()) for _, v in base]


@settings(max_examples=300, deadline=None)
@given(systems_and_properties(), st.data())
def test_behaviour_system_refines_to_prefix_classes_in_any_wrap_order(case,
                                                                      data):
    # each wrap of a state not listed yet extends the list and refines
    # again; the states wrapped before keep their objects
    system = case[0]
    n = system.size
    k = data.draw(st.integers(0, n + 1), label="k")
    order = data.draw(st.permutations(range(n)), label="order")
    behaviour = behaviour_system(system, k)
    wrapped = {}
    for x in order:
        state = behaviour.wrap(x)
        for y, earlier in wrapped.items():
            assert behaviour.wrap(y) is earlier, (x, y)
        wrapped[x] = state
    classes = prefix_classes(system, k)
    for x in range(n):
        for y in range(n):
            assert (wrapped[x] is wrapped[y]) == \
                (classes[x] == classes[y]), (x, y)
    states = set(wrapped.values())
    assert len({state.pid for state in states}) == len(states)
    # every state is listed, so the partition is stable exactly when one
    # more round of refinement splits no class
    assert behaviour.exact == \
        (len(set(classes)) == len(set(prefix_classes(system, k + 1))))


def ring10():
    """Ten states in a ring, showing 1 only at state 9."""
    space = FiniteSpace(frozenset((0, 1)))
    ring = System("ring", ("*",), lambda x: int(x == 9),
                  lambda x, i: (x + 1) % 10, observation_space=space)
    ring.input_pred = Universe(FiniteSpace(frozenset(ring.inputs)))
    return ring


def test_behaviour_system_of_a_ring_at_depth_n_fails_like_the_ring():
    # G <{0}> fails from 0, and the behaviour system at depth 10 tells
    # all ten states apart
    ring = ring10()
    body = TABLE.mk_always(TABLE.mk_obs(FiniteSet(
        ring.observation_space, frozenset((0,)))), ring.input_pred)
    behaviour = behaviour_system(ring, 10)
    for system, x0 in ((ring, 0), (behaviour, behaviour.wrap(0))):
        v, _ = verify(system, x0, body, *fresh())
        assert (v.outcome, v.stats.pairs_explored) == (FAILS, 10)


def test_behaviour_system_tells_whether_its_quotient_is_exact():
    # at depth 2 states 0-6 share one class, though they differ at
    # depth 9, so a verdict on that quotient need not hold of the ring
    for k, exact in ((2, False), (10, True)):
        behaviour = behaviour_system(ring10(), k)
        behaviour.wrap(0)
        assert behaviour.exact is exact, k


def two_copies(base):
    """base twice over, as states (copy, x), counting its step and
    successors calls: a wrap in the second copy adds a new root."""
    calls = {"step": 0, "successors": 0}

    def step(x, i):
        calls["step"] += 1
        return (x[0], base.step(x[1], i))

    def successors(x):
        calls["successors"] += 1
        return tuple((x[0], y) for y in base.successors(x[1]))

    system = System("2x" + base.name, base.inputs,
                    lambda x: base.observe_value(x[1]), step,
                    observation_space=base.observation_space,
                    successors=successors)
    return system, calls


@pytest.mark.parametrize("k", range(4))
@pytest.mark.parametrize("case", ("lock", "puzzle", "ring"))
def test_behaviour_successors_look_the_wrapped_states_up(case, k,
                                                         monkeypatch):
    walks = []

    class RecordedWalk(Walk):
        def __init__(self, *args):
            super().__init__(*args)
            walks.append(self)

    monkeypatch.setattr(coalgebra, "Walk", RecordedWalk)
    puzzle = puzzle_model(6)
    base, x0 = {"lock": (lock_model(2), 0),
                "puzzle": (puzzle, puzzle.initial),
                "ring": (ring10(), 0)}[case]
    system, calls = two_copies(base)
    behaviour = behaviour_system(system, k)
    (walk,) = walks
    for copy in (0, 1):
        behaviour.wrap((copy, x0))
        listed = len(walk.states)
        for st in {behaviour.wrap(x) for x in walk.states}:
            calls.update(step=0, successors=0)
            row = behaviour.successors(st)
            # one call of the base's successors, on the representative
            assert calls == {"step": 0, "successors": 1}
            assert row == tuple(behaviour.step(st, i) for i in base.inputs)
            assert row == tuple(map(behaviour.wrap, system.successors(st.rep)))
        assert len(walk.states) == listed
    # the second wrap listed the second copy whole
    assert [x[0] for x in walk.states] == [0] * (listed // 2) + [1] * (
        listed // 2)


def test_second_check_many_compiles_no_check(monkeypatch):
    lock = lock_model(2)
    props = lock_properties(lock)
    check_many(lock, 0, props, KnowledgeBase(), ClosureConfig())
    compiled = []

    def counting(p):
        compiled.append(p)
        return member_fn(p)

    for module in (formula, importlib.import_module("cosafe.verify")):
        if hasattr(module, "member_fn"):
            monkeypatch.setattr(module, "member_fn", counting)
    results, _, _ = check_many(lock, 0, props, KnowledgeBase(),
                               ClosureConfig())
    assert compiled == []
    assert all(v.holds() for _, v in results)


@pytest.mark.parametrize("where", ("step", "observe"))
def test_behaviour_system_unchanged_when_the_system_raises(where):
    # a 6-ring showing True every third state, a 4-ring (states 6-9)
    # showing True at 6 and 9, and a 2-ring (10-11) showing True only.
    # At depth 2 states 6 and 7 join the classes of 0 and 1, 8, 9 and
    # the 2-ring make three new ones, and 7 splits from 1 at depth 3,
    # so the list of the 6-ring is exact and the list of all is not
    succ = (1, 2, 3, 4, 5, 0, 7, 8, 9, 6, 11, 10)
    base = System("three rings", ("*",), lambda x: x in (0, 3, 6, 9, 10, 11),
                  lambda x, i: succ[x],
                  observation_space=FiniteSpace(frozenset((False, True))))
    base.input_pred = Universe(FiniteSpace(frozenset(base.inputs)))
    fresh_system, _ = flaky(base, None, where)
    expect = behaviour_system(fresh_system, 2)
    for x in (0, 6, 10):
        expect.wrap(x)

    system, _ = flaky(base, 7, where, lambda: None)
    behaviour = behaviour_system(system, 2)
    first = {x: behaviour.wrap(x) for x in range(6)}
    assert behaviour.exact

    def state():
        return ({x: (behaviour.wrap(x), behaviour.wrap(x).pid)
                 for x in range(6)}, behaviour.exact)

    before = state()
    with pytest.raises(RuntimeError):
        behaviour.wrap(6)
    assert state() == before
    # the walk holds the 4-ring partly listed, and lists the rest of it
    # before the 2-ring: the classes and pids are those of a fresh
    # system that wrapped 6 before 10
    behaviour.wrap(10)
    assert behaviour.wrap(6) is first[0]
    assert [behaviour.wrap(x).pid for x in range(12)] == \
        [expect.wrap(x).pid for x in range(12)]
    assert behaviour.exact is expect.exact is False
