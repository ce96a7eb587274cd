import pytest
from hypothesis import given, settings, strategies as st

from cosafe.closure import (BOTH, EQUIVARIANT, IMAGE, LITERAL, PRESERVING,
                            REFLECTING, AlgebraicOperator, ClosureConfig, ClosureEngine,
                            KnowledgeBase)
from cosafe.formula import TABLE
from cosafe.models import (dial_model, lock_decode, lock_encode, lock_model,
                           lock_operators, lock_properties, puzzle_model,
                           puzzle_swap)
from cosafe.predicate import Complement, FiniteSet


def neq_formula(sys, v):
    space = sys.observation_space
    return TABLE.mk_always(
        TABLE.mk_obs(Complement(space, FiniteSet(space, frozenset((v,))))),
        sys.input_pred)


def loaded(kb, cfg):
    """A ClosureEngine that has loaded kb, as check_many builds one; its
    sat_hit and fail_hit are the closure's inference queries."""
    engine = ClosureEngine(cfg)
    engine.load(kb)
    return engine


@pytest.fixture(scope="module")
def lock():
    return lock_model(4)


@pytest.fixture(scope="module")
def lock_ops():
    return lock_operators(4)


def test_encode_decode_roundtrip():
    for x in (0, 9, 1234, 9999):
        assert lock_encode(lock_decode(x, 4)) == x
    assert lock_decode(1234, 4) == (1, 2, 3, 4)


def test_shift_maps_state_and_formula(lock, lock_ops):
    shift = lock_ops["shift"]
    x, f = 1234, neq_formula(lock, 1234)
    y, g = shift.apply((x, f))
    assert y == 4123
    assert g == neq_formula(lock, 4123)


def test_add_wraps_last_dial(lock, lock_ops):
    add = lock_ops["add"]
    assert add.state_map(9) == 0
    assert add.state_map(1239) == 1230
    y, g = add.apply((9, neq_formula(lock, 9)))
    assert y == 0 and g == neq_formula(lock, 0)


def test_shift_has_order_four(lock, lock_ops):
    shift = lock_ops["shift"]
    f = neq_formula(lock, 1234)
    pair = (1234, f)
    for _ in range(4):
        pair = shift.apply(pair)
    assert pair == (1234, f)


def test_shift2_is_shift_squared(lock, lock_ops):
    s, s2 = lock_ops["shift"], lock_ops["shift2"]
    for x in (0, 1234, 5678, 9999):
        assert s2.state_map(x) == s.state_map(s.state_map(x))


def test_operators_are_equivariant_with_stepping(lock, lock_ops):
    # op(step(x, i)) == step'(op(x)) for the matching permuted input --
    # for add ops the input is unchanged; for shifts it is rotated.
    import random
    rng = random.Random(7)
    add = lock_ops["add3"]
    shift = lock_ops["shift"]
    for _ in range(200):
        x = rng.randrange(10 ** 4)
        i = rng.randrange(4)
        assert add.state_map(lock.step(x, i)) == lock.step(add.state_map(x), i)
        assert shift.state_map(lock.step(x, i)) == \
            lock.step(shift.state_map(x), (i + 1) % 4)


def test_puzzle_swap_is_equivariant_involution():
    sys_ = puzzle_model(20)
    swap = puzzle_swap()
    x = sys_.initial
    seen = set()
    frontier = [x]
    while frontier and len(seen) < 500:
        y = frontier.pop()
        if y in seen:
            continue
        seen.add(y)
        assert swap.state_map(swap.state_map(y)) == y
        # swapping processes swaps the roles of the two inputs
        assert swap.state_map(sys_.step(y, 1)) == \
            sys_.step(swap.state_map(y), 2)
        frontier.extend(sys_.step(y, i) for i in (1, 2))


def test_knowledge_base_rejects_overlap():
    with pytest.raises(ValueError):
        KnowledgeBase(R=[(0, 1)], F=[(0, 1)])


def test_knowledge_base_keeps_r_as_pairs():
    pairs = [(0, 1), (2, 1), (0, 3), (2, 1)]
    kb = KnowledgeBase(R=pairs, F=[(1, 1)])
    assert kb.R == set(pairs)
    assert repr(kb) == "KnowledgeBase(|R|=3, |F|=1)"
    kb.commit(4, 3)
    kb.commit_all({5, 6, 0}, 7)
    kb.commit_all([6, 8], 7)
    assert kb.R == set(pairs) | {(4, 3), (5, 7), (6, 7), (0, 7), (8, 7)}
    with pytest.raises(AttributeError):
        kb.R = set()


@pytest.mark.parametrize("shifts", [False, True])
def test_engine_writes_through_to_its_knowledge_base(lock, lock_ops, shifts):
    # the engine adopts the knowledge base it loads: each fact it notes
    # lands there, and the engine indexes only the operator images
    f, g, h = (neq_formula(lock, v) for v in (1234, 5678, 9))
    shift = lock_ops["shift"]
    kb = KnowledgeBase(R=[(1, f)])
    engine = loaded(kb, ClosureConfig(operators=[shift] if shifts else []))
    engine.note_satisfied((2, f))
    engine.note_satisfied_everywhere({3, 4}, g)
    engine.note_failed((5, h))
    assert kb.R == {(1, f), (2, f), (3, g), (4, g)}
    assert kb.F == {(5, h)}
    images = {shift.apply(pair) for pair in kb.R} if shifts else set()
    assert {(x, k) for x, ks in engine.sat_index.items() for k in ks} == images
    assert all(engine.sat_hit(pair) for pair in kb.R | images)
    assert engine.fail_hit((5, h))


def test_config_rejects_an_unknown_failure_mode():
    for mode in (LITERAL, IMAGE, BOTH):
        assert ClosureConfig(failure_mode=mode).failure_mode == mode
    with pytest.raises(ValueError) as raised:
        ClosureConfig(failure_mode="imgae")
    for mode in (LITERAL, IMAGE, BOTH, "'imgae'"):
        assert mode in str(raised.value)


def test_infer_satisfied_through_operator_image(lock, lock_ops):
    f = neq_formula(lock, 1234)
    kb = KnowledgeBase(R=[(5678, f)])
    cfg = ClosureConfig(operators=[lock_ops["shift"]], depth=1)
    shift = lock_ops["shift"]
    assert loaded(kb, cfg).sat_hit(shift.apply((5678, f)))
    assert loaded(kb, cfg).sat_hit((5678, f))  # id rule
    assert not loaded(kb, cfg).sat_hit((1111, f))


def test_closure_depth_bounds_derivations(lock, lock_ops):
    f = neq_formula(lock, 1234)
    shift = lock_ops["shift"]
    kb = KnowledgeBase(R=[(5678, f)])
    twice = shift.apply(shift.apply((5678, f)))
    assert not loaded(kb, ClosureConfig(operators=[shift], depth=1)).sat_hit(
        twice)
    assert loaded(kb, ClosureConfig(operators=[shift], depth=2)).sat_hit(
        twice)


def test_depth_zero_is_identity_only(lock, lock_ops):
    f = neq_formula(lock, 1234)
    shift = lock_ops["shift"]
    kb = KnowledgeBase(R=[(5678, f)])
    cfg = ClosureConfig(operators=[shift], depth=0)
    assert loaded(kb, cfg).sat_hit((5678, f))
    assert not loaded(kb, cfg).sat_hit(shift.apply((5678, f)))


def test_infer_failed_image_direction(lock, lock_ops):
    f = neq_formula(lock, 1234)
    shift = lock_ops["shift"]
    kb = KnowledgeBase(F=[(1234, f)])
    cfg = ClosureConfig(operators=[shift], depth=1, failure_mode=IMAGE)
    assert loaded(kb, cfg).fail_hit(shift.apply((1234, f)))
    assert not loaded(kb, cfg).fail_hit(shift.apply((5678, f)))


def test_infer_failed_literal_direction():
    # a preserving-only operator participates in the literal direction
    # (derive from the query) but not in the image direction
    d = dial_model()
    inc = AlgebraicOperator(
        "inc", lambda x: (x + 1) % 10, lambda v: (v + 1) % 10, PRESERVING)
    f = neq_formula(d, 3)
    kb = KnowledgeBase(F=[inc.apply((2, f))])
    lit = ClosureConfig(operators=[inc], depth=1, failure_mode=LITERAL)
    img = ClosureConfig(operators=[inc], depth=1, failure_mode=IMAGE)
    both = ClosureConfig(operators=[inc], depth=1, failure_mode=BOTH)
    assert loaded(kb, lit).fail_hit((2, f))
    assert not loaded(kb, img).fail_hit((2, f))
    assert loaded(kb, both).fail_hit((2, f))


def test_infer_with_implication():
    d = dial_model()
    f = neq_formula(d, 3)
    g = TABLE.tt()
    cfg = ClosureConfig(implication=[(f, g)])
    # satisfaction flows up the implication: f confirmed at 0 gives g
    assert loaded(KnowledgeBase(R=[(0, f)]), cfg).sat_hit((0, g))
    assert not loaded(KnowledgeBase(R=[(0, g)]), cfg).sat_hit((0, f))
    # failure flows down: g failing at 0 refutes f there
    assert loaded(KnowledgeBase(F=[(0, g)]), cfg).fail_hit((0, f))
    assert not loaded(KnowledgeBase(F=[(0, f)]), cfg).fail_hit((0, g))


def test_literal_failure_check_uses_id_and_images(lock, lock_ops):
    # in literal mode the equivariant shift derives from the query: the
    # query fails when it or its shift image is known failing
    f = neq_formula(lock, 1234)
    shift = lock_ops["shift"]
    cfg = ClosureConfig(operators=[shift], depth=1, failure_mode=LITERAL)
    assert loaded(KnowledgeBase(F=[(1234, f)]), cfg).fail_hit((1234, f))
    engine = loaded(KnowledgeBase(F=[shift.apply((1234, f))]), cfg)
    assert engine.fail_hit((1234, f))
    assert not engine.fail_hit((1235, f))


def test_literal_mode_indexes_no_failure_image(lock, lock_ops):
    # literal mode reads only F, so noting a failure indexes the
    # failing pair alone; the image direction indexes its shift image too
    f = neq_formula(lock, 1234)
    shift = lock_ops["shift"]
    pair = (1234, f)
    y, g = shift.apply(pair)
    for mode, index in ((LITERAL, {f: {1234}}),
                        (IMAGE, {f: {1234}, g: {y}}),
                        (BOTH, {f: {1234}, g: {y}})):
        engine = loaded(KnowledgeBase(F=[pair]), ClosureConfig(
            operators=[shift], failure_mode=mode))
        assert engine.fail_index == index, mode
        assert engine.kb.F == {pair}, mode


DIAL = dial_model()
# dial formulae G <. != v>, some of them implying others
DIAL_FORMULAE = [neq_formula(DIAL, v) for v in range(4)]
DIAL_PAIRS = st.tuples(st.integers(0, 9), st.sampled_from(DIAL_FORMULAE))


def rotation(direction):
    return AlgebraicOperator("rot", lambda x: (x + 1) % 10,
                             lambda v: (v + 1) % 10, direction)


@settings(max_examples=300, deadline=None)
@given(st.sets(DIAL_PAIRS, max_size=8),
       st.sets(st.tuples(st.sampled_from(DIAL_FORMULAE),
                         st.sampled_from(DIAL_FORMULAE)), max_size=6),
       st.sampled_from(((), (rotation(EQUIVARIANT),),
                        (rotation(REFLECTING),))),
       st.integers(0, 2), DIAL_PAIRS)
def test_both_mode_without_literal_ops_fails_by_image_alone(F, implication,
                                                            ops, depth,
                                                            query):
    # every failing pair is indexed in fail_index, so with no literal_ops
    # the literal check finds nothing the image check does not, and
    # fail_hit answers by the image check alone
    cfg = ClosureConfig(ops, depth=depth, implication=implication,
                        failure_mode=BOTH)
    engine = loaded(KnowledgeBase(F=F), cfg)
    assert engine.literal_ops == ()
    image = engine.fail_hit_image(query)
    assert engine.fail_hit(query) == image
    assert image or not engine.fail_hit_literal(query)


def test_image_pred_requires_bijective_for_complement():
    const = AlgebraicOperator("const0", lambda x: 0, lambda v: 0,
                              PRESERVING, bijective=False)
    d = dial_model()
    pred = Complement(d.observation_space,
                      FiniteSet(d.observation_space, frozenset((3,))))
    with pytest.raises(ValueError):
        const.image_pred(pred)


def test_operator_without_an_image_rule_derives_nothing():
    # a non-bijective operator has no image of a complement: noting a
    # pair derives only the pair, and the literal check derives nothing
    const = AlgebraicOperator("const0", lambda x: 0, lambda v: 0,
                              EQUIVARIANT, bijective=False)
    d = dial_model()
    f = neq_formula(d, 3)
    kb = KnowledgeBase()
    engine = loaded(kb, ClosureConfig(operators=[const]))
    engine.note_satisfied((5, f))
    engine.note_failed((3, f))
    assert engine.sat_index == {} and kb.R == {(5, f)}
    assert engine.fail_index == {f: {3}}
    lit = ClosureConfig(operators=[const], failure_mode=LITERAL)
    assert not loaded(KnowledgeBase(F=[(3, f)]), lit).fail_hit((4, f))


def test_lock_properties_map_under_operators(lock, lock_ops):
    props = lock_properties(lock)
    f0 = props[1234].body
    assert lock_ops["shift"].map_formula(f0) == props[4123].body
    assert lock_ops["add"].map_formula(f0) == props[1235].body
