"""Implication discovery and property ordering against their all-pairs
references (tests/reference_similarity.py): the relation and the order
must be exactly the references', on drawn formulae over finite and
product spaces, on the edge cases the candidate index must not skip, and
on the models."""

import time

import pytest
from hypothesis import example, given, settings, strategies as st

import reference_similarity as ref
from test_formula import _formulae
from cosafe.formula import (ANY, ASSERT, TABLE, Property,
                            formula_similarity)
from cosafe.models import (dial_model, lock_model, lock_properties,
                           puzzle_model, puzzle_property, swat_model,
                           swat_properties)
from cosafe.predicate import (BoolSpace, Complement, Empty, FiniteSet,
                              FiniteSpace, Intersection, Interval,
                              LinearLink, Product, ProductSpace, ScaledLine,
                              SpaceMismatch, Universe)
from cosafe.syntax import SyntaxContext, parse_formula
from cosafe.verify import order_properties

INPUTS = ("a", "b")
ISPACE = FiniteSpace(frozenset(INPUTS))
BOXES = st.sampled_from([Universe(ISPACE)] + [
    FiniteSet(ISPACE, frozenset(s)) for s in ((), ("a",), ("b",))])

DIGITS = FiniteSpace(frozenset(range(4)))
LINE = ScaledLine(1.0)
BOOL = BoolSpace()
WATER = ProductSpace((LINE, LINE, BOOL))   # infinite, like the water plant's
BITS = ProductSpace((BOOL, BOOL))          # finite: subset enumerates it


def _sets(values, max_size=3):
    return st.frozensets(st.sampled_from(values), max_size=max_size)


def _scalar(space, values):
    """FiniteSet, Complement, Interval, Empty and Universe over space;
    values may lie outside it."""
    return st.one_of(
        _sets(values).map(lambda v: FiniteSet(space, v)),
        _sets(values).map(lambda v: Complement(space, FiniteSet(space, v))),
        st.tuples(st.sampled_from(values), st.sampled_from(values)).map(
            lambda b: Interval(space, min(b), max(b))),
        st.just(Empty(space)), st.just(Universe(space)))


def _component(space):
    if space == BOOL:
        # both sets of no points and both covering sets among them
        bools = st.sampled_from([frozenset(), frozenset((False,)),
                                 frozenset((True,)), frozenset((False, True))])
        return st.one_of(
            st.just(Universe(BOOL)), bools.map(lambda v: FiniteSet(BOOL, v)),
            bools.map(lambda v: Complement(BOOL, FiniteSet(BOOL, v))))
    return _scalar(space, [0, 1, 2, 3, 5, 10])


def _product_preds(space):
    """Product, LinearLink and their Intersections over space, and now
    and then a cofinite set of points."""
    products = st.tuples(*map(_component, space.components)).map(
        lambda cs: Product(space, cs))
    k = range(space.arity)
    links = st.tuples(st.sampled_from(k), st.sampled_from(k),
                      st.sampled_from([1, 2, 5])).filter(
        lambda l: l[0] != l[1]).map(
        lambda l: LinearLink(space, src=l[0], dst=l[1], factor=l[2]))
    parts = st.one_of(products, products, links)
    points = st.tuples(*(st.sampled_from([0, 1] if c != BOOL else
                                         [False, True])
                         for c in space.components))
    return st.one_of(
        parts,
        st.lists(parts, min_size=2, max_size=3).map(
            lambda ps: Intersection(space, tuple(ps))),
        st.frozensets(points, max_size=2).map(
            lambda v: Complement(space, FiniteSet(space, v))))


def _closed(f):
    """f under as many nu v. [I] binders as its free variables need."""
    while not TABLE.shape(f)[0]:
        f = TABLE.mk_nu(TABLE.mk_box(Universe(ISPACE), f))
    return f


def _lists(preds):
    """Lists of closed, guarded formulae over a pool of up to five drawn
    predicates, so that predicates repeat: nested nu, boxes over subsets
    of the inputs and conjunctions."""
    def over(pool):
        obs = st.sampled_from(pool).map(TABLE.mk_obs)
        leaves = st.one_of(obs, obs, st.integers(0, 1).map(TABLE.var),
                           st.just(TABLE.tt()))
        formulae = _formulae(leaves, BOXES).map(_closed).filter(
            lambda f: TABLE.shape(f)[1])
        return st.lists(formulae, min_size=1, max_size=4)
    return st.lists(preds, min_size=1, max_size=5).flatmap(over)


def _same(formulas):
    assert (formula_similarity(formulas, INPUTS)
            == ref.formula_similarity(formulas, INPUTS))


def _obs(*preds):
    return [TABLE.mk_obs(p) for p in preds]


# the edge cases the candidate index must not skip
NO_POINTS = Product(BITS, (FiniteSet(BOOL, frozenset()), Universe(BOOL)))
SECOND_TRUE = Product(BITS, (Universe(BOOL), FiniteSet(BOOL, frozenset((True,)))))
LEVEL = Product(WATER, (Interval(LINE, 0, 5), Universe(LINE), Universe(BOOL)))
EITHER_BOOL = Product(WATER, (Universe(LINE), Universe(LINE),
                              FiniteSet(BOOL, frozenset((False, True)))))


def _cofinite(space, *values):
    return Complement(space, FiniteSet(space, frozenset(values)))


@settings(max_examples=150, deadline=None)
@given(_lists(_scalar(DIGITS, list(range(6)))))
@example(_obs(_cofinite(DIGITS, 1, 2), _cofinite(DIGITS, 1)))
@example(_obs(_cofinite(DIGITS, 0, 1, 2, 3), _cofinite(DIGITS, 5),
              FiniteSet(DIGITS, frozenset())))
def test_relation_matches_reference_on_a_finite_space(formulas):
    _same(formulas)


@settings(max_examples=150, deadline=None)
@given(_lists(_product_preds(WATER)))
@example(_obs(LEVEL, EITHER_BOOL))
def test_relation_matches_reference_on_an_infinite_product(formulas):
    _same(formulas)


@settings(max_examples=150, deadline=None)
@given(_lists(_product_preds(BITS)))
@example(_obs(NO_POINTS, SECOND_TRUE))
def test_relation_matches_reference_on_a_finite_product(formulas):
    _same(formulas)


def _covering(space):
    """Products over space whose every component covers its space."""
    def covers(c):
        if c == BOOL:
            return st.sampled_from([
                Universe(BOOL), FiniteSet(BOOL, frozenset((False, True))),
                Complement(BOOL, FiniteSet(BOOL, frozenset()))])
        return st.sampled_from([Universe(c),
                                Complement(c, FiniteSet(c, frozenset()))])
    return st.tuples(*map(covers, space.components)).map(
        lambda cs: Product(space, cs))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.one_of(_covering(WATER), _product_preds(WATER),
                          st.just(ANY)), min_size=2, max_size=6))
@example([ANY, EITHER_BOOL])
def test_covering_products_match_reference(preds):
    # tt, and a product that constrains no component, imply each other
    _same(_obs(*preds))


def test_covering_product_and_tt_imply_each_other():
    water = swat_model()
    ctx = SyntaxContext(water.observation_space, water.input_pred)
    always = parse_formula("G tt", ctx)
    either = parse_formula("G <(_,_,{true,false})>", ctx)
    rel = formula_similarity([always, either], water.inputs)
    assert {(always, either), (either, always)} <= rel
    assert rel == ref.formula_similarity([always, either], water.inputs)


@settings(max_examples=300, deadline=None)
@given(st.one_of(*(st.lists(preds, min_size=2, max_size=8) for preds in (
    _scalar(DIGITS, list(range(6))), _product_preds(WATER),
    _product_preds(BITS)))))
def test_observations_alone_match_reference(preds):
    # one formula per predicate: the relation is subset on every pair
    _same(_obs(*preds))


@pytest.mark.parametrize("name, preds, below", [
    # no points: below every predicate, whatever it constrains
    ("empty extent", (NO_POINTS, SECOND_TRUE), (NO_POINTS, SECOND_TRUE)),
    # {false, true} covers the bool component: it constrains nothing
    ("covering component", (LEVEL, EITHER_BOOL), (LEVEL, EITHER_BOOL)),
    # leaving out {1, 2} is below leaving out {1}, not the other way
    ("cofinite", (_cofinite(DIGITS, 1, 2), _cofinite(DIGITS, 1)),
     (_cofinite(DIGITS, 1, 2), _cofinite(DIGITS, 1))),
    ("cofinite, no points", (_cofinite(DIGITS, 0, 1, 2, 3, 9),
                             _cofinite(DIGITS, 5)),
     (_cofinite(DIGITS, 0, 1, 2, 3, 9), _cofinite(DIGITS, 5))),
])
def test_edge_cases_keep_their_pair(name, preds, below):
    formulas = _obs(*preds)
    f, g = (TABLE.mk_obs(p) for p in below)
    rel = formula_similarity(formulas, INPUTS)
    assert (f, g) in rel and (g, f) not in rel
    _same(formulas)


def test_tt_and_repeated_predicates():
    p = _cofinite(DIGITS, 2)
    f = TABLE.mk_obs(p)
    formulas = [TABLE.tt(), f,
                TABLE.mk_and([f, TABLE.mk_box(Universe(ISPACE), f)]),
                TABLE.mk_box(FiniteSet(ISPACE, frozenset("a")), f),
                TABLE.mk_nu(TABLE.mk_and([f, TABLE.mk_box(Universe(ISPACE),
                                                          TABLE.var(0))]))]
    _same(formulas)
    rel = formula_similarity(formulas, INPUTS)
    assert all((h, TABLE.tt()) in rel for h, _ in rel)


@pytest.mark.parametrize("first, second", [
    (FiniteSet(DIGITS, frozenset((1,))), LEVEL),
    (LEVEL, NO_POINTS),
    (_cofinite(DIGITS, 1), SECOND_TRUE),
])
def test_two_spaces_raise(first, second):
    formulas = [TABLE.tt(), TABLE.mk_obs(first), TABLE.mk_obs(second)]
    for similarity in (formula_similarity, ref.formula_similarity):
        with pytest.raises(SpaceMismatch):
            similarity(formulas, INPUTS)


@settings(max_examples=150, deadline=None)
@given(_lists(_scalar(DIGITS, list(range(6)))), st.data())
def test_order_matches_reference(formulas, data):
    bodies = data.draw(st.lists(st.sampled_from(formulas), max_size=8))
    props = [Property("p%d" % k, ASSERT, b) for k, b in enumerate(bodies)]
    rel = formula_similarity(formulas, INPUTS)
    assert order_properties(props, rel) == ref.order_properties(props, rel)
    # any relation, with strict cycles and without reflexive pairs
    pairs = data.draw(st.frozensets(st.tuples(st.sampled_from(formulas),
                                              st.sampled_from(formulas))))
    assert (order_properties(props, pairs)
            == ref.order_properties(props, pairs))


def test_order_of_a_strict_cycle():
    # a -> b -> c -> a, none mutual: the cycle is placed in input order,
    # after what its members strictly imply is free to go first
    a, b, c, d = _obs(*(FiniteSet(DIGITS, frozenset((n,))) for n in range(4)))
    props = [Property(name, ASSERT, f)
             for name, f in zip("dcbaa", (d, c, b, a, a))]
    pairs = {(a, b), (b, c), (c, a), (d, c), (a, a)}
    ordered = order_properties(props, pairs)
    assert ordered == ref.order_properties(props, pairs)
    assert sorted(map(id, ordered)) == sorted(map(id, props))


def _same_on_model(sys_, props):
    bodies = [p.body for p in props]
    rel = formula_similarity(bodies, sys_.inputs)
    assert rel == ref.formula_similarity(bodies, sys_.inputs)
    assert order_properties(props, rel) == ref.order_properties(props, rel)


def test_models_match_reference():
    s = swat_model()
    _same_on_model(s, list(swat_properties(s).values()))
    d = dial_model()
    _same_on_model(d, [Property("T", ASSERT, TABLE.mk_always(TABLE.tt(),
                                                            d.input_pred))]
                   + [Property(str(n), ASSERT, TABLE.mk_always(
                       TABLE.mk_obs(_cofinite(d.observation_space, n, n + 1)),
                       d.input_pred)) for n in range(0, 9, 2)])
    lock = lock_model(2)
    _same_on_model(lock, lock_properties(lock))
    puzzle = puzzle_model(3)
    _same_on_model(puzzle, [puzzle_property(puzzle, n) for n in (1, 2, 3, 4)])


def test_lock3_relation_and_order_scale():
    lock = lock_model(3)
    props = lock_properties(lock)
    bodies = [p.body for p in props]
    start = time.perf_counter()
    rel = formula_similarity(bodies, lock.inputs)
    ordered = order_properties(props, rel)
    took = time.perf_counter() - start
    assert rel == {(f, f) for f in bodies}
    assert ordered == props
    # the all-pairs sweep needed more than ten minutes here
    assert took < 60, took
    assert (formula_similarity(bodies[:100], lock.inputs)
            == ref.formula_similarity(bodies[:100], lock.inputs))


def test_lock4_order_without_relation():
    lock = lock_model(4)
    props = lock_properties(lock)
    assert len(props) == 10 ** 4
    assert order_properties(props, frozenset()) == props
