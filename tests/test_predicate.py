import pytest
from hypothesis import given, settings, strategies as st

from cosafe.predicate import (BoolSpace, Complement, Empty, FiniteSet,
                              FiniteSpace, Intersection, Interval,
                              LinearLink, Product, ProductSpace, ScaledLine,
                              SpaceMismatch, Undecidable, Universe,
                              complement, intersect, member, member_fn,
                              subset, subset_candidates)

SPACE = FiniteSpace(frozenset(range(8)))
LINE = ScaledLine(0.01)


def fs(*vals):
    return FiniteSet(SPACE, frozenset(vals))


preds = st.deferred(lambda: st.one_of(
    st.just(Empty(SPACE)),
    st.just(Universe(SPACE)),
    st.sets(st.integers(0, 7), max_size=8).map(lambda s: fs(*s)),
    st.tuples(st.integers(0, 7), st.integers(0, 7)).map(
        lambda t: Interval(SPACE, min(t), max(t))),
    st.sets(st.integers(0, 7), max_size=8).map(
        lambda s: Complement(SPACE, fs(*s))),
))


def extent(p):
    return frozenset(o for o in range(8) if member(p, o))


@given(preds, preds)
def test_subset_matches_brute_force(p, q):
    assert subset(p, q) == (extent(p) <= extent(q))


@given(preds, preds, preds)
def test_subset_transitive(p, q, r):
    if subset(p, q) and subset(q, r):
        assert subset(p, r)


@given(preds)
def test_subset_reflexive(p):
    assert subset(p, p)


@given(preds, preds, st.integers(0, 7))
def test_member_of_intersection(p, q, o):
    assert member(intersect(p, q), o) == (member(p, o) and member(q, o))


@given(preds, st.integers(0, 7))
def test_complement_flips_membership(p, o):
    assert member(complement(p), o) == (not member(p, o))


@given(preds)
def test_complement_involution(p):
    assert extent(complement(complement(p))) == extent(p)


@given(preds, st.integers(0, 7))
def test_member_fn_agrees_with_member(p, o):
    assert member_fn(p)(o) == member(p, o)


def test_interval_requires_ordered_endpoints():
    with pytest.raises(ValueError):
        Interval(LINE, 5, 3)


def test_interval_member_and_subset():
    a = Interval(LINE, 10, 20)
    b = Interval(LINE, 5, 25)
    assert member(a, 10) and member(a, 20) and not member(a, 21)
    assert subset(a, b) and not subset(b, a)
    assert intersect(a, b) == a
    assert isinstance(intersect(a, Interval(LINE, 30, 40)), Empty)


def test_interval_subset_without_enumeration():
    # 10^12 points: only the endpoint rules can decide these in time
    wide = Interval(ScaledLine(), 0, 10 ** 12)
    assert subset(wide, Interval(ScaledLine(), -1, 10 ** 12 + 1))
    assert not subset(wide, Interval(ScaledLine(), 1, 10 ** 12 + 1))
    assert subset(wide, Complement(ScaledLine(), FiniteSet(
        ScaledLine(), frozenset((-1, 10 ** 12 + 1)))))
    assert not subset(wide, Complement(ScaledLine(), FiniteSet(
        ScaledLine(), frozenset((-1, 7)))))
    # a one-point interval fits a finite set holding its point
    assert subset(Interval(LINE, 5, 5), FiniteSet(LINE, frozenset((5, 6))))
    assert not subset(Interval(LINE, 5, 6), FiniteSet(LINE, frozenset((5,))))


def test_space_mismatch_rejected():
    other = FiniteSpace(frozenset(range(3)))
    with pytest.raises(SpaceMismatch):
        intersect(fs(1), FiniteSet(other, frozenset((1,))))


def test_undecidable_raised_for_uncovered_query():
    # two distinct linear links over an infinite line have no exact rule
    ps = ProductSpace((LINE, LINE))
    a = LinearLink(ps, src=0, dst=1, factor=5)
    b = LinearLink(ps, src=0, dst=1, factor=7)
    with pytest.raises(Undecidable):
        subset(a, b)


def test_undecidable_names_its_query_when_printed():
    ps = ProductSpace((LINE, LINE))
    a = LinearLink(ps, src=0, dst=1, factor=5)
    b = LinearLink(ps, src=0, dst=1, factor=7)
    with pytest.raises(Undecidable) as err:
        subset(a, b)
    assert err.value.args == (a, b)
    assert str(err.value) == "no exact subset rule for %r <= %r" % (a, b)
    assert str(Undecidable("cannot enumerate an infinite space")) == \
        "cannot enumerate an infinite space"


@given(st.sets(st.integers(0, 10), max_size=5),
       st.sets(st.integers(0, 10), max_size=5))
def test_cofinite_pairs_decided_on_their_sets(a, b):
    # values 8..10 lie outside SPACE: only the space's points count there
    p, q = Complement(SPACE, fs(*a)), Complement(SPACE, fs(*b))
    assert subset(p, q) == (extent(p) <= extent(q))
    p, q = (Complement(LINE, FiniteSet(LINE, frozenset(v))) for v in (a, b))
    assert subset(p, q) == (b <= a)


def test_product_space_finiteness_is_kept():
    bits = ProductSpace((BoolSpace(), BoolSpace()))
    assert bits.is_finite() and bits.is_finite()
    assert not ProductSpace((LINE, BoolSpace())).is_finite()
    fresh = ProductSpace((BoolSpace(), BoolSpace()))
    assert bits == fresh and hash(bits) == hash(fresh) and repr(bits) == repr(fresh)


def test_product_componentwise():
    ps = ProductSpace((LINE, LINE, BoolSpace()))
    p = Product(ps, (Interval(LINE, 0, 10), Universe(LINE),
                     FiniteSet(BoolSpace(), frozenset((True,)))))
    q = Product(ps, (Interval(LINE, 0, 20), Universe(LINE),
                     Universe(BoolSpace())))
    assert member(p, (5, 999, True))
    assert not member(p, (5, 999, False))
    assert not member(p, (11, 0, True))
    assert subset(p, q) and not subset(q, p)



def test_universe_below_a_product_that_covers_every_component():
    water = ProductSpace((LINE, LINE, BoolSpace()))
    covering = Product(water, (
        Universe(LINE), Complement(LINE, FiniteSet(LINE, frozenset())),
        FiniteSet(BoolSpace(), frozenset((False, True)))))
    for source in (Universe(water), Universe(None)):
        assert subset(source, covering)
    # the pair is a candidate, as subset may hold on it
    assert (0, 1) in set(subset_candidates([Universe(water), covering]))
    level = Product(water, (Interval(LINE, 0, 5), Universe(LINE),
                            Universe(BoolSpace())))
    with pytest.raises(Undecidable):
        subset(Universe(water), level)

def test_product_arity_checked():
    ps = ProductSpace((LINE, LINE))
    with pytest.raises(ValueError):
        Product(ps, (Universe(LINE),))


def test_linear_link_membership():
    ps = ProductSpace((LINE, LINE, BoolSpace()))
    link = LinearLink(ps, src=0, dst=1, factor=5)
    assert member(link, (100, 500, True))
    assert not member(link, (100, 499, True))


def test_linear_link_interval_rule():
    # with dst = 5 * src and src in [200, 1000], dst lies in [1000, 5000]
    ps = ProductSpace((LINE, LINE, BoolSpace()))
    link = LinearLink(ps, src=0, dst=1, factor=5)
    src_bound = Product(ps, (Interval(LINE, 200, 1000), Universe(LINE),
                             Universe(BoolSpace())))
    both = intersect(link, src_bound)
    dst_ok = Product(ps, (Universe(LINE), Interval(LINE, 1000, 5000),
                          Universe(BoolSpace())))
    dst_tight = Product(ps, (Universe(LINE), Interval(LINE, 1000, 4999),
                             Universe(BoolSpace())))
    assert subset(both, dst_ok)
    assert not subset(both, dst_tight)


PRODUCT_SPACE = ProductSpace((SPACE, SPACE, SPACE))
components = st.one_of(st.just(Universe(SPACE)), preds)
products = st.tuples(components, components, components).map(
    lambda cs: Product(PRODUCT_SPACE, cs))
links = st.builds(lambda src, dst, k: LinearLink(PRODUCT_SPACE, src, dst, k),
                  st.integers(0, 2), st.integers(0, 2), st.integers(0, 2))
product_preds = st.one_of(
    products,
    products.map(lambda p: Complement(PRODUCT_SPACE, p)),
    st.tuples(products, links).map(
        lambda parts: Intersection(PRODUCT_SPACE, parts)),
)


@given(product_preds, st.tuples(*[st.integers(0, 7)] * 3))
def test_member_fn_matches_member_on_products(p, o):
    assert member_fn(p)(o) == member(p, o)


VALUES = FiniteSpace(frozenset(range(4)))
PAIR_SPACE = ProductSpace((VALUES, VALUES))
NESTED_SPACE = ProductSpace((VALUES, PAIR_SPACE, VALUES))


def nested_preds(space, depth=2):
    """Random predicates over space: every kind, Products nested in
    Products, and Complements and Intersections of 2-3 parts up to the
    given depth.  Values are few, so observations often meet a bound;
    Hypothesis favours the first choices, so they constrain most."""
    if isinstance(space, ProductSpace):
        scalar = [k for k, c in enumerate(space.components)
                  if not isinstance(c, ProductSpace)]
        leaves = [st.builds(
            lambda src, dst, k: LinearLink(space, src, dst, k),
            st.sampled_from(scalar), st.sampled_from(scalar),
            st.integers(0, 2))]
        if depth:
            leaves.insert(0, st.tuples(*[
                nested_preds(c, depth - 1) for c in space.components]).map(
                    lambda cs: Product(space, cs)))
    else:
        leaves = [st.tuples(st.integers(0, 3), st.integers(0, 3)).map(
                      lambda t: Interval(space, min(t), max(t))),
                  st.sets(st.integers(0, 3), max_size=4).map(
                      lambda s: FiniteSet(space, frozenset(s)))]
    leaves += [st.just(Universe(space)), st.just(Empty(space))]
    if not depth:
        return st.one_of(leaves)
    inner = nested_preds(space, depth - 1)
    return st.one_of(
        *leaves,
        inner.map(lambda p: Complement(space, p)),
        st.sampled_from((2, 3)).flatmap(
            lambda n: st.tuples(*[inner] * n)).map(
                lambda parts: Intersection(space, parts)))


def observations(space):
    if isinstance(space, ProductSpace):
        return st.tuples(*map(observations, space.components))
    return st.integers(0, 3)


cases = st.sampled_from((VALUES, PAIR_SPACE, NESTED_SPACE)).flatmap(
    lambda space: st.tuples(nested_preds(space),
                            st.lists(observations(space), max_size=12)))


@settings(max_examples=300)
@given(cases, st.integers(0, 14), st.integers(0, 14))
def test_compiled_check_agrees_with_member(case, start, stop):
    # stop may lie before start or past the end of obs
    p, obs = case
    check = member_fn(p)
    assert [check(o) for o in obs] == [member(p, o) for o in obs]
    misses = [i for i, o in enumerate(obs)
              if start <= i < stop and not member(p, o)]
    assert check.first_miss(obs, start, stop) == (misses[0] if misses
                                                  else None)
