import pytest
from hypothesis import given, settings, strategies as st

from cosafe.closure import ClosureConfig, KnowledgeBase
from cosafe.formula import (AND, ASSERT, BOX, NU, REFUTE, TABLE, TT, VAR,
                            Property, formula_similarity)
from cosafe.models import lock_model, swat_model, swat_properties
from cosafe.predicate import (Complement, FiniteSet, FiniteSpace, Universe,
                              member, member_fn, subset)
from cosafe.syntax import SyntaxContext, parse_property
from cosafe.verify import HOLDS, check_many

SPACE = FiniteSpace(frozenset(range(10)))
INPUTS = ("*",)
IPRED = Universe(FiniteSpace(frozenset(INPUTS)))


def obs_pred(*vals):
    return FiniteSet(SPACE, frozenset(vals))


def test_obs_of_box_is_universe():
    # the any-predicate, which names no space
    f = TABLE.mk_box(IPRED, TABLE.mk_obs(obs_pred(1)))
    assert TABLE.obs(f) == TABLE.obs(TABLE.tt()) == Universe(None)
    assert subset(TABLE.obs(f), Universe(SPACE))
    assert subset(Universe(SPACE), TABLE.obs(f))


def test_obs_of_obs_is_the_predicate():
    q = obs_pred(1, 2)
    assert TABLE.obs(TABLE.mk_obs(q)) == q


def test_obs_of_always():
    q = obs_pred(3, 4)
    g = TABLE.mk_always(TABLE.mk_obs(q), IPRED)
    assert TABLE.obs(g) == q


def test_next_of_obs_is_tt():
    f = TABLE.mk_obs(obs_pred(1))
    assert TABLE.node(TABLE.next(f, "*"))[0] == TT


def test_next_of_box_outside_input_set_is_tt():
    narrow = FiniteSet(FiniteSpace(frozenset(("a", "b"))), frozenset(("a",)))
    body = TABLE.mk_obs(obs_pred(1))
    f = TABLE.mk_box(narrow, body)
    assert TABLE.next(f, "a") == body
    assert TABLE.node(TABLE.next(f, "b"))[0] == TT


def test_next_of_always_is_itself():
    g = TABLE.mk_always(TABLE.mk_obs(obs_pred(5)), IPRED)
    assert TABLE.next(g, "*") == g


def test_conjunction_normalization():
    f = TABLE.mk_obs(obs_pred(1))
    g = TABLE.mk_obs(obs_pred(2))
    tt = TABLE.tt()
    assert TABLE.mk_and([tt, f]) == f
    assert TABLE.mk_and([f, tt]) == f
    assert TABLE.mk_and([f, f]) == f
    assert TABLE.mk_and([TABLE.mk_and([f, g]), f]) == TABLE.mk_and([f, g])


def test_obs_universe_normalizes_to_tt():
    assert TABLE.node(TABLE.mk_obs(Universe(SPACE)))[0] == TT


def test_hash_consing_shares_ids():
    a = TABLE.mk_always(TABLE.mk_obs(obs_pred(7)), IPRED)
    b = TABLE.mk_always(TABLE.mk_obs(obs_pred(7)), IPRED)
    assert a == b


def test_size_examples():
    # itself and tt
    assert len(TABLE.reachable(TABLE.mk_obs(obs_pred(1)), INPUTS)) == 2
    assert len(TABLE.reachable(TABLE.tt(), INPUTS)) == 1
    g = TABLE.mk_always(TABLE.mk_obs(obs_pred(1)), IPRED)
    assert len(TABLE.reachable(g, INPUTS)) == 1


def test_table_compiles_each_check_once():
    f = TABLE.mk_obs(obs_pred(1, 2))
    for h in (f, TABLE.mk_always(f, IPRED), TABLE.tt(),
              TABLE.mk_obs(Complement(SPACE, obs_pred(3)))):
        check = TABLE.check(h)
        assert TABLE.check(h) is check
        compiled = member_fn(TABLE.obs(h))
        for v in range(10):
            assert check(v) == compiled(v) == member(TABLE.obs(h), v), (h, v)


def test_reachable_is_kept_per_alphabet():
    inputs = FiniteSpace(frozenset((0, 1)))
    f = TABLE.mk_box(FiniteSet(inputs, frozenset((0,))),
                     TABLE.mk_obs(obs_pred(1)))
    # [{0}] <Q>: under input 1 only tt follows; under 0, <Q> too
    one, both = TABLE.reachable(f, (1,)), TABLE.reachable(f, (0, 1))
    assert (len(one), len(both)) == (2, 3)
    assert type(one) is frozenset and type(both) is frozenset
    assert TABLE.reachable(f, (1,)) is one


def test_closed_and_guarded():
    g = TABLE.mk_always(TABLE.mk_obs(obs_pred(1)), IPRED)
    assert TABLE.shape(g) == (True, True)
    assert TABLE.shape(TABLE.var(0)) == (False, True)
    unguarded = TABLE.mk_nu(TABLE.mk_and([TABLE.mk_obs(obs_pred(1)),
                                          TABLE.var(0)]))
    assert TABLE.shape(unguarded) == (True, False)
    assert TABLE.shape(g) is TABLE.shape(g)
    # G's binder would capture the free v
    with pytest.raises(ValueError):
        TABLE.mk_always(TABLE.mk_box(IPRED, TABLE.var(0)), IPRED)


def reference_shape(fid):
    """(closed, guarded) from the definitions: list every occurrence of a
    variable with the tags on its path from the root; v_k is bound by the
    (k+1)-th nu above it, and guarded when a box lies between the two."""
    closed = guarded = True
    todo = [(fid, ())]
    while todo:
        f, path = todo.pop()
        node = TABLE.node(f)
        if node[0] == VAR:
            binders = [j for j, tag in enumerate(path) if tag == NU]
            if len(binders) <= node[1]:
                closed = False
            elif BOX not in path[binders[-1 - node[1]]:]:
                guarded = False
        elif node[0] == BOX:
            todo.append((node[2], path + (BOX,)))
        elif node[0] == NU:
            todo.append((node[1], path + (NU,)))
        elif node[0] == AND:
            todo.extend((g, path + (AND,)) for g in node[1])
    return closed, guarded


def _formulae(leaves, boxes=st.just(IPRED)):
    return st.recursive(leaves, lambda kids: st.one_of(
        st.tuples(boxes, kids).map(lambda box: TABLE.mk_box(*box)),
        kids.map(TABLE.mk_nu),
        st.lists(kids, min_size=2, max_size=3).map(TABLE.mk_and)),
        max_leaves=8)


FORMULAE = _formulae(st.one_of(
    st.integers(0, 2).map(TABLE.var),
    st.integers(0, 9).map(lambda n: TABLE.mk_obs(obs_pred(n))),
    st.just(TABLE.tt())))


@settings(max_examples=300, deadline=None)
@given(FORMULAE)
def test_shape_matches_the_definitions(f):
    assert TABLE.shape(f) == reference_shape(f)
    closed, guarded = TABLE.shape(f)
    if closed:
        assert TABLE.shape(TABLE.mk_always(f, IPRED)) == (True, guarded)
    else:
        with pytest.raises(ValueError):
            TABLE.mk_always(f, IPRED)


def test_one_tt_for_an_observation_and_an_excluding_box():
    # <.!=5> is tt after any input, and nu v. [{0}] v is tt after 1:
    # both reach the one tt, so lock(2) explores 111 pairs, not 211
    lock = lock_model(2)
    prop = parse_property("<.!=5> & nu v. [{0}] v",
                          SyntaxContext(lock.observation_space,
                                        lock.input_pred))
    reach = TABLE.reachable(prop.body, lock.inputs)
    assert len(reach) == 3
    assert [TABLE.node(f) for f in reach].count((TT,)) == 1
    (_, v), = check_many(lock, 0, [prop], KnowledgeBase(),
                         ClosureConfig(()))[0]
    assert (v.outcome, v.stats.pairs_explored) == (HOLDS, 111)


def test_unfold_preserves_obs_and_next():
    g = TABLE.mk_always(TABLE.mk_obs(obs_pred(2, 3)), IPRED)
    u = TABLE.unfold(g)
    assert TABLE.obs(u) == TABLE.obs(g)
    for i in INPUTS:
        assert TABLE.next(u, i) == TABLE.next(g, i)


def similarity_universe(rel, formulas):
    univ = set()
    for f in formulas:
        univ |= TABLE.reachable(f, INPUTS)
    return univ


def test_similarity_is_reflexive_and_has_tt_top():
    f = TABLE.mk_always(TABLE.mk_obs(obs_pred(1)), IPRED)
    g = TABLE.mk_obs(obs_pred(1, 2))
    rel = formula_similarity([f, g], INPUTS)
    for h in similarity_universe(rel, [f, g]):
        assert (h, h) in rel
        assert (h, TABLE.tt()) in rel


def test_similarity_is_a_simulation_and_transitive():
    f = TABLE.mk_always(TABLE.mk_obs(obs_pred(1, 2)), IPRED)
    g = TABLE.mk_always(TABLE.mk_obs(obs_pred(1, 2, 3)), IPRED)
    h = TABLE.mk_obs(obs_pred(1))
    rel = formula_similarity([f, g, h], INPUTS)
    assert (f, g) in rel and (g, f) not in rel
    assert (h, f) not in rel  # h's successor tt is above f's successor
    for (a, b) in rel:
        assert subset(TABLE.obs(a), TABLE.obs(b))
        for i in INPUTS:
            assert (TABLE.next(a, i), TABLE.next(b, i)) in rel
    for (a, b) in rel:
        for (c, d) in rel:
            if b == c:
                assert (a, d) in rel


def test_similarity_with_g_tt():
    # G tt names no observation space (nu v. [I] v), yet compares with
    # formulae that do: everything implies it
    top = TABLE.mk_always(TABLE.tt(), IPRED)
    f = TABLE.mk_always(TABLE.mk_obs(Complement(SPACE, obs_pred(3))), IPRED)
    assert formula_similarity([top, f], INPUTS) == {
        (top, top), (f, f), (f, top)}


def test_swat_level_implies_pressure():
    sys_ = swat_model()
    props = swat_properties(sys_)
    rel = formula_similarity([props["Lvl"].body, props["Hg"].body],
                             sys_.inputs)
    assert (props["Lvl"].body, props["Hg"].body) in rel
    assert (props["Hg"].body, props["Lvl"].body) not in rel
    # the whole relation over the four properties, besides reflexivity
    names = {p.body: name for name, p in props.items()}
    rel = formula_similarity(list(names), sys_.inputs)
    assert {(names[f], names[g]) for f, g in rel if f != g} == {
        ("Lvl", "Hg"), ("Lvl", "Hydro")}
    assert all((f, f) in rel for f in names)


def test_property_polarity_validated():
    body = TABLE.mk_obs(obs_pred(1))
    assert Property("p", ASSERT, body).polarity == ASSERT
    assert Property("p", REFUTE, body).polarity == REFUTE
    with pytest.raises(ValueError):
        Property("p", "maybe", body)
