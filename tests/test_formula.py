import pytest

from cosafe.formula import (ASSERT, REFUTE, TABLE, TT, Property,
                            formula_similarity)
from cosafe.models import swat_model, swat_properties
from cosafe.predicate import (Complement, FiniteSet, FiniteSpace, Universe,
                              member, member_fn, subset)

SPACE = FiniteSpace(frozenset(range(10)))
INPUTS = ("*",)
IPRED = Universe(FiniteSpace(frozenset(INPUTS)))


def obs_pred(*vals):
    return FiniteSet(SPACE, frozenset(vals))


def test_obs_of_box_is_universe():
    f = TABLE.mk_box(IPRED, TABLE.mk_obs(obs_pred(1)))
    assert TABLE.obs(f) == Universe(SPACE)


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
    tt = TABLE.tt(SPACE)
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
    assert len(TABLE.reachable(TABLE.tt(SPACE), INPUTS)) == 1
    g = TABLE.mk_always(TABLE.mk_obs(obs_pred(1)), IPRED)
    assert len(TABLE.reachable(g, INPUTS)) == 1


def test_table_compiles_each_check_once():
    f = TABLE.mk_obs(obs_pred(1, 2))
    for h in (f, TABLE.mk_always(f, IPRED), TABLE.tt(SPACE),
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
    assert TABLE.is_closed(g)
    assert TABLE.is_guarded(g)
    assert not TABLE.is_closed(TABLE.var(0))
    unguarded = TABLE.mk_nu(TABLE.mk_and([TABLE.mk_obs(obs_pred(1)),
                                          TABLE.var(0)]))
    assert not TABLE.is_guarded(unguarded)
    # G's binder would capture the free v
    with pytest.raises(ValueError):
        TABLE.mk_always(TABLE.mk_box(IPRED, TABLE.var(0)), IPRED)


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
        assert (h, TABLE.tt(SPACE)) in rel


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
    top = TABLE.mk_always(TABLE.tt(SPACE), IPRED)
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
