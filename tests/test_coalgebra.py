import pytest

from cosafe.coalgebra import (System, UnknownInput, behaviour_prefix,
                              behaviour_system, iterate)
from cosafe.models import dial_model, lock_model
from cosafe.predicate import FiniteSet, FiniteSpace, member


def test_iterate_is_step_fold():
    d = dial_model()
    assert iterate(d, 0, ()) == 0
    assert iterate(d, 0, ("*",) * 3) == 3
    assert iterate(d, 7, ("*",) * 5) == 2


def test_iterate_rejects_unknown_input():
    d = dial_model()
    with pytest.raises(UnknownInput):
        iterate(d, 0, ("no-such-input",))


def test_successors_default_matches_step():
    d = dial_model()
    assert System.successors(d, 4) == (5,)
    lock = lock_model(2)
    assert lock.successors(0) == (10, 1)


def test_behaviour_prefix_entries():
    d = dial_model()
    p = behaviour_prefix(d, 3, 2)
    assert p[()] == d.observe(3)
    assert p[("*",)] == d.observe(4)
    assert p[("*", "*")] == d.observe(5)
    assert len(p.entries) == 3


def test_behaviour_prefix_step_law():
    # the depth-(k) prefix of x restricted past input i is the depth-(k-1)
    # prefix of step(x, i)
    d = dial_model()
    p = behaviour_prefix(d, 6, 3)
    q = behaviour_prefix(d, 7, 2)
    for w, pred in q.entries.items():
        assert p[("*",) + w] == pred


def test_behaviour_prefix_equality_is_behavioural():
    d = dial_model()
    assert behaviour_prefix(d, 2, 4) == behaviour_prefix(d, 2, 4)
    assert behaviour_prefix(d, 2, 4) != behaviour_prefix(d, 3, 4)


def test_behaviour_system_quotients_by_behaviour():
    d = dial_model()
    b = behaviour_system(d, 10)
    states = {b.wrap(x) for x in range(10)}
    assert len(states) == 10
    # transitions commute with wrapping
    for x in range(10):
        assert b.step(b.wrap(x), "*") == b.wrap(d.step(x, "*"))
        assert b.observe(b.wrap(x)) == d.observe(x)


def test_behaviour_system_identifies_equivalent_states():
    space = FiniteSpace(frozenset((0, 1)))

    # two states with identical behaviour but different identity
    def observe(x):
        return FiniteSet(space, frozenset((x % 2,)))

    def step(x, i):
        return {0: 1, 1: 0, 2: 3, 3: 2}[x]

    s = System("twin", ("*",), observe, step, observation_space=space)
    b = behaviour_system(s, 5)
    assert b.wrap(0) == b.wrap(2)
    assert b.wrap(1) == b.wrap(3)
    assert b.wrap(0) != b.wrap(1)
