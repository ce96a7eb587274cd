import pytest

from cosafe.coalgebra import System, UnknownInput, behaviour_system, iterate
from cosafe.models import dial_model, lock_model
from cosafe.predicate import FiniteSpace
from prefixes import behaviour_prefix


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
    assert p[()] == 3
    assert p[("*",)] == 4
    assert p[("*", "*")] == 5
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
        assert b.observe_value(b.wrap(x)) == d.observe_value(x)


def test_behaviour_system_identifies_equivalent_states():
    space = FiniteSpace(frozenset((0, 1)))

    # two states with identical behaviour but different identity
    def step(x, i):
        return {0: 1, 1: 0, 2: 3, 3: 2}[x]

    s = System("twin", ("*",), lambda x: x % 2, step, observation_space=space)
    b = behaviour_system(s, 5)
    assert b.wrap(0) == b.wrap(2)
    assert hash(b.wrap(0)) == hash(b.wrap(2))
    assert b.wrap(1) == b.wrap(3)
    assert b.wrap(0) != b.wrap(1)
    assert len({b.wrap(x) for x in range(4)}) == 2


def test_behaviour_states_equal_exactly_when_prefixes_are():
    # observation x % 6 == 0 on a 12-cycle with two inputs: depths 0, 1
    # and 2 split the states into 2, 4 and 6 classes, and x and x + 6
    # behave alike at every depth
    space = FiniteSpace(frozenset((False, True)))

    def step(x, i):
        return (x + i) % 12

    s = System("ring", (1, 3), lambda x: x % 6 == 0, step,
               observation_space=space)
    for k in range(5):
        b = behaviour_system(s, k)
        prefixes = [behaviour_prefix(s, x, k) for x in range(12)]
        for x in range(12):
            for y in range(12):
                assert (b.wrap(x) == b.wrap(y)) == \
                    (prefixes[x] == prefixes[y]), (k, x, y)


def test_behaviour_system_lock_states_are_the_codes():
    lock = lock_model(2)
    b = behaviour_system(lock, 19)
    states = {b.wrap(code) for code in range(100)}
    assert len(states) == 100
    assert {b.observe_value(st) for st in states} == \
        {lock.observe_value(code) for code in range(100)}


def test_behaviour_states_of_two_systems_never_equal():
    # lock(1) is a dial with the dial's observations, so both behaviour
    # systems give equal ids to equal behaviours; their states still
    # differ
    d, lock = dial_model(), lock_model(1)
    bd, bl = behaviour_system(d, 10), behaviour_system(lock, 10)
    for x in range(10):
        assert bd.wrap(x).pid == bl.wrap(x).pid
        assert bd.wrap(x) != bl.wrap(x)
    assert len({bd.wrap(x) for x in range(10)}
               | {bl.wrap(x) for x in range(10)}) == 20
