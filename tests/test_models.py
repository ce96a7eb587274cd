import pytest

from cosafe.closure import ClosureConfig, KnowledgeBase
from cosafe.models import (Q, R, S, SwatParams, attack_kinds, dial_model,
                           lock_model, lock_properties, puzzle_model,
                           puzzle_property, swat_attacks, swat_model,
                           swat_properties)
from cosafe.verify import check_property


def test_dial_steps_and_observation():
    d = dial_model()
    assert d.step(9, "*") == 0
    assert d.observe_value(4) == 4


def test_lock_inputs_increment_one_dial_each():
    lock = lock_model(4)
    assert lock.step(0, 0) == 1000
    assert lock.step(0, 3) == 1
    assert lock.step(1239, 3) == 1230  # last dial wraps alone
    assert lock.step(9999, 0) == 999
    assert lock.successors(1234) == (2234, 1334, 1244, 1235)


def test_models_of_one_size_share_their_observation_space():
    # re-interning a property then finds its node by identity, not by
    # comparing two 10^4-element value sets
    a, b = lock_model(4), lock_model(4)
    assert a.observation_space.values is b.observation_space.values
    assert dial_model().observation_space is lock_model(1).observation_space
    pa, pb = lock_properties(a), lock_properties(b)
    assert [p.body for p in pa] == [p.body for p in pb]


def test_lock_every_code_reachable_within_36_steps():
    lock = lock_model(4)
    dist = {0: 0}
    frontier = [0]
    depth = 0
    while frontier:
        depth += 1
        nxt = []
        for x in frontier:
            for y in lock.successors(x):
                if y not in dist:
                    dist[y] = depth
                    nxt.append(y)
        frontier = nxt
    assert len(dist) == 10 ** 4
    assert max(dist.values()) == 36  # code 9999: nine turns per dial


def puzzle_reachable(sys_):
    seen = {sys_.initial}
    frontier = [sys_.initial]
    while frontier:
        x = frontier.pop()
        for i in sys_.inputs:
            y = sys_.step(x, i)
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


def test_puzzle_read_add_write_cycle():
    p = puzzle_model(20)
    x = p.initial
    assert x == ((Q, 0), (Q, 0), 1)
    x = p.step(x, 1)
    assert x == ((R, 1), (Q, 0), 1)  # read: n1 := c
    x = p.step(x, 1)
    assert x == ((S, 2), (Q, 0), 1)  # add: n1 := n1 + c
    x = p.step(x, 1)
    assert x == ((Q, 2), (Q, 0), 2)  # write: c := n1


def test_puzzle_read_blocked_at_max():
    p = puzzle_model(20)
    x = ((Q, 0), (Q, 0), 20)
    assert p.step(x, 1) == x  # c has reached MAX: no new read starts


def test_puzzle_property_matches_reachable_accumulators():
    p = puzzle_model(20)
    reachable_c = {x[2] for x in puzzle_reachable(p)}
    assert 1 in reachable_c and 2 in reachable_c
    for n in (1, 2, 3, 17, 20, 21, 25, 40):
        kb = KnowledgeBase()
        v, _ = check_property(p, p.initial, puzzle_property(p, n), kb,
                              ClosureConfig())
        assert v.holds() == (n in reachable_c), n


def test_swat_initial_step():
    s = swat_model()
    p = s.params
    x = s.initial
    assert x == (50000, 50000, 250000, True)
    y = s.step(x, "*")
    # valve open: net inflow 0.46 - 0.44 = +0.02 per step (2 quanta)
    assert y == (50002, 50000, 250000, True)
    assert s.observe_value(y) == (50002, 250010, True)


def test_swat_quantum_must_leave_one_quantum_per_unit():
    for quantum in (2, 5.0, float("inf"), 0, -0.01, float("nan")):
        with pytest.raises(ValueError):
            SwatParams(quantum=quantum)
    assert SwatParams(quantum=1.5).scale == 1
    assert SwatParams(quantum=0.01).scale == 100


def test_swat_valve_hysteresis():
    s = swat_model()
    p = s.params
    # stored reading above hi closes the valve
    _, _, _, v = s.step((80000, p.hi_q + 1, 5 * (p.hi_q + 1), True), "*")
    assert v is False
    # below lo opens it
    _, _, _, v = s.step((50000, p.lo_q - 1, 5 * (p.lo_q - 1), False), "*")
    assert v is True
    # in the deadband it holds
    _, _, _, v = s.step((60000, 60000, 300000, False), "*")
    assert v is False


def test_swat_unattacked_trajectory_consistent_bounded_periodic():
    s = swat_model()
    p = s.params
    g = p.g
    x = s.initial
    seen = {x: 0}
    for k in range(1, 200000):
        x = s.step(x, "*")
        t, lit, hg, valve = x
        assert hg == g * lit  # stored readings stay hydrostatic
        assert p.level_lo_q <= t <= p.level_hi_q
        if x in seen:
            break
        seen[x] = k
    else:
        raise AssertionError("no revisit found")
    assert x in seen  # the closed orbit was entered


def test_swat_properties_shapes():
    s = swat_model()
    props = swat_properties(s)
    assert set(props) == {"Hydro", "Lvl", "Hg", "Con"}
    for prop in props.values():
        assert prop.polarity == "assert"


def test_swat_attack_values_at_initial_state():
    s = swat_model()
    atk = swat_attacks(s, b_bias=200, b_stealth=500)
    x = s.initial
    assert atk["alpha"].state_transform(x) == (50000, 120000, 250000, True)
    assert atk["beta"].state_transform(x) == (50000, 70000, 250000, True)
    # stealthy fakes the pressure to match the spoofed level
    assert atk["gamma"].state_transform(x) == (50000, 100000, 500000, True)


def test_attack_kinds_registry():
    assert set(attack_kinds(swat_model())) == {"surge", "bias", "stealthy"}
    d_kinds = attack_kinds(dial_model())
    assert set(d_kinds) == {"force_obs", "force_state"}
    assert attack_kinds(lock_model(2)) == {}
    a = d_kinds["force_state"]({"value": 3})
    assert a.state_transform(7) == 3
