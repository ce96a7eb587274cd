import json
import re

import pytest

from cosafe.attacker import (EQUAL, INCOMPARABLE, LESS_CAPABLE, MORE_CAPABLE,
                             Attack, Attacker, CapabilityReport, apply_attack,
                             capabilities, compare, hasse_dot, hierarchy,
                             reports_json)
from cosafe.closure import ClosureConfig, KnowledgeBase
from cosafe.formula import formula_similarity
from cosafe.models import (attack_kinds, dial_model, swat_attacks, swat_model,
                           swat_properties)
from cosafe.verify import order_properties
from prefixes import behaviour_prefix


def test_attack_transforms_compose_after_step():
    d = dial_model()
    atk = Attack("pin3", state_transform=lambda x: 3)
    a = apply_attack(d, atk)
    # the initial observation is truthful; tampering shows from the
    # successor on
    assert a.observe_value(7) == d.observe_value(7)
    assert a.step(7, "*") == 3
    assert a.observe_value is d.observe_value


def test_obs_attack_forces_the_observed_value():
    d = dial_model()
    a = apply_attack(d, Attack("blind", obs_transform=lambda v: 0))
    assert a.observe_value(7) == 0
    assert a.step(7, "*") == 8  # transitions untouched


def test_identity_attack_preserves_behaviour():
    d = dial_model()
    a = apply_attack(d, Attack("noop"))
    for x in range(10):
        assert behaviour_prefix(a, x, 4) == behaviour_prefix(d, x, 4)


def test_obs_forcing_equals_transition_forcing_from_zero():
    # two different tamperings with the same observable effect: forcing
    # every reading to 0 versus redirecting every transition to state 0
    d = dial_model()
    kinds = attack_kinds(d)
    alpha = apply_attack(d, kinds["force_obs"]({"value": 0}))
    beta = apply_attack(d, kinds["force_state"]({"value": 0}))
    for k in range(6):
        assert behaviour_prefix(alpha, 0, k) == behaviour_prefix(beta, 0, k)
    # from a nonzero start they differ at depth 0 already
    assert behaviour_prefix(alpha, 5, 0) != behaviour_prefix(beta, 5, 0)


def walked_states(sys, x0, limit):
    """The first `limit` states reachable from x0, breadth first over
    step (independent of successors)."""
    seen, out = {x0}, [x0]
    for x in out:
        if len(out) >= limit:
            break
        for i in sys.inputs:
            y = sys.step(x, i)
            if y not in seen:
                seen.add(y)
                out.append(y)
    return out[:limit]


def attacked_systems():
    """(attacked system, states to compare on): every dial state, and
    the first 300 states of each attacked water model."""
    d = dial_model()
    kinds = attack_kinds(d)
    for kind in ("force_state", "force_obs"):
        yield apply_attack(d, kinds[kind]({"value": 3})), range(10)
    s = swat_model()
    for atk in swat_attacks(s).values():
        attacked = apply_attack(s, atk)
        yield attacked, walked_states(attacked, s.initial, 300)


def test_attacked_successors_equal_stepping_each_input():
    for attacked, states in attacked_systems():
        for x in states:
            assert attacked.successors(x) == tuple(
                attacked.step(x, i) for i in attacked.inputs), (
                    attacked.name, x)


@pytest.mark.parametrize("kind,b", (("surge", 0), ("bias", 60), ("bias", 220),
                                    ("stealthy", 140), ("stealthy", 310)))
def test_swat_folds_its_spoofs_into_the_step(kind, b):
    # the attacked step is one call, equal to the spoof after the step,
    # at every state of the lasso (stealthy[310]'s has 16,449 states)
    s = swat_model()
    atk = attack_kinds(s)[kind]({"b": b})
    tau = atk.state_transform
    assert s.fold_transform(tau) is not None
    attacked = apply_attack(s, atk)
    assert attacked.name == "swat+%s" % atk.name
    x, seen = s.initial, set()
    while x not in seen:
        seen.add(x)
        y = tau(s.step(x, "*"))
        assert attacked.step(x, "*") == y, x
        assert attacked.successors(x) == (y,), x
        x = y
    assert len(seen) > 1000


def test_other_transforms_compose_with_the_swat_step():
    s = swat_model()

    def drain(x):
        return (0,) + x[1:]

    assert s.fold_transform(drain) is None
    assert dial_model().fold_transform(drain) is None
    attacked = apply_attack(s, Attack("drain", state_transform=drain))
    assert attacked.step(s.initial, "*") == drain(s.step(s.initial, "*"))


def swat_setup():
    s = swat_model()
    props = swat_properties(s)
    plist = [props["Lvl"], props["Hg"], props["Con"]]
    impl = formula_similarity([p.body for p in plist], s.inputs)
    cfg = ClosureConfig(implication=impl)
    return s, order_properties(plist, impl), cfg


@pytest.fixture(scope="module")
def swat_reports():
    s, plist, cfg = swat_setup()
    atk = swat_attacks(s)
    reports = []
    for name in ("alpha", "beta", "gamma"):
        attacker = Attacker(name, [atk[name]])
        reports.append(capabilities(attacker, s, s.initial, plist, cfg))
    return reports


def test_swat_capability_sets(swat_reports):
    caps = {r.attacker_name: r.capability_set for r in swat_reports}
    assert caps["alpha"] == {"Lvl", "Hg", "Con"}
    assert caps["beta"] == {"Con"}
    assert caps["gamma"] == {"Lvl", "Hg"}
    for r in swat_reports:
        assert not r.undetermined


def test_swat_hierarchy(swat_reports):
    h = hierarchy(swat_reports)
    assert h["edges"] == [("beta", "alpha"), ("gamma", "alpha")]
    assert h["hasse"] == [("beta", "alpha"), ("gamma", "alpha")]
    assert h["matrix"][("beta", "gamma")] == INCOMPARABLE
    assert h["matrix"][("alpha", "beta")] == MORE_CAPABLE
    assert h["filter"]("Con") == ["alpha", "beta"]
    assert h["filter"]("Lvl") == ["alpha", "gamma"]


def test_two_attacks_of_one_kind_keep_two_rows():
    s, plist, cfg = swat_setup()
    bias = attack_kinds(s)["bias"]
    attacker = Attacker("two-biases", [bias({"b": 100}), bias({"b": 450})])
    rep = capabilities(attacker, s, s.initial, plist, cfg)
    assert sorted(rep.matrix) == ["bias[100]", "bias[450]"]
    assert all(len(row) == 3 for row in rep.matrix.values())
    # a 450-unit offset drives the level below its bound, 100 does not
    assert rep.matrix["bias[100]"]["Lvl"].holds()
    assert rep.matrix["bias[450]"]["Lvl"].fails()
    assert rep.capability_set == {"Lvl", "Hg", "Con"}


def test_unattacked_swat_satisfies_all(swat_reports):
    s, plist, cfg = swat_setup()
    rep = capabilities(Attacker("none", [Attack("id")]), s, s.initial,
                       plist, cfg)
    assert rep.capability_set == frozenset()


def test_compare_cases():
    def rep(name, caps):
        return CapabilityReport(name, caps, {})

    a = rep("a", {"P", "Q"})
    b = rep("b", {"P"})
    c = rep("c", {"Q", "R"})
    assert compare(a, a) == EQUAL
    assert compare(b, a) == LESS_CAPABLE
    assert compare(a, b) == MORE_CAPABLE
    assert compare(a, c) == INCOMPARABLE
    with pytest.raises(ValueError):
        compare(a, b, property_universe=("P",))


def test_hierarchy_transitive_reduction():
    def rep(name, caps):
        return CapabilityReport(name, caps, {})

    rs = [rep("a", {"P"}), rep("b", {"P", "Q"}), rep("c", {"P", "Q", "R"})]
    h = hierarchy(rs)
    assert ("a", "c") in h["edges"]
    assert h["hasse"] == [("a", "b"), ("b", "c")]


def test_dot_escapes_quotes_and_backslashes():
    quoted = r'"((?:[^"\\]|\\.)*)"'  # a DOT string: no bare quote inside
    rs = [CapabilityReport('a"b', {"P"}, {}),
          CapabilityReport("a\\b", {"P", 'Q"'}, {})]
    h = hierarchy(rs)
    lines = hasse_dot(rs, h["hasse"]).splitlines()
    nodes = [re.fullmatch(r'  %s \[label=%s\];' % (quoted, quoted), line)
             for line in lines[2:4]]
    edge = re.fullmatch(r"  %s -> %s;" % (quoted, quoted), lines[4])
    assert all(nodes) and edge and lines[5] == "}"

    def unescape(text):
        return re.sub(r"\\(.)", r"\1", text)

    assert [unescape(m.group(1)) for m in nodes] == ['a"b', "a\\b"]
    # the label keeps its line break, the DOT escape \n
    assert nodes[1].group(2) == r'a\\b\n{P, Q\"}'
    assert [unescape(g) for g in edge.groups()] == ['a"b', "a\\b"]


def test_attacker_requires_name():
    with pytest.raises(ValueError):
        Attacker("")


def test_dot_and_json_outputs(swat_reports):
    h = hierarchy(swat_reports)
    dot = hasse_dot(swat_reports, h["hasse"])
    assert '"beta" -> "alpha";' in dot
    assert '"gamma" -> "alpha";' in dot
    doc = json.loads(reports_json(swat_reports, h["hasse"]))
    assert [list(e) for e in h["hasse"]] == doc["hasse"]
    by_name = {r["attacker"]: r for r in doc["reports"]}
    assert by_name["beta"]["capabilities"] == ["Con"]
    assert by_name["beta"]["matrix"]["beta"]["Hg"]["outcome"] == \
        "InferredHolds"
