"""Attacks as system transformers and attacker capability quantification.

An attack optionally rewrites the observation map and/or transforms the
state that results from each transition (the attacked step is tau
composed after delta, so the first observation of the initial state is
still truthful and tampering becomes visible from the successor on --
this is what the sensor-spoofing case study measures).

An attacker is a set of attacks; its capabilities are the union over its
attacks of the properties violated on the attacked system.  Attackers
are partially ordered by inclusion of capability sets.
"""

import json

from .closure import KnowledgeBase
from .coalgebra import System
from .verify import DEFAULT_MAX_PAIRS, UNKNOWN, check_many

LESS_CAPABLE = "LessCapable"
MORE_CAPABLE = "MoreCapable"
EQUAL = "Equal"
INCOMPARABLE = "Incomparable"


class Attack:
    """A named pair of optional transforms.

    obs_transform: value -> value, composed after observe_value.
    state_transform: X -> X, applied to the successor of each step.
    """

    def __init__(self, name, obs_transform=None, state_transform=None):
        self.name = name
        self.obs_transform = obs_transform
        self.state_transform = state_transform

    def __repr__(self):
        return "Attack(%s)" % self.name


class Attacker:
    def __init__(self, name, attacks=()):
        if not name:
            raise ValueError("attacker needs a nonempty name")
        self.name = name
        self.attacks = tuple(attacks)

    def __repr__(self):
        return "Attacker(%s, %d attacks)" % (self.name, len(self.attacks))


def apply_attack(sys, attack):
    """The attacked system: same states and alphabet, transformed
    observation and/or transition maps.  Its successors are the base
    system's, each passed through the state transform: in one call when
    the base system folds the transform into its step
    (`System.fold_transform`), else by composing the two."""
    observe_value = sys.observe_value
    step = sys.step
    successors = sys.successors
    if attack.obs_transform is not None:
        base_value = observe_value
        transform = attack.obs_transform

        def observe_value(x):
            return transform(base_value(x))
    tau = attack.state_transform
    folded = None if tau is None else sys.fold_transform(tau)
    if folded is not None:
        step, successors = folded.step, folded.successors
    elif tau is not None:
        base_step = step
        base_successors = successors

        def step(x, i):
            return tau(base_step(x, i))

        def successors(x):
            return tuple(map(tau, base_successors(x)))
    return System("%s+%s" % (sys.name, attack.name), sys.inputs,
                  observe_value, step, observation_space=sys.observation_space,
                  successors=successors)


class CapabilityReport:
    """Verification outcome of one attacker against a property set."""

    def __init__(self, attacker_name, capability_set, matrix, undetermined=()):
        self.attacker_name = attacker_name
        self.capability_set = frozenset(capability_set)
        self.matrix = matrix  # {attack name: {property name: Verdict}}
        self.undetermined = frozenset(undetermined)

    def to_json_dict(self):
        return {
            "attacker": self.attacker_name,
            "capabilities": sorted(self.capability_set),
            "undetermined": sorted(self.undetermined),
            "matrix": {
                attack: {prop: {"outcome": v.outcome,
                                "pairs_explored": v.stats.pairs_explored,
                                "closure_hits": v.stats.closure_hits}
                         for prop, v in row.items()}
                for attack, row in self.matrix.items()
            },
        }


def capabilities(attacker, sys, x0, props, cfg, max_pairs=DEFAULT_MAX_PAIRS):
    """Verify every property on every attacked system and collect the
    violated ones.  Knowledge is reused across properties within one
    attacked system but never across different attacked systems (R/F
    entries are statements about one transition structure)."""
    matrix = {}
    violated = set()
    undetermined = set()
    for attack in attacker.attacks:
        attacked = apply_attack(sys, attack)
        results, _, _ = check_many(attacked, x0, props, KnowledgeBase(), cfg,
                                   max_pairs=max_pairs)
        row = {}
        for prop, verdict in results:
            row[prop.name] = verdict
            if verdict.outcome == UNKNOWN:
                undetermined.add(prop.name)
            elif verdict.fails():
                violated.add(prop.name)
        matrix[attack.name] = row
    return CapabilityReport(attacker.name, violated, matrix, undetermined)


def compare(r1, r2, property_universe=None):
    """Compare two capability reports by capability-set inclusion."""
    if property_universe is not None:
        for r in (r1, r2):
            extra = r.capability_set - set(property_universe)
            if extra:
                raise ValueError("capabilities outside property universe: %r"
                                 % sorted(extra))
    a, b = r1.capability_set, r2.capability_set
    if a == b:
        return EQUAL
    if a <= b:
        return LESS_CAPABLE
    if b <= a:
        return MORE_CAPABLE
    return INCOMPARABLE


def hierarchy(reports):
    """Full comparison matrix, transitive-reduced Hasse edges, and
    capability filters for a list of reports."""
    names = [r.attacker_name for r in reports]
    caps = {r.attacker_name: r.capability_set for r in reports}
    matrix = {}
    for r1 in reports:
        for r2 in reports:
            if r1 is not r2:
                matrix[(r1.attacker_name, r2.attacker_name)] = compare(r1, r2)
    # strict order edges a < b
    less = [(a, b) for (a, b), rel in matrix.items()
            if rel == LESS_CAPABLE]
    # transitive reduction
    less_set = set(less)
    hasse = [(a, b) for (a, b) in less
             if not any((a, c) in less_set and (c, b) in less_set
                        for c in names if c != a and c != b)]

    def filter_contains(prop_name):
        return sorted(n for n in names if prop_name in caps[n])

    return {
        "matrix": matrix,
        "edges": sorted(less),
        "hasse": sorted(hasse),
        "filter": filter_contains,
    }


def hasse_dot(reports, hasse_edges):
    lines = ["digraph attackers {", "  rankdir=BT;"]
    for r in reports:
        name = _dot_escape(r.attacker_name)
        label = "%s\\n{%s}" % (name, _dot_escape(
            ", ".join(sorted(r.capability_set))))
        lines.append('  "%s" [label="%s"];' % (name, label))
    for (a, b) in hasse_edges:
        lines.append('  "%s" -> "%s";' % (_dot_escape(a), _dot_escape(b)))
    lines.append("}")
    return "\n".join(lines) + "\n"


def _dot_escape(text):
    """text for the inside of a quoted DOT string: backslash and quote
    escaped, so a name reads back as written."""
    return text.replace("\\", "\\\\").replace('"', '\\"')


def reports_json(reports, hasse_edges):
    return json.dumps({
        "reports": [r.to_json_dict() for r in reports],
        "hasse": [list(e) for e in hasse_edges],
    }, indent=2, sort_keys=True) + "\n"
