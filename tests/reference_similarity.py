"""Reference implementations of implication discovery and property
ordering: the all-pairs versions that `formula.formula_similarity` and
`verify.order_properties` replaced, kept verbatim so that tests can
compare the library against them.  Both are quadratic or worse in the
number of formulae and properties; use them on small inputs only."""

from cosafe.formula import TABLE
from cosafe.predicate import Undecidable, subset


def formula_similarity(formulas, inputs):
    """The greatest simulation on the union of reachable formula sets:
    (f, g) in the result means f implies g.  Computed as a greatest
    fixpoint from the observation-inclusion pairs, pruning pairs whose
    successors fall outside the relation."""
    universe = set()
    for f in formulas:
        universe |= TABLE.reachable(f, inputs)
    universe = sorted(universe)
    rel = set()
    for f in universe:
        for g in universe:
            try:
                if subset(TABLE.obs(f), TABLE.obs(g)):
                    rel.add((f, g))
            except Undecidable:
                pass  # excluding a pair is always sound for a simulation
    changed = True
    while changed:
        changed = False
        for (f, g) in list(rel):
            for i in inputs:
                if (TABLE.next(f, i), TABLE.next(g, i)) not in rel:
                    rel.discard((f, g))
                    changed = True
                    break
    return frozenset(rel)


def order_properties(props, implication):
    """Sort proof obligations so implicants precede implicands.

    Properties connected by implication form groups; each group is
    topologically ordered (stable on ties) and groups with actual
    implication structure come first, so their early successes feed the
    closure.  Properties incomparable to everything keep input order."""
    impl = set(implication or ())
    n = len(props)
    bodies = [p.body for p in props]

    def implies(a, b):
        return (bodies[a], bodies[b]) in impl

    strict = [[False] * n for _ in range(n)]
    parent = list(range(n))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)

    for a in range(n):
        for b in range(n):
            if a != b and implies(a, b) and not implies(b, a):
                strict[a][b] = True
                union(a, b)
            elif a != b and implies(a, b):
                union(a, b)  # mutually implying: same group, input order

    groups = {}
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    multi = [g for g in groups.values() if len(g) > 1]
    single = [g for g in groups.values() if len(g) == 1]
    multi.sort(key=lambda g: min(g))
    single.sort(key=lambda g: g[0])

    ordered = []
    for g in multi + single:
        members = list(g)
        placed = []
        while members:
            for a in members:
                if not any(strict[b][a] for b in members if b != a):
                    placed.append(a)
                    members.remove(a)
                    break
            else:  # cycle: collapse to input order
                placed.extend(members)
                members = []
        ordered.extend(placed)
    return [props[a] for a in ordered]
