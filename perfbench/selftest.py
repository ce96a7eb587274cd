"""Check the oracles against known facts, without running a workload.

    python3 perfbench/selftest.py

Exits 0 when every fact holds.  Needs nothing from cosafe.
"""

import sys

import oracles

SWAT_LVL = ("hydro-level", 20000, 100000)
SWAT_HG = ("pressure", 100000, 900000)
SWAT_CON = ("consistent", None, None)


def facts():
    yield "2530 rotation orbits of 4-digit strings", \
        oracles.rotation_orbits(4) == 2530
    yield "340 rotation orbits of 3-digit strings", \
        oracles.rotation_orbits(3) == 340
    yield "every lock(4) code reachable from 0000", \
        oracles.lock_reachable(4, 0) == set(range(10 ** 4))
    yield "every lock(2) code reachable from 00", \
        oracles.lock_reachable(2, 0) == set(range(100))

    lasso = oracles.swat_lasso()
    yield "15733-state unattacked water lasso", len(lasso) == 15733
    yield "unattacked water plant keeps Lvl, Hg and Con", all(
        oracles.swat_spec_holds(spec, oracles.swat_observations(lasso))
        for spec in (SWAT_LVL, SWAT_HG, SWAT_CON))
    # the published verdicts of the three single-attack attackers
    published = {("surge", 0): {"Lvl", "Hg", "Con"},
                 ("bias", 200): {"Con"},
                 ("stealthy", 500): {"Lvl", "Hg"}}
    for (kind, b), broken in published.items():
        obs = oracles.swat_observations(
            oracles.swat_lasso(oracles.swat_tamper(kind, b)))
        got = {name for name, spec in (("Lvl", SWAT_LVL), ("Hg", SWAT_HG),
                                       ("Con", SWAT_CON))
               if not oracles.swat_spec_holds(spec, obs)}
        yield "%s %d breaks %s" % (kind, b, sorted(broken)), got == broken
    yield "Hasse edges of the published attackers", oracles.hasse_edges({
        "alpha": {"Lvl", "Hg", "Con"}, "beta": {"Con"},
        "gamma": {"Lvl", "Hg"}}) == [("beta", "alpha"), ("gamma", "alpha")]
    yield "Hasse edges skip a transitive pair", oracles.hasse_edges({
        "a": set(), "b": {1}, "c": {1, 2}}) == [("a", "b"), ("b", "c")]

    for row, (plain, swapped) in oracles.PUZZLE_PUBLISHED.items():
        yield "puzzle %r reaches its target" % (row,), \
            oracles.puzzle_reaches(*row)
        yield "published puzzle counts %r pass" % (row,), \
            oracles.puzzle_counts_ok(row, plain, swapped)
        yield "puzzle counts 11%% off %r fail" % (row,), \
            not oracles.puzzle_counts_ok(row, plain * 111 // 100, swapped)
        yield "one swapped pair over the published ratio %r fails" % (row,), \
            not oracles.puzzle_counts_ok(row, plain, swapped + 1)
    yield "puzzle with MAX 30 cannot reach 10**6", \
        not oracles.puzzle_reaches(10 ** 6, 30)


def main():
    bad = 0
    for name, ok in facts():
        print("%s  %s" % ("ok  " if ok else "FAIL", name))
        bad += not ok
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
