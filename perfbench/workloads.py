"""The four benchmark workloads.

Each workload builds its inputs from a seed in `setup` (timed as
set-up), runs one round of property checks in `run_round` (timed), and
judges a round's outputs against the oracles in `check` (not timed).
Every round of a run repeats the same checks on the same inputs, so a
run is made of whole rounds.

The library is called through module attributes (`models.lock_model`,
`verify.check_many`, ...) so that a traced run, which replaces those
attributes by traced versions, sees every call.
"""

import functools
import importlib
import random

from cosafe import attacker, closure, coalgebra, formula, models, syntax
# the package re-exports a function under the name 'verify'
verify = importlib.import_module("cosafe.verify")

import oracles

# oracle results do not change between the rounds of a run
_lock_reachable = functools.lru_cache(maxsize=None)(oracles.lock_reachable)
_puzzle_reaches = functools.lru_cache(maxsize=None)(oracles.puzzle_reaches)


class Round:
    """What one round produced: every verdict, plus the workload's own
    outputs that its oracle checks."""

    def __init__(self, verdicts, **outputs):
        self.verdicts = verdicts
        self.outputs = outputs


def _verdict_failed(verdict, expect_holds):
    return verdict.outcome == verify.UNKNOWN or verdict.holds() != expect_holds


def _lock_setup(digits, seed):
    """lock(digits) and its reachability properties, in an order the
    seed shuffles; codes[i] is the code props[i] asks about."""
    system = models.lock_model(digits)
    props = models.lock_properties(system)
    codes = list(range(len(props)))
    random.Random(seed).shuffle(codes)
    return {"system": system, "codes": codes,
            "props": [props[c] for c in codes]}


def _lock_failed(digits, s, rnd):
    reachable = _lock_reachable(digits, 0)
    return sum(_verdict_failed(v, code in reachable)
               for code, v in zip(s["codes"], rnd.verdicts))


class LockReuse:
    """lock(4), every code checked for reachability with `check_many`
    under the rotation group; the seed shuffles the property order."""

    name = "lock-reuse"
    digits = 4
    group = ("shift", "shift2", "shift3")

    def setup(self, seed):
        s = _lock_setup(self.digits, seed)
        ops = tuple(models.lock_operators(self.digits, self.group).values())
        s["cfg"] = closure.ClosureConfig(ops, depth=1,
                                         failure_mode=closure.BOTH)
        return s

    def run_round(self, s):
        results, _, inferred = verify.check_many(
            s["system"], 0, s["props"], closure.KnowledgeBase(), s["cfg"])
        return Round([v for _, v in results], inferred=inferred)

    def check(self, s, rnd):
        failed = _lock_failed(self.digits, s, rnd)
        errors = []
        # a code's verdict is inferred exactly when a rotation of it was
        # checked earlier in the list
        expected = 10 ** self.digits - oracles.rotation_orbits(self.digits)
        if rnd.outputs["inferred"] != expected:
            errors.append("lock: %d inferred, orbit count gives %d"
                          % (rnd.outputs["inferred"], expected))
        seen_orbits = set()
        for code, v in zip(s["codes"], rnd.verdicts):
            orbit = oracles.rotation_orbit(code, self.digits)
            if v.inferred() != (orbit in seen_orbits):
                errors.append("lock: code %0*d inferred=%s out of orbit order"
                              % (self.digits, code, v.inferred()))
                break
            seen_orbits.add(orbit)
        return failed, errors


class PuzzleSwap:
    """The two long published puzzle rows, each without operators and
    with the process swap.  The inputs are the published ones, so the
    seed changes nothing here; the order of the checks stays fixed
    because the process's peak memory depends on it."""

    name = "puzzle-swap"
    rows = ((637, 300), (749, 400))

    def setup(self, seed):
        swap = models.puzzle_swap()
        checks = []
        for n, max_c in self.rows:
            system = models.puzzle_model(max_c)
            prop = models.puzzle_property(system, n)
            for label, ops in (("plain", ()), ("swap", (swap,))):
                cfg = closure.ClosureConfig(ops, depth=1,
                                            failure_mode=closure.BOTH)
                checks.append(((n, max_c), label, system, prop, cfg))
        return {"checks": checks}

    def run_round(self, s):
        verdicts = []
        for _, _, system, prop, cfg in s["checks"]:
            results, _, _ = verify.check_many(system, system.initial, [prop],
                                              closure.KnowledgeBase(), cfg)
            verdicts.append(results[0][1])
        return Round(verdicts)

    def check(self, s, rnd):
        failed = 0
        explored = {}
        for (row, label, _, _, _), v in zip(s["checks"], rnd.verdicts):
            failed += _verdict_failed(v, _puzzle_reaches(*row))
            explored[(row, label)] = v.stats.pairs_explored
        errors = []
        for row in self.rows:
            plain, swapped = explored[(row, "plain")], explored[(row, "swap")]
            if not oracles.puzzle_counts_ok(row, plain, swapped):
                errors.append("puzzle %r: explored %d plain, %d swap; "
                              "published %r" % (row, plain, swapped,
                                                oracles.PUZZLE_PUBLISHED[row]))
        return failed, errors


class SwatQuantify:
    """Attackers of the water plant ranked by the properties they break.

    From the seed: 12 property texts (5 level bounds, 3 hydrostatic link
    & level bounds, 3 pressure bounds, the consistency of the readings)
    and 8 attackers (4 with one attack, 4 with two attacks of different
    kinds; 3 surges, 5 biases and 4 stealthy biases in all).

    A bias or stealthy offset b keeps the level in [499.1 - b, 800.06 - b]
    units and a surge drains the tank, so a level low bound lo holds
    under an offset exactly when b <= 499.1 - lo.  Lows and offsets are
    drawn from bands (base plus 0 or 10 units) that keep that comparison
    the same for every seed, and the bands nest the bounds the same way
    for every seed: the seed moves the numbers and deals the attacks to
    attackers, while the verdict counts and implication structure, and
    so the work of a round, stay put."""

    name = "swat-quantify"
    # (low, high) bases in units
    level = ((100, 1040), (200, 980), (280, 920), (360, 860), (450, 820))
    hydro_level = ((140, 1080), (240, 1000), (400, 900))
    pressure = ((120, 1060), (320, 940), (470, 840))
    offsets = {"surge": (0, 0, 0), "bias": (60, 140, 220, 300, 220),
               "stealthy": (60, 140, 220, 300)}
    plans = (("surge",), ("bias",), ("stealthy",), ("bias",),
             ("surge", "bias"), ("surge", "stealthy"),
             ("bias", "stealthy"), ("bias", "stealthy"))

    def __init__(self):
        # oracle results, kept across the rounds of a run
        self.lassos = {}
        self.verdicts = {}

    def draw(self, seed):
        """(name, spec, text) of each property, and (name, [(kind, b)])
        of each attacker; bounds in hundredths, offsets in units."""
        rng = random.Random(seed)
        q = oracles.SWAT_SCALE
        g = oracles.SWAT_G

        def bounds(bases):
            for lo, hi in bases:
                yield ((lo + rng.choice((0, 10))) * q,
                       (hi + rng.choice((0, 10))) * q)

        specs = [("L%d" % k, ("level", lo, hi),
                  "G <(in[%d,%d],_,_)>" % (lo, hi))
                 for k, (lo, hi) in enumerate(bounds(self.level))]
        specs += [("H%d" % k, ("hydro-level", lo, hi),
                   "G (<link[0,1,%d]> & <(in[%d,%d],_,_)>)" % (g, lo, hi))
                  for k, (lo, hi) in enumerate(bounds(self.hydro_level))]
        specs += [("P%d" % k, ("pressure", g * lo, g * hi),
                   "G <(_,in[%d,%d],_)>" % (g * lo, g * hi))
                  for k, (lo, hi) in enumerate(bounds(self.pressure))]
        specs.append(("Con", ("consistent", None, None), "G <(_,_,{true})>"))
        rng.shuffle(specs)

        dealt = {}
        for kind, bases in self.offsets.items():
            dealt[kind] = [b + (rng.choice((0, 10)) if b else 0)
                           for b in bases]
            rng.shuffle(dealt[kind])
        plans = list(self.plans)
        rng.shuffle(plans)
        attackers = [("A%d" % k, [(kind, dealt[kind].pop()) for kind in plan])
                     for k, plan in enumerate(plans)]
        return specs, attackers

    def setup(self, seed):
        specs, attacker_plans = self.draw(seed)
        system = models.swat_model()
        kinds = models.attack_kinds(system)
        attackers = [attacker.Attacker(name, [kinds[kind]({"b": b})
                                              for kind, b in plan])
                     for name, plan in attacker_plans]
        ctx = syntax.SyntaxContext(system.observation_space,
                                   system.input_pred)
        props = []
        for name, _, text in specs:
            parsed = syntax.parse_property(text, ctx)
            props.append(formula.Property(name, parsed.polarity, parsed.body))
        implication = formula.formula_similarity([p.body for p in props],
                                                 system.inputs)
        ordered = verify.order_properties(props, implication)
        cfg = closure.ClosureConfig((), implication=implication,
                                    failure_mode=closure.BOTH)
        return {"system": system, "attackers": attackers, "props": ordered,
                "cfg": cfg, "specs": specs, "plans": dict(attacker_plans)}

    def run_round(self, s):
        system = s["system"]
        reports = [attacker.capabilities(a, system, system.initial,
                                         s["props"], s["cfg"])
                   for a in s["attackers"]]
        order = attacker.hierarchy(reports)
        verdicts = [v for r in reports for row in r.matrix.values()
                    for v in row.values()]
        return Round(verdicts, reports=reports, hasse=order["hasse"])

    def check(self, s, rnd):
        specs = {name: spec for name, spec, _ in s["specs"]}
        lassos = self.lassos
        verdicts = self.verdicts

        def lasso(kind, b):
            if (kind, b) not in lassos:
                states = oracles.swat_lasso(oracles.swat_tamper(kind, b))
                lassos[(kind, b)] = (set(states),
                                     oracles.swat_observations(states))
            return lassos[(kind, b)]

        def holds(kind, b, spec):
            key = (kind, b, spec)
            if key not in verdicts:
                verdicts[key] = oracles.swat_spec_holds(spec,
                                                        lasso(kind, b)[1])
            return verdicts[key]

        def wrong(verdict, kind, b, spec):
            """Unknown, the wrong verdict, or a search that the lasso does
            not bear out."""
            if _verdict_failed(verdict, holds(kind, b, spec)):
                return True
            states = lasso(kind, b)[0]
            if verdict.outcome == verify.HOLDS:
                # a proof visits every reachable state once
                return verdict.stats.pairs_explored != len(states)
            if verdict.outcome == verify.FAILS:
                x = verdict.counterexample[0]
                return x not in states or oracles.swat_spec_holds(
                    spec, oracles.swat_observations([x]))
            return False

        failed = 0
        expected = {}
        for report in rnd.outputs["reports"]:
            plan = s["plans"][report.attacker_name]
            # the attacks of one attacker have distinct kinds, hence
            # distinct names: the matrix has one row per attack, in order
            for (kind, b), row in zip(plan, report.matrix.values()):
                for name, spec in specs.items():
                    failed += wrong(row[name], kind, b, spec)
            expected[report.attacker_name] = frozenset(
                name for name, spec in specs.items()
                if not all(holds(kind, b, spec) for kind, b in plan))
        errors = ["swat: %s breaks %s, oracle says %s"
                  % (r.attacker_name, sorted(r.capability_set),
                     sorted(expected[r.attacker_name]))
                  for r in rnd.outputs["reports"]
                  if r.capability_set != expected[r.attacker_name]]
        want_edges = oracles.hasse_edges(expected)
        if sorted(rnd.outputs["hasse"]) != want_edges:
            errors.append("swat: Hasse edges %s, oracle says %s"
                          % (rnd.outputs["hasse"], want_edges))
        return failed, errors


class BehaviourLock:
    """lock(2) seen through its depth-k behaviour prefixes, every code
    checked for reachability from wrap(0); the seed shuffles the
    property order.  Each round builds the behaviour system afresh."""

    name = "behaviour-lock"
    digits = 2
    depth = 14

    def setup(self, seed):
        s = _lock_setup(self.digits, seed)
        s["cfg"] = closure.ClosureConfig()
        return s

    def run_round(self, s):
        behaviour = coalgebra.behaviour_system(s["system"], self.depth)
        results, _, _ = verify.check_many(behaviour, behaviour.wrap(0),
                                          s["props"], closure.KnowledgeBase(),
                                          s["cfg"])
        return Round([v for _, v in results], behaviour=behaviour)

    def check(self, s, rnd):
        failed = _lock_failed(self.digits, s, rnd)
        errors = []
        # the observation is injective, so every code is its own
        # behaviour state
        wrap = rnd.outputs["behaviour"].wrap
        distinct = len({wrap(code) for code in s["codes"]})
        if distinct != len(s["codes"]):
            errors.append("behaviour: %d distinct states for %d codes"
                          % (distinct, len(s["codes"])))
        return failed, errors


WORKLOADS = {w.name: w for w in (LockReuse(), PuzzleSwap(), SwatQuantify(),
                                 BehaviourLock())}
