"""The benchmark systems: dial, combination lock, concurrent adding
puzzle, and the water-treatment process-1 model, together with their
algebraic operators, property families, and attacks.

All continuous quantities in the water model are scaled integers in
hundredths, so every step count and equality test is exact.
"""

from functools import cache

from .attacker import Attack
from .closure import EQUIVARIANT, AlgebraicOperator
from .coalgebra import System
from .formula import ASSERT, REFUTE, TABLE, Property
from .predicate import (BoolSpace, Complement, FiniteSet, FiniteSpace,
                        Interval, LinearLink, Product, ProductSpace,
                        ScaledLine, Universe)


@cache
def _value_space(n):
    """The observation space 0..n-1 of the dial and the lock, one object
    per size.  Formulae over two models of one size then share their
    space, so interning finds the equal node by identity instead of
    comparing the value sets element by element."""
    return FiniteSpace(frozenset(range(n)))


def _eventually(sys, n, name):
    """F <.= n> as Refute(G <. != n>): some input sequence makes the
    scalar observation read n."""
    space = sys.observation_space
    body = TABLE.mk_always(
        TABLE.mk_obs(Complement(space, FiniteSet(space, frozenset((n,))))),
        sys.input_pred)
    return Property(name, REFUTE, body)


# ---------------------------------------------------------------------------
# Dial
# ---------------------------------------------------------------------------

def dial_model():
    """Ten states 0..9, one input, +1 mod 10, observation = the value."""
    space = _value_space(10)

    def step(x, i):
        return (x + 1) % 10

    sys = System("dial", ("*",), lambda x: x, step, observation_space=space)
    sys.input_pred = Universe(FiniteSpace(frozenset(sys.inputs)))
    return sys


def dial_eventually(sys, n):
    """F <.= n>: the dial eventually shows n."""
    return _eventually(sys, n, "F[.=%d]" % n)


# ---------------------------------------------------------------------------
# Combination lock
# ---------------------------------------------------------------------------

def lock_model(digits=4):
    """digits dials; input i increments dial i.  A code is encoded as the
    integer whose decimal digits are the dials (most significant = dial
    0), so states are dense 0..10^digits-1 and the observation is the
    displayed code itself."""
    n = 10 ** digits
    space = _value_space(n)
    inputs = tuple(range(digits))
    place = [10 ** (digits - 1 - i) for i in range(digits)]

    succ = []
    for x in range(n):
        row = []
        for i in inputs:
            d = (x // place[i]) % 10
            row.append(x + (((d + 1) % 10) - d) * place[i])
        succ.append(tuple(row))

    def step(x, i):
        return succ[x][i]

    sys = System("lock%d" % digits, inputs, lambda x: x, step,
                 observation_space=space, successors=succ.__getitem__)
    sys.input_pred = Universe(FiniteSpace(frozenset(inputs)))
    sys.digits = digits
    return sys


def lock_decode(x, digits=4):
    return tuple((x // 10 ** (digits - 1 - i)) % 10 for i in range(digits))


def lock_encode(code):
    out = 0
    for d in code:
        out = out * 10 + d
    return out


def lock_operators(digits=4, names=None):
    """The dial symmetries: rotations of the dials and increments of the
    last dial, all equivariant bijections that commute with stepping.
    Realized as precomputed permutation tables of the integer codes.
    Rotating the dials by k moves dial i to dial i+k, so it commutes with
    stepping when input i becomes input (i+k) mod digits; an increment
    keeps every input."""
    n = 10 ** digits

    def table_op(label, code_map, input_map):
        arr = [lock_encode(code_map(lock_decode(x, digits)))
               for x in range(n)]
        get = arr.__getitem__
        return AlgebraicOperator(label, get, get, EQUIVARIANT,
                                 input_map=input_map)

    ops = {}
    for k in range(1, digits):
        label = "shift" if k == 1 else "shift%d" % k
        ops[label] = table_op(label, lambda c, k=k: c[-k:] + c[:-k],
                              lambda i, k=k: (i + k) % digits)
    for k in range(1, 10):
        label = "add" if k == 1 else "add%d" % k
        ops[label] = table_op(label,
                              lambda c, k=k: c[:-1] + ((c[-1] + k) % 10,),
                              lambda i: i)
    if names is None:
        return ops
    unknown = [m for m in names if m not in ops]
    if unknown:
        raise KeyError("unknown operators: %s" % ", ".join(unknown))
    return {m: ops[m] for m in names}


def lock_properties(sys):
    """[Refute(G <. != n>) for n ascending]: 'some input sequence shows n'."""
    return [_eventually(sys, x, "F[.=%0*d]" % (sys.digits, x))
            for x in sorted(sys.observation_space.values)]


# ---------------------------------------------------------------------------
# Concurrent adding puzzle
# ---------------------------------------------------------------------------

Q, R, S = "Q", "R", "S"


def puzzle_model(max_c):
    """Two processes repeatedly read / add / write a shared accumulator c
    (initially 1); a process may start a new read only while c < max_c.
    State = ((pc1, n1), (pc2, n2), c); inputs 1 and 2 pick the process.
    """
    space = ScaledLine(1.0)

    def local(pc, n, c):
        if pc == Q:
            if c < max_c:
                return (R, c)
            return (pc, n)
        if pc == R:
            return (S, n + c)
        return (Q, n)  # S: leaves S, c is written back by the product

    def step(x, i):
        p1, p2, c = x
        if i == 1:
            np = local(p1[0], p1[1], c)
            nc = p1[1] if p1[0] == S else c
            return (np, p2, nc)
        np = local(p2[0], p2[1], c)
        nc = p2[1] if p2[0] == S else c
        return (p1, np, nc)

    sys = System("puzzle(MAX=%d)" % max_c, (1, 2), lambda x: x[2], step,
                 observation_space=space)
    sys.input_pred = Universe(FiniteSpace(frozenset((1, 2))))
    sys.initial = ((Q, 0), (Q, 0), 1)
    sys.max_c = max_c
    return sys


def puzzle_swap():
    """Swap the two processes: the interleaving product is symmetric, so
    this is an equivariant involution that leaves the accumulator (and
    hence every observation predicate) unchanged.  It commutes with
    stepping when inputs 1 and 2 are swapped too."""
    def state_map(x):
        return (x[1], x[0], x[2])

    return AlgebraicOperator("swap", state_map, lambda v: v, EQUIVARIANT,
                             input_map={1: 2, 2: 1}.__getitem__)


def puzzle_property(sys, n):
    """F <.= n>: the accumulator eventually shows n."""
    return _eventually(sys, n, "F[.=%d]" % n)


# ---------------------------------------------------------------------------
# Water treatment, process 1
# ---------------------------------------------------------------------------

def quantum_scale(quantum):
    """Quanta per unit, round(1 / quantum); ValueError unless that is at
    least 1 (a coarser quantum would scale every quantity to 0)."""
    if not quantum > 0 or round(1 / quantum) < 1:
        raise ValueError("quantum %r must lie in (0, 2): a unit must hold at"
                         " least one quantum" % quantum)
    return round(1 / quantum)


class SwatParams:
    """All quantities in quanta (hundredths by default).

    The tank gains `inflow` per step while the valve is open and always
    loses `outflow`; level readings lag one step behind the true level;
    the valve controller reads the stored level sensor and opens below
    `lo`, closes above `hi`, holds in between.
    """

    def __init__(self, g=5, quantum=0.01, inflow=0.46, outflow=0.44,
                 lo=500, hi=800, capacity=1200, level_lo=200, level_hi=1000,
                 pressure_lo=1000, pressure_hi=9000):
        self.g = g
        self.quantum = quantum
        scale = quantum_scale(quantum)
        self.scale = scale
        self.inflow_q = round(inflow * scale)
        self.outflow_q = round(outflow * scale)
        self.lo_q = lo * scale
        self.hi_q = hi * scale
        self.capacity_q = capacity * scale
        self.level_lo_q = level_lo * scale
        self.level_hi_q = level_hi * scale
        self.pressure_lo_q = pressure_lo * scale
        self.pressure_hi_q = pressure_hi * scale


def swat_model(params=None):
    """State (t, lit101, hg101, valve): true level, stored level reading,
    stored pressure reading, valve state.  Observation: (true level,
    true pressure g*t, whether the stored readings are hydrostatically
    consistent).

    The model folds its own sensor spoofs (`swat_attacks`) into its
    step: `fold_transform(tau)` is the model whose step is tau after
    this one's, in one call, when tau is such a spoof."""
    p = params or SwatParams()
    space = ProductSpace((ScaledLine(p.quantum), ScaledLine(p.quantum),
                          BoolSpace()))
    g = p.g
    inflow, outflow, capacity = p.inflow_q, p.outflow_q, p.capacity_q
    lo, hi = p.lo_q, p.hi_q

    def observe_value(x):
        t, lit, hg, valve = x
        return (t, g * t, hg == g * lit)

    def system(pin=None, lit_add=0, hg_add=0):
        """The model whose new readings are rewritten as a spoof's
        `readings` say: the level reading is pin if given, else the
        lagged level plus lit_add; the pressure reading is the lagged
        pressure plus hg_add."""

        def step(x, i):
            t, lit, hg, valve = x
            t2 = t + inflow - outflow if valve else t - outflow
            if t2 < 0:
                t2 = 0
            elif t2 > capacity:
                t2 = capacity
            # the controller acts on the stored reading
            if lit < lo:
                valve = True
            elif lit > hi:
                valve = False
            # sensors lag one step: the new readings report the old level
            return (t2, t + lit_add if pin is None else pin, g * t + hg_add,
                    valve)

        def successors(x):
            return (step(x, "*"),)

        return System("swat", ("*",), observe_value, step,
                      observation_space=space, successors=successors)

    def fold_transform(tau):
        readings = getattr(tau, "readings", None)
        return None if readings is None else system(*readings)

    sys = system()
    sys.fold_transform = fold_transform
    sys.input_pred = Universe(FiniteSpace(frozenset(sys.inputs)))
    sys.params = p
    sys.initial = (500 * p.scale, 500 * p.scale, g * 500 * p.scale, True)
    return sys


def swat_properties(sys):
    """Hydro, Lvl, Hg, Con.  Hydro (pressure = g * level, enforced by
    physics) is bundled with Lvl into Lvl's proof obligation: it costs
    nothing extra and is exactly what lets Hg be implied."""
    p = sys.params
    space = sys.observation_space
    U = Universe

    def comp(idx, pred):
        comps = [U(space.components[j]) for j in range(3)]
        comps[idx] = pred
        return Product(space, tuple(comps))

    line = space.components[0]
    hydro = LinearLink(space, src=0, dst=1, factor=p.g)
    lvl = TABLE.mk_obs(comp(0, Interval(line, p.level_lo_q, p.level_hi_q)))
    hg = TABLE.mk_obs(comp(1, Interval(space.components[1],
                                       p.pressure_lo_q, p.pressure_hi_q)))
    con = TABLE.mk_obs(comp(2, FiniteSet(space.components[2],
                                         frozenset((True,)))))
    hydro_f = TABLE.mk_obs(hydro)
    ip = sys.input_pred
    props = {
        "Hydro": Property("Hydro", ASSERT, TABLE.mk_always(hydro_f, ip)),
        "Lvl": Property("Lvl", ASSERT,
                        TABLE.mk_always(TABLE.mk_and([hydro_f, lvl]), ip)),
        "Hg": Property("Hg", ASSERT, TABLE.mk_always(hg, ip)),
        "Con": Property("Con", ASSERT, TABLE.mk_always(con, ip)),
    }
    return props


def _swat_spoof(p, kind, b):
    """The state transform of a sensor spoof of the water model with
    parameters p: surge pins the level reading at capacity; bias offsets
    it by b units; stealthy offsets it and fakes a consistent pressure
    reading.  Its `readings` (pin, lit_add, hg_add) let the model fold it
    into its step (`fold_transform`)."""
    bq = b * p.scale
    pin, lit_add, hg_add = None, bq, 0
    if kind == "surge":
        pin, lit_add = p.capacity_q, 0
    elif kind == "stealthy":
        hg_add = p.g * bq

    def spoof(x):
        t, lit, hg, valve = x
        return (t, lit + lit_add if pin is None else pin, hg + hg_add, valve)

    spoof.readings = (pin, lit_add, hg_add)
    return spoof


def swat_attacks(sys, b_bias=200, b_stealth=500):
    """Sensor-spoofing attacks; the valve component is untouched.

    surge pins the level reading at the maximum; bias offsets it;
    stealthy offsets it and fakes a consistent pressure reading."""
    p = sys.params
    return {
        "alpha": Attack("alpha", state_transform=_swat_spoof(p, "surge", 0)),
        "beta": Attack("beta", state_transform=_swat_spoof(p, "bias", b_bias)),
        "gamma": Attack("gamma",
                        state_transform=_swat_spoof(p, "stealthy", b_stealth)),
    }


def _int_param(params, key, default):
    """params[key] (default when absent), an int but not a bool."""
    v = params.get(key, default)
    if type(v) is not int:
        raise ValueError("%s must be an integer, got %r" % (key, v))
    return v


def attack_kinds(sys):
    """Attack constructors available for a model, keyed by kind name;
    each takes a params dict of integers (the attacker file's params).
    An attack is named after its kind and parameter, so that two attacks
    of one attacker get two rows of its capability report."""
    if sys.name.startswith("swat"):
        def surge(params):
            return Attack("surge",
                          state_transform=_swat_spoof(sys.params, "surge", 0))

        def bias(params):
            b = _int_param(params, "b", 200)
            return Attack("bias[%d]" % b,
                          state_transform=_swat_spoof(sys.params, "bias", b))

        def stealthy(params):
            b = _int_param(params, "b", 500)
            return Attack("stealthy[%d]" % b, state_transform=_swat_spoof(
                sys.params, "stealthy", b))

        return {"surge": surge, "bias": bias, "stealthy": stealthy}
    if sys.name == "dial":
        def force_obs(params):
            v = _int_param(params, "value", 0)
            return Attack("force_obs[%d]" % v, obs_transform=lambda _: v)

        def force_state(params):
            v = _int_param(params, "value", 0)
            return Attack("force_state[%d]" % v, state_transform=lambda x: v)

        return {"force_obs": force_obs, "force_state": force_state}
    return {}
