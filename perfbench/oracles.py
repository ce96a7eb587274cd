"""Reference computations the benchmark checks the engine against.

Each oracle is written from the documented rules of a model, apart from
`cosafe`: nothing here imports the library, and none of it explores
(state, formula) pairs, so a fault in the verifier, the closure engine or
a model builder cannot make an oracle agree with it.
"""

import heapq

# ---------------------------------------------------------------------------
# Combination lock: input i turns dial i one step up, modulo 10.
# ---------------------------------------------------------------------------


def rotation_orbit(code, digits):
    """The orbit of a code under the cyclic dial rotation, named by its
    least rotation as a digit string."""
    text = "%0*d" % (digits, code)
    return min(text[k:] + text[:k] for k in range(digits))


def rotation_orbits(digits):
    """Number of orbits of the cyclic dial rotation on digit strings."""
    return len({rotation_orbit(code, digits)
                for code in range(10 ** digits)})


def lock_reachable(digits, start=0):
    """Codes reachable from `start` by turning one dial at a time, as the
    integers whose decimal digits are the dials."""
    def turn(code, i):
        dials = list(code)
        dials[i] = (dials[i] + 1) % 10
        return tuple(dials)

    first = tuple(int(c) for c in "%0*d" % (digits, start))
    seen = {first}
    todo = [first]
    while todo:
        code = todo.pop()
        for i in range(digits):
            nxt = turn(code, i)
            if nxt not in seen:
                seen.add(nxt)
                todo.append(nxt)
    return {int("".join(map(str, code))) for code in seen}


# ---------------------------------------------------------------------------
# Concurrent adding puzzle: two processes each read the accumulator c
# (only while c < max_c), add it to their local copy, and write the sum
# back; c starts at 1 and both local copies at 0.
# ---------------------------------------------------------------------------

PUZZLE_PUBLISHED = {
    # (n, max_c): (pairs explored without operators, with the swap)
    (637, 300): (485942, 247602),
    (749, 400): (845020, 425093),
}


def puzzle_reaches(n, max_c):
    """True when some interleaving makes the accumulator show n.

    Best-first over (pc1, local1, pc2, local2, c) with the largest
    accumulator first, so the search heads for large values."""
    def moves(state):
        pc1, n1, pc2, n2, c = state
        for me in (0, 1):
            pc, own = (pc1, n1) if me == 0 else (pc2, n2)
            if pc == "read":
                if c >= max_c:
                    continue
                pc, own, c2 = "add", c, c
            elif pc == "add":
                pc, own, c2 = "write", own + c, c
            else:
                pc, c2 = "read", own
            if me == 0:
                yield (pc, own, pc2, n2, c2)
            else:
                yield (pc1, n1, pc, own, c2)

    start = ("read", 0, "read", 0, 1)
    seen = {start}
    heap = [(-1, start)]
    while heap:
        _, state = heapq.heappop(heap)
        if state[4] == n:
            return True
        for nxt in moves(state):
            if nxt not in seen:
                seen.add(nxt)
                heapq.heappush(heap, (-nxt[4], nxt))
    return False


def puzzle_counts_ok(row, plain, swapped):
    """Explored counts within 10 % of the published ones, and a swap
    fraction no higher than the published fraction (cross-multiplied)."""
    plain_pub, swap_pub = PUZZLE_PUBLISHED[row]
    return (abs(plain - plain_pub) * 10 <= plain_pub
            and abs(swapped - swap_pub) * 10 <= swap_pub
            and swapped * plain_pub <= swap_pub * plain)


# ---------------------------------------------------------------------------
# Water treatment, process 1, with the documented defaults in hundredths:
# the tank gains 46 per step while the valve is open and loses 44 always,
# within [0, 120000]; the readings report the level of the step before;
# the controller opens the valve below 50000 and closes it above 80000,
# acting on the stored level reading.  Pressure is 5 times the level.
# ---------------------------------------------------------------------------

SWAT_G = 5
SWAT_SCALE = 100
SWAT_CAPACITY = 120000
SWAT_INITIAL = (50000, 50000, SWAT_G * 50000, True)


def _swat_step(state):
    level, reading, pressure, valve = state
    new_level = level + (46 if valve else 0) - 44
    new_level = min(max(new_level, 0), SWAT_CAPACITY)
    if reading < 50000:
        valve = True
    elif reading > 80000:
        valve = False
    return (new_level, level, SWAT_G * level, valve)


def swat_tamper(kind, b=0):
    """The state transform of one sensor-spoofing attack; b in units."""
    bq = b * SWAT_SCALE
    if kind == "surge":
        return lambda s: (s[0], SWAT_CAPACITY, s[2], s[3])
    if kind == "bias":
        return lambda s: (s[0], s[1] + bq, s[2], s[3])
    if kind == "stealthy":
        return lambda s: (s[0], s[1] + bq, s[2] + SWAT_G * bq, s[3])
    raise ValueError("unknown attack kind %r" % kind)


def swat_lasso(tamper=None):
    """The distinct states of the (attacked) run from the initial state;
    the attacked step tampers with the state each step produces."""
    state = SWAT_INITIAL
    seen = {state}
    order = [state]
    while True:
        state = _swat_step(state)
        if tamper is not None:
            state = tamper(state)
        if state in seen:
            return order
        seen.add(state)
        order.append(state)


def swat_observations(lasso):
    """(level, pressure, readings consistent) of each state."""
    return {(s[0], SWAT_G * s[0], s[2] == SWAT_G * s[1]) for s in lasso}


def swat_spec_holds(spec, observations):
    """Does every observation satisfy a property spec?

    spec is (family, lo, hi) with bounds in hundredths: 'level' and
    'pressure' bound one component, 'consistent' asks for consistent
    readings, and 'hydro-level' asks for pressure = 5 * level together
    with the level bound."""
    family, lo, hi = spec
    for level, pressure, consistent in observations:
        if family == "level":
            ok = lo <= level <= hi
        elif family == "pressure":
            ok = lo <= pressure <= hi
        elif family == "consistent":
            ok = consistent
        elif family == "hydro-level":
            ok = pressure == SWAT_G * level and lo <= level <= hi
        else:
            raise ValueError("unknown property family %r" % family)
        if not ok:
            return False
    return True


def hasse_edges(capability_sets):
    """Covering pairs (a, b) of strict inclusion a < b between the named
    sets: no c lies strictly between them."""
    names = sorted(capability_sets)
    below = {(a, b) for a in names for b in names
             if capability_sets[a] < capability_sets[b]}
    return sorted((a, b) for (a, b) in below
                  if not any((a, c) in below and (c, b) in below
                             for c in names))
