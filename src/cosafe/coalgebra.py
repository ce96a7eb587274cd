"""Systems as coalgebras: an observation map into values plus an
input-indexed transition map, with finite behaviour prefixes and the
quotient by them, built by bounded partition refinement.

A System is deliberately opaque to the verification engine: states only
need to be hashable and equality-comparable, `observe_value` returns the
state's one observation, a value of the observation space, and `step` is
total on the input alphabet for every reachable state.
"""

from operator import attrgetter

from .predicate import FiniteSet


class UnknownInput(ValueError):
    pass


class System:
    """A system (X, observe_value, step) over a finite input alphabet.

    `observe_value(x)` is the observation of x, a value of
    `observation_space`; `observe(x)` gives it as a predicate, the
    singleton of that value.  `successors`, when available, returns all
    successor states of x in input order with a single call; the
    verifier uses it as a fast path.
    """

    def __init__(self, name, inputs, observe_value, step,
                 observation_space=None, successors=None):
        self.name = name
        self.inputs = tuple(inputs)
        self._input_set = set(self.inputs)
        self.observe_value = observe_value
        self.step = step
        self.observation_space = observation_space
        if successors is not None:
            # shadow the method with the provided callable (hot path)
            self.successors = successors

    def observe(self, x):
        return FiniteSet(self.observation_space,
                         frozenset((self.observe_value(x),)))

    def successors(self, x):
        step = self.step
        return tuple(step(x, i) for i in self.inputs)

    def check_input(self, i):
        if i not in self._input_set:
            raise UnknownInput("input %r not in alphabet %r" % (i, self.inputs))


def iterate(sys, x, w):
    """Left-fold of step over the input sequence w; iterate(x, ()) = x."""
    for i in w:
        sys.check_input(i)
        x = sys.step(x, i)
    return x


class BehaviourPrefix:
    """The observable behaviour of a state truncated at depth k: a map
    from every input sequence of length <= k to an observation predicate."""

    def __init__(self, k, entries):
        self.k = k
        self.entries = dict(entries)
        self._key = (k, frozenset(self.entries.items()))

    def __getitem__(self, w):
        return self.entries[tuple(w)]

    def __eq__(self, other):
        return isinstance(other, BehaviourPrefix) and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __repr__(self):
        return "BehaviourPrefix(k=%d, %d entries)" % (self.k, len(self.entries))


def behaviour_prefix(sys, x, k):
    """Depth-k truncation of the observable behaviour of x."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    entries = {}
    frontier = [((), x)]
    entries[()] = sys.observe(x)
    for _ in range(k):
        nxt = []
        for w, y in frontier:
            for i in sys.inputs:
                y2 = sys.step(y, i)
                w2 = w + (i,)
                entries[w2] = sys.observe(y2)
                nxt.append((w2, y2))
        frontier = nxt
    return BehaviourPrefix(k, entries)


class _BehaviourState:
    """A state of a behaviour system: one block of its partition of the
    listed base states.  `pid` is the block's id, `value` its
    observation, and `rep` the first listed base state of the block,
    whose transitions it inherits.

    A behaviour system makes one state object per block, so equality is
    identity: two states of one system are equal exactly when their base
    states have equal depth-k behaviour prefixes, and states of two
    different behaviour systems are never equal, even where their ids
    coincide."""

    __slots__ = ("pid", "value", "rep")

    def __init__(self, pid, value, rep):
        self.pid = pid
        self.value = value
        self.rep = rep

    def __repr__(self):
        return "BehaviourState(%r)" % (self.rep,)


def _refine(values, succ, k):
    """Bounded Moore refinement of states 0..n-1 with observations
    `values` and successor positions `succ` (a successor-closed set).
    The first partition is by observation; each round splits blocks by
    (block, the successors' blocks), so after d rounds the blocks are
    the depth-d prefix classes.  Returns the block id of each state
    after at most k rounds, and whether that partition is stable: one
    more round would split no block."""
    ids = {}
    block = [ids.setdefault(v, len(ids)) for v in values]
    for depth in range(k + 1):
        count = len(ids)
        ids = {}
        get = block.__getitem__
        refined = [ids.setdefault((b, *map(get, row)), len(ids))
                   for b, row in zip(block, succ)]
        if len(ids) == count:
            return block, True
        if depth == k:
            return block, False
        block = refined


def behaviour_system(sys, k):
    """The quotient of `sys` by depth-k behaviour prefixes: its states
    are the classes of base states whose prefixes up to depth k agree.

    The first `wrap(x)` lists every base state reachable from x, so that
    part of `sys` must be finite, and partitions the list by at most k
    rounds of Moore refinement (`_refine`).  A later `wrap(y)` on a
    state not listed yet lists what it reaches and refines the whole
    list again; states wrapped before keep their objects and pids.  If
    the base system raises while a `wrap` lists states, the behaviour
    system is left as it was.

    `exact` tells whether refinement reached its fixpoint within k
    rounds on what is listed so far (vacuously True before the first
    `wrap`).  Then the quotient is the bisimulation quotient of the
    listed part, and every verdict on it holds of the base states too.
    Each round short of the fixpoint splits a block, so k of at least
    the number of listed states minus 1 always gives that; k of the
    diameter plus 1 need not.  Otherwise two states in one class may
    still behave differently, and a verdict need not transfer.  A
    behaviour state observes its base state's value.
    `behaviour_prefix` is the reference semantics."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    base_value = sys.observe_value
    base_step = sys.step
    base_successors = sys.successors
    index = {}    # listed base state -> its position in the list
    values = []   # by position: the observation
    succ = []     # by position: the successors' positions, in input order
    states = []   # by pid: the behaviour state
    by_x = {}     # listed base state -> its behaviour state

    def extend(x):
        # list and refine in locals, and commit only once nothing is left
        # that can raise
        start = len(values)
        fresh = {x: start}
        order = [x]
        new_values = []
        new_succ = []
        for y in order:  # order grows as the loop finds new states
            new_values.append(base_value(y))
            row = []
            for z in base_successors(y):
                p = index.get(z)
                if p is None:
                    p = fresh.get(z)
                    if p is None:
                        p = fresh[z] = start + len(order)
                        order.append(z)
                row.append(p)
            new_succ.append(row)
        block, exact = _refine(values + new_values, succ + new_succ, k)
        # each block that holds listed states is one earlier block,
        # since depth-k classes do not depend on what else is listed
        owner = {block[index[st.rep]]: st for st in states}
        born = []
        placed = {}
        for p, y in enumerate(order, start):
            st = owner.get(block[p])
            if st is None:
                st = owner[block[p]] = _BehaviourState(
                    len(states) + len(born), new_values[p - start], y)
                born.append(st)
            placed[y] = st
        index.update(fresh)
        values.extend(new_values)
        succ.extend(new_succ)
        states.extend(born)
        by_x.update(placed)
        wrapped.exact = exact

    def wrap(x):
        st = by_x.get(x)
        if st is None:
            extend(x)
            st = by_x[x]
        return st

    def step(st, i):
        return wrap(base_step(st.rep, i))

    wrapped = System("behaviour(%s,k=%d)" % (sys.name, k), sys.inputs,
                     attrgetter("value"), step,
                     observation_space=sys.observation_space)
    wrapped.wrap = wrap
    wrapped.exact = True
    return wrapped
