"""Systems as coalgebras: an observation map into values plus an
input-indexed transition map, with finite behaviour prefixes.

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
    """A state of a truncated-behaviour system.  `pid` is the id of its
    depth-k behaviour prefix, `value` its observation, and `rep` an
    underlying state with that behaviour, whose transitions it inherits.
    For k exceeding the system diameter, prefix equality coincides with
    full behavioural equality, so the transition structure is well
    defined on these equivalence classes.

    A behaviour system makes one state object per prefix id, so equality
    is identity: two states of one system are equal exactly when their
    depth-k prefixes are, and states of two different behaviour systems
    are never equal, even where their ids coincide."""

    __slots__ = ("pid", "value", "rep")

    def __init__(self, pid, value, rep):
        self.pid = pid
        self.value = value
        self.rep = rep

    def __repr__(self):
        return "BehaviourState(%r)" % (self.rep,)


def behaviour_system(sys, k):
    """The system whose states are depth-k behaviour prefixes of `sys`'s
    states.  Use with k = diameter + 1 so that verdicts transfer.

    Prefixes are hash-consed to integer ids, memoized per (state, depth):
    pref(x, d) is the id of (observe_value(x), ids of the children at
    d-1), so shared sub-behaviours are represented once and no prefix is
    hashed deeper than one level.  Equal prefixes get equal ids by
    induction on the depth.  A behaviour state observes its base state's
    value.  `behaviour_prefix` is the reference semantics."""
    memo = {}
    ids = {}
    by_x = {}
    by_id = {}
    inputs = sys.inputs
    base_value = sys.observe_value
    base_step = sys.step

    def pref(x, d):
        key = (x, d)
        pid = memo.get(key)
        if pid is None:
            children = () if d == 0 else tuple(
                pref(base_step(x, i), d - 1) for i in inputs)
            pid = ids.setdefault((base_value(x), children), len(ids))
            memo[key] = pid
        return pid

    def wrap(x):
        st = by_x.get(x)
        if st is None:
            pid = pref(x, k)
            st = by_x[x] = by_id.setdefault(
                pid, _BehaviourState(pid, base_value(x), x))
        return st

    def step(st, i):
        return wrap(base_step(st.rep, i))

    wrapped = System("behaviour(%s,k=%d)" % (sys.name, k), sys.inputs,
                     attrgetter("value"), step,
                     observation_space=sys.observation_space)
    wrapped.wrap = wrap
    return wrapped
