"""Systems as coalgebras: an observation map into values plus an
input-indexed transition map; the one lazy walk of their reachable
states; and their quotient by behaviour prefixes, built by bounded
partition refinement.

A System is deliberately opaque to the verification engine: states only
need to be hashable and equality-comparable, `observe_value` returns the
state's one observation, a value of the observation space, and `step` is
total on the input alphabet for every reachable state.
"""

from operator import attrgetter


class UnknownInput(ValueError):
    pass


class System:
    """A system (X, observe_value, step) over a finite input alphabet.

    `observe_value(x)` is the observation of x, a value of
    `observation_space`.  `successors(x)` returns the successor states
    of x in input order, by stepping each input unless the model passes
    a faster callable; `Walk` and the verifier's search expand states
    with it.
    `fold_transform(tau)` lets `attacker.apply_attack` step an attacked
    system in one call.
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

    def successors(self, x):
        step = self.step
        return tuple(step(x, i) for i in self.inputs)

    def fold_transform(self, tau):
        """A system whose step is the state transform tau after this
        one's step, in one call, or None when this system offers none (the
        default; a model may shadow it, as `successors`)."""
        return None

    def check_input(self, i):
        if i not in self._input_set:
            raise UnknownInput("input %r not in alphabet %r" % (i, self.inputs))


def iterate(sys, x, w):
    """Left-fold of step over the input sequence w; iterate(x, ()) = x."""
    for i in w:
        sys.check_input(i)
        x = sys.step(x, i)
    return x


class Walk:
    """The states reachable from the roots, each with its value, listed
    only as far as a caller has asked (`find`).

    The order is the search loop's pop order: pop the last pushed state,
    then push each successor not seen before, in input order; `succ`
    holds each expanded state's successors.  A root added later goes
    under everything pushed.  With one input the walk is a path from
    each root to the first state seen before, stepped with `step`, with
    no stack and no `succ`.

    A state's successors are taken only when the state after it is
    asked for, so a `find` that stops at a state has stepped exactly the
    states listed before it.  A step or an observation is recorded only
    once it has returned, so a system that raises leaves the listing as
    it was, and a retry steps no state twice.

    Two position indexes over the listed states serve the finds that
    name values or states to stop at: each value's first position, and
    each state's first predecessor, the first position whose state steps
    into it (on a depth-first walk from `succ`; on a path the position
    before it, which is right for every state but a root).  Each is
    built lazily, by the first find that needs it, and extended to the
    states listed since whenever a find asks again, so every find on one
    walk shares them; a walk that no such find asks builds neither."""

    def __init__(self, sys, *roots):
        self.sys = sys
        self.states, self.values, self.succ = [], [], []
        self.seen = set()
        self._todo = []  # seen, not listed yet
        # the last listed state, while its successors are not taken
        self._unexpanded = None
        # the position indexes and how many positions each covers
        self._first_value, self._valued = {}, 0
        self._first_pred, self._preceded = {}, 0
        for x in roots:
            self.add_root(x)

    def add_root(self, x):
        """List the states reachable from x too, after all the states
        reachable from the roots added before."""
        if x not in self.seen:
            self.seen.add(x)
            self._todo.insert(0, x)

    def find(self, check, limit, excluded=None, failing=None):
        """The first of these positions, listing states only as far as
        needed: the first state whose value check rejects, the first
        state with a successor in the set `failing`, and the state at
        position limit; if none comes before the walk ends, the number of
        reachable states.  A position below limit whose value check
        accepts is therefore one that steps into `failing`.

        The listed part is read through the position indexes: excluded,
        when given, is the set of the values check rejects, looked up by
        their first positions, and the states of `failing`, which must
        hold no root, by their first predecessors.  Without excluded,
        check.first_miss checks the listed values.  States listed past
        those are checked as they come."""
        states, values = self.states, self.values
        i = min(len(values), limit)
        stop = i
        if excluded is None:
            bad = check.first_miss(values, 0, i)
            if bad is not None:
                stop = bad
        else:
            if self._valued < len(values):
                self._index_values()
            first = self._first_value
            for v in excluded:
                at = first.get(v)
                if at is not None and at < stop:
                    stop = at
        if failing:
            first = self._index_preds()
            for y in failing:
                at = first.get(y)
                if at is not None and at < stop:
                    stop = at
        if stop < len(values):
            return stop
        if len(self.sys.inputs) == 1:
            return self._find_on_path(check, limit, i, failing)
        todo, seen, succ = self._todo, self.seen, self.succ
        successors, observe = self.sys.successors, self.sys.observe_value
        x = self._unexpanded
        try:
            while True:
                if x is not None:
                    row = successors(x)
                    succ.append(row)
                    for y in row:
                        if y not in seen:
                            seen.add(y)
                            todo.append(y)
                    x = None
                    if failing and not failing.isdisjoint(row):
                        return i - 1
                if not todo:
                    return i
                o = observe(todo[-1])
                x = todo.pop()
                values.append(o)
                states.append(x)
                if i == limit or not check(o):
                    return i
                i += 1
        finally:
            self._unexpanded = x

    def _find_on_path(self, check, limit, i, failing):
        """find past the listed states of a one-input walk, from the i-th
        on.  Its todo holds the roots not listed yet and, on top, a
        stepped state not listed yet: its observation raised, or it is
        in `failing`."""
        seen, todo = self.seen, self._todo
        list_state, list_value, mark_seen = (self.states.append,
                                             self.values.append, seen.add)
        step, observe = self.sys.step, self.sys.observe_value
        (a,) = self.sys.inputs
        x = self._unexpanded
        y = None
        try:
            while True:
                if y is None:
                    if x is None:  # between paths: the next root
                        if not todo:
                            return i
                        y = todo.pop()
                    else:
                        y = step(x, a)
                        if y in seen:  # the path closes
                            x = y = None
                            continue
                        mark_seen(y)
                if failing and y in failing:  # the state before steps in
                    return i - 1
                o = observe(y)
                x, y = y, None
                list_value(o)
                list_state(x)
                if i == limit or not check(o):
                    return i
                i += 1
        finally:
            if y is not None:  # not listed; x is stepped
                todo.append(y)
                x = None
            self._unexpanded = x

    def successor_in(self, at, targets):
        """The first successor, in input order, of the state at position
        at that lies in targets: the one a find for `failing` = targets
        stopped at, when that state's value passed the check."""
        if len(self.sys.inputs) == 1:
            after = at + 1
            return (self.states[after] if after < len(self.states)
                    else self._todo[-1])
        for y in self.succ[at]:
            if y in targets:
                return y

    def _index_values(self):
        """Extend the index of each value's first position to every
        listed state."""
        first, values = self._first_value, self.values
        for at in range(self._valued, len(values)):
            first.setdefault(values[at], at)
        self._valued = len(values)

    def _index_preds(self):
        """The index of each state's first predecessor (see the class),
        extended to every listed state."""
        first = self._first_pred
        if len(self.sys.inputs) == 1:
            states = self.states
            for at in range(max(self._preceded, 1), len(states)):
                first.setdefault(states[at], at - 1)
            self._preceded = len(states)
        else:
            succ = self.succ
            for at in range(self._preceded, len(succ)):
                for y in succ[at]:
                    first.setdefault(y, at)
            self._preceded = len(succ)
        return first


def _everything(value):
    """The check every value passes: `find` with it lists the whole walk."""
    return True


_everything.first_miss = lambda values, start, stop: None


class _BehaviourState:
    """A state of a behaviour system: one block of its partition of the
    listed base states.  `pid` is the block's id, `value` its
    observation, and `rep` the first state the walk lists in the block,
    whose transitions it inherits.  In a quotient that is not exact the
    block's states may behave differently beyond depth k, so the walk's
    order can change a verdict on the quotient; `exact` False says that
    such a verdict need not transfer.

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


def _refine(states, values, succ, k):
    """Bounded Moore refinement of `states`, with observations `values`
    and successors `succ` (a successor-closed set).  The first
    partition is by observation; each round splits blocks by (block,
    the successors' blocks), so after d rounds the blocks are the
    depth-d prefix classes.  Returns a dict of each state's block id
    after at most k rounds, and whether that partition is stable: one
    more round would split no block."""
    ids = {}
    block = dict(zip(states, [ids.setdefault(v, len(ids)) for v in values]))
    for depth in range(k + 1):
        count = len(ids)
        ids = {}
        get = block.__getitem__
        refined = [ids.setdefault((get(x), *map(get, row)), len(ids))
                   for x, row in zip(states, succ)]
        if len(ids) == count:
            return block, True
        if depth == k:
            return block, False
        block = dict(zip(states, refined))


def behaviour_system(sys, k):
    """The quotient of `sys` by depth-k behaviour prefixes: its states
    are the classes of base states whose prefixes up to depth k agree.

    The first `wrap(x)` lists every base state reachable from x with a
    `Walk`, so that part of `sys` must be finite, and partitions the
    list by at most k rounds of Moore refinement (`_refine`).  A later
    `wrap(y)` on a state not wrapped yet adds y as a root of the walk
    and refines the whole list again; states wrapped before keep their
    objects and pids.  If the base system raises during a `wrap`, no
    state is wrapped anew and `exact` is unchanged.

    `exact` tells whether refinement reached its fixpoint within k
    rounds on what is listed so far (vacuously True before the first
    `wrap`).  Then the quotient is the bisimulation quotient of the
    listed part, and every verdict on it holds of the base states too.
    Each round short of the fixpoint splits a block, so k of at least
    the number of listed states minus 1 always gives that; k of the
    diameter plus 1 need not.  Otherwise two states in one class may
    still behave differently, and a verdict need not transfer.  A
    behaviour state observes its base state's value.

    Every successor of a listed state is listed, so `step` and
    `successors` of a behaviour state only look the base successors of
    its `rep` up in the wrapped states: they never list a state and
    never call `wrap`."""
    if k < 0:
        raise ValueError("depth must be >= 0")
    base_step = sys.step
    walk = Walk(sys)
    listed = walk.states
    # by position: each listed state's successors, in input order; a
    # one-input walk keeps none
    several = len(sys.inputs) > 1
    succ = walk.succ if several else []
    states = []  # by pid: the behaviour state
    by_x = {}    # wrapped base state -> its behaviour state

    def wrap(x):
        st = by_x.get(x)
        if st is not None:
            return st
        walk.add_root(x)
        walk.find(_everything, float("inf"))
        if not several:
            succ.extend(map(sys.successors, listed[len(succ):]))
        # from here on nothing can raise
        block, wrapped.exact = _refine(listed, walk.values, succ, k)
        # each block that holds wrapped states is one earlier block,
        # since depth-k classes do not depend on what else is listed
        owner = {block[st.rep]: st for st in states}
        start = len(by_x)
        for y, value in zip(listed[start:], walk.values[start:]):
            st = owner.get(block[y])
            if st is None:
                st = owner[block[y]] = _BehaviourState(len(states), value, y)
                states.append(st)
            by_x[y] = st
        return by_x[x]

    lookup = by_x.__getitem__
    base_successors = sys.successors

    def step(st, i):
        return lookup(base_step(st.rep, i))

    def successors(st):
        return tuple(map(lookup, base_successors(st.rep)))

    wrapped = System("behaviour(%s,k=%d)" % (sys.name, k), sys.inputs,
                     attrgetter("value"), step,
                     observation_space=sys.observation_space,
                     successors=successors)
    wrapped.wrap = wrap
    wrapped.exact = True
    return wrapped
