"""The verifier and the multi-property driver.

One run decides whether a state satisfies a safety formula by trying to
build a simulation up-to-precongruence, in one depth-first search over
nodes.  A node is a bare state when the formula is its own obligation
after every input (as G <Q> is), and a (state, formula) pair
otherwise.  A popped node that knowledge shows failing refutes the query;
one that knowledge shows satisfied is skipped; one whose observation (a
value, sys.observe_value) lies outside the formula's observation
predicate is a direct counterexample; otherwise it joins
the tentative satisfying relation and its successors are pushed (a
successor suspected of failing is pushed last, so the counterexample
path is followed first).

On success the tentative relation is committed to the knowledge base; on
failure it is discarded and only the direct counterexample persists --
so failing properties re-explore states across runs, which is exactly
what the exploration statistics measure.

check_many explores each system once: its runs share one
coalgebra.Walk, the states reachable from x0 in the loop's own pop
order.  A run scans the walk instead of searching when no knowledge can
steer it: its nodes are bare states, no failing node is known, the
literal failure check is off, no tentative closure applies, and no
implicant of the formula is committed anywhere.  verify decides this
first, from the formula's reachable set and the closure engine's
indexes, and builds nothing of the search unless it searches.  Under
those conditions the loop skips nothing and pushes every unseen
successor in input order, so it would pop exactly the walk's states;
the scan therefore gives the loop's verdict and counters (Fails at the
first bad observation with its position as pairs explored, Holds after
the whole walk, Unknown past the budget) and commits the same pairs.  A
scanned Holds commits them as one fact, the formula holds at every
state reachable from x0.  A run writes each fact once, through the
closure engine to the knowledge base the engine loaded.

Every observation check, in a search or a scan, is the function that
predicate.member_fn compiles from the formula's observation predicate,
applied to the state's value.  It is compiled once per formula id and
kept by the formula table (TABLE.check), as is each formula's reachable
set (TABLE.reachable), so the runs of check_many, and the check_many
calls quantify makes per attacked system, share them.  Direct calls of
verify always search.
"""

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .closure import BOTH, IMAGE, LITERAL, ClosureEngine, _op_chains
from .coalgebra import Walk
from .formula import ASSERT, TABLE

HOLDS = "Holds"
FAILS = "Fails"
INFERRED_HOLDS = "InferredHolds"
INFERRED_FAILS = "InferredFails"
UNKNOWN = "Unknown"

DEFAULT_MAX_PAIRS = 10 ** 7


@dataclass
class Stats:
    pairs_explored: int = 0
    closure_hits: int = 0
    subset_checks: int = 0


@dataclass
class Verdict:
    outcome: str
    counterexample: object = None
    witness: object = None
    stats: Stats = field(default_factory=Stats)

    def holds(self):
        return self.outcome in (HOLDS, INFERRED_HOLDS)

    def fails(self):
        return self.outcome in (FAILS, INFERRED_FAILS)

    def inferred(self):
        return self.outcome in (INFERRED_HOLDS, INFERRED_FAILS)


def verify(sys, x0, psi0, kb, cfg, engine=None, max_pairs=DEFAULT_MAX_PAIRS,
           *, _walk=None):
    """Decide (sys, x0) |= psi0 under the given knowledge and closure
    configuration.  Returns (Verdict, kb); kb is updated per the
    algorithm's contract (commit R on success, record only direct
    counterexamples in F on failure).  psi0 must be closed and guarded,
    and an engine passed must have loaded kb (ValueError otherwise).
    check_many passes _walk, the walk of (sys, x0) its runs share."""
    if TABLE.shape(psi0) != (True, True):
        raise ValueError("verify needs a closed, guarded formula (id %d)"
                         % psi0)
    if engine is None:
        engine = ClosureEngine(cfg)
        engine.load(kb)
    elif engine.kb is not kb:
        raise ValueError("the closure engine did not load this knowledge base")

    reach = TABLE.reachable(psi0, sys.inputs)
    mode = cfg.failure_mode
    use_lit = mode == LITERAL or (mode == BOTH and bool(engine.literal_ops))
    # reach always holds psi0, so one formula in it means reach == {psi0}
    if _walk is not None and len(reach) == 1 and not use_lit:
        # psi0 is its own obligation after every input (as G <Q> is), so
        # the nodes are bare states.  The run scans the walk when no
        # knowledge can skip or refute one of them: no committed
        # implicant of psi0, no known failure of a formula psi0 implies,
        # and no operator that closes the tentative pairs (the only
        # formula of the run is psi0, so a pair derives more than its
        # own node only through an operator).  The loop would then pop
        # exactly the walk's states, in its order.
        implicants = cfg.implicants_of(psi0)
        # a formula is a key of fail_index once it fails somewhere
        failed = mode in (IMAGE, BOTH) and not \
            engine.fail_index.keys().isdisjoint(cfg.implied_by(psi0))
        if (not failed and implicants.isdisjoint(engine.sat_formulae)
                and kb.sat.keys().isdisjoint(implicants)
                and not _tentative_ops(cfg, reach, implicants)):
            at = _walk.find(TABLE.check(psi0), max_pairs)
            if at == len(_walk.states):  # seen is every reachable state
                engine.note_satisfied_everywhere(_walk.seen, psi0)
                return _conclude(engine, HOLDS, None, None, at, 0, ())
            bad = (_walk.states[at], psi0) if at < max_pairs else None
            return _conclude(engine, FAILS if bad else UNKNOWN, bad,
                             None, at + 1, 0, ())

    implicants = {f: cfg.implicants_of(f) for f in reach}
    checks = {f: TABLE.check(f) for f in reach}
    observe = sys.observe_value
    successors = sys.successors

    if len(reach) == 1:
        # a node is a bare state
        node0 = x0
        check = checks[psi0]
        expand = successors

        def ok(x):
            return check(observe(x))

        def node_of(x, f):
            return x

        def pair_of(x):
            return (x, psi0)
    else:
        # a node is a (state, formula) pair
        node0 = (x0, psi0)
        next_of = {f: tuple(TABLE.next(f, i) for i in sys.inputs)
                   for f in reach}

        def ok(node):
            return checks[node[1]](observe(node[0]))

        def expand(node):
            return zip(successors(node[0]), next_of[node[1]])

        def node_of(x, f):
            return (x, f)

        def pair_of(node):
            return node

    # Failure knowledge is frozen for the duration of one run (the run
    # ends the moment anything is added), so the failing nodes are
    # collected up front.
    failing = set()
    if mode in (IMAGE, BOTH):
        for f in reach:
            for g in cfg.implied_by(f):
                for x in engine.fail_index.get(g, ()):
                    failing.add(node_of(x, f))

    def lit_fails(node):
        return engine.fail_hit_literal(pair_of(node))

    # lifts[h] lists the formulae of this run that h implies
    lifts = {}
    for f in reach:
        for h in implicants[f]:
            lifts.setdefault(h, []).append(f)
    tent_ops = _tentative_ops(cfg, reach, lifts)
    # a derived pair adds more than its own node only when its formula
    # implies another formula of this run, or when an operator maps it
    closing = bool(tent_ops) or any(len(lifts[f]) > 1 for f in reach)

    # committed knowledge: R's state sets of each formula's implicants,
    # and the images of R's pairs under preserving operators
    images = engine.sat_index
    sat = kb.sat
    held = {f: [sat[g] for g in implicants[f] if g in sat] for f in reach}

    def committed(node):
        x, f = pair_of(node)
        have = images.get(x)
        if have and not implicants[f].isdisjoint(have):
            return True
        for states in held[f]:
            if x in states:
                return True
        return False

    done = set()
    # without a closure the derivable nodes are just the done ones
    derivable = set() if closing else done

    def derive(pair):
        for f in lifts.get(pair[1], ()):
            derivable.add(node_of(pair[0], f))

    # a node that knowledge shows satisfied is skipped, as a closure hit
    any_committed = bool(images) or any(held.values())
    knows = closing or any_committed

    def known(node):
        return node in derivable or (any_committed and committed(node))

    # Depth-first: a successor suspected of failing is pushed last and
    # ends the expansion, so the counterexample path is followed first.
    # Any other node is pushed at most once (when first seen), so a
    # popped node is never done yet.
    todo = [node0]
    seen = {node0}
    pop = todo.pop
    push = todo.append
    mark_done = done.add
    mark_seen = seen.add
    explored = hits = 0
    outcome, counterexample, witness = HOLDS, None, None
    while todo:
        node = pop()
        if node in failing or use_lit and lit_fails(node):
            explored += 1
            hits += 1
            outcome, witness = INFERRED_FAILS, pair_of(node)
            break
        if knows and known(node):
            hits += 1
            continue
        explored += 1
        if explored > max_pairs:
            outcome = UNKNOWN
            break
        if not ok(node):
            outcome, counterexample = FAILS, pair_of(node)
            break
        mark_done(node)
        if closing:
            pair = pair_of(node)
            for q in (pair, *_op_chains(pair, tent_ops, cfg.depth)):
                derive(q)
        for succ in expand(node):
            if succ in failing or use_lit and lit_fails(succ):
                push(succ)
                break
            if succ not in seen:
                if knows and known(succ):
                    hits += 1
                    continue
                mark_seen(succ)
                push(succ)
            elif knows and succ not in done and known(succ):
                hits += 1
    return _conclude(engine, outcome, counterexample, witness, explored,
                     hits, map(pair_of, done))


def _tentative_ops(cfg, reach, targets):
    """The operators a run closes its tentatively satisfying pairs
    under.  Skipping an unexplored subtree on the strength of an
    unconfirmed pair needs an operator that also reflects satisfaction,
    so only equivariant operators qualify, and of those only the ones
    that map some formula of the run (reach) into targets, the formulae
    that imply one of the run's: any other image is never queried.  An
    operator with no image rule for a formula (ValueError) is dropped."""
    out = []
    for op in cfg.operators:
        if not (op.preserves() and op.reflects()):
            continue
        try:
            if any(op.map_formula(f) in targets for f in reach):
                out.append(op)
        except ValueError:
            pass
    return out


def _conclude(engine, outcome, counterexample, witness, explored, hits,
              done_pairs):
    """Commit a run's outcome through the engine to its knowledge base
    and return (Verdict, kb): a Holds commits every done pair, a Fails
    only its counterexample."""
    if outcome == HOLDS:
        for pair in done_pairs:
            engine.note_satisfied(pair)
    elif outcome == FAILS:
        engine.note_failed(counterexample)
    # every explored node had its observation checked, except one that
    # was inferred failing or went over the budget
    subsets = explored - (outcome in (INFERRED_FAILS, UNKNOWN))
    stats = Stats(explored, hits, subsets)
    return Verdict(outcome, counterexample, witness, stats), engine.kb


_NEGATED = {HOLDS: FAILS, FAILS: HOLDS, INFERRED_HOLDS: INFERRED_FAILS,
            INFERRED_FAILS: INFERRED_HOLDS, UNKNOWN: UNKNOWN}


def _property_verdict(prop, inner):
    """The verdict of a property from that of its body: Assert keeps it,
    Refute negates the outcome, and the inner counterexample becomes the
    witness of the outer satisfaction."""
    if prop.polarity == ASSERT:
        return inner
    return Verdict(_NEGATED[inner.outcome], None,
                   inner.counterexample or inner.witness, inner.stats)


def check_property(sys, x0, prop, kb, cfg, engine=None,
                   max_pairs=DEFAULT_MAX_PAIRS):
    """Check a Property: verify its body, then apply its polarity."""
    inner, kb = verify(sys, x0, prop.body, kb, cfg, engine=engine,
                       max_pairs=max_pairs)
    return _property_verdict(prop, inner), kb


def check_many(sys, x0, props, kb, cfg, max_pairs=DEFAULT_MAX_PAIRS):
    """Check an ordered list of properties, threading the knowledge base.

    Each property is first pre-screened at the initial pair against the
    closure of accumulated knowledge; a hit yields an Inferred verdict
    with no exploration (recorded as 1 pair).  Returns (results, kb,
    inferred_count) where results is a list of (Property, Verdict)."""
    engine = ClosureEngine(cfg)
    engine.load(kb)
    # the states reachable from x0, explored once for every run below
    walk = Walk(sys, x0)
    results = []
    inferred = 0
    for prop in props:
        pair = (x0, prop.body)
        if engine.sat_hit(pair):
            inner = Verdict(INFERRED_HOLDS, witness=pair,
                            stats=Stats(pairs_explored=1, closure_hits=1))
        elif engine.fail_hit(pair):
            inner = Verdict(INFERRED_FAILS, witness=pair,
                            stats=Stats(pairs_explored=1, closure_hits=1))
        else:
            inner, kb = verify(sys, x0, prop.body, kb, cfg, engine=engine,
                               max_pairs=max_pairs, _walk=walk)
        verdict = _property_verdict(prop, inner)
        if verdict.inferred():
            inferred += 1
        results.append((prop, verdict))
    return results, kb, inferred


def order_properties(props, implication):
    """Sort proof obligations so implicants precede implicands.

    Properties connected by implication form groups; each group is
    topologically ordered (stable on ties) and groups with actual
    implication structure come first, so their early successes feed the
    closure.  Properties incomparable to everything keep input order.

    Works from adjacency lists of the implication pairs between the
    properties' bodies, in O(n log n + edges): a group places, at each
    step, its earliest property that no unplaced member strictly
    implies; a strict cycle places what is left in input order."""
    impl = set(implication or ())
    n = len(props)
    at = {}  # body -> the indices of the properties with it, ascending
    for a, p in enumerate(props):
        at.setdefault(p.body, []).append(a)
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

    strict = [[] for _ in range(n)]  # a -> the b that a strictly implies
    above = [0] * n  # how many unplaced a strictly imply b
    for x, y in impl:
        if x not in at or y not in at:
            continue
        xs, ys = at[x], at[y]
        for a in xs[1:] + ys:
            union(xs[0], a)  # any implication joins the group
        if x != y and (y, x) not in impl:
            for a in xs:
                strict[a].extend(ys)
            for b in ys:
                above[b] += len(xs)

    groups = {}  # by their least index, as find keeps it the root
    for a in range(n):
        groups.setdefault(find(a), []).append(a)
    ordered = []
    for g in ([g for g in groups.values() if len(g) > 1]
              + [g for g in groups.values() if len(g) == 1]):
        ready = [a for a in g if above[a] == 0]
        heapify(ready)
        while ready:
            a = heappop(ready)
            ordered.append(a)
            for b in strict[a]:
                above[b] -= 1
                if above[b] == 0:
                    heappush(ready, b)
        ordered.extend(a for a in g if above[a] > 0)  # a strict cycle
    return [props[a] for a in ordered]
