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
order.  Each run is decided in one pass by one helper, `_decide`, which
check_many calls before any search set-up.  It first pre-screens the
initial pair against the closure of the knowledge, asking the closure
only where a fact can fire: whether the pair is satisfied only when an
implicant of the formula is committed, or is the image of a committed
pair; whether it fails only when a formula it implies is known to fail
somewhere, or the literal failure check is on and some pair is known to
fail.  A pair the closure shows failing is also what the loop finds
first, so that verdict (1 pair, 1 hit) is the loop's too.  Then a run
scans the walk instead of searching when only failure knowledge can
steer it, that is, its nodes are bare states, the literal failure check
is off, no tentative closure applies, and no implicant of the formula
is committed anywhere.  Under those conditions the loop skips nothing
and pushes every unseen successor in input order, so it pops exactly
the walk's states until it expands a state with a successor in its
failing set (the states where a formula it implies is known to fail);
it pushes that successor last and pops it next.  The scan therefore
gives the loop's verdict and counters: Fails at the first bad
observation, with its position plus 1 as pairs explored; InferredFails
at the first state j that steps into the failing set, with j + 2 pairs,
1 hit and the first such successor in input order as witness; Holds
after the whole walk; Unknown past the budget.  It commits the same
pairs; a scanned Holds commits them as one fact, the formula holds at
every state reachable from x0.  A run writes each fact once, through
the closure engine to the knowledge base the engine loaded.

A scan reads the listed part of the walk through two position indexes
the walk keeps for all the runs of one check_many: the first bad state
of an obligation <.!=B> (its observation predicate is
Complement(FiniteSet(B)); TABLE.run_facts gives B) is the least first
position of a value in B, and the first state stepping into the failing
set is the least first predecessor of its states.  Each index is built
only when a run of that kind comes, so a system whose runs ask neither,
like the water plant, builds none.  Past the listed part the walk lists
on with the compiled check.

Every observation check, in a search or a scan, is the function that
predicate.member_fn compiles from the formula's observation predicate,
applied to the state's value.  It is compiled once per formula id and
kept by the formula table (TABLE.check), as are each formula's
reachable set (TABLE.reachable) and the facts a run reads first
(TABLE.run_facts), so the runs of check_many, and the check_many calls
quantify makes per attacked system, share them.  Direct calls of
verify search, unless given the walk to scan (_walk).
"""

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush

from .closure import BOTH, IMAGE, LITERAL, ClosureEngine, _op_chains
from .coalgebra import Walk
from .formula import ASSERT, REFUTE, TABLE

HOLDS = "Holds"
FAILS = "Fails"
INFERRED_HOLDS = "InferredHolds"
INFERRED_FAILS = "InferredFails"
UNKNOWN = "Unknown"

DEFAULT_MAX_PAIRS = 10 ** 7


@dataclass(slots=True)
class Stats:
    pairs_explored: int = 0
    closure_hits: int = 0
    subset_checks: int = 0


@dataclass(slots=True)
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
    Given _walk, the walk of (sys, x0), the run scans it when `_decide`
    says it may, as a run of check_many does."""
    bare = TABLE.run_facts(psi0, sys.inputs)[0]
    if engine is None:
        engine = ClosureEngine(cfg)
        engine.load(kb)
    elif engine.kb is not kb:
        raise ValueError("the closure engine did not load this knowledge base")
    if _walk is not None:
        verdict = _decide(_walk, x0, psi0, cfg, engine, max_pairs)
        if verdict is not None:
            return verdict, kb

    reach = TABLE.reachable(psi0, sys.inputs)
    mode = cfg.failure_mode
    use_lit = mode == LITERAL or (mode == BOTH and bool(engine.literal_ops))
    implicants = {f: cfg.implicants_of(f) for f in reach}
    checks = {f: TABLE.check(f) for f in reach}
    observe = sys.observe_value
    successors = sys.successors

    if bare:
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


def _decide(walk, x0, psi0, cfg, engine, max_pairs, refute=False,
            screen=False):
    """The verdict of the run of psi0 from x0, the root of `walk`, when
    the closure answers it at (x0, psi0) or the run scans the walk (see
    the module docstring), committed through the engine; None when the
    run must search.  It is the verdict of the property that asserts
    psi0, or with `refute` of the one that refutes it, whose witness is
    then the run's counterexample or witness.  Only with `screen` is the
    pair checked for known satisfaction, which the search loop would not
    report as a prescreen does; a known failure at the pair is the
    loop's first find too.  The only formula of a run on bare states is
    psi0, so a tentative pair derives more than its own node only
    through an operator.  ValueError unless psi0 is closed and guarded."""
    bare, check, excluded = TABLE.run_facts(psi0, walk.sys.inputs)
    sat = engine.kb.sat
    implicants, committed = None, False
    if sat:  # else no pair is committed, nor is any image of one
        implicants = cfg.implicants_of(psi0)
        committed = not (implicants.isdisjoint(engine.sat_formulae)
                         and sat.keys().isdisjoint(implicants))
    mode = cfg.failure_mode
    literal = mode == LITERAL or mode == BOTH and bool(engine.literal_ops)
    failing = None
    fail_index = engine.fail_index
    for g in cfg.implied_by(psi0):
        states = fail_index.get(g)
        if states:
            failing = states if failing is None else failing | states
    bad = witness = None
    if committed and screen and engine.sat_hit((x0, psi0)):
        outcome, witness, stats = INFERRED_HOLDS, (x0, psi0), Stats(1, 1, 0)
    elif (failing or literal and engine.kb.F) and engine.fail_hit((x0, psi0)):
        outcome, witness, stats = INFERRED_FAILS, (x0, psi0), Stats(1, 1, 0)
    elif not bare or literal or committed or cfg.operators and _tentative_ops(
            cfg, (psi0,), implicants or cfg.implicants_of(psi0)):
        return None
    else:
        at = walk.find(check, max_pairs, excluded, failing)
        if at == len(walk.states):  # seen is every reachable state
            engine.note_satisfied_everywhere(walk.seen, psi0)
            outcome, stats = HOLDS, Stats(at, 0, at)
        elif at == max_pairs:
            outcome, stats = UNKNOWN, Stats(at + 1, 0, at)
        elif not check(walk.values[at]):
            outcome, bad = FAILS, (walk.states[at], psi0)
            stats = Stats(at + 1, 0, at + 1)
            engine.note_failed(bad)
        else:
            # the state at `at` steps into failing: the loop pops that
            # successor
            outcome, stats = INFERRED_FAILS, Stats(at + 2, 1, at + 1)
            witness = (walk.successor_in(at, failing), psi0)
    if refute:
        return Verdict(_NEGATED[outcome], None, bad or witness, stats)
    return Verdict(outcome, bad, witness, stats)


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

    Each property's body must be closed and guarded (ValueError
    otherwise).  Each run is decided by one helper, `_decide`: the
    closure of accumulated knowledge answers it at the initial pair with
    an Inferred verdict and no exploration (recorded as 1 pair), asked
    only where a fact can fire; else the run scans the walk the runs
    share when it may, and searches otherwise.  Returns (results, kb,
    inferred_count) where results is a list of (Property, Verdict)."""
    engine = ClosureEngine(cfg)
    engine.load(kb)
    # the states reachable from x0, explored once for every run below
    walk = Walk(sys, x0)
    results = []
    inferred = 0
    for prop in props:
        verdict = _decide(walk, x0, prop.body, cfg, engine, max_pairs,
                          prop.polarity == REFUTE, True)
        if verdict is None:
            inner, kb = verify(sys, x0, prop.body, kb, cfg, engine=engine,
                               max_pairs=max_pairs)
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
