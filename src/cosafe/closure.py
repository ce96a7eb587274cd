"""Algebraic operators and the precongruence closure.

The closure of a relation on (state, formula) pairs is generated by three
rules: the pair itself (id), images under algebraic operators (c_beta),
and right-composition with formula implication (tu_imp).

ClosureEngine answers two queries on it:

* sat_hit: the pair is derivable from a confirmed-satisfying pair,
  using operators that PRESERVE satisfaction.
* fail_hit: either the query, or its image under a preserving operator,
  implies a known-failing pair -- the "literal" direction -- or the
  query is derivable from a known-failing pair using operators that
  REFLECT satisfaction and reversed implication -- the "image"
  direction.  Both are sound; `both` is the default mode.
"""

from .formula import TABLE
from .predicate import Complement, FiniteSet, Universe

PRESERVING = "preserving"
REFLECTING = "reflecting"
EQUIVARIANT = "equivariant"

LITERAL = "literal"
IMAGE = "image"
BOTH = "both"


class AlgebraicOperator:
    """A named (state, formula) transformer with a declared soundness
    direction.  Formula transformation is structural: observation
    predicates are imaged under the operator's observation-value map,
    boxes/conjunctions/fixpoints are mapped recursively.

    input_map is the input permutation the operator commutes with
    stepping under: state_map(step(x, i)) == step(state_map(x),
    input_map(i)).  A box's FiniteSet of inputs is mapped through it, so
    x |= [A]f gives state_map(x) |= [input_map(A)] map(f); a box over
    every input (Universe) is kept as it is.  An operator without an
    input_map, or a box over any other input predicate, has no image
    rule for the box (ValueError), and the closure derives nothing from
    that formula."""

    def __init__(self, name, state_map, obs_value_map, direction,
                 bijective=True, input_map=None):
        self.name = name
        self.state_map = state_map
        self.obs_value_map = obs_value_map
        self.direction = direction
        self.bijective = bijective
        self.input_map = input_map
        self._fmap_cache = {}

    def __repr__(self):
        return "AlgebraicOperator(%s)" % self.name

    def preserves(self):
        return self.direction in (PRESERVING, EQUIVARIANT)

    def reflects(self):
        return self.direction in (REFLECTING, EQUIVARIANT)

    def image_pred(self, pred):
        if isinstance(pred, (Universe,)):
            return pred
        if isinstance(pred, FiniteSet):
            return FiniteSet(pred.space,
                             frozenset(self.obs_value_map(v) for v in pred.values))
        if isinstance(pred, Complement):
            if not self.bijective:
                raise ValueError("complement image needs a bijective operator")
            return Complement(pred.space, self.image_pred(pred.inner))
        raise ValueError("no image rule for predicate %r under %s"
                         % (pred, self.name))

    def image_inputs(self, pred):
        """The input predicate of a box's image: see the class."""
        if isinstance(pred, Universe):
            return pred
        if isinstance(pred, FiniteSet) and self.input_map is not None:
            return FiniteSet(pred.space,
                             frozenset(map(self.input_map, pred.values)))
        raise ValueError("no image rule for the box inputs %r under %s"
                         % (pred, self.name))

    def map_formula(self, fid):
        out = self._fmap_cache.get(fid)
        if out is not None:
            return out
        node = TABLE.node(fid)
        tag = node[0]
        if tag == "tt":
            out = fid
        elif tag == "var":
            out = fid
        elif tag == "obs":
            out = TABLE.mk_obs(self.image_pred(node[1]))
        elif tag == "box":
            out = TABLE.mk_box(self.image_inputs(node[1]),
                               self.map_formula(node[2]))
        elif tag == "and":
            out = TABLE.mk_and([self.map_formula(f) for f in node[1]])
        elif tag == "nu":
            out = TABLE.mk_nu(self.map_formula(node[1]))
        else:
            raise ValueError(tag)
        self._fmap_cache[fid] = out
        return out

    def apply(self, pair):
        x, f = pair
        return (self.state_map(x), self.map_formula(f))


class KnowledgeBase:
    """Confirmed-satisfying pairs R and confirmed-failing pairs F,
    threaded across verification runs.  R holds only pairs committed by
    completed successful runs (or trusted input); F holds only direct
    observation-failure counterexamples.

    R is kept by formula: sat[f] is the set of states where f is
    confirmed, so committing a whole set of states for one formula is
    one set merge that builds no pairs.  Write R through commit and
    commit_all, or through a ClosureEngine that has loaded the knowledge
    base; the R property gives it as a set of (state, formula) pairs."""

    def __init__(self, R=(), F=()):
        self.sat = {}
        for x, f in R:
            self.commit(x, f)
        self.F = set(F)
        if any(x in self.sat.get(f, ()) for x, f in self.F):
            raise ValueError("R and F overlap")

    @property
    def R(self):
        return frozenset((x, f) for f, xs in self.sat.items() for x in xs)

    def commit(self, x, f):
        """Confirm f at x."""
        xs = self.sat.get(f)
        if xs is None:
            self.sat[f] = {x}
        else:
            xs.add(x)

    def commit_all(self, states, f):
        """Confirm f at every state of an iterable of states."""
        xs = self.sat.get(f)
        if xs is None:
            self.sat[f] = set(states)
        else:
            xs.update(states)

    def __repr__(self):
        return "KnowledgeBase(|R|=%d, |F|=%d)" % (
            sum(map(len, self.sat.values())), len(self.F))


class ClosureConfig:
    """Configuration of the precongruence closure, whose rules are id,
    operator image and implication.

    operators: the algebraic operator set.
    depth: max operator applications in one derivation (default 1; the
      composed operators such as shift^2 are listed separately).
    implication: optional relation of (f, g) formula-id pairs, f implies
      g (default reflexive only).
    failure_mode: literal | image | both.

    implicants_of and implied_by return one frozenset per formula, made
    on the first query and returned to every later one.
    """

    def __init__(self, operators=(), depth=1, implication=None,
                 failure_mode=BOTH):
        if depth < 0:
            raise ValueError("depth must be >= 0")
        if failure_mode not in (LITERAL, IMAGE, BOTH):
            raise ValueError("failure_mode must be %s, %s or %s, not %r"
                             % (LITERAL, IMAGE, BOTH, failure_mode))
        self.operators = tuple(operators)
        self.depth = depth
        self.implication = frozenset(implication or ())
        self.failure_mode = failure_mode
        self._implicants = None
        self._implied = None

    def _index(self):
        """The implication relation by implicand and by implicant; built
        on the first query, so a config that is never queried costs no
        pass over the relation."""
        implicants, implied = {}, {}
        for (f, g) in self.implication:
            implicants.setdefault(g, {g}).add(f)
            implied.setdefault(f, {f}).add(g)
        self._implicants = {g: frozenset(fs) for g, fs in implicants.items()}
        self._implied = {f: frozenset(gs) for f, gs in implied.items()}

    def implicants_of(self, f):
        """Formulae known to imply f, including f itself."""
        if self._implicants is None:
            self._index()
        out = self._implicants.get(f)
        if out is None:
            out = self._implicants[f] = frozenset((f,))
        return out

    def implied_by(self, f):
        """Formulae f is known to imply, including f itself."""
        if self._implied is None:
            self._index()
        out = self._implied.get(f)
        if out is None:
            out = self._implied[f] = frozenset((f,))
        return out


def _op_chains(pair, ops, depth):
    """Pairs reachable by <= depth operator applications (excluding id).
    An image an operator has no rule for (apply raises ValueError) is
    skipped: the closure then derives less, which is sound."""
    if not ops:
        return ()
    seen = {pair}
    frontier = [pair]
    for _ in range(depth):
        nxt = []
        for p in frontier:
            for op in ops:
                try:
                    q = op.apply(p)
                except ValueError:
                    continue
                if q not in seen:
                    seen.add(q)
                    nxt.append(q)
        frontier = nxt
    seen.discard(pair)
    return seen


class ClosureEngine:
    """Incremental index of the closure of a KnowledgeBase's R and F.

    load adopts the knowledge base: the engine reads its sat and F
    directly, and the note_ methods write each fact to it once.  The
    engine keeps only what the knowledge base does not: sat_index maps
    state -> formula ids satisfied there as images of R's pairs under
    preserving operators, sat_formulae is every formula id of such an
    image, and fail_index maps formula id -> states where it fails, F's
    pairs and their images under reflecting operators.  Queries then
    only consult implication variants.  literal_ops are the preserving
    operators the literal failure check applies to a query: all of them
    in literal mode, and otherwise those the image direction does not
    already use.  Literal mode reads only F, so there fail_index holds
    the failing pairs alone, without their images."""

    def __init__(self, cfg):
        self.cfg = cfg
        self.kb = None
        self.sat_index = {}
        self.sat_formulae = set()
        self.fail_index = {}
        literal = cfg.failure_mode == LITERAL
        self._sat_ops = tuple(op for op in cfg.operators if op.preserves())
        self._fail_ops = () if literal else tuple(
            op for op in cfg.operators if op.reflects())
        self.literal_ops = tuple(
            op for op in self._sat_ops if literal or not op.reflects())

    def load(self, kb):
        """Adopt kb and index the images of its pairs."""
        self.kb = kb
        if self._sat_ops:
            for f, xs in kb.sat.items():
                for x in xs:
                    self._index_satisfied((x, f))
        for pair in kb.F:
            self._index_failed(pair)

    def _index_satisfied(self, pair):
        for (x, f) in _op_chains(pair, self._sat_ops, self.cfg.depth):
            have = self.sat_index.get(x)
            if have is None:
                self.sat_index[x] = {f}
            else:
                have.add(f)
            self.sat_formulae.add(f)

    def note_satisfied(self, pair):
        self.kb.commit(*pair)
        if self._sat_ops:
            self._index_satisfied(pair)

    def note_satisfied_everywhere(self, states, f):
        """Note f satisfied at every state of a set of states: one set
        merge, unless preserving operators need the images."""
        self.kb.commit_all(states, f)
        if self._sat_ops:
            for x in states:
                self._index_satisfied((x, f))

    def note_failed(self, pair):
        self.kb.F.add(pair)
        self._index_failed(pair)

    def _index_failed(self, pair):
        index = self.fail_index
        x, f = pair
        states = index.get(f)
        if states is None:
            index[f] = {x}
        else:
            states.add(x)
        if self._fail_ops:
            for (y, g) in _op_chains(pair, self._fail_ops, self.cfg.depth):
                index.setdefault(g, set()).add(y)

    def sat_hit(self, pair):
        x, f = pair
        want = self.cfg.implicants_of(f)
        have = self.sat_index.get(x)
        if have and not want.isdisjoint(have):
            return True
        sat = self.kb.sat
        for g in want:
            if x in sat.get(g, ()):
                return True
        return False

    def fail_hit_image(self, pair):
        """Image direction: pair is an equivariant/reflecting image of a
        failing pair, possibly weakened -- if f implies g and g fails at
        x, then f fails at x."""
        x, f = pair
        for g in self.cfg.implied_by(f):
            states = self.fail_index.get(g)
            if states and x in states:
                return True
        return False

    def fail_hit_literal(self, pair):
        """Literal direction: the query, or its image under literal_ops,
        implies a pair known to fail -- a preserving operator maps a
        satisfying pair to a satisfying one, so the query fails too."""
        F = self.kb.F
        return bool(F) and any(
            (x, g) in F
            for x, f in (pair, *_op_chains(pair, self.literal_ops,
                                           self.cfg.depth))
            for g in self.cfg.implied_by(f))

    def fail_hit(self, pair):
        mode = self.cfg.failure_mode
        if mode in (IMAGE, BOTH) and self.fail_hit_image(pair):
            return True
        # with no literal_ops the literal check looks up the query's
        # implication variants in F, and fail_index holds every pair of
        # F: it would find nothing fail_hit_image did not
        if mode == IMAGE or mode == BOTH and not self.literal_ops:
            return False
        return self.fail_hit_literal(pair)
