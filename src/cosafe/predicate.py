"""Decidable predicate algebra over observation spaces.

Predicates describe sets of observations.  They are used both for state
observations (what a state emits) and for formula observations (what a
formula allows).  Everything here is immutable, hashable, and decided
exactly -- when no exact rule applies for a subset question we raise
``Undecidable`` instead of approximating.

Real-valued quantities (levels, pressures) are represented on a scaled
integer line: a value is an integer count of a declared quantum (default
0.01), so arithmetic and equality stay exact.
"""

from dataclasses import dataclass, field
from functools import cache, cached_property


class SpaceMismatch(TypeError):
    """Raised when an operation mixes predicates from different spaces."""


class Undecidable(Exception):
    """Raised when no exact decision rule covers a subset query.

    This error existing (rather than a silent approximation) is a design
    contract: every answer the algebra does give is exact.

    `subset` raises it with the two predicates of the query as its args
    and the message naming them is built only when the error is printed:
    the subset rules raise and catch it far more often than anyone reads
    it.
    """

    def __str__(self):
        if len(self.args) == 2:
            return "no exact subset rule for %r <= %r" % self.args
        return super().__str__()


# ---------------------------------------------------------------------------
# Observation spaces
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Space:
    def is_finite(self):
        return False

    def enumerate(self):
        raise Undecidable("cannot enumerate an infinite space")


@dataclass(frozen=True)
class FiniteSpace(Space):
    """A finite enumerated universe."""
    values: frozenset

    def is_finite(self):
        return True

    def enumerate(self):
        return self.values


@dataclass(frozen=True)
class ScaledLine(Space):
    """The integer line, each point standing for `quantum` real units."""
    quantum: float = 1.0


@dataclass(frozen=True)
class BoolSpace(Space):
    def is_finite(self):
        return True

    def enumerate(self):
        return frozenset((False, True))


@dataclass(frozen=True)
class ProductSpace(Space):
    components: tuple

    @property
    def arity(self):
        return len(self.components)

    @cached_property
    def _finite(self):
        return all(c.is_finite() for c in self.components)

    def is_finite(self):
        return self._finite  # asked on every subset query, so kept

    def enumerate(self):
        import itertools
        pools = [sorted(c.enumerate(), key=repr) for c in self.components]
        return frozenset(itertools.product(*pools))


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Predicate:
    space: Space = field(repr=False)


@dataclass(frozen=True)
class Empty(Predicate):
    pass


@dataclass(frozen=True)
class Universe(Predicate):
    pass


@dataclass(frozen=True)
class FiniteSet(Predicate):
    values: frozenset = frozenset()


@dataclass(frozen=True)
class Interval(Predicate):
    """Closed interval [lo, hi] on a ScaledLine, endpoints in quanta."""
    lo: int = 0
    hi: int = 0

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("Interval requires lo <= hi (got %r > %r)" % (self.lo, self.hi))


@dataclass(frozen=True)
class Complement(Predicate):
    inner: Predicate = None


@dataclass(frozen=True)
class Product(Predicate):
    """Component-wise predicate over a ProductSpace; Universe components
    act as wildcards."""
    components: tuple = ()

    def __post_init__(self):
        if len(self.components) != self.space.arity:
            raise ValueError("Product arity %d does not match space arity %d"
                             % (len(self.components), self.space.arity))


@dataclass(frozen=True)
class Intersection(Predicate):
    parts: tuple = ()


@dataclass(frozen=True)
class LinearLink(Predicate):
    """Observations of a product space whose component `dst` equals
    `factor` times component `src` (e.g. pressure = g * level)."""
    src: int = 0
    dst: int = 1
    factor: int = 1


def _is_any(p):
    """Universe(None) allows every observation of whatever space it meets:
    it is what a formula that names no space of its own (G tt) allows."""
    return isinstance(p, Universe) and p.space is None


def _check_space(p, q):
    if p.space is not q.space and p.space != q.space:
        raise SpaceMismatch("predicates live in different spaces: %r vs %r"
                            % (p.space, q.space))


# ---------------------------------------------------------------------------
# Membership
# ---------------------------------------------------------------------------

def member(p, o):
    """Exact membership test o in p."""
    if isinstance(p, Empty):
        return False
    if isinstance(p, Universe):
        return True
    if isinstance(p, FiniteSet):
        return o in p.values
    if isinstance(p, Interval):
        return p.lo <= o <= p.hi
    if isinstance(p, Complement):
        return not member(p.inner, o)
    if isinstance(p, Product):
        return all(member(c, v) for c, v in zip(p.components, o))
    if isinstance(p, Intersection):
        return all(member(part, o) for part in p.parts)
    if isinstance(p, LinearLink):
        return o[p.dst] == p.factor * o[p.src]
    raise TypeError("unknown predicate %r" % (p,))


def member_fn(p):
    """Compile p into a membership function equivalent to member(p, .),
    for the verifier's hot path: one Python expression over the
    observation o (`o in c`, `c1 <= o <= c2`, `not`, `o[k]` for each
    constrained Product component, `and` for an Intersection,
    `o[d] == c * o[s]` for a LinearLink), so a check is one call however
    deeply p nests.  Constants are bound by name, not written into the
    source, so predicates of one shape share one compiled factory.

    The function's attribute first_miss(obs, start, stop) runs the same
    expression in a loop: the first index i in [start, stop) with obs[i]
    not in p, or None (indices past the end of obs are not in range)."""
    consts = []
    expr = _expr(p, "o", consts)
    return _factory(expr, len(consts))(*consts)


_FACTORY = """\
def factory({params}):
    def member(o):
        return {expr}

    def first_miss(obs, start, stop):
        for i in range(start, min(stop, len(obs))):
            o = obs[i]
            if not ({expr}):
                return i
        return None

    member.first_miss = first_miss
    return member
"""


@cache
def _factory(expr, n):
    """The compiled factory of one predicate shape: it takes the n
    constants c0..c(n-1) and returns the membership function."""
    params = ", ".join("c%d" % k for k in range(n))
    namespace = {}
    exec(_FACTORY.format(params=params, expr=expr), namespace)
    return namespace["factory"]


def _expr(p, o, consts):
    """The source of an expression equal to member(p, o) for the
    observation expression o; each constant is appended to consts and
    named by its position there.  A complemented finite set, the check
    of <.!=v>, is tested for first."""
    if isinstance(p, Complement):
        return "not (%s)" % _expr(p.inner, o, consts)
    if isinstance(p, FiniteSet):
        return "%s in %s" % (o, _const(consts, p.values))
    if isinstance(p, Empty):
        return "False"
    if isinstance(p, Universe):
        return "True"
    if isinstance(p, Interval):
        return "%s <= %s <= %s" % (_const(consts, p.lo), o,
                                   _const(consts, p.hi))
    if isinstance(p, Product):
        # only the constrained components are looked at
        return " and ".join(
            "(%s)" % _expr(c, "%s[%s]" % (o, _const(consts, k)), consts)
            for k, c in enumerate(p.components)
            if not isinstance(c, Universe)) or "True"
    if isinstance(p, Intersection):
        return " and ".join("(%s)" % _expr(part, o, consts)
                            for part in p.parts) or "True"
    if isinstance(p, LinearLink):
        return "%s[%s] == %s * %s[%s]" % (
            o, _const(consts, p.dst), _const(consts, p.factor), o,
            _const(consts, p.src))
    raise TypeError("unknown predicate %r" % (p,))


def _const(consts, value):
    """Append value to consts; its name in the compiled source."""
    consts.append(value)
    return "c%d" % (len(consts) - 1)


# ---------------------------------------------------------------------------
# Constructors / normalizing operations
# ---------------------------------------------------------------------------

def complement(p):
    if isinstance(p, Universe):
        return Empty(p.space)
    if isinstance(p, Empty):
        return Universe(p.space)
    if isinstance(p, Complement):
        return p.inner
    return Complement(p.space, p)


def intersect(p, q):
    if _is_any(p):
        return q
    if _is_any(q):
        return p
    _check_space(p, q)
    if isinstance(p, Universe):
        return q
    if isinstance(q, Universe):
        return p
    if isinstance(p, Empty) or isinstance(q, Empty):
        return Empty(p.space)
    if p == q:
        return p
    if isinstance(p, FiniteSet) and isinstance(q, FiniteSet):
        return FiniteSet(p.space, p.values & q.values)
    if isinstance(p, FiniteSet):
        return FiniteSet(p.space, frozenset(v for v in p.values if member(q, v)))
    if isinstance(q, FiniteSet):
        return intersect(q, p)
    if isinstance(p, Interval) and isinstance(q, Interval):
        lo, hi = max(p.lo, q.lo), min(p.hi, q.hi)
        if lo > hi:
            return Empty(p.space)
        return Interval(p.space, lo, hi)
    if isinstance(p, Product) and isinstance(q, Product):
        return Product(p.space, tuple(intersect(a, b)
                                      for a, b in zip(p.components, q.components)))
    parts = []
    for r in (p, q):
        parts.extend(r.parts if isinstance(r, Intersection) else (r,))
    # duplicate elimination, order preserved
    seen, uniq = set(), []
    for part in parts:
        if part not in seen:
            seen.add(part)
            uniq.append(part)
    if len(uniq) == 1:
        return uniq[0]
    return Intersection(p.space, tuple(uniq))


# ---------------------------------------------------------------------------
# Subset decision
# ---------------------------------------------------------------------------

def _finite_extent(p):
    """The set of points of p if it is finitely enumerable, else None."""
    if isinstance(p, FiniteSet):
        return p.values
    if isinstance(p, Empty):
        return frozenset()
    if p.space.is_finite():
        return frozenset(o for o in p.space.enumerate() if member(p, o))
    if isinstance(p, Interval):
        return frozenset(range(p.lo, p.hi + 1))
    if isinstance(p, Intersection):
        for part in p.parts:
            ext = _finite_extent(part)
            if ext is not None:
                return frozenset(o for o in ext if member(p, o))
    return None


def _component_interval(p, idx):
    """A bound [lo, hi] that p imposes on component idx, or None."""
    if isinstance(p, Product):
        c = p.components[idx]
        if isinstance(c, Interval):
            ok = all(isinstance(d, Universe) or j == idx
                     for j, d in enumerate(p.components))
            if ok:
                return (c.lo, c.hi)
    if isinstance(p, Intersection):
        lo = hi = None
        for part in p.parts:
            b = _component_interval(part, idx)
            if b is not None:
                lo = b[0] if lo is None else max(lo, b[0])
                hi = b[1] if hi is None else min(hi, b[1])
        if lo is not None and hi is not None:
            return (lo, hi)
    return None


def subset(p, q):
    """Exact decision of p <= q (as sets); raises Undecidable otherwise."""
    if _is_any(q):
        return True
    if _is_any(p):
        p = Universe(q.space)
    _check_space(p, q)
    if isinstance(p, Empty) or isinstance(q, Universe):
        return True
    if p == q:
        return True
    if isinstance(q, Complement) and isinstance(q.inner, Empty):
        return True
    if isinstance(q, Intersection):
        return all(subset(p, part) for part in q.parts)
    if _cofinite(p) and _cofinite(q):
        # decided on the excluded sets, without enumerating the space:
        # p <= q iff q's excluded points of the space are excluded by p
        missing = q.inner.values - p.inner.values
        return not missing or (p.space.is_finite()
                               and missing.isdisjoint(p.space.enumerate()))
    if isinstance(p, Interval) and not p.space.is_finite():
        # decided without enumerating the interval's points
        if isinstance(q, Interval):
            return q.lo <= p.lo and p.hi <= q.hi
        if isinstance(q, Complement) and isinstance(q.inner, FiniteSet):
            return not any(p.lo <= v <= p.hi for v in q.inner.values)
    ext = _finite_extent(p)
    if ext is not None:
        return all(member(q, o) for o in ext)
    # p is infinite from here on
    if isinstance(p, Universe):
        if isinstance(q, Complement):
            qc = _finite_extent(q.inner)
            if qc is not None:
                return len(qc) == 0
        if isinstance(q, Empty) or isinstance(q, FiniteSet) or isinstance(q, Interval):
            return False
        if isinstance(q, Product) and all(
                _try_subset(Universe(c.space), c) for c in q.components):
            return True  # every component covers its space
    if isinstance(p, Complement):
        pc = _finite_extent(p.inner)
        if pc is not None:
            if isinstance(q, Complement):
                qc = _finite_extent(q.inner)
                if qc is not None:
                    return qc <= pc
            if isinstance(q, (FiniteSet, Interval, Empty)):
                return False  # cofinite set never fits a finite/bounded one
    if isinstance(p, Product) and isinstance(q, Product):
        return all(subset(a, b) for a, b in zip(p.components, q.components))
    if isinstance(p, Intersection):
        if any(_try_subset(part, q) for part in p.parts):
            return True
        link = _linear_link_rule(p, q)
        if link is not None:
            return link
    if isinstance(p, LinearLink) and isinstance(q, Product):
        link = _linear_link_rule(Intersection(p.space, (p,)), q)
        if link is not None:
            return link
    raise Undecidable(p, q)


def _cofinite(p):
    return isinstance(p, Complement) and isinstance(p.inner, FiniteSet)


def _try_subset(p, q):
    try:
        return subset(p, q)
    except Undecidable:
        return False


def _linear_link_rule(p, q):
    """Decide Intersection(..., LinearLink(src->dst, k), bound on src) <= q
    when q constrains only the dst component with an interval."""
    links = [part for part in p.parts if isinstance(part, LinearLink)]
    if not links or not isinstance(q, Product):
        return None
    target = None
    for j, c in enumerate(q.components):
        if isinstance(c, Universe):
            continue
        if isinstance(c, Interval) and target is None:
            target = (j, c)
        else:
            return None
    if target is None:
        return None
    j, c = target
    for link in links:
        if link.dst != j:
            continue
        bound = _component_interval(p, link.src)
        if bound is None:
            continue
        lo, hi = bound
        img_lo, img_hi = sorted((link.factor * lo, link.factor * hi))
        return c.lo <= img_lo and img_hi <= c.hi
    return None


# ---------------------------------------------------------------------------
# Candidate pairs for subset
# ---------------------------------------------------------------------------

def subset_candidates(preds):
    """For distinct predicates `preds`, the index pairs (i, j), i != j,
    on which subset(preds[i], preds[j]) may be True: every pair left out
    makes subset return False or raise Undecidable.  Targets that are the
    any-predicate are left out too (subset holds at once); as a source
    the any-predicate stands for the Universe of the others' space.

    Two indexes narrow the sources p of a target q instead of trying all:
    - q = Complement(FiniteSet(B)): p <= q needs p to leave out every
      point of B (of B within the space, when it is finite).  For p =
      Complement(FiniteSet(A)) or a Universe that is exactly B <= A, and
      an inverted index from left-out value to predicates gives these p.
    - q built of Universe, Product, LinearLink and Intersection over a
      ProductSpace: p of the same build can be below q only if p
      constrains or links every component q constrains, since the
      Product rule compares component by component and a LinearLink or
      link rule holds only where p carries that link.  q constrains a
      component that provably leaves out a value of its space; one that
      covers a finite space, like {false, true}, does not.  On a finite
      space the enumeration decides, and a p with no points is below
      every q whatever it constrains.
    Every other source and target pairs with all.

    Raises SpaceMismatch, as subset does, when preds observe two spaces."""
    first = next((p for p in preds if not _is_any(p)), None)
    if first is None:
        return
    for q in preds:
        if not _is_any(q):
            _check_space(first, q)
    space = first.space
    points = frozenset(space.enumerate()) if space.is_finite() else None
    builds = [_footprint(p, points) if isinstance(space, ProductSpace)
              else None for p in preds]
    # cofinite index: left-out value -> sources, and the sources it omits
    leaves_out, known, unknown = {}, set(), set()
    # footprint index: components constrained or linked -> sources
    by_have, unbuilt = {}, set()
    for i, p in enumerate(preds):
        left = _left_out(p)
        if left is None:
            unknown.add(i)
        else:
            known.add(i)
            for v in left:
                leaves_out.setdefault(v, set()).add(i)
        if builds[i] is None or (points is not None and not any(
                member(p, o) for o in points)):
            unbuilt.add(i)  # not of the build, or no points at all
        else:
            by_have.setdefault(builds[i][0], set()).add(i)
    everyone = range(len(preds))
    for j, q in enumerate(preds):
        if _is_any(q):
            continue
        if _cofinite(q):
            sources = known
            for v in (q.inner.values if points is None
                      else q.inner.values & points):
                sources = sources & leaves_out.get(v, set())
            sources = sources | unknown
        elif builds[j] is not None:
            sources = set(unbuilt)
            for have, group in by_have.items():
                if builds[j][1] <= have:
                    sources |= group
        else:
            sources = everyone
        for i in sources:
            if i != j:
                yield i, j


def _left_out(p):
    """The values p is known to leave out, for the cofinite index: A for
    Complement(FiniteSet(A)), none for a Universe; None for the rest."""
    if isinstance(p, Universe):
        return frozenset()
    if _cofinite(p):
        return p.inner.values
    return None


def _footprint(p, points):
    """(have, need) for p built of Universe, Product, LinearLink and
    Intersection over a ProductSpace, None for any other p.  `have` holds
    the components p constrains or links; `need` those a p' must have
    for subset(p', p) to be True.  `points` is the space's extent when it
    is finite, else None."""
    if isinstance(p, Universe):
        return frozenset(), frozenset()
    if isinstance(p, Product):
        return (frozenset(k for k, c in enumerate(p.components)
                          if not isinstance(c, Universe)),
                frozenset(k for k, c in enumerate(p.components)
                          if _constrains(c)))
    if isinstance(p, LinearLink):
        link = frozenset((p.src, p.dst))
        # on a finite space the enumeration decides, not the link rule
        return link, (link if points is None else frozenset())
    if isinstance(p, Intersection):
        have = need = frozenset()
        for part in p.parts:
            built = _footprint(part, points)
            if built is None:
                return None
            have, need = have | built[0], need | built[1]
        return have, need
    return None


def _constrains(c):
    """Whether the component predicate c provably leaves out a value of
    its space, so that subset(Universe(c.space), c) is not True."""
    if isinstance(c, Universe):
        return False
    if c.space.is_finite():
        return not all(member(c, v) for v in c.space.enumerate())
    if _cofinite(c):
        return bool(c.inner.values)
    return isinstance(c, (Empty, FiniteSet, Interval))
