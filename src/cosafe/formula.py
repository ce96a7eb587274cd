"""Safety formulae as a hash-consed AST with coalgebra semantics.

Grammar: v | [P] psi | <Q> | psi & psi | nu v. psi -- closed and guarded.
Binders use de Bruijn indices, so alpha-equivalent formulae share one id.
The semantics make formulae themselves a system: `obs` gives the allowed
observations of a formula and `next` its obligation after an input.
Satisfaction of a formula by a state is then a simulation question, and
similarity between formulae is implication.

Normalization at construction keeps the set of formulae reachable via
`next` finite: one tt, which names no observation space, tt & f -> f,
<Universe> -> tt, conjunction flattened left-associated with duplicates
removed.
"""

from .predicate import (Complement, FiniteSet, Universe, member, member_fn,
                        intersect, subset, subset_candidates, Undecidable)

# node tags
VAR, OBS, BOX, AND, NU, TT = "var", "obs", "box", "and", "nu", "tt"

# what tt and a box allow: any observation, of whatever space it meets
ANY = Universe(None)


class FormulaTable:
    """Process-wide hash-cons store.  FormulaIds are indices into _nodes.

    Per formula id it memoizes what does not change once the id exists:
    `shape` (closed, guarded), `obs`, `next` per input, `unfold`, the
    compiled observation `check`, the values it `excluded`, and the
    `reachable` set per input alphabet."""

    def __init__(self):
        self._ids = {}
        self._nodes = []
        self._obs_cache = {}
        self._next_cache = {}
        self._unfold_cache = {}
        self._check_cache = {}
        self._excluded_cache = {}
        self._reach_cache = {}
        self._subst_cache = {}
        self._shape_cache = {}

    def _intern(self, node):
        fid = self._ids.get(node)
        if fid is None:
            fid = len(self._nodes)
            self._ids[node] = fid
            self._nodes.append(node)
        return fid

    def node(self, fid):
        return self._nodes[fid]

    # -- constructors -------------------------------------------------

    def tt(self):
        return self._intern((TT,))

    def var(self, k):
        return self._intern((VAR, k))

    def mk_obs(self, pred):
        if isinstance(pred, Universe):
            return self.tt()
        return self._intern((OBS, pred))

    def mk_box(self, input_pred, body):
        return self._intern((BOX, input_pred, body))

    def mk_and(self, parts):
        flat = []
        for f in parts:
            node = self.node(f)
            if node[0] == AND:
                flat.extend(node[1])
            elif node[0] != TT:
                flat.append(f)
        uniq = tuple(dict.fromkeys(flat))  # first occurrences, in order
        if len(uniq) > 1:
            return self._intern((AND, uniq))
        if uniq:
            return uniq[0]
        if not parts:
            raise ValueError("empty conjunction")
        return self.tt()  # all parts were tt

    def mk_nu(self, body):
        return self._intern((NU, body))

    def mk_always(self, body, input_space_pred):
        """G f  =  nu v. f & [I]v   (f closed: the new binder would
        capture a free v of f)."""
        if not self.shape(body)[0]:
            raise ValueError("G over a formula with a free v")
        return self.mk_nu(self.mk_and([body, self.mk_box(input_space_pred, self.var(0))]))

    # -- structure check ----------------------------------------------

    def shape(self, fid):
        """(closed, guarded): every v has a binder, and a box lies between
        each bound v and its binder.  The verifier takes only formulae that
        are both; cached per id."""
        out = self._shape_cache.get(fid)
        if out is None:
            out = self._shape_cache[fid] = self._shape(fid, ())
        return out

    def _shape(self, fid, boxed):
        """shape below the binders enclosing fid, innermost first; boxed[k]
        says whether a box lies between the k-th of them and fid."""
        node = self.node(fid)
        tag = node[0]
        if tag == VAR:
            k = node[1]
            return (k < len(boxed), k >= len(boxed) or boxed[k])
        if tag == BOX:
            return self._shape(node[2], (True,) * len(boxed))
        if tag == NU:
            return self._shape(node[1], (False,) + boxed)
        if tag == AND:
            closed = guarded = True
            for f in node[1]:
                c, g = self._shape(f, boxed)
                closed, guarded = closed and c, guarded and g
            return closed, guarded
        return True, True  # tt and <Q> hold no v

    # -- substitution and unfolding -----------------------------------

    def subst(self, fid, depth, repl):
        """Replace Var(depth) with the closed formula repl."""
        key = (fid, depth, repl)
        out = self._subst_cache.get(key)
        if out is not None:
            return out
        node = self.node(fid)
        tag = node[0]
        if tag == VAR:
            out = repl if node[1] == depth else fid
        elif tag in (TT, OBS):
            out = fid
        elif tag == BOX:
            out = self.mk_box(node[1], self.subst(node[2], depth, repl))
        elif tag == AND:
            out = self.mk_and([self.subst(f, depth, repl) for f in node[1]])
        elif tag == NU:
            out = self.mk_nu(self.subst(node[1], depth + 1, repl))
        else:
            raise ValueError(tag)
        self._subst_cache[key] = out
        return out

    def unfold(self, fid):
        """One-step unfolding of a nu-formula by substitution."""
        out = self._unfold_cache.get(fid)
        if out is None:
            node = self.node(fid)
            assert node[0] == NU
            out = self.subst(node[1], 0, fid)
            self._unfold_cache[fid] = out
        return out

    # -- coalgebra structure ------------------------------------------

    def obs(self, fid):
        """Allowed observations of a closed, guarded formula."""
        out = self._obs_cache.get(fid)
        if out is not None:
            return out
        node = self.node(fid)
        tag = node[0]
        if tag == TT or tag == BOX:
            out = ANY
        elif tag == OBS:
            out = node[1]
        elif tag == AND:
            preds = [self.obs(f) for f in node[1]]
            out = preds[0]
            for p in preds[1:]:
                out = intersect(out, p)
        elif tag == NU:
            out = self.obs(self.unfold(fid))
        else:
            raise ValueError("obs of open formula")
        self._obs_cache[fid] = out
        return out

    def check(self, fid):
        """The membership function of obs(fid), compiled once
        (predicate.member_fn)."""
        out = self._check_cache.get(fid)
        if out is None:
            out = self._check_cache[fid] = member_fn(self.obs(fid))
        return out

    def excluded(self, fid):
        """The set B when obs(fid) is Complement(FiniteSet(B)), the
        values check(fid) rejects, as in every G <.!=n>; else None."""
        cache = self._excluded_cache
        if fid not in cache:
            allowed = self.obs(fid)
            cache[fid] = (allowed.inner.values
                          if isinstance(allowed, Complement)
                          and isinstance(allowed.inner, FiniteSet) else None)
        return cache[fid]

    def next(self, fid, i):
        """Obligation after input i."""
        key = (fid, i)
        out = self._next_cache.get(key)
        if out is not None:
            return out
        node = self.node(fid)
        tag = node[0]
        if tag == TT or tag == OBS:
            out = self.tt()
        elif tag == BOX:
            out = node[2] if member(node[1], i) else self.tt()
        elif tag == AND:
            out = self.mk_and([self.next(f, i) for f in node[1]])
        elif tag == NU:
            out = self.next(self.unfold(fid), i)
        else:
            raise ValueError("next of open formula")
        self._next_cache[key] = out
        return out

    def reachable(self, fid, inputs):
        """All formula ids reachable from fid via next under the inputs
        (a tuple), including fid, as a frozenset kept per (fid, inputs)."""
        key = (fid, inputs)
        out = self._reach_cache.get(key)
        if out is not None:
            return out
        seen = {fid}
        todo = [fid]
        while todo:
            f = todo.pop()
            for i in inputs:
                g = self.next(f, i)
                if g not in seen:
                    seen.add(g)
                    todo.append(g)
        out = self._reach_cache[key] = frozenset(seen)
        return out


TABLE = FormulaTable()


def formula_similarity(formulas, inputs):
    """The greatest simulation on the union of reachable formula sets:
    (f, g) in the result means f implies g.

    It starts from the pairs whose observations are included, decided
    once per pair of distinct predicates: formulae are grouped by their
    `obs` (tt and every box share ANY), a reflexive pair or one onto ANY
    holds without a call, and `subset` is asked only on the candidate
    pairs of `predicate.subset_candidates`, whose indexes by space,
    predicate kind, left-out values and constrained components leave out
    only pairs on which `subset` is False or Undecidable.  So the start,
    and with it the result, is exactly the one of trying every pair; a
    list observing two spaces raises SpaceMismatch as `subset` does.

    It then refines by worklist, as simulation algorithms do: a pair goes
    when a successor pair under some input is missing, and each pair that
    goes re-examines only the pairs whose successors include it."""
    universe = set()
    for f in formulas:
        universe |= TABLE.reachable(f, inputs)
    holders = {}  # each observation predicate -> the formulae allowing it
    for f in sorted(universe):
        holders.setdefault(TABLE.obs(f), []).append(f)
    preds, groups = list(holders), list(holders.values())
    included = [(i, i) for i in range(len(preds))]
    included += [(i, j) for j, q in enumerate(preds) if q == ANY
                 for i in range(len(preds)) if i != j]
    for i, j in subset_candidates(preds):
        try:
            if subset(preds[i], preds[j]):
                included.append((i, j))
        except Undecidable:
            pass  # excluding a pair is always sound for a simulation
    rel = {(f, g) for i, j in included for f in groups[i] for g in groups[j]}

    succ = {f: [TABLE.next(f, i) for i in inputs] for f in universe}
    todo = [(f, g) for f, g in rel
            if any(pair not in rel for pair in zip(succ[f], succ[g]))]
    rel.difference_update(todo)
    if todo:
        pred = [{} for _ in inputs]  # per input: formula -> its predecessors
        for f in universe:
            for k, h in enumerate(succ[f]):
                pred[k].setdefault(h, []).append(f)
    while todo:
        a, b = todo.pop()
        for back in pred:
            for f in back.get(a, ()):
                for g in back.get(b, ()):
                    if (f, g) in rel:
                        rel.discard((f, g))
                        todo.append((f, g))
    return frozenset(rel)


ASSERT, REFUTE = "assert", "refute"


class Property:
    """A top-level proof obligation: assert a safety formula or refute one
    (the latter encodes negation, e.g. F f = Refute(G not-f))."""

    __slots__ = ("name", "polarity", "body")

    def __init__(self, name, polarity, body):
        if polarity not in (ASSERT, REFUTE):
            raise ValueError(polarity)
        self.name = name
        self.polarity = polarity
        self.body = body

    def __repr__(self):
        return "Property(%s, %s)" % (self.name, self.polarity)
