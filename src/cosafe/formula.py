"""Safety formulae as a hash-consed AST with coalgebra semantics.

Grammar: v | [P] psi | <Q> | psi & psi | nu v. psi -- closed and guarded.
Binders use de Bruijn indices, so alpha-equivalent formulae share one id.
The semantics make formulae themselves a system: `obs` gives the allowed
observations of a formula and `next` its obligation after an input.
Satisfaction of a formula by a state is then a simulation question, and
similarity between formulae is implication.

Normalization at construction keeps the set of formulae reachable via
`next` finite: tt & f -> f, <Universe> -> tt, conjunction flattened
left-associated with duplicates removed.
"""

from .predicate import (Universe, member, member_fn, intersect, subset,
                        Undecidable)

# node tags
VAR, OBS, BOX, AND, NU, TT = "var", "obs", "box", "and", "nu", "tt"


class FormulaTable:
    """Process-wide hash-cons store.  FormulaIds are indices into _nodes.

    Per formula id it memoizes what does not change once the id exists:
    `obs`, `next` per input, `unfold`, the compiled observation `check`,
    and the `reachable` set per input alphabet."""

    def __init__(self):
        self._ids = {}
        self._nodes = []
        self._obs_cache = {}
        self._next_cache = {}
        self._unfold_cache = {}
        self._check_cache = {}
        self._reach_cache = {}
        self._subst_cache = {}
        self._well_formed = {}

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

    def tt(self, space):
        return self._intern((TT, space))

    def var(self, k):
        return self._intern((VAR, k))

    def mk_obs(self, pred):
        if isinstance(pred, Universe):
            return self.tt(pred.space)
        return self._intern((OBS, pred))

    def mk_box(self, input_pred, body):
        return self._intern((BOX, input_pred, body))

    def mk_and(self, parts):
        flat = []
        for f in parts:
            node = self.node(f)
            if node[0] == AND:
                flat.extend(node[1])
            elif node[0] == TT:
                continue
            else:
                flat.append(f)
        seen, uniq = set(), []
        for f in flat:
            if f not in seen:
                seen.add(f)
                uniq.append(f)
        if not uniq:
            for f in parts:  # all parts were tt
                return f
            raise ValueError("empty conjunction")
        if len(uniq) == 1:
            return uniq[0]
        return self._intern((AND, tuple(uniq)))

    def mk_nu(self, body):
        return self._intern((NU, body))

    def mk_always(self, body, input_space_pred):
        """G f  =  nu v. f & [I]v   (f closed: the new binder would
        capture a free v of f)."""
        if not self.is_closed(body):
            raise ValueError("G over a formula with a free v")
        return self.mk_nu(self.mk_and([body, self.mk_box(input_space_pred, self.var(0))]))

    # -- structure checks ---------------------------------------------

    def is_closed(self, fid, depth=0):
        node = self.node(fid)
        tag = node[0]
        if tag == VAR:
            return node[1] < depth
        if tag in (TT,):
            return True
        if tag == OBS:
            return True
        if tag == BOX:
            return self.is_closed(node[2], depth)
        if tag == AND:
            return all(self.is_closed(f, depth) for f in node[1])
        if tag == NU:
            return self.is_closed(node[1], depth + 1)
        raise ValueError(tag)

    def is_well_formed(self, fid):
        """Closed and guarded, as every formula the verifier takes must
        be; cached per id."""
        out = self._well_formed.get(fid)
        if out is None:
            out = self._well_formed[fid] = (self.is_closed(fid)
                                            and self.is_guarded(fid))
        return out

    def is_guarded(self, fid):
        """Every variable occurrence sits under at least one box below its binder."""
        node = self.node(fid)
        tag = node[0]
        if tag == VAR:
            return True  # guardedness of bound vars is checked at the binder
        if tag in (TT, OBS):
            return True
        if tag == BOX:
            return self.is_guarded(node[2])
        if tag == AND:
            return all(self.is_guarded(f) for f in node[1])
        if tag == NU:
            return self._var_guarded(node[1], 0, False) and self.is_guarded(node[1])
        raise ValueError(tag)

    def _var_guarded(self, fid, depth, under_box):
        node = self.node(fid)
        tag = node[0]
        if tag == VAR:
            return under_box or node[1] != depth
        if tag in (TT, OBS):
            return True
        if tag == BOX:
            return self._var_guarded(node[2], depth, True)
        if tag == AND:
            return all(self._var_guarded(f, depth, under_box) for f in node[1])
        if tag == NU:
            return self._var_guarded(node[1], depth + 1, under_box)
        raise ValueError(tag)

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

    def space_of(self, fid):
        """Observation space of a formula, found structurally (no
        unfolding -- recursing through a fixpoint body would loop)."""
        node = self.node(fid)
        tag = node[0]
        if tag == TT:
            return node[1]
        if tag == OBS:
            return node[1].space
        if tag == BOX:
            return self.space_of(node[2])
        if tag == AND:
            for f in node[1]:
                s = self.space_of(f)
                if s is not None:
                    return s
            return None
        if tag == NU:
            return self.space_of(node[1])
        return None  # var: the binder's body determines the space

    def obs(self, fid):
        """Allowed observations of a closed, guarded formula."""
        out = self._obs_cache.get(fid)
        if out is not None:
            return out
        node = self.node(fid)
        tag = node[0]
        if tag == TT:
            out = Universe(node[1])
        elif tag == OBS:
            out = node[1]
        elif tag == BOX:
            out = Universe(self.space_of(node[2]))
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

    def next(self, fid, i):
        """Obligation after input i."""
        key = (fid, i)
        out = self._next_cache.get(key)
        if out is not None:
            return out
        node = self.node(fid)
        tag = node[0]
        if tag == TT:
            out = fid
        elif tag == OBS:
            out = self.tt(node[1].space)
        elif tag == BOX:
            if member(node[1], i):
                out = node[2]
            else:
                out = self.tt(self.space_of(node[2]))
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
    (f, g) in the result means f implies g.  Computed as a greatest
    fixpoint from the observation-inclusion pairs, pruning pairs whose
    successors fall outside the relation."""
    universe = set()
    for f in formulas:
        universe |= TABLE.reachable(f, inputs)
    universe = sorted(universe)
    rel = set()
    for f in universe:
        for g in universe:
            try:
                if subset(TABLE.obs(f), TABLE.obs(g)):
                    rel.add((f, g))
            except Undecidable:
                pass  # excluding a pair is always sound for a simulation
    changed = True
    while changed:
        changed = False
        for (f, g) in list(rel):
            for i in inputs:
                if (TABLE.next(f, i), TABLE.next(g, i)) not in rel:
                    rel.discard((f, g))
                    changed = True
                    break
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
