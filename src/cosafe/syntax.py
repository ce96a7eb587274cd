"""Plain-text syntax for properties, safety formulae, and predicates.

Grammar (whitespace-insensitive)::

    property := 'F' '<' pred '>'          -- Refute(G <complement>)
              | '!' formula               -- Refute(formula)
              | formula                   -- Assert(formula)
    formula  := term ('&' term)*
    term     := 'G' term                  -- nu v. term & [tt]v
              | '[' pred ']' term
              | '<' pred '>'
              | 'nu' 'v' '.' term         -- one binder, referenced as 'v'
              | 'v'
              | 'tt'
              | '(' formula ')'
    pred     := 'tt'
              | '.' cmp                   -- scalar observation constraint
              | setlit | '!' setlit
              | '(' comp (',' comp)* ')'  -- product observation
              | 'link' '[' int ',' int ',' int ']'   -- dst = factor * src
    cmp      := '=' value | '!=' value | '>=' value | '<=' value
              | 'in' '[' value ',' value ']'
    comp     := '_' | cmp | setlit | '!' setlit
    setlit   := '{' value (',' value)* '}'

'>=' and '<=' require a finite component space; 'in' builds an exact
integer interval.  Over a product space a predicate is 'tt', a product
or a link: '.' comparisons and set literals constrain one component, so
they are written inside '(' comp, ... ')'.  'link' names two
integer-line components of a product space by index.  Values are parsed
by the model context (integers by default, 'true'/'false' on boolean
components).
"""

import re

from .formula import ASSERT, REFUTE, TABLE, AND, BOX, NU, OBS, TT, VAR, Property
from .predicate import (BoolSpace, Complement, FiniteSet, Interval,
                        LinearLink, Product, ProductSpace, ScaledLine,
                        Universe, complement)

_TOKEN = re.compile(r"\s*([A-Za-z0-9\-]+|!=|>=|<=|[<>\[\]{}().&!=,_])")


class SyntaxContext:
    """What the parser needs to know about a model: its observation
    space, the full-alphabet input predicate for G, and value parsing."""

    def __init__(self, observation_space, input_pred):
        self.space = observation_space
        self.input_pred = input_pred

    def component_space(self, idx):
        if idx is None:
            return self.space
        return self.space.components[idx]

    def parse_value(self, token, idx=None):
        space = self.component_space(idx)
        if isinstance(space, BoolSpace):
            if token in ("true", "false"):
                return token == "true"
            raise FormulaSyntaxError("expected true/false, got %r" % token)
        try:
            return int(token)
        except ValueError:
            raise FormulaSyntaxError("expected an integer value, got %r" % token)

    def print_value(self, v, idx=None):
        if isinstance(v, bool):
            return "true" if v else "false"
        return str(v)


class FormulaSyntaxError(ValueError):
    pass


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            if text[pos:].strip():
                raise FormulaSyntaxError("cannot tokenize %r" % text[pos:])
            break
        tokens.append(m.group(1))
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text, ctx):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.ctx = ctx

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def take(self, expected=None):
        tok = self.peek()
        if tok is None:
            raise FormulaSyntaxError("unexpected end of input"
                                     + (", expected %r" % expected if expected else ""))
        if expected is not None and tok != expected:
            raise FormulaSyntaxError("expected %r, got %r" % (expected, tok))
        self.pos += 1
        return tok

    def done(self):
        if self.pos != len(self.tokens):
            raise FormulaSyntaxError("trailing input: %r" % self.tokens[self.pos:])

    # -- properties -----------------------------------------------------

    def property(self):
        if self.peek() == "F":
            self.take()
            self.take("<")
            pred = self.pred()
            self.take(">")
            self.done()
            body = TABLE.mk_always(TABLE.mk_obs(complement(pred)),
                                   self.ctx.input_pred)
            return Property("F", REFUTE, body)
        if self.peek() == "!":
            self.take()
            return Property("!", REFUTE, self.whole_formula())
        return Property("assert", ASSERT, self.whole_formula())

    def whole_formula(self):
        """A formula that ends the input and is closed and guarded, so
        that its semantics are defined (and unfolding terminates)."""
        f = self.formula()
        self.done()
        closed, guarded = TABLE.shape(f)
        if not closed:
            raise FormulaSyntaxError("'v' outside any 'nu v.'")
        if not guarded:
            raise FormulaSyntaxError("'v' must sit under a box '[...]' "
                                     "inside its 'nu v.'")
        return f

    # -- formulae --------------------------------------------------------

    def formula(self):
        parts = [self.term()]
        while self.peek() == "&":
            self.take()
            parts.append(self.term())
        return TABLE.mk_and(parts)

    def term(self):
        tok = self.peek()
        if tok == "G":
            self.take()
            body = self.term()
            try:
                return TABLE.mk_always(body, self.ctx.input_pred)
            except ValueError as e:
                raise FormulaSyntaxError(str(e))
        if tok == "[":
            self.take()
            pred = self.box_pred()
            self.take("]")
            return TABLE.mk_box(pred, self.term())
        if tok == "<":
            self.take()
            pred = self.pred()
            self.take(">")
            return TABLE.mk_obs(pred)
        if tok == "nu":
            self.take()
            self.take("v")
            self.take(".")
            return TABLE.mk_nu(self.term())
        if tok == "v":
            self.take()
            return TABLE.var(0)
        if tok == "tt":
            self.take()
            return TABLE.tt()
        if tok == "(":
            self.take()
            f = self.formula()
            self.take(")")
            return f
        raise FormulaSyntaxError("unexpected token %r" % tok)

    # -- predicates -------------------------------------------------------

    def pred(self, input_space=False):
        space = self.ctx.input_pred.space if input_space else self.ctx.space
        tok = self.peek()
        if tok == "tt":
            self.take()
            return Universe(space)
        if tok in (".", "{", "!") and isinstance(space, ProductSpace):
            raise FormulaSyntaxError(
                "a scalar predicate over a product space; write one "
                "component per factor: (c1,...,c%d)" % space.arity)
        if tok == ".":
            self.take()
            return self.cmp(space, None)
        if tok == "{":
            return self.setlit(space, None)
        if tok == "!":
            self.take()
            return complement(self.setlit(space, None))
        if tok == "link":
            self.take()
            if not isinstance(space, ProductSpace):
                raise FormulaSyntaxError("link over a non-product space")
            self.take("[")
            src = self.line_component(space)
            self.take(",")
            dst = self.line_component(space)
            self.take(",")
            factor = self.integer()
            self.take("]")
            return LinearLink(space, src=src, dst=dst, factor=factor)
        if tok == "(":
            if not isinstance(space, ProductSpace):
                raise FormulaSyntaxError("product predicate over a non-product space")
            self.take()
            comps = [self.comp(0)]
            while self.peek() == ",":
                self.take()
                comps.append(self.comp(len(comps)))
            self.take(")")
            if len(comps) != space.arity:
                raise FormulaSyntaxError("product predicate arity %d, space needs %d"
                                         % (len(comps), space.arity))
            return Product(space, tuple(comps))
        raise FormulaSyntaxError("unexpected token %r in predicate" % tok)

    def box_pred(self):
        """A box predicate: every value it names is one of the model's
        inputs."""
        pred = self.pred(input_space=True)
        named = pred.inner if isinstance(pred, Complement) else pred
        if isinstance(named, FiniteSet):
            alphabet = pred.space.enumerate()
            unknown = named.values - alphabet
            if unknown:
                raise FormulaSyntaxError(
                    "%s not among the model's inputs %s"
                    % (", ".join(sorted(map(repr, unknown))),
                       sorted(alphabet, key=repr)))
        return pred

    def integer(self):
        tok = self.take()
        try:
            return int(tok)
        except ValueError:
            raise FormulaSyntaxError("expected an integer, got %r" % tok)

    def line_component(self, space):
        """The index of an integer-line component of a product space."""
        k = self.integer()
        if not 0 <= k < space.arity:
            raise FormulaSyntaxError("component %d out of range 0..%d"
                                     % (k, space.arity - 1))
        if not isinstance(space.components[k], ScaledLine):
            raise FormulaSyntaxError("link needs integer-line components; "
                                     "component %d is not one" % k)
        return k

    def comp(self, idx):
        space = self.ctx.component_space(idx)
        tok = self.peek()
        if tok == "_":
            self.take()
            return Universe(space)
        if tok == "{":
            return self.setlit(space, idx)
        if tok == "!":
            self.take()
            return complement(self.setlit(space, idx))
        return self.cmp(space, idx)

    def cmp(self, space, idx):
        op = self.take()
        if op == "in":
            self.take("[")
            lo = self.ctx.parse_value(self.take(), idx)
            self.take(",")
            hi = self.ctx.parse_value(self.take(), idx)
            self.take("]")
            if not isinstance(space, ScaledLine):
                raise FormulaSyntaxError("'in' needs an integer-line component")
            if lo > hi:
                raise FormulaSyntaxError("in[%s,%s] is empty" % (lo, hi))
            return Interval(space, lo, hi)
        if op not in ("=", "!=", ">=", "<="):
            raise FormulaSyntaxError("unknown comparison %r" % op)
        v = self.ctx.parse_value(self.take(), idx)
        if op == "=":
            return FiniteSet(space, frozenset((v,)))
        if op == "!=":
            return complement(FiniteSet(space, frozenset((v,))))
        if not space.is_finite():
            raise FormulaSyntaxError("%r needs a finite space; use 'in[lo,hi]'" % op)
        vals = frozenset(o for o in space.enumerate()
                         if (o >= v if op == ">=" else o <= v))
        return FiniteSet(space, vals)

    def setlit(self, space, idx):
        self.take("{")
        vals = [self.ctx.parse_value(self.take(), idx)]
        while self.peek() == ",":
            self.take()
            vals.append(self.ctx.parse_value(self.take(), idx))
        self.take("}")
        return FiniteSet(space, frozenset(vals))


def parse_property(text, ctx):
    return _Parser(text, ctx).property()


def parse_formula(text, ctx):
    return _Parser(text, ctx).whole_formula()


# ---------------------------------------------------------------------------
# Printing
# ---------------------------------------------------------------------------

def print_pred(pred, ctx, idx=None, component=False):
    pv = lambda v: ctx.print_value(v, idx)
    if isinstance(pred, Universe):
        return "_" if component else "tt"
    if isinstance(pred, FiniteSet):
        if len(pred.values) == 1:
            (v,) = pred.values
            return ("" if component else ".") + "=" + pv(v)
        return "{%s}" % ",".join(pv(v) for v in sorted(pred.values, key=repr))
    if isinstance(pred, Complement) and isinstance(pred.inner, FiniteSet):
        if len(pred.inner.values) == 1:
            (v,) = pred.inner.values
            return ("" if component else ".") + "!=" + pv(v)
        return "!" + print_pred(pred.inner, ctx, idx, component=True)
    if isinstance(pred, Interval):
        return ("" if component else ".") + "in[%s,%s]" % (pv(pred.lo), pv(pred.hi))
    if isinstance(pred, LinearLink):
        return "link[%d,%d,%d]" % (pred.src, pred.dst, pred.factor)
    if isinstance(pred, Product):
        return "(%s)" % ",".join(print_pred(c, ctx, j, component=True)
                                 for j, c in enumerate(pred.components))
    raise FormulaSyntaxError("no printable form for %r" % (pred,))


def print_formula(fid, ctx):
    node = TABLE.node(fid)
    tag = node[0]
    if tag == TT:
        return "tt"
    if tag == VAR:
        return "v"
    if tag == OBS:
        return "<%s>" % print_pred(node[1], ctx)
    if tag == AND:
        return " & ".join(_maybe_paren(f, ctx) for f in node[1])
    if tag == BOX:
        return "[%s] %s" % (print_pred(node[1], ctx), _maybe_paren(node[2], ctx))
    if tag == NU:
        f = _always_body(fid)
        if f is not None:
            return "G %s" % _maybe_paren(f, ctx)
        return "nu v. %s" % _maybe_paren(node[1], ctx)
    raise FormulaSyntaxError(tag)


def _always_body(fid):
    """f when fid is G f = nu v. f & [I]v, otherwise None."""
    node = TABLE.node(fid)
    if node[0] != NU:
        return None
    body = TABLE.node(node[1])
    if body[0] == AND and len(body[1]) == 2:
        f, b = body[1]
        bn = TABLE.node(b)
        if (bn[0] == BOX and isinstance(bn[1], Universe)
                and TABLE.node(bn[2]) == (VAR, 0)):
            return f
    return None


def _maybe_paren(fid, ctx):
    out = print_formula(fid, ctx)
    if TABLE.node(fid)[0] == AND:
        return "(%s)" % out
    return out


def print_property(prop, ctx):
    if prop.polarity == ASSERT:
        return print_formula(prop.body, ctx)
    # recognize F <Q> = Refute(G <complement Q>)
    f = _always_body(prop.body)
    if f is not None and TABLE.node(f)[0] == OBS:
        return "F <%s>" % print_pred(complement(TABLE.node(f)[1]), ctx)
    return "! %s" % print_formula(prop.body, ctx)
