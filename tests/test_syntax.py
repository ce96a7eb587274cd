import pytest

from cosafe.formula import ASSERT, REFUTE, TABLE
from cosafe.models import (dial_model, lock_model, swat_model,
                           swat_properties)
from cosafe.predicate import (Complement, FiniteSet, Interval, LinearLink,
                              Product, Universe, complement)
from cosafe.syntax import (FormulaSyntaxError, SyntaxContext, parse_formula,
                           parse_property, print_formula, print_pred,
                           print_property)


@pytest.fixture
def dial_ctx():
    d = dial_model()
    return SyntaxContext(d.observation_space, d.input_pred)


@pytest.fixture
def swat_ctx():
    s = swat_model()
    return SyntaxContext(s.observation_space, s.input_pred)


def test_parse_obs_singleton(dial_ctx):
    f = parse_formula("<.=3>", dial_ctx)
    node = TABLE.node(f)
    assert node[0] == "obs"
    assert node[1] == FiniteSet(dial_ctx.space, frozenset((3,)))


def test_parse_neq_is_complement(dial_ctx):
    f = parse_formula("<.!=3>", dial_ctx)
    pred = TABLE.node(f)[1]
    assert isinstance(pred, Complement)
    assert pred.inner == FiniteSet(dial_ctx.space, frozenset((3,)))


def test_parse_setlit_and_bounds(dial_ctx):
    f = parse_formula("<{1,2,5}>", dial_ctx)
    assert TABLE.node(f)[1] == FiniteSet(dial_ctx.space, frozenset((1, 2, 5)))
    g = parse_formula("<.>=7>", dial_ctx)
    assert TABLE.node(g)[1] == FiniteSet(dial_ctx.space, frozenset((7, 8, 9)))


def test_parse_always_matches_builder(dial_ctx):
    f = parse_formula("G <.!=4>", dial_ctx)
    pred = Complement(dial_ctx.space,
                      FiniteSet(dial_ctx.space, frozenset((4,))))
    assert f == TABLE.mk_always(TABLE.mk_obs(pred), dial_ctx.input_pred)


def test_parse_explicit_nu_equals_G(dial_ctx):
    assert parse_formula("nu v. (<.!=4> & [tt] v)", dial_ctx) == \
        parse_formula("G <.!=4>", dial_ctx)


def test_parse_conjunction_and_parens(dial_ctx):
    f = parse_formula("(<{1}> & <{2}>) & tt", dial_ctx)
    assert f == TABLE.mk_and([TABLE.mk_obs(FiniteSet(dial_ctx.space,
                                                     frozenset((1,)))),
                              TABLE.mk_obs(FiniteSet(dial_ctx.space,
                                                     frozenset((2,))))])


def test_parse_property_polarities(dial_ctx):
    assert parse_property("G <.!=4>", dial_ctx).polarity == ASSERT
    assert parse_property("! G <.!=4>", dial_ctx).polarity == REFUTE
    p = parse_property("F <.=4>", dial_ctx)
    assert p.polarity == REFUTE
    # F<Q> abbreviates Refute(G <complement Q>)
    assert p.body == parse_formula("G <.!=4>", dial_ctx)


def test_parse_swat_product_predicate(swat_ctx):
    f = parse_formula("<(in[20000,100000],_,_)>", swat_ctx)
    pred = TABLE.node(f)[1]
    assert isinstance(pred, Product)
    assert isinstance(pred.components[0], Interval)
    assert pred.components[0].lo == 20000
    assert isinstance(pred.components[1], Universe)


def test_parse_swat_link_and_bool(swat_ctx):
    f = parse_formula("<link[0,1,5]> & <(_,_,{true})>", swat_ctx)
    parts = TABLE.node(f)[1]
    assert isinstance(TABLE.node(parts[0])[1], LinearLink)


def test_parse_errors(dial_ctx, swat_ctx):
    for bad in ("<", "G", "<.~3>", "<{}>", "v &", "<(.=1)>", "nu v <.=1>"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad, dial_ctx)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("<(_,_,{yes})>", swat_ctx)  # bad boolean literal
    with pytest.raises(FormulaSyntaxError):
        parse_formula("<(_,_)>", swat_ctx)  # wrong arity
    for bad in ("<link[a,1,2]>",   # not an integer
                "<link[0,1,x]>",
                "<link[0,5,2]>",   # no component 5
                "<link[-1,1,2]>",
                "<link[0,2,1]>",   # component 2 is boolean
                "<.=3>",           # scalar predicates over a product
                "<{3}>",
                "<!{3}>",
                "<.in[0,5]>"):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad, swat_ctx)
    with pytest.raises(FormulaSyntaxError):
        parse_formula("<link[0,1,2]>", dial_ctx)  # not a product space
    with pytest.raises(FormulaSyntaxError):
        parse_property("F <.=3>", swat_ctx)
    # a box names inputs: the dial and the water model have one, '*'
    for ctx, bad in ((dial_ctx, "[.=0] tt"), (dial_ctx, "[.!=0] tt"),
                     (dial_ctx, "[{0}] tt"), (dial_ctx, "[!{0,1}] tt"),
                     (dial_ctx, "G [.=3] <.!=1>"),
                     (swat_ctx, "G [.=3] <(_,_,{true})>")):
        with pytest.raises(FormulaSyntaxError):
            parse_formula(bad, ctx)


def test_parse_box_over_inputs():
    lock = lock_model(2)
    ctx = SyntaxContext(lock.observation_space, lock.input_pred)
    inputs = lock.input_pred.space
    for text, allowed in (("[.=1] tt", FiniteSet(inputs, frozenset((1,)))),
                          ("[!{0}] tt", Complement(inputs, FiniteSet(
                              inputs, frozenset((0,))))),
                          ("[{0,1}] tt", FiniteSet(inputs,
                                                   frozenset((0, 1)))),
                          ("[{1}] tt", FiniteSet(inputs, frozenset((1,))))):
        assert TABLE.node(parse_formula(text, ctx))[1] == allowed


@pytest.mark.parametrize("model", ("dial", "swat"))
def test_box_over_the_star_input_round_trips(model, dial_ctx, swat_ctx):
    # '*' is the one input of the dial and the water model: a box over
    # it prints as the input's printed form and parses back to it
    ctx = dial_ctx if model == "dial" else swat_ctx
    star = FiniteSet(ctx.input_pred.space, frozenset(("*",)))
    obs = TABLE.tt() if model == "swat" else parse_formula("<.!=3>", ctx)
    for f in (TABLE.mk_always(TABLE.mk_box(star, obs), ctx.input_pred),
              TABLE.mk_box(complement(star), TABLE.tt())):
        assert parse_formula(print_formula(f, ctx), ctx) == f
    assert parse_formula("G [{*}] tt", ctx) == parse_formula("G [.=*] tt",
                                                            ctx)


def test_print_parse_roundtrip_dial(dial_ctx):
    for text in ("tt", "<.=3>", "<.!=3>", "G <.!=4>", "F <.=4>",
                 "<{1,2}> & G <.!=0>", "[tt] <.=1>", "G [{*}] <.!=3>",
                 "[!{*}] <.=1>",
                 "nu v. (<{1,2}> & [tt] (v & <.!=0>))"):
        prop = parse_property(text, dial_ctx)
        printed = print_property(prop, dial_ctx)
        again = parse_property(printed, dial_ctx)
        assert again.body == prop.body
        assert again.polarity == prop.polarity


def test_print_parse_roundtrip_swat(swat_ctx):
    for text in ("G (<link[0,1,5]> & <(in[20000,100000],_,_)>)",
                 "G <(_,in[100000,900000],_)>",
                 "G <(_,_,{true})>"):
        f = parse_formula(text, swat_ctx)
        assert parse_formula(print_formula(f, swat_ctx), swat_ctx) == f


def test_print_swat_properties_parse_back(swat_ctx):
    s = swat_model()
    for prop in swat_properties(s).values():
        printed = print_property(prop, swat_ctx)
        again = parse_property(printed, swat_ctx)
        assert again.body == prop.body
        assert again.polarity == prop.polarity


def test_print_pred_forms(dial_ctx, swat_ctx):
    assert print_pred(Universe(dial_ctx.space), dial_ctx) == "tt"
    assert print_pred(FiniteSet(dial_ctx.space, frozenset((3,))),
                      dial_ctx) == ".=3"
    link = LinearLink(swat_ctx.space, src=0, dst=1, factor=5)
    assert print_pred(link, swat_ctx) == "link[0,1,5]"
