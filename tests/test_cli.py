import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cosafe import cli, models
from cosafe.cli import MAX_DIGITS, build_parser, main
from cosafe.predicate import Undecidable


def run(capsys, *argv):
    """The CLI's exit code, stdout and stderr; a flag argparse rejects
    exits from inside main."""
    try:
        code = main(list(argv))
    except SystemExit as e:
        code = e.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strip_ms(csv_text):
    """Drop the elapsed-milliseconds column, the only nondeterministic
    field."""
    rows = []
    for line in csv_text.strip().split("\n"):
        rows.append(",".join(line.split(",")[:-1]))
    return rows


def test_lock_experiment_small_digits(capsys):
    code, out, _ = run(capsys, "lock-experiment", "--digits", "2",
                       "--operators", "shift")
    assert code == 0
    rows = strip_ms(out)
    assert rows[0] == "operators,inferred,explored"
    assert rows[1].startswith("{shift},")
    inferred, explored = map(int, rows[1].split(",")[1:3])
    assert 0 < inferred < 100
    assert explored > 0


def test_lock_experiment_rejects_unknown_operator(capsys):
    code, _, err = run(capsys, "lock-experiment", "--digits", "2",
                       "--operators", "warp")
    assert code == 2
    assert "warp" in err


def test_lock_experiment_unknown_budget_exits_1(capsys):
    code, out, _ = run(capsys, "lock-experiment", "--digits", "2",
                       "--operators", "shift", "--max-pairs", "3")
    assert code == 1


def test_puzzle_experiment_golden_counts(capsys):
    code, out, _ = run(capsys, "puzzle-experiment", "--rows", "17:20")
    assert code == 0
    rows = strip_ms(out)
    assert rows[0] == "N,MAX,operators,outcome,explored"
    assert rows[1] == "17,20,{},Holds,1616"
    assert rows[2] == "17,20,{swap},Holds,845"


def test_puzzle_experiment_bad_row_spec(capsys):
    code, _, err = run(capsys, "puzzle-experiment", "--rows", "17x20")
    assert code == 2
    assert "N:MAX" in err


@pytest.mark.parametrize("rows", ["17:0", "17:1", "17:20,17:-3"])
def test_puzzle_experiment_max_below_2_exits_2_with_one_line(capsys, rows):
    # with a maximum below 2 the puzzle model has one state, so the row
    # would report a verdict about nothing
    code, out, err = run(capsys, "puzzle-experiment", "--rows", rows)
    assert (code, out) == (2, "")
    assert err.startswith("error: bad puzzle row") and err.count("\n") == 1
    assert "out of range" in err


def test_check_dial_json(capsys):
    code, out, _ = run(capsys, "check", "--model", "dial", "F <.=7>")
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "Holds"
    assert doc["pairs_explored"] == 8  # states 0..7 along the cycle
    code, out, _ = run(capsys, "check", "--model", "dial",
                       "--state", "3", "G <.!=7>")
    assert code == 0
    assert json.loads(out)["outcome"] == "Fails"


def test_check_swat_property_text(capsys):
    code, out, _ = run(capsys, "check", "--model", "swat",
                       "G <(_,_,{true})>")
    assert code == 0
    assert json.loads(out)["outcome"] == "Holds"


def test_check_bad_property_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--model", "dial", "G <.~7>")
    assert code == 2
    assert "bad property" in err


def test_check_unknown_model_is_config_error(capsys):
    code, _, err = run(capsys, "check", "--model", "toaster", "tt")
    assert code == 2


def test_check_state_flag_limited_to_dial_and_lock(capsys):
    code, _, err = run(capsys, "check", "--model", "swat", "--state", "0",
                       "tt")
    assert code == 2


@pytest.mark.parametrize("argv", [
    ("--model", "lock", "--digits", "2", "--state", "500", "G <.!=3>"),
    ("--model", "dial", "--state", "12", "G <.!=3>"),
    ("--model", "dial", "--state", "-1", "G <.!=3>"),
    ("--model", "dial", "--state", "three", "G <.!=3>"),
    ("--model", "dial", "v"),
    ("--model", "dial", "nu v. v"),
    ("--model", "dial", "nu v. <.!=3> & v"),
    ("--model", "dial", "nu v. (<.!=3> & G [tt] v)"),
    ("--model", "dial", "--closure-depth", "-1", "G <.!=3>"),
    ("--model", "lock", "--digits", "0", "G <.!=3>"),
    ("--model", "lock", "--digits", "two", "G <.!=3>"),
    ("--model", "swat", "--quantum", "0", "G <(_,_,{true})>"),
    ("--model", "swat", "--quantum", "nan", "G <(_,_,{true})>"),
    ("--model", "dial", "--max-pairs", "0", "G <.!=3>"),
    # a coarser quantum would scale the whole water model to 0
    ("--model", "swat", "--quantum", "2", "G <(in[0,1000],_,_)>"),
    ("--model", "swat", "--quantum", "inf", "G <(in[0,1000],_,_)>"),
    ("--model", "swat", "G <(in[5,1],_,_)>"),
    # link[src,dst,factor] needs integers naming components of a product
    ("--model", "swat", "G <link[a,1,2]>"),
    ("--model", "dial", "G <link[0,1,2]>"),
    ("--model", "swat", "G <link[0,5,2]>"),
    # a scalar predicate cannot constrain a product observation
    ("--model", "swat", "G <.=3>"),
    ("--model", "swat", "G <{3}>"),
    ("--model", "swat", "G <!{3}>"),
    # a box names inputs of the model
    ("--model", "swat", "G [.=3] <(_,_,{true})>"),
    ("--model", "dial", "[.=0] tt"),
    ("--model", "lock", "--digits", "2", "[.!=2] tt"),
    ("--model", "lock", "--digits", "2", "[{0,2}] tt"),
    ("--model", "lock", "--digits", "2", "[!{1,7}] tt"),
    # pressure is g times the level, so g is a positive integer
    ("--model", "swat", "--g", "0", "G <(_,_,{true})>"),
    ("--model", "swat", "--g", "-2", "G <(_,_,{true})>"),
    ("--model", "swat", "--g", "2.5", "G <(_,_,{true})>"),
    # the accumulator starts at 1, so a maximum below 2 gives one state
    ("--model", "puzzle", "--puzzle-max", "0", "G <.!=5>"),
    ("--model", "puzzle", "--puzzle-max", "1", "G <.!=5>"),
    ("--model", "puzzle", "--puzzle-max", "-3", "G <.!=5>"),
])
def test_check_bad_input_exits_2_with_one_line(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("prop,outcome", [("G <.in[0,100]>", "Holds"),
                                          ("G <.in[0,3]>", "Fails")])
def test_check_operator_without_an_image_rule_changes_nothing(capsys, prop,
                                                              outcome):
    # swap has no image of an interval: the closure derives nothing from
    # such a pair, and the output is that of a run without operators
    argv = ("check", "--model", "puzzle", "--puzzle-max", "5")
    code, out, err = run(capsys, *argv, "--operators", "swap", prop)
    assert (code, err) == (0, "")
    assert json.loads(out)["outcome"] == outcome
    assert out == run(capsys, *argv, prop)[1]


@pytest.mark.parametrize("mode", ("literal", "image", "both"))
def test_check_shift_maps_the_inputs_a_box_names(capsys, mode):
    # shift moves input 1 to input 0, so it maps this formula to
    # G [{0}] [{0}] <.!=44>: the run closes nothing under it and fails
    # as a run without operators does
    argv = ("check", "--model", "lock", "--digits", "2", "--state", "4",
            "--failure-inference", mode)
    prop = "G [{1}] [{1}] <.!=44>"
    code, out, err = run(capsys, *argv, "--operators", "shift", prop)
    assert (code, err) == (0, "")
    result = json.loads(out)
    assert (result["outcome"], result["pairs_explored"]) == ("Fails", 53)
    assert out == run(capsys, *argv, prop)[1]



def _raises(error):
    def call(*args, **kwargs):
        raise error
    return call


@pytest.mark.parametrize("argv, name, error", [
    (("check", "--model", "dial", "G <.!=7>"), "check_many",
     ValueError("no image rule\nfor this box")),
    (("lock-experiment", "--digits", "2", "--operators", "shift"),
     "check_many", Undecidable("p", "q")),
    (("quantify", "--model", "swat"), "capabilities",
     Undecidable("p", "q")),
])
def test_library_error_exits_2_with_one_line(capsys, monkeypatch, argv,
                                             name, error):
    # an error the library raises past a subcommand is a bad input, not
    # an Unknown verdict (exit 1) or a crash
    monkeypatch.setattr(cli, name, _raises(error))
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "Traceback" not in out + err

def test_python_m_cosafe_runs_from_a_checkout():
    src = pathlib.Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-m", "cosafe", "check", "--model", "dial",
         "F <.=7>"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout)["outcome"] == "Holds"
    done = subprocess.run(
        [sys.executable, "-m", "cosafe", "check", "--model", "swat",
         "G <.=3>"], capture_output=True, text=True, env=env, timeout=120)
    assert done.returncode == 2
    assert done.stderr.startswith("error: ") and done.stderr.count("\n") == 1


def test_digits_bounded_before_the_lock_is_built(capsys, monkeypatch):
    def build(digits):
        raise AssertionError("lock_model(%d) was called" % digits)

    monkeypatch.setattr(models, "lock_model", build)
    too_many = str(MAX_DIGITS + 1)
    for argv in (("check", "--model", "lock", "--digits", too_many, "tt"),
                 ("lock-experiment", "--digits", too_many)):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err.startswith("error: argument --digits") and \
            err.count("\n") == 1
    args = build_parser().parse_args(
        ["check", "--model", "lock", "--digits", str(MAX_DIGITS), "tt"])
    assert args.digits == MAX_DIGITS


def test_check_g_tt_is_neutral_in_a_conjunction(capsys):
    docs = []
    for text in ("G tt & G <.!=3>", "G <.!=3>"):
        code, out, _ = run(capsys, "check", "--model", "dial", text)
        assert code == 0
        doc = json.loads(out)
        docs.append((doc["outcome"], doc["pairs_explored"]))
    assert docs[0] == docs[1] == ("Fails", 4)


def test_missing_subcommand_exits_2(capsys):
    with pytest.raises(SystemExit) as e:
        main([])
    assert e.value.code == 2


def test_output_flag_writes_file(tmp_path, capsys):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, "check", "--model", "dial", "F <.=7>",
                       "--output", str(target))
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["outcome"] == "Holds"


def test_quantify_from_attacker_file(tmp_path, capsys):
    spec = [
        {"name": "spoof-all", "attacks": [{"kind": "surge"}]},
        {"name": "nudge", "attacks": [{"kind": "bias",
                                       "params": {"b": 200}}]},
    ]
    path = tmp_path / "attackers.json"
    path.write_text(json.dumps(spec))
    dot = tmp_path / "hasse.dot"
    code, out, _ = run(capsys, "quantify", "--model", "swat",
                       "--attackers", str(path), "--dot", str(dot))
    assert code == 0
    doc = json.loads(out)
    by_name = {r["attacker"]: r for r in doc["reports"]}
    assert by_name["spoof-all"]["capabilities"] == ["Con", "Hg", "Lvl"]
    assert by_name["nudge"]["capabilities"] == ["Con"]
    assert doc["hasse"] == [["nudge", "spoof-all"]]
    assert '"nudge" -> "spoof-all";' in dot.read_text()


def test_quantify_builds_the_water_model_once(tmp_path, capsys, monkeypatch):
    # the attackers and the properties come from one system
    built = []
    swat_model = models.swat_model
    monkeypatch.setattr(models, "swat_model",
                        lambda *a, **k: built.append(a) or swat_model(*a, **k))
    path = tmp_path / "attackers.json"
    path.write_text(json.dumps([{"name": "spoof-all",
                                 "attacks": [{"kind": "surge"}]}]))
    code, out, _ = run(capsys, "quantify", "--model", "swat",
                       "--attackers", str(path))
    assert code == 0 and len(built) == 1
    assert json.loads(out)["reports"][0]["capabilities"] == \
        ["Con", "Hg", "Lvl"]


def test_quantify_rejects_unknown_kind(tmp_path, capsys):
    path = tmp_path / "attackers.json"
    path.write_text(json.dumps([{"name": "x",
                                 "attacks": [{"kind": "meteor"}]}]))
    code, _, err = run(capsys, "quantify", "--model", "swat",
                       "--attackers", str(path))
    assert code == 2
    assert "meteor" in err


def bias_doc(b):
    return [{"name": "x", "attacks": [{"kind": "bias", "params": {"b": b}}]}]


@pytest.mark.parametrize("doc", [
    bias_doc("x"),
    bias_doc(None),
    [{"name": "x", "attacks": [{"kind": "bias", "params": [200]}]}],
    [{"name": "x", "attacks": ["surge"]}],
    [{"name": "x", "attacks": 5}],
    [{"name": "", "attacks": []}],
    5,
    # b is an int, not a float (1e400 and Infinity read as inf), a bool
    # or a numeral string
    pytest.param('[{"name": "x", "attacks": [{"kind": "bias", '
                 '"params": {"b": 1e400}}]}]', id="b-1e400"),
    bias_doc(float("inf")),
    bias_doc(float("nan")),
    bias_doc(1.7),
    bias_doc(True),
    bias_doc("200"),
    [{"name": "x", "attacks": [{"kind": ["bias"]}]}],
    [{"name": ["x"], "attacks": []}],
    # reports, the matrix and the Hasse edges are keyed by name
    [{"name": "A", "attacks": [{"kind": "surge"}]},
     {"name": "A", "attacks": []}],
])
def test_quantify_bad_attacker_file_exits_2(tmp_path, capsys, doc):
    path = tmp_path / "attackers.json"
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, out, err = run(capsys, "quantify", "--model", "swat",
                         "--attackers", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1


JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda kids: st.lists(kids, max_size=2)
    | st.dictionaries(st.text(max_size=2), kids, max_size=2),
    max_leaves=4)
ATTACK = st.fixed_dictionaries(
    {"kind": st.sampled_from(("surge", "bias", "stealthy", "meteor")) | JSON},
    optional={"params": st.fixed_dictionaries(
        {}, optional={"b": st.integers() | JSON}) | JSON})
ATTACKER = st.fixed_dictionaries(
    {"name": st.sampled_from(("A", "B")) | st.text(max_size=3) | JSON,
     "attacks": st.lists(ATTACK, max_size=2) | JSON})


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.lists(ATTACKER, max_size=3) | JSON)
def test_quantify_any_attacker_file_exits_0_or_2(tmp_path, capsys, doc):
    # a valid file runs; anything else exits 2 with one line, and no
    # file crashes quantify (which would exit 1, the code of Unknown)
    path = tmp_path / "attackers.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "quantify", "--model", "swat",
                         "--attackers", str(path))
    if code == 0:
        assert err == "" and json.loads(out)["reports"] is not None
    else:
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("argv", [
    ["check", "--model", "dial", "--bias", "900", "F <.=3>"],
    ["check", "--model", "swat", "--stealth-bias", "5", "G tt"],
    ["quantify", "--model", "swat", "--attackers", "a.json",
     "--bias", "900"],
])
def test_spoof_offsets_are_flags_of_swat_experiment_only(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: unrecognized arguments") and \
        err.count("\n") == 1
    args = build_parser().parse_args(["swat-experiment", "--bias", "900",
                                      "--stealth-bias", "5"])
    assert (args.bias, args.stealth_bias) == (900, 5)


def test_quantify_rejects_non_swat_model(tmp_path, capsys):
    path = tmp_path / "attackers.json"
    path.write_text("[]")
    code, _, err = run(capsys, "quantify", "--model", "dial",
                       "--attackers", str(path))
    assert code == 2


def test_determinism_modulo_ms(capsys):
    outs = []
    for _ in range(2):
        code, out, _ = run(capsys, "puzzle-experiment", "--rows", "17:20")
        assert code == 0
        outs.append(strip_ms(out))
    assert outs[0] == outs[1]


def test_swat_experiment_structure(capsys):
    code, out, _ = run(capsys, "swat-experiment")
    assert code == 0
    csv_part, json_part = out.split("\n{", 1)
    rows = strip_ms(csv_part)
    assert rows[0] == "property,scenario,explored,holds"
    by_key = {}
    for row in rows[1:]:
        prop, scen, explored, holds = row.split(",")
        by_key[(prop, scen)] = (int(explored), holds)
    assert by_key[("Lvl", "unattacked")][1] == "True"
    assert by_key[("Hg", "unattacked")] == (1, "True")  # inferred from Lvl
    assert by_key[("Con", "beta")][1] == "False"
    assert by_key[("Lvl", "gamma")][1] == "False"
    assert by_key[("Con", "gamma")][1] == "True"
    doc = json.loads("{" + json_part)
    assert sorted(doc["hasse"]) == [["beta", "alpha"], ["gamma", "alpha"]]


@pytest.mark.parametrize("obs", ("<.!=3>", "<.<=9>"))
@pytest.mark.parametrize("state", ("0", "3", "7"))
def test_check_box_over_the_star_input(capsys, state, obs):
    # '*' is the dial's one input, so the box holds its body after every
    # step, and G [{*}] <Q> has the verdict of G <Q>
    outcomes = []
    for prop in ("G [{*}] " + obs, "G " + obs):
        code, out, err = run(capsys, "check", "--model", "dial", "--state",
                             state, prop)
        assert (code, err) == (0, "")
        outcomes.append(json.loads(out)["outcome"])
    assert outcomes[0] == outcomes[1]


@pytest.mark.parametrize("argv", [
    ("--model", "dial", "G [{*,x}] <.!=3>"),
    ("--model", "swat", "G [.=3] tt"),
    ("--model", "lock", "--digits", "2", "G [{7}] <.!=3>"),
])
def test_check_unknown_box_input_exits_2(capsys, argv):
    code, out, err = run(capsys, "check", *argv)
    assert (code, out) == (2, "")
    assert "not among the model's inputs" in err and err.count("\n") == 1


# property texts from the grammar, over values of the dial, lock(2) and
# their inputs, and junk from the grammar's own characters
VALUE = st.sampled_from(("0", "1", "3", "7", "99", "*", "x", "-1", "true"))
PRED = st.one_of(
    st.just("tt"),
    st.tuples(st.sampled_from((".=", ".!=", ".>=", ".<=")), VALUE).map(
        "".join),
    st.tuples(VALUE, VALUE).map(lambda vs: ".in[%s,%s]" % vs),
    st.lists(VALUE, min_size=1, max_size=3).map(
        lambda vs: "{%s}" % ",".join(vs)),
    st.lists(VALUE, min_size=1, max_size=2).map(
        lambda vs: "!{%s}" % ",".join(vs)))
TERM = st.recursive(
    st.one_of(st.just("tt"), st.just("v"), PRED.map("<%s>".__mod__)),
    lambda kids: st.one_of(
        kids.map("G %s".__mod__),
        st.tuples(PRED, kids).map(lambda pk: "[%s] %s" % pk),
        kids.map("nu v. %s".__mod__),
        st.tuples(kids, kids).map(lambda ab: "(%s & %s)" % ab)),
    max_leaves=5)
PROPERTY = st.one_of(
    TERM, TERM.map("! %s".__mod__), PRED.map("F <%s>".__mod__),
    st.text("<>[]{}().&!=,_*Gvtnu F.0137x", max_size=14))


def flag(name, values):
    """An optional flag with a value drawn from values."""
    return st.none() | st.sampled_from(values).map(lambda v: (name, v))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(("dial", "lock")), PROPERTY, st.tuples(
    flag("--state", ("0", "5", "99", "100", "-1", "x")),
    flag("--digits", ("2", "1", "0", "7", "x", "2.5")),
    flag("--max-pairs", ("1", "3", "50", "0", "-2", "x")),
    flag("--failure-inference", ("literal", "image", "both", "all"))))
def test_check_exit_codes(capsys, model, prop, flags):
    # every input ends in 0, 1 or 2 without a traceback, and 1 (the code
    # of Unknown) only with an Unknown outcome
    if flags[1] is None:
        flags += (("--digits", "2"),)  # lock(2), not the default lock(4)
    argv = ["--model", model] + [a for f in flags if f for a in f]
    code, out, err = run(capsys, "check", *argv, "--", prop)
    assert code in (0, 1, 2)
    assert "Traceback" not in out + err
    if code == 1:
        assert json.loads(out)["outcome"] == "Unknown"
    elif code == 0:
        assert err == "" and json.loads(out)["outcome"] != "Unknown"
    else:
        assert out == "" and err.startswith("error: ")
