"""Batch front-end: experiment reproduction, ad-hoc checking, and
attacker quantification.

Exit codes: 0 success, 1 a property check came back Unknown, 2
configuration error (unknown names, bad files, bad flags) or a library
error (ValueError, Undecidable) that escapes a subcommand, reported as
one line on stderr.

Output formats are deterministic; the elapsed-milliseconds columns are
the only fields that vary between runs and are never compared in tests.
"""

import argparse
import io
import json
import sys as _sys
import time

from . import models
from .attacker import (Attacker, capabilities, hasse_dot, hierarchy,
                       reports_json)
from .closure import BOTH, IMAGE, LITERAL, ClosureConfig, KnowledgeBase
from .formula import formula_similarity
from .predicate import Undecidable
from .syntax import FormulaSyntaxError, SyntaxContext, parse_property
from .verify import DEFAULT_MAX_PAIRS, UNKNOWN, check_many

LOCK_OPERATOR_SETS = (
    ("shift",),
    ("add",),
    ("shift", "add"),
    ("shift", "shift2"),
    ("shift", "shift2", "shift3"),
    ("shift", "shift2", "shift3", "add"),
    ("shift", "shift2", "shift3", "add", "add2"),
    ("shift", "shift2", "shift3", "add", "add2", "add3", "add4",
     "add5", "add6", "add7", "add8", "add9"),
)

PUZZLE_ROWS = ((17, 20), (500, 200))
PUZZLE_SLOW_ROWS = ((637, 300), (749, 400))


class ConfigError(ValueError):
    pass


def _write(args, text):
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _closure_kwargs(args):
    return dict(depth=args.closure_depth, failure_mode=args.failure_inference)


# ---------------------------------------------------------------------------
# lock-experiment
# ---------------------------------------------------------------------------

def cmd_lock_experiment(args):
    digits = args.digits
    sys_ = models.lock_model(digits)
    props = models.lock_properties(sys_)
    if args.operators is not None:
        sets = (tuple(args.operators),)
    else:
        sets = LOCK_OPERATOR_SETS
    out = io.StringIO()
    out.write("operators,inferred,explored,elapsed_ms\n")
    for names in sets:
        try:
            ops = list(models.lock_operators(digits, names).values())
        except KeyError as e:
            raise ConfigError(str(e))
        cfg = ClosureConfig(ops, **_closure_kwargs(args))
        t0 = time.perf_counter()
        results, _, inferred = check_many(sys_, 0, props, KnowledgeBase(),
                                          cfg, max_pairs=args.max_pairs)
        ms = (time.perf_counter() - t0) * 1000.0
        explored = sum(v.stats.pairs_explored for _, v in results)
        unknown = any(v.outcome == UNKNOWN for _, v in results)
        out.write("{%s},%d,%d,%.0f\n"
                  % (" ".join(names), inferred, explored, ms))
        if unknown:
            _write(args, out.getvalue())
            return 1
    _write(args, out.getvalue())
    return 0


# ---------------------------------------------------------------------------
# puzzle-experiment
# ---------------------------------------------------------------------------

def _parse_rows(spec):
    rows = []
    for part in spec.split(","):
        try:
            n, mx = part.split(":")
            rows.append((int(n), _puzzle_max(mx)))
        except ValueError:
            raise ConfigError("bad puzzle row %r; expected N:MAX" % part)
        except argparse.ArgumentTypeError as e:
            raise ConfigError("bad puzzle row %r; MAX %s" % (part, e))
    return tuple(rows)


def cmd_puzzle_experiment(args):
    if args.rows is not None:
        rows = _parse_rows(args.rows)
    else:
        rows = PUZZLE_ROWS + (PUZZLE_SLOW_ROWS if args.slow else ())
    out = io.StringIO()
    out.write("N,MAX,operators,outcome,explored,elapsed_ms\n")
    saw_unknown = False
    for (n, mx) in rows:
        sys_ = models.puzzle_model(mx)
        prop = models.puzzle_property(sys_, n)
        for names, ops in (("{}", ()), ("{swap}", (models.puzzle_swap(),))):
            cfg = ClosureConfig(ops, **_closure_kwargs(args))
            t0 = time.perf_counter()
            results, _, _ = check_many(sys_, sys_.initial, [prop],
                                       KnowledgeBase(), cfg,
                                       max_pairs=args.max_pairs)
            ms = (time.perf_counter() - t0) * 1000.0
            v = results[0][1]
            saw_unknown = saw_unknown or v.outcome == UNKNOWN
            out.write("%d,%d,%s,%s,%d,%.0f\n"
                      % (n, mx, names, v.outcome, v.stats.pairs_explored, ms))
    _write(args, out.getvalue())
    return 1 if saw_unknown else 0


# ---------------------------------------------------------------------------
# swat-experiment
# ---------------------------------------------------------------------------

def _swat_system(args):
    return models.swat_model(models.SwatParams(g=args.g, quantum=args.quantum))


def _swat_setup(sys_, args):
    """The water model's properties Lvl, Hg, Con and their closure."""
    props = models.swat_properties(sys_)
    plist = [props["Lvl"], props["Hg"], props["Con"]]
    implication = formula_similarity([p.body for p in plist], sys_.inputs)
    cfg = ClosureConfig((), implication=implication, **_closure_kwargs(args))
    return plist, cfg


def swat_attackers(sys_, b_bias, b_stealth):
    attacks = models.swat_attacks(sys_, b_bias=b_bias, b_stealth=b_stealth)
    return [Attacker("alpha", [attacks["alpha"]]),
            Attacker("beta", [attacks["beta"]]),
            Attacker("gamma", [attacks["gamma"]])]


def cmd_swat_experiment(args):
    sys_ = _swat_system(args)
    plist, cfg = _swat_setup(sys_, args)
    attackers = swat_attackers(sys_, args.bias, args.stealth_bias)

    out = io.StringIO()
    out.write("property,scenario,explored,holds,elapsed_ms\n")
    t0 = time.perf_counter()
    results, _, _ = check_many(sys_, sys_.initial, plist, KnowledgeBase(),
                               cfg, max_pairs=args.max_pairs)
    ms = (time.perf_counter() - t0) * 1000.0
    saw_unknown = any(v.outcome == UNKNOWN for _, v in results)
    for p, v in results:
        out.write("%s,unattacked,%d,%s,%.0f\n"
                  % (p.name, v.stats.pairs_explored, v.holds(), ms))

    reports = []
    for attacker in attackers:
        t0 = time.perf_counter()
        report = capabilities(attacker, sys_, sys_.initial, plist, cfg,
                              max_pairs=args.max_pairs)
        ms = (time.perf_counter() - t0) * 1000.0
        reports.append(report)
        row = report.matrix[attacker.attacks[0].name]
        for p in plist:
            v = row[p.name]
            saw_unknown = saw_unknown or v.outcome == UNKNOWN
            out.write("%s,%s,%d,%s,%.0f\n"
                      % (p.name, attacker.name, v.stats.pairs_explored,
                         v.holds(), ms))
    h = hierarchy(reports)
    out.write(reports_json(reports, h["hasse"]))
    _write(args, out.getvalue())
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(hasse_dot(reports, h["hasse"]))
    return 1 if saw_unknown else 0


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _build_model(args):
    name = args.model
    if name == "dial":
        sys_ = models.dial_model()
        sys_.initial = 0
        ops = {}
    elif name == "lock":
        sys_ = models.lock_model(args.digits)
        sys_.initial = 0
        ops = models.lock_operators(args.digits)
    elif name == "puzzle":
        sys_ = models.puzzle_model(args.puzzle_max)
        ops = {"swap": models.puzzle_swap()}
    elif name == "swat":
        sys_ = _swat_system(args)
        ops = {}
    else:
        raise ConfigError("unknown model %r" % name)
    return sys_, ops


def _pick_operators(args, available):
    if args.operators is None:
        return ()
    unknown = [n for n in args.operators if n not in available]
    if unknown:
        raise ConfigError("unknown operators: %s" % ", ".join(unknown))
    return tuple(available[n] for n in args.operators)


def cmd_check(args):
    sys_, available = _build_model(args)
    ops = _pick_operators(args, available)
    x0 = sys_.initial
    if args.state is not None:
        if args.model not in ("dial", "lock"):
            raise ConfigError("--state supports only dial and lock")
        try:
            x0 = int(args.state)
        except ValueError:
            x0 = None
        # a dial or lock state is the value it shows
        if x0 not in sys_.observation_space.values:
            raise ConfigError("--state %s is not a state of %s"
                              % (args.state, sys_.name))
    ctx = SyntaxContext(sys_.observation_space, sys_.input_pred)
    try:
        prop = parse_property(args.property, ctx)
    except FormulaSyntaxError as e:
        raise ConfigError("bad property %r: %s" % (args.property, e))
    cfg = ClosureConfig(ops, **_closure_kwargs(args))
    results, _, _ = check_many(sys_, x0, [prop], KnowledgeBase(), cfg,
                               max_pairs=args.max_pairs)
    v = results[0][1]
    doc = {
        "model": args.model,
        "property": args.property,
        "outcome": v.outcome,
        "pairs_explored": v.stats.pairs_explored,
        "closure_hits": v.stats.closure_hits,
        "subset_checks": v.stats.subset_checks,
    }
    _write(args, json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return 1 if v.outcome == UNKNOWN else 0


# ---------------------------------------------------------------------------
# quantify
# ---------------------------------------------------------------------------

def _load_attackers(path, sys_):
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError) as e:
        raise ConfigError("cannot read attacker file %s: %s" % (path, e))
    if not isinstance(doc, list):
        raise ConfigError("attacker file %s must hold a JSON list" % path)
    kinds = models.attack_kinds(sys_)
    attackers = []
    names = set()
    for entry in doc:
        try:
            name = entry["name"]
            specs = entry["attacks"]
        except (TypeError, KeyError):
            raise ConfigError("attacker entries need 'name' and 'attacks'")
        # reports, the matrix and the Hasse edges are keyed by name
        if not (isinstance(name, str) and name):
            raise ConfigError("an attacker name must be a nonempty string, "
                              "got %r" % (name,))
        if name in names:
            raise ConfigError("two attackers are named %r" % name)
        names.add(name)
        if not (isinstance(specs, list)
                and all(isinstance(spec, dict) for spec in specs)):
            raise ConfigError("attacks of %r must be a list of objects"
                              % (name,))
        attacks = []
        for spec in specs:
            kind = spec.get("kind")
            if not isinstance(kind, str) or kind not in kinds:
                raise ConfigError("unknown attack kind %r (have: %s)"
                                  % (kind, ", ".join(sorted(kinds))))
            params = spec.get("params", {})
            if not isinstance(params, dict):
                raise ConfigError("params of attack kind %r must be an "
                                  "object" % (kind,))
            try:
                attacks.append(kinds[kind](params))
            except (TypeError, ValueError) as e:
                raise ConfigError("bad params for attack kind %r: %s"
                                  % (kind, e))
        attackers.append(Attacker(name, attacks))
    return attackers


def cmd_quantify(args):
    sys_, _ = _build_model(args)
    if args.model == "swat":
        plist, cfg = _swat_setup(sys_, args)
    else:
        raise ConfigError("quantify currently supports --model swat")
    attackers = _load_attackers(args.attackers, sys_)
    reports = [capabilities(a, sys_, sys_.initial, plist, cfg,
                            max_pairs=args.max_pairs) for a in attackers]
    saw_unknown = any(r.undetermined for r in reports)
    h = hierarchy(reports)
    _write(args, reports_json(reports, h["hasse"]))
    if args.dot:
        with open(args.dot, "w") as fh:
            fh.write(hasse_dot(reports, h["hasse"]))
    return 1 if saw_unknown else 0


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        self.exit(2, "error: %s\n" % message)


# lock(d) builds a successor table of 10^d rows before any check runs
MAX_DIGITS = 6


def _number(kind, lo, hi=None, strict=False):
    """An argparse type: text read as `kind`, at least lo (above lo when
    strict) and at most hi; NaN is out of every range."""
    bounds = ("> %s" if strict else ">= %s") % lo
    if hi is not None:
        bounds += ", <= %s" % hi

    def parse(text):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError("%r is not a number" % text)
        if not (value > lo if strict else value >= lo) or \
                (hi is not None and value > hi):
            raise argparse.ArgumentTypeError("%s is out of range (%s)"
                                             % (text, bounds))
        return value
    return parse


_digits = _number(int, 1, MAX_DIGITS)
# the accumulator starts at 1 and no process reads once it reaches the
# maximum, so a maximum below 2 gives a one-state model
_puzzle_max = _number(int, 2)


def _quantum(text):
    """An argparse type: a quantum that leaves at least one quantum in
    one unit of the water model."""
    value = _number(float, 0.0, strict=True)(text)
    try:
        models.quantum_scale(value)
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))
    return value


def _common_flags(p):
    p.add_argument("--closure-depth", type=_number(int, 0), default=1)
    p.add_argument("--failure-inference", choices=(LITERAL, IMAGE, BOTH),
                   default=BOTH)
    p.add_argument("--max-pairs", type=_number(int, 1),
                   default=DEFAULT_MAX_PAIRS)
    p.add_argument("--output", help="write main output to this file")


def _swat_flags(p):
    p.add_argument("--g", type=_number(int, 1), default=5)
    p.add_argument("--quantum", type=_quantum, default=0.01)


def build_parser():
    parser = _ArgumentParser(prog="cosafe")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("lock-experiment")
    p.add_argument("--digits", type=_digits, default=4)
    p.add_argument("--operators", type=lambda s: s.split(","), default=None)
    _common_flags(p)
    p.set_defaults(func=cmd_lock_experiment)

    p = sub.add_parser("puzzle-experiment")
    p.add_argument("--rows", default=None, help="comma list of N:MAX")
    p.add_argument("--slow", action="store_true",
                   help="include the long-running rows")
    _common_flags(p)
    p.set_defaults(func=cmd_puzzle_experiment)

    p = sub.add_parser("swat-experiment")
    _swat_flags(p)
    p.add_argument("--bias", type=int, default=200)
    p.add_argument("--stealth-bias", type=int, default=500)
    p.add_argument("--dot", help="write the attacker Hasse diagram here")
    _common_flags(p)
    p.set_defaults(func=cmd_swat_experiment)

    p = sub.add_parser("check")
    p.add_argument("--model", required=True)
    p.add_argument("--state", default=None)
    p.add_argument("--digits", type=_digits, default=4)
    p.add_argument("--puzzle-max", type=_puzzle_max, default=20)
    p.add_argument("--operators", type=lambda s: s.split(","), default=None)
    _swat_flags(p)
    p.add_argument("property")
    _common_flags(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("quantify")
    p.add_argument("--model", required=True)
    p.add_argument("--attackers", required=True,
                   help="JSON file: [{name, attacks: [{kind, params}]}]")
    p.add_argument("--dot", help="write the attacker Hasse diagram here")
    _swat_flags(p)
    _common_flags(p)
    p.set_defaults(func=cmd_quantify)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, Undecidable) as e:
        # a ConfigError, or a library error a subcommand let through: a
        # traceback would exit 1, the code of Unknown
        _sys.stderr.write("error: %s\n" % str(e).replace("\n", " "))
        return 2


if __name__ == "__main__":
    _sys.exit(main())
