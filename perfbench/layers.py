"""Which library calls a traced run wraps, and the per-layer metrics
computed from the spans.

Set-up layers (models, syntax, formula, predicate) are reported per
timed set-up; the others per round.  A layer a workload does not reach reads
0 on that workload.
"""

import importlib
import statistics

from cosafe import attacker, closure, coalgebra, formula, models, syntax
# the package re-exports a function under the name 'verify'
verify = importlib.import_module("cosafe.verify")

SETUP, ROUND = "setup", "round"

MODEL_BUILDERS = ("lock_model", "lock_operators", "lock_properties",
                  "puzzle_model", "puzzle_property", "puzzle_swap",
                  "swat_model", "swat_attacks", "attack_kinds")

# name -> unit, in the order they are printed
UNITS = {
    "models.build_s": "s",
    "syntax.parse_s": "s",
    "formula.similarity_s": "s",
    "formula.implication_edges": "count",
    "formula.table_nodes": "count",
    "predicate.subset_calls": "count",
    "predicate.subset_s": "s",
    "closure.prescreen_calls": "count",
    "closure.prescreen_s": "s",
    "closure.note_calls": "count",
    "closure.note_s": "s",
    "closure.sat_index_entries": "count",
    "closure.fail_index_entries": "count",
    "closure.inferred": "count",
    "closure.inferred_ratio": "ratio",
    "closure.hits": "count",
    "verify.runs": "count",
    "verify.self_s": "s",
    "verify.subset_checks": "count",
    "verify.pairs_per_s": "1/s",
    "verify.pairs_per_s.plain": "1/s",
    "coalgebra.step_calls": "count",
    "coalgebra.step_s": "s",
    "coalgebra.states": "count",
    "attacker.attacked_systems": "count",
    "attacker.capabilities_s_p50": "s",
    "attacker.hierarchy_s": "s",
}


def instrument(tracer):
    """Wrap the library's entry points; tracer.unpatch() undoes it."""
    counters = tracer.counters
    engines = []

    def count(name, amount):
        counters[(tracer.phase, name)] += amount

    def biggest(name, amount):
        key = (tracer.phase, name)
        counters[key] = max(counters[key], amount)

    def on_similarity(args, relation, _):
        count("formula.implication_edges",
              sum(1 for f, g in relation if f != g))

    def on_load(args, out, _):
        engines.append(args[0])

    def on_check_many(args, out, _):
        engine = engines.pop()
        biggest("closure.sat_index_entries",
                sum(map(len, engine.sat_index.values())))
        biggest("closure.fail_index_entries",
                sum(map(len, engine.fail_index.values())))

    def on_verify(args, out, self_s):
        stats = out[0].stats
        # a run is 'plain' without operators, else named by its operators
        label = "+".join(op.name for op in args[4].operators) or "plain"
        count("verify.pairs", stats.pairs_explored)
        count("verify.subset_checks", stats.subset_checks)
        count("verify.pairs." + label, stats.pairs_explored)
        count("verify.self_s." + label, self_s)

    def on_behaviour(args, system, _):
        states = set()

        def seen(args, state, _):
            if tracer.phase == ROUND:
                states.add(state)
                biggest("coalgebra.states", len(states))

        system.step = tracer.wrap("coalgebra.step", system.step, seen)
        system.wrap = tracer.wrap("coalgebra.wrap", system.wrap, seen)

    for fn in MODEL_BUILDERS:
        tracer.patch(models, fn, "models." + fn)
    tracer.patch(syntax, "parse_property", "syntax.parse_property")
    tracer.patch(formula, "formula_similarity", "formula.similarity",
                 on_similarity)
    # only the subset tests formula_similarity makes
    tracer.patch(formula, "subset", "predicate.subset")
    for method in ("sat_hit", "fail_hit", "note_satisfied", "note_failed"):
        tracer.patch(closure.ClosureEngine, method, "closure." + method)
    tracer.patch(closure.ClosureEngine, "load", "closure.load", on_load)
    tracer.patch(verify, "verify", "verify.verify", on_verify)
    # check_many is reached directly and through capabilities
    for module in (verify, attacker):
        tracer.patch(module, "check_many", "verify.check_many",
                     on_check_many)
    tracer.patch(coalgebra, "behaviour_system", "coalgebra.behaviour_system",
                 on_behaviour)
    tracer.patch(attacker, "apply_attack", "attacker.apply_attack")
    tracer.patch(attacker, "capabilities", "attacker.capabilities")
    tracer.patch(attacker, "hierarchy", "attacker.hierarchy")


def metrics(tracer, setups, rounds, round_verdicts):
    """Per-layer metrics of a traced run; round_verdicts are the verdicts
    of one round."""
    t = tracer
    c = t.counters

    def per_setup(value):
        return value / setups

    def per_round(value):
        return value / rounds

    def rate(pairs, seconds):
        return pairs / seconds if seconds > 0 else 0.0

    verify_self = t.self_seconds(ROUND, "verify.verify")
    # a round makes a few capabilities calls, far below the cap on kept
    # spans, so the kept spans are all of them
    capability_s = [end - start for _, _, name, phase, start, end in t.spans
                    if name == "attacker.capabilities" and phase == ROUND]
    inferred = sum(v.inferred() for v in round_verdicts)
    values = {
        "models.build_s": per_setup(t.layer_s[(SETUP, "models")]),
        "syntax.parse_s": per_setup(t.layer_s[(SETUP, "syntax")]),
        "formula.similarity_s": per_setup(
            t.seconds(SETUP, "formula.similarity")),
        "formula.implication_edges": per_setup(
            c[(SETUP, "formula.implication_edges")]),
        # the hash-cons table has no public size; its node list is it
        "formula.table_nodes": len(formula.TABLE._nodes),
        "predicate.subset_calls": per_setup(
            t.calls(SETUP, "predicate.subset")),
        "predicate.subset_s": per_setup(t.seconds(SETUP, "predicate.subset")),
        "closure.prescreen_calls": per_round(
            t.calls(ROUND, "closure.sat_hit", "closure.fail_hit")),
        "closure.prescreen_s": per_round(
            t.seconds(ROUND, "closure.sat_hit", "closure.fail_hit")),
        "closure.note_calls": per_round(
            t.calls(ROUND, "closure.note_satisfied", "closure.note_failed")),
        "closure.note_s": per_round(
            t.seconds(ROUND, "closure.note_satisfied", "closure.note_failed")),
        "closure.sat_index_entries": c[(ROUND, "closure.sat_index_entries")],
        "closure.fail_index_entries": c[(ROUND, "closure.fail_index_entries")],
        "closure.inferred": inferred,
        "closure.inferred_ratio": inferred / len(round_verdicts),
        "closure.hits": sum(v.stats.closure_hits for v in round_verdicts),
        "verify.runs": per_round(t.calls(ROUND, "verify.verify")),
        "verify.self_s": per_round(verify_self),
        "verify.subset_checks": per_round(c[(ROUND, "verify.subset_checks")]),
        "verify.pairs_per_s": rate(c[(ROUND, "verify.pairs")], verify_self),
        "verify.pairs_per_s.plain": rate(c[(ROUND, "verify.pairs.plain")],
                                         c[(ROUND, "verify.self_s.plain")]),
        "coalgebra.step_calls": per_round(t.calls(ROUND, "coalgebra.step")),
        "coalgebra.step_s": per_round(t.seconds(ROUND, "coalgebra.step")),
        "coalgebra.states": c[(ROUND, "coalgebra.states")],
        "attacker.attacked_systems": per_round(
            t.calls(ROUND, "attacker.apply_attack")),
        "attacker.capabilities_s_p50": (statistics.median(capability_s)
                                        if capability_s else 0.0),
        "attacker.hierarchy_s": per_round(
            t.seconds(ROUND, "attacker.hierarchy")),
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit in UNITS.items()}
