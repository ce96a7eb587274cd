"""Run the cosafe benchmark.

    python3 perfbench/run.py --workload swat-quantify --seed 1 --seconds 50
    python3 perfbench/run.py   # every workload, one after another

A run sets the workload up once untimed.  Then, until --seconds of
set-ups and rounds have been measured (at least one round), it sets the
workload up afresh, runs one whole round of its property checks on what
the set-up built, and checks that round against the oracles.  Set-up
time is the median of the set-ups, the rate the median over rounds.  It
prints each metric by name with its unit and, as its last line, one JSON
object with the keys correct, attempted, failed and metrics.  An
operation is one property check; it fails when it comes back Unknown or
disagrees with the oracle.

--trace 0 reports the end-to-end metrics.  --trace 1 wraps the library's
entry points in spans, reports the per-layer metrics instead, and writes
the spans to perfbench/out/.

It runs in one process on one thread, from the root of a source
checkout, and imports cosafe from src/.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Before each round the workload is set up afresh, at least once and
# until this long has passed, and each set-up is timed.  Set-ups thus
# sample the same stretch of the run as the rounds, and short set-ups are
# repeated enough for a steady median.  One untimed set-up comes first:
# it interns formulae that later ones look up again, so leaving it out
# makes every timed set-up do the same work.
SETUP_SECONDS_PER_ROUND = 0.2

E2E_UNITS = {"setup_s": "s", "verdicts_per_s": "1/s",
             "pairs_explored": "pairs", "peak_rss_mb": "MB"}


def run_workload(workload, seed, seconds, traced, report_rss=True):
    """One run of one workload; returns (correct, attempted, failed,
    metrics, errors, note).  Without report_rss, peak_rss_mb is left out:
    the process's peak may come from an earlier workload."""
    import layers
    from spans import Tracer

    workload.setup(seed)
    tracer = None
    if traced:
        tracer = Tracer()
        layers.instrument(tracer)
    setup_times = []
    round_times = []
    pairs = []
    first_verdicts = None
    attempted = failed = 0
    errors = []
    peak_rss_mb = None
    try:
        # set-ups and rounds count towards the measured time; the checks
        # between them do not
        measured = 0.0
        while not round_times or measured < seconds:
            if tracer:
                tracer.phase = layers.SETUP
            spent = 0.0
            while spent == 0.0 or spent < SETUP_SECONDS_PER_ROUND:
                t0 = time.perf_counter()
                state = workload.setup(seed)
                setup_times.append(time.perf_counter() - t0)
                spent += setup_times[-1]
            if tracer:
                tracer.phase = layers.ROUND
            t0 = time.perf_counter()
            rnd = workload.run_round(state)
            round_times.append(time.perf_counter() - t0)
            measured += spent + round_times[-1]
            if len(round_times) == 1:
                # before any oracle has run: the oracles keep what they
                # compute for later rounds, which would count here
                peak_rss_mb = resource.getrusage(
                    resource.RUSAGE_SELF).ru_maxrss / 1024
            if tracer:
                # the oracles may reach wrapped instance methods
                tracer.phase = "check"
            # each round is checked, and let go of, before the next
            f, errs = workload.check(state, rnd)
            attempted += len(rnd.verdicts)
            failed += f
            errors.extend(errs)
            pairs.append(sum(v.stats.pairs_explored for v in rnd.verdicts))
            if first_verdicts is None:
                first_verdicts = rnd.verdicts
            del rnd, state
    finally:
        if tracer:
            tracer.unpatch()
    if len(set(pairs)) != 1:
        errors.append("rounds explored different pair counts: %s" % pairs)

    if tracer:
        os.makedirs(OUT, exist_ok=True)
        tracer.write(os.path.join(OUT, "spans-%s-seed%d.jsonl"
                                  % (workload.name, seed)))
        metrics = layers.metrics(tracer, len(setup_times), len(round_times),
                                 first_verdicts)
    else:
        verdicts = len(first_verdicts)
        values = {
            "setup_s": statistics.median(setup_times),
            "verdicts_per_s": statistics.median(verdicts / t
                                                for t in round_times),
            "pairs_explored": pairs[0],
            "peak_rss_mb": peak_rss_mb,
        }
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in E2E_UNITS.items()
                   if report_rss or name != "peak_rss_mb"}
    note = "%d set-ups (1 untimed), %d rounds; round seconds: %s" % (
        len(setup_times) + 1, len(round_times),
        " ".join("%.3f" % t for t in round_times))
    return not errors, attempted, failed, metrics, errors, note


def report(name, correct, attempted, failed, metrics, errors, note):
    print("== %s: %d checks attempted, %d failed, %s"
          % (name, attempted, failed, "correct" if correct else "INCORRECT"))
    print(note)
    for metric, m in metrics.items():
        print("%-32s %16.6g %s" % (metric, m["value"], m["unit"]))
    for err in errors:
        print("error: %s" % err)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "cosafe", "__init__.py")):
        print("perfbench: no cosafe sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    from workloads import WORKLOADS

    if args.workload == "all":
        names = list(WORKLOADS)
    elif args.workload in WORKLOADS:
        names = [args.workload]
    else:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2

    results = []
    for name in names:
        # ru_maxrss cannot be reset, so only the first workload of the
        # process has a peak of its own
        result = run_workload(WORKLOADS[name], args.seed, args.seconds,
                              bool(args.trace), report_rss=not results)
        report(name, *result)
        results.append((name, result))

    if len(results) == 1:
        correct, attempted, failed, metrics = results[0][1][:4]
    else:
        # all workloads in one process: metric names carry the workload
        correct = all(r[0] for _, r in results)
        attempted = sum(r[1] for _, r in results)
        failed = sum(r[2] for _, r in results)
        metrics = {"%s/%s" % (name, metric): m
                   for name, r in results for metric, m in r[3].items()}
        if not args.trace:
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            metrics["process/peak_rss_mb"] = {"value": peak, "unit": "MB"}
            print("%-32s %16.6g MB" % ("process/peak_rss_mb", peak))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
