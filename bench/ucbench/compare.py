#!/usr/bin/env python3
"""Compare two builds (or two result sets) of ucbench, or check that one
build agrees with itself. Standard library only.

  # A/B: N alternating pairs of runs, each pair on its own seed
  python3 bench/ucbench/compare.py --a OLD/ucbench --b NEW/ucbench \
      [--workload W ...] [--pairs 10] [--seed-base 1000] \
      [--save runs.jsonl]

  # A/B from saved runs (JSON lines written by --save)
  python3 bench/ucbench/compare.py --a-results a.jsonl --b-results b.jsonl

  # Self-check: two sets of runs of one build must agree within the bounds
  python3 bench/ucbench/compare.py --self [--bin build/ucbench/ucbench] \
      [--runs 10] [--calibration-out bench/ucbench/calibration.json]

Every run measures BENCHMARK.json's run_seconds, the length its bounds
were calibrated at. For every workload x end-to-end metric of
BENCHMARK.json: each side's
median and quartiles, and how many pairs B won (ties count for neither).
  gain        B won >= 90% of the pairs and the medians differ by more
              than A's interquartile range;
  REGRESSION  B's median is worse than A's by more than the metric's
              bound (and by more than its absolute floor, if any);
  unresolved  A's or B's run-to-run spread (IQR / median) is wider than
              the bound, unless every B run is better than every A run;
  ok          none of the above.
A run that is not correct, or more failed checks on B than on A, fails
the comparison too. Exit status 0 means no regression and no failure.
"""
import argparse
import json
import os
import statistics
import sys

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402  (build() and run_binary())

CALIBRATION = os.path.join(HERE, "calibration.json")


def load_specs():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    floors = {}
    if os.path.isfile(CALIBRATION):
        with open(CALIBRATION) as f:
            floors = json.load(f).get("floors", {})
    return bench["end_to_end"], floors


def invoke(binary, workload, seed, side, sink):
    rc, lines, result = run.run_binary(binary, workload, seed, 0)
    if result is None:
        sys.stderr.write("\n".join(lines[-5:]) + "\n")
        run.fail("%s (%s, seed %d) printed no result" % (binary, workload,
                                                         seed), 1)
    rec = {"workload": workload, "seed": seed, "side": side,
           "exit": rc, "result": result}
    if sink:
        sink.write(json.dumps(rec) + "\n")
        sink.flush()
    return rec


def stats(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, q1, q3, (q3 - q1) / abs(med) if med else 0.0


def better(x, y, direction):
    return x < y if direction == "lower" else x > y


def compare_metric(spec, floor, a_vals, b_vals):
    """Returns (row text, verdict) for one workload x metric."""
    lower = spec["better"] == "lower"
    bound = spec["bound"]
    ma, a1, a3, sa = stats(a_vals)
    mb, b1, b3, sb = stats(b_vals)
    wins = sum(better(b, a, spec["better"]) for a, b in zip(a_vals, b_vals))
    worse_abs = (mb - ma) if lower else (ma - mb)
    worse_rel = worse_abs / abs(ma) if ma else 0.0
    all_b_better = all(better(b, a, spec["better"])
                       for a in a_vals for b in b_vals)
    if (wins >= 0.9 * len(a_vals) and abs(mb - ma) > (a3 - a1)
            and worse_abs < 0):
        verdict = "gain"
    elif (sa > bound or sb > bound) and not all_b_better:
        verdict = "unresolved"
    elif worse_rel > bound and worse_abs > floor:
        verdict = "REGRESSION"
    else:
        verdict = "ok"
    row = ("  %-16s A %12.4f [%.4f, %.4f]  B %12.4f [%.4f, %.4f]  "
           "%+7.2f%%  wins %d/%d  bound %.0f%%  %s"
           % (spec["name"], ma, a1, a3, mb, b1, b3,
              100.0 * (mb - ma) / abs(ma) if ma else 0.0, wins,
              len(a_vals), 100 * bound, verdict))
    return row, verdict


def report_ab(recs_a, recs_b, workloads):
    specs, floors = load_specs()
    ok = True
    for w in workloads:
        a = sorted((r for r in recs_a if r["workload"] == w),
                   key=lambda r: r["seed"])
        b = sorted((r for r in recs_b if r["workload"] == w),
                   key=lambda r: r["seed"])
        if len(a) < 2 or len(a) != len(b):
            run.fail("%s: need the same number (>= 2) of A and B runs" % w)
        print("== %s (%d pairs)" % (w, len(a)))
        for spec in specs:
            row, verdict = compare_metric(
                spec, floors.get(spec["name"], 0.0),
                [r["result"]["metrics"][spec["name"]]["value"] for r in a],
                [r["result"]["metrics"][spec["name"]]["value"] for r in b])
            print(row)
            ok = ok and verdict != "REGRESSION"
        fa = sum(r["result"]["failed"] for r in a)
        fb = sum(r["result"]["failed"] for r in b)
        incorrect = sum(not r["result"]["correct"] for r in a + b)
        print("  failed checks: A %d, B %d; incorrect runs: %d" % (
            fa, fb, incorrect))
        ok = ok and fb <= fa and incorrect == 0
    return ok


def self_check(recs, workloads, runs, calibration_out):
    """Two sets of runs of one build: every spread and the change
    between the set medians must stay within the bounds."""
    specs, floors = load_specs()
    ok = True
    spreads = {}
    for w in workloads:
        sets = [[r for r in recs if r["workload"] == w and r["side"] == s]
                for s in ("1", "2")]
        print("== %s (%d + %d runs)" % (w, len(sets[0]), len(sets[1])))
        spreads[w] = {}
        for spec in specs:
            name, bound = spec["name"], spec["bound"]
            v1, v2 = ([r["result"]["metrics"][name]["value"] for r in s]
                      for s in sets)
            m1, _, _, s1 = stats(v1)
            m2, _, _, s2 = stats(v2)
            spreads[w][name] = round(max(s1, s2), 4)
            shift = abs(m2 - m1)
            shift_ok = (shift <= bound * abs(m1)
                        or shift <= floors.get(name, 0.0))
            spread_ok = s1 <= bound and s2 <= bound
            good = shift_ok and spread_ok
            ok = ok and good
            print("  %-16s med %12.4f / %12.4f  shift %6.2f%%  spread "
                  "%5.1f%% / %5.1f%%  bound %.0f%%  %s"
                  % (name, m1, m2, 100 * shift / abs(m1) if m1 else 0.0,
                     100 * s1, 100 * s2, 100 * bound,
                     "ok" if good else "FAIL"))
        bad = [r for s in sets for r in s if not r["result"]["correct"]]
        print("  incorrect runs: %d" % len(bad))
        ok = ok and not bad
    if calibration_out:
        cal = {}
        if os.path.isfile(calibration_out):
            with open(calibration_out) as f:
                cal = json.load(f)
        cal.setdefault("spread", {}).update(spreads)
        cal["spread_runs"] = runs
        with open(calibration_out, "w") as f:
            json.dump(cal, f, indent=2, sort_keys=True)
            f.write("\n")
    return ok


def load_side(path, side):
    """Runs from a JSON-lines file: those saved as `side` of an A/B run
    when the file has any, otherwise all of them (one build's runs)."""
    with open(path) as f:
        recs = [json.loads(line) for line in f if line.strip()]
    mine = [r for r in recs if r.get("side") == side]
    return mine or recs


def main(argv):
    p = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--a", help="baseline ucbench binary")
    p.add_argument("--b", help="candidate ucbench binary")
    p.add_argument("--a-results", help="saved baseline runs (JSON lines)")
    p.add_argument("--b-results", help="saved candidate runs (JSON lines)")
    p.add_argument("--self", action="store_true", dest="self_check",
                   help="check one build against itself")
    p.add_argument("--bin", help="binary for --self (default: build it)")
    p.add_argument("--workload", action="append", choices=run.WORKLOADS,
                   help="repeatable; default: all")
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--runs", type=int, default=10,
                   help="runs per set for --self")
    p.add_argument("--seed-base", type=int, default=1000)
    p.add_argument("--save", help="append every run to this JSON-lines file")
    p.add_argument("--calibration-out",
                   help="--self: record the measured spreads in this file")
    args = p.parse_args(argv)
    workloads = args.workload or run.WORKLOADS
    sink = open(args.save, "a") if args.save else None

    if args.self_check:
        binary = args.bin or run.build()
        recs = []
        for i in range(args.runs):
            seed = args.seed_base + i
            for w in workloads:
                # Alternate which set runs first, as A/B pairs do.
                for side in (("1", "2") if i % 2 == 0 else ("2", "1")):
                    recs.append(invoke(binary, w, seed, side, sink))
        return 0 if self_check(recs, workloads, args.runs,
                               args.calibration_out) else 1

    if args.a_results and args.b_results:
        recs_a = load_side(args.a_results, "a")
        recs_b = load_side(args.b_results, "b")
    elif args.a and args.b:
        recs_a, recs_b = [], []
        for i in range(args.pairs):
            seed = args.seed_base + i
            for w in workloads:
                order = (("a", args.a), ("b", args.b))
                for side, binary in order if i % 2 == 0 else order[::-1]:
                    rec = invoke(binary, w, seed, side, sink)
                    (recs_a if side == "a" else recs_b).append(rec)
    else:
        p.error("give --a and --b, --a-results and --b-results, or --self")
    return 0 if report_ab(recs_a, recs_b, workloads) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
