#!/usr/bin/env python3
"""Compare two result sets of the benchmark.

    python3 perfbench/compare.py BASE.jsonl CHANGE.jsonl
    python3 perfbench/compare.py --self-test

Each file holds the records `run.py --record FILE` appends, one per run.
Only untraced runs whose result was correct are compared. A base run and a
change run pair up when they ran the same workload with the same seed (in
recorded order when a seed repeats); runs without a partner are left out.
Run the pairs alternately, base first in one pair and change first in the
next. For every workload x end-to-end metric the verdict is:

  improved    the change wins at least 9 of every 10 pairs (ties count for
              neither side), the medians differ by more than the base's
              quartile spread, and refused_frac did not rise (a gain bought
              with more refused commits reads unresolved);
  worse       the change's median is worse than the base's by more than the
              metric's bound in BENCHMARK.json;
  unchanged   neither, and the base's quartile spread is within the bound;
  unresolved  neither, the spread is wider than the bound and not every
              change run beats every base run — or fewer than ten pairs.

The change in refused_frac (failed / attempted) is reported per workload.
"""

import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
MIN_PAIRS = 10


def quartile_spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def verdict(base, change, better, bound, refused_rose=False):
    """Classifies one workload x metric; base/change are paired run lists."""
    pairs = list(zip(base, change))
    if len(pairs) < MIN_PAIRS:
        return "unresolved", "only %d pairs" % len(pairs)
    sign = 1 if better == "higher" else -1
    wins = sum(1 for b, c in pairs if sign * (c - b) > 0)
    mb, mc = statistics.median(base), statistics.median(change)
    spread = quartile_spread(base)
    gap = sign * (mc - mb)
    note = "median %.6g -> %.6g, wins %d/%d, base IQR %.3g" % (
        mb, mc, wins, len(pairs), spread)
    if wins * 10 >= 9 * len(pairs) and gap > spread:
        if refused_rose:
            return "unresolved", note + ", but refused_frac rose"
        return "improved", note
    if mb != 0 and -gap / abs(mb) > bound:
        return "worse", note
    if mb != 0 and spread / abs(mb) <= bound:
        return "unchanged", note
    if all(sign * (c - b) > 0 for c in change for b in base):
        return "unchanged", note
    return "unresolved", note


def load_runs(lines):
    """Untraced, correct records, keyed by (workload, seed)."""
    runs = {}
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        if rec.get("trace") or not rec.get("correct"):
            continue
        runs.setdefault((rec["workload"], rec["seed"]), []).append(rec)
    return runs


def pair_runs(base, change, workload):
    """(base, change) record pairs of one workload, matched by seed."""
    pairs = []
    for key in sorted(k for k in base if k[0] == workload):
        pairs.extend(zip(base[key], change.get(key, [])))
    return pairs


def compare(base_path, change_path, bench):
    with open(base_path) as b, open(change_path) as c:
        base, change = load_runs(b), load_runs(c)
    rows = []
    for w in bench["workloads"]:
        name = w["name"]
        pairs = pair_runs(base, change, name)
        if not pairs:
            rows.append((name, "-", "unresolved", "no runs with matching seeds"))
            continue
        rf = (statistics.median(c["refused_frac"] for _, c in pairs) -
              statistics.median(b["refused_frac"] for b, _ in pairs))
        for m in bench["end_to_end"]:
            bv = [b["metrics"][m["name"]]["value"] for b, _ in pairs]
            cv = [c["metrics"][m["name"]]["value"] for _, c in pairs]
            v, note = verdict(bv, cv, m["better"], m["bound"], rf > 0)
            rows.append((name, m["name"], v, note))
        rows.append((name, "refused_frac", "change %+.3g" % rf, ""))
    return rows


def self_test():
    failures = 0

    def check(got, want, what):
        nonlocal failures
        ok = got == want
        failures += 0 if ok else 1
        print("%s %s (%s)" % ("ok  " if ok else "FAIL", what, got))

    base = [100 + i % 3 for i in range(10)]
    check(verdict(base, [x * 0.8 for x in base], "lower", 0.1)[0],
          "improved", "20% lower latency in every pair is improved")
    check(verdict(base, [x * 1.3 for x in base], "lower", 0.1)[0],
          "worse", "30% higher latency beyond a 10% bound is worse")
    check(verdict(base, [x + 0.5 for x in base], "lower", 0.1)[0],
          "unchanged", "a shift inside a tight spread is unchanged")
    noisy = [60, 140, 80, 120, 100, 70, 130, 90, 110, 100]
    check(verdict(noisy, list(reversed(noisy)), "lower", 0.1)[0],
          "unresolved", "spread wider than the bound is unresolved")
    check(verdict(base[:5], base[:5], "lower", 0.1)[0],
          "unresolved", "fewer than ten pairs is unresolved")
    check(verdict(base, [x * 1.2 for x in base], "higher", 0.25)[0],
          "improved", "higher-is-better metrics flip the direction")
    check(verdict(base, [x * 0.8 for x in base], "lower", 0.1, True)[0],
          "unresolved", "a gain with a rising refused_frac is unresolved")

    def rec(seed, value, correct=True):
        return {"workload": "w", "seed": seed, "correct": correct,
                "metrics": {"m": {"value": value}}}
    lines = [json.dumps(rec(1, 10)), json.dumps(rec(2, 20)),
             json.dumps(rec(4, 40, correct=False))]
    base_runs = load_runs(lines)
    check(sorted(base_runs), [("w", 1), ("w", 2)], "incorrect runs are skipped")
    change_runs = {("w", 2): [rec(2, 21)], ("w", 3): [rec(3, 30)]}
    got = [(b["seed"], c["seed"]) for b, c in pair_runs(base_runs, change_runs, "w")]
    check(got, [(2, 2)], "runs pair by seed; unmatched seeds are left out")
    print(json.dumps({"compare_selftest_failures": failures}))
    return 0 if failures == 0 else 1


def main(argv):
    if argv[1:] == ["--self-test"]:
        return self_test()
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "..", "BENCHMARK.json")) as f:
        bench = json.load(f)
    for row in compare(argv[1], argv[2], bench):
        print("%-16s %-14s %-12s %s" % row)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
