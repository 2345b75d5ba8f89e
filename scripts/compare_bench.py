#!/usr/bin/env python3
"""Diff two BENCH_*.json reports and flag regressions.

Every bench report is stamped with the git SHA and build type it was built
from, and — when the bench calls JsonReport::SetConfig — a fingerprint of
its effective configuration.  This script compares a baseline report
against a candidate:

  * refuses to compare reports from different benches,
  * refuses to compare runs with different config fingerprints (the knobs
    that shape the run differ, so the numbers are not comparable) unless
    --allow-config-mismatch is given,
  * warns when the build types differ (Debug vs Release timings are not
    comparable either, but the structural metrics still are),
  * prints a per-metric table of baseline vs candidate, and
  * exits non-zero when any shared metric regressed by more than 10%
    (--threshold to override).

"Regressed" means the measured value grew: every stamped metric in this
repo (makespans, per-phase seconds, share deltas) is smaller-is-better.
Metrics present in only one report are listed but never gate.

A baseline that carries a "gates" list (the checked-in bench/*_baseline.json
files) is checked gate by gate instead of diffed.  Each gate names a metric
of the candidate report and bounds it with any of:

  "min": V / "max": V          absolute bounds on the measured value;
  "baseline": B, "max_rise": F  the measured value may exceed B by at most
                                the fraction F;
  "near": T, "within": D        the measured value is within D of T.

Usage: compare_bench.py <baseline.json> <candidate.json>
                        [--threshold FRACTION] [--allow-config-mismatch]
"""
import argparse
import json
import sys


def load(path):
    with open(path) as f:
        report = json.load(f)
    entries = {e["metric"]: e["measured"] for e in report.get("entries", [])}
    return report, entries


def check_gates(baseline, cand):
    """Checks every gate of a gated baseline; exits non-zero on failure."""
    failures = []
    for gate in baseline["gates"]:
        metric = gate["metric"]
        if metric not in cand:
            print(f"FAIL: {metric} missing from the report")
            failures.append(metric)
            continue
        value = cand[metric]
        bounds = []
        if "min" in gate:
            bounds.append((value >= gate["min"], f">= {gate['min']:.6g}"))
        if "max" in gate:
            bounds.append((value <= gate["max"], f"<= {gate['max']:.6g}"))
        if "within" in gate:
            bounds.append((abs(value - gate["near"]) <= gate["within"],
                           f"within {gate['within']:.6g} of "
                           f"{gate['near']:.6g}"))
        if "max_rise" in gate:
            limit = gate["baseline"] * (1.0 + gate["max_rise"])
            bounds.append((value <= limit,
                           f"<= {limit:.6g} ({gate['max_rise']:.0%} over "
                           f"baseline {gate['baseline']:.6g})"))
        if not bounds:
            sys.exit(f"gate on {metric} names no bound")
        ok = all(passed for passed, _ in bounds)
        print(f"{'PASS' if ok else 'FAIL'}: {metric} = {value:.6g}, need "
              f"{' and '.join(text for _, text in bounds)}")
        if not ok:
            failures.append(metric)
    if failures:
        sys.exit(f"{len(failures)} gate(s) failed: {', '.join(failures)}")
    print(f"all {len(baseline['gates'])} {baseline['bench']} gates passed")


def main():
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json reports")
    parser.add_argument("baseline")
    parser.add_argument("candidate")
    parser.add_argument("--threshold", type=float, default=0.10,
                        help="relative growth that counts as a regression")
    parser.add_argument("--allow-config-mismatch", action="store_true",
                        help="compare despite differing config fingerprints")
    args = parser.parse_args()

    base_report, base = load(args.baseline)
    cand_report, cand = load(args.candidate)

    if base_report.get("bench") != cand_report.get("bench"):
        sys.exit(f"refusing to compare different benches: "
                 f"{base_report.get('bench')} vs {cand_report.get('bench')}")
    if "gates" in base_report:
        check_gates(base_report, cand)
        return

    base_fp = base_report.get("config_fingerprint")
    cand_fp = cand_report.get("config_fingerprint")
    if base_fp != cand_fp:
        msg = (f"config fingerprints differ: {base_fp} "
               f"({base_report.get('config')}) vs {cand_fp} "
               f"({cand_report.get('config')})")
        if args.allow_config_mismatch:
            print(f"WARNING: {msg}")
        else:
            sys.exit(f"refusing to compare: {msg} "
                     "(pass --allow-config-mismatch to override)")
    if base_report.get("build_type") != cand_report.get("build_type"):
        print(f"WARNING: build types differ: {base_report.get('build_type')} "
              f"vs {cand_report.get('build_type')}")

    print(f"bench {base_report.get('bench')}: "
          f"{base_report.get('git_sha')} ({args.baseline}) vs "
          f"{cand_report.get('git_sha')} ({args.candidate})")

    regressions = []
    width = max((len(m) for m in set(base) | set(cand)), default=10)
    for metric in sorted(set(base) | set(cand)):
        if metric not in base:
            print(f"  {metric:<{width}}  (new)        {cand[metric]:>14.6g}")
            continue
        if metric not in cand:
            print(f"  {metric:<{width}}  {base[metric]:>14.6g}  (removed)")
            continue
        b, c = base[metric], cand[metric]
        if b != 0:
            change = (c - b) / abs(b)
            tag = f"{change:+8.1%}"
        else:
            change = 0.0 if c == 0 else float("inf")
            tag = "     new" if c != 0 else "        "
        flag = ""
        if change > args.threshold:
            flag = "  REGRESSION"
            regressions.append((metric, b, c, change))
        print(f"  {metric:<{width}}  {b:>14.6g}  {c:>14.6g}  {tag}{flag}")

    if regressions:
        print(f"\nFAIL: {len(regressions)} metric(s) regressed more than "
              f"{args.threshold:.0%}:")
        for metric, b, c, change in regressions:
            print(f"  - {metric}: {b:.6g} -> {c:.6g} ({change:+.1%})")
        sys.exit(1)
    print(f"\nOK: no metric regressed more than {args.threshold:.0%}")


if __name__ == "__main__":
    main()
