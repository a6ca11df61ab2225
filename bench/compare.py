#!/usr/bin/env python3
"""Compare a parent and a change result set, one verdict per workload and
end-to-end metric.

    python3 bench/compare.py --parent parent/*.json --change change/*.json

Inputs are records written by run.py --out.  Runs of one workload are
paired in start order (the i-th parent run with the i-th change run), and
the pairs must alternate which side ran first.  Verdicts:

  better        the change wins at least 9 of 10 pairs and its median beats
                the parent's by more than the parent's interquartile distance
  worse         the change's median is worse than the parent's by more than
                the metric's bound, and the parent's spread is within the
                bound or every change run is worse than every parent run
  unresolved    fewer than 10 alternating pairs, or a parent spread wider
                than the bound that the runs do not settle
  within bound  otherwise
"""

import argparse
import json
import statistics
import sys
from pathlib import Path

from run import END_TO_END, EXTRA

MIN_PAIRS = 10
WIN_SHARE = 0.9


def verdict(parent, change, better, bound):
    """Verdict and a one-line reason for one metric; parent and change are
    values in pair order."""
    n = min(len(parent), len(change))
    if n < MIN_PAIRS:
        return "unresolved", f"{n} pairs, need {MIN_PAIRS}"
    parent, change = parent[:n], change[:n]
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
    q1, pm, q3 = statistics.quantiles(parent, n=4)
    cm = statistics.median(change)
    gain = sign * (cm - pm)
    reason = f"wins {wins}/{n}, median {pm:.6g} -> {cm:.6g}, parent IQR {q3 - q1:.3g}"
    if wins >= WIN_SHARE * n and gain > q3 - q1:
        return "better", reason
    if pm:
        spread = (q3 - q1) / abs(pm)
    else:
        spread = 0.0 if q3 == q1 else float("inf")
    worse_by = -gain / abs(pm) if pm else (0.0 if gain >= 0 else float("inf"))
    every_worse = max(sign * c for c in change) < min(sign * p for p in parent)
    every_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if worse_by > bound:
        if spread <= bound or every_worse:
            return "worse", reason
        return "unresolved", reason + f", spread {spread:.3f} > bound {bound}"
    if spread > bound and not every_better:
        return "unresolved", reason + f", spread {spread:.3f} > bound {bound}"
    return "within bound", reason


def alternating(parent_starts, change_starts):
    """True when consecutive pairs swap which side ran first."""
    firsts = [p < c for p, c in zip(parent_starts, change_starts)]
    return all(a != b for a, b in zip(firsts, firsts[1:]))


def load(paths):
    by_workload = {}
    for path in paths:
        rec = json.loads(Path(path).read_text())
        if rec.get("trace"):
            continue
        by_workload.setdefault(rec["workload"], []).append(rec)
    for recs in by_workload.values():
        recs.sort(key=lambda r: r["started_at"])
    return by_workload


def compare(parent_recs, change_recs):
    """Rows of (workload, metric, verdict, reason)."""
    rows = []
    for workload in sorted(set(parent_recs) | set(change_recs)):
        ps = parent_recs.get(workload, [])
        cs = change_recs.get(workload, [])
        n = min(len(ps), len(cs))
        alt = alternating([r["started_at"] for r in ps[:n]], [r["started_at"] for r in cs[:n]])
        for name, _unit, better, bound in END_TO_END + EXTRA:
            pv = [r["metrics"][name]["value"] for r in ps]
            cv = [r["metrics"][name]["value"] for r in cs]
            if not alt:
                rows.append((workload, name, "unresolved", "pairs do not alternate"))
                continue
            rows.append((workload, name, *verdict(pv, cv, better, bound)))
    return rows


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", nargs="+", required=True, help="parent records")
    parser.add_argument("--change", nargs="+", required=True, help="change records")
    args = parser.parse_args(argv)
    rows = compare(load(args.parent), load(args.change))
    for workload, name, v, reason in rows:
        print(f"{workload:12s} {name:12s} {v:13s} {reason}")
    return 1 if any(v == "worse" for _, _, v, _ in rows) else 0


if __name__ == "__main__":
    sys.exit(main())
