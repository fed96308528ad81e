#!/usr/bin/env python3
"""Compare two sets of pipebench results, workload by workload.

    python3 pipebench/bench_diff.py BASE.jsonl NEW.jsonl

Each file holds result records, one JSON object per line, as pipebench
prints them (the line with a "workload" key; other lines are skipped, so
a file of captured stdout works). Records of one workload are pooled:
for every metric, end-to-end and per-layer, the script prints the median
of each side, the spread of each side (quartile distance as a share of
the median, with the number of runs), and the ratio new/base.
"""

import json
import statistics
import sys


def load(path):
    runs = {}
    with open(path, encoding="utf-8") as f:
        for line in f:
            try:
                rec = json.loads(line)
            except ValueError:
                continue
            if isinstance(rec, dict) and "workload" in rec:
                runs.setdefault(rec["workload"], []).append(rec)
    return runs


def summary(records, name):
    values = [r["metrics"][name]["value"] for r in records if name in r["metrics"]]
    if not values:
        return None, None, 0
    med = statistics.median(values)
    spread = None
    if len(values) >= 2 and med:
        q1, _, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / abs(med)
    return med, spread, len(values)


def fmt(v, width=12):
    return f"{v:>{width}.4g}" if v is not None else f"{'-':>{width}}"


def main(argv):
    if len(argv) != 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    for workload in sorted(set(base) | set(new)):
        b, n = base.get(workload, []), new.get(workload, [])
        print(f"== {workload}: base {len(b)} run(s), new {len(n)} run(s)")
        for side, recs in (("base", b), ("new", n)):
            att = sum(r["attempted"] for r in recs)
            fail = sum(r["failed"] for r in recs)
            bad = sum(1 for r in recs if not r["correct"])
            commits = sorted({r.get("commit", "?")[:12] for r in recs})
            print(f"   {side}: {fail}/{att} ops failed, {bad} incorrect run(s), commit {','.join(commits)}")
        names = []
        for r in b + n:
            for m in r["metrics"]:
                if m not in names:
                    names.append(m)
        print(f"   {'metric':<40}{'unit':>7}{'base':>12}{'spread':>8}{'new':>12}{'spread':>8}{'new/base':>10}")
        for name in names:
            unit = next(r["metrics"][name]["unit"] for r in b + n if name in r["metrics"])
            bm, bs, _ = summary(b, name)
            nm, ns, _ = summary(n, name)
            ratio = nm / bm if bm and nm is not None else None
            spread = lambda s: f"{s:>8.1%}" if s is not None else f"{'-':>8}"
            print(f"   {name:<40}{unit:>7}{fmt(bm)}{spread(bs)}{fmt(nm)}{spread(ns)}{fmt(ratio, 10)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
