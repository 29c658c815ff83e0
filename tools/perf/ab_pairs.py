#!/usr/bin/env python3
"""usage: tools/perf/ab_pairs.py [--same-digest] <parent-dir> <change-dir> <workload> <pairs> <seconds> [seed]

Runs `perfbench/run.py --trace 0` in two checkouts over alternating pairs
(the parent first on even pairs) and prints, for each end-to-end metric of
the change's BENCHMARK.json, each side's median and quartiles, the
change's wins out of the pairs and a verdict: `gain` if the change wins in
at least 90% of the pairs and its median beats the parent's by more than
the parent's interquartile range, `loss` if the same holds the other way
round, `flat` otherwise.  Exits 1 if any run reports failed ops, or, with
--same-digest, if the runs' `report_digest`s differ.

The two checkouts must sit at absolute paths of equal length: the build
embeds source paths, and their length alone moves perfbench's speed by a
few percent, so the script refuses unequal ones."""
import json, os, statistics, subprocess, sys

args = [a for a in sys.argv[1:] if a != "--same-digest"]
same_digest = len(args) < len(sys.argv) - 1
if len(args) not in (5, 6):
    sys.exit(__doc__)
parent, change, workload, pairs, seconds = args[:5]
seed = args[5] if len(args) == 6 else "1001"
sides = {"parent": parent, "change": change}
lengths = {side: len(os.path.abspath(path)) for side, path in sides.items()}
if lengths["parent"] != lengths["change"]:
    sys.exit(f"the checkouts' absolute paths differ in length ({lengths['parent']} and "
             f"{lengths['change']} characters); put them at paths of equal length")
with open(os.path.join(change, "BENCHMARK.json")) as f:
    metrics = [(m["name"], m["better"]) for m in json.load(f)["end_to_end"]]


def run(side):
    cmd = ["python3", "perfbench/run.py", "--workload", workload, "--seed", seed,
           "--seconds", seconds, "--trace", "0"]
    out = subprocess.run(cmd, cwd=sides[side], capture_output=True, text=True, check=True)
    record, result = (json.loads(l) for l in out.stdout.splitlines()[-2:])
    return record, {k: v["value"] for k, v in result["metrics"].items()}


values = {side: {name: [] for name, _ in metrics} for side in sides}
digests, failed = set(), 0
for i in range(int(pairs)):
    order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
    for side in order:
        record, measured = run(side)
        failed += record["ops_failed"]
        digests.add(record["report_digest"])
        for name, _ in metrics:
            values[side][name].append(measured[name])
    print(f"pair {i}: " + "  ".join(
        f"{side} {values[side][metrics[0][0]][-1]:.6g}" for side in sides), flush=True)


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4)
    return q1, q2, q3


def verdict(p, c, better, iqr):
    """`gain`, `loss` or `flat` by the rule in the module docstring."""
    sign = 1 if better == "higher" else -1
    wins = sum(sign * (y - x) > 0 for x, y in zip(p, c))
    losses = sum(sign * (y - x) < 0 for x, y in zip(p, c))
    gap = sign * (statistics.median(c) - statistics.median(p))
    if wins >= 0.9 * len(p) and gap > iqr:
        return wins, "gain"
    if losses >= 0.9 * len(p) and -gap > iqr:
        return wins, "loss"
    return wins, "flat"


print(f"{workload} seed {seed}, {pairs} pairs of {seconds} s")
for name, better in metrics:
    p, c = values["parent"][name], values["change"][name]
    (p1, pm, p3), (c1, cm, c3) = quartiles(p), quartiles(c)
    wins, call = verdict(p, c, better, p3 - p1)
    gap = (cm - pm) / pm * 100 if pm else 0.0
    print(f"  {name:20} parent {pm:.6g} [{p1:.6g}, {p3:.6g}]  change {cm:.6g} "
          f"[{c1:.6g}, {c3:.6g}]  {gap:+.1f}%  wins {wins}/{len(p)}  "
          f"parent IQR {p3 - p1:.4g}  {call}")
if failed:
    sys.exit(f"FAIL: {failed} failed ops")
if same_digest and len(digests) != 1:
    sys.exit(f"FAIL: report_digest differs: {sorted(digests)}")
print(f"OK: no failed ops; report_digest {' '.join(sorted(digests))}")
