#!/usr/bin/env python3
"""usage: symbolize.py <binary> <samples> [substring ...]: self shares per
function, and the share of samples with a matching frame anywhere in the stack."""
import bisect, collections, subprocess, sys
binary, samples, patterns = sys.argv[1], sys.argv[2], sys.argv[3:]
exe = binary.rsplit("/", 1)[-1]
maps = [(int(f[0].split("-")[0], 16), int(f[0].split("-")[1], 16), int(f[2], 16), f[5])
        for f in (l.split() for l in open(samples + ".maps")) if len(f) >= 6 and "x" in f[1]]
base = min(int(l.split("-")[0], 16) for l in open(samples + ".maps") if l.rstrip().endswith(exe))
# Return addresses point past the call: step back one byte for the caller's line.
stacks = [[int(a, 16) - (i > 0) for i, a in enumerate(l.split())] for l in open(samples) if l.strip()]
names, dyn = {}, {}
for a in sorted({a for s in stacks for a in s}):
    lo, hi, off, path = next((m for m in maps if m[0] <= a < m[1]), (0, 0, 0, "?"))
    if path.endswith(exe):
        continue
    if path not in dyn:  # libraries: nearest preceding exported symbol
        nm = subprocess.run(["nm", "-D", "--defined-only", path], capture_output=True, text=True).stdout
        dyn[path] = sorted((int(l.split()[0], 16), l.split()[2]) for l in nm.splitlines() if len(l.split()) == 3)
    i = bisect.bisect([s for s, _ in dyn[path]], a - lo + off) - 1
    names[a] = [f"{dyn[path][i][1] if i >= 0 else '??'} [{path.rsplit('/', 1)[-1]}]"]
own = sorted({a for s in stacks for a in s} - names.keys())
out = subprocess.run(["addr2line", "-a", "-f", "-i", "-C", "-e", binary] + [hex(a - base) for a in own],
                     capture_output=True, text=True).stdout.splitlines()
for line in out:  # -a: an address line, then (function, file:line) per inlined frame, innermost first
    if line.startswith("0x"):
        cur = int(line, 16) + base
        names[cur], odd = [], True
    else:
        if odd:
            names[cur].append(line)
        odd = not odd
n, self_ = len(stacks), collections.Counter(names[s[0]][0] for s in stacks)
for f, k in self_.most_common(30):
    print(f"{100 * k / n:5.1f}%  {f[:150]}")
for p in patterns:
    k = sum(any(p in x for a in s for x in names[a]) for s in stacks)
    print(f"{100 * k / n:5.1f}%  of {n} samples have a frame matching {p!r}")
