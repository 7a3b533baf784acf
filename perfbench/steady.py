"""Steadiness check: do two sets of runs of the same code agree?

    python3 perfbench/steady.py

Run from the root of a checkout.  Each run is ``perfbench/run.py
--trace 0`` for BENCHMARK.json's run_seconds, with its own seed: set 1
uses seeds 1..10 and set 2 seeds 11..20, on every workload, and the sets
run one after the other, as a later comparison would.  For each workload
and end-to-end metric it prints each set's median and quartiles
(``statistics.quantiles(n=4)``), the spread (Q3 - Q1) / median, and the
change of the second median against the first.  A metric agrees when
both spreads are within the bound in BENCHMARK.json and the second median
is not worse than the first by more than the bound; the share of failed
operations must be the same in both sets.  The runs are saved under
perfbench/results/.  Exits 1 if anything disagrees.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
SETS = 2
RUNS = 10


def one_run(workload, seed, seconds):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
                          text=True, timeout=200)
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: run.py exited {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med}


def main():
    with open("BENCHMARK.json") as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    metrics = bench["end_to_end"]

    runs = {w: [[] for _ in range(SETS)] for w in workloads}
    for k in range(SETS):
        for w in workloads:
            for seed in range(k * RUNS + 1, (k + 1) * RUNS + 1):
                res = one_run(w, seed, bench["run_seconds"])
                runs[w][k].append({"seed": seed, **res})
                vals = " ".join(f"{m['name']}={res['metrics'][m['name']]['value']:.4g}"
                                for m in metrics)
                print(f"set {k + 1} {w} seed {seed}: correct={res['correct']} "
                      f"failed={res['failed']}/{res['attempted']} {vals}", flush=True)

    os.makedirs(os.path.join(HERE, "results"), exist_ok=True)
    path = os.path.join(HERE, "results", f"steady-{time.strftime('%Y%m%dT%H%M%S')}.json")
    with open(path, "w") as fh:
        json.dump(runs, fh, indent=1)

    all_ok = True
    print(f"\n{'workload':16} {'metric':14} {'bound':>6} "
          + " ".join(f"{'set' + str(k + 1) + ' median [Q1, Q3] spread':>44}"
                     for k in range(SETS))
          + "  change  agree")
    for w in workloads:
        shares = {Fraction(sum(r["failed"] for r in s), sum(r["attempted"] for r in s))
                  for s in runs[w]}
        correct = all(r["correct"] for s in runs[w] for r in s)
        for m in metrics:
            first, second = (summary([r["metrics"][m["name"]]["value"] for r in s])
                             for s in runs[w])
            rel = (second["median"] - first["median"]) / first["median"]
            worse = rel if m["better"] == "lower" else -rel
            ok = (correct and len(shares) == 1 and worse <= m["bound"]
                  and first["spread"] <= m["bound"] and second["spread"] <= m["bound"])
            all_ok &= ok
            cells = " ".join(f"{s['median']:12.5g} [{s['q1']:.5g}, {s['q3']:.5g}] "
                             f"{s['spread']:6.2%}" for s in (first, second))
            print(f"{w:16} {m['name']:14} {m['bound']:6.2f} {cells:>44} {rel:+7.2%}  "
                  f"{'yes' if ok else 'NO'}")
        print(f"{w:16} failed share per set: {[str(s) for s in shares]}, "
              f"all correct: {correct}")
    print(f"\nruns saved to {path}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
