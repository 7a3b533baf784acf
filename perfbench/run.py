"""fatou benchmark: run one workload and print its metrics as JSON.

    python3 perfbench/run.py --workload rank0_orbits --seed 1 --seconds 10 --trace 0

Run from the root of a checkout.  The workload runs in a process of its
own (perfbench/worker.py) with src/ first on PYTHONPATH and the BLAS
thread count pinned to 1.  setup_s is the median, over the workload
process and the set-up-only processes started before it and after it, of
the time from starting the process to the end of set-up, scaled to the
reference speed by the host-speed burst each process times right after
its set-up (hostspeed.py).  Probes on both sides of the run let the
median average over the host's speed spells, which outlast a few
back-to-back set-ups.  The last line of stdout is
``{"correct", "attempted", "failed", "metrics"}``; with --trace 0 the
metrics are wall_s, setup_s and peak_rss_mib, with --trace 1 the
per-layer figures.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("rank0_orbits", "rank1_grid", "series_certify")
PROBES_BEFORE = 3
PROBES_AFTER = 4
DEADLINE_S = 170.0
PINNED = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def fail(msg, code=2):
    sys.stderr.write(f"perfbench: {msg}\n")
    sys.exit(code)


def run_worker(args, src, out_dir, env, deadline, setup_only):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--out-dir", out_dir, "--src", src]
    if setup_only:
        cmd.append("--setup-only")
    remaining = deadline - monotonic()
    if remaining <= 0:
        fail("out of time before the workload could run", 3)
    t_start = monotonic()
    try:
        proc = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=remaining)
    except subprocess.TimeoutExpired:
        fail(f"{args.workload} did not finish within {DEADLINE_S:.0f} s", 3)
    if proc.returncode != 0:
        fail(f"worker exited with code {proc.returncode}", 3)
    setup_s, burst, result = None, None, None
    for line in proc.stdout.splitlines():
        if line.startswith("SETUP_DONE "):
            setup_s = float(line.split()[1]) - t_start
        elif line.startswith("SETUP_BURST "):
            burst = float(line.split()[1])
        elif line.startswith("RESULT "):
            result = json.loads(line[len("RESULT "):])
    if setup_s is None or burst is None or (result is None and not setup_only):
        fail("worker printed no result", 3)
    return hostspeed.scale(setup_s, burst), result


def main(argv=None):
    deadline = monotonic() + DEADLINE_S
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be > 0")

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "fatou", "__init__.py")):
        fail(f"no fatou package under {src}; run from the root of a fatou checkout")
    with open(os.path.join(root, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    out_dir = os.path.join(HERE, "results")
    os.makedirs(out_dir, exist_ok=True)
    env = dict(os.environ, **PINNED)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def probes(count):
        return [run_worker(args, src, out_dir, env, deadline, True)[0]
                for _ in range(0 if args.trace else count)]

    setups = probes(PROBES_BEFORE)
    setup_s, result = run_worker(args, src, out_dir, env, deadline, False)
    setups += [setup_s] + probes(PROBES_AFTER)
    values = result["metrics"]
    if not args.trace:
        values["setup_s"] = statistics.median(setups)
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}
    if set(values) != set(units):
        fail(f"metrics {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json", 3)
    result["metrics"] = {k: {"value": values[k], "unit": u} for k, u in units.items()}
    print(json.dumps(result))


if __name__ == "__main__":
    main()
