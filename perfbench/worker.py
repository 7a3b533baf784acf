"""One workload in one process: set up, run whole rounds, report.

Started by run.py with the checkout's src/ first on PYTHONPATH and the BLAS
thread count pinned to 1.  Prints ``SETUP_DONE <t>`` on stdout when set-up
ends (t on CLOCK_MONOTONIC, which run.py shares), then ``SETUP_BURST <s>``,
the ``hostspeed.burst()`` timed right after set-up, then, unless
--setup-only, ``RESULT <json>`` once the rounds are done.  Logs go to
stderr.

Rounds run until the next one would end after --seconds (at least one).
A round's time runs from its first call into fatou to its last checked
result, less the host-speed samples taken during it, scaled to the
reference speed by those samples (hostspeed.Sampler).  With --trace 0
every round runs untraced and the result holds wall_s, the median scaled
round time, and peak_rss_mib, as plain numbers (run.py adds the units).  With --trace 1
the wrappers are on during set-up, for the maps.jet and algebra.series2_*
figures; then untraced and traced rounds alternate, and the result holds
those set-up figures, the per-layer medians over the traced rounds and
trace.overhead_s, the traced minus the untraced median scaled round time.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

import hostspeed
import tracing


def monotonic():
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def log(msg):
    sys.stderr.write(f"[perfbench] {msg}\n")


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out-dir", required=True)
    ap.add_argument("--src", required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import numpy as np

    import fatou
    import workloads

    if not os.path.abspath(fatou.__file__).startswith(os.path.abspath(args.src) + os.sep):
        log(f"fatou was imported from {fatou.__file__}, not from {args.src}")
        return 2
    setup, round_fn = workloads.WORKLOADS[args.workload]

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    presets = workloads.build_presets()
    inputs = setup(np.random.default_rng(args.seed), presets)
    print(f"SETUP_DONE {monotonic():.9f}", flush=True)
    hostspeed.warm_up()
    print(f"SETUP_BURST {hostspeed.burst():.9f}", flush=True)
    if args.setup_only:
        return 0

    setup_trace = None
    if tracer is not None:
        tracer.uninstall()
        setup_figures = tracer.setup_metrics()
        setup_trace = tracer.snapshot()
        tracer.reset()

    walls = {False: [], True: []}
    durations = []
    layer_rounds = []
    round_trace = None
    attempted = failed = 0
    wrong = []
    start = time.perf_counter()
    traced = False
    while True:
        if traced:
            tracer.reset()
            tracer.install()
        run = workloads.Round(log)
        t0 = time.perf_counter()
        with hostspeed.Sampler() as sampler:
            round_fn(inputs, run, args.out_dir)
        durations.append(time.perf_counter() - t0)
        wall = sampler.scaled_s
        if traced:
            tracer.uninstall()
            layer_rounds.append(tracer.round_metrics())
            round_trace = tracer.snapshot()
        walls[traced].append(wall)
        attempted += run.attempted
        failed += run.failed
        wrong += run.wrong
        log(f"{args.workload} round {'traced' if traced else 'untraced'}: "
            f"{wall:.3f} s at reference speed ({sampler.measured_s:.3f} s measured, "
            f"{len(sampler.samples)} samples), "
            f"{run.attempted} operations, {run.failed} failed, "
            f"{len(run.wrong)} wrong")
        # stop before a round that would end past --seconds; a traced run
        # needs one round of each kind whatever the time
        elapsed = time.perf_counter() - start
        next_end = elapsed + statistics.median(durations)
        if next_end > args.seconds and (tracer is None or layer_rounds):
            break
        if tracer is not None:
            traced = not traced

    if tracer is None:
        metrics = {
            "wall_s": statistics.median(walls[False]),
            "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
    else:
        metrics = {k: statistics.median(r[k] for r in layer_rounds)
                   for k in layer_rounds[0]}
        metrics.update(setup_figures)
        metrics["trace.overhead_s"] = (statistics.median(walls[True])
                                       - statistics.median(walls[False]))
        path = os.path.join(args.out_dir, f"trace-{args.workload}-seed{args.seed}.json")
        with open(path, "w") as fh:
            json.dump({"workload": args.workload, "seed": args.seed,
                       "setup": setup_trace, "last_traced_round": round_trace,
                       "rounds": {"untraced_wall_s": walls[False],
                                  "traced_wall_s": walls[True]}}, fh)
    result = {"correct": not wrong, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    print("RESULT " + json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
