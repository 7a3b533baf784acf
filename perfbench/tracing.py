"""Spans around fatou's public functions, recorded from outside the package.

A Tracer replaces each traced function wherever fatou looks it up: in the
defining module and in every fatou module that imported the same object
by name (for example ``linearization.series1_compose_map`` or
``cli.iterate``), and on the class for methods of ``AutoMap``.  Nothing
under ``src/`` changes; ``uninstall`` puts the originals back.

Three kinds of wrapper keep the cost in proportion to the call rate:

* ``span``: one record per call (name, id, parent id, start, end, time
  covered by children, extra data).  Used for calls made a few hundred
  times per round at most.
* ``leaf``: calls, busy time and batch items summed per (name, owner),
  where the owner is the nearest enclosing span.  Used for the per-step
  map kernel, which runs ~10^5 times per round.
* ``count``: a call counter only, for ``small_divisor_modulus``, which runs
  ~2*10^6 times per round and costs ~1 us a call.

Spans stay in memory; the worker writes ``snapshot()`` out when the run ends.
"""

from __future__ import annotations

import sys
from time import perf_counter

# (module, attribute, kind, metric name); "AutoMap.x" means a method
TARGETS = [
    ("maps", "AutoMap.eval_batch", "leaf", "maps.eval_batch"),
    ("maps", "AutoMap.eval", "leaf", "maps.eval"),
    ("maps", "AutoMap.jet", "span", "maps.jet"),
    ("algebra", "series1_compose_map", "span", "algebra.series1_compose_map"),
    ("algebra", "series2_mul", "span", "algebra.series2_mul"),
    ("algebra", "series2_exp", "span", "algebra.series2_exp"),
    ("dynamics", "iterate", "span", "dynamics.iterate"),
    ("dynamics", "check_growth_bounds", "span", "dynamics.check_growth_bounds"),
    ("dynamics", "verify_forward_invariance", "span",
     "dynamics.verify_forward_invariance"),
    ("dynamics", "estimate_limit_map", "span", "dynamics.estimate_limit_map"),
    ("dynamics", "track_product_sum_batch", "span",
     "dynamics.track_product_sum_batch"),
    ("dynamics", "waxis_coverage", "span", "dynamics.waxis_coverage"),
    ("dynamics", "invariant_curve", "span", "dynamics.invariant_curve"),
    ("linearization", "solve_psi", "span", "linearization.solve_psi"),
    ("linearization", "majorant_sigma", "span", "linearization.majorant_sigma"),
    ("linearization", "majorant_split", "span", "linearization.majorant_split"),
    ("linearization", "parameter_sweep", "span", "linearization.parameter_sweep"),
    ("diophantine", "max_c_detail", "span", "diophantine.max_c_detail"),
    ("diophantine", "check_siegel", "span", "diophantine.check_siegel"),
    ("diophantine", "check_sector_lemma", "span", "diophantine.check_sector_lemma"),
    ("diophantine", "small_divisor_modulus", "count",
     "diophantine.small_divisor_modulus"),
    ("cli", "main", "span", "cli.main"),
    ("cli", "write_csv", "span", "cli.write_csv"),
    ("cli", "write_json", "span", "cli.write_json"),
]

MODULES = ("algebra", "ddc", "maps", "dynamics", "linearization", "diophantine", "cli")


def _span_name(name, args, kwargs):
    # the double-double recursion is its own layer cost (see README)
    if name == "linearization.solve_psi" and kwargs.get("precision") == "dd":
        return "linearization.solve_psi_dd"
    return name


def _steps(name, result):
    """Orbit steps a dynamics call reports having taken, else None."""
    if name == "dynamics.estimate_limit_map":
        return result.iterations_used
    if name == "dynamics.track_product_sum_batch":
        return result[3]
    return None


class Tracer:
    def __init__(self):
        self.spans = []      # (id, name, parent, start, end, child_s, steps)
        self.leaves = {}     # (name, owner) -> [calls, busy_s, child_s, items]
        self.counts = {}     # name -> calls
        self._stack = []     # frames: [owner span id, child_s]
        self._next_id = 0
        self._patches = []   # (holder, attribute, original)

    # -- wrappers -----------------------------------------------------------

    def _owner(self):
        return self._stack[-1][0] if self._stack else None

    def _span(self, name, fn):
        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id += 1
            parent = self._owner()
            frame = [sid, 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += t1 - t0
            self.spans.append((sid, _span_name(name, args, kwargs), parent,
                               t0, t1, frame[1], _steps(name, result)))
            return result
        return traced

    def _leaf(self, name, fn):
        def traced(self_, z, w, *args, **kwargs):
            frame = [self._owner(), 0.0]
            self._stack.append(frame)
            t0 = perf_counter()
            try:
                return fn(self_, z, w, *args, **kwargs)
            finally:
                dt = perf_counter() - t0
                self._stack.pop()
                if self._stack:
                    self._stack[-1][1] += dt
                acc = self.leaves.setdefault((name, frame[0]), [0, 0.0, 0.0, 0])
                acc[0] += 1
                acc[1] += dt
                acc[2] += frame[1]
                acc[3] += getattr(z, "size", 1)
        return traced

    def _count(self, name, fn):
        counts = self.counts
        counts.setdefault(name, 0)

        def traced(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return traced

    # -- install / uninstall -------------------------------------------------

    def install(self):
        mods = {m: sys.modules[f"fatou.{m}"] for m in MODULES}
        holders = [sys.modules["fatou"], *mods.values()]
        make = {"span": self._span, "leaf": self._leaf, "count": self._count}
        for mod, attr, kind, name in TARGETS:
            if attr.startswith("AutoMap."):
                cls = mods[mod].AutoMap
                meth = attr.split(".", 1)[1]
                orig = cls.__dict__[meth]
                self._patches.append((cls, meth, orig))
                setattr(cls, meth, make[kind](name, orig))
                continue
            orig = getattr(mods[mod], attr)
            wrapped = make[kind](name, orig)
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is orig:
                        self._patches.append((holder, key, orig))
                        setattr(holder, key, wrapped)

    def uninstall(self):
        for holder, key, orig in reversed(self._patches):
            setattr(holder, key, orig)
        self._patches.clear()

    def reset(self):
        self.spans.clear()
        self.leaves.clear()
        for name in self.counts:
            self.counts[name] = 0

    # -- metrics -------------------------------------------------------------

    def busy(self, name):
        return sum(s[4] - s[3] for s in self.spans if s[1] == name)

    def round_metrics(self):
        """Per-layer figures for the calls recorded since the last reset."""
        spans = self.spans
        by_id = {s[0]: s for s in spans}

        def leaf_sum(name, col, owners=None):
            return sum(v[col] for (n, o), v in self.leaves.items()
                       if n == name and (owners is None or o in owners))

        def ids(name):
            return {s[0] for s in spans if s[1] == name}

        out = {}
        kb = leaf_sum("maps.eval_batch", 1)
        items = leaf_sum("maps.eval_batch", 3)
        out["maps.eval_batch.calls"] = leaf_sum("maps.eval_batch", 0)
        out["maps.eval_batch.busy_s"] = kb
        out["maps.eval_batch.ns_per_seed_step"] = kb * 1e9 / items if items else 0.0
        out["maps.eval.calls"] = leaf_sum("maps.eval", 0)
        out["dynamics.self_s"] = sum(s[4] - s[3] - s[5] for s in spans
                                     if s[1].startswith("dynamics."))
        for fn in ("estimate_limit_map", "verify_forward_invariance",
                   "check_growth_bounds", "iterate", "invariant_curve",
                   "track_product_sum_batch", "waxis_coverage"):
            out[f"dynamics.{fn}.busy_s"] = self.busy(f"dynamics.{fn}")
        out["dynamics.estimate_limit_map.steps"] = sum(
            s[6] for s in spans if s[1] == "dynamics.estimate_limit_map")
        tps = ids("dynamics.track_product_sum_batch")
        tps_steps = sum(by_id[i][6] for i in tps)
        out["dynamics.track_product_sum_batch.evals_per_step"] = (
            leaf_sum("maps.eval_batch", 0, tps) / tps_steps if tps_steps else 0.0)
        out["dynamics.invariant_curve.eval_calls"] = leaf_sum(
            "maps.eval_batch", 0, ids("dynamics.invariant_curve"))
        out["algebra.series1_compose_map.calls"] = len(ids("algebra.series1_compose_map"))
        out["algebra.series1_compose_map.busy_s"] = self.busy("algebra.series1_compose_map")
        for name in ("linearization.solve_psi", "linearization.solve_psi_dd",
                     "linearization.majorant_sigma", "linearization.majorant_split",
                     "linearization.parameter_sweep", "diophantine.max_c_detail",
                     "diophantine.check_siegel", "diophantine.check_sector_lemma",
                     "cli.main", "cli.write_csv", "cli.write_json"):
            out[f"{name}.busy_s"] = self.busy(name)
        out["diophantine.small_divisor_modulus.calls"] = self.counts.get(
            "diophantine.small_divisor_modulus", 0)
        return out

    def setup_metrics(self):
        """Per-layer figures for the preset build, which runs once before the rounds."""
        return {
            "maps.jet.busy_s": self.busy("maps.jet"),
            "algebra.series2_mul.calls": sum(1 for s in self.spans
                                             if s[1] == "algebra.series2_mul"),
            "algebra.series2_mul.busy_s": self.busy("algebra.series2_mul"),
            "algebra.series2_exp.busy_s": self.busy("algebra.series2_exp"),
        }

    def snapshot(self):
        return {
            "spans": [dict(zip(("id", "name", "parent", "start", "end", "child_s",
                                "steps"), s)) for s in self.spans],
            "leaves": [{"name": n, "owner": o, "calls": v[0], "busy_s": v[1],
                        "child_s": v[2], "items": v[3]}
                       for (n, o), v in self.leaves.items()],
            "counts": dict(self.counts),
        }
