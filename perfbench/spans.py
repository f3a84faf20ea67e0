"""Per-layer tracing of ftdesigns from outside the package.

`Tracer.install()` replaces the public functions listed in SPANNED with
wrappers that record one span per call, and `perm.compose` with a wrapper
that only counts.  Every module of the package that binds one of these
functions (``from .bsgs import bsgs_build`` and the like) gets the wrapper,
so calls are seen whichever module they come through.  Spans stay in
memory until `metrics()` reduces them; nothing is written while the
workload runs.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time

# Public functions wrapped with a span, by module of ftdesigns.
SPANNED = {
    "cli": ["main"],
    "groupdata": ["load_catalog", "catalog_entry", "orders_table", "validate_entry"],
    "bsgs": ["bsgs_build", "contains", "orbit", "orbit_transversal", "stabilizer_gens"],
    "actions": ["coset_action", "subdegrees", "point_stabilizer_gens", "is_primitive",
                "is_transitive"],
    "pipeline": ["enumerate_all", "action_for", "compute_profiles", "run_filters",
                 "emit_report", "emit_count_summary", "emit_eliminated"],
    "designs": ["set_orbit", "verify_2design", "is_flag_transitive", "suzuki_design",
                "orbit_block_search", "coset_geometry", "block_stabilizer_order",
                "iso_check", "design_to_text", "design_from_text"],
    "suzuki": ["suzuki_action", "circles", "ovoid_points"],
}

# PROFILE_SOURCES keys as metric suffixes: the group loses its colon.
PROFILE_TAGS = ["M23-2", "M23-3", "M23-5", "M24-2", "J1-4", "J1-5",
                "HS-1", "HS2-2", "McL-2", "McL-3"]


def profile_tag(key):
    group, _subgroup, nr = key
    return f"{group.replace(':', '')}-{nr}"


def metric_names():
    """Every per-layer metric, in report order, with its unit."""
    names = [
        ("groupdata.load_catalog_calls", "count"), ("groupdata.load_catalog_s", "s"),
        ("groupdata.validate_entry_s", "s"),
        ("perm.compose_calls", "count"),
        ("bsgs.bsgs_build_calls", "count"), ("bsgs.bsgs_build_s", "s"),
        ("actions.coset_action_calls", "count"), ("actions.coset_action_s", "s"),
    ]
    names += [(f"actions.coset_action_s.{t}", "s") for t in PROFILE_TAGS]
    names += [("actions.subdegrees_s", "s")]
    names += [(f"actions.subdegrees_s.{t}", "s") for t in PROFILE_TAGS]
    names += [
        ("actions.point_stabilizer_gens_s", "s"), ("actions.is_primitive_s", "s"),
        ("pipeline.enumerate_all_s", "s"), ("pipeline.run_filters_s", "s"),
        ("designs.set_orbit_calls", "count"), ("designs.set_orbit_sets", "count"),
        ("designs.set_orbit_s", "s"),
        ("designs.verify_2design_calls", "count"), ("designs.verify_2design_s", "s"),
        ("designs.is_flag_transitive_calls", "count"),
        ("designs.is_flag_transitive_s", "s"),
        ("designs.suzuki_design_self_s", "s"),
        ("designs.orbit_block_search_s", "s"), ("designs.coset_geometry_s", "s"),
        ("designs.iso_check_calls", "count"), ("designs.iso_check_s", "s"),
        ("designs.text_s", "s"),
        ("suzuki.suzuki_action_calls", "count"), ("suzuki.suzuki_action_s", "s"),
        ("suzuki.circles_s", "s"),
    ]
    names += [(f"{m}.self_s", "s") for m in SPANNED]
    names += [("trace.overhead_s", "s")]
    return names


class Tracer:
    """Spans are lists [name, start, end, parent, tag, compose_calls, sets]:
    `parent` indexes the enclosing span (-1 at top level), `tag` is the
    label the benchmark set around the call, `compose_calls` is the number
    of `perm.compose` calls inside the span, and `sets` is the number of
    sets a `set_orbit` call produced."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.compose_calls = 0
        self.tag = None

    def _span_wrapper(self, name, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        count_sets = name == "designs.set_orbit"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.tag,
                   self.compose_calls, 0]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                rec[5] = self.compose_calls - rec[5]
            if count_sets:
                rec[6] = len(result)
            return result

        return traced

    def _count_wrapper(self, fn):
        @functools.wraps(fn)
        def counted(*args, **kwargs):
            self.compose_calls += 1
            return fn(*args, **kwargs)

        return counted

    def install(self):
        replace = {}
        for mod, funcs in SPANNED.items():
            module = importlib.import_module(f"ftdesigns.{mod}")
            for f in funcs:
                fn = getattr(module, f)
                replace[id(fn)] = (fn, self._span_wrapper(f"{mod}.{f}", fn))
        perm = importlib.import_module("ftdesigns.perm")
        replace[id(perm.compose)] = (perm.compose, self._count_wrapper(perm.compose))
        for modname, module in list(sys.modules.items()):
            if modname != "ftdesigns" and not modname.startswith("ftdesigns."):
                continue
            for attr, value in list(vars(module).items()):
                hit = replace.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(module, attr, hit[1])

    def metrics(self):
        """Reduce the spans to the per-layer metrics of `metric_names()`."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for rec in spans:
            if rec[3] >= 0:
                child_time[rec[3]] += rec[2] - rec[1]
        inclusive, calls, self_time = {}, {}, {}
        module_self = {m: 0.0 for m in SPANNED}
        tagged = {}
        sets = 0
        for i, rec in enumerate(spans):
            name, dur = rec[0], rec[2] - rec[1]
            calls[name] = calls.get(name, 0) + 1
            own = dur - child_time[i]
            self_time[name] = self_time.get(name, 0.0) + own
            module_self[name.split(".")[0]] += own
            sets += rec[6]
            # a call nested in a call of the same function is already counted
            p = rec[3]
            while p >= 0 and spans[p][0] != name:
                p = spans[p][3]
            if p < 0:
                inclusive[name] = inclusive.get(name, 0.0) + dur
                if rec[4] is not None:
                    key = (name, rec[4])
                    tagged[key] = tagged.get(key, 0.0) + dur

        def s(name):
            return inclusive.get(name, 0.0)

        def n(name):
            return calls.get(name, 0)

        out = {
            "groupdata.load_catalog_calls": n("groupdata.load_catalog"),
            "groupdata.load_catalog_s": s("groupdata.load_catalog"),
            "groupdata.validate_entry_s": s("groupdata.validate_entry"),
            "perm.compose_calls": self.compose_calls,
            "bsgs.bsgs_build_calls": n("bsgs.bsgs_build"),
            "bsgs.bsgs_build_s": s("bsgs.bsgs_build"),
            "actions.coset_action_calls": n("actions.coset_action"),
            "actions.coset_action_s": s("actions.coset_action"),
        }
        for t in PROFILE_TAGS:
            out[f"actions.coset_action_s.{t}"] = tagged.get(("actions.coset_action", t), 0.0)
        out["actions.subdegrees_s"] = s("actions.subdegrees")
        for t in PROFILE_TAGS:
            out[f"actions.subdegrees_s.{t}"] = tagged.get(("actions.subdegrees", t), 0.0)
        out.update({
            "actions.point_stabilizer_gens_s": s("actions.point_stabilizer_gens"),
            "actions.is_primitive_s": s("actions.is_primitive"),
            "pipeline.enumerate_all_s": s("pipeline.enumerate_all"),
            "pipeline.run_filters_s": s("pipeline.run_filters"),
            "designs.set_orbit_calls": n("designs.set_orbit"),
            "designs.set_orbit_sets": sets,
            "designs.set_orbit_s": s("designs.set_orbit"),
            "designs.verify_2design_calls": n("designs.verify_2design"),
            "designs.verify_2design_s": s("designs.verify_2design"),
            "designs.is_flag_transitive_calls": n("designs.is_flag_transitive"),
            "designs.is_flag_transitive_s": s("designs.is_flag_transitive"),
            "designs.suzuki_design_self_s": self_time.get("designs.suzuki_design", 0.0),
            "designs.orbit_block_search_s": s("designs.orbit_block_search"),
            "designs.coset_geometry_s": s("designs.coset_geometry"),
            "designs.iso_check_calls": n("designs.iso_check"),
            "designs.iso_check_s": s("designs.iso_check"),
            "designs.text_s": s("designs.design_to_text") + s("designs.design_from_text"),
            "suzuki.suzuki_action_calls": n("suzuki.suzuki_action"),
            "suzuki.suzuki_action_s": s("suzuki.suzuki_action"),
            "suzuki.circles_s": s("suzuki.circles"),
        })
        for m in SPANNED:
            out[f"{m}.self_s"] = module_self[m]
        out["trace.overhead_s"] = self.overhead_estimate()
        return out

    def overhead_estimate(self, reps=20000):
        """Wrapper cost per span and per counted call, measured on a no-op
        function in this process, times the calls the run made."""
        def noop(*args, **kwargs):
            return ()

        probe = Tracer()
        wrapped = probe._span_wrapper("probe.noop", noop)
        counted = probe._count_wrapper(noop)
        clock = time.perf_counter

        def per_call(fn):
            best = float("inf")
            for _ in range(5):
                t = clock()
                for _ in range(reps):
                    fn(1, 2)
                best = min(best, (clock() - t) / reps)
                probe.spans.clear()
            return best

        base = per_call(noop)
        span_cost = max(per_call(wrapped) - base, 0.0)
        count_cost = max(per_call(counted) - base, 0.0)
        return len(self.spans) * span_cost + self.compose_calls * count_cost
