"""One round of one workload, in a fresh process.

    python3 perfbench/worker.py WORKLOAD SEED TRACE OUTDIR RESULT

Imports `ftdesigns.cli` from the checkout's `src/`, runs the workload's
operations in order and writes a JSON record to RESULT: the output of
every operation, its wall and CPU seconds, the process's peak RSS and,
with TRACE=1, the per-layer metrics.  Only the call into the program is
timed; making inputs and writing copies of files are not.  Checking the
outputs is left to the parent process (run.py).
"""
from __future__ import annotations

import contextlib
import io
import json
import random
import resource
import sys
import time
from pathlib import Path

import checks
import spans

ROOT = Path(__file__).resolve().parents[1]

# iso_check's time varies from 0.5 s to 34 s with the relabelling of the
# M11 design (random.Random(0..11) on a 2-core host), so the relabellings
# are fixed rather than drawn from --seed: a seeded draw would make the
# spread across seeds far wider than any bound.
ISO_SEEDS = (3, 6, 8)


class Round:
    def __init__(self, seed, outdir, tracer):
        self.seed = seed
        self.outdir = Path(outdir)
        self.tracer = tracer
        self.wall = 0.0
        self.cpu = 0.0
        self.state = {}

    @contextlib.contextmanager
    def timed(self):
        w, c = time.perf_counter(), time.process_time()
        try:
            yield
        finally:
            self.wall += time.perf_counter() - w
            self.cpu += time.process_time() - c

    def cli(self, *argv):
        from ftdesigns import cli

        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            with self.timed():
                rc = cli.main(list(argv))
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}

    def path(self, name):
        return str(self.outdir / name)


# ---------------------------------------------------------------------------
# classify: catalog validation, the candidate pipeline, subdegree profiles


def classify_ops():
    from ftdesigns.pipeline import PROFILE_SOURCES

    ops = [("catalog validate", lambda rd: rd.cli("catalog", "validate")),
           ("enumerate_all", _enumerate)]
    ops += [(f"profile {spans.profile_tag(key)}",
             lambda rd, key=key: _profile(rd, key)) for key in sorted(PROFILE_SOURCES)]
    ops.append(("filters and tables", _tables))
    return ops


def _enumerate(rd):
    from ftdesigns.pipeline import enumerate_all

    with rd.timed():
        rd.state["records"] = enumerate_all()
    return len(rd.state["records"])


def _profile(rd, key):
    from ftdesigns.actions import subdegrees
    from ftdesigns.pipeline import PROFILE_SOURCES, action_for

    if rd.tracer:
        rd.tracer.tag = spans.profile_tag(key)
    try:
        with rd.timed():
            action = action_for(*PROFILE_SOURCES[key])
            profile = subdegrees(action)
    finally:
        if rd.tracer:
            rd.tracer.tag = None
    rd.state.setdefault("profiles", {})[key] = profile
    return {"key": ",".join(map(str, key)), "degree": action.degree,
            "profile": str(profile)}


def _tables(rd):
    from ftdesigns.pipeline import (emit_count_summary, emit_eliminated,
                                    emit_report, run_filters)

    records = rd.state["records"]
    with rd.timed():
        filtered = run_filters(records, profiles=rd.state.get("profiles", {}))
        return {"table3.csv": emit_count_summary(records),
                "table5.csv": emit_report(records),
                "table4.csv": emit_eliminated(filtered)}


# ---------------------------------------------------------------------------
# construct: the sporadic designs, file round trips, Sz(8), isomorphism


def construct_ops():
    ops = []
    for name in checks.PAPER_DESIGNS:
        ops.append((f"build {name}", lambda rd, n=name: _build(rd, n)))
        ops.append((f"flags {name}", lambda rd, n=name: rd.cli("design", "flags", "--name", n)))
    ops += [
        ("verify hs", lambda rd: rd.cli("design", "verify", "--in", rd.path("hs.design"))),
        ("verify hs relabelled", _verify_relabelled),
        ("verify hs less one block", _verify_truncated),
        ("suzuki q=8", lambda rd: _suzuki(rd, 8)),
        ("read m11", _read_m11),
    ]
    ops += [(f"iso_check m11 relabelling {s}", lambda rd, s=s: _iso(rd, s))
            for s in ISO_SEEDS]
    return ops


def _slug(name):
    return name.replace(":", "_")


def _build(rd, name):
    path = rd.path(f"{_slug(name)}.design")
    out = rd.cli("design", "build", "--name", name, "--out", path)
    out["file"] = path
    return out


def _hs_inputs(rd):
    """The relabelling and the deleted block both come from --seed."""
    rng = random.Random(rd.seed)
    v, blocks = checks.parse_design(Path(rd.path("hs.design")).read_text())
    relabelled = checks.relabel(v, blocks, rng)
    return rng, v, blocks, relabelled


def _verify_relabelled(rd):
    _rng, v, _blocks, relabelled = _hs_inputs(rd)
    path = rd.path("hs-relabelled.design")
    Path(path).write_text(checks.format_design(v, relabelled))
    return rd.cli("design", "verify", "--in", path)


def _verify_truncated(rd):
    rng, v, blocks, _ = _hs_inputs(rd)
    gone = rng.randrange(len(blocks))
    path = rd.path("hs-less-one.design")
    Path(path).write_text(checks.format_design(v, [b for i, b in enumerate(blocks)
                                                   if i != gone]))
    out = rd.cli("design", "verify", "--in", path)
    out["deleted"] = gone
    return out


def _suzuki(rd, q):
    path = rd.path(f"sz{q}.design")
    out = rd.cli("suzuki", "build", "--q", str(q), "--out", path)
    out["file"] = path
    return out


def _read_m11(rd):
    from ftdesigns.designs import design_from_text

    text = Path(rd.path("m11.design")).read_text()
    with rd.timed():
        rd.state["m11"] = design_from_text(text)
    return len(rd.state["m11"].blocks)


def _iso(rd, s):
    from ftdesigns.designs import Design, iso_check

    d = rd.state["m11"]
    other = Design(d.v, [tuple(int(x) for x in row) for row in
                         checks.relabel(d.v, d.blocks, random.Random(s))])
    with rd.timed():
        return iso_check(d, other)


# ---------------------------------------------------------------------------
# ovoid: the Suzuki-Tits design for q = 32


def ovoid_ops():
    return [("suzuki q=32", lambda rd: _suzuki(rd, 32))]


WORKLOADS = {"classify": classify_ops, "construct": construct_ops, "ovoid": ovoid_ops}


def main(argv):
    workload, seed, trace, outdir, result = argv
    sys.path.insert(0, str(ROOT / "src"))
    import ftdesigns.cli

    if not Path(ftdesigns.cli.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"ftdesigns imported from {ftdesigns.cli.__file__}, not src/")
    tracer = None
    if trace == "1":
        tracer = spans.Tracer()
        tracer.install()
    rd = Round(int(seed), outdir, tracer)
    ops = []
    for name, fn in WORKLOADS[workload]():
        before = (rd.wall, rd.cpu)
        try:
            ops.append({"name": name, "output": fn(rd), "error": None})
        except Exception as exc:  # counted as a failed operation by run.py
            ops.append({"name": name, "output": None, "error": f"{type(exc).__name__}: {exc}"})
        ops[-1]["wall_s"] = rd.wall - before[0]
        ops[-1]["cpu_s"] = rd.cpu - before[1]
    record = {
        "wall_s": rd.wall,
        "cpu_s": rd.cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ops": ops,
        "layers": tracer.metrics() if tracer else None,
    }
    Path(result).write_text(json.dumps(record))


if __name__ == "__main__":
    main(sys.argv[1:])
