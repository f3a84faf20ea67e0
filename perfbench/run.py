"""Benchmark for ftdesigns: three workloads, end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload classify|construct|ovoid \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from `src/`.
Each round of the workload runs in a fresh process (worker.py), because
every CLI call a user makes pays its own start-up and cold caches.
Rounds repeat until S seconds have passed, at least once.  After each
round its outputs are checked here (checks.py), outside the timed span.

The last line printed is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics (spans.py) with --trace 1.  The line before it, and
a file under perfbench/out/, record the commit, Python and numpy
versions and the CPU count of the host the figures come from.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy

import checks
import spans
import worker

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / "perfbench" / "out"
RUN_LIMIT_S = 170          # a run must end within 180 s
SETUP_SAMPLES = 3          # import-only processes per run; setup_s is their median
IMPORT_PROBE = ("import sys, time; t = time.perf_counter(); sys.path.insert(0, 'src'); "
                "import ftdesigns.cli; print(time.perf_counter() - t)")

END_TO_END = [("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("peak_rss_mb", "MB")]


def environment():
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.TimeoutExpired):
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(ROOT).as_posix().encode())
            digest.update(path.read_bytes())
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": len(os.sched_getaffinity(0))}


def import_seconds(deadline):
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE], cwd=ROOT, capture_output=True,
                         text=True, timeout=max(deadline - time.monotonic(), 1), check=True)
    return float(out.stdout)


def run_round(workload, seed, trace, tmp, deadline):
    result = Path(tmp) / "result.json"
    subprocess.run([sys.executable, str(ROOT / "perfbench" / "worker.py"), workload,
                    str(seed), str(trace), tmp, str(result)],
                   cwd=ROOT, timeout=max(deadline - time.monotonic(), 1), check=True)
    return json.loads(result.read_text())


def check_round(workload, record, refs):
    """Problems with the round's outputs; failed operations are not checked."""
    outs = {op["name"]: op["output"] for op in record["ops"] if op["error"] is None}
    atlas = checks.atlas_orders(refs["orders.txt"])
    problems = []
    if workload == "classify":
        if "catalog validate" in outs:
            problems += checks.check_catalog(outs["catalog validate"], atlas)
        profiles = {o["key"]: (o["degree"], o["profile"])
                    for name, o in outs.items() if name.startswith("profile ")}
        problems += checks.check_profiles(profiles, refs["goldens/subdegrees.csv"])
        if "filters and tables" in outs:
            problems += checks.check_tables(outs["filters and tables"], refs)
    elif workload == "construct":
        for name, (group, params) in checks.PAPER_DESIGNS.items():
            if f"build {name}" in outs:
                out = outs[f"build {name}"]
                problems += checks.check_build(out, name, atlas[group])
                problems += checks.incidence_problems(Path(out["file"]).read_text(), params)
            if f"flags {name}" in outs:
                problems += checks.check_flags(outs[f"flags {name}"], name)
        hs = checks.params_line(checks.PAPER_DESIGNS["hs"][1]) + "\n"
        for name in ("verify hs", "verify hs relabelled"):
            if name in outs and (outs[name]["rc"], outs[name]["stdout"]) != (0, hs):
                problems.append(f"{name}: printed {outs[name]['stdout']!r}, expected {hs!r}")
        short = outs.get("verify hs less one block")
        if short is not None and (short["rc"], short["stdout"]) != (3, ""):
            problems.append(f"a design less one block was accepted: {short}")
        problems += _check_suzuki(outs, 8)
        for name, answer in outs.items():
            if name.startswith("iso_check") and answer is not True:
                problems.append(f"{name}: answered {answer!r} on an isomorphic copy")
    else:
        problems += _check_suzuki(outs, 32)
    return problems


def _check_suzuki(outs, q):
    out = outs.get(f"suzuki q={q}")
    if out is None:
        return []
    params, _order = checks.suzuki_closed_form(q)
    return checks.check_suzuki(out, q) + checks.incidence_problems(
        Path(out["file"]).read_text(), params)


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(worker.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_LIMIT_S
    if not (ROOT / "src" / "ftdesigns" / "cli.py").is_file():
        sys.exit(f"error: no ftdesigns sources under {ROOT / 'src'}")
    refs = checks.read_references(ROOT)
    env = environment()
    OUT.mkdir(parents=True, exist_ok=True)

    # probes before and after the rounds, so that setup_s spans the run
    setup = [import_seconds(deadline) for _ in range(SETUP_SAMPLES - 1)]
    rounds, problems = [], []
    t0 = time.monotonic()
    longest = 0.0
    while not rounds or (time.monotonic() - t0 < args.seconds
                         and deadline - time.monotonic() > 2 * longest):
        started = time.monotonic()
        tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
        try:
            record = run_round(args.workload, args.seed, args.trace, tmp, deadline)
            problems += check_round(args.workload, record, refs)
        finally:
            shutil.rmtree(tmp)
        rounds.append(record)
        longest = max(longest, time.monotonic() - started)
    setup.append(import_seconds(deadline))

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(op["error"] is not None for r in rounds for op in r["ops"])
    for r in rounds:
        for op in r["ops"]:
            if op["error"] is not None:
                print(f"failed: {op['name']}: {op['error']}", file=sys.stderr)
    for p in problems:
        print(f"incorrect: {p}", file=sys.stderr)

    if args.trace:
        units, rows = spans.metric_names(), [r["layers"] for r in rounds]
    else:
        units, rows = END_TO_END, [dict(r, setup_s=statistics.median(setup)) for r in rounds]
    metrics = {n: {"value": statistics.median(row[n] for row in rows), "unit": u}
               for n, u in units}
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_samples": setup,
              "rounds": [dict(r, ops=[{k: op[k] for k in ("name", "error", "wall_s", "cpu_s")}
                                      for op in r["ops"]]) for r in rounds],
              "problems": problems, "result": result}
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1) + "\n")
    print(json.dumps({"env": env}))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
