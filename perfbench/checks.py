"""Output checks for the benchmark's workloads.

Every reference is independent of the program's code: the literature
tables bundled with the package (pinned here by digest, so that an edit
to them fails the check instead of moving the oracle), group orders from
the ATLAS table `orders.txt`, the paper's parameter sets, closed forms
for the Suzuki-Tits designs, an incidence count done here with
numpy/scipy, and relabellings that are isomorphic by construction.

Each `check_*` returns a list of problems; an empty list means correct.
"""
from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

DATA = Path("src") / "ftdesigns" / "data"
REFERENCES = {
    "goldens/table3.csv": "b1e1dd25eb3fa4950dfd32ff74d094afdc6390804eae85e5a331c0e2e5f03feb",
    "goldens/table4.csv": "0f3b1f3902cf19c8609e66da75cb7fa4ebfb63f22b318d79dd8c73134aa86ac9",
    "goldens/table5.csv": "d1b82827d26275ae8a72827da73d43f9000050f39e11e418f3fff155d0645136",
    "goldens/subdegrees.csv": "c9f45ad151fe90787ac119e95a7b53f3bc91531448c98c02f9f8738e005be63c",
    "orders.txt": "e3dc008e1941464fba9f7bd3aa0b293cdd5b64ad7fad34402658c9c383881f8c",
}

# The paper's parameter sets 2-(v, b, r, k, lambda) and the group of each design.
PAPER_DESIGNS = {
    "m11": ("M11", (12, 22, 11, 6, 5)),
    "m22": ("M22", (22, 77, 21, 6, 5)),
    "m22:2": ("M22:2", (22, 77, 21, 6, 5)),
    "hs": ("HS", (176, 1100, 50, 8, 2)),
}


def read_references(root):
    """The reference texts by name; raises if one differs from its digest."""
    out = {}
    for name, digest in REFERENCES.items():
        data = (Path(root) / DATA / name).read_bytes()
        if hashlib.sha256(data).hexdigest() != digest:
            raise ValueError(f"reference {name} differs from the literature copy")
        out[name] = data.decode()
    return out


def atlas_orders(orders_text):
    """Group name -> order, from the `group <name> order <N>` lines."""
    out = {}
    for line in orders_text.splitlines():
        tok = line.split()
        if len(tok) == 4 and tok[0] == "group" and tok[2] == "order":
            out[tok[1]] = int(tok[3])
    return out


def suzuki_closed_form(q):
    """Parameters (q^2+1, q(q^2+1), q^2, q, q-1) and |Sz(q)|; b from vr = bk."""
    v, r, k = q * q + 1, q * q, q
    return (v, v * r // k, r, k, q - 1), q * q * (q * q + 1) * (q - 1)


# ---------------------------------------------------------------------------
# design files


def parse_design(text):
    """`v <n>` then one block per line, 1-indexed.  Returns v and a (b, k)
    int array of 0-indexed points, each row sorted."""
    lines = [ln.split() for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0][0] != "v" or len(lines[0]) != 2:
        raise ValueError("design text must start with `v <n>`")
    v = int(lines[0][1])
    rows = [[int(t) - 1 for t in ln] for ln in lines[1:]]
    if not rows or len({len(r) for r in rows}) != 1:
        raise ValueError("blocks are missing or not of one size")
    blocks = np.sort(np.array(rows, dtype=np.int64), axis=1)
    if blocks.min() < 0 or blocks.max() >= v:
        raise ValueError("point outside 1..v")
    return v, blocks


def format_design(v, blocks):
    return "v %d\n" % v + "".join(" ".join(str(x + 1) for x in row) + "\n"
                                  for row in blocks)


def incidence_problems(text, expected):
    """Count N*N^T on the design file; it must be (r-lambda)I + lambda J for
    the expected (v, b, r, k, lambda), with no repeated block."""
    from scipy import sparse  # here, so that the worker process never loads scipy

    v0, b0, r0, k0, lam0 = expected
    try:
        v, blocks = parse_design(text)
    except ValueError as exc:
        return [f"unreadable design: {exc}"]
    b, k = blocks.shape
    problems = []
    if (v, b, k) != (v0, b0, k0):
        problems.append(f"(v, b, k) = {(v, b, k)}, expected {(v0, b0, k0)}")
    if len(np.unique(blocks, axis=0)) != b:
        problems.append("a block repeats")
    if (np.diff(blocks, axis=1) == 0).any():
        problems.append("a block repeats a point")
    incidence = sparse.csr_matrix(
        (np.ones(b * k, dtype=np.int64), blocks.ravel(), np.arange(0, b * k + 1, k)),
        shape=(b, v))
    counts = (incidence.T @ incidence).toarray()
    want = np.full((v, v), lam0, dtype=np.int64)
    np.fill_diagonal(want, r0)
    if v == v0 and not np.array_equal(counts, want):
        bad = np.argwhere(counts != want)[0]
        problems.append(f"N*N^T[{bad[0]},{bad[1]}] = {counts[bad[0], bad[1]]}, "
                        f"expected {want[bad[0], bad[1]]}")
    return problems


def relabel(v, blocks, rng):
    """The design under a random permutation of its points."""
    perm = list(range(v))
    rng.shuffle(perm)
    return np.sort(np.array(perm, dtype=np.int64)[blocks], axis=1)


# ---------------------------------------------------------------------------
# printed results


def params_line(p):
    return "2-(%d,%d,%d,%d,%d)" % tuple(p)


def check_build(out, name, group_order):
    """`design build` output: the paper's parameters and |G_B| * b = |G|."""
    _group, p = PAPER_DESIGNS[name]
    lines = out["stdout"].splitlines()
    if out["rc"] != 0 or len(lines) != 2 or lines[0] != params_line(p):
        return [f"build {name}: printed {out['stdout']!r} (rc {out['rc']}), "
                f"expected {params_line(p)}"]
    stab = lines[1].removeprefix("block stabilizer order ")
    if not stab.isdigit() or int(stab) * p[1] != group_order:
        return [f"build {name}: block stabilizer order {stab} times b={p[1]} "
                f"is not |G| = {group_order}"]
    return []


def check_flags(out, name):
    r = PAPER_DESIGNS[name][1][2]
    want = f"flag-transitive: True\nr: {r}\npoint-primitive: True\n"
    if out["rc"] != 0 or out["stdout"] != want:
        return [f"flags {name}: printed {out['stdout']!r} (rc {out['rc']})"]
    return []


def check_suzuki(out, q):
    """`suzuki build --q q` output against the closed forms."""
    p, order = suzuki_closed_form(q)
    want = (f"{params_line(p)}\ngroup order {order}\n"
            f"block stabilizer order {order // p[1]}\nflag-transitive: True\n")
    if out["rc"] != 0 or out["stdout"] != want:
        return [f"suzuki q={q}: printed {out['stdout']!r} (rc {out['rc']}), "
                f"expected {want!r}"]
    return []


def check_catalog(out, atlas):
    """`catalog validate`: every entry ok, its group order the ATLAS order."""
    if out["rc"] != 0:
        return [f"catalog validate exit code {out['rc']}"]
    problems, seen, name = [], 0, None
    for line in out["stdout"].splitlines():
        if not line.startswith(" "):
            name, _, status = line.rpartition(": ")
            seen += 1
            if status != "ok":
                problems.append(f"catalog entry {line!r}")
            elif name not in atlas:
                problems.append(f"catalog entry {name} is not in the orders table")
        elif not line.startswith("  [ok] "):
            problems.append(f"catalog check {line.strip()!r}")
        elif line.startswith("  [ok] group order "):
            declared = f"(declared {atlas.get(name)}, computed {atlas.get(name)})"
            if not line.endswith(declared):
                problems.append(f"{name}: {line.strip()}, ATLAS order {atlas.get(name)}")
    if not seen:
        problems.append("catalog validate printed no entry")
    return problems


def check_profiles(profiles, subdegrees_csv):
    """Computed profiles, keyed 'group,subgroup,nr', against the literature."""
    want = {}
    for row in subdegrees_csv.splitlines()[1:]:
        group, sub, nr, degree, profile = row.split(",")
        want[f"{group},{sub},{nr}"] = (int(degree), profile)
    problems = []
    if set(profiles) != set(want):
        problems.append(f"profiles computed for {sorted(profiles)}, "
                        f"literature has {sorted(want)}")
    for key, (degree, text) in profiles.items():
        if key in want and (degree, text) != want[key]:
            problems.append(f"profile {key}: {degree} {text!r}, literature {want[key]}")
    return problems


def check_tables(tables, refs):
    """The emitted tables, byte for byte against the literature tables."""
    problems = []
    for name, text in tables.items():
        golden = refs[f"goldens/{name}"]
        if text != golden:
            got, exp = text.splitlines(), golden.splitlines()
            row = next((i for i, (a, b) in enumerate(zip(got, exp)) if a != b),
                       min(len(got), len(exp)))
            problems.append(f"{name} differs from the literature at row {row}")
    return problems
