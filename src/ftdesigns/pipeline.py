"""The candidate-parameter pipeline.

Stage 1 enumerates feasible (v, b, r, k, lambda) tuples from group and
subgroup orders alone, one batch per conjugacy class of large maximal
subgroups.  Orders are factored exactly (`designs.prime_factors`), so
the orders of any group will do, Sz(q) and G2(q) among them.  Stage 2
discards tuples whose block count is divisible by no maximal-subgroup
index.  Stage 3 discards tuples violating the subdegree divisibility
condition r | lambda*e, using point-stabilizer orbit lengths computed
from the bundled permutation catalog.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from math import gcd

from .actions import GroupAction, SubdegreeProfile, coset_action, subdegrees
from .designs import ParameterSet, prime_factors
from .errors import InputError
from .groupdata import catalog_entry, orders_table

STATUS_FEASIBLE = "feasible"
STATUS_INDEX = "eliminated-by-index"
STATUS_SUBDEGREE = "eliminated-by-subdegree"


@dataclass(frozen=True)
class CandidateRecord:
    group: str
    subgroup: str
    nr: int
    params: ParameterSet
    status: str = STATUS_FEASIBLE
    witness: int | None = None

    def sort_key(self):
        return (self.group, self.subgroup, self.nr, self.params.lam,
                self.params.b, self.params.astuple())


def _divisors(n):
    """The divisors of n, ascending."""
    out = [1]
    for p, e in prime_factors(n):
        out = [d * p**i for d in out for i in range(e + 1)]
    return sorted(out)


def enumerate_parameters(order_G: int, order_H: int, lam_set,
                         coprime_mode: bool = False) -> list[ParameterSet]:
    """All feasible parameter sets for a point-stabilizer of the given
    order.

    v = |G|/|H|; for each lambda, r runs over the divisors of
    gcd(lambda(v-1), lcm(lambda, |H|)) that lambda divides; a tuple is
    kept when k = 1 + lambda(v-1)/r and b = vr/k are integral,
    2 < k < v-1 and v < b.  ``coprime_mode`` asks for gcd(r, lambda) = 1
    instead of lambda | r.

    Fisher's lambda v < r^2 needs no cut of its own: k < v in
    r(k-1) = lambda(v-1) gives lambda < r, so lambda v = lambda + r(k-1)
    < rk, and v < b in vr = bk gives k < r.  ``check_identities`` still
    checks it, and every other identity, on each tuple kept.
    """
    if order_G % order_H:
        raise InputError(f"|H|={order_H} does not divide |G|={order_G}")
    v = order_G // order_H
    found = []
    for lam in lam_set:
        if order_G % lam:
            continue  # lambda must divide the group order; others are inert
        bound = gcd(lam * (v - 1), lam * order_H // gcd(lam, order_H))
        for r in _divisors(bound):
            if coprime_mode:
                if gcd(r, lam) != 1:
                    continue
            elif r % lam:
                continue
            k = 1 + lam * (v - 1) // r
            if not (2 < k < v - 1):
                continue
            if (v * r) % k:
                continue
            b = v * r // k
            if not v < b:
                continue
            params = ParameterSet(v, b, r, k, lam)
            params.check_identities()
            found.append(params)
    return sorted(found, key=lambda p: (p.lam, p.b))


def enumerate_all(include_lambda_2: bool = False,
                  coprime_mode: bool = False) -> list[CandidateRecord]:
    """One record per feasible tuple, over every large maximal subgroup
    (per conjugacy class) of every group in the orders table."""
    records = []
    for rec in orders_table():
        lam_set = [p for p, _ in prime_factors(rec.order) if p > 2]
        if include_lambda_2:
            lam_set = [2] + lam_set
        for m in rec.large_maximals():
            for params in enumerate_parameters(rec.order, m.order, lam_set, coprime_mode):
                records.append(CandidateRecord(rec.name, m.name, m.nr, params))
    return sorted(records, key=CandidateRecord.sort_key)


def group_counts(records) -> dict[str, int]:
    counts = {}
    for rec in records:
        counts[rec.group] = counts.get(rec.group, 0) + 1
    return counts


def index_divides_filter(rec: CandidateRecord, maximal_orders, order_G) -> CandidateRecord:
    """Eliminate the record unless some maximal-subgroup index divides b."""
    if rec.status != STATUS_FEASIBLE or any(
            rec.params.b % (order_G // mo) == 0 for mo in maximal_orders):
        return rec
    return replace(rec, status=STATUS_INDEX)


def subdegree_filter(rec: CandidateRecord, profile: SubdegreeProfile) -> CandidateRecord:
    """Eliminate the record if some nontrivial subdegree e has
    r not dividing lambda*e; the witness is the smallest failing e."""
    if rec.status != STATUS_FEASIBLE:
        return rec
    r, lam = rec.params.r, rec.params.lam
    for e, _mult in profile.entries:
        if e == 1:
            continue
        if (lam * e) % r:
            return replace(rec, status=STATUS_SUBDEGREE, witness=e)
    return rec


# (group, subgroup, nr) -> how to realize the action from the catalog:
# (entry name, subgroup name or None for the natural action, subgroup nr)
PROFILE_SOURCES = {
    ("M23", "L3(4).2_2", 2): ("M23", "L3(4).2_2", 2),
    ("M23", "2^4:A7", 3): ("M23", "2^4:A7", 3),
    ("M23", "M11", 5): ("M23", "M11", 5),
    ("M24", "M22.2", 2): ("M24", "M22.2", 2),
    ("J1", "19:6", 4): ("J1", None, None),
    ("J1", "11:10", 5): ("J1", "11:10", 5),
    ("HS", "M22", 1): ("HS", None, None),
    ("HS:2", "M22.2", 2): ("HS:2", None, None),
    ("McL", "M22", 2): ("McL", "M22", 2),
    ("McL", "M22", 3): ("McL", "M22", 3),
}


def action_for(entry_name: str, subgroup_name: str | None,
               subgroup_nr: int | None = None) -> GroupAction:
    """The natural catalog action, or the coset action on a bundled
    subgroup's cosets; both read the entry's chain."""
    entry = catalog_entry(entry_name)
    if subgroup_name is None:
        return GroupAction(entry.name, entry.degree, entry.generators, _chain=entry.chain)
    sub = entry.subgroup(subgroup_name, subgroup_nr)
    return coset_action(entry.chain, sub.chain, name=f"{entry.name} on cosets of {sub.name}")


def compute_profiles():
    """Subdegree profiles for the bundled actions, keyed by
    (group, subgroup, nr)."""
    return {key: subdegrees(action_for(*PROFILE_SOURCES[key]))
            for key in sorted(PROFILE_SOURCES)}


def run_filters(records, profiles):
    """Apply the index filter, then the subdegree filter wherever
    ``profiles`` has the record's (group, subgroup, nr)."""
    by_name = {rec.name: rec for rec in orders_table()}
    out = []
    for rec in records:
        grp = by_name[rec.group]
        rec = index_divides_filter(rec, [m.order for m in grp.maximals], grp.order)
        profile = profiles.get((rec.group, rec.subgroup, rec.nr))
        if profile is not None:
            rec = subdegree_filter(rec, profile)
        out.append(rec)
    return out


# ---------------------------------------------------------------------------
# reporting


def _render(header, rows, fmt):
    """One table of strings as csv or as a markdown table."""
    if fmt == "csv":
        lines = [",".join(row) for row in [header, *rows]]
    elif fmt == "markdown":
        lines = ["| " + " | ".join(row) + " |" for row in [header, *rows]]
        lines.insert(1, "|" + "---|" * len(header))
    else:
        raise InputError(f"unknown report format {fmt!r}")
    return "\n".join(lines) + "\n"


def emit_report(records, fmt: str = "csv") -> str:
    """Deterministic rendering of candidate records."""
    header = ["group", "subgroup", "nr", "v", "b", "r", "k", "lambda",
              "status", "witness"]
    rows = [[rec.group, rec.subgroup, str(rec.nr), *map(str, rec.params.astuple()),
             rec.status, "" if rec.witness is None else str(rec.witness)]
            for rec in sorted(records, key=CandidateRecord.sort_key)]
    return _render(header, rows, fmt)


def emit_count_summary(records, fmt: str = "csv") -> str:
    """Per-group candidate counts plus the grand total."""
    counts = group_counts(records)
    rows = [(rec.name, counts.get(rec.name, 0)) for rec in orders_table()]
    rows.append(("TOTAL", sum(c for _, c in rows)))
    return _render(["group", "count"], [(g, str(c)) for g, c in rows], fmt)


def emit_eliminated(records, fmt: str = "csv") -> str:
    """The subdegree-eliminated rows with their witnesses."""
    rows = [rec for rec in records if rec.status == STATUS_SUBDEGREE]
    return emit_report(rows, fmt)
