"""Catalog of permutation generators and the orders table.

Catalog text format (line oriented, 1-indexed cycles at the boundary):

    # comment
    group <name> degree <n> order <N>
    gen <cycles>
    subgroup <name> order <N> [nr <k>]
    gen <cycles>
    end
    end

A `subgroup` block yields a record of the same type as its group's: a
`CatalogEntry` with the group's degree, its nr and no subgroups.

The orders table lists every studied group with its maximal subgroup
orders in the standard descending numbering:

    group <name> order <N>
    max <nr> <name> order <N>
    end

Both tables share one reader and its rules. Blank lines and `#` comment
lines are skipped, every number is a positive integer, a header has
exactly the tokens shown, and every block is closed by its own `end`.
A repeated key (a group name, a subgroup's name and nr under one group,
a `max` nr under one group) is an InputError at its line.

Bundled data is trusted only after validation: declared orders are
recomputed from stabilizer chains, subgroup generators are sifted into
the parent, and the large-subgroup flags are recomputed from the cube
bound.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from importlib import resources

from .bsgs import StabilizerChain, bsgs_build, contains
from .errors import InputError, ParseError, ResourceLimitError
from .perm import Permutation, parse_cycles

# largest catalog degree: while a chain is built, a level of a transitive
# group holds a (degree, degree) inverse transversal matrix, 200 MB at
# this bound; the completed chain keeps only its Schreier trees
CATALOG_DEGREE_LIMIT = 10_000


@dataclass
class CatalogEntry:
    """A catalog group; a `subgroup` block yields a record of the same
    type, with its group's degree, its nr and no subgroups of its own."""
    name: str
    degree: int
    order: int
    generators: list[Permutation] = field(default_factory=list)
    subgroups: list[CatalogEntry] = field(default_factory=list)
    nr: int | None = None
    _chain: StabilizerChain = field(default=None, repr=False, compare=False)

    @property
    def chain(self):
        """The stabilizer chain of the generators, built on first use."""
        if self._chain is None:
            self._chain = bsgs_build(self.generators, self.degree)
        return self._chain

    def subgroup(self, name, nr=None):
        """The subgroup of this name, and of this nr if one is given; a
        name that several subgroups share needs its nr."""
        found = [s for s in self.subgroups if s.name == name and nr in (None, s.nr)]
        if len(found) > 1:
            nrs = ", ".join(str(s.nr) for s in found)
            raise InputError(f"subgroup {name!r} under {self.name} is ambiguous: nr {nrs}")
        if not found:
            at = "" if nr is None else f" nr {nr}"
            raise InputError(f"no subgroup {name!r}{at} under {self.name}")
        return found[0]


def _directives(text):
    """Yield (lineno, tokens, depth) for each directive line of a table,
    depth being the number of blocks open around it.  A `group` or
    `subgroup` line opens a block, and its `end` has the header's depth."""
    depth = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = raw.split()
        if not tokens or tokens[0].startswith("#"):
            continue
        if tokens[0] == "end":
            if len(tokens) != 1:
                raise ParseError("malformed end", lineno)
            if not depth:
                raise ParseError("stray end", lineno)
            depth -= 1
        elif tokens[0] == "group" and depth:
            raise ParseError("nested group block", lineno)
        yield lineno, tokens, depth
        depth += tokens[0] in ("group", "subgroup")
    if depth:
        raise ParseError("unterminated block at end of input")


def _positive(token, what, lineno):
    try:
        value = int(token)
    except ValueError:
        raise ParseError(f"{what} {token!r} is not an integer", lineno) from None
    if value < 1:
        raise ParseError(f"{what} {value} is not positive", lineno)
    return value


def _once(seen, key, what, lineno):
    """Add key to seen; a key seen before is an InputError at its line."""
    if key in seen:
        raise InputError(f"line {lineno}: duplicate {what}")
    seen.add(key)


def parse_catalog(text: str) -> list[CatalogEntry]:
    entries, seen = [], set()
    for lineno, tokens, depth in _directives(text):
        kind = tokens[0]
        if kind == "group":
            if len(tokens) != 6 or tokens[2] != "degree" or tokens[4] != "order":
                raise ParseError("malformed group header", lineno)
            _once(seen, tokens[1], f"group name {tokens[1]!r}", lineno)
            degree = _positive(tokens[3], "degree", lineno)
            if degree > CATALOG_DEGREE_LIMIT:
                raise ResourceLimitError(
                    f"line {lineno}: degree {degree} exceeds limit {CATALOG_DEGREE_LIMIT}")
            entries.append(CatalogEntry(tokens[1], degree, _positive(tokens[5], "order", lineno)))
        elif kind == "subgroup":
            if depth != 1:
                raise ParseError("subgroup block outside a group", lineno)
            if len(tokens) not in (4, 6) or tokens[2::2] not in (["order"], ["order", "nr"]):
                raise ParseError("malformed subgroup header", lineno)
            entry = entries[-1]
            nr = _positive(tokens[5], "nr", lineno) if len(tokens) == 6 else None
            at = "" if nr is None else f" nr {nr}"
            _once(seen, (entry.name, tokens[1], nr),
                  f"subgroup {tokens[1]!r}{at} under {entry.name}", lineno)
            entry.subgroups.append(CatalogEntry(
                tokens[1], entry.degree, _positive(tokens[3], "order", lineno), nr=nr))
        elif kind == "gen":
            if not depth:
                raise ParseError("gen line outside a group", lineno)
            entry = entries[-1].subgroups[-1] if depth == 2 else entries[-1]
            try:
                entry.generators.append(parse_cycles(" ".join(tokens[1:]), entry.degree))
            except InputError as exc:
                raise ParseError(str(exc), lineno) from None
        elif kind != "end":
            raise ParseError(f"unknown directive {kind!r}", lineno)
    return entries


@dataclass
class ValidationCheck:
    label: str
    passed: bool
    detail: str = ""


@dataclass
class ValidationReport:
    entry: str
    checks: list[ValidationCheck]

    @property
    def passed(self):
        return all(c.passed for c in self.checks)

    def lines(self):
        out = [f"{self.entry}: {'ok' if self.passed else 'FAILED'}"]
        for c in self.checks:
            out.append(f"  [{'ok' if c.passed else 'XX'}] {c.label}"
                       + (f" ({c.detail})" if c.detail else ""))
        return out


def validate_entry(entry: CatalogEntry) -> ValidationReport:
    """Recompute orders and containments; failures are report content."""
    chain = entry.chain
    got = chain.order()
    checks = [ValidationCheck(
        "group order", got == entry.order, f"declared {entry.order}, computed {got}")]
    for s in entry.subgroups:
        if not s.generators:
            divides = entry.order % s.order == 0
            checks.append(ValidationCheck(
                f"subgroup {s.name}: no generators", divides,
                "orders-only entry" if divides
                else f"orders-only entry, order {s.order} does not divide {entry.order}"))
            continue
        inside = all(contains(chain, g) for g in s.generators)
        checks.append(ValidationCheck(f"subgroup {s.name}: containment", inside))
        sorder = s.chain.order()
        checks.append(ValidationCheck(
            f"subgroup {s.name}: order", sorder == s.order,
            f"declared {s.order}, computed {sorder}"))
    return ValidationReport(entry.name, checks)


@dataclass
class MaximalSubgroup:
    nr: int
    name: str
    order: int
    large: bool


@dataclass
class OrdersRecord:
    name: str
    order: int
    maximals: list[MaximalSubgroup]

    def large_maximals(self):
        return [m for m in self.maximals if m.large]


def parse_orders(text: str) -> list[OrdersRecord]:
    records, seen = [], set()
    for lineno, tokens, depth in _directives(text):
        if tokens[0] == "group":
            if len(tokens) != 4 or tokens[2] != "order":
                raise ParseError("malformed group header", lineno)
            _once(seen, tokens[1], f"group name {tokens[1]!r}", lineno)
            records.append(OrdersRecord(tokens[1], _positive(tokens[3], "order", lineno), []))
        elif tokens[0] == "max":
            if not depth:
                raise ParseError("max line outside group", lineno)
            if len(tokens) != 5 or tokens[3] != "order":
                raise ParseError("malformed max line", lineno)
            cur = records[-1]
            nr = _positive(tokens[1], "nr", lineno)
            _once(seen, (cur.name, nr), f"max nr {nr} under {cur.name}", lineno)
            order = _positive(tokens[4], "order", lineno)
            if cur.order % order:
                raise InputError(
                    f"{cur.name}: subgroup order {order} does not divide {cur.order}")
            cur.maximals.append(MaximalSubgroup(nr, tokens[2], order, cur.order <= order**3))
        elif tokens[0] != "end":
            raise ParseError(f"unknown directive {tokens[0]!r}", lineno)
    return records


def _data_text(name):
    return resources.files("ftdesigns.data").joinpath(name).read_text()


@cache
def _bundled_orders() -> tuple[OrdersRecord, ...]:
    return tuple(parse_orders(_data_text("orders.txt")))


def orders_table() -> list[OrdersRecord]:
    """The bundled orders table (group and maximal-subgroup orders),
    parsed once per process; the records are shared between callers and
    must not be changed."""
    return list(_bundled_orders())


@cache
def _bundled_catalog() -> tuple[CatalogEntry, ...]:
    return tuple(parse_catalog(_data_text("catalog.txt")))


def load_catalog() -> list[CatalogEntry]:
    """The bundled generator catalog, parsed once per process; the
    entries are shared between callers and must not be changed."""
    return list(_bundled_catalog())


def catalog_entry(name) -> CatalogEntry:
    for e in _bundled_catalog():
        if e.name == name:
            return e
    raise InputError(f"no catalog entry {name!r}")
