import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from ftdesigns import groupdata
from ftdesigns.errors import InputError, ParseError, ResourceLimitError
from ftdesigns.groupdata import (CATALOG_DEGREE_LIMIT, catalog_entry, load_catalog, orders_table,
                                 parse_catalog, parse_orders, validate_entry)
from ftdesigns.perm import parse_cycles
from oracles import scalar_parse_cycles, serialize_catalog

MINIMAL = """\
# a comment
group C3 degree 3 order 3
gen (1,2,3)
end
"""


def test_parse_minimal():
    entries = parse_catalog(MINIMAL)
    assert len(entries) == 1
    assert entries[0].name == "C3"
    assert entries[0].degree == 3
    assert len(entries[0].generators) == 1


def test_one_indexed_cycles():
    entries = parse_catalog("group C3 degree 3 order 3\ngen (1,2,3)\nend\n")
    g = entries[0].generators[0]
    assert g(0) == 1 and g(1) == 2 and g(2) == 0


def test_duplicate_group_name_rejected():
    text = MINIMAL + MINIMAL
    with pytest.raises(InputError):
        parse_catalog(text)


def test_malformed_line_reports_line_number():
    with pytest.raises(ParseError) as err:
        parse_catalog("group C3 degree 3 order 3\ngen (1,2\nend\n")
    assert err.value.line == 2


def test_gen_lines_take_whitespace_between_points_not_inside_one():
    text = "group C13 degree 13 order 1\ngen ( 1 , 2 ) (3,4)\nend\n"
    assert parse_catalog(text)[0].generators[0].cycles() == [(0, 1), (2, 3)]
    with pytest.raises(ParseError, match="malformed cycle notation") as err:
        parse_catalog(text.replace("( 1 , 2 )", "(1 2)"))
    assert err.value.line == 2


def test_bundled_gen_lines_match_the_scalar_reader():
    text, degree, lines = groupdata._data_text("catalog.txt"), None, 0
    for raw in text.splitlines():
        tokens = raw.split()
        if tokens[:1] == ["group"]:
            degree = int(tokens[3])
        elif tokens[:1] == ["gen"]:
            cycles = " ".join(tokens[1:])
            assert parse_cycles(cycles, degree) == scalar_parse_cycles(cycles, degree), raw
            lines += 1
    entries = parse_catalog(text)
    assert lines == sum(len(e.generators) + sum(len(s.generators) for s in e.subgroups)
                        for e in entries) == 76


def test_a_bad_point_is_a_parse_error_at_its_line():
    for cycles, message in (("(1,18446744073709551617)", "cycle point out of range 1..3"),
                            ("(1,2)(3,2)", "cycles are not disjoint"),
                            ("(3,1,3)", "repeated point in cycle")):
        with pytest.raises(ParseError, match=message) as err:
            parse_catalog(f"# C3\ngroup C3 degree 3 order 3\ngen (1,2,3)\ngen {cycles}\nend\n")
        assert err.value.line == 4


def test_unterminated_block():
    with pytest.raises(ParseError):
        parse_catalog("group C3 degree 3 order 3\ngen (1,2,3)\n")


def test_subgroup_block():
    text = ("group S3 degree 3 order 6\ngen (1,2,3)\ngen (1,2)\n"
            "subgroup C3 order 3 nr 1\ngen (1,2,3)\nend\nend\n")
    entry = parse_catalog(text)[0]
    assert entry.subgroups[0].name == "C3"
    assert entry.subgroups[0].nr == 1
    assert validate_entry(entry).passed
    # a subgroup is a record of its group's type, with the group's degree
    sub = entry.subgroups[0]
    assert type(sub) is type(entry) is groupdata.CatalogEntry
    assert (sub.degree, sub.order, sub.subgroups, entry.nr) == (3, 3, [], None)
    assert sub.chain.degree == 3 and sub.chain.order() == 3


def test_an_orders_only_subgroup_is_validated_without_a_chain():
    entry = parse_catalog("group S3 degree 3 order 6\ngen (1,2,3)\ngen (1,2)\n"
                          "subgroup C2 order 2\nend\nend\n")[0]
    checks = validate_entry(entry).checks
    assert [(c.label, c.passed) for c in checks] == [
        ("group order", True), ("subgroup C2: no generators", True)]
    assert entry.subgroups[0]._chain is None


def test_round_trip_canonical():
    canon = serialize_catalog(parse_catalog(MINIMAL))
    assert serialize_catalog(parse_catalog(canon)) == canon


def test_bundled_catalog_round_trip():
    canon = serialize_catalog(load_catalog())
    assert serialize_catalog(parse_catalog(canon)) == canon


def test_validate_order_mismatch():
    entry = parse_catalog("group X degree 3 order 7\ngen (1,2,3)\nend\n")[0]
    report = validate_entry(entry)
    assert not report.passed
    assert any("order" in c.label and not c.passed for c in report.checks)


def test_validate_containment_failure():
    text = ("group C3 degree 3 order 3\ngen (1,2,3)\n"
            "subgroup bad order 2\ngen (1,2)\nend\nend\n")
    report = validate_entry(parse_catalog(text)[0])
    assert not report.passed
    assert any("containment" in c.label and not c.passed for c in report.checks)


def test_validate_subgroup_order_mismatch():
    text = ("group S3 degree 3 order 6\ngen (1,2,3)\ngen (1,2)\n"
            "subgroup C3 order 2\ngen (1,2,3)\nend\nend\n")
    report = validate_entry(parse_catalog(text)[0])
    assert not report.passed


def test_every_bundled_entry_validates():
    for entry in load_catalog():
        report = validate_entry(entry)
        assert report.passed, "\n".join(report.lines())


def test_bundled_entry_names():
    names = {e.name for e in load_catalog()}
    assert {"M11", "M12", "M22", "M22:2", "M23", "M24", "J1", "HS", "HS:2",
            "McL"} <= names


def test_orders_table_loads_38_groups():
    table = orders_table()
    assert len(table) == 38
    assert {r.name for r in table} >= {"M11", "M23", "B", "M", "Fi24':2"}


def test_orders_table_is_parsed_once(monkeypatch):
    reads = []
    read = groupdata._data_text
    monkeypatch.setattr(groupdata, "_data_text", lambda name: reads.append(name) or read(name))
    groupdata._bundled_orders.cache_clear()
    first = orders_table()
    second = orders_table()
    assert first is not second and first == second    # each caller gets its own list
    assert reads == ["orders.txt"]


def test_large_flag_definition():
    for rec in orders_table():
        for m in rec.maximals:
            assert m.large == (rec.order <= m.order**3)


def test_m11_lookup():
    rec = next(r for r in orders_table() if r.name == "M11")
    orders = {m.order for m in rec.maximals}
    assert {720, 144} <= orders


def test_m23_lookup():
    rec = next(r for r in orders_table() if r.name == "M23")
    assert rec.order == 10200960
    assert sum(1 for m in rec.maximals if m.order == 40320) == 2
    assert rec.order // 40320 == 253


def test_subgroup_orders_divide():
    for rec in orders_table():
        for m in rec.maximals:
            assert rec.order % m.order == 0


def test_orders_reject_nondividing():
    with pytest.raises(InputError):
        parse_orders("group X order 10\nmax 1 Y order 3\nend\n")


@pytest.mark.parametrize("text,line", [
    ("group X\n", 1),
    ("group X order ten\nend\n", 1),
    ("group X order 10\nmax 1 A\nend\n", 2),
    ("group X order 10\nmax one A order 5\nend\n", 2),
    ("group X order 10\nmax 1 A order five\nend\n", 2),
    ("group X order 10\nend\nend\n", 3),
    ("group Y order -60\nend\n", 1),
    ("group Y order 60 junk\nend\n", 1),
    ("group Y order 60\nmax -1 Z order 12\nend\n", 2),
    ("group Y order 60\nmax 1 Z order 0\nend\n", 2),
    ("group Y order 60\nmax 1 Z order 12 junk\nend\n", 2),
    ("group Y order 60\nend junk\n", 2),
], ids=["group-short", "group-order", "max-short", "max-nr", "max-order", "stray-end",
        "group-negative", "group-extra", "max-nr-negative", "max-order-zero", "max-extra",
        "end-extra"])
def test_orders_short_or_non_numeric_line(text, line):
    with pytest.raises(ParseError) as err:
        parse_orders(text)
    assert err.value.line == line


@pytest.mark.parametrize("text,line,message", [
    ("group C3 degree 3 order 3 junk\ngen (1,2,3)\nend\n", 1, "malformed group header"),
    ("group C3 degree 3 order 3\nsubgroup T order 1 nr -4\nend\nend\n", 2, "nr -4 is not positive"),
    ("group C3 degree 3 order 3\nsubgroup T order 1 nr 0\nend\nend\n", 2, "nr 0 is not positive"),
    ("group C3 degree 3 order 3\nsubgroup T order 1 nr 1 extra\nend\nend\n", 2,
     "malformed subgroup header"),
    ("group C3 degree 3 order 3\nsubgroup T order 1 extra\nend\nend\n", 2,
     "malformed subgroup header"),
    ("group C3 degree 3 order 3\nsubgroup T order 1 id 1\nend\nend\n", 2,
     "malformed subgroup header"),
    ("group C3 degree 3 order 3\ngen (1,2,3)\nend junk\n", 3, "malformed end"),
], ids=["group-extra", "nr-negative", "nr-zero", "subgroup-extra", "subgroup-five",
        "subgroup-not-nr", "end-extra"])
def test_catalog_headers_take_exact_tokens(text, line, message):
    with pytest.raises(ParseError, match=message) as err:
        parse_catalog(text)
    assert err.value.line == line


def test_orders_reject_a_repeated_group():
    # run_filters keys groups by name, so a second block would replace the first
    block = "group Y order 60\nmax 1 Z order 12\nend\n"
    with pytest.raises(InputError, match="duplicate group name 'Y'"):
        parse_orders(block + block)


def test_bundled_tables_are_pinned():
    # the canonical text of the catalog and the repr of the orders table
    catalog = serialize_catalog(load_catalog()).encode()
    assert hashlib.sha256(catalog).hexdigest() == (
        "d660eac9ac583f37cf7a64e3e105273c4f7445906974f3e5c4ceb2c55d0dd138")
    assert hashlib.sha256(repr(orders_table()).encode()).hexdigest() == (
        "4a3a7c7b6690c9a7f7e53a41d9965549d27d7912ed77da5e22df9dc6de5a9a79")


@pytest.mark.parametrize("parse,text,message", [
    (parse_catalog, MINIMAL + MINIMAL, "line 6: duplicate group name 'C3'"),
    (parse_catalog, "group C3 degree 3 order 3\nsubgroup T order 1 nr 1\nend\n"
                    "subgroup T order 3 nr 1\nend\nend\n",
     "line 4: duplicate subgroup 'T' nr 1 under C3"),
    (parse_catalog, "group C3 degree 3 order 3\nsubgroup T order 1\nend\n"
                    "# the same name, again with no nr\nsubgroup T order 3\nend\nend\n",
     "line 5: duplicate subgroup 'T' under C3"),
    (parse_orders, "group Y order 60\nmax 1 Z order 12\nmax 1 W order 10\nend\n",
     "line 3: duplicate max nr 1 under Y"),
], ids=["catalog-group", "subgroup-nr", "subgroup-no-nr", "max-nr"])
def test_a_repeated_key_is_an_input_error_at_its_line(parse, text, message):
    with pytest.raises(InputError) as err:
        parse(text)
    assert str(err.value) == message


def test_a_subgroup_key_is_its_name_and_nr():
    # one name under two nrs, or under two groups, is not a repeat
    entries = parse_catalog("group C3 degree 3 order 3\nsubgroup T order 1 nr 1\nend\n"
                            "subgroup T order 1 nr 2\nend\nsubgroup T order 1\nend\nend\n"
                            "group C2 degree 2 order 2\nsubgroup T order 1 nr 1\nend\nend\n")
    assert [(s.name, s.nr) for s in entries[0].subgroups] == [("T", 1), ("T", 2), ("T", None)]
    assert entries[0].subgroup("T", 2).nr == 2
    with pytest.raises(InputError, match="ambiguous: nr 1, 2, None"):
        entries[0].subgroup("T")


def test_a_shared_subgroup_name_needs_its_nr():
    mcl = catalog_entry("McL")
    with pytest.raises(InputError, match=r"^subgroup 'M22' under McL is ambiguous: nr 2, 3$"):
        mcl.subgroup("M22")
    assert [mcl.subgroup("M22", nr).nr for nr in (2, 3)] == [2, 3]


def test_catalog_degree_limit_is_inclusive():
    limit = CATALOG_DEGREE_LIMIT
    assert parse_catalog(f"group X degree {limit} order 1\nend\n")[0].degree == limit
    with pytest.raises(ResourceLimitError, match=f"line 2: degree {limit + 1} exceeds"):
        parse_catalog(f"# header below\ngroup X degree {limit + 1} order 1\nend\n")


# Tokens of both formats, so that the fuzzed text reaches past the
# first directive; numbers stay small so that no degree allocates much.
_TOKENS = st.sampled_from(["group", "degree", "order", "max", "subgroup", "nr",
                           "gen", "end", "#", "0", "1", "3", "-2", "x", "T", "(1,2)",
                           "(1,2,3)", "()", "(1,", "(4,4)"])
_LINES = st.lists(_TOKENS, max_size=7).map(" ".join)
_TEXTS = st.one_of(st.text(), st.lists(_LINES, max_size=12).map("\n".join))


@settings(max_examples=300, deadline=None)
@given(_TEXTS)
def test_parsers_raise_only_parse_or_input_errors(text):
    # a one-line message, and a ParseError at a line of the text unless
    # the error is the block left open at its end
    for parse in (parse_orders, parse_catalog):
        try:
            parse(text)
        except (ParseError, InputError) as exc:
            assert len(str(exc).splitlines()) == 1
            if isinstance(exc, ParseError):
                unterminated = str(exc) == "unterminated block at end of input"
                assert (exc.line is None) == unterminated
                assert unterminated or 1 <= exc.line <= len(text.splitlines())


def test_catalog_orders_agree_with_orders_table():
    table = {r.name: r for r in orders_table()}
    for entry in load_catalog():
        assert table[entry.name].order == entry.order
        by_nr = {m.nr: m for m in table[entry.name].maximals}
        for sub in entry.subgroups:
            if sub.nr is not None:
                assert by_nr[sub.nr].order == sub.order, (entry.name, sub.name)


def test_catalog_v_matches_candidate_degrees(catalog):
    # |G| / |H| equals the point counts used throughout
    m23 = catalog["M23"]
    assert m23.order // m23.subgroup("L3(4).2_2").order == 253
    assert m23.order // m23.subgroup("M11").order == 1288
    hs = catalog["HS"]
    assert hs.order // hs.subgroup("U3(5).2").order == 176
    assert hs.order // hs.subgroup("S8").order == 1100


def test_missing_entry_raises():
    with pytest.raises(InputError):
        catalog_entry("Ru")


def test_bundled_catalog_is_parsed_once():
    first, second = load_catalog(), load_catalog()
    assert first is not second    # each caller gets its own list
    assert all(a is b for a, b in zip(first, second))
    assert catalog_entry("M11") is next(e for e in first if e.name == "M11")


ROOT = Path(__file__).resolve().parent.parent


def run_demo(script):
    """Run a demo script against the source tree; it must exit 0.  The
    slowest, the catalog rebuild, takes about 3 s on a 2-core host; the
    budget allows for a slower or busier machine."""
    budget_s = 120
    path = [str(ROOT / "src")] + [p for p in [os.environ.get("PYTHONPATH")] if p]
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / script)],
        cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.pathsep.join(path)),
        capture_output=True, text=True, timeout=budget_s)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


def test_rebuild_catalog_demo_reproduces_the_bundled_catalog():
    # the demo derives every group and subgroup of the catalog from first
    # principles
    assert "identical to bundled: True" in run_demo("rebuild_catalog.py")


@pytest.mark.parametrize("script", sorted(
    p.name for p in (ROOT / "demos").glob("*.py") if p.name != "rebuild_catalog.py"))
def test_demo_runs(script):
    run_demo(script)
