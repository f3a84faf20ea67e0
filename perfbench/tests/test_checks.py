"""Each output check of the benchmark rejects a corrupted output.

    python3 -m pytest perfbench/tests -q
"""
import random
import shutil
from pathlib import Path

import pytest

import checks
import run
import spans

ROOT = Path(__file__).resolve().parents[2]
M11 = (12, 22, 11, 6, 5)


@pytest.fixture(scope="module")
def refs():
    return checks.read_references(ROOT)


@pytest.fixture(scope="module")
def m11_text():
    return (ROOT / "src" / "ftdesigns" / "data" / "designs" / "m11.design").read_text()


def test_incidence_count_accepts_the_design_and_its_relabellings(m11_text):
    assert checks.incidence_problems(m11_text, M11) == []
    v, blocks = checks.parse_design(m11_text)
    other = checks.format_design(v, checks.relabel(v, blocks, random.Random(7)))
    assert checks.incidence_problems(other, M11) == []


def test_incidence_count_rejects_a_dropped_block(m11_text):
    lines = m11_text.splitlines(keepends=True)
    assert checks.incidence_problems("".join(lines[:5] + lines[6:]), M11)


def test_incidence_count_rejects_a_repeated_block(m11_text):
    lines = m11_text.splitlines(keepends=True)
    assert checks.incidence_problems("".join(lines[:5] + [lines[4]] + lines[6:]), M11)


def test_tables_reject_a_changed_golden_row(refs):
    table = refs["goldens/table4.csv"]
    assert checks.check_tables({"table4.csv": table}, refs) == []
    rows = table.splitlines(keepends=True)
    rows[2] = rows[2].replace(",22\n", ",77\n")
    assert checks.check_tables({"table4.csv": "".join(rows)}, refs)


def test_profiles_reject_a_changed_profile(refs):
    rows = refs["goldens/subdegrees.csv"].splitlines()[1:]
    profiles = {",".join(r.split(",")[:3]): (int(r.split(",")[3]), r.split(",")[4])
                for r in rows}
    assert checks.check_profiles(profiles, refs["goldens/subdegrees.csv"]) == []
    profiles["HS,M22,1"] = (100, "1^1 22^1 77^2")
    assert checks.check_profiles(profiles, refs["goldens/subdegrees.csv"])


def test_references_are_pinned(tmp_path):
    data = tmp_path / checks.DATA
    shutil.copytree(ROOT / checks.DATA, data)
    with open(data / "goldens" / "table3.csv", "a") as f:
        f.write("X,1\n")
    with pytest.raises(ValueError):
        checks.read_references(tmp_path)


def test_build_rejects_a_wrong_printed_order(refs):
    atlas = checks.atlas_orders(refs["orders.txt"])
    good = {"rc": 0, "stdout": "2-(12,22,11,6,5)\nblock stabilizer order 360\n"}
    assert checks.check_build(good, "m11", atlas["M11"]) == []
    bad = dict(good, stdout="2-(12,22,11,6,5)\nblock stabilizer order 720\n")
    assert checks.check_build(bad, "m11", atlas["M11"])


def test_suzuki_rejects_a_wrong_printed_order():
    good = ("2-(65,520,64,8,7)\ngroup order 29120\nblock stabilizer order 56\n"
            "flag-transitive: True\n")
    assert checks.check_suzuki({"rc": 0, "stdout": good}, 8) == []
    bad = good.replace("29120", "29121")
    assert checks.check_suzuki({"rc": 0, "stdout": bad}, 8)


def test_catalog_rejects_an_order_other_than_the_atlas_one(refs):
    atlas = checks.atlas_orders(refs["orders.txt"])
    good = ("M11: ok\n  [ok] group order (declared 7920, computed 7920)\n"
            "  [ok] subgroup L2(11): containment\n")
    assert checks.check_catalog({"rc": 0, "stdout": good}, atlas) == []
    bad = good.replace("7920, computed 7920", "7921, computed 7921")
    assert checks.check_catalog({"rc": 0, "stdout": bad}, atlas)


def _construct(*ops):
    return {"ops": [{"name": n, "output": o, "error": None} for n, o in ops]}


def test_construct_rejects_an_iso_check_answer_of_false(refs):
    ok = _construct(("iso_check m11 relabelling 3", True))
    assert run.check_round("construct", ok, refs) == []
    bad = _construct(("iso_check m11 relabelling 3", False))
    assert run.check_round("construct", bad, refs)


def test_construct_rejects_an_accepted_truncated_design(refs):
    rejected = {"rc": 3, "stdout": ""}
    assert run.check_round("construct", _construct(("verify hs less one block", rejected)),
                           refs) == []
    accepted = {"rc": 0, "stdout": "2-(176,1099,50,8,2)\n"}
    assert run.check_round("construct", _construct(("verify hs less one block", accepted)),
                           refs)


def test_span_metrics_split_self_time_from_child_time():
    tracer = spans.Tracer()
    # set_orbit nested in set_orbit is counted once in the inclusive time
    tracer.spans = [
        ["designs.orbit_block_search", 0.0, 10.0, -1, None, 0, 0],
        ["designs.set_orbit", 1.0, 4.0, 0, None, 0, 5],
        ["designs.set_orbit", 2.0, 3.0, 1, None, 0, 2],
        ["bsgs.bsgs_build", 5.0, 7.0, 0, "McL-2", 0, 0],
    ]
    tracer.compose_calls = 0
    m = tracer.metrics()
    assert m["designs.set_orbit_calls"] == 2
    assert m["designs.set_orbit_sets"] == 7
    assert m["designs.set_orbit_s"] == 3.0
    assert m["designs.orbit_block_search_s"] == 10.0
    assert m["designs.self_s"] == 8.0
    assert m["bsgs.self_s"] == 2.0
    assert m["trace.overhead_s"] >= 0
    assert set(m) == {name for name, _unit in spans.metric_names()}
