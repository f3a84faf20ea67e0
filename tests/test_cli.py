import io
import os
import subprocess
import sys
import time
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import ftdesigns
from ftdesigns.cli import main

GOLDENS = Path(__file__).resolve().parents[1] / "src/ftdesigns/data/goldens"
DESIGNS = Path(__file__).resolve().parents[1] / "src/ftdesigns/data/designs"
SNAPSHOTS = Path(__file__).resolve().parent / "snapshots"


def call(*args):
    buf = io.StringIO()
    with redirect_stdout(buf):
        code = main(list(args))
    return code, buf.getvalue()


def test_search_run_golden_ok():
    code, _ = call("search", "run", "--golden", str(GOLDENS / "table3.csv"))
    assert code == 0


def test_search_run_golden_mismatch(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text((GOLDENS / "table3.csv").read_text().replace("M11,4", "M11,5"))
    code, _ = call("search", "run", "--golden", str(bad))
    assert code == 2


def test_search_report_golden_ok():
    code, _ = call("search", "report", "--golden", str(GOLDENS / "table5.csv"))
    assert code == 0


def test_design_verify_bundled_m11():
    code, out = call("design", "verify", "--in", str(DESIGNS / "m11.design"))
    assert code == 0
    assert out == "2-(12,22,11,6,5)\n"


def test_design_verify_bad_file(tmp_path):
    bad = tmp_path / "broken.design"
    bad.write_text("v 5\n1 2 3\n1 2 4\n")
    code, _ = call("design", "verify", "--in", str(bad))
    assert code == 3


def test_design_verify_reports_a_point_in_no_block_before_counting(tmp_path, capsys):
    # 3 points per block, 2 blocks and v = 10^11: counting the replication
    # of every point would take an array of 10^11 counters
    sparse = tmp_path / "sparse.design"
    sparse.write_text("v 100000000000\n1 2 3\n2 3 4\n")
    code, out = call("design", "verify", "--in", str(sparse))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == "error: point 4 lies in no block\n"


@pytest.mark.parametrize("text,message", [
    ("v 12\n1 2 3 4 5 6\n1 2 x 4 5 6\n", "error: line 3: not an integer: 'x'\n"),
    ("v 12\n1 2 3 4 5 13\n", "error: line 2: point 13 outside 1..12\n"),
    ("v twelve\n1 2 3\n", "error: line 1: not an integer: 'twelve'\n"),
    ("v 12\n\n1 2 2 4 5 6\n", "error: line 3: a point is repeated in the block\n"),
    ("v 2\n1 2\n", "error: line 1: a 2-design needs v >= 3, not 2\n"),
    ("v 5\n", "error: the design has no blocks\n"),
    ("v 5\n1 2 3\n1 2 3 4\n", "error: line 3: not k-uniform: block sizes 3 and 4\n"),
], ids=["token", "range", "header", "repeat", "small-v", "no-blocks", "mixed"])
def test_design_verify_malformed_file(tmp_path, capsys, text, message):
    bad = tmp_path / "malformed.design"
    bad.write_text(text)
    code, out = call("design", "verify", "--in", str(bad))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("q,message", [
    ("128", "error: q=128 gives 2097280 blocks, more than the block orbit limit 2000000\n"),
    ("2", "error: q=2 is not an odd power 2^(2a+1) >= 8\n"),
], ids=["too-large", "shape"])
def test_suzuki_build_rejects_q_up_front(capsys, q, message):
    start = time.perf_counter()
    code, out = call("suzuki", "build", "--q", q)
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == message
    assert time.perf_counter() - start < 10


def test_unknown_subcommand_is_usage_error():
    code, _ = call("frobnicate")
    assert code == 1


def test_missing_required_flag_is_usage_error():
    code, _ = call("family", "g2")
    assert code == 1


def test_family_outputs():
    code, out = call("family", "g2", "--q", "4")
    assert code == 0
    assert "(2016,20475,325,32,5)" in out
    assert "Fermat(5): pass" in out

    code, out = call("family", "suzuki", "--q", "512")
    assert code == 0
    assert "Mersenne(511): fail" in out

    code, out = call("family", "g2-forcing", "--q", "4")
    assert code == 0
    assert "k_j 16 15" in out
    assert "b_j 325" in out
    assert "stabilizer-order(f1=1) 12288" in out


def test_family_rejects_bad_q(capsys):
    for command in ("g2", "g2-forcing"):
        for q in ("5", "6"):
            code, out = call("family", command, "--q", q)
            assert (code, out) == (1, ""), (command, q)
            assert capsys.readouterr().err == f"error: q={q} must be a power of two, q >= 4\n"


def test_catalog_validate_bundled():
    code, out = call("catalog", "validate")
    assert code == 0
    assert "M11: ok" in out


def test_catalog_validate_rejects_corrupt(tmp_path):
    bad = tmp_path / "cat.txt"
    bad.write_text("group X degree 3 order 7\ngen (1,2,3)\nend\n")
    code, _ = call("catalog", "validate", "--catalog", str(bad))
    assert code == 3


@pytest.mark.parametrize("fmt", ["text", "csv"])
@pytest.mark.parametrize("text", ["", "# only a comment\n"])
def test_catalog_validate_rejects_a_file_with_no_group(tmp_path, capsys, text, fmt):
    empty = tmp_path / "cat.txt"
    empty.write_text(text)
    code, out = call("catalog", "validate", "--catalog", str(empty), "--format", fmt)
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"error: {empty}: no group block to validate\n"


def test_determinism_byte_identical():
    _, first = call("search", "run")
    _, second = call("search", "run")
    assert first == second


def test_design_build_writes_canonical_file(tmp_path):
    out_path = tmp_path / "m11.design"
    code, out = call("design", "build", "--name", "m11", "--out", str(out_path))
    assert code == 0
    assert "2-(12,22,11,6,5)" in out
    assert "block stabilizer order 360" in out
    assert out_path.read_text() == (DESIGNS / "m11.design").read_text()


HELP_CASES = [
    ("root", ["--help"]),
    ("search_run", ["search", "run", "--help"]),
    ("search_report", ["search", "report", "--help"]),
    ("search_filter", ["search", "filter-subdegrees", "--help"]),
    ("catalog_validate", ["catalog", "validate", "--help"]),
    ("design_build", ["design", "build", "--help"]),
    ("design_verify", ["design", "verify", "--help"]),
    ("design_flags", ["design", "flags", "--help"]),
    ("suzuki_build", ["suzuki", "build", "--help"]),
    ("family_g2", ["family", "g2", "--help"]),
]


@pytest.mark.parametrize("name,argv", HELP_CASES, ids=[c[0] for c in HELP_CASES])
def test_help_snapshots(name, argv, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    buf = io.StringIO()
    with redirect_stdout(buf):
        with pytest.raises(SystemExit) as exc:
            main(argv)
    assert exc.value.code == 0
    snapshot = SNAPSHOTS / f"help_{name}.txt"
    assert buf.getvalue() == snapshot.read_text(), f"stale snapshot {snapshot}"


def test_help_lists_all_flags():
    # the child imports the package these tests import, installed or not
    src = str(Path(ftdesigns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    monkey_env = dict(os.environ, COLUMNS="100", PYTHONPATH=path)
    proc = subprocess.run(
        [sys.executable, "-m", "ftdesigns.cli", "search", "run", "--help"],
        capture_output=True, text=True, env=monkey_env)
    for flag in ["--golden", "--format", "--include-lambda-2", "--coprime-mode",
                 "--defer-fisher"]:
        assert flag in proc.stdout
