import hashlib
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
from test_block_layer import M22_DESIGN_SHA256

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


@pytest.mark.parametrize("flags,digest", [
    (["--include-lambda-2"],
     "11e35734eff69b11d2015d7dc869c2895c3d021b8af35cc45c68023ab5596f80"),
    (["--coprime-mode"],
     "4817f5fd596b7201f2974a8e9c615f8bba4628a8c6da40f1d2fe0f95866080fb"),
    (["--include-lambda-2", "--coprime-mode"],
     "98134774c726679d11060fa5f25f246821db8aeafb46e621b51fd34f6a654a70"),
], ids=["lambda-2", "coprime", "both"])
def test_search_report_is_pinned_in_the_other_modes(flags, digest):
    # the default mode is pinned by table5.csv
    code, out = call("search", "report", *flags)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_search_has_no_defer_fisher_flag(capsys):
    # lambda v < r^2 follows from the other cuts, so there is no cut to defer
    code, out = call("search", "run", "--defer-fisher")
    assert (code, out) == (1, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1


FILE_ARGS = pytest.mark.parametrize("argv", [
    ["design", "verify", "--in"],
    ["catalog", "validate", "--catalog"],
    ["search", "run", "--golden"],
    ["search", "filter-subdegrees", "--golden"],
], ids=["design-verify", "catalog-validate", "search-golden", "filter-golden"])


@FILE_ARGS
def test_a_file_that_is_not_utf8_is_a_data_error(tmp_path, capsys, argv):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"v 3\n1 2 \xff\n")
    code, out = call(*argv, str(bad))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text\n"


@FILE_ARGS
def test_a_missing_file_is_a_data_error_with_nothing_on_stdout(tmp_path, capsys, argv):
    missing = tmp_path / "missing.txt"
    code, out = call(*argv, str(missing))
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(missing) in err and err.count("\n") == 1


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
    assert capsys.readouterr().err == "error: point 5 lies in no block\n"


@pytest.mark.parametrize("text,message", [
    ("v 7\n1 2 3\n", "error: point 4 lies in no block\n"),
    ("v 5\n1 2 3\n1 2 3\n", "error: repeated block (1, 2, 3)\n"),
    ("v 4\n1 2\n3 4\n", "error: pair (1, 3) lies in no block\n"),
    ("v 4\n1 2 3\n1 2 4\n", "error: replication not constant: r(1)=2, r(3)=1\n"),
    ("v 5\n1 2 3\n1 2 4\n1 3 5\n2 4 5\n3 4 5\n",
     "error: pair coverage not constant: (1, 4) lies in 1 blocks\n"),
], ids=["uncovered-point", "repeated-block", "uncovered-pair", "uneven-replication",
        "uneven-pairs"])
def test_design_verify_names_points_as_the_file_does(tmp_path, capsys, text, message):
    # design files number points from 1, and so do the verification errors
    bad = tmp_path / "not-a-design.design"
    bad.write_text(text)
    code, out = call("design", "verify", "--in", str(bad))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("text,message", [
    ("v 12\n1 2 3 4 5 6\n1 2 x 4 5 6\n", "error: line 3: not an integer: 'x'\n"),
    ("v 12\n1 2 3 4 5 13\n", "error: line 2: point 13 outside 1..12\n"),
    ("v twelve\n1 2 3\n", "error: line 1: not an integer: 'twelve'\n"),
    ("v 12\n\n1 2 2 4 5 6\n", "error: line 3: a point is repeated in the block\n"),
    ("v 2\n1 2\n", "error: line 1: a 2-design needs v >= 3, not 2\n"),
    ("v 5\n", "error: the design has no blocks\n"),
    ("v 5\n1 2 3\n1 2 3 4\n", "error: line 3: not k-uniform: block sizes 3 and 4\n"),
    # points are ASCII digits only, which `int` alone does not require
    ("v 5\n1 2 +3\n", "error: line 2: not an integer: '+3'\n"),
    ("v +4\n1 2 3\n", "error: line 1: not an integer: '+4'\n"),
    ("v 40\n1 2 3_0\n", "error: line 2: not an integer: '3_0'\n"),
    ("v 5\n1 2 \u0663\n", "error: line 2: not an integer: '\u0663'\n"),
    # points are held 0-indexed in int64, so v - 1 must fit: the `v` line is
    # the first bad line, whatever the blocks hold
    ("v 18446744073709551617\n1 2 18446744073709551617\n2 3 4\n",
     "error: line 1: point 18446744073709551617 does not fit int64\n"),
    ("v 18446744073709551617\n1 2 3\n2 3 4\n",
     "error: line 1: point 18446744073709551617 does not fit int64\n"),
], ids=["token", "range", "header", "repeat", "small-v", "no-blocks", "mixed", "sign",
        "header-sign", "underscore", "non-ascii-digit", "past-int64", "v-past-int64"])
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


def test_design_verify_refuses_a_block_with_too_many_pairs(tmp_path, capsys):
    # 2,000 points give 1,999,000 pairs a block, more than one bincount
    # call counts; refused before the pair index arrays are made
    big = tmp_path / "big.design"
    big.write_text("v 4000\n" + "\n".join(" ".join(map(str, range(lo, lo + 2000)))
                                           for lo in (1, 2001)) + "\n")
    code, out = call("design", "verify", "--in", str(big))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: block size 2000 has more than 1048576 point pairs\n"


def test_family_g2_forcing_refuses_a_huge_q_up_front(capsys):
    # 2^34 / 2 orbits would be lists of 2^33 terms
    start = time.perf_counter()
    code, out = call("family", "g2-forcing", "--q", str(2**34))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        "error: q=17179869184 gives 8589934592 orbits, above limit 65536\n")
    assert time.perf_counter() - start < 10


@pytest.fixture
def int_digit_limit():
    """Sets Python's limit on digits of an int-to-str conversion for one
    test, and restores it."""
    old = sys.get_int_max_str_digits()
    yield sys.set_int_max_str_digits
    sys.set_int_max_str_digits(old)


# the largest exponent e whose q = 2^e prints under a 4300-digit limit, then
# the one the family first refuses at
@pytest.mark.parametrize("command, fits, refused", [("g2", 2040, 2041), ("suzuki", 4761, 4763)])
def test_family_refuses_a_q_past_the_digit_limit_before_any_output(
        capsys, int_digit_limit, command, fits, refused):
    int_digit_limit(4300)
    code, out = call("family", command, "--q", str(2**fits))
    assert code == 0 and len(out.splitlines()) == 3
    start = time.perf_counter()
    code, out = call("family", command, "--q", str(2**refused))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == (
        f"error: q=2^{refused} gives parameters of more than 4300 digits\n")
    assert time.perf_counter() - start < 1
    int_digit_limit(0)    # no limit
    code, out = call("family", command, "--q", str(2**refused))
    assert code == 0 and len(out.splitlines()) == 3


# `suzuki build` shares the refusal with `family suzuki`: under the limit a
# composite 2^e - 1 is refused by its Lucas-Lehmer test, past it q is
# refused before the test; 2^14009 - 1 would take seconds to test and print
@pytest.mark.parametrize("exponent, limit, message", [
    (4761, 4300, f"q-1 = {2**4761 - 1} is not (Mersenne) prime"),
    (4763, 4300, "q=2^4763 gives parameters of more than 4300 digits"),
    (4763, 0, f"q-1 = {2**4763 - 1} is not (Mersenne) prime"),
    (14009, sys.int_info.default_max_str_digits,
     "q=2^14009 gives parameters of more than 4300 digits"),
], ids=["fits", "refused", "no-limit", "default-limit"])
def test_suzuki_build_refuses_a_q_past_the_digit_limit_at_once(
        capsys, int_digit_limit, exponent, limit, message):
    int_digit_limit(limit)
    start = time.perf_counter()
    code, out = call("suzuki", "build", "--q", str(2**exponent))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == f"error: {message}\n"
    assert time.perf_counter() - start < 1


def test_python_m_ftdesigns_refuses_a_huge_q_in_one_line():
    # a traceback from formatting a number past the digit limit would show
    # on stderr here, where `main` called in process would raise
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"),
               PYTHONINTMAXSTRDIGITS="4300")
    for command in (["suzuki", "build"], ["family", "suzuki"]):
        proc = subprocess.run([sys.executable, "-m", "ftdesigns", *command, "--q", str(2**9689)],
                              capture_output=True, text=True, env=env)
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr == "error: q=2^9689 gives parameters of more than 4300 digits\n"


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


@pytest.mark.parametrize("fmt,digest", [
    ("text", "610c6ce75b7d630eede5261380c586af83068fb34de523fd4cac9683b50166c5"),
    ("csv", "a8672bf911f3ed87838478d56fc89e1df69d0cca86c9e0691bb7f56026bcd65a"),
])
def test_catalog_validate_output_is_pinned(fmt, digest):
    # every computed order in it comes from a chain of the bundled catalog
    code, out = call("catalog", "validate", "--format", fmt)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("lines,message", [
    (["group C3 degree 3 order 3 junk", "gen (1,2,3)", "end"],
     "error: line 1: malformed group header\n"),
    (["group C3 degree 3 order 3", "subgroup T order 1 nr -4", "end", "end"],
     "error: line 2: nr -4 is not positive\n"),
    (["group C3 degree 3 order 3", "gen (1,2,3)", "end junk"], "error: line 3: malformed end\n"),
], ids=["group-extra", "nr-negative", "end-extra"])
def test_catalog_validate_rejects_a_malformed_header(tmp_path, capsys, lines, message):
    bad = tmp_path / "cat.txt"
    bad.write_text("\n".join(lines) + "\n")
    code, out = call("catalog", "validate", "--catalog", str(bad))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == message


def test_catalog_validate_rejects_a_repeated_subgroup(tmp_path, capsys):
    # the second block could never be looked up by its name and nr
    bad = tmp_path / "cat.txt"
    bad.write_text("group C3 degree 3 order 3\ngen (1,2,3)\nsubgroup T order 1 nr 1\nend\n"
                   "subgroup T order 3 nr 1\ngen (1,2,3)\nend\nend\n")
    code, out = call("catalog", "validate", "--catalog", str(bad))
    assert (code, out) == (1, "")
    assert capsys.readouterr().err == "error: line 5: duplicate subgroup 'T' nr 1 under C3\n"


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


@pytest.mark.parametrize("degree,code,message", [
    ("3000000000", 1, "error: line 1: degree 3000000000 exceeds limit 10000\n"),
    ("0", 3, "error: line 1: degree 0 is not positive\n"),
    ("-3", 3, "error: line 1: degree -3 is not positive\n"),
], ids=["huge", "zero", "negative"])
def test_catalog_validate_checks_the_degree(tmp_path, capsys, degree, code, message):
    # refused at the header, before a generator array of that degree exists
    bad = tmp_path / "cat.txt"
    bad.write_text(f"group X degree {degree} order 6\ngen (1,2,3)(4,5)\nend\n")
    code_got, out = call("catalog", "validate", "--catalog", str(bad))
    assert (code_got, out) == (code, "")
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("header,message", [
    ("group X degree 3 order 0", "error: line 1: order 0 is not positive\n"),
    ("subgroup Y order 0", "error: line 3: order 0 is not positive\n"),
    ("subgroup Y order -5", "error: line 3: order -5 is not positive\n"),
], ids=["group-zero", "subgroup-zero", "subgroup-negative"])
def test_catalog_validate_rejects_an_order_below_one(tmp_path, capsys, header, message):
    bad = tmp_path / "cat.txt"
    lines = ["group X degree 3 order 3", "gen (1,2,3)", "subgroup Y order 1", "end", "end"]
    lines[0 if header.startswith("group") else 2] = header
    bad.write_text("\n".join(lines) + "\n")
    code, out = call("catalog", "validate", "--catalog", str(bad))
    assert (code, out) == (3, "")
    assert capsys.readouterr().err == message


def test_catalog_validate_fails_an_orders_only_subgroup_that_cannot_divide(tmp_path):
    bad = tmp_path / "cat.txt"
    bad.write_text("group X degree 3 order 3\ngen (1,2,3)\nsubgroup Y order 2\nend\nend\n")
    code, out = call("catalog", "validate", "--catalog", str(bad))
    assert code == 3
    assert out.startswith("X: FAILED\n")
    assert "[XX] subgroup Y: no generators (orders-only entry, order 2 does not divide 3)" in out


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


def test_design_build_hs_file_is_pinned(tmp_path):
    # the 176 points are cosets of U3(5).2 in HS, labelled in first-reach
    # order, so the file does not depend on the base of the subgroup's chain
    out_path = tmp_path / "hs.design"
    code, out = call("design", "build", "--name", "hs", "--out", str(out_path))
    assert (code, out) == (0, "2-(176,1100,50,8,2)\nblock stabilizer order 40320\n")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "943aec1df26ed0d6e0b513d38abe25ad75b231449d94cb27e3327d8abf932aa2")


@pytest.mark.parametrize("name,stabilizer", [("m22", 5760), ("m22:2", 11520)])
def test_design_build_m22_is_pinned(tmp_path, name, stabilizer):
    # M22 and M22:2 find one design on the same 22 points
    out_path = tmp_path / "m22.design"
    code, out = call("design", "build", "--name", name, "--out", str(out_path))
    assert (code, out) == (0, f"2-(22,77,21,6,5)\nblock stabilizer order {stabilizer}\n")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == M22_DESIGN_SHA256


def test_suzuki_build_q8_is_pinned(tmp_path):
    out_path = tmp_path / "sz8.design"
    code, out = call("suzuki", "build", "--q", "8", "--out", str(out_path))
    assert (code, out) == (0, "2-(65,520,64,8,7)\ngroup order 29120\n"
                              "block stabilizer order 56\nflag-transitive: True\n")
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == (
        "ff82cd97451efda2bba35a25affd247f37fcb59fcede0f70a74827b8ebfb236b")


@pytest.mark.parametrize("argv", [["design", "build", "--name", "m11"],
                                  ["suzuki", "build", "--q", "8"]], ids=["design", "suzuki"])
def test_an_out_file_that_cannot_be_written_leaves_stdout_empty(tmp_path, capsys, argv):
    out_path = tmp_path / "no-such-dir" / "x.design"
    code, out = call(*argv, "--out", str(out_path))
    assert (code, out) == (3, "")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1 and str(out_path) in err
    assert not out_path.parent.exists()


@pytest.mark.parametrize("name,r", [("m11", 11), ("m22", 21), ("m22:2", 21), ("hs", 50)])
def test_design_flags_output_is_pinned(name, r):
    assert call("design", "flags", "--name", name) == (
        0, f"flag-transitive: True\nr: {r}\npoint-primitive: True\n")


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
    for flag in ["--golden", "--format", "--include-lambda-2", "--coprime-mode"]:
        assert flag in proc.stdout


def test_python_m_ftdesigns_runs_the_command_line(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))

    def run(*args):
        return subprocess.run([sys.executable, "-m", "ftdesigns", *args], capture_output=True,
                              text=True, env=env)

    version = run("--version")
    assert version.returncode == 0 and version.stdout.strip() == ftdesigns.__version__
    missing = run("design", "verify", "--in", str(tmp_path / "missing.design"))
    assert missing.returncode == 3 and missing.stdout == ""
    assert missing.stderr.startswith("error: ")


_IMPORT_PROBE = """
import sys
before = set(sys.modules)
import ftdesigns.cli
added = set(sys.modules) - before
print(" ".join(sorted({name.partition(".")[0] for name in added}
                      - set(sys.stdlib_module_names))))
print(" ".join(sorted(name for name in added if name.startswith("ftdesigns."))))
"""


def test_cli_import_loads_only_numpy_beyond_the_standard_library():
    # what a fresh `import ftdesigns.cli` costs is the start-up time of every
    # command; modules loaded before it (site hooks) are not counted.  Every
    # module of the package loads with it, so none is left to load inside a
    # timed command
    src = str(Path(ftdesigns.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], capture_output=True,
                          text=True, env=dict(os.environ, PYTHONPATH=path), check=True)
    third_party, package = proc.stdout.splitlines()
    assert third_party.split() == ["ftdesigns", "numpy"]
    assert package.split() == [f"ftdesigns.{m}" for m in [
        "actions", "bsgs", "cli", "designs", "errors", "families", "gfield",
        "groupdata", "perm", "pipeline", "suzuki"]]
