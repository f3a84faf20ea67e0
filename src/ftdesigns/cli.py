"""Command-line entry point.

Subcommands:

    catalog validate
    search run | report | filter-subdegrees   [--golden FILE]
    design build | verify | flags
    suzuki build
    family suzuki | g2 | g2-forcing           --q N

Exit codes: 0 success, 1 usage error, 2 golden mismatch, 3 data or
validation failure.  Identical invocations print byte-identical output.
"""
from __future__ import annotations

import argparse
import sys

from . import __version__
from .actions import is_primitive
from .designs import (ParameterSet, block_search, block_stabilizer_order, design_from_text,
                      design_to_text, is_flag_transitive, suzuki_construction, verify_2design)
from .errors import DesignError, InputError, ParseError, ResourceLimitError
from .families import g2_orbit_forcing, g2_params, lemma38_block_stabilizer_order, suzuki_params
from .groupdata import load_catalog, parse_catalog, validate_entry
from .pipeline import (action_for, compute_profiles, emit_count_summary, emit_eliminated,
                       emit_report, enumerate_all, run_filters)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_GOLDEN = 2
EXIT_DATA = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(prog="ftdesigns", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_cat = sub.add_parser("catalog", help="bundled generator catalog")
    cat_sub = p_cat.add_subparsers(dest="subcommand", required=True)
    p_val = cat_sub.add_parser("validate", help="recompute orders and containments")
    p_val.add_argument("--catalog", help="catalog file (default: bundled)")
    p_val.add_argument("--format", choices=["text", "csv"], default="text")

    p_search = sub.add_parser("search", help="parameter-set pipeline")
    search_sub = p_search.add_subparsers(dest="subcommand", required=True)
    for name, help_text in [
            ("run", "enumerate candidates and print per-group counts"),
            ("report", "print every candidate tuple"),
            ("filter-subdegrees", "apply index and subdegree filters")]:
        sp = search_sub.add_parser(name, help=help_text)
        sp.add_argument("--golden", help="compare output to this CSV; exit 2 on mismatch")
        sp.add_argument("--format", choices=["csv", "markdown"], default="csv")
        sp.add_argument("--include-lambda-2", action="store_true",
                        help="also enumerate lambda = 2")
        sp.add_argument("--coprime-mode", action="store_true",
                        help="require gcd(r, lambda) = 1 instead of lambda | r")

    p_design = sub.add_parser("design", help="construct and verify designs")
    design_sub = p_design.add_subparsers(dest="subcommand", required=True)
    p_build = design_sub.add_parser("build", help="construct a named design")
    p_build.add_argument("--name", required=True, choices=list(_NAMED_DESIGNS))
    p_build.add_argument("--out", help="write the design file here")
    p_verify = design_sub.add_parser("verify", help="verify a design file")
    p_verify.add_argument("--in", dest="infile", required=True)
    p_flags = design_sub.add_parser("flags", help="flag-transitivity report")
    p_flags.add_argument("--name", required=True, choices=list(_NAMED_DESIGNS))

    p_suzuki = sub.add_parser("suzuki", help="Suzuki-Tits ovoid design")
    suzuki_sub = p_suzuki.add_subparsers(dest="subcommand", required=True)
    p_sb = suzuki_sub.add_parser("build", help="build and verify the ovoid design")
    p_sb.add_argument("--q", type=int, default=8)
    p_sb.add_argument("--out", help="write the design file here")

    p_family = sub.add_parser("family", help="closed-form family parameters")
    family_sub = p_family.add_subparsers(dest="subcommand", required=True)
    for name in ["suzuki", "g2", "g2-forcing"]:
        fp = family_sub.add_parser(name)
        fp.add_argument("--q", type=int, required=True)
    return parser


def _read_text(path):
    """The file's text; a file that is not UTF-8 is a ParseError."""
    try:
        with open(path, encoding="utf-8") as f:
            return f.read()
    except UnicodeDecodeError:
        raise ParseError(f"{path}: not UTF-8 text") from None


def _cmd_catalog_validate(args, out):
    if args.catalog:
        entries = parse_catalog(_read_text(args.catalog))
        if not entries:
            raise ParseError(f"{args.catalog}: no group block to validate")
    else:
        entries = load_catalog()
    ok = True
    rows = []
    for entry in entries:
        report = validate_entry(entry)
        ok = ok and report.passed
        if args.format == "csv":
            for c in report.checks:
                rows.append(f"{entry.name},{c.label},{'pass' if c.passed else 'fail'}")
        else:
            rows.extend(report.lines())
    if args.format == "csv":
        out.write("entry,check,result\n")
    out.write("\n".join(rows) + "\n")
    return EXIT_OK if ok else EXIT_DATA


def _cmd_search(args, out):
    # a golden that cannot be read leaves stdout empty
    golden = _read_text(args.golden) if args.golden else None
    records = enumerate_all(include_lambda_2=args.include_lambda_2,
                            coprime_mode=args.coprime_mode)
    if args.subcommand == "run":
        text = emit_count_summary(records, fmt=args.format)
    elif args.subcommand == "report":
        text = emit_report(records, fmt=args.format)
    else:
        filtered = run_filters(records, profiles=compute_profiles())
        text = emit_eliminated(filtered, fmt=args.format)
    out.write(text)
    if golden is not None and text != golden:
        sys.stderr.write("error: output does not match the golden file\n")
        return EXIT_GOLDEN
    return EXIT_OK


# design name -> (catalog action as `action_for` takes it, target parameters)
_NAMED_DESIGNS = {"m11": (("M11", "L2(11)"), (12, 22, 11, 6, 5)),
                  "m22": (("M22", None), (22, 77, 21, 6, 5)),
                  "m22:2": (("M22:2", None), (22, 77, 21, 6, 5)),
                  "hs": (("HS", "U3(5).2"), (176, 1100, 50, 8, 2))}


def _named_design(name):
    source, target = _NAMED_DESIGNS[name]
    action = action_for(*source)
    return action, block_search(action, ParameterSet(*target))[0]


def _cmd_design(args, out):
    if args.subcommand == "verify":
        design = design_from_text(_read_text(args.infile))
        try:
            params = verify_2design(design)
        except DesignError as exc:   # name points as the file does, from 1
            raise DesignError(exc.labelled(1), exc.witness) from None
        out.write(f"2-({params.v},{params.b},{params.r},{params.k},{params.lam})\n")
        return EXIT_OK
    action, design = _named_design(args.name)
    if args.subcommand == "build":
        params = verify_2design(design)
        report = (f"2-({params.v},{params.b},{params.r},{params.k},{params.lam})\n"
                  f"block stabilizer order {block_stabilizer_order(action, design)}\n")
        if args.out:    # a file that cannot be written leaves stdout empty
            with open(args.out, "w") as f:
                f.write(design_to_text(design))
        out.write(report)
        return EXIT_OK
    report = is_flag_transitive(action, design)
    out.write(f"flag-transitive: {report.flag_transitive}\n")
    out.write(f"r: {report.r_witness}\n")
    out.write(f"point-primitive: {is_primitive(action)}\n")
    return EXIT_OK


def _cmd_suzuki(args, out):
    built = suzuki_construction(args.q)
    p = built.params
    report = (f"2-({p.v},{p.b},{p.r},{p.k},{p.lam})\n"
              f"group order {built.action.order}\n"
              f"block stabilizer order {block_stabilizer_order(built.action, built.design)}\n"
              f"flag-transitive: {built.flags.flag_transitive}\n")
    if args.out:    # a file that cannot be written leaves stdout empty
        with open(args.out, "w") as f:
            f.write(design_to_text(built.design))
    out.write(report)
    return EXIT_OK


def _cmd_family(args, out):
    if args.subcommand == "suzuki":
        fam = suzuki_params(args.q)
    elif args.subcommand == "g2":
        fam = g2_params(args.q)
    else:
        forcing = g2_orbit_forcing(args.q)
        out.write(f"q {forcing.q}\n")
        out.write(f"orbit-lengths {' '.join(map(str, forcing.orbit_lengths))}\n")
        out.write(f"k_j {' '.join(map(str, forcing.k_j))}\n")
        out.write(f"r_j {' '.join(map(str, forcing.r_j))}\n")
        out.write(f"b_j {forcing.b_j}\n")
        out.write(f"stabilizer-order(f1=1) {lemma38_block_stabilizer_order(args.q, 1)}\n")
        return EXIT_OK
    p = fam.params
    out.write(f"family {fam.family} q {fam.q}\n")
    out.write(f"(v,b,r,k,lambda) = ({p.v},{p.b},{p.r},{p.k},{p.lam})\n")
    out.write(f"{fam.prime_condition}: {'pass' if fam.condition_holds else 'fail'}\n")
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    out = sys.stdout
    try:
        if args.command == "catalog":
            return _cmd_catalog_validate(args, out)
        if args.command == "search":
            return _cmd_search(args, out)
        if args.command == "design":
            return _cmd_design(args, out)
        if args.command == "suzuki":
            return _cmd_suzuki(args, out)
        if args.command == "family":
            return _cmd_family(args, out)
        raise AssertionError("unreachable")
    except (ParseError, DesignError, OSError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_DATA
    except (InputError, ResourceLimitError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE


def main_entry():
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
