"""Command-line entry point.

Subcommands
-----------
verify   run verification suites and emit a JSON (or CSV) report
table    compute the structure-constant and CSM tables, printing the checksum
         of each; with --cache-dir, write the CSM table there
show     print a single class (csm / richardson / box) in both bases

Exit codes: 0 all checks pass; 1 a conjecture violation was found (with
witnesses in the report); 2 a proved identity failed (implementation bug);
3 usage error, which includes --jobs below 1, a negative --max-length, an
output or cache path that cannot be written, and a group above the one
size cap of 10,000 elements; such a path or group is refused before any
table is built.

Every run computes both tables; none reads a table from disk.  Only table
writes a file, and only under --cache-dir: without it, table prints the
checksums and writes nothing.  Weyl group elements are written as reduced
words like "s1 s2 s1", with "e" for the identity.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import sys
from pathlib import Path

from .cache import TableCache
from .errors import CsmVerifyError, InternalInvariantError, UsageError
from .rootdata import MAX_ORDER, SERIES
from .verify import (
    SUITE_NAMES,
    build_engines,
    materialize_tables,
    run_verification,
)

EXIT_PASS = 0
EXIT_VIOLATION = 1
EXIT_INTERNAL = 2
EXIT_USAGE = 3


class _Parser(argparse.ArgumentParser):
    """argparse with the package's usage exit code."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _add_group_args(p):
    p.add_argument("--type", required=True, metavar="SERIES",
                   help=f"series letter, one of {''.join(SERIES)}; a group above "
                        f"{MAX_ORDER} elements is refused")
    p.add_argument("--rank", required=True, type=int)
    p.add_argument("--cache-dir", default=None,
                   help="where table writes the CSM table (default: nowhere); "
                        "verify and show read and write nothing there")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="csmverify", description=__doc__,
                     formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="run verification suites")
    _add_group_args(p_verify)
    p_verify.add_argument("--suite", action="append", default=None,
                          choices=list(SUITE_NAMES) + ["all"],
                          help="suite to run (repeatable; default all)")
    p_verify.add_argument("--max-length", type=int, default=None,
                          help="restrict u, v to elements of at most this length")
    p_verify.add_argument("--jobs", type=int, default=1,
                          help="parallel worker processes (default 1)")
    p_verify.add_argument("--output", default=None,
                          help="write the report here instead of stdout")
    p_verify.add_argument("--format", choices=["json", "csv"], default="json")

    p_table = sub.add_parser("table", help="compute both tables and write the CSM one")
    _add_group_args(p_table)

    p_show = sub.add_parser("show", help="print one class in both bases")
    p_show.add_argument("kind", choices=["csm", "richardson", "box"])
    _add_group_args(p_show)
    p_show.add_argument("--u", required=True, help='reduced word, e.g. "s1 s2" or "e"')
    p_show.add_argument("--v", default=None, help="second word (richardson/box)")
    return parser


def _refuse_unwritable(folder: Path, may_create: bool) -> None:
    """Refuse a destination folder that cannot be written (or, if it may
    be created, made), before any table is built."""
    probe = folder
    while may_create and not probe.exists():
        probe = probe.parent
    if not probe.is_dir() or not os.access(probe, os.W_OK | os.X_OK):
        raise UsageError(f"cannot write under {folder}: {probe} is not a writable directory")


def cmd_verify(args) -> int:
    if args.output:
        if Path(args.output).is_dir():
            raise UsageError(f"--output {args.output} is a directory")
        _refuse_unwritable(Path(args.output).parent, may_create=False)
    suites = args.suite or ["all"]
    report = run_verification(
        args.type.upper(), args.rank,
        suites=suites,
        max_length=args.max_length,
        jobs=args.jobs,
    )
    for line in report.summary_lines():
        print(line)
    if args.format == "json":
        body = report.to_json() + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerows(report.csv_rows())
        body = buf.getvalue()
    if args.output:
        Path(args.output).write_text(body, encoding="utf-8")
        print(f"report written to {args.output}")
    else:
        print(body, end="")
    return report.exit_code


def cmd_table(args) -> int:
    cache = TableCache(args.cache_dir) if args.cache_dir else None
    if cache is not None:
        _refuse_unwritable(cache.folder(args.type.upper(), args.rank), may_create=True)
    checksums = materialize_tables(build_engines(args.type.upper(), args.rank), cache=cache)
    for kind in sorted(checksums):
        print(f"{kind} table for {args.type.upper()}{args.rank}: computed, "
              f"checksum {checksums[kind]}")
    return EXIT_PASS


def cmd_show(args) -> int:
    if args.kind == "csm" and args.v is not None:
        raise UsageError("csm takes no --v")
    if args.kind != "csm" and args.v is None:
        raise UsageError(f"{args.kind} requires --v")
    engines = build_engines(args.type.upper(), args.rank)
    if args.kind != "csm":
        engines.coh.build_structure_table()
        engines.csm.build_table()
    group = engines.group
    u = group.parse(args.u)
    v = None if args.v is None else group.parse(args.v)
    if args.kind == "csm":
        cls = engines.csm.csm_schubert_cell(u)
        label = f"csm cell class of {u}"
    elif args.kind == "richardson":
        cls = engines.rich.csm_richardson(u, v)
        label = f"csm Richardson class of ({u}, {v})"
    else:
        cls = engines.box.box_product(u, v)
        label = f"box product eps^{{{u}}} [] eps^{{{v}}}"
    print(label)
    print(f"  eps basis: {cls.epsilon_string()}")
    print(f"  [X] basis: {cls.schubert_variety_string()}")
    return EXIT_PASS


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    commands = {"verify": cmd_verify, "table": cmd_table, "show": cmd_show}
    try:
        return commands[args.command](args)
    except InternalInvariantError as exc:
        print(f"csmverify: internal invariant failure: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except (CsmVerifyError, OSError) as exc:
        print(f"csmverify: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def run() -> None:
    sys.exit(main())


if __name__ == "__main__":
    run()
