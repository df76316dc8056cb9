"""Command-line interface.

Subcommands: ``table`` (occurrence-count distributions), ``verify``
(formulas / conjectures / assemblies / general-form), ``map`` and
``decode`` (permutation <-> path), ``bases`` (pattern-base catalogs),
``coeffs`` (generating-function coefficient dumps), ``render`` (ASCII/SVG
path pictures).

``table`` sweeps S_n exhaustively (above S_9 on one thread per CPU), read
from and written to ``--cache-dir``; ``verify --formulas`` and ``verify
--conjectures`` count with the bounded census instead, and accept
``--cache-dir`` and ``--limit`` without using them.  ``--cache-dir``
defaults to ``$PERMDYCK_CACHE``, which nothing else reads; an empty value
means no cache.  ``table`` and ``verify`` accept and ignore ``--workers``,
so existing command lines still parse.

Exit codes: 0 success, 1 verification mismatch, 2 usage error (an
``--output``, ``--svg`` or ``--cache-dir`` path that cannot be written
among them), 3 resource guard tripped (``table``: n above ``--limit``;
``verify``: a census layer above ``census.MAX_STATES`` states; ``--force``
lifts both), 4 corrupt distribution cache file (one that does not parse,
has the wrong shape or fails its checksum; delete it to recompute).

At start-up this module loads only ``census`` and ``perms`` (with
``kernels``) of the package, which ``table``, ``bases`` and the error
mapping need.  The other handlers import what they call: ``verify`` and
``coeffs`` load ``series``, ``map`` and ``decode`` load ``bijections`` and
``paths``, and ``render`` loads ``paths``.  No command loads
``dataclasses`` or ``inspect``, only a cache read or write loads
``hashlib``, and only JSON output or a cache read or write loads ``json``.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Optional, Sequence

from permdyck import census
from permdyck.perms import Permutation

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2
EXIT_GUARD = 3
EXIT_CACHE = 4

ENV_CACHE_DIR = "PERMDYCK_CACHE"


def _n_range(text: str) -> list[int]:
    """``table --n``: one n, or an inclusive range such as ``0..9``."""
    lo, dots, hi = text.partition("..")
    try:
        start = int(lo)
        stop = int(hi) if dots else start
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid n or range: {text!r}") from None
    if stop < start:
        raise argparse.ArgumentTypeError(f"empty range {text!r}")
    return list(range(start, stop + 1))


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_positive_int = _int_at_least(1)
_nonnegative_int = _int_at_least(0)


def _emit(args, payload: str) -> None:
    if getattr(args, "output", None):
        with open(args.output, "w") as fh:
            fh.write(payload if payload.endswith("\n") else payload + "\n")
    else:
        print(payload)


def _emit_json(args, doc, **options) -> None:
    # imported here: only JSON output needs json
    import json

    _emit(args, json.dumps(doc, **options))


def _cmd_table(args) -> int:
    ns = args.n
    limit = max(ns) if args.force else args.limit
    if args.force and max(ns) > census.DEFAULT_LIMIT:
        print(
            f"warning: sweeping S_{max(ns)} exhaustively; this can take a long time",
            file=sys.stderr,
        )
    tables = [
        census.brute_distribution(n, args.tau, cache_dir=args.cache_dir, limit=limit)
        for n in ns
    ]
    if args.format == "json":
        doc = {
            "pattern": args.tau,
            "tables": [
                {"n": t.n, "counts": {str(r): str(c) for r, c in t.counts}} for t in tables
            ],
        }
        _emit_json(args, doc, indent=1, sort_keys=True)
    elif args.format == "csv":
        lines = ["n,r,count"]
        for t in tables:
            lines.extend(f"{t.n},{r},{c}" for r, c in t.counts)
        _emit(args, "\n".join(lines))
    else:
        lines = []
        for t in tables:
            row = "  ".join(f"r={r}:{c}" for r, c in t.counts) or "(empty)"
            lines.append(f"n={t.n}  {row}")
        _emit(args, "\n".join(lines))
    return EXIT_OK


def _report_lines(report: census.VerificationReport) -> list[str]:
    from permdyck import series

    lines = []
    by_pair: dict[tuple[str, int], list[census.VerificationRow]] = {}
    for row in report.rows:
        by_pair.setdefault((row.pattern, row.r), []).append(row)
    for (pattern, r), rows in sorted(by_pair.items()):
        bad = [row for row in rows if not row.passed]
        tag = "CONJECTURE " if (pattern, r) in series.CONJECTURAL else ""
        if bad:
            first = bad[0]
            lines.append(
                f"{tag}tau={pattern} r={r}: FAIL at n={first.n} "
                f"(brute {first.brute}, predicted {first.predicted})"
            )
        else:
            lines.append(f"{tag}tau={pattern} r={r}: ok for n <= {max(row.n for row in rows)}")
    return lines


def _cmd_verify(args) -> int:
    from permdyck import series

    checks: list[str] = []
    passed = True
    if args.formulas or args.conjectures:
        fn = census.verify_formulas if args.formulas else census.verify_conjectures
        report = fn(args.n_max, force=args.force)
        checks.extend(_report_lines(report))
        passed = report.passed
    elif args.assemblies:
        order = args.order if args.order is not None else 40
        report = series.check_assemblies(order)
        checks.extend(str(c) for c in report.checks)
        passed = report.passed
    else:  # general form
        order = args.order if args.order is not None else 80
        for pattern, r in sorted(series.GF_PQ):
            rep = series.check_general_form(pattern, r, order)
            tag = "CONJECTURE " if rep.conjectural else ""
            if rep.passed:
                checks.append(
                    f"{tag}tau={pattern} r={r}: denominator {rep.denominator}, "
                    f"deg P = {rep.p_degree}, deg Q = {rep.q_degree}"
                )
            else:
                checks.append(f"{tag}tau={pattern} r={r}: FAIL ({rep.detail})")
                passed = False
    if args.format == "json":
        _emit_json(args, {"passed": passed, "checks": checks}, indent=1)
    else:
        _emit(args, "\n".join(checks + ["PASS" if passed else "FAIL"]))
    return EXIT_OK if passed else EXIT_MISMATCH


def _cmd_map(args) -> int:
    from permdyck import bijections

    rho = Permutation.from_text(args.perm)
    if args.tau == "avoiding":
        path = bijections.psi_avoiding(rho)
    else:
        path = bijections.psi_tau(rho, args.tau)
    if args.format == "json":
        _emit_json(args, {"perm": rho.to_text(), "tau": args.tau, "path": path})
    else:
        _emit(args, path)
    return EXIT_OK


def _cmd_decode(args) -> int:
    from permdyck import bijections, paths

    path = paths.parse_path(args.path)
    if args.mode == "321avoid":
        rho = bijections.decode_321_avoiding(path)
    elif args.mode == "312avoid":
        rho = bijections.decode_312_avoiding(path)
    else:
        rho = bijections.decode_psi312(path)
    if args.format == "json":
        _emit_json(args, {"path": path, "mode": args.mode, "perm": rho.to_text()})
    else:
        _emit(args, rho.to_text())
    return EXIT_OK


def _cmd_bases(args) -> int:
    catalog = census.enumerate_tau_bases(args.tau, args.r)
    if args.format == "json":
        doc = {
            "pattern": catalog.pattern,
            "r": catalog.r,
            "bases": [list(b) for b in catalog.bases],
        }
        _emit_json(args, doc, indent=1)
    elif args.format == "csv":
        lines = ["base"] + [b.to_text() for b in catalog.bases]
        _emit(args, "\n".join(lines))
    else:
        _emit(args, "\n".join(b.to_text() for b in catalog.bases))
    return EXIT_OK


def render_ascii(path: str) -> str:
    """One text row per height level: / and \\ for steps, | for jumps."""
    from permdyck import paths

    glyphs = {paths.UP: "/", paths.DOWN: "\\", paths.JUMP: "|"}
    paths.path_info(path)  # raises PathError on an invalid path
    if not path:
        return "(empty path)"
    # each step is drawn on the lower of the two levels it joins
    rows = [h - (ch == paths.UP) for ch, h in zip(path, paths.running_heights(path))]
    height = max(rows) + 1
    grid = [[" "] * len(path) for _ in range(height)]
    for col, (ch, row) in enumerate(zip(path, rows)):
        grid[height - 1 - row][col] = glyphs[ch]
    return "\n".join("".join(line).rstrip() for line in grid)


def render_svg(path: str) -> str:
    """The path as an SVG polyline: a jump is a vertical segment."""
    from permdyck import paths

    paths.path_info(path)  # raises PathError on an invalid path
    scale = 12
    x = 0
    points = [(0, 0)]
    for ch, y in zip(path, paths.running_heights(path)):
        x += ch in (paths.UP, paths.DOWN)  # a jump is vertical
        points.append((x, y))
    max_y = max(py for _, py in points)
    width = (x + 2) * scale
    height = (max_y + 2) * scale
    coords = " ".join(
        f"{(px + 1) * scale:.0f},{(max_y - py + 1) * scale:.0f}" for px, py in points
    )
    return (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" height="{height:.0f}">'
        f'<polyline points="{coords}" fill="none" stroke="black" stroke-width="2"/>'
        "</svg>\n"
    )


def _cmd_render(args) -> int:
    from permdyck import paths

    path = paths.parse_path(args.path)
    picture = render_ascii(path)
    heights = list(paths.down_step_heights(path))
    # the SVG is written first, so a failed write prints nothing to stdout
    if args.svg:
        with open(args.svg, "w") as fh:
            fh.write(render_svg(path))
    if args.format == "json":
        _emit_json(args, {"path": path, "ascii": picture, "heights": heights})
    else:
        heights_text = ",".join(str(h) for h in heights)
        _emit(args, picture + f"\ndown-step heights: {heights_text}")
    return EXIT_OK


def _cmd_coeffs(args) -> int:
    from permdyck import series

    g = series.gf(args.tau, args.r, 2 * args.n_max)
    coeffs = series.coefficients_as_strings(g)[: args.n_max + 1]
    if args.format == "csv":
        lines = ["n,coefficient"] + [f"{n},{c}" for n, c in enumerate(coeffs)]
        _emit(args, "\n".join(lines))
    else:
        _emit_json(args, coeffs)
    return EXIT_OK


def _add_common(p: argparse.ArgumentParser, *, cache: bool = False) -> None:
    p.add_argument("--format", choices=("text", "json", "csv"), default="text")
    p.add_argument("--output", help="write output to a file instead of stdout")
    if cache:
        p.add_argument(
            "--workers",
            type=_positive_int,
            default=1,
            help="accepted (at least 1) and ignored: table's sweep runs one thread per CPU above S_9",
        )
        p.add_argument(
            "--cache-dir",
            default=os.environ.get(ENV_CACHE_DIR),
            help=f"table's distribution cache; empty for none (default: ${ENV_CACHE_DIR})",
        )
        p.add_argument(
            "--limit",
            type=_nonnegative_int,
            default=census.DEFAULT_LIMIT,
            help="largest n that table sweeps without --force",
        )
        p.add_argument(
            "--force",
            action="store_true",
            help="lift table's sweep limit (n = 11, 12 take a long time) and "
            "verify's census state bound",
        )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="permdyck",
        description="Length-3 pattern counting in permutations via Dyck paths with down-jumps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table", help="occurrence-count distribution over S_n")
    p.add_argument("--tau", choices=("312", "321"), required=True)
    p.add_argument(
        "--n", type=_n_range, required=True, help="single n or range, e.g. 5 or 0..9"
    )
    _add_common(p, cache=True)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="check formulas, conjectures, or series identities")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--formulas", action="store_true")
    group.add_argument("--conjectures", action="store_true")
    group.add_argument("--assemblies", action="store_true")
    group.add_argument("--general-form", action="store_true")
    p.add_argument("--n-max", type=_nonnegative_int, default=9)
    p.add_argument(
        "--order", type=_nonnegative_int, default=None, help="series truncation order in t"
    )
    _add_common(p, cache=True)
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("map", help="encode a permutation as a path")
    p.add_argument("perm", help="comma-separated one-line notation, e.g. 4,3,5,1,2")
    p.add_argument("--tau", choices=("312", "321", "avoiding"), required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_map)

    p = sub.add_parser("decode", help="decode a path back to a permutation")
    p.add_argument("path", help="path literal over U, D, J")
    p.add_argument("--mode", choices=("312avoid", "321avoid", "psi312"), required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_decode)

    p = sub.add_parser("bases", help="catalog of pattern-bases with r occurrences")
    p.add_argument("--tau", choices=("312", "321"), required=True)
    p.add_argument("--r", type=int, required=True)
    _add_common(p)
    p.set_defaults(fn=_cmd_bases)

    p = sub.add_parser("coeffs", help="dump generating-function coefficients")
    p.add_argument("--tau", choices=("312", "321"), required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n-max", type=_nonnegative_int, default=20)
    _add_common(p)
    p.set_defaults(fn=_cmd_coeffs)

    p = sub.add_parser("render", help="draw a path (ASCII, optionally SVG)")
    p.add_argument("path")
    p.add_argument("--svg", help="also write an SVG drawing to this file")
    _add_common(p)
    p.set_defaults(fn=_cmd_render)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except census.ResourceGuardError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except census.CacheError as exc:
        print(f"error: {exc} (delete the file to recompute it)", file=sys.stderr)
        return EXIT_CACHE
    except (ValueError, OSError) as exc:  # PatternError, PathError, NotInImageError too
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
