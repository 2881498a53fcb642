"""Command-line surface.

Exit codes: 0 success, 1 verdict/numeric failure, 2 usage error (including
a parameter too large for an integer index), 3 resource cap exceeded or out of
memory, 141 stdout closed by its reader before the output was written (as a
shell reports a program killed by SIGPIPE, e.g. under `| head`).  Integers
are read in ASCII digits by `shapes.parse_int`.  Big integers of any length
are emitted as decimal strings, rationals as "p/q", and output is
deterministic byte-for-byte for identical commands.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import asymptotics, bounds, exact, excited, shapes, verify
from .errors import CapExceeded
from .shapes import ShapeFamily, ShapeParseError, SkewShape, parse_shape, shape_text

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_PIPE = 141


def _flt(value: float) -> str:
    return f"{value:.12g}"


def _resolve_shape(text: str) -> SkewShape:
    parsed = parse_shape(text)
    if isinstance(parsed, ShapeFamily):
        return parsed.build()
    return parsed


def _cap(text: str, flag: str) -> int:
    """A cap option: a nonnegative integer."""
    cap = shapes.parse_int(text, flag)
    if cap < 0:
        raise ShapeParseError(f"{flag} must not be negative")
    return cap


def _emit_json(doc) -> None:
    print(json.dumps(doc, indent=2))


# -- subcommands -----------------------------------------------------------------


def cmd_count(args) -> int:
    shape = _resolve_shape(args.shape)
    e = exact.jacobi_trudi_count(shape)
    F = exact.naive_hlf(shape)
    xi = excited.xi_count(shape)
    doc = {
        "shape": shape_text(shape),
        "n": shape.size,
        "e": str(e),
        "F": str(F),
        "xi": str(xi),
    }
    if args.format == "text":
        for key, val in doc.items():
            print(f"{key}: {val}")
    else:
        _emit_json(doc)
    return EXIT_OK


def cmd_bounds(args) -> int:
    shape = _resolve_shape(args.shape)
    report = bounds.bounds_report(shape)
    doc = {
        "shape": shape_text(shape),
        "n": shape.size,
        "exact": str(report.exact),
        "xi": str(report.xi),
        "lower": {k: str(v) for k, v in report.lower.items()},
        "upper": {k: str(v) for k, v in report.upper.items()},
        "chain-sizes": report.chain_sizes,
        "verdicts": report.verdicts,
        "log-gaps": {k: _flt(v) for k, v in report.log_gaps.items()},
    }
    if args.format == "text":
        print(f"shape {doc['shape']}  n={doc['n']}  exact={doc['exact']}  xi={doc['xi']}")
        width = max(map(len, [*report.lower, *report.upper]))
        for side, values in (("lower", report.lower), ("upper", report.upper)):
            for k, v in values.items():
                mark = "ok" if report.verdicts[k] else "FAIL"
                print(f"  {side} {k:<{width}} {str(v):>24}  {mark}")
    else:
        _emit_json(doc)
    return EXIT_OK if report.all_verdicts_hold else EXIT_VERDICT


def _render_grid(shape: SkewShape, diagram) -> str:
    lam = shape.outer
    occupied = set(diagram)
    lines = []
    for i in range(1, len(lam) + 1):
        row = "".join(
            "#" if (i, j) in occupied else "." for j in range(1, lam.part(i) + 1)
        )
        lines.append(row)
    return "\n".join(lines)


def cmd_excited(args) -> int:
    shape = _resolve_shape(args.shape)
    diagrams = excited.enumerate_excited(shape, cap=_cap(args.max_cells, "--max-cells"))
    if args.render:
        print("\n\n".join(_render_grid(shape, d) for d in diagrams))
        return EXIT_OK
    doc = {
        "shape": shape_text(shape),
        "xi": str(len(diagrams)),
        "diagrams": diagrams,
    }
    if args.paths:
        doc["paths"] = [excited.paths_from_diagram(shape, d).paths for d in diagrams]
    _emit_json(doc)
    return EXIT_OK


def cmd_nhlf(args) -> int:
    shape = _resolve_shape(args.shape)
    e = excited.nhlf_count(shape)
    lo, hi = excited.min_max_term(shape)
    doc = {
        "shape": shape_text(shape),
        "e": str(e),
        "xi": str(excited.xi_count(shape)),
        "min-term": str(lo),
        "max-term": str(hi),
    }
    _emit_json(doc)
    return EXIT_OK


def _parse_range(spec: str) -> range:
    pieces = spec.split(":")
    if len(pieces) > 3:
        raise ShapeParseError("range must be K, LO:HI, or LO:HI:STEP")
    ints = [shapes.parse_int(p, f"--k part {pos}") for pos, p in enumerate(pieces, start=1)]
    lo, hi, step = ints if len(ints) == 3 else (ints[0], ints[-1], 1)  # K is K:K
    if step == 0:
        raise ShapeParseError("--k step must not be zero")
    ks = range(lo, hi + (1 if step > 0 else -1), step)  # HI included
    if not ks:
        raise ShapeParseError(f"--k range {shapes.quote_prefix(spec)} is empty")
    return ks


def cmd_family(args) -> int:
    ks = _parse_range(args.k)
    required, accepted = shapes._family_params(args.family)
    extra = {}
    if args.m is not None:
        if "m" not in accepted:
            raise ShapeParseError(f"family '{args.family}' takes no --m")
        extra["m"] = shapes.parse_int(args.m, "--m")
    elif "m" in required:
        raise ShapeParseError(f"family '{args.family}' needs --m")
    rows = asymptotics.family_report(args.family, ks, **extra)
    lines = ["family,k,n,log_e_exact,c_k,logF,logXi,verdict"]
    for r in rows:
        lines.append(
            f"{r.family},{r.k},{r.n},{_flt(r.log_e)},{_flt(r.c_k)},"
            f"{_flt(r.log_F)},{_flt(r.log_xi)},{str(r.verdict).lower()}"
        )
    print("\n".join(lines))
    return EXIT_OK if all(r.verdict for r in rows) else EXIT_VERDICT


def cmd_integrate(args) -> int:
    raw = args.spec
    if not raw.lstrip().startswith(("{", "[")):
        try:
            with open(raw, encoding="utf-8") as fh:
                raw = fh.read()
        except OSError as exc:  # its text would repeat the path, of any length
            raise ShapeParseError(f"cannot read boundary spec: {exc.strerror}")
        except UnicodeDecodeError as exc:
            raise ShapeParseError(f"cannot read boundary spec: {exc}")
    try:
        spec = json.loads(raw, parse_int=lambda text: shapes.parse_int(text, "spec number"))
    except json.JSONDecodeError as exc:
        raise ShapeParseError(f"bad boundary spec: {exc}")
    except RecursionError:
        raise ShapeParseError("bad boundary spec: nested too deeply") from None
    if not isinstance(spec, dict):
        raise ShapeParseError("boundary spec must be a JSON object {outer, inner?}")
    for key in spec:
        if key not in ("outer", "inner"):
            raise ShapeParseError(f"unknown boundary spec key {shapes.quote_prefix(key)}")
    if "outer" not in spec:
        raise ShapeParseError("boundary spec needs an 'outer' point list")
    shape = asymptotics.StableShape(spec["outer"], spec.get("inner"))
    grid = shapes.parse_int(args.grid, "--grid")
    value = asymptotics.hook_integral(shape, grid=grid)
    _emit_json(
        {"grid": grid, "area": _flt(shape.area()), "integral": _flt(value)}
    )
    return EXIT_OK


def cmd_lr(args) -> int:
    lam = shapes.parse_partition(args.outer)
    mu = shapes.parse_partition(args.mu)
    nu = shapes.parse_partition(args.nu)
    c = exact.lr_coefficient(lam, mu, nu, cap=_cap(args.max_brute, "--max-brute"))
    _emit_json({"lr": str(c)})
    return EXIT_OK


def cmd_verify(args) -> int:
    max_size = shapes.parse_int(args.max_size, "--max-size")
    if max_size < 1:
        raise ShapeParseError("--max-size must be at least 1")
    # oracle_sweep checks the brute-force cap first, so it holds for both sweeps
    failed = False
    for res in (verify.oracle_sweep(max_size), verify.bounds_sweep(max_size)):
        status = "ok" if res.ok else f"{len(res.failures)} failures"
        print(f"{res.name}: checked {res.checked} shapes, {status}")
        for item in res.failures[:20]:
            print(f"  {item}")
        failed = failed or not res.ok
    return EXIT_VERDICT if failed else EXIT_OK


# -- parser ------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse, with each usage error printed as one bounded line."""

    def error(self, message):
        # argparse quotes argv text whole after words of its own and a colon
        # ("argument family: invalid choice: ...", "unrecognized arguments:
        # ..."), so a long or unprintable message keeps those words and
        # quotes a prefix of the rest
        if not (message.isprintable() and len(message) <= 150):
            head, _, rest = message.partition(": ")
            message = f"{head}: {shapes.quote_prefix(rest)}"
        print(f"error: {message}", file=sys.stderr)
        self.exit(EXIT_USAGE)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="skewtab",
        description="Exact counts, bounds and asymptotics for skew standard tableaux",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help):
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=fn)
        return p

    p = add("count", cmd_count, "exact count, naive hook value, excited count")
    p.add_argument("shape")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = add("bounds", cmd_bounds, "full bounds report with verdicts")
    p.add_argument("shape")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = add("excited", cmd_excited, "enumerate excited diagrams")
    p.add_argument("shape")
    view = p.add_mutually_exclusive_group()
    view.add_argument("--paths", action="store_true", help="include path families")
    view.add_argument("--render", action="store_true", help="plain-text grids")
    p.add_argument("--max-cells", default=str(excited.DEFAULT_CELL_CAP),
                   help="cap on xi * |inner|, the cells the enumeration stores")

    p = add("nhlf", cmd_nhlf, "count through the excited hook sum")
    p.add_argument("shape")

    p = add("family", cmd_family, "CSV report over a parametric family")
    # a sweep sets a family's first parameter, so it must be an integer
    p.add_argument("family", choices=sorted(
        kind for kind in shapes.FAMILY_BUILDERS
        if shapes._family_params(kind)[1][0] in shapes._INT_KEYS
    ))
    p.add_argument("--k", required=True, help="K, LO:HI or LO:HI:STEP")
    p.add_argument("--m", default=None, help="extra column-length parameter")

    p = add("integrate", cmd_integrate, "hook integral of a piecewise-linear shape")
    p.add_argument("spec", help="JSON file path or inline JSON")
    p.add_argument("--grid", default="512")

    p = add("lr", cmd_lr, "Littlewood-Richardson coefficient")
    p.add_argument("outer")
    p.add_argument("mu")
    p.add_argument("nu")
    p.add_argument("--max-brute", default=str(exact.DEFAULT_BRUTE_CAP))

    p = add("verify", cmd_verify, "run the exhaustive small-shape sweeps")
    p.add_argument("--max-size", default="8")

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    # counts print at any length; shapes.parse_int bounds the integers read
    digit_limit = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if digit_limit is not None:
        sys.set_int_max_str_digits(0)
    try:
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # Nothing more can reach the reader.  Point stdout at devnull so the
        # interpreter's flush at exit does not raise the same error again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_PIPE
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return EXIT_RESOURCE
    except CapExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OverflowError) as exc:
        # an OverflowError is a parameter too large for an index or a float;
        # it is an ArithmeticError too, so it is caught first
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ArithmeticError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    finally:
        if digit_limit is not None:
            sys.set_int_max_str_digits(digit_limit)


if __name__ == "__main__":
    sys.exit(main())
