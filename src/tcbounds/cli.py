"""Command-line front end: predicted Hilbert functions, degree bounds,
bound tables, and seeded verification experiments.

Every command echoes its parameters (seed included) into the output; with
identical flags the JSON output is byte-identical across runs.  Exit codes:
0 success, 1 mathematical precondition violated, 2 usage error,
3 verification failed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .arith import PreconditionError, PrimeField
from .bounds import bound_report, build_table
from .fixtures import DEFAULT_PRIME, fixture_names, make_fixture, variables_ideal
from .froeberg import (
    DegreeType,
    froeberg_series,
    initial_segment,
    smallest_zero,
)
from .macaulay import (
    FormSystem,
    froeberg_check,
    hilbert_table,
    read_form_system,
    write_form_system,
)
from .quotient import verify_theorem_b, verify_theorem_c

__all__ = ["main"]

EXIT_OK = 0
EXIT_PRECONDITION = 1
EXIT_USAGE = 2
EXIT_FAIL = 3


class UsageError(Exception):
    pass


def _parse_degrees(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad degree list {text!r}")


def _parse_n_values(text: str) -> tuple[int, ...]:
    # "3..8,10,11" -> 3,4,5,6,7,8,10,11
    out: list[int] = []
    try:
        for part in text.split(","):
            if ".." in part:
                lo, hi = part.split("..")
                out.extend(range(int(lo), int(hi) + 1))
            else:
                out.append(int(part))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}")
    if not out:
        raise argparse.ArgumentTypeError(f"bad n range {text!r}")
    return tuple(out)


def _degree_type(args) -> DegreeType:
    if args.degrees is not None:
        if args.n is not None or args.a is not None:
            raise UsageError("pass either --degrees or --n/--a, not both")
        return DegreeType(args.d, args.degrees)
    if args.n is None or args.a is None:
        raise UsageError("need --degrees, or both --n and --a")
    return DegreeType.constant(args.d, args.n, args.a)


def _add_degree_flags(parser, d_required=True):
    parser.add_argument("--d", type=int, required=d_required,
                        help="dimension parameter (forms live in d+1 variables)")
    parser.add_argument("--n", type=int, help="number of forms (with --a)")
    parser.add_argument("--a", type=int, help="common degree (with --n)")
    parser.add_argument("--degrees", type=_parse_degrees,
                        help="explicit degree list, e.g. 10,10,3")


def _add_output_flags(parser):
    parser.add_argument("--format", choices=("json", "tsv", "pretty"),
                        default="pretty", dest="fmt", help="output format")
    parser.add_argument("--out", help="write output to this path instead of stdout")
    parser.add_argument("--seed", type=int, help="random seed (echoed)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tcbounds",
        description="Generic degree bounds for homogeneous ideals: predicted "
        "Hilbert functions, tight/Frobenius/Koszul/semistable bounds, and "
        "finite-field verification experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_fro = sub.add_parser("froeberg", help="predicted Hilbert function and first zero")
    _add_degree_flags(p_fro)
    _add_output_flags(p_fro)
    p_fro.set_defaults(run=cmd_froeberg, name="froeberg")

    p_bounds = sub.add_parser("bounds", help="all degree bounds for one degree type")
    _add_degree_flags(p_bounds)
    p_bounds.add_argument("--ainv", type=int,
                          help="a-invariant of the target ring (enables the ideal bound)")
    _add_output_flags(p_bounds)
    p_bounds.set_defaults(run=cmd_bounds, name="bounds")

    p_table = sub.add_parser("table", help="bound table over a range of n at constant degree")
    p_table.add_argument("--d", type=int, required=True)
    p_table.add_argument("--a", type=int, required=True)
    p_table.add_argument("--n", type=_parse_n_values, required=True,
                         help="n values, e.g. 3..8,10,11")
    _add_output_flags(p_table)
    p_table.set_defaults(run=cmd_table, name="table")

    p_verify = sub.add_parser("verify", help="randomized verification experiments")
    vsub = p_verify.add_subparsers(dest="verify_command", required=True)

    p_hil = vsub.add_parser("hilbert", help="Hilbert functions of random ideals vs prediction")
    _add_degree_flags(p_hil, d_required=False)
    p_hil.add_argument("--p", type=int, help=f"prime field (default {DEFAULT_PRIME})")
    p_hil.add_argument("--trials", type=int)
    p_hil.add_argument("--ideal-file", dest="ideal_file",
                       help="check one explicit form system instead of random trials")
    _add_output_flags(p_hil)
    p_hil.set_defaults(run=cmd_verify_hilbert, name="verify hilbert")

    p_thc = vsub.add_parser("theorem-c", help="ideal inclusion at the bound degree")
    p_thc.add_argument("--fixture", required=True, choices=fixture_names())
    _add_degree_flags(p_thc, d_required=False)
    p_thc.add_argument("--p", type=int, help="prime override for the fixture")
    p_thc.add_argument("--redraws", type=int, default=8,
                       help="maximum random draws before reporting failure")
    _add_output_flags(p_thc)
    p_thc.set_defaults(run=cmd_verify_theorem_c, name="verify theorem-c")

    p_thb = vsub.add_parser("theorem-b", help="Frobenius-power membership at the bound degree")
    p_thb.add_argument("--fixture", required=True, choices=fixture_names())
    _add_degree_flags(p_thb, d_required=False)
    p_thb.add_argument("--p", type=int, help="prime override for the fixture")
    p_thb.add_argument("--qmax", type=int, help="largest Frobenius power to try (default p^4)")
    p_thb.add_argument("--ideal-file", dest="ideal_file",
                       help="test this explicit ideal instead of the default")
    _add_output_flags(p_thb)
    p_thb.set_defaults(run=cmd_verify_theorem_b, name="verify theorem-b")

    return parser


def _type_line(dt: DegreeType) -> str:
    return f"degree type: d={dt.d}, degrees={','.join(str(x) for x in dt.degrees)}"


def _refuse_with_ideal_file(args, *flags: str) -> None:
    given = [f"--{flag}" for flag in flags if getattr(args, flag) is not None]
    if given:
        raise UsageError(f"pass either --ideal-file or {'/'.join(given)}, not both")


def _read_system(path: str) -> FormSystem:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise PreconditionError(f"cannot read {path}: {exc}")
    return read_form_system(text)


def _seed(args) -> int:
    """--seed, 7 when not given (None marks it absent, so that
    --ideal-file can refuse an explicit one)."""
    return 7 if args.seed is None else args.seed


def _params(dt: DegreeType, args, **extra) -> dict:
    """The parameters every command echoes, plus its own."""
    return {"d": dt.d, "degrees": list(dt.degrees), "seed": _seed(args), **extra}


def _fixture(args):
    """The named ring; --d defaults to its dimension parameter."""
    fixture = make_fixture(args.fixture, p=args.p, d=args.d)
    if args.d is None:
        args.d = fixture.ring.krull_dimension - 1
    return fixture


# Each command returns (params, result, pretty lines, tsv rows, exit code).
# A tsv row is a list of cells, written as JSON literals so that the two
# formats hold the same numbers, or a raw "# ..." comment line.
Output = tuple[dict, dict, list[str], list, int]


def cmd_froeberg(args) -> Output:
    dt = _degree_type(args)
    m0 = smallest_zero(dt)
    cutoff = max(dt.total - dt.d, 0)
    series = froeberg_series(dt, cutoff)
    clipped = initial_segment(series)
    rows = [[m, series[m], clipped[m]] for m in range(cutoff + 1)]
    width = max(len(str(v)) for v in series) + 6
    lines = [_type_line(dt), f"{'m':>4} {'F(m)':>{width}} {'F+(m)':>{width}}"]
    lines += [f"{m:>4} {f:>{width}} {f_plus:>{width}}" for m, f, f_plus in rows]
    lines.append(f"m0 = {m0}")
    params = _params(dt, args)
    tsv = [f"# m0={m0}", ["m", "f", "f_plus"], *rows]
    return params, {"m0": m0, "rows": rows}, lines, tsv, EXIT_OK


_BOUND_KEYS = ("m0", "tight", "frobenius", "koszul", "semistable",
               "semistable_frobenius", "ideal")


def cmd_bounds(args) -> Output:
    dt = _degree_type(args)
    report = bound_report(dt, a_invariant=args.ainv)
    hypotheses = dict(report.notes)
    result = {key: getattr(report, key) for key in _BOUND_KEYS}
    result.update(a_invariant=report.a_invariant, hypotheses=hypotheses)
    shown = [[key, result[key]] for key in _BOUND_KEYS if result[key] is not None]
    labels = [{"semistable_frobenius": "semistable-improved"}.get(key, key) for key, _ in shown]
    name_w = max(len(label) for label in labels)
    val_w = max(len(str(value)) for _, value in shown)
    lines = [_type_line(dt)]
    for label, (key, value) in zip(labels, shown):
        note = hypotheses.get(key, "")
        lines.append(f"{label:<{name_w}}  {value:>{val_w}}" + (f"   ({note})" if note else ""))
    params = _params(dt, args, ainv=args.ainv)
    return params, result, lines, [["name", "value"], *shown], EXIT_OK


def cmd_table(args) -> Output:
    table = build_table(args.d, args.a, args.n)
    limits = dict(table.limits)
    result = {
        "d": table.d,
        "a": table.a,
        "n_values": list(table.n_values),
        "rows": {name: list(values) for name, values in table.rows},
        "limits": limits,
    }
    rows = [[name, *values, limits[name]] for name, values in table.rows]
    cells = [["bound"] + [f"n={n}" for n in table.n_values] + ["limit"]]
    cells += [[str(x) for x in row] for row in rows]
    widths = [max(len(row[i]) for row in cells) for i in range(len(cells[0]))]
    lines = [f"d={table.d}, a={table.a}"]
    lines += ["  ".join(cell.rjust(w) for cell, w in zip(row, widths)) for row in cells]
    params = {"d": args.d, "a": args.a, "n_values": list(args.n), "seed": _seed(args)}
    tsv = [["name", *(str(n) for n in table.n_values), "limit"], *rows]
    return params, result, lines, tsv, EXIT_OK


def _hilbert_single(args) -> Output:
    system = _read_system(args.ideal_file)
    dt = DegreeType(system.v - 1, system.degrees)
    table = hilbert_table(system)
    series = froeberg_series(dt, len(table.values) - 1)
    clipped = initial_segment(series)
    rows = [[m, h, f] for m, (h, f) in enumerate(zip(table.values, clipped))]
    violations = [{"m": m, "hilbert": h, "predicted": f} for m, h, f in rows if h < f]
    equality = list(table.values) == list(clipped)
    params = _params(dt, args, p=system.field.p, ideal_file=args.ideal_file)
    result = {
        "values": list(table.values),
        "first_zero": table.first_zero,
        "predicted": list(series),
        "predicted_clipped": list(clipped),
        "equality": equality,
        "violations": violations,
    }
    lines = [
        f"form system from {args.ideal_file}: p={system.field.p}, "
        f"degrees={','.join(str(x) for x in system.degrees)}",
        f"hilbert   {' '.join(str(v) for v in table.values)}",
        f"predicted {' '.join(str(v) for v in clipped)}",
        f"first zero: {table.first_zero}",
        f"equality: {str(equality).lower()}",
        f"violations: {len(violations)}",
    ]
    tsv = ["# single system", ["m", "hilbert", "predicted"], *rows]
    return params, result, lines, tsv, EXIT_FAIL if violations else EXIT_OK


def cmd_verify_hilbert(args) -> Output:
    prime = DEFAULT_PRIME if args.p is None else args.p
    if args.ideal_file is not None:
        _refuse_with_ideal_file(args, "d", "n", "a", "degrees", "p", "trials", "seed")
        return _hilbert_single(args)
    if args.d is None:
        raise UsageError("need --d (with --n/--a or --degrees), or --ideal-file")
    dt = _degree_type(args)
    trials = 20 if args.trials is None else args.trials
    report = froeberg_check(dt.d, dt.degrees, PrimeField(prime), trials, _seed(args))
    params = _params(dt, args, p=prime, trials=trials)
    result = {
        "window": report.window,
        "m0": report.m0,
        "predicted": list(report.predicted),
        "predicted_clipped": list(report.predicted_clipped),
        "equality_rate": report.equality_rate,
        "violations": [dict(v) for v in report.inequality_violations],
        "trials": [
            {
                "trial": r.trial,
                "first_zero": r.first_zero,
                "equality": r.equality,
                "values": list(r.values),
            }
            for r in report.results
        ],
    }
    lines = [
        f"{_type_line(dt)}; p={prime}, trials={trials}, seed={_seed(args)}",
        f"m0 = {report.m0}",
        f"equality_rate {report.equality_rate}",
        f"first zeros observed: {sorted({r.first_zero for r in report.results})}",
        f"inequality violations: {len(report.inequality_violations)}",
    ]
    tsv = [f"# equality_rate={json.dumps(report.equality_rate)}",
           ["trial", "first_zero", "equality"],
           *([r.trial, r.first_zero, r.equality] for r in report.results)]
    return params, result, lines, tsv, EXIT_FAIL if report.inequality_violations else EXIT_OK


def cmd_verify_theorem_c(args) -> Output:
    fixture = _fixture(args)
    dt = _degree_type(args)
    report = verify_theorem_c(
        fixture.ring, dt, fixture.a_invariant, _seed(args), max_redraws=args.redraws
    )
    params = _params(dt, args, fixture=fixture.name, p=fixture.ring.field.p,
                     redraws=args.redraws)
    result = {
        "fixture": fixture.name,
        "description": fixture.description,
        "p": report.p,
        "a_invariant": report.a_invariant,
        "bound": report.bound,
        "draws": report.draws,
        "basis_size": report.basis_size,
        "inclusion_degree": report.inclusion_degree,
        "deficit": report.deficit,
        "passed": report.passed,
        "system": write_form_system(report.system),
    }
    lines = [
        f"fixture {fixture.name}: {fixture.description}",
        _type_line(dt),
        f"inclusion degree bound: {report.bound} "
        f"(m0 + d + 1 + a-invariant, a-invariant = {report.a_invariant})",
        f"dim R_{report.bound} = {report.basis_size}; draws: {report.draws}",
        f"PASS (inclusion from degree {report.inclusion_degree})" if report.passed
        else f"FAIL (deficit {report.deficit} in degree {report.bound})",
    ]
    tsv = [["key", "value"]]
    tsv += [[key, result[key]] for key in
            ("bound", "draws", "basis_size", "inclusion_degree", "deficit", "passed")]
    return params, result, lines, tsv, EXIT_OK if report.passed else EXIT_FAIL


def cmd_verify_theorem_b(args) -> Output:
    fixture = _fixture(args)
    ring = fixture.ring
    ideal = None
    if args.ideal_file is not None:
        _refuse_with_ideal_file(args, "n", "a", "degrees", "seed")
        ideal = _read_system(args.ideal_file)
        dt = DegreeType(args.d, ideal.degrees)
    elif args.degrees is None and args.n is None and args.a is None:
        # default experiment: the parameter ideal of d+1 variables
        ideal = variables_ideal(ring, ring.krull_dimension)
        dt = DegreeType(args.d, (1,) * ring.krull_dimension)
    else:
        dt = _degree_type(args)
    report = verify_theorem_b(ring, dt, q_max=args.qmax, seed=_seed(args), ideal=ideal)
    params = _params(dt, args, fixture=fixture.name, p=ring.field.p, qmax=report.q_max,
                     ideal_file=args.ideal_file)
    result = {
        "fixture": fixture.name,
        "description": fixture.description,
        "p": report.p,
        "bound": report.bound,
        "q_max": report.q_max,
        "q_list": list(report.q_list),
        "elements": [[list(exps), q] for exps, q in report.elements],
        "all_resolved": report.all_resolved,
        "note": report.note,
        "ideal": write_form_system(report.ideal),
    }
    resolved = [q for _, q in report.elements if q is not None]
    status = (
        f"all {len(report.elements)} basis elements resolved "
        f"(largest q needed: {max(resolved) if resolved else None})"
        if report.all_resolved
        else f"{len(report.elements) - len(resolved)} of {len(report.elements)} "
        f"elements unresolved at q_max={report.q_max}"
    )
    lines = [
        f"fixture {fixture.name}: {fixture.description}",
        _type_line(dt),
        f"bound degree: {report.bound} (m0 + d + 1); q tried: {list(report.q_list)}",
        status,
        f"note: {report.note}",
    ]
    tsv = [["element", "resolved_q"]]
    tsv += [[",".join(str(e) for e in exps), q] for exps, q in report.elements]
    return params, result, lines, tsv, EXIT_OK


def _render(args, params: dict, result: dict, lines: list[str], rows: list) -> str:
    if args.fmt == "json":
        payload = {"schema": 1, "command": args.name, "params": params, "result": result}
        return json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    if args.fmt == "tsv":
        lines = [row if isinstance(row, str) else "\t".join(json.dumps(x) for x in row)
                 for row in rows]
    return "\n".join(lines) + "\n"


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        params, result, lines, rows, code = args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION
    text = _render(args, params, result, lines, rows)
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            print(f"error: cannot write {args.out}: {exc}", file=sys.stderr)
            return EXIT_PRECONDITION
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
