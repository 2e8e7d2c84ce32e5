"""The benchmark's workloads: seeded inputs, timed operations, checks.

A workload runs in rounds.  `prepare(r)` builds round r's inputs, `run(r)`
performs its operations (the only timed part) and `check(r)` compares
every output with `refmath` or with a property the method must have.
Each round of a workload performs the same operations on fresh inputs
drawn from the seed and the round number, so a cache kept between calls
can never answer a later round from an earlier one.

The check functions are module-level so that the benchmark's tests can
hand them corrupted values and see them fire.  Each returns a list of
problems, empty when the output is right.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import sys
import time
import traceback

import refmath
from tcbounds import bounds, cli, fixtures, macaulay, quotient
from tcbounds.arith import PrimeField, SplitMix64
from tcbounds.froeberg import DegreeType
from tcbounds.macaulay import Form, FormSystem

P = 32003
_clock = time.perf_counter


# ---------------------------------------------------------------- checks


def check_trial(d, degrees, values, m0, predicted_clipped, forms, p, ref_top):
    """One froeberg_check trial: H(0..window) against the prediction.

    H(m) >= F+(m) for every m, H(m) = C(m+d, d) below the smallest degree,
    zeros after the first zero, the report's m0 and clipped prediction equal
    to this benchmark's own, and H(m) = C(m+d, d) - rank for the reference
    rank of the products at every m <= ref_top up to the first zero, and
    never past m0: a wrong H(m0) shows there, and elimination in pure Python
    beyond m0 could take longer than the run.
    """
    problems = []
    window = sum(degrees) - d
    fplus = refmath.froeberg_plus(d, degrees, window)
    if len(values) != window + 1:
        return [f"{len(values)} Hilbert values, expected {window + 1}"]
    if list(predicted_clipped) != fplus:
        problems.append("reported F+ differs from the reference F+")
    # F has a zero only when n >= d+1; otherwise the reference runs to the window
    m0_ref = refmath.m0_scan(d, degrees) if len(degrees) >= d + 1 else window
    if len(degrees) >= d + 1 and m0 != m0_ref:
        problems.append(f"reported m0 {m0} != reference {m0_ref}")
    for m, (h, f) in enumerate(zip(values, fplus)):
        if h < f:
            problems.append(f"H({m}) = {h} < F+({m}) = {f}")
        if m < min(degrees) and h != math.comb(m + d, d):
            problems.append(f"H({m}) = {h} != C({m + d},{d}) below the smallest degree")
    zero = values.index(0) if 0 in values else None
    if zero is not None and any(values[zero:]):
        problems.append(f"H nonzero after its first zero at {zero}")
    top = min(ref_top, m0_ref, window if zero is None else zero)
    for m in range(min(degrees), top + 1):
        expect = math.comb(m + d, d) - refmath.macaulay_rank(forms, d + 1, m, p)
        if values[m] != expect:
            problems.append(f"H({m}) = {values[m]}, reference rank gives {expect}")
    return problems


def check_scan(p, q_list, witness_degrees, f_degree, verdicts, passing, ring_dims):
    """One tight_witness_scan of a quadric against two variables of the
    Fermat cubic x^3+y^3+z^3.

    In degree m = deg u + q deg f the ideal tested is (I^[q] + J)_m with
    I^[q] + J a complete intersection of degrees (q, q, 3), so rank_without
    is dim P_m minus its Hilbert function; dim R_m = 3m.  The test ideal of
    the cubic cone is the maximal ideal, so every witness of degree >= 1
    passes; the witness 1 passes exactly when p = 2 (mod 3), since the
    cubic is F-pure exactly when p = 1 (mod 3).
    """
    problems = []
    if len(verdicts) != len(witness_degrees):
        return [f"{len(verdicts)} verdict rows for {len(witness_degrees)} witnesses"]
    for i, (deg_u, row) in enumerate(zip(witness_degrees, verdicts)):
        if len(row) != len(q_list):
            problems.append(f"witness {i}: {len(row)} verdicts for {len(q_list)} q")
            continue
        for q, v in zip(q_list, row):
            m = deg_u + q * f_degree
            want = math.comb(m + 2, 2) - refmath.hilbert_ci(3, (q, q, 3), m)
            if v.degree != m:
                problems.append(f"witness {i}, q={q}: degree {v.degree} != {m}")
            if v.rank_without != want:
                problems.append(f"witness {i}, q={q}: rank {v.rank_without} != {want}")
            if v.rank_with != v.rank_without + (0 if v.contained else 1):
                problems.append(f"witness {i}, q={q}: rank_with inconsistent")
            expect_in = deg_u >= 1 or p % 3 == 2
            if v.contained != expect_in:
                problems.append(f"witness {i} (degree {deg_u}), p={p}, q={q}: contained={v.contained}")
    want_passing = tuple(i for i, row in enumerate(verdicts) if all(v.contained for v in row))
    if tuple(passing) != want_passing:
        problems.append(f"passing {tuple(passing)} != {want_passing}")
    for m, dim in ring_dims.items():
        if dim != 3 * m:
            problems.append(f"dim R_{m} = {dim} != {3 * m}")
    return problems


def expected_bounds(d, degrees, ainv):
    """Every value bound_report gives, from this benchmark's own formulas."""
    degrees = tuple(sorted(degrees, reverse=True))
    n, total = len(degrees), sum(degrees)
    m0 = refmath.m0_scan(d, degrees)
    const_odd3 = d == 1 and n == 3 and len(set(degrees)) == 1 and degrees[0] % 2 == 1
    return {
        "m0": m0,
        "tight": m0 + d,
        "frobenius": m0 + d + 1,
        "koszul": sum(degrees[: d + 1]),
        "semistable": -(-d * total // (n - 1)),
        "ideal": None if ainv is None else m0 + d + 1 + ainv,
        "semistable_frobenius": (3 * degrees[0] + 1) // 2 if const_odd3 else None,
    }


def check_report(d, degrees, ainv, got):
    """got: the bound values by name (from a BoundReport or the CLI JSON)."""
    problems = []
    want = expected_bounds(d, degrees, ainv)
    closed = refmath.m0_closed_form(d, degrees)
    if closed is not None and got["m0"] != closed:
        problems.append(f"{d} {degrees}: m0 {got['m0']} != closed form {closed}")
    for key, value in want.items():
        if got[key] != value:
            problems.append(f"{d} {degrees} ainv={ainv}: {key} {got[key]} != {value}")
    return problems


def report_values(report):
    return {
        key: getattr(report, key)
        for key in ("m0", "tight", "frobenius", "koszul", "semistable", "ideal", "semistable_frobenius")
    }


def check_table(d, a, n_values, rows, limits):
    """rows/limits: name -> values, as build_table or the CLI JSON gives them."""
    problems = []
    want_rows = {
        "koszul": [(d + 1) * a for _ in n_values],
        "semistable": [-(-d * n * a // (n - 1)) for n in n_values],
        "generic": [refmath.m0_scan(d, (a,) * n) + d for n in n_values],
    }
    want_limits = {"koszul": (d + 1) * a, "semistable": d * a + 1, "generic": a + d}
    for name, values in want_rows.items():
        if list(rows.get(name, ())) != values:
            problems.append(f"table d={d} a={a}: row {name} {rows.get(name)} != {values}")
    if dict(limits) != want_limits:
        problems.append(f"table d={d} a={a}: limits {dict(limits)} != {want_limits}")
    return problems


def check_froeberg_rows(d, degrees, m0, rows):
    """The CLI's froeberg rows [m, F(m), F+(m)] against the reference."""
    top = sum(degrees) - d
    fplus = refmath.froeberg_plus(d, degrees, top)
    want = [[m, refmath.froeberg_F(d, degrees, m), fplus[m]] for m in range(top + 1)]
    problems = []
    if rows != want:
        problems.append(f"froeberg {d} {degrees}: rows differ from the reference")
    if m0 != refmath.m0_scan(d, degrees):
        problems.append(f"froeberg {d} {degrees}: m0 {m0} != {refmath.m0_scan(d, degrees)}")
    return problems


def check_cli(kind, spec, outputs):
    """outputs: fmt -> (exit code, text) for one CLI command, the JSON
    format run twice ('json', 'json2').  spec holds the parameters."""
    problems = [f"{kind} --format {fmt}: exit {code}" for fmt, (code, _) in outputs.items() if code]
    if problems:
        return problems
    text = outputs["json"][1]
    if text != outputs["json2"][1]:
        problems.append(f"{kind}: JSON output differs between two identical calls")
    try:
        result = json.loads(text)["result"]
    except (ValueError, KeyError) as exc:
        return problems + [f"{kind}: JSON does not parse: {exc}"]
    d, a, n = spec["d"], spec["a"], spec["n"]
    tsv = [line.split("\t") for line in outputs["tsv"][1].splitlines() if not line.startswith("#")]
    pretty = outputs["pretty"][1]
    if kind == "bounds":
        library = report_values(bounds.bound_report(DegreeType.constant(d, n, a), spec["ainv"]))
        got = {key: result.get(key) for key in library}
        if got != library:
            problems.append(f"bounds JSON {got} != library {library}")
        problems += check_report(d, (a,) * n, spec["ainv"], got)
        table = {json.loads(row[0]): json.loads(row[1]) for row in tsv[1:]}
        if table != {k: v for k, v in got.items() if v is not None}:
            problems.append("bounds TSV differs from the JSON")
        if ["m0", str(got["m0"])] not in [line.split()[:2] for line in pretty.splitlines()]:
            problems.append("bounds pretty output has no m0 line")
    elif kind == "table":
        n_values = spec["n_values"]
        library = bounds.build_table(d, a, n_values)
        if result["rows"] != {k: list(v) for k, v in library.rows} or result["limits"] != dict(library.limits):
            problems.append("table JSON differs from the library")
        problems += check_table(d, a, n_values, result["rows"], result["limits"])
        tsv_rows = {json.loads(row[0]): [json.loads(x) for x in row[1:]] for row in tsv[1:]}
        json_rows = {k: v + [result["limits"][k]] for k, v in result["rows"].items()}
        if tsv_rows != json_rows:
            problems.append("table TSV differs from the JSON")
        if len(pretty.splitlines()) != 5:
            problems.append("table pretty output has the wrong number of lines")
    else:
        problems += check_froeberg_rows(d, (a,) * n, result["m0"], result["rows"])
        if [[json.loads(x) for x in row] for row in tsv[1:]] != result["rows"]:
            problems.append("froeberg TSV differs from the JSON")
        if f"m0 = {result['m0']}" not in pretty:
            problems.append("froeberg pretty output has no m0 line")
    return problems


# ------------------------------------------------------------- workloads


class Workload:
    """Shared bookkeeping: per-operation seconds, attempts, failures and
    check problems."""

    name = ""

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.op_seconds: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.info: dict = {}

    def op(self, fn, *args, **kwargs):
        """Run one timed operation; a raising operation counts as failed."""
        self.attempted += 1
        t0 = _clock()
        try:
            out = fn(*args, **kwargs)
        except Exception:
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return None
        self.op_seconds.append(_clock() - t0)
        return out

    def expect(self, problems) -> None:
        for problem in problems:
            print(f"[{self.name}] check failed: {problem}", file=sys.stderr)
        self.problems.extend(problems)


class HilbertLarge(Workload):
    """Seeded froeberg_check trials at (d, n, a) = (3, 6, 10), one trial per
    call (trials=1) and one per round.  The reference re-ranks every trial
    up to degree REF_TOP: about 0.45 s against a 3.5 s trial."""

    name = "hilbert-large"
    D, DEGREES = 3, (10,) * 6
    REF_TOP = 14

    def __init__(self, seed):
        super().__init__(seed)
        self.field = PrimeField(P)

    def prepare(self, r):
        self.trial_seed = self.seed * 1_000_000 + r

    def warm(self):
        macaulay.froeberg_check(1, (2, 2, 2), self.field, trials=1, seed=self.seed)

    def run(self, r):
        self.report = self.op(macaulay.froeberg_check, self.D, self.DEGREES, self.field,
                              trials=1, seed=self.trial_seed)

    def check(self, r):
        rep, d, degrees = self.report, self.D, self.DEGREES
        if rep is None:
            return
        system = macaulay.random_form_system(d + 1, degrees, self.field, SplitMix64(self.trial_seed))
        forms = [(f.degree, dict(f.terms)) for f in system.forms]
        res = rep.results[0]
        self.expect(check_trial(d, degrees, list(res.values), rep.m0,
                                rep.predicted_clipped, forms, P, self.REF_TOP))
        key = f"equality {d},{len(degrees)},{degrees[0]}"
        hits, total = self.info.get(key, (0, 0))
        self.info[key] = (hits + res.equality, total + 1)


_PRIMES = (5, 7, 11, 13, 17)
_REPEATS = {13: 5}  # scans of q = (p,) per round, where not 1


def _monomial(exps):
    return Form.make(3, sum(exps), {exps: 1})


class WitnessScan(Workload):
    """tight_witness_scan on the Fermat cubic: z^2 against (x, y) with
    q = (p,) for p in 5..17, and criterion 7's q = (5, 25), followed there
    by x^2 against (y, z) on the same ring, whose relation echelons then
    come from the ring's cache.  Eleven scans a round: three cheaper than
    the p = 13 scan, three dearer, and the p = 13 scan five times with
    other witnesses, each on a fresh ring so that none is served from the
    cache.  The median scan of a run is thus the median of all its p = 13
    scans, not of the three or four a run has of any one kind."""

    name = "witness-scan"

    def _witnesses(self, p, rng):
        out = [_monomial((0, 0, 0))]
        for deg, count in ((1, 3), (2, 6)):
            for _ in range(count):
                coeffs = {}
                while not coeffs:
                    coeffs = {e: c for e in refmath.monomials(3, deg) if (c := rng.randrange(p))}
                out.append(Form.make(3, deg, coeffs))
        return tuple(out)

    def prepare(self, r):
        self.scans = []
        kinds = [(p, (p,), k) for p in _PRIMES for k in range(_REPEATS.get(p, 1))]
        for p, q_list, k in kinds + [(5, (5, 25), 0)]:
            ring = fixtures.make_fixture("fermat-cubic", p=p).ring
            rng = random.Random(f"witness:{self.seed}:{r}:{p}:{q_list}:{k}")
            witnesses = self._witnesses(p, rng)
            self.scans.append((ring, fixtures.variables_ideal(ring, 2), _monomial((0, 0, 2)),
                               witnesses, q_list))
        ring, _, _, witnesses, q_list = self.scans[-1]
        yz = FormSystem(field=ring.field, v=3, forms=(_monomial((0, 1, 0)), _monomial((0, 0, 1))))
        self.scans.append((ring, yz, _monomial((2, 0, 0)), witnesses, q_list))

    def warm(self):
        ring = fixtures.make_fixture("fermat-cubic", p=5).ring
        quotient.tight_witness_scan(ring, fixtures.variables_ideal(ring, 2),
                                    _monomial((0, 0, 2)), q_list=(5,))

    def run(self, r):
        self.reports = [
            self.op(quotient.tight_witness_scan, ring, ideal, f, witnesses=w, q_list=q)
            for ring, ideal, f, w, q in self.scans
        ]

    def check(self, r):
        for (ring, _, f, witnesses, q_list), rep in zip(self.scans, self.reports):
            if rep is None:
                continue
            degrees = sorted({u.degree + q * f.degree for u in witnesses for q in q_list})
            dims = {m: quotient.ring_dimension_at(ring, m) for m in degrees}
            self.expect(check_scan(ring.field.p, q_list, [u.degree for u in witnesses],
                                   f.degree, rep.verdicts, rep.passing, dims))
        self.scans = self.reports = None


def _degree_types(rng):
    """One round's sweep: 24 each of parameter, almost-parameter, d = 1,
    d = 2 and mixed d >= 3 types, as (d, degrees, ainv).  The shapes (d
    and n) cycle in a fixed order and only the degrees are drawn, so every
    round costs about the same."""
    out = []
    for i in range(24):
        d = 1 + i % 4
        out.append((d, tuple(rng.randint(1, 30) for _ in range(d + 1)), None))
        d = 1 + i % 5
        out.append((d, (rng.randint(1, 40),) * (d + 2), rng.randint(-5, 5)))
        out.append((1, (rng.randint(1, 60),) * (3 + i % 18), None))
        out.append((2, (rng.randint(1, 40),) * (4 + i % 17), rng.randint(-5, 5)))
        d = 3 + i % 2
        out.append((d, tuple(rng.randint(1, 12) for _ in range(d + 3 + (i // 2) % 4)), None))
    return out


class Bounds(Workload):
    """Pure integer work: bound_report over a seeded sweep of degree types
    (one of them at a ~ 10^4, where smallest_zero scans thousands of F
    values), build_table, and in-process cli.main calls in every format.
    An operation is one call: a report, a table or a CLI run."""

    name = "bounds"

    def prepare(self, r):
        rng = random.Random(f"bounds:{self.seed}:{r}")
        self.types = _degree_types(rng) + [(2, (rng.randint(9500, 10000),) * 10, None)]
        self.degree_types = [DegreeType(d, degrees) for d, degrees, _ in self.types]
        self.tables = []
        for _ in range(2):
            d = rng.randint(1, 3)
            self.tables.append((d, rng.randint(2, 20), tuple(sorted(rng.sample(range(d + 1, d + 13), 6)))))
        d = rng.randint(1, 3)
        n, a = rng.randint(d + 1, d + 6), rng.randint(2, 15)
        lo = rng.randint(d + 1, d + 4)
        self.cli_spec = {"d": d, "n": n, "a": a, "ainv": rng.randint(-4, 4),
                         "n_values": tuple(range(lo, lo + 5))}
        deg_flags = ["--d", str(d), "--n", str(n), "--a", str(a)]
        self.cli_argv = {
            "bounds": ["bounds", *deg_flags, "--ainv", str(self.cli_spec["ainv"])],
            "table": ["table", "--d", str(d), "--a", str(a), "--n", f"{lo}..{lo + 4}"],
            "froeberg": ["froeberg", *deg_flags],
        }

    def warm(self):
        bounds.bound_report(DegreeType.constant(2, 4, 3), 0)
        self._cli(["bounds", "--d", "1", "--n", "3", "--a", "5", "--format", "json"])

    @staticmethod
    def _cli(argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        return code, out.getvalue()

    def run(self, r):
        self.reports = [
            self.op(bounds.bound_report, dt, a_invariant=ainv)
            for dt, (_, _, ainv) in zip(self.degree_types, self.types)
        ]
        self.table_out = [self.op(bounds.build_table, d, a, n_values) for d, a, n_values in self.tables]
        self.cli_out = {}
        for kind, argv in self.cli_argv.items():
            self.cli_out[kind] = {
                fmt: self.op(self._cli, argv + ["--format", fmt.rstrip("2")])
                for fmt in ("json", "json2", "tsv", "pretty")
            }

    def check(self, r):
        for (d, degrees, ainv), rep in zip(self.types, self.reports):
            if rep is not None:
                self.expect(check_report(d, degrees, ainv, report_values(rep)))
        for (d, a, n_values), table in zip(self.tables, self.table_out):
            if table is not None:
                self.expect(check_table(d, a, n_values, dict(table.rows), dict(table.limits)))
        for kind, outputs in self.cli_out.items():
            if all(v is not None for v in outputs.values()):
                self.expect(check_cli(kind, self.cli_spec, outputs))


WORKLOADS = {w.name: w for w in (HilbertLarge, WitnessScan, Bounds)}
