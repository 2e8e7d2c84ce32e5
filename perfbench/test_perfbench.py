"""Tests of the benchmark itself: the reference arithmetic agrees with
tcbounds where both apply, every check passes on true outputs and fires
when one value is corrupted, and tracing counts what it should.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import dataclasses
import json
import os
import random
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import refmath  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from tcbounds import arith, bounds, fixtures, froeberg, macaulay, quotient  # noqa: E402
from tcbounds.arith import PrimeField, SplitMix64, fp_rank  # noqa: E402
from tcbounds.froeberg import DegreeType  # noqa: E402

# ------------------------------------------------------------ reference


def _random_matrix(rng, rows, cols, rank, p):
    left = [[rng.randrange(p) for _ in range(rank)] for _ in range(rows)]
    right = [[rng.randrange(p) for _ in range(cols)] for _ in range(rank)]
    return [[sum(a * b for a, b in zip(row, col)) % p for col in zip(*right)] for row in left]


@pytest.mark.parametrize("p", [2, 3, 32003])
def test_reference_rank_matches_fp_rank(p):
    rng = random.Random(p)
    for _ in range(60):
        rows, cols = rng.randint(1, 40), rng.randint(1, 40)
        if rng.random() < 0.5:
            matrix = [[rng.randrange(p) for _ in range(cols)] for _ in range(rows)]
        else:  # rank-deficient by construction
            matrix = _random_matrix(rng, rows, cols, rng.randint(0, min(rows, cols) - 1), p)
        assert refmath.rank_mod_p(matrix, p) == fp_rank(np.array(matrix, dtype=np.int64), p)


def test_reference_rank_structured_cases():
    p = 32003
    assert refmath.rank_mod_p([[0] * 5] * 4, p) == 0
    assert refmath.rank_mod_p([[1, 2, 3], [2, 4, 6], [3, 6, 9]], p) == 1
    assert refmath.rank_mod_p([[1, 1], [1, 1 + p]], p) == 1
    # a large prime forces the per-row reduction before fields overflow
    big = 2147483647
    rng = random.Random(5)
    matrix = _random_matrix(rng, 30, 30, 17, big)
    assert refmath.rank_mod_p(matrix, big) == 17


def test_reference_macaulay_rank_matches_hilbert_values():
    rep = macaulay.froeberg_check(2, (10,) * 6, 32003, trials=1, seed=3)
    system = macaulay.random_form_system(3, (10,) * 6, PrimeField(32003), SplitMix64(3))
    forms = [(f.degree, dict(f.terms)) for f in system.forms]
    for m in range(10, 17):
        rank = refmath.macaulay_rank(forms, 3, m, 32003)
        assert rep.results[0].values[m] == (m + 2) * (m + 1) // 2 - rank


def test_reference_froeberg_matches_package():
    rng = random.Random(11)
    for _ in range(100):
        d = rng.randint(1, 4)
        degrees = tuple(rng.randint(1, 9) for _ in range(rng.randint(d + 1, d + 4)))
        dt = DegreeType(d, degrees)
        assert refmath.m0_scan(d, degrees) == froeberg.smallest_zero(dt)
        for m in range(0, sum(degrees)):
            assert refmath.froeberg_F(d, degrees, m) == froeberg.froeberg_value(dt, m)


def test_closed_forms_match_the_scan():
    cases = [(d, (a,) * (d + 2)) for d in range(1, 7) for a in range(1, 51)]
    cases += [(1, (a,) * n) for n in range(2, 31) for a in range(1, 51)]
    cases += [(2, (a,) * n) for n in range(3, 31) for a in range(1, 41)]
    cases += [(3, (4, 7, 9, 2)), (4, (1, 2, 3, 4, 30))]
    for d, degrees in cases:
        assert refmath.m0_closed_form(d, degrees) == refmath.m0_scan(d, degrees), (d, degrees)
    assert refmath.m0_closed_form(2, (10000,) * 10) == froeberg.closed_form_dim2(10, 10000)
    assert refmath.m0_closed_form(3, (5,) * 7) is None


def test_hilbert_ci_is_the_complete_intersection():
    # P/(x^2, y^2, z^3) has Hilbert series (1+t)^2 (1+t+t^2)
    assert [refmath.hilbert_ci(3, (2, 2, 3), m) for m in range(7)] == [1, 3, 4, 3, 1, 0, 0]


# ---------------------------------------------------------------- checks


def _trial(d, degrees, seed):
    rep = macaulay.froeberg_check(d, degrees, 32003, trials=1, seed=seed)
    system = macaulay.random_form_system(d + 1, degrees, PrimeField(32003), SplitMix64(seed))
    forms = [(f.degree, dict(f.terms)) for f in system.forms]
    return list(rep.results[0].values), rep.m0, list(rep.predicted_clipped), forms


def test_check_trial_fires_on_each_corruption():
    d, degrees = 2, (10,) * 6
    values, m0, clipped, forms = _trial(d, degrees, 21)

    def problems(values=values, m0=m0, clipped=clipped, top=10**9):
        return workloads.check_trial(d, degrees, values, m0, clipped, forms, 32003, top)

    assert problems() == []
    lowered = values[:]
    lowered[15] -= 1  # below F+(15)
    assert any("< F+" in s for s in problems(values=lowered))
    raised = values[:]
    raised[13] += 1  # still above F+, caught by the reference rank only
    assert any("reference rank" in s for s in problems(values=raised))
    assert problems(values=raised, top=12) == []
    below = values[:]
    below[4] += 1
    assert any("below the smallest degree" in s for s in problems(values=below))
    tail = values[:]
    tail[-1] = 1
    assert any("after its first zero" in s for s in problems(values=tail))
    assert any("m0" in s for s in problems(m0=m0 + 1))
    bad_clip = clipped[:]
    bad_clip[12] += 1
    assert any("F+" in s for s in problems(clipped=bad_clip))
    assert problems(values=values[:-1])


def _scan(p, q_list):
    ring = fixtures.make_fixture("fermat-cubic", p=p).ring
    w = workloads.WitnessScan(1)
    witnesses = w._witnesses(p, random.Random(p))
    f = workloads._monomial((0, 0, 2))
    rep = quotient.tight_witness_scan(ring, fixtures.variables_ideal(ring, 2), f,
                                      witnesses=witnesses, q_list=q_list)
    degrees = sorted({u.degree + q * 2 for u in witnesses for q in q_list})
    dims = {m: quotient.ring_dimension_at(ring, m) for m in degrees}
    return [u.degree for u in witnesses], rep, dims


@pytest.mark.parametrize("p", [5, 7])
def test_check_scan_fires_on_each_corruption(p):
    wdeg, rep, dims = _scan(p, (p,))
    verdicts = [list(row) for row in rep.verdicts]

    def problems(verdicts=verdicts, passing=rep.passing, dims=dims):
        return workloads.check_scan(p, (p,), wdeg, 2, verdicts, passing, dims)

    def with_verdict(i, **changes):
        out = [row[:] for row in verdicts]
        out[i][0] = dataclasses.replace(out[i][0], **changes)
        return out

    assert problems() == []
    v = verdicts[1][0]
    assert any("rank" in s for s in problems(verdicts=with_verdict(1, rank_without=v.rank_without + 1)))
    assert any("degree" in s for s in problems(verdicts=with_verdict(1, degree=v.degree + 1)))
    flipped = with_verdict(2, contained=False, rank_with=v.rank_without + 1)
    assert any("contained" in s for s in problems(verdicts=flipped))
    one = verdicts[0][0]
    flipped_one = with_verdict(0, contained=not one.contained,
                               rank_with=one.rank_without + (1 if one.contained else 0))
    assert any("contained" in s for s in problems(verdicts=flipped_one))
    assert any("rank_with" in s for s in problems(verdicts=with_verdict(3, rank_with=v.rank_without + 1)))
    assert any("passing" in s for s in problems(passing=tuple(rep.passing)[1:]))
    bad_dims = dict(dims)
    bad_dims[min(dims)] += 1
    assert any("dim R_" in s for s in problems(dims=bad_dims))


def test_check_report_fires_on_each_corruption():
    for d, degrees, ainv in [(2, (7,) * 5, 1), (1, (5, 5, 5), None), (3, (4, 4, 3, 2, 2, 2), -2)]:
        got = workloads.report_values(bounds.bound_report(DegreeType(d, degrees), ainv))
        assert workloads.check_report(d, degrees, ainv, got) == []
        for key, value in got.items():
            if value is None:
                continue
            bad = dict(got, **{key: value + 1})
            assert workloads.check_report(d, degrees, ainv, bad), key


def test_check_table_fires_on_each_corruption():
    n_values = (4, 5, 7, 9)
    table = bounds.build_table(2, 10, n_values)
    rows, limits = dict(table.rows), dict(table.limits)
    assert workloads.check_table(2, 10, n_values, rows, limits) == []
    for name in rows:
        bad = dict(rows, **{name: rows[name][:-1] + (rows[name][-1] + 1,)})
        assert workloads.check_table(2, 10, n_values, bad, limits), name
        assert workloads.check_table(2, 10, n_values, rows, dict(limits, **{name: limits[name] - 1})), name


def _cli_outputs(argv):
    return {fmt: workloads.Bounds._cli(argv + ["--format", fmt.rstrip("2")])
            for fmt in ("json", "json2", "tsv", "pretty")}


@pytest.mark.parametrize("kind", ["bounds", "table", "froeberg"])
def test_check_cli_fires_on_each_corruption(kind):
    spec = {"d": 2, "n": 5, "a": 6, "ainv": 1, "n_values": (3, 4, 5, 6, 7)}
    argv = {
        "bounds": ["bounds", "--d", "2", "--n", "5", "--a", "6", "--ainv", "1"],
        "table": ["table", "--d", "2", "--a", "6", "--n", "3..7"],
        "froeberg": ["froeberg", "--d", "2", "--n", "5", "--a", "6"],
    }[kind]
    outputs = _cli_outputs(argv)
    assert workloads.check_cli(kind, spec, outputs) == []

    def corrupt(fmt, text):
        return workloads.check_cli(kind, spec, dict(outputs, **{fmt: (0, text)}))

    payload = json.loads(outputs["json"][1])
    result = payload["result"]
    if kind == "bounds":
        result["m0"] += 1
    elif kind == "table":
        result["rows"]["generic"][0] += 1
    else:
        result["rows"][3][1] += 1
    bad_json = json.dumps(payload, sort_keys=True, separators=(",", ":")) + "\n"
    assert workloads.check_cli(kind, spec, dict(outputs, json=(0, bad_json), json2=(0, bad_json)))
    assert corrupt("json2", outputs["json"][1].replace(",", ", ", 1))
    lines = outputs["tsv"][1].splitlines()
    lines[-1] = lines[-1][:-1] + str((int(lines[-1][-1]) + 1) % 10)
    assert corrupt("tsv", "\n".join(lines) + "\n")
    assert corrupt("pretty", outputs["pretty"][1].replace("m0", "mO").replace("bound", "bnd").splitlines()[0])
    assert workloads.check_cli(kind, spec, dict(outputs, tsv=(2, "")))


# --------------------------------------------------------------- tracing


def test_tracer_counts_and_restores():
    original_rank = macaulay.fp_rank
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        assert macaulay.fp_rank is not original_rank
        assert arith.fp_rank is macaulay.fp_rank
        tracer.recording = True
        rep = macaulay.froeberg_check(2, (3, 3, 3, 3), 32003, trials=1, seed=1)
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert macaulay.fp_rank is original_rank and arith.fp_rank is original_rank
    first_zero = rep.results[0].first_zero
    # hilbert_value ranks only from the smallest degree on
    assert tracer.counts["macaulay.hilbert_value_calls"] == first_zero + 1
    assert tracer.calls["arith.rank"] == first_zero + 1 - 3
    cells = sum((m + 2) * (m + 1) // 2 * 4 * (m - 1) * (m - 2) // 2 for m in range(3, first_zero + 1))
    assert tracer.counts["arith.rank_cells"] == cells == tracer.counts["macaulay.build_cells"]
    top = tracer.incl_s["macaulay.check"]
    assert sum(tracer.self_s.values()) == pytest.approx(top, rel=1e-9)


def test_tracer_relation_cache_hits_and_stacked_rows():
    tracer = spans.Tracer()
    spans.install(tracer)
    try:
        ring = fixtures.make_fixture("fermat-cubic", p=5).ring
        tracer.recording = True
        f = workloads._monomial((0, 0, 2))
        quotient.tight_witness_scan(ring, fixtures.variables_ideal(ring, 2), f, q_list=(5,))
        misses = tracer.counts["quotient.relation_misses"]
        quotient.tight_witness_scan(ring, fixtures.variables_ideal(ring, 2), f, q_list=(5,))
        tracer.recording = False
    finally:
        tracer.uninstall()
    assert misses == 3 and tracer.counts["quotient.relation_hits"] == 3
    assert tracer.calls["arith.echelon"] == 3 + 2 * 3
    # stacked rows: J's reduced rows plus 2 * C(m - 5 + 2, 2) products, m = 10, 11, 12
    j_rank = {m: (m + 2) * (m + 1) // 2 - 3 * m for m in (10, 11, 12)}
    stacked = sum(j_rank[m] + 2 * (m - 3) * (m - 4) // 2 for m in (10, 11, 12))
    assert tracer.counts["quotient.stacked_rows"] == 2 * stacked


# ------------------------------------------------------------ the command


def test_run_without_sources_fails_without_result(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "bounds", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=env)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_run_prints_the_declared_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", "bounds", "--seed", "3",
             "--seconds", "0.5", "--trace", str(trace)],
            capture_output=True, text=True, timeout=170)
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        declared = {m["name"]: m["unit"] for m in spec[key]}
        assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
        if trace == 0:
            assert all(v["value"] > 0 for v in result["metrics"].values())
