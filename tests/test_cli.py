import importlib.util
import json
import os
import re
import shlex
import shutil
import subprocess
import sys
import time
import venv
from pathlib import Path

import pytest

from tcbounds import cli, quotient


@pytest.fixture
def installed_console_script(tmp_path, monkeypatch):
    """Install the package into a throwaway venv and put its `bin` first on PATH.

    Uses the README's offline route, `python setup.py develop`, on a copy of
    the tree, so nothing is written into the working tree.  `--no-deps` keeps
    the install away from any package index: a .pth file gives the venv the
    numpy and setuptools of the interpreter running pytest, which
    `system_site_packages` alone misses when pytest itself runs in a venv.
    PYTHONPATH is dropped so the script must import the installed package.
    """
    root = Path(__file__).resolve().parents[1]
    tree = tmp_path / "tree"
    shutil.copytree(root / "src", tree / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    for name in ("pyproject.toml", "setup.py"):
        shutil.copy(root / name, tree / name)

    env_dir = tmp_path / "venv"
    venv.create(env_dir, system_site_packages=True, with_pip=False)
    python = env_dir / "bin" / "python"
    monkeypatch.delenv("PYTHONPATH", raising=False)
    purelib = subprocess.run(
        [python, "-c", "import sysconfig; print(sysconfig.get_path('purelib'))"],
        capture_output=True, text=True, check=True,
    ).stdout.strip()
    dirs = {str(Path(importlib.util.find_spec(name).origin).parents[1])
            for name in ("numpy", "setuptools")}
    Path(purelib, "host-packages.pth").write_text("\n".join(sorted(dirs)) + "\n")

    proc = subprocess.run(
        [python, "setup.py", "-q", "develop", "--no-deps"],
        cwd=tree, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stderr
    monkeypatch.setenv("PATH", f"{env_dir / 'bin'}{os.pathsep}{os.environ['PATH']}")


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert err == ""
    return code, json.loads(out)


class TestExitCodes:
    def test_success(self, capsys):
        code, out, err = run_cli(capsys, "froeberg", "--d", "2", "--n", "4", "--a", "10")
        assert code == 0
        assert "m0 = 19" in out

    def test_precondition_violation(self, capsys):
        code, out, err = run_cli(capsys, "froeberg", "--d", "2", "--n", "2", "--a", "5")
        assert code == 1
        assert out == ""
        assert "no inclusion bound (n < d+1)" in err

    def test_oversized_macaulay_matrix_refused(self):
        # M_34 of six forms of degree 12 in 5 variables would be a
        # 73815 x 89700 int64 matrix, 49 GiB: refused from binomials alone
        start = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-m", "tcbounds.cli", "verify", "hilbert",
             "--d", "4", "--n", "6", "--a", "12"],
            capture_output=True, text=True, timeout=60,
        )
        assert time.perf_counter() - start < 10
        assert (proc.returncode, proc.stdout) == (1, "")
        assert proc.stderr.startswith("error: Macaulay matrix in degree 34 needs a 73815 x 89700")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    def test_usage_error_unknown_flag(self, capsys):
        code = cli.main(["froeberg", "--d", "2", "--n", "4", "--a", "10", "--bogus"])
        assert code == 2

    def test_usage_error_missing_degree_flags(self, capsys):
        code, out, err = run_cli(capsys, "froeberg", "--d", "2")
        assert code == 2
        assert "usage error" in err

    def test_usage_error_conflicting_degree_flags(self, capsys):
        code, out, err = run_cli(
            capsys, "froeberg", "--d", "2", "--n", "4", "--a", "10", "--degrees", "3,3"
        )
        assert code == 2

    def test_verification_failure_is_exit_three(self, capsys):
        # over F_2 the one allowed draw of three quadrics is not generic:
        # R_4 is one dimension short of lying in the ideal
        code, payload = run_json(
            capsys, "verify", "theorem-c", "--fixture", "fermat-cubic-p2",
            "--n", "3", "--a", "2", "--seed", "1", "--redraws", "1",
        )
        assert code == 3
        result = payload["result"]
        assert (result["passed"], result["inclusion_degree"], result["deficit"]) == (False, None, 1)

    def test_help_exits_zero(self, capsys):
        assert cli.main(["--help"]) == 0
        assert cli.main(["froeberg", "--help"]) == 0


class TestFroeberg:
    def test_json_payload(self, capsys):
        code, payload = run_json(capsys, "froeberg", "--d", "2", "--n", "4", "--a", "10")
        assert code == 0
        assert payload["schema"] == 1
        assert payload["command"] == "froeberg"
        assert payload["params"]["seed"] == 7
        assert payload["params"]["degrees"] == [10, 10, 10, 10]
        assert payload["result"]["m0"] == 19
        rows = payload["result"]["rows"]
        assert rows[0] == [0, 1, 1]
        # F turns non-positive exactly at m0: clip is zero from there on
        assert all(r[2] == 0 for r in rows if r[0] >= 19)
        assert all(r[1] == r[2] for r in rows if r[0] < 19)

    def test_degenerate_type(self, capsys):
        code, payload = run_json(capsys, "froeberg", "--d", "1", "--degrees", "1,1")
        assert code == 0
        assert payload["result"]["m0"] == 1

    def test_tsv_round_trips_json(self, capsys):
        code, payload = run_json(capsys, "froeberg", "--d", "1", "--degrees", "3,3,2")
        code2, out, _ = run_cli(
            capsys, "froeberg", "--d", "1", "--degrees", "3,3,2", "--format", "tsv"
        )
        lines = [l for l in out.splitlines() if l and not l.startswith("#")]
        cells = [[json.loads(c) for c in line.split("\t")] for line in lines[1:]]
        assert cells == payload["result"]["rows"]


class TestBounds:
    def test_reference_values(self, capsys):
        code, payload = run_json(capsys, "bounds", "--d", "2", "--n", "5", "--a", "10")
        result = payload["result"]
        assert (result["tight"], result["frobenius"], result["koszul"], result["semistable"]) == (
            19, 20, 30, 25,
        )
        assert result["ideal"] is None

    def test_ideal_bound_with_a_invariant(self, capsys):
        code, payload = run_json(
            capsys, "bounds", "--d", "3", "--n", "4", "--a", "10", "--ainv", "-4"
        )
        assert payload["result"]["ideal"] == 37
        assert payload["result"]["m0"] == 37

    def test_improved_semistable(self, capsys):
        code, out, _ = run_cli(capsys, "bounds", "--d", "1", "--n", "3", "--a", "5")
        assert "frobenius" in out and " 9" in out
        assert "semistable-improved" in out and " 8" in out

    def test_tsv_matches_json(self, capsys):
        code, payload = run_json(capsys, "bounds", "--d", "1", "--n", "3", "--a", "5")
        code2, out, _ = run_cli(
            capsys, "bounds", "--d", "1", "--n", "3", "--a", "5", "--format", "tsv"
        )
        rows = [line.split("\t") for line in out.splitlines()[1:]]
        for name_cell, value_cell in rows:
            assert payload["result"][json.loads(name_cell)] == json.loads(value_cell)


class TestTable:
    def test_reference_rows(self, capsys):
        code, payload = run_json(capsys, "table", "--d", "2", "--a", "10", "--n", "3..8,10,11")
        result = payload["result"]
        assert result["rows"]["generic"] == [30, 21, 19, 18, 17, 16, 16, 15]
        assert result["rows"]["koszul"] == [30] * 8
        assert result["rows"]["semistable"] == [30, 27, 25, 24, 24, 23, 23, 22]
        assert result["limits"] == {"generic": 12, "koszul": 30, "semistable": 21}

    def test_range_parser(self, capsys):
        code, payload = run_json(capsys, "table", "--d", "1", "--a", "4", "--n", "2..4,7")
        assert payload["result"]["n_values"] == [2, 3, 4, 7]

    def test_bad_range_is_usage_error(self, capsys):
        assert cli.main(["table", "--d", "1", "--a", "4", "--n", "x..y"]) == 2

    def test_n_below_parameter_count_is_precondition(self, capsys):
        code, out, err = run_cli(capsys, "table", "--d", "2", "--a", "4", "--n", "2..5")
        assert code == 1

    def test_tsv_round_trips_json(self, capsys):
        code, payload = run_json(capsys, "table", "--d", "1", "--a", "10", "--n", "2..7,10,11")
        code2, out, _ = run_cli(
            capsys, "table", "--d", "1", "--a", "10", "--n", "2..7,10,11",
            "--format", "tsv",
        )
        lines = [line.split("\t") for line in out.splitlines()]
        header = [json.loads(c) for c in lines[0]]
        assert header[-1] == "limit"
        for cells in lines[1:]:
            name = json.loads(cells[0])
            values = [json.loads(c) for c in cells[1:-1]]
            assert payload["result"]["rows"][name] == values
            assert payload["result"]["limits"][name] == json.loads(cells[-1])


class TestVerifyHilbert:
    def test_small_run(self, capsys):
        code, payload = run_json(
            capsys, "verify", "hilbert", "--d", "1", "--n", "3", "--a", "3",
            "--trials", "3", "--seed", "7",
        )
        assert code == 0
        result = payload["result"]
        assert result["equality_rate"] == 1.0
        assert result["violations"] == []
        assert len(result["trials"]) == 3
        assert payload["params"]["p"] == 32003

    def test_deterministic_bytes(self, capsys):
        args = ("verify", "hilbert", "--d", "1", "--n", "4", "--a", "3",
                "--trials", "2", "--format", "json")
        code1, out1, _ = run_cli(capsys, *args)
        code2, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_prime_env_default(self, capsys, monkeypatch):
        # the prime comes from --p or the default, never the environment,
        # so identical flags give identical bytes
        args = ("verify", "hilbert", "--d", "1", "--n", "3", "--a", "2",
                "--trials", "2", "--format", "json")
        plain = run_cli(capsys, *args)
        monkeypatch.setenv("TCBOUNDS_PRIME", "101")
        assert run_cli(capsys, *args) == plain
        assert json.loads(plain[1])["params"]["p"] == 32003

    def test_prime_flag_beats_env(self, capsys, monkeypatch):
        monkeypatch.setenv("TCBOUNDS_PRIME", "101")
        code, payload = run_json(
            capsys, "verify", "hilbert", "--d", "1", "--n", "3", "--a", "2",
            "--trials", "2", "--p", "97",
        )
        assert payload["params"]["p"] == 97

    def test_missing_degree_flags(self, capsys):
        code, out, err = run_cli(capsys, "verify", "hilbert", "--trials", "2")
        assert code == 2

    def test_ideal_file_mode(self, capsys, tmp_path):
        path = tmp_path / "squares.txt"
        path.write_text("p=32003 v=2\n2; 2 0:1\n2; 0 2:1\n")
        code, payload = run_json(capsys, "verify", "hilbert", "--ideal-file", str(path))
        assert code == 0
        result = payload["result"]
        assert result["values"] == [1, 2, 1, 0]
        assert result["first_zero"] == 3
        assert result["equality"] is True
        assert payload["params"]["p"] == 32003

    def test_ideal_file_missing(self, capsys, tmp_path):
        code, out, err = run_cli(
            capsys, "verify", "hilbert", "--ideal-file", str(tmp_path / "nope.txt")
        )
        assert code == 1
        assert "cannot read" in err

    def test_ideal_file_refuses_degree_and_prime_flags(self, capsys, tmp_path):
        # the file fixes the degree type and the prime; a flag that names
        # them too would be silently ignored
        path = tmp_path / "squares.txt"
        path.write_text("p=32003 v=2\n2; 2 0:1\n2; 0 2:1\n")
        base = ["verify", "hilbert", "--ideal-file", str(path)]
        code, out, err = run_cli(capsys, *base, "--d", "3", "--degrees", "5,5", "--p", "97")
        assert (code, out) == (2, "")
        assert err == "usage error: pass either --ideal-file or --d/--degrees/--p, not both\n"
        for flag, value in (("--d", "1"), ("--n", "2"), ("--a", "2"), ("--degrees", "2,2"),
                            ("--p", "32003")):
            code, out, err = run_cli(capsys, *base, flag, value)
            assert (code, out) == (2, ""), flag
            assert err.startswith("usage error: pass either --ideal-file or "), flag

    def test_ideal_file_refuses_trials(self, capsys, tmp_path):
        # one explicit system is checked, so a trial count or a seed would
        # be ignored; 20 trials and seed 7, the defaults, are refused too
        path = tmp_path / "squares.txt"
        path.write_text("p=32003 v=2\n2; 2 0:1\n2; 0 2:1\n")
        base = ["verify", "hilbert", "--ideal-file", str(path), "--format", "json"]
        for trials in ("5", "20"):
            code, out, err = run_cli(capsys, *base, "--trials", trials)
            assert (code, out) == (2, ""), trials
            assert err == "usage error: pass either --ideal-file or --trials, not both\n"
        for seed in ("3", "7"):
            code, out, err = run_cli(capsys, *base, "--seed", seed)
            assert (code, out) == (2, ""), seed
            assert err == "usage error: pass either --ideal-file or --seed, not both\n"
        code, out, err = run_cli(capsys, *base, "--trials", "5", "--seed", "3")
        assert (code, out) == (2, "")
        assert err == "usage error: pass either --ideal-file or --trials/--seed, not both\n"
        code, payload = run_json(capsys, "verify", "hilbert", "--ideal-file", str(path))
        assert (code, payload["params"]["seed"]) == (0, 7)

    def test_trials_default_to_twenty(self, capsys):
        code, payload = run_json(capsys, "verify", "hilbert", "--d", "1", "--n", "3", "--a", "2")
        assert code == 0
        assert payload["params"]["trials"] == len(payload["result"]["trials"]) == 20

    # total degree below d: the window total - d is negative, so only H(0)
    # is shown
    @pytest.mark.parametrize("n", ["1", "2"])
    def test_window_below_zero_shows_degree_zero(self, capsys, n):
        code, out, err = run_cli(capsys, "verify", "hilbert", "--d", "3", "--n", n,
                                 "--a", "1", "--trials", "1", "--format", "json")
        assert (code, err) == (0, "")
        result = json.loads(out)["result"]
        assert (result["window"], result["violations"]) == (0, [])
        assert result["predicted_clipped"] == result["trials"][0]["values"] == [1]

    def test_ideal_file_window_below_zero_shows_degree_zero(self, capsys, tmp_path):
        path = tmp_path / "linear.txt"
        path.write_text("p=7 v=4\n1; 1 0 0 0:1\n")
        code, payload = run_json(capsys, "verify", "hilbert", "--ideal-file", str(path))
        assert code == 0
        result = payload["result"]
        assert result["values"] == result["predicted_clipped"] == [1]
        assert (result["first_zero"], result["equality"]) == (None, True)

    def test_ideal_file_many_variables(self, capsys, tmp_path):
        # reading x_0^16 in 16 variables places one term; nothing lists the
        # C(31, 15) = 300,540,195 monomials of degree 16
        path = tmp_path / "sixteen.txt"
        path.write_text("p=7 v=16\n16; 16" + " 0" * 15 + ":1\n")
        code, out, err = run_cli(capsys, "verify", "hilbert", "--ideal-file", str(path))
        assert (code, err) == (0, "")
        assert "hilbert   1 16 136\n" in out
        assert "Traceback" not in out

    def test_ideal_file_thousands_of_variables(self, capsys, tmp_path):
        # the monomials are listed without one recursion level per
        # variable: 3000 variables read and check at degree 0
        path = tmp_path / "wide.txt"
        path.write_text("p=7 v=3000\n1; 1" + " 0" * 2999 + ":1\n")
        code, payload = run_json(capsys, "verify", "hilbert", "--ideal-file", str(path))
        assert code == 0
        assert payload["result"]["values"] == payload["result"]["predicted_clipped"] == [1]

    @pytest.mark.parametrize("v", [0, -1])
    @pytest.mark.parametrize(
        "command",
        [["hilbert"], ["theorem-b", "--fixture", "fermat-cubic", "--p", "5"]],
    )
    def test_ideal_file_without_variables_refused(self, capsys, tmp_path, command, v):
        path = tmp_path / "novars.txt"
        path.write_text(f"p=7 v={v}\n2; :1\n")
        code, out, err = run_cli(capsys, "verify", *command, "--ideal-file", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: need at least one variable, got v={v}\n"
        assert "Traceback" not in err


class TestVerifyTheorems:
    def test_theorem_c_fermat_cubic(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "theorem-c", "--fixture", "fermat-cubic",
            "--n", "3", "--a", "2", "--seed", "7",
        )
        assert code == 0
        assert "PASS" in out

    def test_theorem_c_poly_ring_uses_d(self, capsys):
        code, payload = run_json(
            capsys, "verify", "theorem-c", "--fixture", "poly-ring",
            "--d", "2", "--n", "4", "--a", "2", "--seed", "7",
        )
        assert code == 0
        assert payload["result"]["passed"] is True
        assert payload["result"]["bound"] == 3
        assert payload["result"]["a_invariant"] == -3

    def test_theorem_c_json_embeds_system(self, capsys):
        code, payload = run_json(
            capsys, "verify", "theorem-c", "--fixture", "fermat-cubic",
            "--n", "3", "--a", "2", "--seed", "7",
        )
        assert payload["result"]["system"].startswith("p=32003 v=3\n")
        assert payload["result"]["draws"] == 1
        assert payload["result"]["bound"] == 4
        assert payload["result"]["inclusion_degree"] == 3
        assert payload["result"]["deficit"] == 0

    def test_theorem_b_default_parameter_ideal(self, capsys):
        code, payload = run_json(
            capsys, "verify", "theorem-b", "--fixture", "fermat-cubic-p2",
            "--qmax", "16", "--seed", "7",
        )
        assert code == 0
        result = payload["result"]
        assert result["all_resolved"] is True
        assert result["bound"] == 3
        assert all(q is not None and q <= 4 for _, q in result["elements"])
        assert "not" in result["note"]
        assert payload["params"]["degrees"] == [1, 1]

    def test_theorem_b_ideal_file(self, capsys, tmp_path):
        path = tmp_path / "xy.txt"
        path.write_text("p=2 v=3\n1; 1 0 0:1\n1; 0 1 0:1\n")
        code, payload = run_json(
            capsys, "verify", "theorem-b", "--fixture", "fermat-cubic-p2",
            "--qmax", "16", "--ideal-file", str(path),
        )
        assert code == 0
        assert payload["result"]["all_resolved"] is True
        assert payload["params"]["ideal_file"] == str(path)

    def test_theorem_b_ideal_file_refuses_degree_flags(self, capsys, tmp_path):
        path = tmp_path / "xy.txt"
        path.write_text("p=2 v=3\n1; 1 0 0:1\n1; 0 1 0:1\n")
        base = ["verify", "theorem-b", "--fixture", "fermat-cubic-p2", "--qmax", "16",
                "--ideal-file", str(path)]
        for flags in (["--degrees", "3,3"], ["--n", "2"], ["--a", "2"], ["--n", "2", "--a", "2"]):
            code, out, err = run_cli(capsys, *base, *flags)
            assert (code, out) == (2, ""), flags
            assert err.startswith("usage error: pass either --ideal-file or --"), flags
        # the ideal is given, so no draw reads a seed
        for seed in ("3", "7"):
            code, out, err = run_cli(capsys, *base, "--seed", seed)
            assert (code, out) == (2, ""), seed
            assert err == "usage error: pass either --ideal-file or --seed, not both\n"

    def test_oversized_test_refused(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("a matrix was built")

        monkeypatch.setattr(quotient, "product_support", refuse)
        code, out, err = run_cli(
            capsys, "verify", "theorem-c", "--fixture", "fermat-cubic",
            "--n", "3", "--a", "200",
        )
        assert code == 1 and out == ""
        assert "membership test in degree 301 needs a 60609 x 45753 matrix" in err

    def test_theorem_b_random_type(self, capsys):
        code, payload = run_json(
            capsys, "verify", "theorem-b", "--fixture", "fermat-cubic",
            "--n", "2", "--a", "2", "--qmax", "49", "--seed", "11",
        )
        assert code == 0
        assert payload["result"]["bound"] == 5

    def test_fixture_prime_override(self, capsys):
        code, payload = run_json(
            capsys, "verify", "theorem-c", "--fixture", "fermat-cubic",
            "--p", "101", "--n", "3", "--a", "2", "--seed", "7",
        )
        assert payload["result"]["p"] == 101

    def test_singular_prime_rejected(self, capsys):
        code, out, err = run_cli(
            capsys, "verify", "theorem-c", "--fixture", "fermat-cubic",
            "--p", "3", "--n", "3", "--a", "2",
        )
        assert code == 1
        assert "not smooth" in err

    def test_unknown_fixture_is_usage_error(self, capsys):
        assert cli.main(["verify", "theorem-c", "--fixture", "nope", "--n", "3", "--a", "2"]) == 2


class TestReadme:
    def test_examples_match_readme(self, capsys):
        """Every `$ tcbounds ...` block of README.md prints what it shows."""
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        examples = re.findall(r"^```\n\$ tcbounds (.*?)\n(.*?)^```$", readme, re.M | re.S)
        assert examples
        for command, shown in examples:
            code, out, err = run_cli(capsys, *shlex.split(command))
            assert (code, out, err) == (0, shown, ""), command


class TestOutputPlumbing:
    def test_out_file(self, capsys, tmp_path):
        path = tmp_path / "out.json"
        code, out, err = run_cli(
            capsys, "bounds", "--d", "2", "--n", "5", "--a", "10",
            "--format", "json", "--out", str(path),
        )
        assert code == 0
        assert out == ""
        payload = json.loads(path.read_text())
        assert payload["result"]["tight"] == 19

    def test_out_file_unwritable(self, capsys, tmp_path):
        path = tmp_path / "missing" / "out.json"
        code, out, err = run_cli(
            capsys, "bounds", "--d", "2", "--n", "5", "--a", "10", "--out", str(path),
        )
        assert code == 1
        assert out == ""
        assert err.startswith(f"error: cannot write {path}: ")
        assert err.count("\n") == 1

    @pytest.mark.usefixtures("installed_console_script")
    def test_console_script_installed(self):
        exe = shutil.which("tcbounds")
        assert exe is not None
        proc = subprocess.run(
            [exe, "table", "--d", "2", "--a", "10", "--n", "3..5", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["rows"]["generic"] == [30, 21, 19]

    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "tcbounds.cli", "froeberg", "--d", "1",
             "--degrees", "1,1", "--format", "json"],
            capture_output=True, text=True,
        )
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["result"]["m0"] == 1
