"""Command-line surface: config layering, subcommands, exit codes, reports."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from lglab import cli, groebner
from lglab.cli import (UsageError, _check_hodge, _check_truncated_arithmetic,
                       execute_command, main, parse_config)
from lglab.ellipticity import check_quasihomogeneous_ellipticity
from lglab.poly import Polynomial, parse_polynomial
from lglab.spectral import SpectralContext


# -- configuration layering -----------------------------------------------------


def test_defaults_fill_unset_options():
    cfg = parse_config(["analyze", "z^3/3"])
    assert cfg.command == "analyze"
    assert cfg.f == "z^3/3"
    assert cfg.order == 8
    assert cfg.t_order == 5
    assert cfg.grid == 65
    assert cfg.radius == 4.0
    assert cfg.tol == 1e-3
    assert cfg.seed == 7
    assert cfg.laurent is False
    assert cfg.vars is None


def test_flags_override_config_file(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("grid = 33\nradius = 5.0\n# a comment\nt-order = 3\n")
    cfg = parse_config(["spectrum", "z^2/2", "--config", str(path),
                        "--grid", "41"])
    assert cfg.grid == 41      # flag beats file
    assert cfg.radius == 5.0   # file beats default
    assert cfg.t_order == 3    # hyphens in file keys are accepted
    assert "grid" in cfg.explicit and "radius" in cfg.explicit


def test_unknown_config_key_is_a_usage_error(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("gird = 33\n")
    with pytest.raises(UsageError):
        parse_config(["spectrum", "z^2/2", "--config", str(path)])


@pytest.mark.parametrize("value, expected", [("yes", True), ("On", True),
                                             ("off", False), ("0", False)])
def test_config_file_reads_boolean_words(value, expected, tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(f"laurent = {value}\n")
    cfg = parse_config(["analyze", "z+z^-1", "--config", str(path)])
    assert cfg.laurent is expected


def test_config_file_rejects_other_boolean_values(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("# settings\nlaurent = maybe\n")
    with pytest.raises(UsageError, match=r"run\.cfg:2: .*'maybe'"):
        parse_config(["analyze", "z+z^-1", "--config", str(path)])


def test_vars_flag_parses_a_name_list():
    cfg = parse_config(["analyze", "x^3+y^3", "--vars", "x,y"])
    assert cfg.vars == ("x", "y")


def test_positional_and_flag_polynomials_must_agree():
    cfg = parse_config(["analyze", "z^3/3", "--f", "z^3/3"])
    assert cfg.f == "z^3/3"
    with pytest.raises(UsageError):
        parse_config(["analyze", "z^3/3", "--f", "z^4/4"])


def test_option_validation_rejects_nonsense():
    with pytest.raises(UsageError):
        parse_config(["frobenius", "z^3/3", "--order", "-1"])
    with pytest.raises(UsageError):
        parse_config(["spectrum", "z^2/2", "--tol", "0"])
    with pytest.raises(UsageError):
        parse_config(["spectrum", "z^2/2", "--radius", "-4"])


# -- exit codes -------------------------------------------------------------------


def test_unknown_subcommand_exits_with_usage_status(capsys):
    with pytest.raises(SystemExit) as err:
        main(["bogus"])
    assert err.value.code == 2
    capsys.readouterr()


def test_missing_polynomial_is_a_usage_error(capsys):
    assert main(["analyze"]) == 2
    capsys.readouterr()


def test_malformed_polynomial_is_a_usage_error(capsys):
    assert main(["analyze", "1/z"]) == 2
    out = capsys.readouterr()
    assert "error" in out.err.lower()


@pytest.mark.parametrize("argv", [["analyze", "x/0"],
                                  ["analyze", "x^3", "--vars", "x,x"],
                                  ["analyze", "x*"]])
def test_unreadable_polynomial_text_exits_2(argv, capsys):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error:") and "Traceback" not in err


@pytest.mark.parametrize("argv", [["analyze", "5"], ["analyze", "x-x"],
                                  ["analyze", "x^0"], ["pairing", "5"],
                                  ["frobenius", "5"], ["spectrum", "5"]])
def test_constant_polynomial_exits_3(argv, capsys):
    # refused before any Groebner basis or eigensolve is started
    start = time.perf_counter()
    assert main(argv) == 3
    assert time.perf_counter() - start < 5
    err = capsys.readouterr().err
    assert err.startswith("precondition unmet:") and "constant" in err
    assert "Traceback" not in err


def test_exhausted_groebner_budget_is_a_compute_failure(monkeypatch, capsys):
    monkeypatch.setattr(groebner, "MAX_S_PAIRS", 5)
    assert main(["analyze", "x^3+y^3+w^3+v^2+x*y*w*v"]) == 1
    assert "5 S-pairs" in capsys.readouterr().err


def test_laurent_spectrum_fails_the_precondition(capsys):
    assert main(["spectrum", "z+z^-1", "--laurent"]) == 3
    capsys.readouterr()


def test_socle_less_pairing_fails_the_precondition(capsys):
    # mu = 8 with two basis monomials in the top degree: no residue pairing
    assert main(["pairing", "x^3+y^4+x^2*y^2"]) == 3
    err = capsys.readouterr().err
    assert "one-dimensional socle" in err and "Traceback" not in err


def _usage_error_line(capsys) -> str:
    err = capsys.readouterr().err
    assert "Traceback" not in err and len(err.splitlines()) == 1, err
    assert err.startswith("usage error:")
    return err


def test_unreadable_config_file_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.cfg"
    assert main(["analyze", "z^2", "--config", str(missing)]) == 2
    assert str(missing) in _usage_error_line(capsys)
    latin = tmp_path / "latin.cfg"
    latin.write_bytes("f = z\xe9\n".encode("latin-1"))
    assert main(["analyze", "--config", str(latin)]) == 2
    assert str(latin) in _usage_error_line(capsys)


def test_unwritable_out_is_a_usage_error(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    assert main(["analyze", "z^2", "--out", str(out)]) == 2
    assert str(out) in _usage_error_line(capsys)


def test_plot_dir_that_is_a_file_is_a_usage_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["analyze", "z^2", "--plot-dir", str(taken)]) == 2
    assert str(taken) in _usage_error_line(capsys)


@pytest.mark.parametrize("flag", ["--out", "--plot-dir"])
def test_unwritable_output_is_refused_before_any_computation(flag, tmp_path,
                                                             capsys):
    # a 129² spectrum takes seconds; the path check must come first
    taken = tmp_path / "taken"
    taken.write_text("")
    path = tmp_path / "missing" / "r.json" if flag == "--out" else taken
    start = time.perf_counter()
    assert main(["spectrum", "z^3/3", "--grid", "129", flag, str(path)]) == 2
    assert time.perf_counter() - start < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("usage error: cannot write") and str(path) in err


@pytest.mark.parametrize("points", ["16", "34", "15"])
def test_bad_grid_is_a_usage_error(points, capsys):
    assert main(["spectrum", "z^2/2", "--grid", points]) == 2
    assert "odd point count" in capsys.readouterr().err


# -- subcommand reports --------------------------------------------------------------


def test_analyze_reports_milnor_data_and_ellipticity(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "z^3/3", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["schema_version"] == 1
    assert report["command"] == "analyze"
    assert report["exit_status"] == 0
    results = report["results"]
    assert results["milnor_number"] == 2
    assert results["monomial_basis"] == ["1", "z"]
    assert results["ellipticity"]["verdict"] == "Satisfied"
    assert results["weights"] == ["1/3"]


def test_analyze_flags_a_non_isolated_critical_locus(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", "x^2*y^2", "--vars", "x,y",
                 "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["results"]["milnor_number"] == "infinite"
    assert report["results"]["monomial_basis"] == []
    assert any(w.startswith("groebner:") for w in report["warnings"])


@pytest.mark.parametrize("text, verdict, witness", [
    ("z+2+z^-1", "Violated", [[-1.0, 0.0]]),
    ("x+y+w+x^-1*y^-1*w^-1", "Satisfied", None)])
def test_analyze_reports_the_laurent_torus_check(text, verdict, witness,
                                                 tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["analyze", text, "--laurent", "--out", str(out)]) == 0
    capsys.readouterr()
    results = json.loads(out.read_text())["results"]
    assert results["ring"] == "laurent"
    assert results["milnor_number"] is None
    assert results["monomial_basis"] == []
    assert results["ellipticity"]["verdict"] == verdict
    assert results["ellipticity"]["witness"] == witness


def test_analyze_writes_the_growth_table(tmp_path, capsys):
    assert main(["analyze", "z^2/2", "--plot-dir", str(tmp_path)]) == 0
    table = tmp_path / "growth_table.csv"
    assert f"plot data written to {table}" in capsys.readouterr().out
    rows = table.read_text().splitlines()
    assert rows[0] == "k,radius,min_margin"
    assert [row.split(",")[:2] for row in rows[1:]] == [
        [str(k), str(r)] for k in (2, 3) for r in (2.0, 4.0, 8.0, 16.0, 32.0)]


def test_analyze_computes_the_milnor_ring_once(monkeypatch, tmp_path, capsys):
    # the ring behind the reported basis also decides the quasi-homogeneous
    # verdict; on its own, the check answers Unknown from the weights alone
    calls = []
    basis = groebner.groebner_basis

    def counted(gens):
        calls.append(len(gens))
        return basis(gens)

    monkeypatch.setattr(groebner, "groebner_basis", counted)
    out = tmp_path / "report.json"
    assert main(["analyze", "x^3+y^3+w^3", "--out", str(out)]) == 0
    results = json.loads(out.read_text())["results"]
    assert results["milnor_number"] == 8
    assert results["ellipticity"]["verdict"] == "Satisfied"
    assert calls == [3]
    for text in ("x*y+y^4", "x^2+x^3"):
        f = parse_polynomial(text, ("x", "y"))
        assert check_quasihomogeneous_ellipticity(f).verdict == "Unknown"
    assert calls == [3]


def test_verify_records_a_check_that_raises(monkeypatch, tmp_path, capsys):
    def broken():
        raise RuntimeError("no ring")

    monkeypatch.setattr(cli, "_check_milnor_numbers", broken)
    out = tmp_path / "report.json"
    assert main(["verify", "--out", str(out)]) == 1
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["exit_status"] == 1
    assert report["results"]["all_passed"] is False
    failed = [c for c in report["results"]["checks"] if not c["passed"]]
    assert failed == [{"check": "groebner:milnor-number", "passed": False,
                       "detail": "RuntimeError: no ring"}]
    assert ("groebner:milnor-number failed: RuntimeError: no ring"
            in report["warnings"])


def test_exact_commands_start_without_numpy():
    # NumPy is imported by the numeric routes alone (the growth table, the
    # Newton witness search and the grid half); a fresh process runs the
    # exact subcommands without loading it
    code = ("import contextlib, io, sys\n"
            "import lglab.cli\n"
            "for argv in (['analyze', 'x^3+y^4'], ['pairing', 'x^3+y^4'],\n"
            "             ['frobenius', 'z^3/3']):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        assert lglab.cli.main(argv) == 0, argv\n"
            "    assert 'numpy' not in sys.modules, argv\n")
    src = str(Path(cli.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", code], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_pairing_reports_the_antidiagonal_matrix(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["pairing", "z^3/3", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    M = report["results"]["higher_residue_matrix"]
    assert M[0][0] == {} and M[1][1] == {}
    assert M[0][1] == {"0": "1"} and M[1][0] == {"0": "1"}


def test_frobenius_reuses_the_series_order_flag(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["frobenius", "z^3/3", "--order", "6", "--out", str(out)]) == 0
    capsys.readouterr()
    report = json.loads(out.read_text())
    assert report["results"]["t_order"] == 6
    assert report["results"]["wdvv_residual"] == "0"
    assert report["results"]["potential"]  # closed form is non-empty


def test_frobenius_accepts_t_order_zero(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["frobenius", "z^2/2", "--t-order", "0", "--out", str(out)]) == 0
    capsys.readouterr()
    results = json.loads(out.read_text())["results"]
    assert results["t_order"] == 0
    assert results["potential"] == {"s0^3": "1/6"}
    assert results["wdvv_residual"] == "0"


def test_spectrum_exports_tables_and_kernel_count(tmp_path, capsys):
    out = tmp_path / "report.json"
    assert main(["spectrum", "z^2/2", "--grid", "33",
                 "--out", str(out), "--plot-dir", str(tmp_path)]) == 0
    printed = capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["results"]["kernel_dim"] == 1
    assert report["results"]["reliable"] is True
    for name in ("eigenvalues.csv", "harmonic_profile.csv"):
        assert f"plot data written to {tmp_path / name}" in printed
        assert (tmp_path / name).read_bytes().endswith(b"\r\n")


def test_spectrum_prints_an_uncertified_count_with_its_warnings(capsys):
    # a threshold above every computed eigenvalue leaves no gap to certify
    assert main(["spectrum", "z^2/2", "--grid", "33", "--tol", "10"]) == 0
    out = capsys.readouterr().out
    assert "certified: False" in out
    assert ("warning: spectral:eigensolve all computed eigenvalues sit below "
            "the threshold; raise k") in out
    assert ("warning: spectral:eigensolve kernel count not certified; "
            "see notes") in out


def test_spectrum_puts_its_tables_into_the_report(tmp_path):
    plots = tmp_path / "plots"
    report = execute_command(parse_config(
        ["spectrum", "z^2/2", "--grid", "33", "--plot-dir", str(plots)]))
    assert sorted(report.tables) == ["eigenvalues.csv", "harmonic_profile.csv"]
    assert not plots.exists()  # emit_report alone writes files


def test_verify_runs_the_whole_checklist(tmp_path, capsys):
    report = tmp_path / "report.json"
    assert main(["verify", "--out", str(report)]) == 0
    out = capsys.readouterr().out
    assert "all_passed" in out or "passed" in out
    ledger = json.loads(report.read_text())["results"]["checks"]
    [entry] = [c for c in ledger if c["check"] == "poly:truncated-arithmetic"]
    assert entry["passed"], entry["detail"]
    [hodge] = [c for c in ledger if c["check"] == "spectral:hodge-split"]
    assert hodge["passed"], hodge["detail"]
    assert "matches the eigensolve's projector" in hodge["detail"]


@pytest.mark.parametrize("columns, expected", [
    (0, "kernel dims 0 (context), 1 (eigensolve)"),
    (1, "kernel projectors differ")])
def test_hodge_check_compares_the_split_kernel_with_the_eigensolve(
        monkeypatch, columns, expected):
    # a context kernel of the wrong dimension, or a unit vector that is
    # not the kernel, fails the check
    def wrong_kernel(self, degree):
        K = np.ones((self.grid.points ** 2 * (2 if degree == 1 else 1),
                     columns), dtype=complex)
        return K / np.sqrt(K.shape[0])

    monkeypatch.setattr(SpectralContext, "kernel_matrix", wrong_kernel)
    passed, detail = _check_hodge(7)
    assert not passed and expected in detail


def test_truncated_arithmetic_check_catches_a_wrong_product(monkeypatch):
    monkeypatch.setattr(Polynomial, "mul_trunc",
                        lambda self, other, nt: self * other)
    passed, detail = _check_truncated_arithmetic(7)
    assert not passed and "mul_trunc" in detail


# -- reports match the ones written before the truncated arithmetic -------------

GOLDEN = Path(__file__).parent / "golden"


@pytest.mark.parametrize("argv, name", [
    (["frobenius", "x^3+y^4", "--t-order", "3"], "frobenius_e6_t3.json"),
    (["frobenius", "x^3+x*y^3", "--t-order", "3"], "frobenius_e7_t3.json"),
    (["frobenius", "x^3+y^5", "--t-order", "3"], "frobenius_e8_t3.json"),
    (["frobenius", "x^3+y^3+w^3", "--t-order", "2"],
     "frobenius_e6tilde_t2.json"),
    (["pairing", "x^4+y^4+w^4"], "pairing_x4y4w4.json"),
    (["frobenius", "x^2*y+y^4", "--t-order", "4"], "frobenius_d5_t4.json"),
    (["frobenius", "z^5/5", "--t-order", "5"], "frobenius_a4_t5.json"),
])
def test_report_matches_the_golden_file(argv, name, tmp_path, capsys):
    out = tmp_path / name
    assert main(argv + ["--out", str(out)]) == 0
    capsys.readouterr()
    assert out.read_bytes() == (GOLDEN / name).read_bytes()


# -- simple elliptic inputs past the order where dx stops being primitive -------


@pytest.mark.parametrize("f, nt, marginal", [
    ("x^3+y^3+w^3", 3, "x*y*w"),
    ("x^4+y^4", 2, "x^2*y^2"),
    ("x^3+y^6", 3, "x*y^4"),
])
def test_marginal_flattening_obstruction_exits_3(f, nt, marginal, capsys):
    assert main(["frobenius", f, "--t-order", str(nt)]) == 3
    err = capsys.readouterr().err
    assert "precondition unmet" in err and "marginal" in err
    assert f"= {marginal}," in err


def test_reports_are_byte_identical_across_runs(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert main(["analyze", "z^4/4", "--out", str(a)]) == 0
    assert main(["analyze", "z^4/4", "--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()
