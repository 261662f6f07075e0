"""Command-line front end.

Subcommands
-----------
analyze    weights, Milnor number, monomial basis, ellipticity verdict
pairing    residue pairing and its u-extension on the monomial basis
frobenius  flat potential of the universal unfolding + WDVV residual
spectrum   low spectrum of the twisted Laplacian on a grid (+ CSV export)
verify     fast cross-module invariant suite; exit 0 only if all pass

Settings resolve in three layers: command-line flags override values
from an optional ``key = value`` config file (``--config``), which
override built-in defaults.  Reports are deterministic for a fixed
(config, seed) pair: JSON is emitted with sorted keys and exact
rationals serialize as ``"p/q"`` strings.

Exit codes: 0 success, 1 computation failure, 2 usage error,
3 precondition unmet.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

from .brieskorn import BrieskornLattice
from .ellipticity import (_quasihomogeneous_report, check_laurent_nondegenerate,
                          check_quasihomogeneous_ellipticity,
                          growth_table_csv, numeric_growth_table)
from .frobenius import (build_flat_potential, truncate, universal_unfolding,
                        wdvv_residual)
from .groebner import milnor_ring
from .poly import PolyError, Polynomial, infer_weights, parse_polynomial
from .util import ComputeError, PrecondError, dump_json, frac_str, jsonable

SCHEMA_VERSION = 1


def _boolean(text: str) -> bool:
    word = text.lower()
    if word not in ("1", "true", "yes", "on", "0", "false", "no", "off"):
        raise ValueError(f"expected 1/true/yes/on or 0/false/no/off, got {text!r}")
    return word in ("1", "true", "yes", "on")


# the settings a config file or a flag may give, with the reader of each
# and its help; a setting given by neither keeps the default of its
# RunConfig field.  A report records every setting but where it is written.
_SETTINGS = {
    "f": (str, "polynomial text"),
    "vars": (str, "comma-separated variable names"),
    "laurent": (_boolean, "allow negative exponents"),
    "order": (int, "u-series truncation order"),
    "t_order": (int, "deformation-parameter truncation order"),
    "grid": (int, "grid points per axis"),
    "radius": (float, "grid half-width"),
    "tol": (float, "kernel-counting threshold"),
    "seed": (int, "random seed for probe vectors"),
    "out": (str, "write JSON report here"),
    "plot_dir": (str, "write CSV plot data into this directory"),
}
_DESTINATIONS = ("out", "plot_dir")


class UsageError(ValueError):
    """Bad invocation: unknown key, contradictory settings, missing input."""


@dataclass
class RunConfig:
    command: str
    f: str | None = None
    vars: tuple[str, ...] | None = None
    laurent: bool = False
    order: int = 8
    t_order: int = 5
    grid: int = 65
    radius: float = 4.0
    tol: float = 1e-3
    seed: int = 7
    out: str | None = None
    plot_dir: str | None = None
    explicit: frozenset = frozenset()

    def describe(self) -> dict:
        settings = {key: getattr(self, key) for key in _SETTINGS
                    if key not in _DESTINATIONS}
        settings["vars"] = list(self.vars) if self.vars else None
        return {"command": self.command, **settings}


@dataclass
class Report:
    command: str
    config: RunConfig
    results: dict = field(default_factory=dict)
    warnings: list[str] = field(default_factory=list)
    exit_status: int = 0
    tables: dict = field(default_factory=dict)  # name -> CSV text (plot data)

    def describe(self) -> dict:
        return {
            "schema_version": SCHEMA_VERSION,
            "command": self.command,
            "config": self.config.describe(),
            "results": jsonable(self.results),
            "warnings": list(self.warnings),
            "exit_status": self.exit_status,
        }


# -- configuration --------------------------------------------------------


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise UsageError(f"cannot read config file {path}: {exc.strerror}")
    except UnicodeDecodeError:
        raise UsageError(f"config file {path} is not UTF-8 text")
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value'")
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in _SETTINGS:
            raise UsageError(f"{path}:{lineno}: unknown setting {key!r}")
        try:
            values[key] = _SETTINGS[key][0](val.strip())
        except ValueError as exc:
            raise UsageError(f"{path}:{lineno}: bad value for {key}: {exc}")
    return values


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The ``lg`` argument parser, built once per process: parsing leaves
    it unchanged."""
    parser = argparse.ArgumentParser(
        prog="lg",
        description="Exact lattice algebra and spectral probes for "
                    "polynomial superpotentials.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, helptext in (
            ("analyze", "weights, Milnor number, basis, ellipticity"),
            ("pairing", "residue pairing and u-extension"),
            ("frobenius", "flat potential and WDVV residual"),
            ("spectrum", "low spectrum of the twisted Laplacian"),
            ("verify", "run the invariant suite")):
        p = sub.add_parser(name, help=helptext)
        if name != "verify":
            p.add_argument("poly", nargs="?", default=None,
                           help="polynomial text (alternative to --f)")
        for key, (reader, helptext) in _SETTINGS.items():
            flag = "--" + key.replace("_", "-")
            if reader is _boolean:  # a flag switches it on
                p.add_argument(flag, action="store_true", default=None,
                               help=helptext)
            else:
                p.add_argument(flag, type=reader, default=None, help=helptext)
        p.add_argument("--config", default=None,
                       help="key = value settings file")
    return parser


def parse_config(argv: list[str]) -> RunConfig:
    """Flags override config-file values override the RunConfig defaults."""
    ns = _build_parser().parse_args(argv)
    file_values = _read_config_file(ns.config) if ns.config else {}
    given = {}
    for key in _SETTINGS:
        flag = getattr(ns, key, None)
        if flag is not None:
            given[key] = flag
        elif key in file_values:
            given[key] = file_values[key]
    explicit = frozenset(given)
    positional = getattr(ns, "poly", None)
    if positional is not None:
        if given.get("f") is not None and given["f"] != positional:
            raise UsageError("polynomial given twice (positional and --f) "
                             "with different values")
        given["f"] = positional
    if isinstance(given.get("vars"), str):
        given["vars"] = tuple(
            v.strip() for v in given["vars"].split(",") if v.strip())
    cfg = RunConfig(command=ns.command, explicit=explicit, **given)
    if cfg.order < 0 or cfg.t_order < 0:
        raise UsageError("truncation orders must be nonnegative")
    if cfg.tol <= 0:
        raise UsageError("tolerance must be positive")
    if cfg.grid < 17 or cfg.grid % 2 == 0:
        raise UsageError("grid needs an odd point count of at least 17 per axis")
    if cfg.radius <= 0:
        raise UsageError("grid half-width must be positive")
    # refuse output paths that cannot be written before computing anything;
    # ``emit_report`` still turns any later write failure into a UsageError
    if cfg.out and not Path(cfg.out).parent.is_dir():
        raise UsageError(f"cannot write {cfg.out}: no directory "
                         f"{Path(cfg.out).parent}")
    plot_dir = Path(cfg.plot_dir) if cfg.plot_dir else None
    if plot_dir is not None and plot_dir.exists() and not plot_dir.is_dir():
        raise UsageError(f"cannot write into {cfg.plot_dir}: not a directory")
    return cfg


def _require_poly(cfg: RunConfig) -> Polynomial:
    if not cfg.f:
        raise UsageError(f"command {cfg.command!r} needs a polynomial "
                         "(positional or --f)")
    return parse_polynomial(cfg.f, cfg.vars, laurent=cfg.laurent)


# -- commands --------------------------------------------------------------


def _cmd_analyze(cfg: RunConfig) -> Report:
    f = _require_poly(cfg)
    report = Report("analyze", cfg)
    results: dict = {"f": str(f), "variables": list(f.names),
                     "ring": f.mode}
    weights = infer_weights(f)
    results["weights"] = ([frac_str(q) for q in weights.q]
                          if weights is not None else None)
    if f.mode == "poly":
        ring = milnor_ring(f)
        if ring.basis is None:
            results["milnor_number"] = "infinite"
            results["monomial_basis"] = []
            report.warnings.append(
                "groebner:milnor-ring positive-dimensional critical locus; "
                "no finite basis")
        else:
            results["milnor_number"] = ring.mu
            results["monomial_basis"] = [
                str(Polynomial.monomial(m, 1, f.names)) for m in ring.basis]
        ell = _quasihomogeneous_report(f, ring)
    else:
        results["milnor_number"] = None
        results["monomial_basis"] = []
        ell = check_laurent_nondegenerate(f, seed=cfg.seed)
    results["ellipticity"] = {
        "verdict": ell.verdict,
        "reason": ell.reason,
        "witness": ell.witness,
    }
    if cfg.plot_dir:
        report.tables["growth_table.csv"] = growth_table_csv(
            numeric_growth_table(f, seed=cfg.seed))
    report.results = results
    return report


def _series_dict(series) -> dict:
    return {str(k): frac_str(v) for k, v in sorted(series.coeffs.items())}


def _cmd_pairing(cfg: RunConfig) -> Report:
    f = _require_poly(cfg)
    report = Report("pairing", cfg)
    lattice = BrieskornLattice(f, order=cfg.order)
    results = lattice.describe()
    results["higher_residue_matrix"] = [
        [_series_dict(entry) for entry in row]
        for row in lattice.pairing_matrix()]
    report.results = results
    return report


def _cmd_frobenius(cfg: RunConfig) -> Report:
    f = _require_poly(cfg)
    report = Report("frobenius", cfg)
    unfolding = universal_unfolding(f)
    nt = cfg.t_order
    if "order" in cfg.explicit and "t_order" not in cfg.explicit:
        nt = cfg.order  # one truncation knob given: use it for the family
    data = build_flat_potential(unfolding, nt=nt)
    results = data.describe()
    results["wdvv_residual"] = wdvv_residual(data)
    report.results = results
    return report


def _cmd_spectrum(cfg: RunConfig) -> Report:
    from .spectral import build_grid, eigensolve_lowest
    from .spectral.analysis import (write_eigenvalues_csv,
                                    write_harmonic_profile_csv)
    f = _require_poly(cfg)
    report = Report("spectrum", cfg)
    grid = build_grid(cfg.radius, cfg.grid)
    result = eigensolve_lowest(f, grid, degree=1, k=8, backend="fd1",
                               seed=cfg.seed, gap_threshold=cfg.tol)
    report.results = result.describe()
    for note in result.notes:
        report.warnings.append(f"spectral:eigensolve {note}")
    if not result.reliable:
        report.warnings.append(
            "spectral:eigensolve kernel count not certified; see notes")
    if cfg.plot_dir:
        report.tables["eigenvalues.csv"] = write_eigenvalues_csv(result)
        if result.eigenforms:
            report.tables["harmonic_profile.csv"] = \
                write_harmonic_profile_csv(result)
    return report


# -- verify suite -----------------------------------------------------------


def _check_truncated_arithmetic(seed: int):
    """``mul_trunc`` and ``subs_trunc`` against the full product and
    substitution truncated afterwards, on seeded random polynomials."""
    import random
    rng = random.Random(seed)

    def draw(names):
        return Polynomial({tuple(rng.randint(0, 4) for _ in names):
                           Fraction(rng.randint(-5, 5), rng.randint(1, 5))
                           for _ in range(rng.randint(0, 6))}, names)

    for trial in range(40):
        names = ("x", "y", "w")[:rng.randint(2, 3)]
        p, q = draw(names), draw(names)
        values = [draw(("s", "t")) for _ in names]
        nt = rng.randint(0, 8)
        if p.mul_trunc(q, nt) != truncate(p * q, nt):
            return False, f"mul_trunc differs at trial {trial}: ({p}) * ({q}), nt={nt}"
        if p.subs_trunc(values, nt) != truncate(p.subs(values), nt):
            return False, f"subs_trunc differs at trial {trial}: {p}, nt={nt}"
    return True, "40 seeded products and substitutions match full-then-truncate"


def _check_milnor_numbers():
    ring = milnor_ring(parse_polynomial("z^3/3", ("z",)))
    if ring.mu != 2:
        return False, f"cusp Milnor number {ring.mu} != 2"
    ring = milnor_ring(parse_polynomial("x^3+y^3", ("x", "y")))
    if ring.mu != 4:
        return False, f"x^3+y^3 Milnor number {ring.mu} != 4"
    return True, "mu(z^3/3)=2, mu(x^3+y^3)=4"


def _check_lattice_reduction():
    lattice = BrieskornLattice(parse_polynomial("z^3/3", ("z",)), order=6)
    el = lattice.reduce(parse_polynomial("z^2", ("z",)))
    if any(any(x != 0 for x in vec) for vec in el.coords.values()):
        return False, "[z^2] did not reduce to zero"
    el = lattice.reduce(parse_polynomial("z^3", ("z",)))
    expected = {1: (Fraction(-1), Fraction(0))}
    got = {k: v for k, v in el.coords.items()
           if any(x != 0 for x in v)}
    if got != expected:
        return False, f"[z^3] reduced to {got}, expected -u*[1]"
    return True, "reduce(z^2)=0 and reduce(z^3)=-u*[1]"


def _check_residue_pairing():
    lattice = BrieskornLattice(parse_polynomial("z^3/3", ("z",)), order=6)
    matrix = lattice.pairing_matrix()
    for p in range(2):
        for q in range(2):
            coeffs = matrix[p][q].coeffs
            if any(k >= 1 and v != 0 for k, v in coeffs.items()):
                return False, "u-corrections present on the cusp basis"
            res = coeffs.get(0, Fraction(0))
            if (p + q == 1) != (res != 0):
                return False, "residue matrix is not antidiagonal"
    quartic = BrieskornLattice(parse_polynomial("z^4/4", ("z",)), order=4)
    if quartic.residue_matrix_rank() != 3:
        return False, "z^4/4 residue rank != 3"
    return True, "cusp pairing antidiagonal and u-exact; quartic rank 3"


def _check_connection_spectrum():
    lattice = BrieskornLattice(parse_polynomial("z^3/3", ("z",)), order=6)
    spectrum = lattice.connection_spectrum()
    expected = [Fraction(1, 3), Fraction(2, 3)]
    if spectrum is None or sorted(spectrum) != expected:
        return False, f"u-connection eigenvalues {spectrum} != {{1/3, 2/3}}"
    return True, "u-connection eigenvalues {1/3, 2/3}"


def _check_wdvv():
    unfolding = universal_unfolding(parse_polynomial("z^3/3", ("z",)))
    data = build_flat_potential(unfolding, nt=4)
    residual = wdvv_residual(data)
    if residual != 0:
        return False, f"cusp WDVV residual {residual} != 0"
    single = universal_unfolding(parse_polynomial("z^2/2", ("z",)))
    pot = build_flat_potential(single, nt=4).potential
    cubic = {(3,): Fraction(1, 6)}
    if dict(pot.coeffs) != cubic:
        return False, f"node potential {pot} != s^3/6"
    return True, "cusp WDVV residual 0; node potential s^3/6"


def _check_ellipticity():
    report = check_quasihomogeneous_ellipticity(
        parse_polynomial("z^2/2", ("z",)))
    if report.verdict != "Satisfied":
        return False, f"z^2/2 verdict {report.verdict}"
    bad = check_laurent_nondegenerate(
        parse_polynomial("z+2+z^-1", ("z",), laurent=True))
    if bad.verdict != "Violated" or bad.witness is None:
        return False, f"z+2+z^-1 verdict {bad.verdict} without witness"
    good = check_laurent_nondegenerate(
        parse_polynomial("z+z^-1", ("z",), laurent=True))
    if good.verdict != "Satisfied":
        return False, f"z+z^-1 verdict {good.verdict}"
    return True, "quasi-homogeneous and torus checks give expected verdicts"


def _check_adjoints(seed: int):
    import numpy as np
    from .spectral import DiscreteForm, build_grid, inner
    from .spectral.operators import Operators
    rng = np.random.default_rng(seed)
    grid = build_grid(3.0, 17)
    f = parse_polynomial("z^3/3", ("z",))
    worst = 0.0
    for backend in ("fd1", "fd2", "spectral"):
        ops = Operators(grid, f, backend)
        for flavor in ("dbar_f", "d_f", "partial_f"):
            a = DiscreteForm(grid, rng.standard_normal((4, 17, 17))
                             + 1j * rng.standard_normal((4, 17, 17)))
            b = DiscreteForm(grid, rng.standard_normal((4, 17, 17))
                             + 1j * rng.standard_normal((4, 17, 17)))
            lhs = inner(ops.diff(flavor, a), b)
            rhs = inner(a, ops.diff_adjoint(flavor, b))
            worst = max(worst, abs(lhs - rhs) / max(abs(lhs), 1.0))
    if worst > 1e-12:
        return False, f"adjoint defect {worst:.2e}"
    return True, f"constructed adjoints exact (worst defect {worst:.2e})"


def _check_laplacian_flavors():
    from .spectral import build_grid
    from .spectral.operators import Operators
    grid = build_grid(3.0, 17)
    f = parse_polynomial("z^3/3", ("z",))
    ops = Operators(grid, f, "fd2")
    for degree in (0, 1, 2):
        dol = ops.laplacian_matrix("dbar_f", degree)
        hol = ops.laplacian_matrix("partial_f", degree)
        rel = abs(dol - hol).max() / abs(dol).max()
        if rel > 1e-12:
            return False, (f"degree {degree}: flavor Laplacians differ "
                           f"by {rel:.2e} relative")
    return True, ("antiholomorphic- and holomorphic-twist Laplacians agree "
                  "to rounding")


def _check_hodge(seed: int):
    import numpy as np
    import scipy.linalg as sla
    from .spectral import DiscreteForm, build_grid, hodge_decompose
    from .spectral.analysis import SpectralContext
    f = parse_polynomial("z^2/2", ("z",))
    grid = build_grid(4.0, 33)
    ctx = SpectralContext(f, grid, backend="fd1", seed=seed)
    # the split's kernel against the one an ARPACK eigensolve certifies
    K = ctx.kernel_matrix(1)
    res = ctx.eigensolve(1)
    E = res.vectors[:, :res.kernel_dim]
    if K.shape[1] != E.shape[1]:
        return False, (f"kernel dims {K.shape[1]} (context), "
                       f"{E.shape[1]} (eigensolve)")
    angle = float(np.max(sla.subspace_angles(K, E), initial=0.0))
    if angle > 1e-12:
        return False, f"kernel projectors differ by {angle:.2e}"
    rng = np.random.default_rng(seed)
    worst_residual = worst_cross = 0.0
    for _ in range(3):
        form = DiscreteForm(grid, rng.standard_normal((4, 33, 33))
                            + 1j * rng.standard_normal((4, 33, 33)))
        split = hodge_decompose(None, None, form, context=ctx)
        worst_residual = max(worst_residual, split.relative_residual)
        worst_cross = max(worst_cross, split.max_cross)
    if worst_residual > 1e-9 or worst_cross > 1e-9:
        return False, (f"residual {worst_residual:.2e}, "
                       f"cross {worst_cross:.2e}")
    return True, (f"split residual {worst_residual:.2e}, "
                  f"orthogonality {worst_cross:.2e}; degree-1 kernel of "
                  f"dimension {K.shape[1]} matches the eigensolve's "
                  f"projector to {angle:.2e}")


def _check_kernel_count(seed: int):
    from .spectral import build_grid, eigensolve_lowest
    f = parse_polynomial("z^2/2", ("z",))
    base = eigensolve_lowest(f, build_grid(4.0, 65), degree=1, k=6,
                             backend="fd1", seed=seed)
    bigger = eigensolve_lowest(f, build_grid(5.0, 81), degree=1, k=6,
                               backend="fd1", seed=seed)
    if base.kernel_dim != 1 or bigger.kernel_dim != 1:
        return False, (f"kernel dims {base.kernel_dim} (R=4), "
                       f"{bigger.kernel_dim} (R=5); expected 1")
    if not (base.reliable and bigger.reliable):
        return False, "kernel count not certified"
    return True, "degree-1 kernel is 1-dimensional and stable under R, m"


def _cmd_verify(cfg: RunConfig) -> Report:
    report = Report("verify", cfg)
    checks = [
        ("poly:truncated-arithmetic", lambda: _check_truncated_arithmetic(cfg.seed)),
        ("groebner:milnor-number", _check_milnor_numbers),
        ("brieskorn:reduction", _check_lattice_reduction),
        ("brieskorn:residue-pairing", _check_residue_pairing),
        ("brieskorn:u-connection", _check_connection_spectrum),
        ("frobenius:wdvv", _check_wdvv),
        ("ellipticity:verdicts", _check_ellipticity),
        ("spectral:adjoints", lambda: _check_adjoints(cfg.seed)),
        ("spectral:flavor-laplacians", _check_laplacian_flavors),
        ("spectral:hodge-split", lambda: _check_hodge(cfg.seed)),
        ("spectral:kernel-count", lambda: _check_kernel_count(cfg.seed)),
    ]
    ledger = []
    all_passed = True
    for name, check in checks:
        try:
            passed, detail = check()
        except Exception as exc:  # a crash is a failure, not an abort
            passed, detail = False, f"{type(exc).__name__}: {exc}"
        ledger.append({"check": name, "passed": passed, "detail": detail})
        all_passed = all_passed and passed
        if not passed:
            report.warnings.append(f"{name} failed: {detail}")
    report.warnings.append(
        "spectral:kernel-count verdict is numeric-only evidence")
    report.results = {"checks": ledger, "all_passed": all_passed}
    report.exit_status = 0 if all_passed else 1
    return report


_COMMANDS = {
    "analyze": _cmd_analyze,
    "pairing": _cmd_pairing,
    "frobenius": _cmd_frobenius,
    "spectrum": _cmd_spectrum,
    "verify": _cmd_verify,
}


def execute_command(cfg: RunConfig) -> Report:
    return _COMMANDS[cfg.command](cfg)


# -- report emission ---------------------------------------------------------


def _render_value(value, indent=0) -> list[str]:
    pad = "  " * indent
    lines = []
    if isinstance(value, dict):
        for key in value:
            sub = value[key]
            if isinstance(sub, (dict, list)) and sub:
                lines.append(f"{pad}{key}:")
                lines.extend(_render_value(sub, indent + 1))
            else:
                lines.append(f"{pad}{key}: {sub}")
    elif isinstance(value, list):
        for item in value:
            if isinstance(item, (dict, list)):
                lines.append(f"{pad}-")
                lines.extend(_render_value(item, indent + 1))
            else:
                lines.append(f"{pad}- {item}")
    else:
        lines.append(f"{pad}{value}")
    return lines


def emit_report(report: Report, cfg: RunConfig) -> None:
    """Print the report, then write ``--out`` and the ``--plot-dir``
    tables: the one place ``lg`` writes files.  A path that cannot be
    written is a ``UsageError`` naming it."""
    print(f"[{report.command}]")
    body = jsonable(report.results)
    for line in _render_value(body):
        print(line)
    for warning in report.warnings:
        print(f"warning: {warning}")
    try:
        if cfg.out:
            dump_json(report.describe(), cfg.out)
            print(f"report written to {cfg.out}")
        if cfg.plot_dir and report.tables:
            outdir = Path(cfg.plot_dir)
            outdir.mkdir(parents=True, exist_ok=True)
            for name, text in report.tables.items():
                # newline="" keeps each table's line ends as they are
                (outdir / name).write_text(text, newline="")
                print(f"plot data written to {outdir / name}")
    except OSError as exc:
        raise UsageError(f"cannot write {exc.filename}: {exc.strerror}")


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        cfg = parse_config(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    try:
        report = execute_command(cfg)
        emit_report(report, cfg)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except PolyError as exc:
        print(f"usage error: [{cfg.command}] {exc}", file=sys.stderr)
        return 2
    except PrecondError as exc:
        print(f"precondition unmet: [{cfg.command}] {exc}", file=sys.stderr)
        return 3
    except ComputeError as exc:
        print(f"computation failed: [{cfg.command}] {exc}", file=sys.stderr)
        return 1
    return report.exit_status


if __name__ == "__main__":
    raise SystemExit(main())
