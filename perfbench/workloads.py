"""The benchmark's workloads: seeded lists of jobs, each one user request.

A job's ``run`` is the timed request; it calls lglab's public functions
through the tracer so a traced run can attribute time to modules.  Its
``check`` runs after the timed span and returns the reasons it failed;
its ``counts`` reads deterministic sizes from what ``run`` returned.

Each workload has three scales.  ``bench`` is what the benchmark command
runs by default and is sized so several passes fit in one run.  ``full``
is the job list at production sizes (grids of 129 and 161 points, E6 at
nt=3, the μ=70 Milnor ring, the three-variable Laurent check), too slow
to repeat within one run but the way to regenerate the ROADMAP baseline
rows.  ``smoke`` is a small job or two, for the harness self-test.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import random
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path
from typing import Callable

import numpy as np

from lglab import cli
from lglab.brieskorn import (BrieskornLattice, PairingSeries,
                              twisted_differential)
from lglab.ellipticity import (check_laurent_nondegenerate,
                               check_quasihomogeneous_ellipticity)
from lglab.frobenius import (build_flat_potential, universal_unfolding,
                             wdvv_residual)
from lglab.groebner import milnor_ring
from lglab.poly import Polynomial, parse_polynomial
from lglab.spectral import (Operators, SpectralContext, build_grid,
                            derham_compare, eigensolve_lowest,
                            hodge_decompose, homotopy_identity_check,
                            splitting_map)
from lglab.spectral.forms import random_smooth_form
from lglab.util import PrecondError

from tracing import Tracer

WORKLOADS = ("grid-kernel", "grid-reuse", "exact")
SCALES = ("smoke", "bench", "full")


@dataclass
class Job:
    name: str
    run: Callable[[Tracer], object]
    check: Callable[[object], list[str]]
    counts: Callable[[object], dict[str, int]] = lambda result: {}
    # lg jobs: the report bytes of the previous execution, for byte comparison
    last_out: bytes | None = field(default=None, repr=False)


def _fails(*pairs) -> list[str]:
    """The messages of the (condition, message) pairs whose condition is false."""
    return [msg for ok, msg in pairs if not ok]


class Inputs:
    """Parses every input polynomial once, in set-up, through the tracer."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer

    def poly(self, text: str, names, laurent: bool = False) -> Polynomial:
        return self.tracer.call("poly.parse", parse_polynomial, text,
                                tuple(names), laurent=laurent)


# -- spectral jobs ----------------------------------------------------------


def _assemble(grid, f, backend, degrees, ctx=None):
    """An ``Operators`` object with its Laplacian matrices built."""
    ops = ctx.ops if ctx is not None else Operators(grid, f, backend)
    for d in degrees:
        ops.laplacian_matrix("dbar_f", d)
    return ops


def _matrix_counts(ops, degrees) -> dict[str, int]:
    dim = nnz = 0
    for d in degrees:
        M = ops.laplacian_matrix("dbar_f", d)
        dim += M.shape[0]
        nnz += M.nnz if ops.sparse else int(np.count_nonzero(M))
    return {"spectral.matrix_dim": dim, "spectral.matrix_nnz": nnz}


def _seed_cycle(rng, n: int = 8):
    """Start-vector seeds for a job's successive executions.

    ARPACK's work depends on its start vector, so one seed per job would
    make a run's times hinge on a single draw; cycling through ``n`` seeds
    lets a job's median over passes average over several."""
    return itertools.cycle([rng.randrange(1, 2**31) for _ in range(n)])


def eigensolve_job(f, text, grid, mu, seeds) -> Job:
    def run(tr):
        seed = next(seeds)
        ops = tr.call("spectral.assembly", _assemble, grid, f, "fd1", [1])
        res = tr.call("spectral.eigensolve", eigensolve_lowest, f, grid,
                      degree=1, k=6, backend="fd1", seed=seed, operators=ops)
        return ops, res

    def check(out):
        _, res = out
        return _fails((res.kernel_dim == mu,
                       f"kernel_dim {res.kernel_dim} != mu {mu}"),
                      (res.reliable, "kernel count not reliable"))

    def counts(out):
        ops, res = out
        return {**_matrix_counts(ops, [1]),
                "spectral.pairs_returned": len(res.eigenvalues)}

    return Job(f"eigensolve {text} {grid.half_width:g}/{grid.points}",
               run, check, counts)


def derham_job(f, text, grid, mu, seeds) -> Job:
    def run(tr):
        return tr.call("spectral.derham", derham_compare, f, grid,
                       backend="fd1", seed=next(seeds))

    def check(rep):
        angle = rep["max_angle_degrees"]
        return _fails((rep["dims_agree"], "dims disagree"),
                      (rep["dolbeault_dim"] == mu,
                       f"dolbeault_dim {rep['dolbeault_dim']} != {mu}"),
                      (angle is not None and angle <= 2.0,
                       f"max angle {angle} above 2 degrees"))

    def counts(rep):
        return {"spectral.pairs_returned": sum(
            len(rep[k]["eigenvalues"]) for k in ("dolbeault", "mid", "derham"))}

    return Job(f"derham {text} {grid.half_width:g}/{grid.points}",
               run, check, counts)


def hodge_job(f, text, grid, forms, seeds) -> Job:
    """One context per potential, reused for every Hodge split."""
    def run(tr):
        ctx = SpectralContext(f, grid, backend="fd1", seed=next(seeds))
        tr.call("spectral.assembly", _assemble, grid, f, "fd1", (0, 1, 2), ctx)

        def factor():
            for d in (0, 1, 2):
                ctx.kernel_matrix(d)
            ctx.solver(0)
            ctx.solver(2)
        tr.call("spectral.context_factor", factor)
        splits = [tr.call("spectral.hodge", hodge_decompose, f, grid, a,
                          backend="fd1", context=ctx) for a in forms]
        return ctx, splits

    def check(out):
        _, splits = out
        worst = max(max(s.relative_residual, s.max_cross) for s in splits)
        return _fails((worst <= 1e-9, f"hodge residual/cross {worst:.2e}"))

    def counts(out):
        ctx, _ = out
        return {**_matrix_counts(ctx.ops, (0, 1, 2)),
                "spectral.pairs_returned": sum(
                    len(ctx.eigensolve(d).eigenvalues) for d in (0, 1, 2))}

    return Job(f"hodge x{len(forms)} {text} {grid.half_width:g}/{grid.points}",
               run, check, counts)


def splitting_job(f, text, grid) -> Job:
    """C04: dense spectral backend, lift every harmonic to order 5."""
    def run(tr):
        ctx = SpectralContext(f, grid, backend="spectral")
        tr.call("spectral.assembly", _assemble, grid, f, "spectral", (1, 2),
                ctx)
        res = tr.call("spectral.eigensolve", ctx.eigensolve, 1, k=6)
        tr.call("spectral.context_factor", ctx.solver, 2)
        lifts = []
        for phi in res.eigenforms:
            try:
                lifts.append(tr.call("spectral.splitting", splitting_map, f,
                                     grid, phi, orders=5, context=ctx))
            except PrecondError:
                pass  # boundary-seam pseudo-modes fail harmonicity
        return ctx, res, lifts

    def check(out):
        _, _, lifts = out
        return _fails(
            (len(lifts) == 2, f"{len(lifts)} lifts, expected 2"),
            (all(max(s.residuals) <= 1e-8 for s in lifts),
             "lift residual above 1e-8"),
            (all(len(s.coefficients) == 6 for s in lifts),
             "lift does not reach order 5"))

    def counts(out):
        ctx, res, _ = out
        return {**_matrix_counts(ctx.ops, (1, 2)),
                "spectral.pairs_returned": len(res.eigenvalues)}

    return Job(f"splitting {text} {grid.half_width:g}/{grid.points}",
               run, check, counts)


def homotopy_job(f, text, grid) -> Job:
    def run(tr):
        return tr.call("spectral.homotopy", homotopy_identity_check, f, grid,
                       levels=3, backend="fd2")

    def check(rep):
        ratios = rep["ratios"]
        return _fails((len(ratios) == 2, f"{len(ratios)} ratios"),
                      (all(3.5 <= r <= 4.5 for r in ratios),
                       f"ratios {ratios} outside [3.5, 4.5]"))

    return Job(f"homotopy {text} {grid.half_width:g}/{grid.points}",
               run, check)


# -- exact jobs --------------------------------------------------------------


def _ring_counts(rings) -> dict[str, int]:
    size = terms = digits = 0
    for ring in rings:
        size += len(ring.gb.elements)
        for row in ring.gb.cofactors:
            for c in row:
                terms += len(c.coeffs)
                for q in c.coeffs.values():
                    digits = max(digits, len(str(q.denominator)))
    return {"groebner.basis_size": size, "groebner.cofactor_terms": terms,
            "groebner.cofactor_den_digits": digits}


def milnor_job(f, text, mu) -> Job:
    def run(tr):
        return tr.call("groebner.milnor_ring", milnor_ring, f)

    def check(ring):
        return _fails((ring.mu == mu, f"mu {ring.mu} != {mu}"))

    return Job(f"milnor {text}", run, check, lambda ring: _ring_counts([ring]))


def _certificate_holds(L, g, el, eta) -> bool:
    """g - twisted_differential(f, eta) == element, exactly over Q."""
    image = twisted_differential(L.f, eta)
    want = L.to_polynomial_series(el)
    zero = Polynomial.zero(L.f.names)
    for k in range(el.order + 1):
        lhs = g if k == 0 else zero
        if k in image.coeffs:
            lhs = lhs - image.coeffs[k].function_part()
        if lhs != want.get(k, zero):
            return False
    return True


def reduce_job(f, text, cases) -> Job:
    """Certified reductions of seeded g, each at its u-order, through one
    lattice."""
    top = max(order for _, order in cases)

    def run(tr):
        L = tr.call("brieskorn.lattice", BrieskornLattice, f, order=top)
        return L, [(g, *tr.call("brieskorn.reduce", L.reduce_with_certificate,
                                g, order)) for g, order in cases]

    def check(out):
        L, triples = out
        return _fails((all(_certificate_holds(L, *t) for t in triples),
                       "reduction certificate fails over Q"))

    def counts(out):
        L, triples = out
        terms = sum(len(p.coeffs) for _, _, eta in triples
                    for v in eta.coeffs.values() for p in v.parts.values())
        return {**_ring_counts([L.ring]), "brieskorn.cert_terms": terms}

    return Job(f"reduce x{len(cases)} {text} order <={top}", run, check,
               counts)


def _exponents(ring) -> list[Fraction]:
    """Spectrum of a quasi-homogeneous f: sum_i (m_i + 1) q_i over the basis."""
    q = ring.weights.q
    return sorted(sum((e + 1) * w for e, w in zip(m, q)) for m in ring.basis)


def lattice_job(f, text, mu, order, extra=None) -> Job:
    """Residue rank, pairing matrix and connection spectrum of one lattice.

    ``extra(L, M)`` returns the failures of further checks on the lattice
    and its pairing matrix; like every check it runs after the timed span."""
    def run(tr):
        L = tr.call("brieskorn.lattice", BrieskornLattice, f, order=order)
        rank = tr.call("brieskorn.pairing", L.residue_matrix_rank)
        M = tr.call("brieskorn.pairing", L.pairing_matrix)
        spectrum = tr.call("brieskorn.connection", L.connection_spectrum)
        return L, rank, M, spectrum

    def check(out):
        L, rank, M, spectrum = out
        fails = _fails((L.mu == mu, f"mu {L.mu} != {mu}"),
                       (rank == mu, f"residue rank {rank} != {mu}"),
                       (spectrum is not None
                        and sorted(spectrum) == _exponents(L.ring),
                        f"connection spectrum {spectrum}"))
        if extra is not None:
            fails += extra(L, M)
        return fails

    return Job(f"lattice {text} order {order}", run, check,
               lambda out: _ring_counts([out[0].ring]))


def _c06_checks(z):
    """C06: reductions of z^2 and z^3 and the anti-diagonal pairing of z^3/3."""
    def extra(L, M):
        zero = PairingSeries({}, L.order)
        unit = PairingSeries({0: Fraction(1)}, L.order)
        return _fails(
            (L.reduce(z["z^2"]).is_zero(), "z^2 does not reduce to zero"),
            (L.reduce(z["z^3"]).coords == {1: (Fraction(-1), Fraction(0))},
             "z^3 reduces wrongly"),
            (M[0][0] == zero and M[1][1] == zero and M[0][1] == unit
             and M[1][0] == unit, "pairing is not anti-diagonal"))
    return extra


def ellipticity_job(quasi, laurent) -> Job:
    """C12: verdicts on quasi-homogeneous and Laurent potentials."""
    def run(tr):
        q = [tr.call("ellipticity.quasihom", check_quasihomogeneous_ellipticity,
                     f) for f, _ in quasi]
        lr = [tr.call("ellipticity.laurent", check_laurent_nondegenerate, f)
              for f, _, _ in laurent]
        return q, lr

    def check(out):
        q, lr = out
        fails = [f"{text}: {r.verdict}" for (_, text), r in zip(quasi, q)
                 if r.verdict != "Satisfied"]
        for (_, text, (verdict, witness)), r in zip(laurent, lr):
            if r.verdict != verdict or (witness is not None
                                        and r.witness != witness):
                fails.append(f"{text}: {r.verdict} witness {r.witness}")
        return fails

    return Job(f"ellipticity x{len(quasi) + len(laurent)}", run, check)


def flat_job(f, text, nt, potential=None) -> Job:
    """C09: unfolding -> flat potential -> WDVV residual."""
    def run(tr):
        U = tr.call("frobenius.unfolding", universal_unfolding, f)
        D = tr.call("frobenius.flat", build_flat_potential, U, nt=nt)
        return D, tr.call("frobenius.wdvv", wdvv_residual, D)

    def check(out):
        D, residual = out
        return _fails((residual == 0, f"wdvv residual {residual}"),
                      (potential is None or D.potential == potential,
                       f"potential {D.potential}"))

    return Job(f"flat {text} nt {nt}", run, check,
               lambda out: {"frobenius.potential_terms":
                            len(out[0].potential.coeffs)})


# -- lg jobs -----------------------------------------------------------------


def cli_job(argv: list[str], out_path: Path, expect) -> Job:
    """One ``lg`` invocation writing ``--out``; ``expect(results)`` checks
    the report.  Its check also byte-compares the report with the one the
    previous execution of this job wrote."""
    full = argv + ["--out", str(out_path)]

    def run(tr):
        out_path.unlink(missing_ok=True)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            code = tr.call("cli.main", cli.main, full)
        data = out_path.read_bytes() if out_path.exists() else b""
        return code, data

    job = Job("lg " + " ".join(argv), run, check=None,
              counts=lambda out: {"cli.out_bytes": len(out[1])})

    def check(out):
        code, data = out
        if code != 0 or not data:
            return [f"exit {code}, {len(data)} report bytes"]
        previous, job.last_out = job.last_out, data
        fails = _fails((previous is None or previous == data,
                        "--out differs from the previous run"))
        return fails + expect(json.loads(data)["results"])

    job.check = check
    return job


# -- the workloads -------------------------------------------------------------


Z = ("z",)

GRID_KERNEL = {
    "smoke": {"settings": [(4.0, 49)], "potentials": ["z^3/3"],
              "derham": [], "lg_grid": None},
    "bench": {"settings": [(4.0, 49), (5.0, 49), (4.0, 65)],
              "potentials": ["z^2/2", "z^3/3", "z^4/4"],
              "derham": [("z^2/2", 4.0, 49), ("z^3/3", 4.0, 65)],
              "lg_grid": 65},
    "full": {"settings": [(4.0, 129), (5.0, 129), (4.0, 161)],
             "potentials": ["z^2/2", "z^3/3", "z^4/4"],
             "derham": [("z^2/2", 4.0, 129), ("z^3/3", 4.0, 129)],
             "lg_grid": 129},
}

GRID_REUSE = {
    "smoke": {"hodge": (4.0, 33), "potentials": ["z^3/3"], "forms": 1,
              "splitting": None, "homotopy": False},
    "bench": {"hodge": (4.0, 65), "potentials": ["z^2/2", "z^3/3", "z^4/4"],
              "forms": 4, "splitting": (4.5, 25), "homotopy": True},
    "full": {"hodge": (4.0, 129), "potentials": ["z^2/2", "z^3/3", "z^4/4"],
             "forms": 8, "splitting": (4.5, 41), "homotopy": True},
}

MU = {"z^2/2": 1, "z^3/3": 2, "z^4/4": 3}

# Reductions draw seeded coefficients on a fixed monomial support, so the
# cost of a job depends on the support and hardly on the seed.
F35 = "x^3+y^3+w^3+v^2+x*y*w*v"
F70 = "x^3+y^3+w^3+v^3+x*y*w*v^2"
# mu=14, but with 418 cofactor terms: certified reductions on it take
# 0.1-0.2 s each, where those on F35 take 1-4 s (bench scale).
F14 = "x^3+y^3+w^3+x*y*w+x^2*y^2"
EXACT_LATTICE = {
    "smoke": {"milnor": [("x^3+y^4", 6)], "reduce": [], "lattices": [],
              "ellipticity": False, "lg": []},
    "bench": {
        "milnor": [(F35, 35), ("x^4+y^5+w^4+x^2*y^2*w^2", 68),
                   ("x^3+y^3+w^3", 8), ("x^3+y^4", 6)],
        "reduce": [(F14, [(1, [(3, 0, 1), (2, 2, 1)]),
                          (1, [(4, 1, 0), (2, 2, 2)])])],
        "lattices": [("z^3/3", 2, 8), ("x^3+y^3", 4, 5), ("z^4/4", 3, 8),
                     ("x^4+y^4+w^4", 27, 5), ("x^3+y^3+w^3+v^3", 16, 5)],
        "ellipticity": True,
        "lg": [(["analyze", "x+y+x^-1*y^-1", "--laurent"], "Satisfied"),
               (["pairing", "x^3+y^3"], 4)],
    },
    "full": {
        "milnor": [(F35, 35), (F70, 70), ("x^4+y^5+w^4+x^2*y^2*w^2", 68),
                   ("x^3+y^3+w^3", 8), ("x^3+y^4", 6)],
        "reduce": [(F35, [(2, [(3, 0, 0, 0), (1, 1, 1, 1)]),
                          (2, [(2, 0, 2, 0), (0, 3, 0, 0)])]),
                   (F70, [(2, [(1, 1, 1, 1), (2, 0, 2, 0)])])],
        "lattices": [("z^3/3", 2, 8), ("x^3+y^3", 4, 5), ("z^4/4", 3, 8),
                     ("x^4+y^4+w^4", 27, 5), ("x^3+y^3+w^3+v^3", 16, 5)],
        "ellipticity": True,
        "lg": [(["analyze", "x+y+w+x^-1*y^-1*w^-1", "--laurent"],
                "LikelySatisfied"),
               (["pairing", "x^3+y^3"], 4)],
    },
}

C12_QUASI = ["z^2/2", "z^3/3", "z^4/4", "z^5/5", "x^3+y^3", "x^4+y^4",
             "x^3+y^4", "x^2*y+y^4", "x^2+y^2+w^2", "x^3+y^3+w^3"]
C12_LAURENT = [("z+2+z^-1", "Violated", (complex(-1),)),
               ("z+z^-1", "Satisfied", None),
               ("x+y+x^-1*y^-1", "Satisfied", None)]

# The bench scale sends D4 through `lg frobenius` and builds E6 at nt=1 and
# D5 at nt=2 through the API, so no job takes more than half a second and
# every job runs many times in a run; the full scale runs `lg frobenius` on
# E6 at nt=3, the ROADMAP baseline row.
EXACT_FLAT = {
    "smoke": {"flat": [("z^3/3", 4)], "lg": None},
    "bench": {"flat": [("z^2/2", 4), ("z^3/3", 6), ("z^4/4", 5), ("z^5/5", 5),
                       ("x^3+y^4", 1), ("x^2*y+y^4", 2)],
              "lg": ("x^2*y+y^3", 3)},
    "full": {"flat": [("z^2/2", 4), ("z^3/3", 6), ("z^4/4", 5), ("z^5/5", 5),
                      ("x^2*y+y^3", 3), ("x^3+y^4", 2)],
             "lg": ("x^3+y^4", 3)},
}


def _names(text: str) -> tuple[str, ...]:
    return tuple(v for v in ("x", "y", "w", "v", "z") if v in text)


def _grid_kernel(p, inputs, rng, out_dir):
    jobs = []
    fs = {t: inputs.poly(t, Z) for t in p["potentials"]}
    for text, f in fs.items():
        for hw, pts in p["settings"]:
            jobs.append(eigensolve_job(f, text, build_grid(hw, pts), MU[text],
                                       seeds=_seed_cycle(rng)))
    for text, hw, pts in p["derham"]:
        jobs.append(derham_job(fs[text], text, build_grid(hw, pts), MU[text],
                               seeds=_seed_cycle(rng)))
    if p["lg_grid"]:
        jobs.append(cli_job(
            ["spectrum", "z^3/3", "--grid", str(p["lg_grid"]), "--radius", "4"],
            out_dir / "spectrum.json",
            lambda r: _fails((r["kernel_dim"] == 2 and r["reliable"],
                              f"kernel_dim {r['kernel_dim']}"))))
    return jobs


def _grid_reuse(p, inputs, rng, out_dir):
    jobs = []
    grid = build_grid(*p["hodge"])
    for text in p["potentials"]:
        forms = [random_smooth_form(grid, rng) for _ in range(p["forms"])]
        jobs.append(hodge_job(inputs.poly(text, Z), text, grid, forms,
                              seeds=_seed_cycle(rng)))
    if p["splitting"]:
        jobs.append(splitting_job(inputs.poly("z^3/3", Z), "z^3/3",
                                  build_grid(*p["splitting"])))
    if p["homotopy"]:
        jobs.append(homotopy_job(inputs.poly("z^2/2", Z), "z^2/2",
                                 build_grid(4.0, 65)))
    return jobs


def _exact_lattice(p, inputs, rng, out_dir):
    jobs = [milnor_job(inputs.poly(t, _names(t)), t, mu)
            for t, mu in p["milnor"]]
    for text, supports in p["reduce"]:
        f = inputs.poly(text, _names(text))
        cases = [(Polynomial({m: Fraction(rng.choice((-1, 1)) * rng.randint(1, 9))
                              for m in support}, f.names), order)
                 for order, support in supports]
        jobs.append(reduce_job(f, text, cases))
    for text, mu, order in p["lattices"]:
        extra = None
        if text == "z^3/3":
            extra = _c06_checks({t: inputs.poly(t, Z) for t in ("z^2", "z^3")})
        jobs.append(lattice_job(inputs.poly(text, _names(text)), text, mu,
                                order, extra))
    if p["ellipticity"]:
        quasi = [(inputs.poly(t, _names(t)), t) for t in C12_QUASI]
        laurent = [(inputs.poly(t, _names(t), laurent=True), t, (v, w))
                   for t, v, w in C12_LAURENT]
        jobs.append(ellipticity_job(quasi, laurent))
    for k, (argv, want) in enumerate(p["lg"]):
        if argv[0] == "analyze":
            def expect(r, want=want):
                verdict = r["ellipticity"]["verdict"]
                return _fails((verdict == want, f"verdict {verdict}"))
        else:
            def expect(r, want=want):
                rank = r["residue_pairing_rank"]
                return _fails((rank == want, f"residue rank {rank}"))
        jobs.append(cli_job(argv, out_dir / f"{argv[0]}-{k}.json", expect))
    return jobs


def _exact_flat(p, inputs, rng, out_dir):
    jobs = []
    for text, nt in p["flat"]:
        potential = (inputs.poly("s0^3/6", ("s0",)) if text == "z^2/2"
                     else None)
        jobs.append(flat_job(inputs.poly(text, _names(text)), text, nt,
                             potential))
    if p["lg"] is not None:
        text, nt = p["lg"]
        jobs.append(cli_job(
            ["frobenius", text, "--t-order", str(nt)],
            out_dir / "frobenius.json",
            lambda r: _fails((r["wdvv_residual"] == "0",
                              f"wdvv residual {r['wdvv_residual']}"))))
    return jobs


# "exact" is the lattice jobs followed by the Frobenius jobs: one workload
# with a longer run is steadier than two, and the per-layer metrics still
# separate the Groebner/lattice share from the Frobenius share.
_BUILDERS = {
    "grid-kernel": [(_grid_kernel, GRID_KERNEL)],
    "grid-reuse": [(_grid_reuse, GRID_REUSE)],
    "exact": [(_exact_lattice, EXACT_LATTICE), (_exact_flat, EXACT_FLAT)],
}


def build_jobs(workload: str, scale: str, seed: int, tracer: Tracer,
               out_dir: Path) -> list[Job]:
    """Parse the inputs, build the grids and draw the seeded inputs."""
    out_dir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(seed)
    inputs = Inputs(tracer)
    return [job for builder, params in _BUILDERS[workload]
            for job in builder(params[scale], inputs, rng, out_dir)]
