#!/usr/bin/env python3
"""lglab benchmark: one client runs a workload's jobs in a closed loop.

    python3 perfbench/run.py --workload grid-kernel --seed 1 --seconds 38 --trace 0

Run from the root of a source checkout; lglab is imported from ``src/``.
A run sets up (imports, parses the inputs, builds grids, draws seeded
inputs), then runs passes over the job list, one job in flight at a
time, until ``--seconds`` is spent.  Every job's result is checked after
its timed span; a failed job counts in ``failed`` and its pass is left
out of every timing.

``--trace 0`` reports the end-to-end metrics:

- ``setup_s``: median over set-up probes, each a fresh process timed
  from spawn until its job list is ready;
- ``wall_ref``: time of one pass over the job list in units of a
  reference computation (``reference.py``) timed just before each job.
  Each job's time is divided by the median of the 11 reference times
  nearest to it, the job counts as the median of that ratio over clean
  passes, and ``wall_ref`` sums the jobs.  A shared host's speed drifts
  by up to 1.6x for minutes, and the ratio cancels the drift where
  seconds cannot.  The provenance line gives the pass in seconds too;
- ``peak_rss_mib``: ``ru_maxrss`` of this process.

``--trace 1`` records spans around every call into lglab and reports
per-stage busy seconds (median over passes) and deterministic counts,
and prints a per-layer busy/self-time table.

The last line of standard output is the result as one JSON object.
Earlier lines carry provenance and the counts block; results, counts and
traces are also written under ``perfbench/out/``.  The exit code is 0
only if every check passed.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from reference import REFERENCES, timed
from tracing import Tracer, layer_table, stage_seconds

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_PROBES = 5
REF_WINDOW = 5  # a job's reference: the median of the refs within 5 of it

END_TO_END = {"setup_s": "s", "wall_ref": "ref", "peak_rss_mib": "MiB"}
STAGES = ("poly.parse", "groebner.milnor_ring", "brieskorn.lattice",
          "brieskorn.reduce", "brieskorn.pairing", "brieskorn.connection",
          "ellipticity.quasihom", "ellipticity.laurent",
          "frobenius.unfolding", "frobenius.flat", "frobenius.wdvv",
          "spectral.assembly", "spectral.eigensolve", "spectral.derham",
          "spectral.context_factor", "spectral.hodge", "spectral.splitting",
          "spectral.homotopy", "cli.main")
COUNTS = {"groebner.basis_size": "count", "groebner.cofactor_terms": "count",
          "groebner.cofactor_den_digits": "digits",
          "brieskorn.cert_terms": "count", "frobenius.potential_terms": "count",
          "spectral.matrix_dim": "count", "spectral.matrix_nnz": "count",
          "spectral.pairs_returned": "count", "cli.out_bytes": "bytes"}
PER_LAYER = {**{f"{s}_s": "s" for s in STAGES}, **COUNTS}

# Jobs that regenerate a row of the ROADMAP baseline table (at --scale full).
BASELINE_ROWS = {
    "eigensolve z^3/3 4/129": "eigensolve_lowest z^3/3, 129^2, degree 1, fd1",
    "splitting z^3/3 4.5/41": "C04 spectral backend, 41^2",
    "lg frobenius x^3+y^4 --t-order 3": "lg frobenius x^3+y^4 --t-order 3 (E6)",
    "lg analyze x+y+w+x^-1*y^-1*w^-1 --laurent":
        "check_laurent_nondegenerate x+y+w+1/(xyw), via lg analyze",
}
EXCLUDED_ROWS = (
    "tier-1 suite (a test run, not a benchmark job)",
    "build_flat_potential E8 nt=3 (101 s per call)",
    "milnor_ring x^3+y^3+w^3+v^3+xywv, mu=43 (430 s per call)",
)


def cap_blas_threads() -> tuple[int, int]:
    """Cap OpenBLAS at the CPUs this process may use; before numpy loads."""
    nproc = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    cap = min(int(current), nproc) if current.isdigit() else nproc
    os.environ["OPENBLAS_NUM_THREADS"] = str(cap)
    return nproc, cap


def import_workloads():
    """Import the benchmark's job definitions, and lglab from this checkout."""
    src = ROOT / "src"
    if not (src / "lglab" / "__init__.py").is_file():
        sys.exit(f"error: no lglab sources under {src}")
    sys.path.insert(0, str(src))
    import workloads
    return workloads


def source_hash() -> str:
    """SHA-256 over the program's sources: names the commit without git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def git_commit() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=38.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", default="bench",
                    help="smoke | bench | full (see workloads.py)")
    ap.add_argument("--setup-probe", action="store_true",
                    help=argparse.SUPPRESS)
    return ap.parse_args(argv)


def probe_setup(args) -> float:
    """Seconds from spawning a fresh process until its job list is ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed),
           "--scale", args.scale]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        code = proc.wait(timeout=120)
    if code != 0 or line.strip() != "ready":
        sys.exit(f"error: set-up probe failed with exit code {code}")
    return elapsed


def merge_counts(total: dict, part: dict) -> None:
    for key, value in part.items():
        if key.endswith("_digits"):
            total[key] = max(total.get(key, 0), value)
        else:
            total[key] = total.get(key, 0) + value


def run_passes(jobs, tracer, seconds, reference):
    """Closed loop over the job list until ``seconds`` are spent.

    Before each job, ``reference`` is timed once.  Returns one record per
    pass: its job times and reference times, whether every job passed, its
    counts and the ids of its job spans."""
    passes, attempted, failed = [], 0, 0
    runs = {id(job): 0 for job in jobs}
    start = time.perf_counter()
    while True:
        gc.collect()
        pass_start = time.perf_counter()
        record = {"seconds": 0.0, "ok": True, "counts": {}, "job_ids": set(),
                  "times": [], "refs": []}
        for job in jobs:
            record["refs"].append(timed(reference))
            attempted += 1
            runs[id(job)] += 1
            fails, result = [], None
            with tracer.job(job.name) as span:
                t0 = time.perf_counter()
                try:
                    result = job.run(tracer)
                except Exception as exc:  # a job error is a failed job
                    fails = [f"raised {type(exc).__name__}: {exc}"]
                t1 = time.perf_counter()
            if not fails:
                try:
                    fails = job.check(result)
                    merge_counts(record["counts"], job.counts(result))
                except Exception as exc:
                    fails = [f"check raised {type(exc).__name__}: {exc}"]
            if span is not None:
                span.ok = not fails
                record["job_ids"].add(span.id)
            if fails:
                failed += 1
                record["ok"] = False
                print(f"FAILED {job.name}: {'; '.join(fails)}", file=sys.stderr)
            record["seconds"] += t1 - t0
            record["times"].append(t1 - t0)
        record["elapsed"] = time.perf_counter() - pass_start  # with checks
        passes.append(record)
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(p["elapsed"] for p in passes) > seconds:
            break
    # every lg report is compared with a second run of the same job
    for job in jobs:
        if job.last_out is not None and runs[id(job)] == 1:
            try:
                fails = job.check(job.run(Tracer(tracer.run_id, False)))
            except Exception as exc:
                fails = [f"rerun raised {type(exc).__name__}: {exc}"]
            if fails:
                failed += 1
                passes[0]["ok"] = False
                print(f"FAILED {job.name} (rerun): {'; '.join(fails)}",
                      file=sys.stderr)
    return passes, attempted, failed


def wall_in_refs(passes) -> float | None:
    """Sum over jobs of the median, over clean passes, of the job's time
    divided by the median of the reference times nearest to it.

    A single reference time can be off by 2-3x when it follows native
    code whose BLAS threads are still spinning; the median of the 11
    nearest ones is not, and still follows drifts lasting seconds."""
    refs = [r for p in passes for r in p["refs"]]
    n = len(passes[0]["refs"])

    def local(i):
        return statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])

    ratios = [[t / local(k * n + j) for j, t in enumerate(p["times"])]
              for k, p in enumerate(passes) if p["ok"]]
    if not ratios:
        return None
    return sum(statistics.median(job) for job in zip(*ratios))


def check_counts(passes, key: str) -> tuple[dict, list[str]]:
    """The counts of a run, and how they differ from other passes and from
    earlier runs of the same sources, workload, scale and seed."""
    clean = [p["counts"] for p in passes if p["ok"]]
    if not clean:
        return {}, []
    counts = clean[0]
    problems = [f"counts differ between passes: {c} vs {counts}"
                for c in clean[1:] if c != counts]
    store_path = OUT / "counts.json"
    store = json.loads(store_path.read_text()) if store_path.exists() else {}
    if key in store and store[key] != counts:
        problems.append(f"counts differ from an earlier run: {store[key]}")
    store[key] = counts
    store_path.write_text(json.dumps(store, indent=1, sort_keys=True))
    return counts, problems


def median_or_none(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    args = parse_args(argv)
    nproc, blas_cap = cap_blas_threads()
    if args.setup_probe:
        workloads = import_workloads()
        workloads.build_jobs(args.workload, args.scale, args.seed,
                             Tracer("probe", False), OUT / "probe")
        print("ready", flush=True)
        return 0

    samples = [probe_setup(args) for _ in range(SETUP_PROBES)]
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        sys.exit(f"error: unknown workload {args.workload!r}")
    if args.scale not in workloads.SCALES:
        sys.exit(f"error: unknown scale {args.scale!r}")
    import numpy
    import scipy

    tree = source_hash()
    run_id = f"{args.workload}-{args.seed}-{os.getpid()}-{time.time_ns()}"
    tracer = Tracer(run_id, bool(args.trace))
    with tracer.job("setup"):
        jobs = workloads.build_jobs(args.workload, args.scale, args.seed,
                                    tracer, OUT / "cli" / args.workload)
    passes, attempted, failed = run_passes(
        jobs, tracer, args.seconds, REFERENCES[args.workload]())

    key = f"{tree}|{args.workload}|{args.scale}|{args.seed}"
    counts, problems = check_counts(passes, key)
    for problem in problems:
        print(f"FAILED counts: {problem}", file=sys.stderr)
    clean = [p for p in passes if p["ok"]]
    wall = wall_in_refs(passes)
    wall_seconds = ref_seconds = None
    if clean:
        wall_seconds = statistics.median(p["seconds"] for p in clean)
        ref_seconds = statistics.median(r for p in clean for r in p["refs"])
    correct = failed == 0 and not problems and wall is not None

    provenance = {
        "git_commit": git_commit(), "source_hash": tree,
        "workload": args.workload, "seed": args.seed, "scale": args.scale,
        "seconds": args.seconds, "trace": args.trace, "run_id": run_id,
        "nproc": nproc, "OPENBLAS_NUM_THREADS": blas_cap,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "passes": len(passes),
        "clean_passes": len(clean), "jobs_per_pass": len(jobs),
        "pass_seconds_median": wall_seconds, "ref_seconds_median": ref_seconds,
        "failed_frac": failed / attempted,
    }
    if args.trace:
        setup_ids = {s.id for s in tracer.spans if s.name == "setup"}
        per_pass = [stage_seconds(tracer.spans, p["job_ids"]) for p in clean]
        values = {f"{s}_s": median_or_none([t.get(s, 0.0) for t in per_pass])
                  for s in STAGES}
        values["poly.parse_s"] = stage_seconds(
            tracer.spans, setup_ids).get("poly.parse", 0.0)
        values.update({k: counts.get(k, 0) for k in COUNTS})
        units = PER_LAYER
    else:
        values = {"setup_s": statistics.median(samples), "wall_ref": wall,
                  "peak_rss_mib":
                  resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024}
        units = END_TO_END
    metrics = {name: {"value": values[name], "unit": unit}
               for name, unit in units.items()}
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": metrics}

    OUT.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-{args.scale}-trace{args.trace}-seed{args.seed}"
    record = {"provenance": provenance, "counts": counts,
              "setup_samples": samples, "pass_seconds":
              [p["seconds"] for p in passes],
              "job_seconds": [p["times"] for p in passes],
              "ref_seconds": [p["refs"] for p in passes], "result": result}
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        tracer.write(OUT / f"{stem}.spans.json")
        print_trace_report(tracer, jobs, clean, wall, args)
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({"counts": counts}, sort_keys=True))
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def print_trace_report(tracer, jobs, clean, wall, args) -> None:
    """Per-layer busy/self table, per-job medians, baseline rows, overhead."""
    print(f"# {args.workload} ({args.scale}): layer times summed over "
          f"{len(clean)} clean passes")
    print(f"{'layer':<12} {'calls':>6} {'busy_s':>10} {'self_s':>10}")
    for layer, calls, busy, self_s in layer_table(tracer.spans):
        print(f"{layer:<12} {calls:>6} {busy:>10.4f} {self_s:>10.4f}")
    print(f"{'job':<48} {'median_s':>10}")
    for k, job in enumerate(jobs if clean else []):
        t = statistics.median(p["times"][k] for p in clean)
        row = BASELINE_ROWS.get(job.name)
        print(f"{job.name:<48} {t:>10.4f}"
              + (f"  baseline: {row}" if row else ""))
    print("baseline rows not regenerated: " + "; ".join(EXCLUDED_ROWS))
    untraced = sorted(OUT.glob(f"{args.workload}-{args.scale}-trace0-seed*.json"),
                      key=lambda p: p.stat().st_mtime)
    same_seed = OUT / f"{args.workload}-{args.scale}-trace0-seed{args.seed}.json"
    if same_seed.exists():
        untraced.append(same_seed)
    if untraced and wall is not None:
        base = json.loads(untraced[-1].read_text())["result"]["metrics"]
        base_wall = base.get("wall_ref", {}).get("value")
        if base_wall is not None:
            print(f"tracing overhead: traced wall_ref {wall:.4f} - untraced "
                  f"wall_ref {base_wall:.4f} ({untraced[-1].name}) = "
                  f"{wall - base_wall:+.4f} ref")
            return
    print("tracing overhead: no untraced run of this workload to compare")


if __name__ == "__main__":
    sys.exit(main())
