"""stabloci benchmark: seeded batches of CLI jobs through `stabloci.cli.run`.

    python3 perfbench/run.py --workload strata --seed 0 --seconds 30 --trace 0

One client runs jobs back to back in this process (a closed loop, no
threads), the way a library user's batch would; every run starts a
fresh interpreter, so no cache survives from one run to the next.  Jobs
come in passes (see `workloads.py`); the loop runs whole passes until
`--seconds` have been spent inside them.  Outputs are checked after the
loop, never inside the timed interval.

`--trace 0` prints the end-to-end metrics.  `--trace 1` runs one pass
untraced in a child interpreter, then the same pass with spans around
the library's public functions (`tracer.py`), checks that both runs
printed the same bytes, and prints the per-layer metrics.  The last
line of standard output is the result object; the line before it holds
the details (environment, tail percentile, failures, tracing overhead),
which are also written to `.perfbench_out/`.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import checks
import workloads
from tracer import Tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
GOLDEN = HERE / "golden"

SETUP_STARTS = 9  # cold starts measured for setup_s, after one that writes bytecode
HARD_CAP = 5  # stop mid-pass once the loop has run this many times --seconds
CHILD_TIMEOUT_S = 170
# tail percentile: the highest of these with at least ten jobs of one pass beyond it
TAIL_LADDER = (99, 98, 95, 90, 80, 75, 50)


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def import_cli():
    if not (SRC / "stabloci" / "__init__.py").is_file():
        raise BenchError(f"no stabloci package under {SRC}")
    sys.path.insert(0, str(SRC))
    from stabloci import cli

    return cli


def materialize(jobs, workdir: Path) -> list[list[str]]:
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    for job in jobs:
        for name, text in job.files:
            (workdir / name).write_text(text)
    return [job.resolved_argv(str(workdir)) for job in jobs]


def run_passes(cli, workload, seed, workdir, seconds, max_jobs=None, tracer=None):
    """Yield each pass's results and loop time, document writing excluded.

    Whole passes run until `seconds` of loop time, or exactly `max_jobs`
    jobs.  A result is (job, exit code, output, wall seconds); the caller
    checks a pass while the generator is suspended, outside the timing,
    and drops it, so memory does not grow with the number of passes.
    """
    total = 0
    loop_s = 0.0
    for index in itertools.count():
        jobs = workloads.build_pass(workload, seed, index)
        argvs = materialize(jobs, workdir)
        results = []
        start = time.perf_counter()
        for job, argv in zip(jobs, argvs):
            if tracer is not None:
                tracer.job_id = total
            t0 = time.perf_counter()
            code, output = cli.run(argv)
            results.append((job, code, output, time.perf_counter() - t0))
            total += 1
            stop = total == max_jobs or loop_s + time.perf_counter() - start >= HARD_CAP * seconds
            if stop:
                break
        pass_s = time.perf_counter() - start
        loop_s += pass_s
        yield results, pass_s
        if stop or (max_jobs is None and loop_s >= seconds):
            return


def one_pass(cli, workload, seed, workdir, seconds, tracer=None):
    """The results of pass 0 and its loop time."""
    jobs = len(workloads.build_pass(workload, seed, 0))
    return next(run_passes(cli, workload, seed, workdir, seconds, max_jobs=jobs, tracer=tracer))


def load_golden(workload: str) -> dict:
    """Recorded outputs of pass 0 of the default seed, by job id."""
    path = GOLDEN / f"{workload}.jsonl"
    if not path.is_file():
        return {}
    return {entry["id"]: entry["output"] for entry in map(json.loads, path.read_text().splitlines())}


def check_results(results, golden=None) -> dict[int, list[str]]:
    """Problems per result index, with goldens compared key by key when given."""
    problems = {}
    for i, (job, code, output, _) in enumerate(results):
        found = checks.check_job(job, code, output)
        if golden is not None and not found:
            if job.id not in golden:
                found = [f"no golden output recorded for {job.id}"]
            else:
                diff = checks.golden_diff(golden[job.id], json.loads(output))
                found = [f"golden mismatch at {diff}"] if diff else []
        if found:
            problems[i] = found
    return problems


def quantile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, -(-len(sorted_values) * p // 100))
    return sorted_values[int(rank) - 1]


def tail_percentile(jobs_per_pass: int) -> int:
    for p in TAIL_LADDER:
        if jobs_per_pass * (100 - p) / 100 >= 10:
            return p
    return TAIL_LADDER[-1]


def environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "platform": platform.platform(),
    }


def child(args, *extra) -> dict:
    """Run this script in a fresh interpreter and return its last output line."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {extra[0]} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"child {extra[0]} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def setup_probe(args) -> dict:
    """Import stabloci and build the first pass's documents and argv."""
    t0 = time.perf_counter()
    import_cli()
    jobs = workloads.build_pass(args.workload, args.seed, 0)
    materialize(jobs, WORK / f"probe-{os.getpid()}")
    return {"setup_s": time.perf_counter() - t0}


def measure_setup(args) -> float:
    starts = [child(args, "--setup-probe")["setup_s"] for _ in range(SETUP_STARTS + 1)]
    return statistics.median(starts[1:])


def untraced_pass(args, workdir) -> dict:
    results, pass_s = one_pass(import_cli(), args.workload, args.seed, workdir, args.seconds)
    return {"loop_s": pass_s, "outputs": [[code, out] for _, code, out, _ in results]}


def end_to_end(args, workdir):
    """Median over whole passes of each pass's throughput and job times."""
    setup_s = measure_setup(args)
    cli = import_cli()
    per_pass = len(workloads.build_pass(args.workload, args.seed, 0))
    p = tail_percentile(per_pass)
    use_golden = args.seed == workloads.DEFAULT_SEED
    rates, p50s, tails, pass_times = [], [], [], []
    failures, attempted = [], 0
    first_pass = []
    for results, seconds in run_passes(cli, args.workload, args.seed, workdir, args.seconds):
        problems = check_results(results)
        failures += [[results[i][0].id, found] for i, found in sorted(problems.items())]
        attempted += len(results)
        if use_golden and not pass_times:
            first_pass = [r for i, r in enumerate(results) if i not in problems]
        pass_times.append(seconds)
        if len(results) < per_pass and rates:
            continue  # a pass cut short by the hard cap counts only if it is the only one
        walls = sorted(r[3] for r in results)
        rates.append((len(results) - len(problems)) / seconds)
        p50s.append(statistics.median(walls))
        tails.append(quantile(walls, p))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if use_golden:  # loaded only now, so that the goldens do not count in peak_rss_mb
        found = check_results(first_pass, load_golden(args.workload))
        failures += [[first_pass[i][0].id, problems] for i, problems in sorted(found.items())]
    metrics = {
        "jobs_per_s": {"value": statistics.median(rates), "unit": "1/s"},
        "job_p50_ms": {"value": statistics.median(p50s) * 1000, "unit": "ms"},
        "job_tail_ms": {"value": statistics.median(tails) * 1000, "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    detail = {
        "passes": len(pass_times),
        "jobs_per_pass": per_pass,
        "pass_s": pass_times,
        "job_tail_percentile": p,
        "job_tail_jobs_per_pass": per_pass,
        "error_rate": len(failures) / attempted,
    }
    return metrics, detail, attempted, failures


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(args, workdir):
    """One pass untraced in a child, then the same pass traced here."""
    baseline = child(args, "--untraced-pass")
    cli = import_cli()
    tracer = Tracer()
    tracer.install()
    results, loop_s = one_pass(cli, args.workload, args.seed, workdir, args.seconds, tracer=tracer)
    problems = check_results(results, load_golden(args.workload) if args.seed == workloads.DEFAULT_SEED else None)
    for i, ((job, code, output, _), expected) in enumerate(zip(results, baseline["outputs"])):
        if [code, output] != expected:
            problems.setdefault(i, []).append("traced output differs from the untraced run")
    if len(results) != len(baseline["outputs"]):
        raise BenchError("traced and untraced runs did not run the same jobs")

    calls, self_ns = tracer.self_times_ns()
    index = {name: i for i, name in enumerate(tracer.names)}
    counters = tracer.counters

    def n_calls(name):
        return calls[index[name]]

    def self_s(name):
        return self_ns[index[name]] / 1e9

    strata_jobs = sum(1 for job, *_ in results if job.kind == "strata")
    rows = [row for _, code, out, _ in results if code == 0 for row in json.loads(out).get("rows", [])
            if "heuristic" in row]
    kernel = counters["linalg.int_kernel"]
    values = {}
    for name in ("cli.run", "actions.parse_document", "torus.stratification_indices", "hull.closest_point_to_origin",
                 "hull.hull_origin_position", "linalg.int_kernel", "linalg.rref", "poly.MultiPoly.mul",
                 "poly.poly_gcd_univariate", "poly.rational_roots", "graded.translate_coordinate_polys",
                 "graded.check_condition_cstar", "graded.check_condition_cstar_tilde", "graded.generic_stab_dim",
                 "invariants.sl2_invariants_binary_form", "invariants.unipotent_invariants",
                 "invariants.generator_degree_report"):
        values[f"{name}.calls"] = (n_calls(name), "count")
        values[f"{name}.self_s"] = (self_s(name), "s")
    values.update({
        "torus.stratification_indices.per_job": (_ratio(n_calls("torus.stratification_indices"), strata_jobs), "count"),
        "torus.supports_enumerated": (counters["torus.stratification_indices"].get("supports", 0), "count"),
        "torus.stratum_quotient_data.calls": (n_calls("torus.stratum_quotient_data"), "count"),
        "hull.closest_point_to_origin.subsets": (counters["hull.closest_point_to_origin"].get("subsets", 0), "count"),
        "hull.hull_origin_position.subsets": (counters["hull.hull_origin_position"].get("subsets", 0), "count"),
        "hull.origin_in_hull.calls": (n_calls("hull.origin_in_hull"), "count"),
        "linalg.int_kernel.cells": (kernel.get("cells", 0), "count"),
        "linalg.int_kernel.nullity_ratio": (_ratio(kernel.get("nullity", 0), kernel.get("cols", 0)), "ratio"),
        "linalg.rref.cells": (counters["linalg.rref"].get("cells", 0), "count"),
        "graded.heuristic_ratio": (_ratio(sum(1 for r in rows if r["heuristic"]), len(rows)), "ratio"),
        "trace.overhead_ratio": (_ratio(loop_s - baseline["loop_s"], baseline["loop_s"]), "ratio"),
    })
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    stem = f"{args.workload}-seed{args.seed}"
    tracer.write(OUT, stem)
    total_self = sum(self_ns) or 1
    detail = {
        "traced_loop_s": loop_s,
        "untraced_loop_s": baseline["loop_s"],
        "trace_overhead_s": loop_s - baseline["loop_s"],
        "spans": len(tracer.start),
        "spans_file": str((OUT / f"{stem}.spans").relative_to(ROOT)),
        "self_time_share": {name: round(ns / total_self, 4) for name, ns in zip(tracer.names, self_ns) if ns},
        "error_rate": len(problems) / len(results),
    }
    return metrics, detail, len(results), [[results[i][0].id, found] for i, found in sorted(problems.items())]


def record_golden(args, workdir) -> None:
    results, _ = one_pass(import_cli(), args.workload, workloads.DEFAULT_SEED, workdir, float("inf"))
    lines = []
    for job, code, output, _ in results:
        found = checks.check_job(job, code, output)
        if found:
            raise BenchError(f"refusing to record a golden for {job.id}: {found}")
        lines.append(json.dumps({"id": job.id, "output": json.loads(output)}, sort_keys=True, separators=(",", ":")))
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / f"{args.workload}.jsonl").write_text("\n".join(sorted(lines)) + "\n")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    mode = parser.add_mutually_exclusive_group()
    mode.add_argument("--record-golden", action="store_true", help="write the default-seed goldens")
    mode.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    mode.add_argument("--untraced-pass", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    workdir = WORK / str(os.getpid())
    try:
        if args.setup_probe:
            print(json.dumps(setup_probe(args)))
            return 0
        if args.untraced_pass:
            print(json.dumps(untraced_pass(args, workdir)))
            return 0
        if args.record_golden:
            record_golden(args, workdir)
            return 0
        measure = per_layer if args.trace else end_to_end
        metrics, detail, attempted, failures = measure(args, workdir)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        shutil.rmtree(WORK / f"probe-{os.getpid()}", ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass
    detail.update(
        workload=args.workload,
        seed=args.seed,
        seconds=args.seconds,
        trace=args.trace,
        environment=environment(),
        workload_dimensions=workloads.describe(args.workload),
        failures=failures[:20],
    )
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({"detail": detail, "result": result}, indent=1, default=str) + "\n")
    print(json.dumps({"detail": detail}, default=str))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
