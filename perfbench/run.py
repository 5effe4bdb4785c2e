"""The cayleykit benchmark: CLI job pipelines run in-process, checked by oracles.

    python3 perfbench/run.py --workload gensets|cayley|qh --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --defects

One client in a closed loop: each job is a ``cayleykit.cli.main(argv)`` call
that starts when the previous one returns, in this process, with no extra
threads.  A pass runs the workload's fixed job list once; passes repeat
until the next one would end after ``--seconds``.  A job's time is its
median CPU time over the passes.  Every job's output is checked afterwards
by ``oracles.py`` in a child process, so the oracle packages never load
into the measured process.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` alternates
untraced and traced passes and prints the per-layer metrics (per traced
pass) and the tracing overhead.  ``--defects`` runs the jobs known to fail at the
commit this benchmark was written against and prints their ids.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
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

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (the benchmark's own module, beside this file)

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919  # for checking a claimed gain on inputs it was not tuned on
# setup_s is the median of at least SETUP_REPEATS set-ups: one before the
# passes and SETUP_PER_PASS after each.  The host's speed shifts for tens of
# seconds at a time, so set-ups spread over the run see the same mix of fast
# and slow stretches as the jobs do, where set-ups made in a row would all
# fall in one stretch.
SETUP_REPEATS = 11
SETUP_PER_PASS = 2
# String hashes, and so set and dict orders inside cayleykit, follow the hash
# seed; left random it moved small-job times by 7% from process to process.
HASH_SEED = "0"
IMPORT_PROBE = "import sys; sys.path.insert(0, sys.argv[1]); import cayleykit.cli"
SUBCOMMAND_METRICS = {
    "gensets": ("construct", "verify", "prime"),
    "cayley": ("cayley", "aut", "spectrum"),
    "qh": ("qh_ham", "qh_report"),
}
LAYER_METRICS = (
    ("groups.build_chain", ("calls", "busy_s")),
    ("groups.generates", ("calls", "self_s")),
    ("groups.orbits", ("busy_s",)),
    ("groups.enumerate_elements", ("calls", "busy_s", "elements")),
    ("perms.mul", ("calls", "busy_s")),
    ("perms.inverse", ("calls",)),
    ("gensets.construct", ("busy_s",)),
    ("gensets.predicates", ("busy_s",)),
    ("gensets.balance", ("busy_s",)),
    ("gensets.io", ("busy_s",)),
    ("numth.prime_one_mod", ("calls", "busy_s", "failed")),
    ("numth.cyclotomic_eval", ("busy_s",)),
    ("cayley.build_cayley", ("calls", "self_s", "vertices", "edges")),
    ("cayley.to_simple_graph", ("busy_s",)),
    ("cayley.is_normal", ("busy_s",)),
    ("automorphisms.graph_aut_order", ("calls", "busy_s", "generators")),
    ("automorphisms.aut_snt", ("busy_s",)),
    ("automorphisms.verify_order_identity", ("self_s",)),
    ("spectral.spectrum_topk.dense", ("calls", "busy_s")),
    ("spectral.spectrum_topk.iterative", ("calls", "busy_s")),
    ("spectral.jacobi_eigensystem", ("busy_s",)),
    ("graphs.import_edge_list", ("busy_s", "bytes")),
    ("graphs.export_edge_list", ("busy_s", "bytes")),
    ("graphs.connected_components", ("calls", "busy_s")),
    ("quasiham.qh1", ("calls", "busy_s")),
    ("quasiham.flow_networks", ("calls",)),
    ("quasiham.hamiltonian_via_qh", ("busy_s",)),
    ("quasiham.qh_report", ("busy_s",)),
    ("quasiham.brute_hamiltonian", ("busy_s",)),
)
UNITS = {"calls": "count", "failed": "count", "elements": "count", "vertices": "count",
         "edges": "count", "generators": "count", "bytes": "bytes", "busy_s": "s", "self_s": "s"}


class Usage(Exception):
    pass


# -- environment and drift --------------------------------------------------------


def one_blas_thread() -> int:
    """One client and no extra threads: BLAS gets one thread (numpy reads this at import)."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    return len(os.sched_getaffinity(0))


def calibrate() -> float:
    """Best of three timings of a fixed pure-Python loop; recorded, never used to scale."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        acc = 0
        for i in range(200_000):
            acc = (acc * 31 + i) % 1_000_003
        best = min(best, time.perf_counter() - start)
    return best


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def git_commit() -> str:
    """HEAD read from the checkout's own .git, without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        text = head.read_text().strip()
        if text.startswith("ref: "):
            ref = text[5:]
            loose = ROOT / ".git" / ref
            if loose.is_file():
                return loose.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
        return text
    except OSError:
        return "unknown (not a git checkout)"


def environment(cores: int) -> dict:
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas_name,
        "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]),
        "nproc": cores,
        "cpu": cpu_model(),
        "git_commit": git_commit(),
        "default_seed": DEFAULT_SEED,
        "held_out_seed": HELD_OUT_SEED,
    }


# -- set-up ---------------------------------------------------------------------


def children_cpu_seconds() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return children.ru_utime + children.ru_stime


def import_seconds() -> float:
    """CPU time of a fresh interpreter that starts and imports cayleykit."""
    start = children_cpu_seconds()
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    if done.returncode != 0:
        raise Usage(f"cannot import cayleykit from {SRC}: {done.stderr.strip()[-300:]}")
    return children_cpu_seconds() - start


def set_up(workload: str, seed: int, inputs: Path) -> tuple:
    """Import cayleykit in a fresh interpreter and write the inputs: (jobs, seconds).

    Set-up is timed in CPU time, as the jobs are (see ``cpu_seconds``).
    """
    seconds = import_seconds()
    shutil.rmtree(inputs, ignore_errors=True)
    start = time.process_time()
    jobs = workloads.build(workload, seed, inputs)
    return jobs, seconds + time.process_time() - start


# -- the closed loop --------------------------------------------------------------


def cpu_seconds() -> float:
    """CPU time of this process and of any child it has waited for.

    Jobs are timed in CPU time, not wall time: on a shared virtual machine
    the host takes the core away for stretches (steal time), which moved
    wall-time figures by 15-25% between runs minutes apart.
    """
    return time.process_time() + children_cpu_seconds()


def run_job(cli, job, tracer) -> dict:
    if job.prepare is not None:
        job.prepare()
    # Each job starts from an empty young generation, as in a fresh CLI
    # process; otherwise when the collector runs, and so a job's time,
    # depends on the jobs before it (up to 50% on the same job).
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    error = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        wall, cpu = time.perf_counter(), cpu_seconds()
        try:
            if tracer is None:
                rc = cli.main(job.argv)
            else:
                rc = tracer.job_span(job.id, lambda: cli.main(job.argv))
        except Exception as exc:  # a job that raises is a failed job, not a failed run
            rc, error = None, f"{type(exc).__name__}: {exc}"
        cpu = cpu_seconds() - cpu
        wall = time.perf_counter() - wall
    digest = hashlib.sha256(f"{job.id}\0{rc}\0{out.getvalue()}\0".encode())
    if job.out is not None and os.path.exists(job.out):
        digest.update(Path(job.out).read_bytes())
    return {"id": job.id, "sub": job.sub, "seconds": cpu, "wall": wall, "rc": rc,
            "stdout": out.getvalue(), "stderr": error or err.getvalue(),
            "digest": digest.hexdigest()}


def run_pass(cli, jobs, tracer=None) -> list:
    # What is alive now (modules, the harness, earlier passes) is frozen out
    # of the collector, so the collection before each job stays cheap.
    gc.collect()
    gc.freeze()
    return [run_job(cli, job, tracer) for job in jobs]


def repeat(seconds: float, one_pass) -> list:
    """Call ``one_pass`` at least once, and again until the next call would end after ``seconds``."""
    results = []
    start = time.perf_counter()
    while True:
        results.append(one_pass())
        elapsed = time.perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


# -- checking -------------------------------------------------------------------------


def check(jobs, passes, workdir: Path) -> dict:
    """Failing job id -> reason, from the oracles and from pass-to-pass output drift."""
    first = passes[0]
    records = [
        {"id": r["id"], "check": job.check, "rc": r["rc"], "stdout": r["stdout"],
         "stderr": r["stderr"], "file": job.out}
        for job, r in zip(jobs, first)
    ]
    source, target = workdir / "oracle-in.json", workdir / "oracle-out.json"
    source.write_text(json.dumps(records))
    done = subprocess.run([sys.executable, str(HERE / "oracles.py"), str(source), str(target)],
                          cwd=ROOT, capture_output=True, text=True, timeout=150)
    if done.returncode != 0:
        raise RuntimeError(f"oracles failed: {done.stderr.strip()[-500:]}")
    failures = json.loads(target.read_text())
    for later in passes[1:]:
        for a, b in zip(first, later):
            if a["digest"] != b["digest"] and a["id"] not in failures:
                failures[a["id"]] = "output differs between passes"
    return failures


def workload_digest(results: list) -> str:
    return hashlib.sha256("".join(r["digest"] for r in results).encode()).hexdigest()


# -- metrics ----------------------------------------------------------------------------


def job_medians(passes, clock: str = "seconds") -> list:
    """(subcommand, median CPU seconds over passes) per job of the list.

    Every timing metric is computed from these per-job medians.
    """
    return [(r["sub"], statistics.median(p[i][clock] for p in passes))
            for i, r in enumerate(passes[0])]


def job_times(passes, clock: str = "seconds") -> dict:
    times = [seconds for _, seconds in job_medians(passes, clock)]
    deciles = statistics.quantiles(times, n=10, method="inclusive")
    return {
        "jobs_per_s": (len(times) / sum(times), "jobs/s"),
        "job_p50_s": (deciles[4], "s"),
        "job_p90_s": (deciles[8], "s"),
    }


def end_to_end(passes, setup_samples) -> dict:
    return dict(
        job_times(passes),
        setup_s=(statistics.median(setup_samples), "s"),
        peak_rss_mb=(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    )


def subcommand_seconds(workload: str, passes) -> dict:
    medians = job_medians(passes)
    return {f"{sub}_s": sum(s for name, s in medians if name == sub)
            for sub in SUBCOMMAND_METRICS[workload]}


def per_layer(tracer, traced, untraced) -> dict:
    count = len(traced)
    totals = tracer.totals()
    metrics = {}
    for name, stats in LAYER_METRICS:
        for stat in stats:
            key = name if name == "quasiham.flow_networks" else f"{name}.{stat}"
            metrics[key] = (totals[name][stat] / count, UNITS[stat])
    qh1_calls = totals["quasiham.qh1"]["calls"]
    flows = totals["quasiham.flow_networks"]["calls"]
    metrics["quasiham.qh1.hit_ratio"] = (1 - flows / qh1_calls if qh1_calls else 0.0, "ratio")
    jobs = totals["cli.job"]
    metrics["cli.self_s"] = (jobs["self_s"] / count, "s")
    rate = lambda p: len(p) / sum(r["seconds"] for r in p)  # noqa: E731
    traced_rate = statistics.median(rate(p) for p in traced)
    untraced_rate = statistics.median(rate(p) for p in untraced)
    metrics["trace.jobs_per_s"] = (traced_rate, "jobs/s")
    metrics["trace.untraced_jobs_per_s"] = (untraced_rate, "jobs/s")
    metrics["trace.overhead"] = (untraced_rate / traced_rate - 1, "ratio")
    return metrics


# -- entry points ----------------------------------------------------------------------


def import_cli():
    sys.path.insert(0, str(SRC))
    try:
        from cayleykit import cli
    except ImportError as exc:
        raise Usage(f"cannot import cayleykit from {SRC}: {exc}") from None
    return cli


def benchmark(args) -> int:
    if not (SRC / "cayleykit" / "cli.py").is_file():
        raise Usage(f"no cayleykit sources under {SRC}")
    cores = one_blas_thread()
    load_start = os.getloadavg()
    drift_before = calibrate()
    workdir = WORK / f"{args.workload}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    jobs, first_setup = set_up(args.workload, args.seed, workdir / "inputs")
    setup_samples = [first_setup]
    cli = import_cli()
    env = environment(cores)

    def set_up_again(times: int) -> None:
        """More set-up samples, written apart from the inputs the jobs read."""
        for _ in range(times):
            setup_samples.append(set_up(args.workload, args.seed, workdir / "setup")[1])

    def then_set_up(one_pass):
        def measured():
            result = one_pass()
            set_up_again(SETUP_PER_PASS)
            return result
        return measured

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()

        def traced_pass() -> list:
            tracer.install()
            try:
                return run_pass(cli, jobs, tracer)
            finally:
                tracer.uninstall()

        # untraced and traced passes alternate, so drift hits both alike
        pairs = repeat(args.seconds, then_set_up(lambda: (run_pass(cli, jobs), traced_pass())))
        untraced, traced = [p[0] for p in pairs], [p[1] for p in pairs]
        passes = untraced + traced
    else:
        passes = repeat(args.seconds, then_set_up(lambda: run_pass(cli, jobs)))
    set_up_again(SETUP_REPEATS - len(setup_samples))
    drift_after = calibrate()
    load_end = os.getloadavg()

    failures = check(jobs, passes, workdir)
    attempted = sum(len(p) for p in passes)
    failed = sum(r["id"] in failures for p in passes for r in p)
    digest = workload_digest(passes[0])

    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "passes": len(passes), "jobs_per_pass": len(jobs), "digest": digest,
        "pass_s": [sum(r["seconds"] for r in p) for p in passes],
        "pass_wall_s": [sum(r["wall"] for r in p) for p in passes],
        "failing_jobs": failures, "environment": env,
        "load_average": {"start": load_start, "end": load_end},
        "drift_probe_s": {"before": drift_before, "after": drift_after},
        "setup_samples_s": setup_samples,
    }
    if tracer is not None:
        metrics = per_layer(tracer, traced, untraced)
        # ROADMAP §2: each `verify` job builds its stabilizer chain twice today
        verify_jobs = sum(r["sub"] == "verify" for r in traced[0])
        report["build_chain_per_verify"] = {
            "verify_jobs": verify_jobs,
            "build_chain_calls": metrics["groups.build_chain.calls"][0],
        }
        tracer.write(workdir / "spans.jsonl")
    else:
        metrics = end_to_end(passes, setup_samples)
        report["subcommand_s"] = subcommand_seconds(args.workload, passes)
        report["job_s"] = {r["id"]: s for r, (_, s) in zip(passes[0], job_medians(passes))}
        report["job_wall_s"] = {r["id"]: s for r, (_, s) in zip(passes[0], job_medians(passes, "wall"))}
        report["wall_metrics"] = {k: v for k, (v, _) in job_times(passes, "wall").items()}
    report["metrics"] = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    (workdir / f"report-seed{args.seed}.json").write_text(json.dumps(report, indent=1))

    print(f"workload={args.workload} seed={args.seed} trace={args.trace} passes={len(passes)} "
          f"jobs_per_pass={len(jobs)} attempted={attempted} failed={failed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key} = {value:.6g} {unit}")
    for key, value in report.get("subcommand_s", {}).items():
        print(f"  {key} = {value:.6g} s")
    print(f"  samples = {len(jobs)} jobs, each timed as its median CPU time over {len(passes)} passes")
    for key, value in report.get("wall_metrics", {}).items():
        print(f"  {key} (wall time, not a contract metric) = {value:.6g}")
    if report.get("build_chain_per_verify", {}).get("verify_jobs"):
        relation = report["build_chain_per_verify"]
        calls, verify_jobs = relation["build_chain_calls"], relation["verify_jobs"]
        verdict = "holds" if calls == 2 * verify_jobs else "does not hold"
        print(f"  groups.build_chain.calls = {calls:g}, 2 x verify jobs = {2 * verify_jobs}: {verdict}")
    print(f"  digest = {digest}")
    print(f"  drift probe = {drift_before:.4f} s before, {drift_after:.4f} s after")
    print(f"  load average = {load_start[0]:.2f} at start, {load_end[0]:.2f} at end")
    print("  environment = " + json.dumps(env))
    print("  failing jobs = " + (", ".join(sorted(failures)) or "none"))
    for job_id, reason in sorted(failures.items()):
        print(f"    {job_id}: {reason}")
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": report["metrics"],
    }))
    return 0


def probe_defects() -> int:
    one_blas_thread()
    workdir = WORK / "defects"
    shutil.rmtree(workdir, ignore_errors=True)
    jobs = workloads.defects(workdir / "inputs")
    cli = import_cli()
    results = run_pass(cli, jobs)
    failures = check(jobs, [results], workdir)
    for r in results:
        verdict = f"FAILS: {failures[r['id']]}" if r["id"] in failures else "passes"
        print(f"{r['id']} ({r['seconds']:.2f} s): {verdict}")
    print("failing jobs = " + (", ".join(sorted(failures)) or "none"))
    return 0


def main() -> int:
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--defects", action="store_true",
                        help="run the known-failing jobs once and print their ids")
    args = parser.parse_args()
    try:
        if args.defects:
            return probe_defects()
        if args.workload is None:
            parser.error("--workload is required")
        return benchmark(args)
    except Usage as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
