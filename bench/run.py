"""dyncool benchmark: one workload, one seed, one line of metrics.

    python3 bench/run.py --workload trials_d16 --seed 0 --seconds 45 --trace 0

Run from the root of a checkout. The launcher imports no part of dyncool
itself: it starts worker processes against the checkout's ``src`` and times
them from the outside. With ``--trace 0`` it reports the end-to-end metrics
of BENCHMARK.json; with ``--trace 1`` the per-layer metrics of a run whose
jobs alternate, a cycle of modes at a time, between untraced and every
public function wrapped.
The last line of standard output is the JSON result; the lines before it
record the environment, the host-speed probe and a readable summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import selectors
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("trials_d16", "dense_tfim256", "certify_grid", "circuit_d16")

# BLAS threads for every benchmark process: at most nproc, the same on
# every commit, and recorded in the result.
BLAS_THREADS = 1
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# Set-up is timed in this many fresh processes, the measuring one included.
# Half of the others start before the measuring worker and half after it,
# so the samples span the run's phases of host speed; setup_s is the fastest.
SETUP_SAMPLES = 7

DEADLINE_S = 170.0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "dyncool" / "__init__.py").is_file():
        print(f"benchmark: no dyncool package under {SRC}", file=sys.stderr)
        return 2
    for var in THREAD_VARS:
        os.environ[var] = str(BLAS_THREADS)

    deadline = time.monotonic() + DEADLINE_S
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    workdir.mkdir()
    try:
        probe_before = host_probe()
        extra = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [run_worker(args, workdir, deadline, setup_only=True)[0]
                  for _ in range(extra // 2)]
        seconds, raw = run_worker(args, workdir, deadline)
        setups.append(seconds)
        setups += [run_worker(args, workdir, deadline, setup_only=True)[0]
                   for _ in range(extra - extra // 2)]
        probe_after = host_probe()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    env = environment()
    env["host_probe_ms"] = {"before": probe_before, "after": probe_after}
    print("environment: " + json.dumps(env, sort_keys=True))

    jobs = raw["jobs"]
    attempted = len(jobs)
    failed = sum(1 for job in jobs if job["problems"])
    for job in jobs:
        for problem in job["problems"][:3]:
            print(f"job {job['index']} ({job['mode']}): {problem}")
    if args.trace:
        values = dict(raw["layers"])
        traced, untraced = (job_best(timed([j for j in jobs if j["traced"] == t]))
                            for t in (True, False))
        values["trace.overhead_frac"] = traced / untraced - 1.0
        print_layers(args.workload, values, sum(1 for j in jobs if j["traced"]))
    else:
        values = end_to_end(args.workload, jobs, setups, raw["peak_rss_kib"])
    declared = declared_metrics("per_layer" if args.trace else "end_to_end")
    if set(values) != set(declared):
        print(f"benchmark: metrics {sorted(set(values) ^ set(declared))} are not both "
              "measured and declared in BENCHMARK.json", file=sys.stderr)
        return 3
    metrics = {k: {"value": values[k], "unit": declared[k]} for k in declared}
    if not args.trace:
        for name, m in metrics.items():
            print(f"{name:>20} {m['value']:12.6g} {m['unit']}")
        print(f"{'failed_frac':>20} {failed / attempted:12.6g} ratio"
              f" ({failed} of {attempted} jobs)")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    detail = WORK / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"environment": env, "raw": raw, "result": result}) + "\n")
    print(json.dumps(result))
    return 0


def run_worker(args, workdir, deadline, setup_only=False):
    """Start a worker; return (seconds from start to READY, final JSON)."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--workdir", str(workdir),
    ]
    if setup_only:
        cmd.append("--setup-only")
    elif args.trace:
        cmd += ["--spans", str(WORK / f"spans-{args.workload}.jsonl")]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        if read_line(proc, deadline) != "READY":
            raise SystemExit(f"benchmark: worker failed during set-up ({cmd})")
        ready = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise SystemExit("benchmark: worker ran past the deadline")
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0:
        raise SystemExit(f"benchmark: worker exited with {proc.returncode}")
    return ready, None if setup_only else json.loads(out.strip().splitlines()[-1])


def read_line(proc, deadline) -> str:
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        if not sel.select(timeout=max(0.0, deadline - time.monotonic())):
            return ""
    return proc.stdout.readline().strip()


def declared_metrics(kind) -> dict:
    """{name: unit} of the metrics BENCHMARK.json declares for this mode."""
    with open(ROOT / "BENCHMARK.json") as handle:
        return {m["name"]: m["unit"] for m in json.load(handle)[kind]}


def timed(jobs) -> list:
    """The jobs whose times count: the correct ones, or, when none is
    correct, every job that completed, so that a failing commit still
    reports its times next to ``"correct": false``."""
    ok = [job for job in jobs if not job["problems"]]
    ok = ok or [job for job in jobs if job["mode"] is not None]
    if not ok:
        raise SystemExit("benchmark: every job raised; no times to report")
    return ok


def job_best(jobs) -> float:
    """Job time at the fastest host speed the run saw: the fastest repeat of
    each of a job's trajectories plus the fastest output step (serialization
    and write), summed. Every job of a mode repeats the same inputs, so the
    sum is one job's work. dense_tfim256 alternates two modes; the value is
    the mean over modes, so it does not depend on how many jobs of each ran.

    The host alternates between CPU speeds up to 2x apart in phases of
    seconds to minutes, so any statistic over all of a run's samples lands
    on either level; each part's fastest repeat moves far less (README.md).
    """
    modes = {}
    for job in jobs:
        fastest, output = modes.setdefault(job["mode"], ({}, []))
        for t, seconds in enumerate(job["trajectory_s"]):
            fastest[t] = min(seconds, fastest.get(t, seconds))
        output.append(job["seconds"] - sum(job["trajectory_s"]))
    return statistics.fmean(sum(f.values()) + min(o) for f, o in modes.values())


def end_to_end(workload, jobs, setups, peak_rss_kib) -> dict:
    """The end-to-end metrics of an untraced run."""
    ok = timed(jobs)
    units = sum(len(job["trajectory_s"]) for job in ok)
    print(f"jobs: {len(jobs)} ({len(ok)} timed); "
          f"{'certify passes' if workload == 'certify_grid' else 'trajectories'}: "
          f"{units}; set-up samples (s): {[round(s, 4) for s in setups]}")
    return {
        "setup_s": min(setups),
        "job_s_best": job_best(ok),
        "peak_rss_mib": peak_rss_kib / 1024.0,
    }


def print_layers(workload, metrics, jobs):
    import tracing

    print(f"traced run of {workload}: {jobs} jobs, per job; "
          f"attributed {metrics['trace.attributed_frac']:.1%}, "
          f"overhead {metrics['trace.overhead_frac']:+.1%}")
    print(f"{'layer / function':<36} {'self_s':>10} {'share':>7} {'calls':>10} {'setup_s':>8}")
    for layer, fns in tracing.LAYERS.items():
        print(f"{layer:<36} {metrics[f'{layer}.self_s']:10.4f} "
              f"{metrics[f'{layer}.share']:7.1%} {'':>10} "
              f"{metrics[f'setup.{layer}.self_s']:8.3f}")
        for fn in fns:
            name = f"{layer}.{fn}"
            print(f"  {name:<34} {metrics[name + '.self_s']:10.4f} {'':>7} "
                  f"{metrics[name + '.calls']:10.1f}")
    for name, value in metrics.items():
        if not name.endswith((".self_s", ".share", ".calls")) and not name.startswith("trace."):
            print(f"  {name:<34} {value:.6g}")


def host_probe() -> dict:
    """Fixed work timed around each run. Recorded only; never used to
    rescale a metric."""
    import numpy as np

    rng = np.random.default_rng(0)
    a = rng.normal(size=(192, 192))
    start = time.perf_counter()
    for _ in range(40):
        a = np.tanh(a @ a.T / 192.0)
    blas = time.perf_counter() - start
    start = time.perf_counter()
    total = 0
    for i in range(300_000):
        total += i * i
    python = time.perf_counter() - start
    return {"matmul_ms": round(blas * 1e3, 3), "python_loop_ms": round(python * 1e3, 3)}


def environment() -> dict:
    import numpy as np
    from importlib.metadata import PackageNotFoundError, version

    try:
        scipy_version = version("scipy")
    except PackageNotFoundError:
        scipy_version = None
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = None
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next((ln.split(":", 1)[1].strip() for ln in handle
                        if ln.startswith("model name")), None)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy_version,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "blas_threads": BLAS_THREADS,
        "thread_env": {v: os.environ.get(v) for v in THREAD_VARS},
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
    }


def git_commit():
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def source_digest() -> str:
    """sha256 over src/**/*.py: names the code measured when git is absent."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


if __name__ == "__main__":
    sys.exit(main())
