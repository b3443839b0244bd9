"""One benchmark process: set up a workload, then run jobs back to back.

Started by ``run.py`` with PYTHONPATH pointing at the checkout's ``src``
and the BLAS thread variables already set. It prints ``READY`` once set-up
(imports, inputs, warm-up) is done, which is where the launcher stops the
set-up clock; with ``--setup-only`` it exits there. Otherwise it prints one
JSON line of raw timings (and, when traced, the per-layer metrics) at the
end.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from contextlib import nullcontext
from pathlib import Path
from time import perf_counter

import tracing
import workloads

HERE = Path(__file__).resolve().parent


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    with open(HERE / "reference.json") as handle:
        reference = json.load(handle)
    wl = workloads.make(args.workload, args.seed, args.workdir, reference)
    tracer = tracing.Tracer() if args.trace and not args.setup_only else None
    origin = perf_counter()
    if tracer:
        tracer.install()
    wl.setup()
    if tracer:
        tracer.uninstall()
        tracer.job = 0
    print("READY", flush=True)
    if args.setup_only:
        return 0

    result = {"jobs": run_jobs(wl, args.seconds, tracer)}
    if tracer:
        result["layers"] = layer_metrics(tracer, [j for j in result["jobs"] if j["traced"]])
        if args.spans:
            tracer.write(args.spans, origin)
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result), flush=True)
    return 0


def run_jobs(wl, budget, tracer=None) -> list:
    """Closed loop with one client: the next job starts when the last ends.

    With a tracer, whole cycles of modes alternate between untraced and
    traced, so both kinds of job see the same phases of the host's speed.
    The tracer numbers the traced jobs from 0, so traced job 0 always has
    the same inputs. Stops at the first whole cycle (or, traced, pair of
    cycles) after ``budget`` seconds.
    """
    jobs = []
    period = wl.cycle * (2 if tracer else 1)
    deadline = perf_counter() + budget
    index = 0
    while True:
        traced = tracer is not None and index % period >= wl.cycle
        if traced and index % wl.cycle == 0:
            tracer.install()
        start = perf_counter()
        try:
            with tracer.span("bench.job") if traced else nullcontext():
                out = wl.job(index)
        except Exception as exc:  # a failed job is counted, not fatal
            jobs.append({"index": index, "traced": traced, "seconds": perf_counter() - start,
                         "mode": None, "trajectory_s": [],
                         "problems": [f"{type(exc).__name__}: {exc}"]})
        else:
            seconds = perf_counter() - start
            try:
                problems = wl.check(out)
            except Exception as exc:
                problems = [f"check raised {type(exc).__name__}: {exc}"]
            jobs.append({"index": index, "traced": traced, "seconds": seconds,
                         "mode": out.mode, "trajectory_s": out.trajectory_s,
                         "problems": problems})
        index += 1
        if traced:
            tracer.job += 1
            if index % wl.cycle == 0:
                tracer.uninstall()
        if index % period == 0 and perf_counter() >= deadline:
            return jobs


def layer_metrics(tracer, traced) -> dict:
    jobs = len(traced)
    own = tracer.self_times()
    calls = dict.fromkeys(tracing.FUNCTIONS, 0)
    self_s = dict.fromkeys(tracing.FUNCTIONS, 0.0)
    setup_s = dict.fromkeys(tracing.LAYERS, 0.0)
    job_total = unattributed = 0.0
    for (name, start, end, _, job), own_s in zip(tracer.spans, own):
        if job == tracing.SETUP_JOB:
            setup_s[name.split(".")[0]] += own_s
        elif name == "bench.job":
            job_total += end - start
            unattributed += own_s
        else:
            calls[name] += 1
            self_s[name] += own_s

    metrics = {}
    for name in tracing.FUNCTIONS:
        metrics[f"{name}.calls"] = calls[name] / jobs
        metrics[f"{name}.self_s"] = self_s[name] / jobs
    mean_job = job_total / jobs
    for layer, fns in tracing.LAYERS.items():
        layer_self = sum(self_s[f"{layer}.{fn}"] for fn in fns) / jobs
        metrics[f"{layer}.self_s"] = layer_self
        metrics[f"{layer}.share"] = layer_self / mean_job
        metrics[f"setup.{layer}.self_s"] = setup_s[layer]
    metrics["trace.attributed_frac"] = 1.0 - unattributed / job_total
    metrics.update(gauges(tracer.observations, jobs, calls))
    return metrics


def gauges(observations, jobs, calls) -> dict:
    """Counts per job over every traced job; maxima and minima over set-up
    and the first traced job, so that they repeat exactly for a seed."""
    in_jobs = {}
    first = {}
    cutoffs = {}  # job -> distinct cutoffs passed to cooling_step
    for name, job, value in observations:
        if job >= 0:
            in_jobs.setdefault(name, []).append(value)
        if job <= 0:
            first.setdefault(name, []).append(value)
        if name == "cooling.cooling_step" and job >= 0:
            cutoffs.setdefault(job, set()).add(value)

    def each(name, pick=lambda v: v):
        return [pick(v) for v in in_jobs.get(name, [])]

    def extreme(name, fn, pick=lambda v: v):
        """0.0 when the function was not called in set-up or the first job."""
        values = [pick(v) for v in first.get(name, [])]
        return float(fn(values)) if values else 0.0

    runs = in_jobs.get("cooling.run", [])
    steps = sum(v[0] for v in runs)
    distinct = sum(len(c) for c in cutoffs.values())
    return {
        "operators.eig.calls_per_step": calls["operators.eig"] / steps if steps else 0.0,
        "signfun.degree": extreme("signfun.eval_fourier", max, lambda v: v[0]),
        "signfun.eval_points": sum(each("signfun.eval_fourier", lambda v: v[1])) / jobs,
        "gqsp.cu_applications": sum(each("gqsp.assemble_and_extract", lambda v: v[0])) / jobs,
        "gqsp.cu_dag_applications": sum(each("gqsp.assemble_and_extract", lambda v: v[1])) / jobs,
        "gqsp.peel_residual_max": extreme("gqsp.compute_angles", max),
        "gqsp.identity_residual_max": extreme("gqsp.complete", max),
        "gqsp.scale_min": extreme("gqsp.synthesize_angles", min),
        "dyson.leakage_ratio_max": extreme("dyson.leakage", max),
        "dyson.effective_ratio_max": extreme("dyson.effective_error", max),
        "cooling.steps": steps / jobs,
        "cooling.distinct_cutoff_frac": distinct / steps if steps else 0.0,
        "cooling.success_frac": sum(v[1] for v in runs) / len(runs) if runs else 0.0,
        "cooling.queries_eiH_per_traj": sum(v[2] for v in runs) / len(runs) if runs else 0.0,
        "cooling.queries_UA_per_traj": sum(v[3] for v in runs) / len(runs) if runs else 0.0,
        "serialization.bytes_written": sum(each("serialization.write_text_atomic")) / jobs,
    }


if __name__ == "__main__":
    sys.exit(main())
