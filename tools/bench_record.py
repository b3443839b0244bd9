"""Record benchmark runs of this checkout, and of a baseline checkout, in a file.

    python3 tools/bench_record.py --out BENCH_16.json --baseline ../parent --pairs 10 \
        --previous BENCH_15.json

For every workload that BENCHMARK.json declares, run the unchanged
``python3 bench/run.py --workload W --seed S --trace 0`` once per side and
pair, in this checkout ("change") and, with ``--baseline``, in another
checkout of the repository ("baseline", usually the parent commit). Pairs
alternate which side runs first. The output file holds every run's result
line, environment line and readable summary lines with its checkout's git
commit, and per workload and end-to-end metric each side's median and
quartiles and the number of pairs the change won. One more pair at the
held-out seed ``HELD_OUT_SEED`` is recorded the same way under
``held_out``, and ``--previous`` names the record this one follows
(``previous_record``). Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# The benchmark's held-out seed, fixed by bench/README.md: no number there
# was tuned on it.
HELD_OUT_SEED = 97


def git(checkout: Path, *args) -> str | None:
    out = subprocess.run(["git", *args], cwd=checkout, capture_output=True, text=True)
    return out.stdout.strip() if out.returncode == 0 else None


def bench_run(checkout: Path, workload: str, seed: int) -> dict:
    """One ``bench/run.py`` run in ``checkout``, split into its output lines."""
    cmd = [sys.executable, "bench/run.py", "--workload", workload,
           "--seed", str(seed), "--trace", "0"]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    record = {
        "command": " ".join(["python3", *cmd[1:]]),
        "commit": git(checkout, "rev-parse", "HEAD"),
        "uncommitted": git(checkout, "status", "--porcelain", "--", "src", "bench") != "",
        "returncode": proc.returncode,
        "environment": None,
        "summary": [],
        "result": None,
    }
    for line in lines:
        if line.startswith("environment: "):
            record["environment"] = json.loads(line[len("environment: "):])
        else:
            record["summary"].append(line)
    if proc.returncode == 0 and lines:
        record["result"] = json.loads(record["summary"].pop())
    else:
        record["stderr"] = proc.stderr.strip().splitlines()[-5:]
    return record


def spread(values: list) -> dict:
    quartiles = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"median": statistics.median(values), "q1": quartiles[0], "q3": quartiles[2],
            "values": values}


def summarize(runs: list, declared: list) -> dict:
    """Per workload and metric: each side's median and quartiles, and the
    change's wins and ties over the pairs where both sides gave a result."""
    out = {}
    for workload in sorted({r["workload"] for r in runs}):
        by_pair = {}
        for r in runs:
            if r["workload"] == workload and r["result"] is not None:
                by_pair.setdefault(r["pair"], {})[r["side"]] = r["result"]
        sides = {"change", "baseline"}
        entry = {
            "correct": all(res["correct"] for p in by_pair.values() for res in p.values()),
            "failed": sum(res["failed"] for p in by_pair.values() for res in p.values()),
        }
        for metric in declared:
            name = metric["name"]
            values = {side: [p[side]["metrics"][name]["value"]
                             for _, p in sorted(by_pair.items()) if side in p]
                      for side in sides}
            row = {side: spread(v) for side, v in values.items() if v}
            both = [tuple(p[side]["metrics"][name]["value"] for side in ("change", "baseline"))
                    for p in by_pair.values() if sides <= p.keys()]
            if both:
                sign = 1.0 if metric["better"] == "lower" else -1.0
                row["pairs"] = len(both)
                row["change_wins"] = sum(sign * (c - b) < 0 for c, b in both)
                row["ties"] = sum(c == b for c, b in both)
            entry[name] = row
        out[workload] = entry
    return out


def record(sides: list, workloads: list, declared: list, pairs: int, seed: int) -> dict:
    """Run ``pairs`` alternating pairs of every workload at ``seed``; the record of them."""
    runs = []
    for workload in workloads:
        for pair in range(pairs):
            for side, checkout in sides if pair % 2 else sides[::-1]:
                run = bench_run(checkout, workload, seed)
                runs.append({"workload": workload, "pair": pair, "side": side, **run})
                result = run["result"]
                shown = {k: round(m["value"], 6) for k, m in result["metrics"].items()} \
                    if result else f"exit {run['returncode']}"
                print(f"{workload} seed {seed} pair {pair} {side}: {shown}", flush=True)
    return {
        "format_version": 1,
        "seed": seed,
        "pairs": pairs,
        "commits": {side: git(checkout, "rev-parse", "HEAD") for side, checkout in sides},
        "summary": summarize(runs, declared),
        "runs": runs,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True, help="file to write, e.g. BENCH_6.json")
    parser.add_argument("--baseline", type=Path, default=None,
                        help="another checkout to run in alternation with this one")
    parser.add_argument("--pairs", type=int, default=1)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--previous", default=None,
                        help="the record this one follows, e.g. BENCH_15.json")
    args = parser.parse_args()
    if args.pairs < 1:
        parser.error("--pairs must be at least 1")
    if args.previous is not None and not Path(args.previous).is_file():
        parser.error(f"--previous {args.previous} is not a file")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    workloads = [w["name"] for w in spec["workloads"]]
    sides = [("change", ROOT)]
    if args.baseline is not None:
        sides.append(("baseline", args.baseline.resolve()))

    doc = record(sides, workloads, spec["end_to_end"], args.pairs, args.seed)
    doc["held_out"] = record(sides, workloads, spec["end_to_end"], 1, HELD_OUT_SEED)
    doc["previous_record"] = args.previous
    Path(args.out).write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    print(f"wrote {args.out}")
    runs = doc["runs"] + doc["held_out"]["runs"]
    return 0 if all(r["result"] is not None for r in runs) else 1


if __name__ == "__main__":
    sys.exit(main())
