"""Maintenance commands for the benchmark's recorded data.

    python3 bench/record.py digests
        Recompute bench/digests.json: the sha256 of the canonical JSON lines
        of every verify-campaign in the pool.  Every campaign must pass.
        Only a change that is meant to alter the seed-0 ``verify`` output
        should ever change these.

    python3 bench/record.py steadiness --runs 10 [--workload NAME ...]
        Run the benchmark ``--runs`` times per workload, seeds 0, 1, ...,
        one run at a time for BENCHMARK.json's ``run_seconds``, and write the quartiles of every end-to-end
        metric and its spread (q3 - q1) / median to bench/steadiness.json,
        and the same of the unscaled times the run printed on stderr.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def record_digests():
    sys.path.insert(0, str(ROOT / "src"))
    import cycdiv
    from run import CAMPAIGN_POOL, CAMPAIGN_TRIALS
    from workloads import campaign_digest
    digests = {}
    for seed in range(CAMPAIGN_POOL):
        reports = cycdiv.run_suite(cycdiv.SuiteConfig(seed=seed, trials=CAMPAIGN_TRIALS))
        failed = [r.claim for r in reports if not r.passed]
        if failed:
            raise SystemExit(f"campaign seed {seed} fails {failed}: nothing recorded")
        digests[str(seed)] = campaign_digest(reports)
    out = {str(CAMPAIGN_TRIALS): digests}
    (BENCH / "digests.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")


def record_steadiness(workloads, runs):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = bench["run_seconds"]
    path = BENCH / "steadiness.json"
    record = json.loads(path.read_text()) if path.exists() else {}
    record.update({"python": platform.python_version(), "nproc": os.cpu_count(),
                   "run_seconds": seconds, "runs": runs})
    for name in workloads:
        values = {}
        for seed in range(runs):
            cmd = [sys.executable, "bench/run.py", "--workload", name, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False)
            out = json.loads(proc.stdout.strip().splitlines()[-1])
            if not out["correct"]:
                raise SystemExit(f"{name} seed {seed} failed: {proc.stderr}")
            for metric, m in out["metrics"].items():
                values.setdefault(metric, []).append(m["value"])
            line = [x for x in proc.stderr.splitlines() if x.startswith("unscaled ")][-1]
            for metric, value in json.loads(line.split(" ", 1)[1]).items():
                values.setdefault(f"unscaled.{metric}", []).append(value)
        summary = {}
        for metric, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4)
            summary[metric] = {"median": statistics.median(vals), "q1": q1, "q3": q3,
                               "spread": (q3 - q1) / statistics.median(vals),
                               "values": vals}
        record.setdefault("workloads", {})[name] = summary
        print(name, json.dumps({k: round(v["spread"], 4) for k, v in summary.items()}),
              flush=True)
    path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("digests")
    steady = sub.add_parser("steadiness")
    steady.add_argument("--runs", type=int, default=10)
    steady.add_argument("--workload", action="append")
    args = parser.parse_args()
    if args.command == "digests":
        record_digests()
    else:
        from run import WORKLOADS
        record_steadiness(args.workload or WORKLOADS, args.runs)


if __name__ == "__main__":
    main()
