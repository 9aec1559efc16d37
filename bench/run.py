"""Benchmark of cycdiv: one workload from a seed, checked, with its metrics.

    python3 bench/run.py --workload verify-campaign --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; cycdiv is imported from its ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` measures the
end-to-end metrics, ``--trace 1`` the per-layer metrics of a separate traced
run, whose spans go to .bench_trace/<workload>.jsonl (see BENCHMARK.json and
bench/README.md).  The exit code is 0 when every check passed, 1 when one
failed and 2 when the benchmark could not run at all (for instance when
``src/`` is missing).
"""

import argparse
import json
import sys
from pathlib import Path

import harness
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

WORKLOADS = ["verify-campaign", "precision-scaling", "zero-divisors"]
# Workload sizes: "full" is what the benchmark measures, "tiny" is for the
# benchmark's own smoke tests.  A pass runs ``rounds`` rounds: enough
# distinct inputs for the latency quantiles, and few enough that a 40-second
# run makes six or more passes, of which each call's fastest is kept.
SIZES = {
    "full": {"high_precision": 120,
             "rounds": {"verify-campaign": 4, "precision-scaling": 1, "zero-divisors": 8}},
    "tiny": {"high_precision": 24, "rounds": dict.fromkeys(WORKLOADS, 1)},
}
# Every size runs whole campaigns of this many trials: with fewer, the
# norm-oracle-vs-formula claim fails on some seeds for want of samples.
CAMPAIGN_TRIALS = 16
CAMPAIGN_POOL = 8
# The traced run writes its spans here, one JSON object per line.
SPANS_DIR = ".bench_trace"


def make_workload(name, size="full"):
    """The workload and the number of rounds in one of its passes."""
    params = SIZES[size]
    rounds = params["rounds"][name]
    if name == "verify-campaign":
        digests = json.loads((BENCH / "digests.json").read_text())
        return workloads.VerifyCampaign(CAMPAIGN_TRIALS, CAMPAIGN_POOL, digests), rounds
    if name == "precision-scaling":
        mix = None
        if size == "tiny":
            mix = {(7, 3): {"norm": 1, "nonnorm": 1, "invert": 1, "oracle": 1},
                   (11, 5): {"norm": 1, "nonnorm": 1, "invert": 1, "oracle": 1}}
        return workloads.PrecisionScaling(params["high_precision"], mix), rounds
    if name == "zero-divisors":
        mix = None
        if size == "tiny":
            mix = {(7, 3): {"zd": {1: 1, 2: 1}, "unit": 1, "unit_terms": 3},
                   (11, 5): {"zd": {1: 1}, "unit": 1, "unit_terms": 2}}
        return workloads.ZeroDivisors(mix), rounds
    raise ValueError(f"unknown workload {name!r}")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return parser.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "cycdiv" / "__init__.py").is_file():
        print(f"benchmark: no cycdiv package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    workload, rounds = make_workload(args.workload)
    try:
        out = harness.run(workload, SRC, args.seed, args.seconds, bool(args.trace), rounds,
                          spans_path=ROOT / SPANS_DIR / f"{args.workload}.jsonl")
    except ImportError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0 if out["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
