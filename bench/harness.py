"""Closed-loop timing of one workload: set-up, passes, metrics.

One caller in one thread: each library call starts only after the previous
one returned.  A pass runs a fixed number of rounds; inputs of a round are
built before its calls and checked after each call, both outside the timed
region.  Passes repeat the same calls on inputs built afresh from the seed.
"""

import gc
import importlib
import json
import math
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from tracing import Tracer

# Set-ups before each pass: setup_s is the median of all of them.
SETUPS_PER_PASS = 3
# The host's speed drifts by up to half between runs minutes apart, and it
# slows pure-Python work of every kind alike.  Each pass therefore also
# times reference_task, and the end-to-end times are scaled to the speed at
# which its fastest run takes REFERENCE_S, a fixed unit of host speed (on
# 2 vCPUs it took 14 to 23 ms).  The unscaled times go to standard error.
REFERENCE_REPEATS = 10
REFERENCE_S = 0.02
# The traced run first makes untraced passes for this share of its time.
UNTRACED_SHARE = 0.5

END_TO_END = {  # name -> unit
    "setup_s": "s",
    "run_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_cycdiv(src):
    """Import cycdiv afresh from ``src``, dropping any copy already loaded."""
    for name in [n for n in sys.modules if n == "cycdiv" or n.startswith("cycdiv.")]:
        del sys.modules[name]
    lib = importlib.import_module("cycdiv")
    if Path(lib.__file__).resolve().parent.parent != Path(src).resolve():
        raise ImportError(f"cycdiv imported from {lib.__file__}, not from {src}")
    return lib


def setup(workload, src, repeats):
    """Import and build ``repeats`` times; the last build is the one used."""
    times = []
    for _ in range(repeats):
        gc.collect()  # the garbage of the previous set-up is not this one's cost
        start = time.perf_counter()
        lib = import_cycdiv(src)
        state = workload.setup(lib)
        times.append(time.perf_counter() - start)
    return times, state


def reference_task():
    """A fixed piece of pure-Python work, independent of cycdiv: integer
    arithmetic, dict updates and small allocations, like the library's."""
    coeffs = {}
    acc = 0
    for i in range(60_000):
        k = (i * 7919) % 4099
        coeffs[k] = (coeffs.get(k, 0) + acc) % 1_000_003
        acc = (acc * 31 + k) % 1_000_003
    pairs = sorted((v, (k,)) for k, v in coeffs.items())
    return pairs[-1], acc


def time_reference(phase):
    """Keep the fastest of REFERENCE_REPEATS runs of reference_task."""
    for _ in range(REFERENCE_REPEATS):
        gc.disable()  # the library's heap is no part of the reference's cost
        t0 = time.perf_counter()
        reference_task()
        dt = time.perf_counter() - t0
        gc.enable()
        phase.reference = min(dt, phase.reference)


def quantile(values, q):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[round(q * 100) - 1]


class Phase:
    """Fastest latencies and outcomes of the calls made in one phase.

    Every pass makes the same calls on inputs rebuilt from the same seed,
    and a call's latency is the fastest of its passes.  The host's speed
    drifts by up to a fifth within a run, so the fastest pass is what stays
    comparable between runs; each pass gets fresh input objects, so nothing
    a call leaves on its inputs speeds up the next pass.
    """

    def __init__(self):
        self.setup_times = []
        self.reference = math.inf  # fastest reference_task, seconds
        self.best = {}  # (round, op index, part) -> fastest seconds
        self.passes = 0
        self.attempted = 0
        self.failed = 0

    def op_latencies(self):
        """Seconds per operation, the fastest of each part summed."""
        ops = {}
        for (index, i, _), dt in self.best.items():
            ops[(index, i)] = ops.get((index, i), 0.0) + dt
        return list(ops.values())

    def part_seconds(self):
        """part -> fastest seconds summed over the operations of one pass."""
        parts = {}
        for (_, _, part), dt in self.best.items():
            parts[part] = parts.get(part, 0.0) + dt
        return parts


def run_pass(workload, state, seed, rounds, phase, call=None, split=False):
    """Rounds 0..rounds-1 once, each call checked after it returns."""
    call = call or (lambda fn, *args: fn(*args))
    for index in range(rounds):
        ops = workload.make_round(state, seed, index)
        gc.collect()  # leave no garbage of earlier rounds for the timed calls
        for i, op in enumerate(ops):
            parts = workload.claim_calls(state, op) if split else [op]
            results = []
            for part in parts:
                t0 = time.perf_counter()
                try:
                    result = call(workload.run_op, state, part)
                except Exception:  # a crashed call is a failed operation
                    traceback.print_exc(file=sys.stderr)
                    result = None
                dt = time.perf_counter() - t0
                key = (index, i, part["claims"][0] if split else None)
                phase.best[key] = min(dt, phase.best.get(key, dt))
                results.append(result)
            if split:
                result = None if None in results else [r for rs in results for r in rs]
            if result is None:
                attempted, failed, message = 1, 1, "library call raised"
            else:
                attempted, failed, message = workload.check(state, op, result)
            if message:
                print(f"{workload.name}: {message}", file=sys.stderr)
            phase.attempted += attempted
            phase.failed += failed
    phase.passes += 1


def run_passes(workload, src, seed, rounds, seconds, phase, split=False):
    """Passes while another one of the last one's length still ends within
    ``seconds`` of wall time, and at least one.  Each pass runs on a state
    set up afresh, so that the set-ups too are spread over the run; returns
    the last state."""
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        time_reference(phase)
        times, state = setup(workload, src, SETUPS_PER_PASS)
        phase.setup_times += times
        run_pass(workload, state, seed, rounds, phase, split=split)
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return state


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def end_to_end(phase):
    latencies = phase.op_latencies()
    run_s = sum(latencies)
    ms = [1000 * x for x in latencies]
    return {
        "setup_s": statistics.median(phase.setup_times),
        "run_s": run_s,
        "ops_per_s": phase.attempted / phase.passes / run_s,
        "op_p50_ms": quantile(ms, 0.5),
        "op_p90_ms": quantile(ms, 0.9),
    }


def scaled(unscaled, reference):
    """The end-to-end metrics at the host speed where reference_task takes
    REFERENCE_S."""
    factor = REFERENCE_S / reference
    out = {k: v / factor if k == "ops_per_s" else v * factor for k, v in unscaled.items()}
    out["peak_rss_mb"] = peak_rss_mb()
    return out


def per_layer(tracer, setup_tracer, untraced, traced, claim_ids, claim_s):
    """Per-layer metrics of the one traced pass, and of the traced set-up."""
    def ratio(a, b):
        return a / b if b else 0.0

    t = tracer
    m = {}
    for name in ["series.mul", "series.add", "series.invert", "series.hensel_qth_root",
                 "basefields.coeff_mul", "anagram.c0_classes", "kummer.norm_oracle",
                 "kummer.kummer_mul", "kummer.norm_formula", "kummer.is_norm",
                 "algebra.relation_mul", "algebra.invert", "algebra.constants_mul",
                 "linalg.solve_linear", "linalg.kernel_vector", "quaternion.biquat_mul",
                 "quaternion.quadext_mul"]:
        m[f"{name}.calls"] = t.calls(name)
        m[f"{name}.self_s"] = t.self_s(name)
    m["series.mul.term_products"] = t.extra["series.mul.term_products"]
    m["series.mul.monomial_share"] = ratio(t.extra["series.mul.monomial_products"],
                                           t.calls("series.mul"))
    m["series.domain_eq.calls"] = t.calls("series.domain_eq")
    m["series.invert.per_hensel"] = ratio(t.extra["series.invert.under_hensel"],
                                          t.calls("series.hensel_qth_root"))
    m["series.max_support"] = t.extra["series.max_support"]
    m["anagram.c0_classes.per_norm_formula"] = ratio(t.calls("anagram.c0_classes"),
                                                     t.calls("kummer.norm_formula"))
    m["kummer.is_norm.positive_share"] = ratio(t.extra["kummer.is_norm.positive"],
                                               t.calls("kummer.is_norm"))
    m["linalg.kernel.max_entry_terms"] = t.extra["linalg.kernel.max_entry_terms"]
    m["quaternion.anisotropy_sample_test.self_s"] = t.self_s("quaternion.anisotropy_sample_test")
    m["quaternion.sos_leading_data.self_s"] = t.self_s("quaternion.sos_leading_data")
    m["algebra.structure_constants.self_s"] = t.self_s("algebra.structure_constants")
    m["setup.algebra.structure_constants.self_s"] = setup_tracer.self_s(
        "algebra.structure_constants")
    for claim in claim_ids:
        m[f"verify.claim.{claim}.s"] = claim_s.get(claim, 0.0)
    m["trace.untraced_run_s"] = untraced
    m["trace.traced_run_s"] = traced
    m["trace.overhead_s"] = traced - untraced
    m["trace.spans_dropped"] = t.dropped
    return m


def run(workload, src, seed, seconds, trace, rounds, spans_path=None):
    """One benchmark run over ``rounds`` rounds per pass; returns the result
    object printed by run.py."""
    phase = Phase()
    if not trace:
        run_passes(workload, src, seed, rounds, seconds, phase)
        unscaled = end_to_end(phase)
        print("unscaled " + json.dumps(dict(unscaled, reference_s=phase.reference)),
              file=sys.stderr)
        metrics = {k: {"value": v, "unit": END_TO_END[k]}
                   for k, v in scaled(unscaled, phase.reference).items()}
        return result(phase.attempted, phase.failed, metrics)

    # The traced pass makes exactly the calls that the untraced passes
    # timed, so its counts are fixed by the seed and the overhead compares
    # like with like.  verify-campaign runs one run_suite per claim in both.
    split = hasattr(workload, "claim_calls")
    state = run_passes(workload, src, seed, rounds, UNTRACED_SHARE * seconds, phase,
                       split=split)
    setup_tracer = Tracer()
    lib = state["lib"]
    state = setup_tracer.call(workload.setup, lib)
    tracer = Tracer()
    traced = Phase()
    run_pass(workload, state, seed, rounds, traced, call=tracer.call, split=split)
    if spans_path is not None:
        tracer.write_spans(spans_path)
    values = per_layer(tracer, setup_tracer, sum(phase.op_latencies()),
                       sum(traced.op_latencies()), lib.CLAIM_IDS, phase.part_seconds())
    metrics = {k: {"value": v, "unit": layer_unit(k)} for k, v in values.items()}
    return result(phase.attempted + traced.attempted, phase.failed + traced.failed, metrics)


def layer_unit(name):
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name.endswith("_share") or name.startswith("anagram.c0_classes.per_") \
            or name.endswith(".per_hensel"):
        return "ratio"
    return "count"


def result(attempted, failed, metrics):
    return {"correct": failed == 0 and attempted > 0, "attempted": attempted,
            "failed": failed, "metrics": metrics}
