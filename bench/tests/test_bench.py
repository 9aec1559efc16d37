"""Tests of the benchmark itself: smoke runs, metric names, correctness gates.

    python -m pytest -q bench/tests
"""

import json
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(SRC))

import harness  # noqa: E402
import run  # noqa: E402
from tracing import Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny_run(workload, trace):
    spec, rounds = run.make_workload(workload, "tiny")
    out = harness.run(spec, SRC, 1, 0, trace, rounds)
    json.dumps(out)  # printable as the result line
    return out


def names_and_units(entries):
    return {e["name"]: e["unit"] for e in entries}


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smoke_run_reports_every_end_to_end_metric(workload):
    out = tiny_run(workload, False)
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    assert out["correct"] and out["failed"] == 0 and out["attempted"] >= 1
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        names_and_units(SPEC["end_to_end"])
    assert all(v["value"] > 0 for v in out["metrics"].values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_smoke_run_reports_every_per_layer_metric(workload):
    out = tiny_run(workload, True)
    assert out["correct"] and out["failed"] == 0
    metrics = {k: v["value"] for k, v in out["metrics"].items()}
    assert {k: v["unit"] for k, v in out["metrics"].items()} == \
        names_and_units(SPEC["per_layer"])
    if workload == "precision-scaling":
        assert metrics["series.mul.calls"] > 0 and metrics["kummer.is_norm.calls"] > 0
        zero = [k for k in metrics if k.startswith(("anagram.", "quaternion."))]
        zero.append("linalg.kernel_vector.calls")
        assert all(metrics[k] == 0 for k in zero)
    if workload == "verify-campaign":
        claims = [k for k in metrics if k.startswith("verify.claim.")]
        assert len(claims) == 10 and all(metrics[k] > 0 for k in claims)
    if workload == "zero-divisors":
        assert metrics["linalg.kernel_vector.calls"] > 0
        assert metrics["linalg.solve_linear.calls"] > 0


def test_scaling_to_the_reference_speed():
    unscaled = {"setup_s": 0.1, "run_s": 2.0, "ops_per_s": 5.0, "op_p50_ms": 10.0,
                "op_p90_ms": 30.0}
    out = harness.scaled(unscaled, 2 * harness.REFERENCE_S)  # a host at half speed
    assert out.pop("peak_rss_mb") > 0
    assert out == pytest.approx({"setup_s": 0.05, "run_s": 1.0, "ops_per_s": 10.0,
                                 "op_p50_ms": 5.0, "op_p90_ms": 15.0})


def test_traced_counts_are_fixed_by_the_seed():
    first, second = (tiny_run("zero-divisors", True)["metrics"] for _ in range(2))
    counts = [k for k, v in first.items() if v["unit"] == "count"]
    assert "linalg.kernel_vector.calls" in counts
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}


def test_result_line_is_the_last_line_of_output():
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zero-divisors",
                           "--seed", "2", "--seconds", "0", "--trace", "0"],
                          cwd=ROOT, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    assert out["correct"] and set(out["metrics"]) == set(names_and_units(SPEC["end_to_end"]))


def test_run_without_sources_fails_without_a_result(tmp_path):
    (tmp_path / "bench").mkdir()
    for f in BENCH.glob("*.py"):
        (tmp_path / "bench" / f.name).write_text(f.read_text())
    (tmp_path / "bench" / "digests.json").write_text((BENCH / "digests.json").read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "zero-divisors",
                           "--seed", "0", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False)
    assert proc.returncode == 2
    assert proc.stdout == ""


# -- correctness gates ---------------------------------------------------------

@pytest.fixture(scope="module")
def lib():
    return harness.import_cycdiv(SRC)


def first_op(workload, state, predicate):
    for index in range(10):
        for op in workload.make_round(state, 0, index):
            if predicate(op):
                return op
    raise AssertionError("no such operation")


def test_verify_gate_rejects_a_wrong_digest(lib):
    workload, _ = run.make_workload("verify-campaign", "tiny")
    state = workload.setup(lib)
    op = workload.make_round(state, 0, 0)[0]
    reports = workload.run_op(state, op)
    assert workload.check(state, op, reports)[1] == 0
    reports[0].witnesses.append("tampered")
    attempted, failed, message = workload.check(state, op, reports)
    assert failed == attempted > 0 and "digest" in message


def test_precision_gate_rejects_a_tampered_or_truncated_preimage(lib):
    workload, _ = run.make_workload("precision-scaling", "tiny")
    state = workload.setup(lib)
    op = first_op(workload, state, lambda o: o[0] == "is_norm" and o[3])
    decision = workload.run_op(state, op)
    assert workload.check(state, op, decision)[1] == 0
    F = op[1].F
    good = decision.preimage
    # t * preimage: its norm is t^q * x (a constant factor could have norm 1)
    tampered = good.context.element([F.mul(F.variable, c) for c in good.coords])
    decision.preimage = tampered
    assert workload.check(state, op, decision)[1] == 1
    # truncated to O(t^2): agrees on what is known, but the joint precision
    # is below the workload's, so the check must not pass vacuously
    decision.preimage = good.context.element([c.truncate(2) for c in good.coords])
    attempted, failed, message = workload.check(state, op, decision)
    assert failed == 1 and "joint precision" in message


def test_precision_gate_rejects_a_wrong_norm_answer(lib):
    workload, _ = run.make_workload("precision-scaling", "tiny")
    state = workload.setup(lib)
    op = first_op(workload, state, lambda o: o[0] == "is_norm" and not o[3])
    decision = workload.run_op(state, op)
    decision.is_norm = True
    assert workload.check(state, op, decision)[1] == 1


def test_zero_divisor_gate_rejects_a_wrong_kernel_and_inverse(lib):
    workload, _ = run.make_workload("zero-divisors", "tiny")
    state = workload.setup(lib)
    op = first_op(workload, state, lambda o: o[0] == "zero-divisor")
    kind, kernel = workload.run_op(state, op)
    assert kind == "kernel" and workload.check(state, op, (kind, kernel))[1] == 0
    F = op[1].F
    wrong = list(kernel)
    j = next(i for i, c in enumerate(wrong) if not F.is_known_zero(c))
    wrong[j] = F.add(wrong[j], F.one)
    assert workload.check(state, op, (kind, wrong))[1] == 1
    assert workload.check(state, op, (kind, [F.zero] * len(kernel)))[1] == 1

    op = first_op(workload, state, lambda o: o[0] == "unit")
    kind, inverse = workload.run_op(state, op)
    assert kind == "inverse" and workload.check(state, op, (kind, inverse))[1] == 0
    D = op[1]
    assert workload.check(state, op, (kind, inverse + D.one))[1] == 1


# -- tracing -----------------------------------------------------------------------

def test_wrappers_replace_every_binding_and_restore_it(lib):
    import cycdiv.algebra
    import cycdiv.kummer
    import cycdiv.verify
    original = cycdiv.kummer.norm_oracle
    tracer = Tracer()
    tracer.install()
    try:
        for module in (cycdiv, cycdiv.kummer, cycdiv.verify):
            assert module.norm_oracle is not original
        assert cycdiv.algebra.is_norm is cycdiv.kummer.is_norm
        ctx = cycdiv.laurent_context(7, 3)
        a = ctx.element([ctx.F.one, ctx.F.variable, ctx.F.one])
        cycdiv.verify.norm_oracle(a)
    finally:
        tracer.uninstall()
    for module in (cycdiv, cycdiv.kummer, cycdiv.verify):
        assert module.norm_oracle is original
    assert tracer.calls("kummer.norm_oracle") == 1
    assert tracer.calls("kummer.kummer_mul") == 2
    assert tracer.calls("series.mul") > 0 and tracer.calls("basefields.coeff_mul") > 0


def self_times_from_spans(spans):
    """name -> total self time, from the stored spans alone."""
    child = defaultdict(float)
    for _, _, start, end, parent in spans:
        child[parent] += end - start
    out = defaultdict(float)
    for sid, name, start, end, _ in spans:
        out[name] += (end - start) - child[sid]
    return out


def test_self_time_excludes_child_spans(lib):
    tracer = Tracer()
    ctx = lib.laurent_context(7, 3, precision=30)
    a = ctx.element([ctx.F.series({0: 1, 1: 2, 2: 3}, 30)] * 3)
    tracer.call(lambda x: lib.norm_oracle(x), a)  # looked up while wrapped
    spans = tracer.spans
    by_id = {s[0]: s for s in spans}
    for sid, name, start, end, parent in spans:
        if parent:
            p = by_id[parent]
            assert p[2] <= start <= end <= p[3]
    from_spans = self_times_from_spans(spans)
    # coefficient multiplies store no span, so from spans alone their time
    # counts as their caller's self time
    assert tracer.self_s("kummer.norm_oracle") == pytest.approx(
        from_spans["kummer.norm_oracle"], rel=1e-6, abs=1e-9)
    total = spans[-1][3] - spans[-1][2]  # the root "op" span closes last
    assert sum(s[1] for s in tracer.stats.values()) == pytest.approx(total, rel=1e-6)
