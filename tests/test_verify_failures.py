"""The claims' failure paths, pinned.

The default campaign only ever passes, so its output says nothing about how
a claim counts and words a failure.  Each case here plants one fault in a
name the claims call through ``cycdiv.verify`` and checks that the claim
fails, with the report recorded in ``claim_failure_reports.json``: the same
trials, failures, witnesses and parameters, byte for byte.  A claim must
not fail either on a valid configuration it was not written for.
"""

import dataclasses
import json
import types
from pathlib import Path

import pytest

from cycdiv import verify
from cycdiv.element import Element
from cycdiv.errors import CycdivError, ZeroDivisorError
from cycdiv.quaternion import AlbertForm, BiquaternionElement
from cycdiv.verify import SuiteConfig, run_suite

GOLDEN = json.loads((Path(__file__).parent / "claim_failure_reports.json").read_text())
CONFIG = dict(seed=0, trials=2, precision=6)


def _zero(algebra):
    return algebra.element([algebra.F.zero] * algebra.n)


def _no_kernel(real):
    def fault(d, target_precision=None):
        try:
            return real(d, target_precision)
        except ZeroDivisorError as exc:
            raise ZeroDivisorError(str(exc)) from exc
    return fault


def _raises(*args):
    raise CycdivError("planted fault")


def _decided(change):
    """An is_division fault: the real verdict and decision, passed through ``change``."""
    return lambda real: lambda D: change(*real(D))


def _odd_sums_fail(real):
    def fault(summands):
        if len(summands) % 2:
            raise CycdivError(f"planted fault on {len(summands)} summands")
        return real(summands)
    return fault


def _second_level_law_fails(real):
    def fault(q):
        return [{**r, "passed": i != 1} for i, r in enumerate(real.verify_level_count_laws(q))]
    return types.SimpleNamespace(**{**vars(real), "verify_level_count_laws": fault})


def _biquaternion(mul):
    return type("Faulty", (BiquaternionElement,), {"__mul__": mul})


# fault id -> (claims, name in cycdiv.verify, replacement built from the original)
FAULTS = {
    "anagram-second-class-per-q": (["anagram-level-laws"], "anagram", _second_level_law_fails),
    "norm_formula-off-by-one": (
        ["norm-oracle-vs-formula"], "norm_formula",
        lambda real: lambda a, **kw: a.context.F.add(real(a, **kw), a.context.F.one)),
    "norm_formula-variant-unweighted": (
        ["norm-oracle-vs-formula"], "norm_formula",
        lambda real: lambda a, with_class_size_factor=False: real(a)),
    "norm_valuation-off-by-one": (
        ["norm-valuation-identity"], "norm_valuation", lambda real: lambda a: real(a) + 1),
    "norm_term_table-empty": (
        ["norm-closed-forms"], "norm_term_table", lambda real: lambda q: {}),
    "norm_oracle-plus-one": (
        ["norm-residues"], "norm_oracle",
        lambda real: lambda a: a.context.F.add(real(a), a.context.F.one)),
    "is_norm-never": (
        ["norm-residues"], "is_norm",
        lambda real: lambda ctx, x: dataclasses.replace(real(ctx, x), is_norm=False)),
    "relation_mul-zero": (
        ["division-certification", "structure-constants", "hahn-tower-division"],
        "relation_mul", lambda real: lambda a, b: _zero(a.algebra)),
    "relation_mul-plus-one": (
        ["division-certification"], "relation_mul",
        lambda real: lambda a, b: real(a, b) + a.algebra.one),
    "constants_mul-plus-one": (
        ["structure-constants"], "constants_mul",
        lambda real: lambda a, b, consts, F: [F.add(c, F.one) for c in real(a, b, consts, F)]),
    "is_division-flipped": (
        ["division-certification", "hahn-tower-division"], "is_division",
        _decided(lambda div, decision: (not div, decision))),
    "is_division-no-preimage": (
        ["division-certification"], "is_division",
        _decided(lambda div, decision: (div, dataclasses.replace(decision, preimage=None)))),
    "is_division-wrong-preimage": (
        ["division-certification"], "is_division",
        _decided(lambda div, decision: (div, decision if decision.preimage is None else
                                        dataclasses.replace(decision, preimage=decision.preimage
                                                            + decision.preimage.algebra.one)))),
    "is_division-other-certificate": (
        ["division-certification", "hahn-tower-division"], "is_division",
        _decided(lambda div, decision: (
            div, dataclasses.replace(decision, certificate={"kind": "planted"})))),
    "invert-plus-one": (
        ["division-certification"], "invert",
        lambda real: lambda d, target_precision=None: real(d, target_precision)
        + d.algebra.one),
    "invert-never-singular": (
        ["division-certification"], "invert",
        lambda real: lambda d, target_precision=None: d.algebra.one),
    "invert-no-kernel": (["division-certification"], "invert", _no_kernel),
    "zero_divisor_witness-raises": (
        ["division-certification"], "zero_divisor_witness",
        lambda real: _raises),
    "anisotropy_sample_test-zero-form": (
        ["albert-anisotropy"], "anisotropy_sample_test",
        lambda real: lambda form, domain, trials, rng: real(
            AlbertForm((form.F.zero,) * 6, form.F), domain, trials, rng)),
    "sos_leading_data-odd-sums": (["albert-anisotropy"], "sos_leading_data", _odd_sums_fail),
    "nonsquare_witness-square": (
        ["albert-anisotropy"], "nonsquare_witness",
        lambda real: lambda R: (real(R)[0], {**real(R)[1], "is_square": True})),
    "biquaternion-zero-products": (
        ["biquaternion-pairs"], "BiquaternionElement",
        lambda real: _biquaternion(lambda a, b: _zero(a.algebra))),
    "biquaternion-nonassociative": (
        ["biquaternion-pairs"], "BiquaternionElement",
        lambda real: _biquaternion(lambda a, b: Element.__mul__(a, b) + a)),
}


def faulty_reports(fault_id, monkeypatch):
    claims, name, build = FAULTS[fault_id]
    monkeypatch.setattr(verify, name, build(getattr(verify, name)))
    return run_suite(SuiteConfig(**CONFIG, claims=claims))


def test_every_fault_is_pinned():
    assert sorted(GOLDEN) == sorted(FAULTS)


@pytest.mark.parametrize("fault_id", sorted(FAULTS))
def test_fault_fails_its_claims_with_the_recorded_reports(fault_id, monkeypatch):
    reports = faulty_reports(fault_id, monkeypatch)
    assert [r.claim for r in reports] == FAULTS[fault_id][0]
    assert all(not r.passed for r in reports)
    assert [r.to_json() for r in reports] == GOLDEN[fault_id]


@pytest.mark.parametrize("p, q, alphas", [
    (7, 3, ["2", "6", "t"]),
    (11, 5, ["2", "10", "t"]),
    (13, 3, ["2", "8", "t"]),
    (11, 2, ["2", "4", "10*t"]),  # N(u) = -t when q = 2
])
def test_division_certification_passes_at_other_pairings(p, q, alphas):
    """division-certification takes its three alphas from (p, q): the least
    residue that is not a q-th power, beta^q for the least beta >= 2 whose
    q-th power is not 1 (so the zero-divisor algebra is not the split
    X^q = 1), and N(u).  With 2, 6 = 3^3 and t fixed it failed at (11, 5),
    (13, 3) and (11, 2)."""
    report, = run_suite(SuiteConfig(seed=0, trials=4, precision=20, p=p, q=q,
                                    claims=["division-certification"]))
    assert report.passed and report.witnesses == []
    assert report.parameters["alphas"] == alphas
    assert report.parameters["alphas"][1] != "1"
