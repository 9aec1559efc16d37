"""End-to-end acceptance checks, one test per criterion.

A single full verification campaign (seed 0, default configuration) is run
once per session and shared; a second full run backs the determinism
criterion.  Each test prints one PASS/FAIL line.
"""

import hashlib

import pytest

from cycdiv import SuiteConfig, qth_power_set, run_suite
from cycdiv.anagram import SUPPORTED_Q, verify_level_count_laws
from cycdiv.verify import norm_term_table

# sha256 of the seed-0 default campaign's JSON lines, which is also what
# `cycdiv verify` writes to standard output
SEED0_DIGEST = "ed957529d5264070e8fca3cd0e81eb063e653768aef8e91131f911f6e4c61e4d"


@pytest.fixture(scope="session")
def suite():
    reports1 = run_suite(SuiteConfig())
    reports2 = run_suite(SuiteConfig())
    by_claim = {r.claim: r for r in reports1}
    return by_claim, reports1, reports2


def _report(number, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nacceptance criterion {number:2d}: {status} -- {detail}")
    assert ok, detail


def test_criterion_01_level_count_laws(suite):
    by_claim, _, _ = suite
    r = by_claim["anagram-level-laws"]
    ok = r.passed and r.trials == 1855 and r.elapsed < 30
    # the corrected divisibility (q | N_0) is part of the per-class laws;
    # the stronger q(q-1) | N_0 is reported as info and is known to fail
    # on repeated-entry zero-sum classes (10 at q=5, 63 at q=7)
    flagged = {q: sum(1 for res in verify_level_count_laws(q)
                      if res["info"] and not res["info"]["q(q-1)-divides-N0 (info)"])
               for q in SUPPORTED_Q}
    ok = ok and flagged == {2: 0, 3: 0, 5: 10, 7: 63}
    _report(1, ok, f"{r.trials} classes, failures={r.failures}, "
                   f"elapsed={r.elapsed:.1f}s, strong-divisibility exceptions={flagged}")


def test_criterion_02_oracle_equivalence(suite):
    by_claim, _, _ = suite
    r = by_claim["norm-oracle-vs-formula"]
    ok = (r.passed and r.parameters["per_context"] == 500
          and r.parameters["precision"] == 30 and r.elapsed < 60)
    _report(2, ok, f"{r.trials} elements over 3 contexts, failures={r.failures}, "
                   f"elapsed={r.elapsed:.1f}s")


def test_criterion_03_closed_forms(suite):
    by_claim, _, _ = suite
    r = by_claim["norm-closed-forms"]
    ok = r.passed
    # coefficient-exact: N = b0^2 - t b1^2 and b0^3 + t b1^3 + t^2 b2^3 - 3t b0 b1 b2
    ok = ok and norm_term_table(2) == {(0, 0): (1, 0), (1, 1): (-1, 1)}
    ok = ok and norm_term_table(3) == {(0, 0, 0): (1, 0), (1, 1, 1): (1, 1),
                                       (2, 2, 2): (1, 2), (0, 1, 2): (-3, 1)}
    _report(3, ok, "degree-2 and degree-3 generated norms coefficient-exact")


def test_criterion_04_norm_valuation(suite):
    by_claim, _, _ = suite
    r = by_claim["norm-valuation-identity"]
    ok = (r.passed and r.parameters["per_context"] == 500
          and r.parameters["valuation_range"] == [-5, 5])
    _report(4, ok, f"{r.trials} elements, failures={r.failures}")


def test_criterion_05_norm_residues(suite):
    by_claim, _, _ = suite
    r = by_claim["norm-residues"]
    ok = r.passed and r.parameters["per_context"] == 500
    ok = ok and qth_power_set(7, 3) == {1, 6} and qth_power_set(11, 5) == {1, 10}
    _report(5, ok, f"{r.trials} checks incl. preimage round-trips, failures={r.failures}")


def test_criterion_06_division_certification(suite):
    by_claim, _, _ = suite
    r = by_claim["division-certification"]
    ok = (r.passed and r.parameters["pairs"] == 2000 and r.parameters["inversions"] == 200
          and r.parameters["precision"] == 20 and r.parameters["alphas"] == ["2", "6", "t"]
          and r.elapsed < 180)
    _report(6, ok, f"alphas 2/6/t, {r.trials} checks, failures={r.failures}, "
                   f"elapsed={r.elapsed:.1f}s")


def test_criterion_07_structure_constants(suite):
    by_claim, _, _ = suite
    r = by_claim["structure-constants"]
    ok = r.passed and r.parameters["per_algebra"] == 500
    _report(7, ok, f"{r.trials} pairs over 2 algebras incl. JSON round-trip, "
                   f"failures={r.failures}")


def test_criterion_08_hahn_tower(suite):
    by_claim, _, _ = suite
    r = by_claim["hahn-tower-division"]
    ok = (r.passed and r.parameters["pairs"] == 200
          and r.parameters["group"] == "Z[1/7]" and r.elapsed < 120)
    _report(8, ok, f"tower division + {r.parameters['pairs']} products, "
                   f"failures={r.failures}, elapsed={r.elapsed:.1f}s")


def test_criterion_09_albert_biquaternion(suite):
    by_claim, _, _ = suite
    ra = by_claim["albert-anisotropy"]
    rb = by_claim["biquaternion-pairs"]
    ok = (ra.passed and rb.passed
          and ra.parameters["albert_trials"] == 5000
          and ra.parameters["sos_trials"] == 1000
          and rb.parameters["pairs"] == 2000 and rb.parameters["triples"] == 500
          and ra.elapsed + rb.elapsed < 180)
    _report(9, ok, f"albert failures={ra.failures}, biquaternion failures={rb.failures}, "
                   f"elapsed={ra.elapsed + rb.elapsed:.1f}s")


def test_criterion_10_determinism(suite):
    _, reports1, reports2 = suite
    lines1 = [r.to_json() for r in reports1]
    lines2 = [r.to_json() for r in reports2]
    ok = lines1 == lines2 and len(lines1) == 10
    _report(10, ok, "two seed-0 campaigns serialize to identical JSON reports")


def test_seed0_campaign_digest(suite):
    _, reports1, _ = suite
    text = "\n".join(r.to_json() for r in reports1) + "\n"
    digest = hashlib.sha256(text.encode()).hexdigest()
    _report(11, digest == SEED0_DIGEST, f"seed-0 campaign sha256 {digest}")
