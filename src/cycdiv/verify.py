"""Seeded verification campaigns tying each claim to a runnable check.

Each claim produces a :class:`VerificationReport`; the suite is
deterministic for a fixed (config, seed) and serializes to JSON lines.
Elapsed timings are kept out of the canonical JSON so replays are
byte-identical; pass ``include_elapsed`` to get them.
"""

import json
import random
import time
from dataclasses import dataclass, field
from fractions import Fraction

from . import anagram
from .algebra import (CyclicAlgebra, constants_from_json, constants_mul, constants_to_json,
                      invert, is_division, relation_mul, structure_constants, tensor,
                      zero_divisor_witness)
from .basefields import QQ, PrimeField, is_prime, primitive_qth_root
from .errors import CycdivError, ZeroDivisorError
from .kummer import KummerContext, is_norm, norm_formula, norm_oracle, norm_valuation
from .quaternion import (BiquaternionElement, QuadraticExtension, QuaternionAlgebra, albert_form,
                         anisotropy_sample_test, nonsquare_witness, sos_leading_data)
from .series import hahn, laurent

CLAIM_IDS = ["anagram-level-laws", "norm-oracle-vs-formula", "norm-closed-forms", "norm-valuation-identity",
             "norm-residues", "division-certification", "structure-constants", "hahn-tower-division",
             "albert-anisotropy", "biquaternion-pairs"]


# -- standard contexts ----------------------------------------------------

def laurent_context(p, q, precision=20):
    """Kummer setup K = F(u), u^q = t over F = F_p((t))."""
    F = laurent(PrimeField(p), "t", default_precision=precision)
    xi = F.constant(primitive_qth_root(p, q))
    return KummerContext(F, q, F.variable, xi)


def hahn_tower_context(p, q, precision=6):
    """K over F = F_p((x^G))((t^G)) with G = Z[1/p]."""
    k = hahn(PrimeField(p), "x", p, default_precision=precision)
    F = hahn(k, "t", p, default_precision=precision)
    xi = F.constant(k.constant(primitive_qth_root(p, q)))
    return KummerContext(F, q, F.variable, xi)


def hamilton_algebra():
    """Hamilton quaternions as the cyclic algebra (Q(i)/Q, conj, -1)."""
    ctx = KummerContext(QQ, 2, Fraction(-1), Fraction(-1))
    return CyclicAlgebra(ctx, Fraction(-1))


def albert_setup(precision=20):
    """F = Q((X))((Y)), D1 = (X,-1), D2 = (-X,Y), and the Albert form."""
    R = laurent(QQ, "X", default_precision=precision)
    F = laurent(R, "Y", default_precision=precision)
    x_in_F = F.constant(R.variable)
    y = F.variable
    D1 = QuaternionAlgebra(F, x_in_F, F.from_int(-1))
    D2 = QuaternionAlgebra(F, -x_in_F, y)
    return R, F, D1, D2, albert_form(D1, D2)


# -- configuration and reports --------------------------------------------

@dataclass
class SuiteConfig:
    seed: int = 0
    precision: int = 20
    trials: int = 1000
    p: int = 7
    q: int = 3
    claims: list = field(default_factory=lambda: list(CLAIM_IDS))

    def validate(self):
        if not is_prime(self.p):
            raise CycdivError(f"p = {self.p} is not prime")
        if not is_prime(self.q):
            raise CycdivError(f"q = {self.q} is not prime")
        if (self.p - 1) % self.q != 0:
            raise CycdivError(f"invalid pairing: {self.q} does not divide {self.p} - 1")
        if self.precision < 4:
            raise CycdivError("precision must be at least 4")
        if self.trials < 1:
            raise CycdivError("trials must be positive")
        unknown = [c for c in self.claims if c not in CLAIM_IDS]
        if unknown:
            raise CycdivError(f"unknown claim ids: {unknown}")


@dataclass
class VerificationReport:
    claim: str
    parameters: dict
    trials: int
    failures: int
    witnesses: list
    seed: int
    elapsed: float = 0.0

    @property
    def passed(self):
        return self.failures == 0

    def to_json(self, include_elapsed=False):
        data = {"claim": self.claim, "parameters": self.parameters, "trials": self.trials,
                "failures": self.failures, "witnesses": self.witnesses, "seed": self.seed,
                "passed": self.passed}
        if include_elapsed:
            data["elapsed"] = self.elapsed
        return json.dumps(data, sort_keys=True)


def _rng(config, claim):
    return random.Random(f"{config.seed}:{claim}")


# -- claims ----------------------------------------------------------------

def check_lemma_combin(config):
    """Exhaustive level-count laws for q in {2, 3, 5, 7}."""
    witnesses = []
    total = 0
    for q in anagram.SUPPORTED_Q:
        for result in anagram.verify_level_count_laws(q):
            total += 1
            if not result["passed"]:
                witnesses.append(f"q={q} class={result['class'].canonical_rep} "
                                 f"checks={result['checks']}")
    return VerificationReport("anagram-level-laws", {"q": list(anagram.SUPPORTED_Q)},
                              total, len(witnesses), witnesses, config.seed)


_ORACLE_CONTEXTS = [(7, 3), (13, 3), (11, 5)]


def check_norm_oracle_equivalence(config):
    """norm_formula == norm_oracle coefficientwise; pins f = N0 - N1."""
    rng = _rng(config, "norm-oracle-vs-formula")
    per_context = max(1, config.trials // 2)
    witnesses = []
    failures = 0
    trials = 0
    for p, q in _ORACLE_CONTEXTS:
        ctx = laurent_context(p, q, precision=30)
        variant_diverged = q == 2  # the variants coincide for q = 2
        for _ in range(per_context):
            trials += 1
            a = ctx.random_element(rng, n_terms=3, exp_lo=-3, exp_hi=8, precision=30)
            oracle = norm_oracle(a)
            if not norm_formula(a).agrees_to_precision(oracle):
                failures += 1
                witnesses.append(f"p={p} q={q} a={a!r}")
            if not variant_diverged and not norm_formula(
                    a, with_class_size_factor=True).agrees_to_precision(oracle):
                variant_diverged = True
        if not variant_diverged:
            failures += 1
            witnesses.append(f"p={p} q={q}: the |An(c)|-weighted variant never "
                             "diverged from the oracle; erratum decision unsupported")
    return VerificationReport("norm-oracle-vs-formula", {"contexts": _ORACLE_CONTEXTS,
                                                  "precision": 30, "per_context": per_context},
                              trials, failures, witnesses, config.seed)


def norm_term_table(q):
    """canonical rep -> (coefficient f, power of t) of the closed norm formula."""
    return {rep: (f, s) for f, rep, s in anagram.norm_terms(q)}


def check_closed_forms(config):
    """The generated degree-2 and degree-3 norms, coefficient-exact."""
    expected2 = {(0, 0): (1, 0), (1, 1): (-1, 1)}
    expected3 = {(0, 0, 0): (1, 0), (1, 1, 1): (1, 1), (2, 2, 2): (1, 2), (0, 1, 2): (-3, 1)}
    witnesses = []
    if norm_term_table(2) != expected2:
        witnesses.append(f"q=2 table {norm_term_table(2)} != {expected2}")
    if norm_term_table(3) != expected3:
        witnesses.append(f"q=3 table {norm_term_table(3)} != {expected3}")
    return VerificationReport("norm-closed-forms", {"q": [2, 3]}, 2, len(witnesses),
                              witnesses, config.seed)


def check_norm_valuation(config):
    """The norm valuation identity on random exact elements."""
    rng = _rng(config, "norm-valuation-identity")
    per_context = max(1, config.trials // 2)
    witnesses = []
    failures = 0
    trials = 0
    for p, q in _ORACLE_CONTEXTS:
        ctx = laurent_context(p, q)
        for _ in range(per_context):
            trials += 1
            while True:
                a = ctx.random_element(rng, n_terms=2, exp_lo=-5, exp_hi=5)
                if not a.is_known_zero():
                    break
            predicted = norm_valuation(a)
            actual = norm_oracle(a).valuation()
            if predicted != actual:
                failures += 1
                witnesses.append(f"p={p} q={q} a={a!r} predicted={predicted} actual={actual}")
    return VerificationReport("norm-valuation-identity", {"contexts": _ORACLE_CONTEXTS,
                                                     "valuation_range": [-5, 5],
                                                     "per_context": per_context},
                              trials, failures, witnesses, config.seed)


def check_residue_of_norms(config):
    """Norm residues of units land in Fv^{xq}, onto via explicit preimages."""
    rng = _rng(config, "norm-residues")
    per_context = max(1, config.trials // 2)
    witnesses = []
    failures = 0
    trials = 0
    for p, q in [(7, 3), (11, 5)]:
        ctx = laurent_context(p, q)
        fp = ctx.F.coeff
        targets = sorted({pow(x, q, p) for x in range(1, p)})
        attained = set()
        for _ in range(per_context):
            trials += 1
            a = ctx.random_element(rng, n_terms=2, exp_lo=0, exp_hi=6, unit=True)
            r = norm_oracle(a).residue()
            if r not in targets:
                failures += 1
                witnesses.append(f"p={p} q={q} residue {r} outside {targets} for a={a!r}")
            attained.add(r)
        for y in targets:
            trials += 1
            root = fp.qth_root(y, q)
            pre = ctx.from_base(ctx.F.constant(root))
            if norm_oracle(pre).residue() != y:
                failures += 1
                witnesses.append(f"p={p} q={q}: preimage for residue {y} failed")
            # a lifted preimage: x = y*(1 + t) via the decision procedure
            x = ctx.F.constant(y) * (ctx.F.one + ctx.F.variable)
            decision = is_norm(ctx, x)
            if not decision.is_norm or not norm_oracle(decision.preimage).agrees_to_precision(x):
                failures += 1
                witnesses.append(f"p={p} q={q}: lifted preimage round-trip failed for residue {y}")
    return VerificationReport("norm-residues", {"contexts": [[7, 3], [11, 5]],
                                                  "per_context": per_context},
                              trials, failures, witnesses, config.seed)


def check_division_certification(config):
    """Division certification on the three F_p((t)) test algebras."""
    rng = _rng(config, "division-certification")
    witnesses = []
    failures = 0
    trials = 0
    ctx = laurent_context(config.p, config.q, precision=config.precision)
    F = ctx.F

    def fail(msg):
        nonlocal failures
        failures += 1
        witnesses.append(msg)

    # alpha = 2: division
    D = CyclicAlgebra(ctx, F.from_int(2))
    div, decision = is_division(D)
    trials += 1
    if not div or decision.certificate.get("kind") != "residue":
        fail(f"alpha=2 not certified division: {decision.certificate}")
    pair_trials = 2 * config.trials
    for _ in range(pair_trials):
        trials += 1
        d1 = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=4)
        d2 = D.random_element(rng, n_terms=1, exp_lo=-2, exp_hi=4)
        if d1.is_known_zero() or d2.is_known_zero():
            continue
        if relation_mul(d1, d2).is_known_zero():
            fail(f"zero product of nonzero pair: {d1!r} * {d2!r}")
    invert_trials = max(1, config.trials // 5)
    for _ in range(invert_trials):
        trials += 1
        while True:
            d = D.random_element(rng, n_terms=1, exp_lo=0, exp_hi=3)
            if not d.is_known_zero():
                break
        x = invert(d, target_precision=config.precision)
        if not (relation_mul(d, x) - D.one).is_known_zero() or \
                not (relation_mul(x, d) - D.one).is_known_zero():
            fail(f"inversion round-trip failed for {d!r}")

    # alpha = 6 = 3^3: zero divisors, explicit witness
    D6 = CyclicAlgebra(ctx, F.from_int(6))
    div6, decision6 = is_division(D6)
    trials += 1
    if div6 or decision6.preimage is None:
        fail("alpha=6 wrongly certified division")
    elif not norm_oracle(decision6.preimage).agrees_to_precision(F.from_int(6)):
        fail("alpha=6 norm preimage does not round-trip")
    trials += 1
    try:
        left, right = zero_divisor_witness(D6, F.from_int(3))
        if relation_mul(left, right).is_known_zero() is False:
            fail("zero-divisor witness product nonzero")
        try:
            invert(left)
            fail("invert(X - 3) unexpectedly succeeded in the alpha=6 algebra")
        except ZeroDivisorError as exc:
            if exc.kernel is None:
                fail("invert(X - 3) raised without a kernel vector")
            else:
                kern = D6.element(exc.kernel)
                if not relation_mul(left, kern).is_known_zero():
                    fail("kernel vector is not annihilated by X - 3")
    except CycdivError as exc:
        fail(f"zero-divisor witness failed: {exc}")

    # alpha = t = N(u): not division, preimage u
    Dt = CyclicAlgebra(ctx, F.variable)
    divt, decisiont = is_division(Dt)
    trials += 1
    if divt or decisiont.preimage is None:
        fail("alpha=t wrongly certified division")
    elif not norm_oracle(decisiont.preimage).agrees_to_precision(F.variable):
        fail("alpha=t norm preimage does not round-trip")
    return VerificationReport("division-certification",
                              {"p": config.p, "q": config.q, "alphas": ["2", "6", "t"],
                               "pairs": pair_trials, "inversions": invert_trials,
                               "precision": config.precision},
                              trials, failures, witnesses, config.seed)


def check_structure_constants(config):
    """constants_mul == relation_mul on random pairs; JSON round-trips."""
    rng = _rng(config, "structure-constants")
    witnesses = []
    failures = 0
    trials = 0
    per_algebra = max(1, config.trials // 2)
    ctx = laurent_context(config.p, config.q, precision=config.precision)
    algebras = [("hamilton-Q", hamilton_algebra(), {}),
                (f"q{config.q}-F{config.p}((t))", CyclicAlgebra(ctx, ctx.F.from_int(2)),
                 {"n_terms": 1, "exp_lo": -2, "exp_hi": 4})]
    for name, D, opts in algebras:
        F = D.F
        consts = structure_constants(D)
        loaded = constants_from_json(constants_to_json(consts, F), F)
        for _ in range(per_algebra):
            trials += 1
            a = D.random_element(rng, **opts)
            b = D.random_element(rng, **opts)
            expected = relation_mul(a, b).coords
            got = constants_mul(a.coords, b.coords, consts, F)
            got_loaded = constants_mul(a.coords, b.coords, loaded, F)
            if not all(F.eq(x, y) for x, y in zip(expected, got)) or \
                    not all(F.eq(x, y) for x, y in zip(expected, got_loaded)):
                failures += 1
                witnesses.append(f"{name}: constants product mismatch for {a!r} * {b!r}")
    return VerificationReport("structure-constants", {"per_algebra": per_algebra},
                              trials, failures, witnesses, config.seed)


def check_hahn_tower(config):
    """Division over the tower F_7((x^G))((t^G)), G = Z[1/7], alpha = x."""
    rng = _rng(config, "hahn-tower-division")
    witnesses = []
    failures = 0
    trials = 1
    ctx = hahn_tower_context(7, 3, precision=6)
    F = ctx.F
    alpha = F.constant(F.coeff.variable)  # the inner variable x
    D = CyclicAlgebra(ctx, alpha)
    div, decision = is_division(D)
    if not div or decision.certificate.get("kind") != "residue":
        failures += 1
        witnesses.append(f"tower algebra not certified division: {decision.certificate}")
    pair_trials = max(1, config.trials // 5)
    for _ in range(pair_trials):
        trials += 1
        d1 = D.random_element(rng, n_terms=1, exp_lo=0, exp_hi=2)
        d2 = D.random_element(rng, n_terms=1, exp_lo=0, exp_hi=2)
        if d1.is_known_zero() or d2.is_known_zero():
            continue
        if relation_mul(d1, d2).is_known_zero():
            failures += 1
            witnesses.append(f"zero product in tower algebra: {d1!r} * {d2!r}")
    return VerificationReport("hahn-tower-division", {"p": 7, "q": 3, "group": "Z[1/7]",
                                                "pairs": pair_trials},
                              trials, failures, witnesses, config.seed)


def check_albert_anisotropy(config):
    """Albert-form anisotropy sampling over F and F(sqrt(2 + 2X^2)), plus SOS data."""
    rng = _rng(config, "albert-anisotropy")
    witnesses = []
    failures = 0
    R, F, D1, D2, phi = albert_setup(precision=config.precision)
    albert_trials = 5 * config.trials
    rep = anisotropy_sample_test(phi, F, albert_trials, rng)
    failures += rep["failures"]
    witnesses += [f"isotropic over F: {a!r}" for a in rep["counterexamples"][:3]]
    witness, cert = nonsquare_witness(R)
    if cert["is_square"]:
        failures += 1
        witnesses.append("2 + 2X^2 reported square")
    K = QuadraticExtension(F, F.constant(witness))
    repk = anisotropy_sample_test(phi, K, albert_trials, rng, embed=K.inject)
    failures += repk["failures"]
    witnesses += [f"isotropic over K: {a!r}" for a in repk["counterexamples"][:3]]
    sos_trials = config.trials
    sos_fail = 0
    for _ in range(sos_trials):
        while True:
            summands = [F.random_element(rng, n_terms=2, exp_lo=-2, exp_hi=3)
                        for _ in range(rng.randint(1, 4))]
            if any(not s.is_known_zero() for s in summands):
                break
        try:
            sos_leading_data(summands)
        except CycdivError as exc:
            sos_fail += 1
            witnesses.append(f"SOS invariant failed: {exc}")
    failures += sos_fail
    trials = 2 * albert_trials + sos_trials + 1
    return VerificationReport("albert-anisotropy",
                              {"albert_trials": albert_trials, "sos_trials": sos_trials,
                               "extension": "F(sqrt(2 + 2X^2))"},
                              trials, failures, witnesses, config.seed)


def check_biquaternion(config):
    """No zero divisors among sampled pairs in D1 (x) D2; associativity."""
    rng = _rng(config, "biquaternion-pairs")
    witnesses = []
    failures = 0
    _, F, D1, D2, _ = albert_setup(precision=config.precision)
    B = tensor(D1, D2, BiquaternionElement)
    opts = dict(n_terms=1, exp_lo=-1, exp_hi=2)
    pair_trials = 2 * config.trials
    trials = 0
    for _ in range(pair_trials):
        trials += 1
        a = B.random_element(rng, **opts)
        b = B.random_element(rng, **opts)
        if a.is_known_zero() or b.is_known_zero():
            continue
        if (a * b).is_known_zero():
            failures += 1
            witnesses.append(f"zero product in biquaternion algebra: {a.coords} {b.coords}")
    assoc_trials = max(1, config.trials // 2)
    for _ in range(assoc_trials):
        trials += 1
        a = B.random_element(rng, **opts)
        b = B.random_element(rng, **opts)
        c = B.random_element(rng, **opts)
        lhs = (a * b) * c
        rhs = a * (b * c)
        if not all(F.eq(x, y) for x, y in zip(lhs.coords, rhs.coords)):
            failures += 1
            witnesses.append("associativity failure in biquaternion algebra")
    return VerificationReport("biquaternion-pairs", {"pairs": pair_trials, "triples": assoc_trials},
                              trials, failures, witnesses, config.seed)


_CLAIM_FUNCS = {
    "anagram-level-laws": check_lemma_combin,
    "norm-oracle-vs-formula": check_norm_oracle_equivalence,
    "norm-closed-forms": check_closed_forms,
    "norm-valuation-identity": check_norm_valuation,
    "norm-residues": check_residue_of_norms,
    "division-certification": check_division_certification,
    "structure-constants": check_structure_constants,
    "hahn-tower-division": check_hahn_tower,
    "albert-anisotropy": check_albert_anisotropy,
    "biquaternion-pairs": check_biquaternion,
}


def run_suite(config=None):
    """Run the configured claims; reports are merged in claim-id order."""
    config = config or SuiteConfig()
    config.validate()
    reports = []
    for claim in CLAIM_IDS:
        if claim not in config.claims:
            continue
        start = time.monotonic()
        report = _CLAIM_FUNCS[claim](config)
        report.elapsed = time.monotonic() - start
        reports.append(report)
    return reports


def export_constants(algebra, path, rng=None):
    """Write the structure-constant JSON and re-verify it through a loader."""
    F = algebra.F
    consts = structure_constants(algebra)
    text = constants_to_json(consts, F)
    with open(path, "w") as fh:
        fh.write(text)
    with open(path) as fh:
        loaded = constants_from_json(fh.read(), F)
    rng = rng or random.Random(0)
    for _ in range(10):
        a = algebra.random_element(rng)
        b = algebra.random_element(rng)
        expected = relation_mul(a, b).coords
        got = constants_mul(a.coords, b.coords, loaded, F)
        if not all(F.eq(x, y) for x, y in zip(expected, got)):
            raise CycdivError("round-trip verification of exported constants failed")
    return consts
