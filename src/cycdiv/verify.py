"""Seeded verification campaigns tying each claim to a runnable check.

Each claim records its checks on a :class:`Tally`, from which ``run_suite``
builds its :class:`VerificationReport`; the suite is deterministic for a
fixed (config, seed) and serializes to JSON lines.
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
from .basefields import QQ, PrimeField, is_prime, primitive_qth_root, qth_power_set
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
        for name in ("seed", "precision", "trials", "p", "q"):
            value = getattr(self, name)
            if type(value) is not int:  # bools are not accepted either
                raise CycdivError(f"{name} must be an integer, got {value!r}")
        if not isinstance(self.claims, list) or not all(isinstance(c, str) for c in self.claims):
            raise CycdivError(f"claims must be a list of claim ids, got {self.claims!r}")
        if not self.claims:
            raise CycdivError("claims must name at least one claim id")
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


class Tally:
    """One claim's seeded rng and its count of checks, failures and witnesses."""

    def __init__(self, config, claim):
        self.rng = random.Random(f"{config.seed}:{claim}")
        self.trials = 0
        self.failures = 0
        self.witnesses = []

    def fail(self, witness):
        self.failures += 1
        self.witnesses.append(witness)

    def check(self, ok, witness, *args):
        """Count one check; when it fails, record ``witness.format(*args)``."""
        self.trials += 1
        if not ok:
            self.fail(witness.format(*args))


# -- claims ----------------------------------------------------------------
# Each claim records its checks on the tally and returns its parameters.

def check_lemma_combin(config, tally):
    """Exhaustive level-count laws for q in {2, 3, 5, 7}."""
    for q in anagram.SUPPORTED_Q:
        for result in anagram.verify_level_count_laws(q):
            tally.check(result["passed"], "q={} class={} checks={}",
                        q, result["class"].canonical_rep, result["checks"])
    return {"q": list(anagram.SUPPORTED_Q)}


_ORACLE_CONTEXTS = [(7, 3), (13, 3), (11, 5)]


def check_norm_oracle_equivalence(config, tally):
    """norm_formula == norm_oracle coefficientwise; pins f = N0 - N1."""
    per_context = max(1, config.trials // 2)
    for p, q in _ORACLE_CONTEXTS:
        ctx = laurent_context(p, q, precision=30)
        variant_diverged = q == 2  # the variants coincide for q = 2
        draw = ctx.drawer(tally.rng, n_terms=3, exp_lo=-3, exp_hi=8, precision=30)
        for _ in range(per_context):
            a = draw()
            oracle = norm_oracle(a)
            tally.check(norm_formula(a).agrees_to_precision(oracle), "p={} q={} a={!r}", p, q, a)
            if not variant_diverged and not norm_formula(
                    a, with_class_size_factor=True).agrees_to_precision(oracle):
                variant_diverged = True
        if not variant_diverged:
            tally.fail(f"p={p} q={q}: the |An(c)|-weighted variant never "
                       "diverged from the oracle; erratum decision unsupported")
    return {"contexts": _ORACLE_CONTEXTS, "precision": 30, "per_context": per_context}


def norm_term_table(q):
    """canonical rep -> (coefficient f, power of t) of the closed norm formula."""
    return {rep: (f, s) for f, rep, s in anagram.norm_terms(q)}


def check_closed_forms(config, tally):
    """The generated degree-2 and degree-3 norms, coefficient-exact."""
    expected = {2: {(0, 0): (1, 0), (1, 1): (-1, 1)},
                3: {(0, 0, 0): (1, 0), (1, 1, 1): (1, 1), (2, 2, 2): (1, 2), (0, 1, 2): (-3, 1)}}
    for q, want in expected.items():
        table = norm_term_table(q)
        tally.check(table == want, "q={} table {} != {}", q, table, want)
    return {"q": [2, 3]}


def check_norm_valuation(config, tally):
    """The norm valuation identity on random exact elements."""
    per_context = max(1, config.trials // 2)
    for p, q in _ORACLE_CONTEXTS:
        draw = laurent_context(p, q).drawer(tally.rng, n_terms=2, exp_lo=-5, exp_hi=5)
        for _ in range(per_context):
            while True:
                a = draw()
                if not a.is_known_zero():
                    break
            predicted = norm_valuation(a)
            actual = norm_oracle(a).valuation()
            tally.check(predicted == actual, "p={} q={} a={!r} predicted={} actual={}",
                        p, q, a, predicted, actual)
    return {"contexts": _ORACLE_CONTEXTS, "valuation_range": [-5, 5], "per_context": per_context}


def check_residue_of_norms(config, tally):
    """Norm residues of units land in Fv^{xq}, onto via explicit preimages."""
    per_context = max(1, config.trials // 2)
    for p, q in [(7, 3), (11, 5)]:
        ctx = laurent_context(p, q)
        fp = ctx.F.coeff
        targets = sorted({pow(x, q, p) for x in range(1, p)})
        draw = ctx.drawer(tally.rng, n_terms=2, exp_lo=0, exp_hi=6, unit=True)
        for _ in range(per_context):
            a = draw()
            r = norm_oracle(a).residue()
            tally.check(r in targets, "p={} q={} residue {} outside {} for a={!r}",
                        p, q, r, targets, a)
        for y in targets:
            root = fp.qth_root(y, q)
            pre = ctx.from_base(ctx.F.constant(root))
            tally.check(norm_oracle(pre).residue() == y,
                        "p={} q={}: preimage for residue {} failed", p, q, y)
            # a lifted preimage: x = y*(1 + t) via the decision procedure
            x = ctx.F.constant(y) * (ctx.F.one + ctx.F.variable)
            decision = is_norm(ctx, x)
            if not decision.is_norm or not norm_oracle(decision.preimage).agrees_to_precision(x):
                tally.fail(f"p={p} q={q}: lifted preimage round-trip failed for residue {y}")
    return {"contexts": [[7, 3], [11, 5]], "per_context": per_context}


def _check_no_zero_products(tally, D, pairs, witness, **opts):
    """``pairs`` checks that two random nonzero elements of D have a nonzero
    ``relation_mul`` product; a draw with a zero factor counts and passes."""
    draw = D.drawer(tally.rng, **opts)
    for _ in range(pairs):
        d1, d2 = draw(), draw()
        tally.check(d1.is_known_zero() or d2.is_known_zero()
                    or not relation_mul(d1, d2).is_known_zero(), witness, d1, d2)


def _check_not_division(tally, D, alpha):
    """One check that alpha is certified a norm, by a preimage that round-trips."""
    div, decision = is_division(D)
    tally.trials += 1
    if div or decision.preimage is None:
        tally.fail(f"alpha={alpha} wrongly certified division")
    elif not norm_oracle(decision.preimage).agrees_to_precision(D.alpha):
        tally.fail(f"alpha={alpha} norm preimage does not round-trip")


def check_division_certification(config, tally):
    """Division certification on three F_p((t)) test algebras, alpha from
    (p, q): the least residue that is not a q-th power (division), beta^q
    with beta the least b >= 2 with b^q != 1, or 2 when there is none (p = 3)
    (zero divisors, explicit witness), and N(u) (not division, preimage u).
    At (7, 3) they are 2, 6 and t."""
    ctx = laurent_context(config.p, config.q, precision=config.precision)
    F, p, q = ctx.F, config.p, config.q
    beta = F.from_int(next((b for b in range(2, p) if pow(b, q, p) != 1), 2))
    non_power = min(set(range(1, p)) - qth_power_set(p, q))
    alphas = [F.from_int(non_power), F.pow(beta, q), ctx.norm_of_u()]
    names = [F.to_str(a) for a in alphas]

    # a residue that is not a q-th power: division
    D = CyclicAlgebra(ctx, alphas[0])
    div, decision = is_division(D)
    tally.check(div and decision.certificate.get("kind") == "residue",
                f"alpha={names[0]} not certified division: {{}}", decision.certificate)
    pair_trials = 2 * config.trials
    _check_no_zero_products(tally, D, pair_trials, "zero product of nonzero pair: {!r} * {!r}",
                            n_terms=1, exp_lo=-2, exp_hi=4)
    invert_trials = max(1, config.trials // 5)
    draw = D.drawer(tally.rng, n_terms=1, exp_lo=0, exp_hi=3)
    for _ in range(invert_trials):
        while True:
            d = draw()
            if not d.is_known_zero():
                break
        x = invert(d, target_precision=config.precision)
        tally.check((relation_mul(d, x) - D.one).is_known_zero()
                    and (relation_mul(x, d) - D.one).is_known_zero(),
                    "inversion round-trip failed for {!r}", d)

    # beta^q: zero divisors, explicit witness
    Dz = CyclicAlgebra(ctx, alphas[1])
    _check_not_division(tally, Dz, names[1])
    tally.trials += 1
    x_beta = f"X - {F.to_str(beta)}"
    try:
        left, right = zero_divisor_witness(Dz, beta)
        if relation_mul(left, right).is_known_zero() is False:
            tally.fail("zero-divisor witness product nonzero")
        try:
            invert(left)
            tally.fail(f"invert({x_beta}) unexpectedly succeeded in the alpha={names[1]} algebra")
        except ZeroDivisorError as exc:
            if exc.kernel is None:
                tally.fail(f"invert({x_beta}) raised without a kernel vector")
            elif not relation_mul(left, Dz.element(exc.kernel)).is_known_zero():
                tally.fail(f"kernel vector is not annihilated by {x_beta}")
    except CycdivError as exc:
        tally.fail(f"zero-divisor witness failed: {exc}")

    # N(u): not division, preimage u
    _check_not_division(tally, CyclicAlgebra(ctx, alphas[2]), names[2])
    return {"p": config.p, "q": config.q, "alphas": names, "pairs": pair_trials,
            "inversions": invert_trials, "precision": config.precision}


def check_structure_constants(config, tally):
    """constants_mul == relation_mul on random pairs; JSON round-trips."""
    per_algebra = max(1, config.trials // 2)
    ctx = laurent_context(config.p, config.q, precision=config.precision)
    algebras = [("hamilton-Q", hamilton_algebra(), {}),
                (f"q{config.q}-F{config.p}((t))", CyclicAlgebra(ctx, ctx.F.from_int(2)),
                 {"n_terms": 1, "exp_lo": -2, "exp_hi": 4})]
    for name, D, opts in algebras:
        F = D.F
        consts = structure_constants(D)
        loaded = constants_from_json(constants_to_json(consts, F), F)
        draw = D.drawer(tally.rng, **opts)
        for _ in range(per_algebra):
            a, b = draw(), draw()
            expected = relation_mul(a, b).coords
            got = constants_mul(a.coords, b.coords, consts, F)
            got_loaded = constants_mul(a.coords, b.coords, loaded, F)
            tally.check(all(F.eq(x, y) for x, y in zip(expected, got))
                        and all(F.eq(x, y) for x, y in zip(expected, got_loaded)),
                        "{}: constants product mismatch for {!r} * {!r}", name, a, b)
    return {"per_algebra": per_algebra}


def check_hahn_tower(config, tally):
    """Division over the tower F_7((x^G))((t^G)), G = Z[1/7], alpha = x."""
    ctx = hahn_tower_context(7, 3, precision=6)
    F = ctx.F
    alpha = F.constant(F.coeff.variable)  # the inner variable x
    D = CyclicAlgebra(ctx, alpha)
    div, decision = is_division(D)
    tally.check(div and decision.certificate.get("kind") == "residue",
                "tower algebra not certified division: {}", decision.certificate)
    pair_trials = max(1, config.trials // 5)
    _check_no_zero_products(tally, D, pair_trials, "zero product in tower algebra: {!r} * {!r}",
                            n_terms=1, exp_lo=0, exp_hi=2)
    return {"p": 7, "q": 3, "group": "Z[1/7]", "pairs": pair_trials}


def _count_sample(tally, rep, where):
    """An anisotropy sample: its trials and zeros, and the first three zeros."""
    tally.trials += rep["trials"]
    tally.failures += rep["failures"]
    tally.witnesses += [f"isotropic over {where}: {a!r}" for a in rep["counterexamples"][:3]]


def check_albert_anisotropy(config, tally):
    """Albert-form anisotropy sampling over F and F(sqrt(2 + 2X^2)), plus SOS data."""
    R, F, D1, D2, phi = albert_setup(precision=config.precision)
    albert_trials = 5 * config.trials
    _count_sample(tally, anisotropy_sample_test(phi, F, albert_trials, tally.rng), "F")
    witness, cert = nonsquare_witness(R)
    tally.check(not cert["is_square"], "2 + 2X^2 reported square")
    K = QuadraticExtension(F, F.constant(witness))
    _count_sample(tally, anisotropy_sample_test(phi, K, albert_trials, tally.rng), "K")
    draw = F.drawer(tally.rng, n_terms=2, exp_lo=-2, exp_hi=3)
    for _ in range(config.trials):
        tally.trials += 1
        while True:
            summands = [draw() for _ in range(tally.rng.randint(1, 4))]
            if any(not s.is_known_zero() for s in summands):
                break
        try:
            sos_leading_data(summands)
        except CycdivError as exc:
            tally.fail(f"SOS invariant failed: {exc}")
    return {"albert_trials": albert_trials, "sos_trials": config.trials,
            "extension": "F(sqrt(2 + 2X^2))"}


def check_biquaternion(config, tally):
    """No zero divisors among sampled pairs in D1 (x) D2; associativity."""
    _, _, D1, D2, _ = albert_setup(precision=config.precision)
    B = tensor(D1, D2, BiquaternionElement)
    draw = B.drawer(tally.rng, n_terms=1, exp_lo=-1, exp_hi=2)
    pair_trials = 2 * config.trials
    for _ in range(pair_trials):
        a, b = draw(), draw()
        tally.check(a.is_known_zero() or b.is_known_zero() or not (a * b).is_known_zero(),
                    "zero product in biquaternion algebra: {} {}", a.coords, b.coords)
    assoc_trials = max(1, config.trials // 2)
    for _ in range(assoc_trials):
        a, b, c = draw(), draw(), draw()
        lhs = (a * b) * c
        rhs = a * (b * c)
        tally.check(lhs == rhs, "associativity failure in biquaternion algebra")
    return {"pairs": pair_trials, "triples": assoc_trials}


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
        tally = Tally(config, claim)
        parameters = _CLAIM_FUNCS[claim](config, tally)
        reports.append(VerificationReport(claim, parameters, tally.trials, tally.failures,
                                          tally.witnesses, config.seed,
                                          time.monotonic() - start))
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
    draw = algebra.drawer(rng or random.Random(0))
    for _ in range(10):
        a, b = draw(), draw()
        expected = relation_mul(a, b).coords
        got = constants_mul(a.coords, b.coords, loaded, F)
        if not all(F.eq(x, y) for x, y in zip(expected, got)):
            raise CycdivError("round-trip verification of exported constants failed")
    return consts
