"""The benchmark's workloads: inputs from a seed, the timed library call, and
the correctness gate of each call.

A workload runs in rounds.  ``make_round(state, seed, index)`` builds the
inputs of one round from the seed and the round index (untimed), ``run_op``
is the one timed library call, and ``check`` is the correctness gate of its
result (untimed).  ``check`` returns ``(attempted, failed, message)``: a
failed check counts in ``failed``, it is never skipped.

Every workload takes the imported ``cycdiv`` package as ``lib`` so that the
set-up can re-import it and time the import.
"""

import hashlib
import math
import random

def _precision(s):
    return math.inf if s.precision is None else s.precision


def agrees(a, b, floor):
    """``a`` and ``b`` agree on every jointly known coefficient, and they are
    jointly known at least to exponent ``floor``: no comparison passes
    because truncation left nothing to compare."""
    joint = min(_precision(a), _precision(b))
    if joint < floor:
        return False, f"joint precision {joint} below {floor}"
    if not a.agrees_to_precision(b):
        return False, "coefficients differ"
    return True, ""


def campaign_digest(reports):
    """sha256 of the canonical JSON lines (no timings) of a campaign."""
    text = "\n".join(r.to_json() for r in reports) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


class VerifyCampaign:
    """All ten claims through ``run_suite`` at the default precision 20.

    Round ``k`` of seed ``n`` runs the campaign of seed ``(n + k) % pool``,
    whose digest is recorded in ``digests.json``; an operation is one check
    (one unit of the reports' ``trials``).
    """

    name = "verify-campaign"

    def __init__(self, trials, pool, digests):
        self.trials = trials
        self.pool = pool
        self.digests = digests.get(str(trials), {})

    def setup(self, lib):
        return {"lib": lib}

    def make_round(self, state, seed, index):
        return [{"seed": (seed + index) % self.pool, "claims": None}]

    def run_op(self, state, op):
        lib = state["lib"]
        config = lib.SuiteConfig(seed=op["seed"], trials=self.trials)
        if op["claims"] is not None:
            config.claims = op["claims"]
        return lib.run_suite(config)

    def claim_calls(self, state, op):
        """The same campaign as one ``run_suite`` call per claim id."""
        return [dict(op, claims=[claim]) for claim in state["lib"].CLAIM_IDS]

    def check(self, state, op, reports):
        attempted = sum(r.trials for r in reports)
        failed = sum(r.failures for r in reports)
        expected = self.digests.get(str(op["seed"]))
        got = campaign_digest(reports)
        if failed:
            return attempted, failed, f"campaign seed {op['seed']}: {failed} failed checks"
        if got != expected:
            return attempted, attempted, (f"campaign seed {op['seed']} trials {self.trials}: "
                                          f"digest {got} != recorded {expected}")
        return attempted, 0, None


class PrecisionScaling:
    """Dense inputs over F_7((t)) (q=3) and F_11((t)) (q=5) at high precision.

    Per round and context: ``is_norm`` on norms N(b*u^i) (Hensel path),
    ``is_norm`` on units whose residue is not a q-th power (cheap negative),
    ``Series.invert`` of dense units and ``norm_oracle`` of dense elements.
    """

    name = "precision-scaling"
    # Hensel-path is_norm calls are two thirds of the calls, so that both
    # op_p50_ms and op_p90_ms fall inside their latency band rather than on
    # the edge between it and the short calls.
    MIX = {(7, 3): {"norm": 7, "nonnorm": 1, "invert": 1, "oracle": 1},
           (11, 5): {"norm": 3, "nonnorm": 1, "invert": 1, "oracle": 1}}

    def __init__(self, precision, mix=None):
        self.precision = precision
        self.mix = mix or self.MIX

    def setup(self, lib):
        contexts = {}
        for p, q in self.mix:
            ctx = lib.laurent_context(p, q, precision=self.precision)
            powers = sorted({pow(x, q, p) for x in range(1, p)})
            others = [x for x in range(1, p) if x not in powers]
            contexts[(p, q)] = (ctx, powers, others)
        return {"lib": lib, "contexts": contexts}

    def _dense_unit(self, F, p, rng, residue):
        coeffs = {e: rng.randrange(p) for e in range(1, self.precision)}
        coeffs[0] = residue
        return F.series(coeffs, self.precision)

    def make_round(self, state, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        ops = []
        for (p, q), counts in self.mix.items():
            ctx, powers, others = state["contexts"][(p, q)]
            F = ctx.F
            nu = ctx.norm_of_u()
            for k in range(counts["norm"]):
                # i = 0 skips the inversion of N(u)^i: a fixed share of each
                # i keeps the cost of a round from varying with the seed
                i = k % q
                b = self._dense_unit(F, p, rng, rng.randrange(1, p))
                x = (b ** q) * (nu ** i)  # N(b * u^i)
                ops.append(("is_norm", ctx, x, True))
            for _ in range(counts["nonnorm"]):
                i = rng.randrange(q)
                x = self._dense_unit(F, p, rng, rng.choice(others)).shift(i)
                ops.append(("is_norm", ctx, x, False))
            for _ in range(counts["invert"]):
                x = self._dense_unit(F, p, rng, rng.randrange(1, p))
                ops.append(("invert", ctx, x, None))
            for _ in range(counts["oracle"]):
                a = ctx.element([self._dense_unit(F, p, rng, rng.randrange(1, p))
                                 for _ in range(q)])
                ops.append(("oracle", ctx, a, None))
        rng.shuffle(ops)
        return ops

    def run_op(self, state, op):
        lib = state["lib"]
        kind, ctx, x, _ = op
        if kind == "is_norm":
            return lib.is_norm(ctx, x, self.precision)
        if kind == "invert":
            return x.invert(self.precision)
        return lib.norm_oracle(x)

    def check(self, state, op, result):
        lib = state["lib"]
        kind, ctx, x, expected = op
        floor = self.precision
        if kind == "is_norm":
            if result.is_norm != expected:
                return 1, 1, f"is_norm answered {result.is_norm}, built as {expected}"
            if expected:
                if result.preimage is None:
                    return 1, 1, "positive is_norm without a preimage"
                ok, why = agrees(lib.norm_oracle(result.preimage), x, floor)
            else:
                ok = result.certificate.get("kind") == "residue"
                why = f"negative certificate {result.certificate}"
        elif kind == "invert":
            ok, why = agrees(x * result, ctx.F.one, floor)
        else:
            ok, why = agrees(result, lib.norm_formula(x), floor)
        return (1, 0, None) if ok else (1, 1, f"{kind} q={ctx.q}: {why}")


class ZeroDivisors:
    """Cyclic algebras with alpha = beta^q: ``invert`` on units and on zero
    divisors g*(X - beta), g with 1 to 3 nonzero constant coordinates.

    The units are 1 + g with g of positive valuation (so 1 + g is a unit),
    with 6 nonzero coordinates for q=3 and 2 for q=5.  Units take
    ``linalg.solve_linear``; zero divisors raise ``ZeroDivisorError`` with a
    kernel vector from ``kernel_vector``.
    """

    name = "zero-divisors"
    # (p, q) -> {"zd": {nonzero coordinates of g: count}, "unit": count,
    #            "unit_terms": nonzero coordinates of u - 1}
    # A unit's cost grows with its number of nonzero coordinates, so that
    # number is fixed rather than drawn.
    MIX = {(7, 3): {"zd": {1: 3, 2: 4, 3: 1}, "unit": 4, "unit_terms": 6},
           (11, 5): {"zd": {1: 2}, "unit": 2, "unit_terms": 2}}

    # A zero divisor whose g has 2 coordinates takes 5 to 250 ms, one with 3
    # takes 6 ms to 4 s.  The few of them in a pass, drawn from the seed,
    # would make run_s follow the seed more than the code, so they are drawn
    # from the round index alone: the same ones for every seed.
    FIXED_TERMS = 2
    precision = 20  # the library's default precision

    def __init__(self, mix=None):
        self.mix = mix or self.MIX

    def setup(self, lib):
        algebras = {}
        for p, q in self.mix:
            ctx = lib.laurent_context(p, q, precision=self.precision)
            F = ctx.F
            by_alpha = {}
            for beta in range(1, p):
                alpha = pow(beta, q, p)
                if alpha not in by_alpha:
                    D = lib.CyclicAlgebra(ctx, F.from_int(alpha))
                    by_alpha[alpha] = (D, lib.structure_constants(D))
            algebras[(p, q)] = by_alpha
        return {"lib": lib, "algebras": algebras}

    def make_round(self, state, seed, index):
        rng = random.Random(f"{self.name}:{seed}:{index}")
        fixed = random.Random(f"{self.name}:fixed:{index}")
        ops = []
        for (p, q), spec in self.mix.items():
            by_alpha = state["algebras"][(p, q)]
            for k, count in spec["zd"].items():
                draw = fixed if k >= self.FIXED_TERMS else rng
                for _ in range(count):
                    beta = draw.randrange(1, p)
                    D, consts = by_alpha[pow(beta, q, p)]
                    F = D.F
                    left = D.X - D.from_base(F.from_int(beta))
                    while True:
                        coords = [F.zero] * D.n
                        for idx in draw.sample(range(D.n), k):
                            coords[idx] = F.from_int(draw.randrange(1, p))
                        d = D.element(coords) * left
                        if not d.is_known_zero():
                            break
                    ops.append(("zero-divisor", D, consts, d))
            for _ in range(spec["unit"]):
                D, consts = by_alpha[rng.choice(sorted(by_alpha))]
                keep = set(rng.sample(range(D.n), spec["unit_terms"]))
                g = D.element([D.F.random_element(rng, n_terms=2, exp_lo=1, exp_hi=4,
                                                  nonzero=True)
                               if i in keep else D.F.zero for i in range(D.n)])
                ops.append(("unit", D, consts, g + D.one))
        rng.shuffle(ops)
        return ops

    def run_op(self, state, op):
        lib = state["lib"]
        try:
            return "inverse", lib.invert(op[3])
        except lib.ZeroDivisorError as exc:
            return "kernel", exc.kernel

    def check(self, state, op, result):
        lib = state["lib"]
        kind, D, consts, d = op
        F = D.F
        got, value = result
        if kind == "zero-divisor":
            if got != "kernel" or value is None:
                return 1, 1, f"zero divisor not detected with a kernel: {got}"
            if all(F.is_known_zero(c) for c in value):
                return 1, 1, "kernel vector is zero"
            by_rules = lib.relation_mul(d, D.element(value)).coords
            by_constants = lib.constants_mul(d.coords, value, consts, F)
            if not all(F.is_zero(c) for c in by_rules + tuple(by_constants)):
                return 1, 1, "kernel vector is not exactly annihilated"
            return 1, 0, None
        if got != "inverse":
            return 1, 1, "unit reported as a zero divisor"
        for prod in (lib.relation_mul(d, value), lib.relation_mul(value, d)):
            for c, e in zip(prod.coords, D.one.coords):
                ok, why = agrees(c, e, self.precision)
                if not ok:
                    return 1, 1, f"inverse does not round-trip: {why}"
        return 1, 0, None
