"""Kummer extensions K = F(u) with u^q = t: Galois action, norms, membership.

Elements of K are coordinate vectors (b_0, ..., b_{q-1}) over F in the
basis 1, u, ..., u^{q-1}.  The norm is computed two independent ways: as
the product of all Galois conjugates (the oracle) and through the closed
combinatorial formula indexed by anagram classes.  Over valued base
fields the residue criterion decides norm membership and certifies it.
"""

from dataclasses import dataclass
from fractions import Fraction

from . import anagram
from .basefields import is_prime
from .element import Element, FiniteAlgebra, monomial_label
from .errors import CycdivError, PrecisionError
from .series import INFINITY, SeriesDomain, hensel_qth_root


class KummerContext(FiniteAlgebra):
    """K = F(u), u^q = t, with a chosen primitive q-th root of unity xi;
    the basis is 1, u, ..., u^{q-1} and the product is :func:`kummer_mul`."""

    def __init__(self, F, q, t, xi):
        if not is_prime(q):
            raise ValueError(f"degree {q} must be prime")
        if F.characteristic == q:
            raise CycdivError("Kummer extension needs q != characteristic of F")
        if F.is_known_zero(t):
            raise CycdivError("t must be nonzero")
        if not F.eq(F.pow(xi, q), F.one):
            raise CycdivError("xi^q must be 1")
        for k in range(1, q):
            if F.eq(F.pow(xi, k), F.one):
                raise CycdivError(f"xi has order {k} < {q}: not primitive")
        if isinstance(F, SeriesDomain):
            vt = t.valuation()
            if not F.group.is_coset_separating(vt, q):
                raise CycdivError(
                    f"v(t) = {vt} lies in {q}*Gamma: the cosets collapse and K/F is not degree {q}")
        elif hasattr(F, "is_qth_power") and F.is_qth_power(t, q):
            raise CycdivError(f"t is a {q}-th power in F: K would not be a field")
        super().__init__(F, [monomial_label(("u", i)) for i in range(q)])
        self.q = q
        self.t = t
        self.xi = xi
        # powers of xi, reused by the Galois action
        self._xi_pows = [F.one]
        for _ in range(q - 1):
            self._xi_pows.append(F.mul(self._xi_pows[-1], xi))

    def __eq__(self, other):
        return other is self or (isinstance(other, KummerContext) and other.F == self.F
                                 and other.q == self.q and self.F.eq(other.t, self.t)
                                 and self.F.eq(other.xi, self.xi))

    def __repr__(self):
        return f"Kummer({self.F!r}, q={self.q})"

    def xi_pow(self, k):
        return self._xi_pows[k % self.q]

    def mul(self, a, b):
        return kummer_mul(a, b)

    @property
    def u(self):
        return self.basis(1)

    def norm_of_u(self):
        """N(u) = xi^{q(q-1)/2} * t (equals t for odd q, -t for q = 2)."""
        return self.F.mul(self.F.pow(self.xi, self.q * (self.q - 1) // 2), self.t)

def kummer_mul(a, b):
    """Product in K, reducing u^q to t."""
    a._check(b)
    ctx = a.context
    F, q, t = ctx.F, ctx.q, ctx.t
    out = [F.zero] * q
    for i, ai in enumerate(a.coords):
        if F.is_known_zero(ai):
            continue
        for j, bj in enumerate(b.coords):
            if F.is_known_zero(bj):
                continue
            p = F.mul(ai, bj)
            k = i + j
            if k >= q:
                k -= q
                p = F.mul(p, t)
            out[k] = F.add(out[k], p)
    return ctx.element(out)


def galois_sigma(a, k):
    """sigma_0^k: b_i u^i -> xi^{ik} b_i u^i."""
    ctx = a.context
    if not 0 <= k < ctx.q:
        raise CycdivError(f"Galois power {k} out of range 0..{ctx.q - 1}")
    F = ctx.F
    return ctx.element(F.mul(ctx.xi_pow(i * k), b) for i, b in enumerate(a.coords))


def norm_oracle(a):
    """N(a) as the product of all Galois conjugates.

    The u-coordinates of the product must vanish (exactly, or on every
    known coefficient); anything else is an arithmetic bug, not noise.
    """
    ctx = a.context
    prod = a
    for k in range(1, ctx.q):
        prod = kummer_mul(prod, galois_sigma(a, k))
    F = ctx.F
    for i in range(1, ctx.q):
        if not F.is_known_zero(prod.coords[i]):
            raise CycdivError(
                f"norm product has a nonvanishing u^{i} coordinate: {F.to_str(prod.coords[i])}")
    return prod.coords[0]


def norm_formula(a, with_class_size_factor=False):
    """N(a) via the closed combinatorial formula over anagram classes."""
    ctx = a.context
    F, q = ctx.F, ctx.q
    total = F.zero
    for f, rep, s in anagram.norm_terms(q, with_class_size_factor):
        term = F.from_int(f)
        if F.is_known_zero(term):
            continue
        for idx in rep:
            term = F.mul(term, a.coords[idx])
        if s:
            term = F.mul(term, F.pow(ctx.t, s))
        total = F.add(total, term)
    return total


def norm_valuation(a):
    """min_i { i*v(t) + q*v(b_i) } over the nonzero coordinates."""
    ctx = a.context
    F = ctx.F
    if not isinstance(F, SeriesDomain):
        raise CycdivError("norm valuation needs a valued base field")
    if a.is_known_zero():
        raise CycdivError("norm valuation of the zero element is undefined")
    vt = ctx.t.valuation()
    best = INFINITY
    for i, b in enumerate(a.coords):
        if F.is_known_zero(b):
            continue
        cand = i * vt + ctx.q * b.valuation()
        if cand < best:
            best = cand
    return best


@dataclass
class NormDecision:
    is_norm: bool
    certificate: dict
    preimage: Element | None = None


def is_norm(ctx, x, target_precision=None):
    """Decide x in N(K/F) over a series base field, with certificate.

    Writes v(x) = i*v(t) + q*m; membership then reduces to the residue of
    the unit part being a q-th power in the residue field.  On success the
    preimage u^i * (monomial m) * (Hensel q-th root) is returned; on
    failure the failing residue (or valuation) is the certificate.  A root
    truncated to no known coefficient raises :class:`PrecisionError`.
    """
    F, q = ctx.F, ctx.q
    if not isinstance(F, SeriesDomain):
        raise CycdivError("norm membership needs a valued (series) base field")
    v = x.valuation()
    if v == INFINITY:
        raise CycdivError("norm membership is for nonzero elements")
    vt = ctx.t.valuation()
    group = F.group
    hit = None
    for i in range(q):
        if group.contains_q_multiple(v - i * vt, q):
            hit = i
            break
    if hit is None:
        return NormDecision(False, {"kind": "valuation",
                                    "valuation": str(v),
                                    "reason": f"v(x) = {v} lies in no coset q*Gamma + i*v(t)"})
    m = Fraction(v - hit * vt, q)
    nu = ctx.norm_of_u()  # N(u)
    adj = F.one if hit == 0 else F.pow(nu, hit).invert(target_precision)
    w = F.mul(F.mul(x, adj), F.monomial(-q * m))
    r = w.residue()
    rf = F.coeff
    if not rf.is_qth_power(r, q):
        return NormDecision(False, {"kind": "residue", "residue": rf.to_str(r),
                                    "reason": f"residue is not a {q}-th power in the residue field"})
    h = hensel_qth_root(w, q, target_precision)
    if h.is_known_zero():
        raise PrecisionError(f"the {q}-th root is known to no coefficient at precision "
                             f"O({F.var}^{h.precision}): no preimage to certify")
    g = F.mul(F.monomial(m), h)
    coords = [F.zero] * q
    coords[hit] = g
    return NormDecision(True, {"kind": "residue", "residue": rf.to_str(r)},
                        ctx.element(coords))

