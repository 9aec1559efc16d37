"""Kummer extensions K = F(u) with u^q = t: Galois action, norms, membership.

Elements of K are coordinate vectors (b_0, ..., b_{q-1}) over F in the
basis 1, u, ..., u^{q-1}.  The norm is computed two independent ways: as
the product of all Galois conjugates (the oracle) and through the closed
combinatorial formula indexed by anagram classes.  Over valued base
fields the residue criterion decides norm membership and certifies it.

Which route of :func:`kummer_mul` serves which context:

* One product in F((u)).  When F = k((t)) is a Laurent field (value group Z,
  any coefficient field k, towers included) and t is exactly its variable,
  u = t^(1/q) is a uniformiser of K and K = k((u)): the coordinate b_i at
  t^e is the coefficient of u^(q*e + i).  Each operand becomes that EXACT
  u-series (over one common denominator over Q), the two are multiplied
  once with ``Series.__mul__`` (Kronecker or schoolbook by its own rule),
  and the product is split by exponent mod q; u^q -> t needs no step of its
  own.  Each output coordinate is then truncated to the precision the loop
  gives it: the least, over the pairs (i, j) that reach it, of
  ``product_precision(b_i, c_j)``, plus v(t) = 1 when i + j >= q.  The
  result is the loop's, coefficient for coefficient and O-term for O-term,
  inner O-terms included: over a tower both routes keep an inner
  coefficient known to no term, so one accumulation adds up the same
  products as the loop.
* The loop.  Other contexts multiply the q^2 coordinate pairs with ``F``
  arithmetic, times t for i + j >= q, and add them up.  There K is not
  k((u)) with the coordinates interleaved: when t is another element than
  the variable (v(t) > 1, or more than one term) u^q is not the variable,
  so b_i(u^q) u^i is no series in u with known exponents; over a Hahn field
  (value group Z[1/p]) K is a Hahn field in u, not a Laurent field, and
  the class of an exponent mod q would have to be found in Z[1/p]/qZ[1/p];
  over a coefficient field such as Q (the Hamilton quaternions) there are
  no series to interleave.

Both routes skip exactly-zero coordinates only: a coordinate known only to
an O-term bounds the precision of the products it enters.
"""

import math
from dataclasses import dataclass
from fractions import Fraction

from . import anagram
from .basefields import is_prime
from .element import Element, FiniteAlgebra, monomial_label
from .errors import CycdivError, PrecisionError
from .series import (INFINITY, SeriesDomain, _is_exactly, _primitive, _stored, hensel_qth_root,
                     product_precision)


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
        # k((u)) when K is that Laurent field (see the module docstring)
        self._u_field = None
        if isinstance(F, SeriesDomain) and F.group.p is None and _is_exactly(F, t, F.variable):
            self._u_field = SeriesDomain(F.coeff, "u")

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
    """Product in K, reducing u^q to t: one product in k((u)) or the loop
    (see the module docstring)."""
    a._check(b)
    out = _u_series_mul(a, b)
    if out is not None:
        return out
    ctx = a.context
    F, q, t = ctx.F, ctx.q, ctx.t
    out = [F.zero] * q
    for i, ai in enumerate(a.coords):
        if F.is_zero(ai):
            continue
        for j, bj in enumerate(b.coords):
            if F.is_zero(bj):
                continue
            p = F.mul(ai, bj)
            k = i + j
            if k >= q:
                k -= q
                p = F.mul(p, t)
            out[k] = F.add(out[k], p)
    return ctx.element(out)


def _u_series_mul(a, b):
    """``kummer_mul`` as one product of u-series in k((u)), or None when K is
    not k((u))."""
    ctx = a.context
    U = ctx._u_field
    if U is None:
        return None
    F, q = ctx.F, ctx.q
    prec = [INFINITY] * q
    for i, ai in enumerate(a.coords):
        if F.is_zero(ai):
            continue
        for j, bj in enumerate(b.coords):
            if F.is_zero(bj):
                continue
            k, p = i + j, product_precision(ai, bj)
            if k >= q:
                k, p = k - q, p + 1
            if p < prec[k]:
                prec[k] = p
    product = _to_u_series(U, a.coords, q) * _to_u_series(U, b.coords, q)
    return ctx.element(_from_u_series(F, product, q, prec))


def _to_u_series(U, coords, q):
    """The EXACT u-series sum_i b_i(u^q) u^i of the known terms of the b_i."""
    den = math.lcm(*[b.den for b in coords])
    terms = {}
    for i, b in enumerate(coords):
        f = den // b.den
        for e, c in b.terms.items():
            terms[q * e + i] = c * f if f != 1 else c
    return _stored(U, terms, den, None)


def _from_u_series(F, s, q, precisions=None):
    """The coordinates b_0, ..., b_(q-1) of the u-series s = sum_i b_i(u^q) u^i
    over F, the inverse of ``_to_u_series``: the coefficient of u^(q*e + i) is
    that of t^e in b_i.  b_i is known below ``precisions[i]`` (INFINITY:
    exact) or, without them, below t^ceil((P - i)/q) when s is known below u^P."""
    if precisions is None:
        P = s.precision
        precisions = [INFINITY if P is None else -((i - P) // q) for i in range(q)]
    split = [{} for _ in range(q)]
    for e, c in s.terms.items():
        e, i = divmod(e, q)
        if e < precisions[i]:
            split[i][e] = c
    out = []
    for terms, p in zip(split, precisions):
        den = s.den
        if den != 1:
            terms, den = _primitive(terms, den)
        out.append(_stored(F, terms, den, None if p == INFINITY else p))
    return out


def galois_sigma(a, k):
    """sigma_0^k: b_i u^i -> xi^{ik} b_i u^i."""
    ctx = a.context
    if not 0 <= k < ctx.q:
        raise CycdivError(f"Galois power {k} out of range 0..{ctx.q - 1}")
    F = ctx.F
    return ctx.element(F.mul(ctx.xi_pow(i * k), b) for i, b in enumerate(a.coords))


def _u_sigma(s, k, xi_pows):
    """sigma_0^k of the u-series s over F_p: the coefficient of u^e times
    ``xi_pows[k*e mod q]``, the powers xi^0, ..., xi^(q-1) as ints mod p (or
    c times them, which gives c*sigma_0^k(s))."""
    q, p = len(xi_pows), s.domain.ring.p
    return _stored(s.domain, {e: c * xi_pows[k * e % q] % p for e, c in s.terms.items()}, 1,
                   s.precision)


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

