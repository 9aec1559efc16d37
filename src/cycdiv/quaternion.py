"""Quaternion algebras, biquaternion tensor products and the Albert form.

Everything is exact: the base field is a Q-rooted series tower (the
ordered-field arguments go through verbatim over Q), anisotropy is tested
on EXACT inputs where nonvanishing is decidable, and the square-sum
leading-term invariants mirror the structural steps of the anisotropy
argument; they need a tower over Q, which is ordered.

The Albert form phi = <c_1, ..., c_6> is evaluated on the flat form of
``cycdiv.flat`` (the accumulator ``_FlatSum``) when F is a Laurent tower
over Q or F_p and every input is EXACT at every level.  Over F, phi(a) is
the one sum sum c_i a_i^2.  Over a quadratic extension K = F(gamma), into
which the coefficients are injected, and a_i = (b_i, c'_i), it is the pair
(sum c_i (b_i^2 + gamma^2 c'_i^2), sum 2 c_i b_i c'_i), with one product by
gamma^2 per point.  Such inputs have one canonical exact value, so
``evaluate`` returns the same stored series as the ``Series`` loop, and
``anisotropy_sample_test`` reads the exact zero test off the sums without
building a series.  Truncated inputs, Hahn levels, a coefficient field as F
and exponents too wide to pack take the ``Series`` loop.
"""

from dataclasses import dataclass, field

from .algebra import ConstantsAlgebra, StructureConstants
from .basefields import Domain, RationalField
from .element import Element
from .errors import CycdivError, DomainMismatchError
from .flat import _FLAT_ONE, _flat_bounds, _flat_levels, _flat_sum
from .series import SeriesDomain, is_square_in_tower, root_domain


class QuaternionAlgebra(ConstantsAlgebra):
    """(u, v / F): i^2 = u, j^2 = v, ij = -ji.  Characteristic != 2."""

    def __init__(self, F, u, v):
        if F.characteristic == 2:
            raise CycdivError("quaternion algebras need characteristic != 2")
        if F.is_known_zero(u) or F.is_known_zero(v):
            raise CycdivError("quaternion parameters must be nonzero")
        one, neg = F.one, F.neg
        uv = F.mul(u, v)
        # table[a][b] = (coefficient, basis index) for e_a * e_b
        table = [
            [(one, 0), (one, 1), (one, 2), (one, 3)],
            [(one, 1), (u, 0), (one, 3), (u, 2)],
            [(one, 2), (neg(one), 3), (v, 0), (neg(v), 1)],
            [(one, 3), (neg(u), 2), (v, 1), (neg(uv), 0)],
        ]
        matrices = [[[F.zero] * 4 for _ in range(4)] for _ in range(4)]
        for a, row in enumerate(table):
            for b, (coeff, k) in enumerate(row):
                matrices[k][a][b] = coeff
        super().__init__(F, StructureConstants(4, ["1", "i", "j", "ij"], matrices,
                                               field_descriptor=repr(F)))
        self.u = u
        self.v = v

    def __eq__(self, other):
        return other is self or (isinstance(other, QuaternionAlgebra) and other.F == self.F
                                 and self.F.eq(other.u, self.u) and self.F.eq(other.v, self.v))

    def __repr__(self):
        return f"Quaternion(({self.F.to_str(self.u)}, {self.F.to_str(self.v)}) / {self.F!r})"

    @property
    def i(self):
        return self.basis(1)

    @property
    def j(self):
        return self.basis(2)


class BiquaternionElement(Element):
    """An element of a tensor product D1 (x) D2 of quaternion algebras, built
    by ``tensor(D1, D2, BiquaternionElement)``.  Its product is Element's,
    defined again on this class so that a profile can tell biquaternion
    products from the others."""

    __mul__ = Element.__mul__


@dataclass(frozen=True)
class AlbertForm:
    """The six-coefficient quadratic form attached to a biquaternion algebra."""

    coefficients: tuple  # (u, v, -uv, -u', -v', u'v') over F
    F: object
    # "levels": _flat_levels(F), "bounds": the coefficients' _flat_bounds,
    # shift -> their flat forms
    _flat: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def evaluate(self, a, domain=None):
        """phi(a_1..a_6) over F, or over ``domain``: F or a quadratic extension
        of F, into which the coefficients are injected; any other domain is a
        DomainMismatchError."""
        dom, flat = self._sums(a, domain)
        if flat is None:
            return self._loop(a, dom)
        acc, sums = flat
        values = tuple(acc.series(out, den) for out, den in sums)
        return values if len(values) == 2 else values[0]

    def _is_zero_at(self, a, domain=None):
        """Whether ``evaluate`` gives a value known to be zero, read off the
        flat sums when there are any."""
        dom, flat = self._sums(a, domain)
        if flat is None:
            return dom.is_known_zero(self._loop(a, dom))
        acc, sums = flat
        return all(acc.is_zero(out) for out, _ in sums)

    def _loop(self, a, dom):
        cs = self.coefficients if dom is self.F else map(dom.inject, self.coefficients)
        total = dom.zero
        for coeff, ai in zip(cs, a):
            total = dom.add(total, dom.mul(coeff, dom.mul(ai, ai)))
        return total

    def _sums(self, a, domain):
        """(domain, flat), the domain F itself when it equals F.  ``flat`` is
        a ``_FlatSum`` with the [(map, den)] of phi(a) when one can serve:
        over F one sum, and over K = F(gamma) the pair
        (sum c_i (b_i^2 + gamma^2 c'_i^2), sum 2 c_i b_i c'_i) for
        a_i = (b_i, c'_i), with one product by gamma^2.  Else it is None."""
        if len(a) != 6:
            raise CycdivError("Albert form takes 6 arguments")
        F = self.F
        dom = F if domain is None or domain == F else domain
        over_k = dom is not F
        if over_k:
            if not (isinstance(dom, QuadraticExtension) and (dom.base is F or dom.base == F)):
                raise DomainMismatchError(f"{dom!r} is neither {F!r} nor a quadratic "
                                          "extension of it")
            xs = [x for pair in a for x in pair]
        else:
            xs = a
        cache = self._flat
        if "levels" not in cache:
            levels = cache["levels"] = _flat_levels(F)
            cache["bounds"] = levels and _flat_bounds(self.coefficients, len(levels))
        levels = cache["levels"]
        if levels is None or not all(getattr(x, "domain", None) is F for x in xs):
            return dom, None
        bounds = [cache["bounds"], _flat_bounds(xs, len(levels))]
        if over_k:
            bounds.insert(1, _flat_bounds([dom.gamma_sq], len(levels)))
        # at most c * x * x over F, and gamma^2 * c * x * x over K
        acc = _flat_sum(levels, bounds, 4 if over_k else 3)
        if acc is None:
            return dom, None
        den_c, den_x = bounds[0][2], bounds[-1][2]
        cs = cache.get(acc.shift)
        if cs is None:
            cs = cache[acc.shift] = [acc.flat(c, den_c) for c in self.coefficients]
        fx = [acc.flat(x, den_x) for x in xs]
        den = den_c * den_x * den_x
        if not over_k:
            out = {}
            acc.add(out, [(1, c, x, x) for c, x in zip(cs, fx)])
            return dom, (acc, [(out, den)])
        den_g = bounds[1][2]
        bs, b2s = fx[0::2], fx[1::2]
        first, scaled, second = {}, {}, {}
        acc.add(first, [(den_g, c, b, b) for c, b in zip(cs, bs)])
        acc.add(scaled, [(1, c, b2, b2) for c, b2 in zip(cs, b2s)])
        acc.add(first, [(1, _FLAT_ONE, acc.flat(dom.gamma_sq, den_g), tuple(scaled.items()))])
        acc.add(second, [(2, c, b, b2) for c, b, b2 in zip(cs, bs, b2s)])
        return dom, (acc, [(first, den * den_g), (second, den)])


def albert_form(D1, D2):
    if D1.F != D2.F:
        raise DomainMismatchError("quaternion algebras over different fields")
    F = D1.F
    u, v = D1.u, D1.v
    u2, v2 = D2.u, D2.v
    return AlbertForm((u, v, F.neg(F.mul(u, v)),
                       F.neg(u2), F.neg(v2), F.mul(u2, v2)), F)


class QuadraticExtension(Domain):
    """F(gamma) with gamma^2 = gamma_sq in F, elements as pairs (b, c)."""

    def __init__(self, base, gamma_sq):
        if base.characteristic == 2:
            raise CycdivError("quadratic extensions need characteristic != 2")
        self.base = base
        self.gamma_sq = gamma_sq
        self.characteristic = base.characteristic
        self.zero = (base.zero, base.zero)
        self.one = (base.one, base.zero)

    def __eq__(self, other):
        return (isinstance(other, QuadraticExtension) and other.base == self.base
                and self.base.eq(other.gamma_sq, self.gamma_sq))

    def __repr__(self):
        return f"{self.base!r}(sqrt({self.base.to_str(self.gamma_sq)}))"

    @property
    def gamma(self):
        return (self.base.zero, self.base.one)

    def inject(self, b):
        return (b, self.base.zero)

    def from_int(self, n):
        return (self.base.from_int(n), self.base.zero)

    def add(self, x, y):
        b = self.base
        return (b.add(x[0], y[0]), b.add(x[1], y[1]))

    def neg(self, x):
        return (self.base.neg(x[0]), self.base.neg(x[1]))

    def mul(self, x, y):
        b = self.base
        return (b.add(b.mul(x[0], y[0]), b.mul(self.gamma_sq, b.mul(x[1], y[1]))),
                b.add(b.mul(x[0], y[1]), b.mul(x[1], y[0])))

    def invert(self, x):
        b = self.base
        norm = b.sub(b.mul(x[0], x[0]), b.mul(self.gamma_sq, b.mul(x[1], x[1])))
        if b.is_known_zero(norm):
            raise ZeroDivisionError("zero norm in quadratic extension")
        ninv = b.invert(norm)
        return (b.mul(x[0], ninv), b.neg(b.mul(x[1], ninv)))

    def eq(self, x, y):
        return self.base.eq(x[0], y[0]) and self.base.eq(x[1], y[1])

    def is_zero(self, x):
        return self.base.is_zero(x[0]) and self.base.is_zero(x[1])

    def is_known_zero(self, x):
        return self.base.is_known_zero(x[0]) and self.base.is_known_zero(x[1])

    def drawer(self, rng, **opts):
        """A function of no arguments that draws one pair, both parts from
        one drawer of the base field."""
        part = self.base.drawer(rng, **opts)
        return lambda: (part(), part())

    def random_element(self, rng, **opts):
        """One draw of :meth:`drawer`."""
        return self.drawer(rng, **opts)()

    def to_str(self, x):
        return f"({self.base.to_str(x[0])}) + ({self.base.to_str(x[1])})*sqrt"


def anisotropy_sample_test(form, domain, trials, seed_rng):
    """Evaluate the form on random nonzero EXACT tuples; count zeros.

    Any exact zero of the form on a nonzero tuple is a counterexample and
    is returned in the report.  Where the flat sums serve (see the module
    docstring), the zero test is read off them and no series is built.
    """
    draw = domain.drawer(seed_rng, n_terms=2, exp_lo=-2, exp_hi=4)
    failures = []
    for _ in range(trials):
        while True:
            a = tuple(draw() for _ in range(6))
            if not all(domain.is_known_zero(ai) for ai in a):
                break
        if form._is_zero_at(a, domain):
            failures.append(a)
    return {"trials": trials, "failures": len(failures), "counterexamples": failures}


def sos_leading_data(summands):
    """Leading data of a sum of squares in Q((X))((Y)).

    Returns the Y-valuation, the Y-angular component (an X-series), its
    X-valuation and leading rational, asserting: both valuations even and
    the leading rational positive.
    """
    if not summands:
        raise CycdivError("need at least one summand")
    domain = summands[0].domain
    if not isinstance(domain, SeriesDomain) or not isinstance(domain.coeff, SeriesDomain):
        raise CycdivError("expected elements of a two-level series tower")
    if not isinstance(root_domain(domain), RationalField):
        raise CycdivError("square-sum invariants need a tower over Q, which is ordered")
    for s in summands:
        if not s.is_exact:
            raise CycdivError("square-sum invariants need EXACT inputs")
    total = domain.zero
    for s in summands:
        total = total + s * s
    if total.is_known_zero():
        raise CycdivError("all summands are zero")
    v_outer = total.valuation()
    ac_outer = total.angular_component()
    v_inner = ac_outer.valuation()
    lead = ac_outer.angular_component()
    if v_outer % 2 != 0:
        raise CycdivError(f"odd outer valuation {v_outer} in a sum of squares")
    if v_inner % 2 != 0:
        raise CycdivError(f"odd inner valuation {v_inner} in a sum of squares")
    if not lead > 0:
        raise CycdivError(f"nonpositive leading rational {lead} in a sum of squares")
    return {"outer_valuation": v_outer, "angular_component": ac_outer,
            "inner_valuation": v_inner, "leading_rational": lead}


def nonsquare_witness(inner_domain):
    """2 + 2X^2 = (1+X)^2 + (1-X)^2, certified non-square over Q((X)).

    This is the sum-of-squares witness, cleared of its square denominator.
    """
    one = inner_domain.one
    x = inner_domain.variable
    a = one + x
    b = one - x
    w = a * a + b * b
    if is_square_in_tower(w):
        raise CycdivError("witness unexpectedly a square")
    return w, {"is_square": False, "witness": "(1+X)^2 + (1-X)^2"}
