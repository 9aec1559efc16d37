"""The flat form of EXACT elements of a Laurent tower over Q or F_p, and
the one accumulator for sums of products on it.

The flat form of such an element is a list of (key, int) pairs.  The
exponent tuple (e_0, ..., e_{L-1}) of a coefficient, outermost level first,
is packed into the key sum(e_l << shift*(L-1-l)) (Kronecker substitution
with signed slots; von zur Gathen & Gerhard, "Modern Computer Algebra",
8.4).  Packing is linear, so the key of a product of terms is the sum of
their keys.  The values are the innermost coefficients: over Q integer
numerators over one denominator chosen per group of factors, over F_p ints
reduced only when a sum is read back.  Keys decode as long as the exponents
at every inner level of a result span fewer than 2**shift values.

``_flat_sum`` takes the bounds of all the factors once and gives a
``_FlatSum``: it flattens each factor once, adds products of flat factors
into one {key: int} map, and reads a map back by an exact zero test or by
one ``_unflatten``.  Its users are listed in the ``cycdiv.series`` module
docstring.

A structure-constant product keeps its maps: ``algebra.constants_mul``
returns them as a ``_FlatVector``, a read-only sequence of series that
builds each coordinate only when it is first read.  The zero test of
``Element.is_known_zero`` is read off the maps.  So are ``==`` between two
vectors and the flat forms of the vector as a factor of the next product
when their keys are packed alike: at the same shift, and for ``==`` over the
same denominator.  Otherwise both flatten or compare the built coordinates.
Every name here is internal to cycdiv.
"""

import math
from collections.abc import Sequence

from .basefields import PrimeField, RationalField
from .series import _ZZ, SeriesDomain, _stored

# Keys are packed only below 2**62 in absolute value (at most three 30-bit
# digits of a CPython int); wider exponents take the Series arithmetic.
_FLAT_KEY_BITS = 62

# The flat form of 1 over the denominator 1: a unit factor for ``_FlatSum.add``.
_FLAT_ONE = ((0, 1),)


def _flat_levels(domain):
    """The levels of ``domain``, outermost first, when it is a Laurent tower
    (value group Z at every level) over Q or F_p; else None."""
    levels = []
    while isinstance(domain, SeriesDomain):
        if domain.group.p is not None:
            return None
        levels.append(domain)
        domain = domain.coeff
    if not levels or not isinstance(domain, (PrimeField, RationalField)):
        return None
    return levels


def _flat_bounds(elements, depth):
    """(lows, highs, den) over the nonzero ``elements`` of a depth-level tower:
    the least and largest exponent at each level, and the lcm of the
    innermost denominators; None when one of them is truncated at some level.
    Without nonzero elements every bound is 0.  A ``_FlatVector`` gives the
    bounds it keeps, which hold its exponents without being the least."""
    if isinstance(elements, _FlatVector):
        return elements.bounds
    level = [s for s in elements if s.terms or s.precision is not None]
    if not level:
        return [0] * depth, [0] * depth, 1
    lows, highs = [], []
    while True:
        exps = []
        for s in level:
            if s.precision is not None or not s.terms:
                return None
            exps += s.terms
        lows.append(min(exps))
        highs.append(max(exps))
        if len(lows) == depth:
            return lows, highs, math.lcm(*[s.den for s in level])
        level = [c for s in level for c in s.terms.values()]


def _flatten(s, shift, den, prefix=0, out=None):
    """The flat form of the EXACT tower element ``s`` over ``den`` (a multiple
    of every innermost denominator), as a list of (key, value) pairs;
    ``prefix`` holds the packed exponents of the levels above ``s``."""
    out = [] if out is None else out
    if isinstance(s.domain.coeff, SeriesDomain):
        for e, c in s.terms.items():
            _flatten(c, shift, den, (prefix + e) << shift, out)
    else:
        f = den // s.den
        out += [(prefix + e, c * f) for e, c in s.terms.items()]
    return out


def _unflatten(levels, flat, shift, lows, den):
    """The EXACT series whose flat form is ``flat`` over ``den``, with the
    level-l exponents of its terms in [lows[l], lows[l] + 2**shift) for l >= 1;
    the same stored form as the arithmetic of ``Series`` gives."""
    inner = levels[-1]
    if inner.ring is not _ZZ:
        p = inner.ring.p
        flat = {k: r for k, c in flat.items() if (r := c % p)}
    if len(levels) == 1:
        groups = {0: {e: c for e, c in flat.items() if c}}
    else:
        off = 0  # the key of the exponent tuple (0, lows[1], ..., lows[-1])
        for lo in lows[1:]:
            off = (off << shift) + lo
        mask, lo, groups = (1 << shift) - 1, lows[-1], {}
        for key, c in flat.items():
            if c:
                key -= off
                g = groups.get(outer := key >> shift)
                if g is None:
                    groups[outer] = {(key & mask) + lo: c}
                else:
                    g[(key & mask) + lo] = c
    series = {}
    for key, terms in groups.items():
        if not terms:
            continue
        d = den
        if d != 1:
            g = math.gcd(d, *terms.values())
            if g != 1:
                terms, d = {e: c // g for e, c in terms.items()}, d // g
        series[key] = _stored(inner, terms, d, None)
    for level in range(len(levels) - 2, 0, -1):
        lo, groups = lows[level], {}
        for key, s in series.items():
            groups.setdefault(key >> shift, {})[(key & mask) + lo] = s
        series = {key: _stored(levels[level], terms, 1, None) for key, terms in groups.items()}
    if len(levels) == 1:
        return series.get(0, inner.zero)
    # the outermost keys are the exponents themselves
    return _stored(levels[0], series, 1, None) if series else levels[0].zero


class _FlatSum:
    """Sums of products of EXACT elements of a Laurent tower over Q or F_p on
    the flat form, made by ``_flat_sum``: ``flat`` flattens each factor once,
    ``add`` puts products of flat factors into one {key: int} map, and a map
    is read back by an exact zero test (``is_zero``) or by one ``_unflatten``
    (``series``)."""

    __slots__ = ("levels", "shift", "lows", "p")

    def __init__(self, levels, shift, lows):
        self.levels, self.shift, self.lows = levels, shift, lows
        ring = levels[-1].ring
        self.p = None if ring is _ZZ else ring.p

    def flat(self, s, den):
        """The flat form of ``s`` over ``den``, as (key, value) pairs."""
        return _flatten(s, self.shift, den)

    def flat_coords(self, coords, den):
        """The flat forms of the sequence ``coords`` over ``den``: read off the
        maps of a ``_FlatVector`` over the same levels and shift (``den`` is
        then its ``den``, as ``_flat_bounds`` gives it), else flattened one by
        one, which builds the coordinates of a vector at another shift."""
        if (isinstance(coords, _FlatVector) and coords.acc.levels == self.levels
                and coords.acc.shift == self.shift):
            return coords.flat_forms()
        return [_flatten(s, self.shift, den) for s in coords]

    @staticmethod
    def add(out, products):
        """Add m*f*g*h into the map ``out`` for each (m, f, g, h) of
        ``products``, f, g and h flat forms; h is the innermost loop, so it
        should be the longest."""
        get = out.get
        for m, f, g, h in products:
            for kf, vf in f:
                vf *= m
                for kg, vg in g:
                    kfg, vfg = kf + kg, vf * vg
                    for kh, vh in h:
                        key = kfg + kh
                        out[key] = get(key, 0) + vfg * vh

    def is_zero(self, out):
        """Whether the map ``out`` is the flat form of 0."""
        p = self.p
        return not any(out.values() if p is None else (c % p for c in out.values()))

    def series(self, out, den):
        """The EXACT series whose flat form is ``out`` over ``den``."""
        return _unflatten(self.levels, out, self.shift, self.lows, den)


def _flat_sum(levels, bounds, k):
    """The ``_FlatSum`` of the Laurent tower ``levels`` (from ``_flat_levels``)
    for products of at most ``k`` factors from groups with the ``_flat_bounds``
    ``bounds``; None when a group is truncated at some level or a key could
    reach ``_FLAT_KEY_BITS``."""
    if None in bounds:
        return None
    # with 0 in [lo, hi], a product of at most k terms has its level-l
    # exponents in [k*lows[l], k*highs[l]]
    lows = [min(0, *lo) for lo in zip(*[bound[0] for bound in bounds])]
    highs = [max(0, *hi) for hi in zip(*[bound[1] for bound in bounds])]
    shift = max([k * (hi - lo) for lo, hi in zip(lows[1:], highs[1:])], default=0).bit_length()
    # every key is below k * widest * 2**(shift * (depth - 1) + 1) in absolute value
    bits = (k * max(max(-lo, hi) for lo, hi in zip(lows, highs))).bit_length()
    if shift * (len(levels) - 1) + bits >= _FLAT_KEY_BITS:
        return None
    # a whole number of bytes where the keys allow it, so that the products
    # of operands of about the same width pack their keys alike: a product
    # with a _FlatVector factor or == between two vectors then reads the
    # maps, and at another shift builds the coordinates instead
    wide = -(-shift // 8) * 8
    if wide * (len(levels) - 1) + bits < _FLAT_KEY_BITS:
        shift = wide
    return _FlatSum(levels, shift, [k * lo for lo in lows])


class _FlatVector(Sequence):
    """The n coordinates of a structure-constant product on the flat form,
    from the ``_FlatSum`` ``acc``: coordinate k is the sum of the products
    ``terms(k)`` (as ``_FlatSum.add`` takes them) over ``den``, added up into
    one {key: int} map when it is first needed.  ``bounds`` are (lows,
    highs, den) as ``_flat_bounds`` gives them: the sums over the factors'
    bounds, which hold every exponent of every coordinate.  A coordinate is
    built by one ``_unflatten`` when it is first read; ``is_zero`` (which
    stops at the first nonzero map), ``flat_forms`` and ``==`` with a vector
    packed alike read the maps."""

    __slots__ = ("acc", "den", "bounds", "_terms", "_maps", "_series", "_forms")

    def __init__(self, acc, n, terms, den, factor_bounds):
        self.acc, self.den, self._terms = acc, den, terms
        self.bounds = ([sum(lows) for lows in zip(*[b[0] for b in factor_bounds])],
                       [sum(highs) for highs in zip(*[b[1] for b in factor_bounds])], den)
        self._maps = [None] * n
        self._series = [None] * n
        self._forms = None

    def _map(self, k):
        out = self._maps[k]
        if out is None:
            out = self._maps[k] = {}
            self.acc.add(out, self._terms(k))
        return out

    def __len__(self):
        return len(self._maps)

    def __getitem__(self, k):
        if isinstance(k, slice):
            return tuple(map(self.__getitem__, range(*k.indices(len(self._maps)))))
        s = self._series[k]
        if s is None:
            s = self._series[k] = self.acc.series(self._map(k), self.den)
        return s

    def __iter__(self):
        return map(self.__getitem__, range(len(self._maps)))

    def __repr__(self):
        return repr(tuple(self))

    def is_zero(self):
        """Whether every coordinate is 0."""
        return all(self.acc.is_zero(self._map(k)) for k in range(len(self._maps)))

    def flat_forms(self):
        """The flat forms of the coordinates over ``den``, keys packed at the
        shift of ``acc``: the (key, value) pairs of each map whose value is
        nonzero (reduced mod p over F_p).  A product at another shift
        flattens the built coordinates instead (``_FlatSum.flat_coords``)."""
        if self._forms is None:
            p, maps = self.acc.p, map(self._map, range(len(self._maps)))
            self._forms = [[(k, c) for k, c in m.items() if c] if p is None
                           else [(k, r) for k, c in m.items() if (r := c % p)] for m in maps]
        return self._forms

    def __eq__(self, other):
        """Coordinate-wise equality, as between tuples of series.  Two vectors
        over the same levels, shift and ``den``, whose inner exponents lie in
        one window of 2**shift values (so that equal keys are equal
        exponents), compare their maps; any other pair compares the built
        coordinates one by one."""
        if isinstance(other, _FlatVector) and self._packed_alike(other):
            return len(self) == len(other) and all(
                dict(f) == dict(g) for f, g in zip(self.flat_forms(), other.flat_forms()))
        if isinstance(other, (tuple, _FlatVector)):
            return len(self) == len(other) and all(x == y for x, y in zip(self, other))
        return NotImplemented

    def _packed_alike(self, other):
        (lows, highs, den), (lows2, highs2, den2) = self.bounds, other.bounds
        shift = self.acc.shift
        return (other.acc.levels == self.acc.levels and other.acc.shift == shift and den == den2
                and all(max(hi, hi2) - min(lo, lo2) < 1 << shift
                        for lo, hi, lo2, hi2 in zip(lows[1:], highs[1:], lows2[1:], highs2[1:])))
