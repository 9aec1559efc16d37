"""Dense linear algebra over field domains: solves and exact kernel vectors.

``solve_linear`` and ``kernel_vector`` run one elimination core,
``_eliminate``, on the augmented rows ``[M | rhs]`` (a kernel has no
right-hand side).  The core owns the pivot search, the row swaps and the
live columns; a *route* brings the entry representation, ``forward``
(reduce only the rows below the pivot, not every other row) and two row
operations, ``scale_row`` (invert the pivot, scale the pivot row) and
``reduce_row`` (``row[j] -= f * prow[j]`` on the live columns).
``solve_linear`` works in the domain: series entries are truncated to the
working precision plus a slack, the pivot is an entry of least valuation,
and it is inverted to the precision its O-term allows.  ``kernel_vector``
pivots on the first nonzero entry.

Which route serves which call:

* Term maps, over F_p((t)): a ``SeriesDomain`` whose ``ring`` is a
  ``PrimeField`` and whose value group is Z.  Each entry is a ``_Terms``,
  an ``{exponent: int}`` map with its precision and valuation bound.
  Dense operands are multiplied by Kronecker substitution, with the density
  rule of ``series._kronecker_mul``; each entry keeps its packed int, so a
  pivot row entry is packed once per pivot step and a multiplier once per
  row, not once per product.  Sparse operands take the schoolbook loop.
  No ``Series`` is built until the result.

  - The truncated solve (``_TermSolve``): ``row[j] -= f*prow[j]`` adds the
    term products straight into ``row[j]``'s map, reduces mod p once, and
    cuts at the precision ``series.product_precision`` gives; the pivot is
    inverted by ``Series.invert``.  The steps follow the rule of
    ``Series.__mul__`` and ``Series.__sub__``, so they give the same stored
    series as the loop.
  - Every kernel of an EXACT matrix, and the solve with
    ``fraction_free=True`` (``_Bareiss``): forward fraction-free
    elimination on EXACT term maps, then fraction-free back-substitution,
    every division exact, by long division on the lowest terms.  Every
    entry stays a minor of [M | rhs], so nothing swells past Cramer's
    bound, and the determinant decides singularity exactly.  A kernel is
    the Cramer kernel, r x r minors with r the rank; a solution is
    x_l = N_l * det^-1, one ``Series.invert``, cut at the requested
    precision.  [M | rhs] is eliminated once: a singular M's kernel is read
    off the same rows.  ``algebra.invert`` in a cyclic algebra over F_p((t)) with
    EXACT inputs solves a q x q system over K = F_p((u)) so instead of the
    q^2 x q^2 one over F (see the ``cycdiv.algebra`` module docstring).
* The loop, in the arithmetic of the domain itself: Hahn fields, towers,
  Q((t)) and base fields such as Q.  ``kernel_vector`` there, and on a
  truncated F_p((t)) matrix, runs on ``FractionField``: fractions
  (num, den) of the domain, never reduced, whose denominators are cleared
  by products at the end.

A multiplier f known only to an O-term is no zero: ``f*prow[j]`` is known to
no term, but it is known only to ``product_precision(f, prow[j])``, which
bounds what is known of ``row[j]`` after the step.  Both truncated routes
apply that bound without a product; they skip only exact zeros.  (The
fractions of a kernel skip known zeros: a kernel is only certified from
EXACT entries.)

A pivot step on column c reads column c and then writes only the live
columns: those right of c (the right-hand side with them, until a column
without a pivot) and, for a Gauss–Jordan kernel, the first such column,
whose entries in the pivot rows give the kernel vector.  No later step
reads any other column, so skipping them changes no result and saves about
half of the products.

Kernel extraction is exact because nothing in it is truncated and every
division in it is exact: over EXACT series or an exact base field a fraction
is zero exactly when its numerator is, and a fraction-free entry exactly
when its term map is empty, so a column without a pivot proves the matrix
singular, and the vector read off the reduced rows annihilates M exactly.
Truncated entries cannot decide this (``O(t^k)`` may be nonzero), so
``solve_linear`` asks for a kernel only when M is exact, and a truncated M
without a pivot is a PrecisionError.
"""

from .basefields import PrimeField
from .errors import CycdivError, PrecisionError, ZeroDivisorError
from .series import (_KRONECKER_DENSITY, INFINITY, Series, SeriesDomain, _pack, _slot_width,
                     _slots, _stored, product_precision)

# precision beyond the requested one that a series solve works at
_SLACK = 10


class FractionField:
    """Fractions (num, den) over an integral domain: the operations of the
    loop route, with no reduction and no division in the base."""

    def __init__(self, base):
        self.base = base

    def mul(self, x, y):
        b = self.base
        return (b.mul(x[0], y[0]), b.mul(x[1], y[1]))

    def sub(self, x, y):
        b = self.base
        return (b.sub(b.mul(x[0], y[1]), b.mul(y[0], x[1])), b.mul(x[1], y[1]))

    def invert(self, x):
        if self.base.is_known_zero(x[0]):
            raise ZeroDivisionError("inverse of zero fraction")
        return (x[1], x[0])

    def is_known_zero(self, x):
        return self.base.is_known_zero(x[0])

    is_zero = is_known_zero


def _square(matrix, rhs=None):
    """The size n of a square matrix (and of ``rhs``), else CycdivError."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or (rhs is not None and len(rhs) != n):
        raise CycdivError(f"expected a square matrix and a right-hand side of its size, got "
                          f"{n} rows of lengths {sorted({len(row) for row in matrix})}"
                          + ("" if rhs is None else f" and {len(rhs)} right-hand sides"))
    return n


def _first(value):
    return 0


def _eliminate(rows, route, kernel=False):
    """Gauss–Jordan (forward with ``route.forward``) on the n augmented
    ``rows`` in place; returns the pivot row of each pivot column, and the
    first column without a pivot (None if every column has one).  Without
    ``kernel`` it stops at that column.

    Among the entries of a column in the rows not yet used that are not
    ``route.is_known_zero``, the first one of least ``route.pivot_key`` is
    the pivot.  Every other row (forward: below it) whose entry f in the
    pivot column is not ``route.is_zero`` is reduced by f times the pivot row.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    is_known_zero, is_zero, pivot_key = route.is_known_zero, route.is_zero, route.pivot_key
    scale_row, reduce_row, forward = route.scale_row, route.reduce_row, route.forward
    pivots, free, top = {}, None, 0
    for col in range(n):
        nonzero = [r for r in range(top, n) if not is_known_zero(rows[r][col])]
        if not nonzero:
            if not kernel:
                return pivots, col
            if free is None:
                free = col
            continue
        pr = min(nonzero, key=lambda r: pivot_key(rows[r][col]))
        rows[top], rows[pr] = rows[pr], rows[top]
        # past a column without a pivot only a kernel is read: the rhs is dead,
        # and forward, the free column is 0 in the rows below, and stays 0
        live = range(col + 1, width if free is None else n)
        if free is not None and not forward:
            live = [free, *live]
        prow = rows[top]
        scale_row(prow, col, live)
        for r in range(top + 1 if forward else 0, n):
            if r != top and not is_zero(f := rows[r][col]):
                reduce_row(rows[r], f, prow, live)
        pivots[col] = top
        top += 1
    return pivots, free


class _Loop:
    """The loop route: entries are elements of ``domain`` (a field domain or
    a ``FractionField``), combined with its own operations."""

    forward = False

    def __init__(self, domain, pivot_key, invert):
        self.domain, self.pivot_key, self.invert = domain, pivot_key, invert
        self.is_known_zero, self.is_zero = domain.is_known_zero, domain.is_zero

    @staticmethod
    def series(x):
        return x

    def scale_row(self, row, col, live):
        mul = self.domain.mul
        pinv = self.invert(row[col])
        for j in live:
            row[j] = mul(pinv, row[j])

    def reduce_row(self, row, f, prow, live):
        if self.is_known_zero(f):
            # an O-term multiplier (is_zero skips exact zeros, and over a
            # field or in fractions the two tests agree): only the precision
            for j in live:
                prec = product_precision(f, prow[j])
                if prec != INFINITY:  # f*0 is an exact zero
                    row[j] = row[j].truncate(prec)
            return
        mul, sub = self.domain.mul, self.domain.sub
        for j in live:
            row[j] = sub(row[j], mul(f, prow[j]))


def _is_term_field(domain):
    """Whether ``domain`` is F_p((t)), which the term-map route serves."""
    return (isinstance(domain, SeriesDomain) and type(domain.ring) is PrimeField
            and domain.group.p is None)


class _Terms:
    """A term-map entry: ``terms`` {exponent: int in [1, p)}, its precision
    (INFINITY for EXACT) and its valuation lower bound ``low``.  Its exponent
    span and its Kronecker packings, by slot width, are made on first use
    and kept: a pivot row entry or a multiplier is packed once for all the
    products it enters.  ``terms`` is not changed once it has been read as
    an operand."""

    __slots__ = ("terms", "prec", "low", "_span", "_packs")

    def __init__(self, terms, prec=INFINITY):
        self.terms, self.prec = terms, prec
        self.low = min(terms) if terms else prec
        self._span = self._packs = None

    def span(self):
        if self._span is None:
            self._span = max(self.terms) - self.low + 1
        return self._span

    def packed(self, width, p):
        """The int whose ``width``-byte slot i holds the coefficient at low + i."""
        if self._packs is None:
            self._packs = {}
        packed = self._packs.get(width)
        if packed is None:
            packed = self._packs[width] = _pack(self.terms, self.low, self.span(), width, p)
        return packed


def _add_products(out, a, b, p, prec, sign):
    """Add ``sign`` times the terms of a*b below ``prec`` into the map ``out``,
    unreduced mod p, and return it; a and b are nonzero ``_Terms``.  Dense
    operands (the density rule of ``series._kronecker_mul``) are multiplied
    by Kronecker substitution, the others term by term."""
    ta, tb = a.terms, b.terms
    la, lb = len(ta), len(tb)
    get = out.get
    # a cheap necessary condition first: the spans are at least la and lb
    if la * lb > _KRONECKER_DENSITY * (la + lb):
        na, nb = a.span(), b.span()
        width = _slot_width(min(la, lb) * (p - 1) ** 2)
        if la * lb > _KRONECKER_DENSITY * (na + nb) and width is not None:
            lo = a.low + b.low
            n = min(na + nb - 1, prec - lo)
            if n > 0:
                slots = enumerate(_slots(a.packed(width, p) * b.packed(width, p),
                                         na + nb - 1, width, n), lo)
                if sign > 0:
                    for e, c in slots:
                        if c:
                            out[e] = get(e, 0) + c
                else:
                    for e, c in slots:
                        if c:
                            out[e] = get(e, 0) - c
            return out
    if la > lb:
        ta, tb = tb, ta
    for e1, c1 in ta.items():
        c1 *= sign
        for e2, c2 in tb.items():
            e = e1 + e2
            if e < prec:
                out[e] = get(e, 0) + c1 * c2
    return out


def _reduced(terms, p, prec=INFINITY):
    """``terms`` reduced mod p, without zeros and exponents from ``prec`` on."""
    return {e: r for e, c in terms.items() if e < prec and (r := c % p)}


def _invert_pivot(v, work):
    """The inverse of the series pivot ``v`` to the working precision, or to
    less when the O-term of ``v`` allows no more."""
    achievable = INFINITY if v.precision is None else v.precision - 2 * v.valuation()
    return v.invert(min(work, achievable))


class _TermSolve:
    """The term-map route of the truncated solve over F_p((t)); an entry is
    a ``_Terms``."""

    forward = False

    def __init__(self, domain, work):
        self.domain, self.p, self.work = domain, domain.ring.p, work

    def entry(self, s):
        """The entry of ``s`` truncated to the working precision."""
        prec = self.work if s.precision is None else min(s.precision, self.work)
        return _Terms({e: c for e, c in s.terms.items() if e < prec}, prec)

    def series(self, x):
        return _stored(self.domain, x.terms, 1, None if x.prec == INFINITY else x.prec)

    @staticmethod
    def is_known_zero(x):
        return not x.terms

    @staticmethod
    def is_zero(x):
        return not x.terms and x.prec == INFINITY

    @staticmethod
    def pivot_key(x):
        return x.low

    def scale_row(self, row, col, live):
        inv = _invert_pivot(self.series(row[col]), self.work)
        pinv, p = _Terms(inv.terms, INFINITY if inv.precision is None else inv.precision), self.p
        for j in live:
            b = row[j]
            prec = min(pinv.prec + b.low, b.prec + pinv.low)
            out = {}
            if b.terms:
                _add_products(out, pinv, b, p, prec, 1)
                out = _reduced(out, p)
            row[j] = _Terms(out, prec)

    def reduce_row(self, row, f, prow, live):
        p = self.p
        for j in live:
            x, b = row[j], prow[j]
            # the precision of f*prow[j] bounds row[j], even with no term
            prec = min(x.prec, f.prec + b.low, b.prec + f.low)
            t = x.terms
            if f.terms and b.terms:
                _add_products(t, f, b, p, prec, -1)
                t = _reduced(t, p, prec)
            elif prec < x.prec:
                t = {e: c for e, c in t.items() if e < prec}
            else:
                continue
            row[j] = _Terms(t, prec)


def _exact_quotient(a, b, p):
    """a / b for term maps (Laurent polynomials over F_p) where b divides a:
    long division on the lowest terms, with a check that nothing remains."""
    lb = min(b)
    inv = pow(b[lb], -1, p)
    if len(b) == 1:
        return {e - lb: c * inv % p for e, c in a.items()}
    la = min(a)
    r = [0] * (max(a) - la + 1)
    for e, c in a.items():
        r[e - la] = c
    rest = [(e - lb, c) for e, c in b.items() if e != lb]
    n = max(len(r) - (max(b) - lb), 0)
    out = {}
    for i in range(n):
        if c := r[i] % p * inv % p:
            out[la - lb + i] = c
            for k, cb in rest:
                r[i + k] -= c * cb
    if any(c % p for c in r[n:]):
        raise CycdivError("inexact division in fraction-free elimination")
    return out


class _Bareiss:
    """The fraction-free route over F_p((t)) (Bareiss 1968), made with the
    forward elimination of its EXACT ``rows`` (``pivots``, ``free``: what
    ``_eliminate`` returns).  A step on the pivot ``piv``, after the step on
    ``prev``, sets row[j] = (piv*row[j] - f*prow[j]) / prev on every row
    below, f = row[col]; the division is exact, as every entry is then a
    minor of [M | rhs]."""

    is_known_zero = staticmethod(_TermSolve.is_known_zero)
    pivot_key = staticmethod(_first)
    forward = True

    def __init__(self, p, rows):
        self.p, self.piv, self.prev = p, _Terms({0: 1}), None
        self.rows = [[_Terms(e.terms) for e in row] for row in rows]
        self.pivots, self.free = _eliminate(self.rows, self, kernel=True)

    @staticmethod
    def is_zero(x):
        return False  # a row with f = 0 is still scaled by piv/prev

    def scale_row(self, row, col, live):
        self.prev, self.piv = self.piv.terms, row[col]

    def reduce_row(self, row, f, prow, live):
        p, piv, prev = self.p, self.piv, self.prev
        for j in live:
            x, b = row[j], prow[j]
            out = {}
            if x.terms:
                _add_products(out, piv, x, p, INFINITY, 1)
            if f.terms and b.terms:
                _add_products(out, f, b, p, INFINITY, -1)
            out = _reduced(out, p)
            row[j] = _Terms(_exact_quotient(out, prev, p) if out else out)

    def back_substitute(self, col, value):
        """The x (a list over the columns of M) with x[col] = ``value``, 0 at
        the other columns without a pivot, that the pivot rows annihilate:
        from the last row up, x[c] = -(sum of row[j]*x[j]) / row[c], exact
        when ``value`` is the last pivot, as x[c] is then a minor of [M | rhs]."""
        p, x = self.p, {col: value}
        for c, r in sorted(((c, r) for c, r in self.pivots.items() if c < col), reverse=True):
            row, out = self.rows[r], {}
            if row[c] is value and len(x) == 1:  # row[c]*x[c] + row[col]*value = 0
                x[c] = _Terms({e: p - v for e, v in row[col].terms.items()})
                continue
            for j, xj in x.items():
                if row[j].terms and xj.terms:
                    _add_products(out, row[j], xj, p, INFINITY, -1)
            out = _reduced(out, p)
            x[c] = _Terms(_exact_quotient(out, row[c].terms, p) if out else out)
        return [x.get(c) or _Terms({}) for c in range(len(self.rows))]


def _exact_term_rows(domain, rows):
    """Whether ``rows`` hold only EXACT entries of F_p((t)), which the
    ``_Bareiss`` route serves."""
    return _is_term_field(domain) and all(e.is_exact for row in rows for e in row)


def solve_linear(domain, matrix, rhs, precision=None, fraction_free=False):
    """Solve M x = rhs over a field domain by elimination.

    ``matrix`` is a list of rows; ``rhs`` a list.  For series domains,
    ``precision`` bounds the working precision (default: the domain's).
    A singular system raises ZeroDivisorError, always carrying an exact
    kernel vector.  A column without a pivot at the working precision raises
    PrecisionError when some entry is truncated (it may be a unit known to
    too few terms) or when the exact matrix has no kernel.

    ``fraction_free`` is for EXACT M and rhs over F_p((t)), and raises
    CycdivError on any other input: the ``_Bareiss`` route, which decides
    singularity exactly and never raises PrecisionError.  Back-substitution
    on [M | rhs], eliminated once, gives det*x_l = N_l (det up to sign), so
    x_l = N_l * det^-1 takes one ``Series.invert`` of det; each x_l is cut
    at t^precision, and is an EXACT 0 when N_l is.  A singular M raises
    ZeroDivisorError with the kernel ``kernel_vector`` reads off those rows.
    """
    n = _square(matrix, rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    if fraction_free:
        if not _exact_term_rows(domain, rows):
            raise CycdivError("a fraction-free solve needs EXACT entries over F_p((t))")
        if precision is None:
            precision = domain.default_precision
        route = _Bareiss(domain.ring.p, rows)
        if route.free is not None:
            raise ZeroDivisorError("singular linear system",
                                   kernel=kernel_vector(domain, matrix, _eliminated=route))
        # [M | rhs] annihilates (-N, det): x_l = -nums[l] * det^-1, known past t^precision
        nums = route.back_substitute(n, route.piv)
        lows = [x.low for x in nums if x.terms]
        if not lows:
            return [domain.zero] * n
        inv, p = _Terms(_stored(domain, route.piv.terms, 1, None).invert(
            precision - min(lows)).terms), route.p
        return [_stored(domain, _reduced(_add_products({}, x, inv, p, precision, -1), p), 1,
                        precision) if x.terms else domain.zero for x in nums]
    work = None
    if isinstance(domain, SeriesDomain):
        work = (precision if precision is not None else domain.default_precision) + _SLACK
    if _is_term_field(domain):
        route = _TermSolve(domain, work)
        rows = [[route.entry(e) for e in row] for row in rows]
    elif work is not None:
        rows = [[e.truncate(work) for e in row] for row in rows]
        route = _Loop(domain, Series.valuation_lower_bound, lambda v: _invert_pivot(v, work))
    else:
        route = _Loop(domain, _first, domain.invert)
    _, free = _eliminate(rows, route)
    if free is None:
        return [route.series(row[n]) for row in rows]
    if not all(e.is_exact for row in matrix for e in row if isinstance(e, Series)):
        raise PrecisionError(f"no pivot in column {free} at working precision {work}, "
                             "and the truncated entries cannot decide singularity")
    kernel = kernel_vector(domain, matrix)
    if kernel is None:
        raise PrecisionError(f"no pivot in column {free} at working precision {work}, "
                             "but the exact matrix is nonsingular")
    raise ZeroDivisorError("singular linear system", kernel=kernel)


def kernel_vector(domain, matrix, _eliminated=None):
    """An exact nonzero vector in the right kernel of M, or None.

    Over F_p((t)) with every entry EXACT, the ``_Bareiss`` route gives the
    Cramer kernel, r x r minors with r the rank: the last pivot at the first
    column without a pivot, by back-substitution on the rows of
    ``_eliminated`` when ``solve_linear`` has eliminated them.  Elsewhere,
    fraction elimination (exact over EXACT series and exact base fields),
    then denominators cleared so the result lives in the original domain.
    """
    n = _square(matrix)
    if _eliminated is not None or _exact_term_rows(domain, matrix):
        route = _eliminated or _Bareiss(domain.ring.p, matrix)
        if route.free is None:
            return None
        x = route.back_substitute(route.free, route.piv)
        return [_stored(domain, e.terms, 1, None) for e in x]
    one = domain.one
    ff = FractionField(domain)
    rows = [[(e, one) for e in row] for row in matrix]
    pivots, fc = _eliminate(rows, _Loop(ff, _first, ff.invert), kernel=True)
    if fc is None:
        return None
    x = [(domain.zero, one)] * n
    x[fc] = (one, one)
    for col, r in pivots.items():
        num, den = rows[r][fc]
        x[col] = (domain.neg(num), den)
    # clear denominators: x_i = num_i/den_i -> num_i * prod_{j != i} den_j
    cleared = []
    for i, (num, den) in enumerate(x):
        scale = one
        for j, (_, dj) in enumerate(x):
            if j != i:
                scale = domain.mul(scale, dj)
        cleared.append(domain.mul(num, scale))
    if all(domain.is_known_zero(c) for c in cleared):
        raise CycdivError("kernel clearing produced the zero vector")
    return cleared
