"""Dense linear algebra over field domains: solves and exact kernel vectors.

``solve_linear`` and ``kernel_vector`` run one Gauss–Jordan core,
``_eliminate``, on the augmented rows ``[M | rhs]`` (a kernel has no
right-hand side); the caller brings the pivot rule and the pivot inversion.
``solve_linear`` works in the domain itself: series entries are truncated to
the working precision plus a slack, the pivot is an entry of least valuation,
and it is inverted to the precision its O-term allows.  ``kernel_vector``
works in fractions (num, den) of the domain, never reduced, and pivots on the
first nonzero entry.

A pivot step on column c reads column c and then writes only the live
columns: those right of c (the right-hand side with them) and, for a kernel,
the first column found without a pivot, whose entries in the pivot rows give
the kernel vector.  No later step reads any other column, so skipping them
changes no result and saves about half of the products.

Kernel extraction is exact because nothing in it is truncated or divided:
over EXACT series or an exact base field a fraction is zero exactly when its
numerator is, so a column without a pivot proves the matrix singular, and the
vector read off the reduced rows, denominators cleared by products,
annihilates M exactly.  Truncated entries cannot decide this (``O(t^k)`` may
be nonzero), so ``solve_linear`` asks for a kernel only when M is exact, and
a truncated M without a pivot is a PrecisionError.
"""

from .errors import CycdivError, PrecisionError, ZeroDivisorError
from .series import INFINITY, Series, SeriesDomain

# precision beyond the requested one that a series solve works at
_SLACK = 10


class FractionField:
    """Fractions (num, den) over an integral domain: the operations of
    ``_eliminate``, with no reduction and no division in the base."""

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


def _square(matrix, rhs=None):
    """The size n of a square matrix (and of ``rhs``), else CycdivError."""
    n = len(matrix)
    if any(len(row) != n for row in matrix) or (rhs is not None and len(rhs) != n):
        raise CycdivError(f"expected a square matrix and a right-hand side of its size, got "
                          f"{n} rows of lengths {sorted({len(row) for row in matrix})}"
                          + ("" if rhs is None else f" and {len(rhs)} right-hand sides"))
    return n


def _eliminate(domain, rows, pivot_key, invert, kernel=False):
    """Gauss–Jordan on the n augmented ``rows`` in place; returns the pivot
    row of each pivot column, and the first column without a pivot (None if
    every column has one).  Without ``kernel`` it stops at that column.

    Among the nonzero entries of a column in the rows not yet used, the
    first one of least ``pivot_key`` is the pivot; ``invert`` inverts it.
    """
    n = len(rows)
    width = len(rows[0]) if rows else 0
    is_zero, mul, sub = domain.is_known_zero, domain.mul, domain.sub
    pivots, free, top = {}, None, 0
    for col in range(n):
        nonzero = [r for r in range(top, n) if not is_zero(rows[r][col])]
        if not nonzero:
            if not kernel:
                return pivots, col
            if free is None:
                free = col
            continue
        pr = min(nonzero, key=lambda r: pivot_key(rows[r][col]))
        rows[top], rows[pr] = rows[pr], rows[top]
        live = range(col + 1, width) if free is None else [free, *range(col + 1, width)]
        prow = rows[top]
        pinv = invert(prow[col])
        for j in live:
            prow[j] = mul(pinv, prow[j])
        for r, row in enumerate(rows):
            f = row[col]
            if r == top or is_zero(f):
                continue
            for j in live:
                row[j] = sub(row[j], mul(f, prow[j]))
        pivots[col] = top
        top += 1
    return pivots, free


def solve_linear(domain, matrix, rhs, precision=None):
    """Solve M x = rhs over a field domain by Gauss–Jordan elimination.

    ``matrix`` is a list of rows; ``rhs`` a list.  For series domains,
    ``precision`` bounds the working precision (default: the domain's).
    A singular system raises ZeroDivisorError, always carrying an exact
    kernel vector.  A column without a pivot at the working precision raises
    PrecisionError when some entry is truncated (it may be a unit known to
    too few terms) or when the exact matrix has no kernel.
    """
    n = _square(matrix, rhs)
    rows = [[*row, b] for row, b in zip(matrix, rhs)]
    work = None
    if isinstance(domain, SeriesDomain):
        work = (precision if precision is not None else domain.default_precision) + _SLACK
        rows = [[e.truncate(work) for e in row] for row in rows]

        def invert(v):
            achievable = INFINITY if v.precision is None else v.precision - 2 * v.valuation()
            return v.invert(min(work, achievable))

        pivot_key = Series.valuation_lower_bound
    else:
        invert, pivot_key = domain.invert, _first
    _, free = _eliminate(domain, rows, pivot_key, invert)
    if free is None:
        return [row[n] for row in rows]
    if not all(e.is_exact for row in matrix for e in row if isinstance(e, Series)):
        raise PrecisionError(f"no pivot in column {free} at working precision {work}, "
                             "and the truncated entries cannot decide singularity")
    kernel = kernel_vector(domain, matrix)
    if kernel is None:
        raise PrecisionError(f"no pivot in column {free} at working precision {work}, "
                             "but the exact matrix is nonsingular")
    raise ZeroDivisorError("singular linear system", kernel=kernel)


def _first(value):
    return 0


def kernel_vector(domain, matrix):
    """An exact nonzero vector in the right kernel of M, or None: fraction
    elimination (exact over EXACT series and exact base fields), then
    denominators cleared so the result lives in the original domain."""
    n = _square(matrix)
    one = domain.one
    ff = FractionField(domain)
    rows = [[(e, one) for e in row] for row in matrix]
    pivots, fc = _eliminate(ff, rows, _first, ff.invert, kernel=True)
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
        scale = domain.one
        for j, (_, dj) in enumerate(x):
            if j != i:
                scale = domain.mul(scale, dj)
        cleared.append(domain.mul(num, scale))
    if all(domain.is_known_zero(c) for c in cleared):
        raise CycdivError("kernel clearing produced the zero vector")
    return cleared
