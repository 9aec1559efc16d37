"""Cyclic algebras D = (K/F, sigma_0, alpha), structure constants, tensor
products, and the certification and inversion of algebra elements.

The basis of D is (u^i X^j) for 0 <= i, j < q, ordered with i fastest, so
the coordinate index of u^i X^j is i + q*j.  Multiplication is driven by the
rewriting rules X^q = alpha and X*b = sigma_0(b)*X; the equivalent
structure-constant bilinear product is extracted from them and can be
serialized to JSON.  An algebra given by structure constants alone
(:class:`ConstantsAlgebra`: the quaternion algebras and their tensor
products) multiplies through :func:`constants_mul`.  ``left_mul_matrix``,
``invert`` and ``structure_constants`` work in any of them through ``*``;
in a cyclic algebra ``left_mul_matrix`` reads the matrix off the rewriting
rules instead, entry by entry with the products ``relation_mul`` makes.

Which path of :func:`constants_mul` serves which input:

* The flat product.  When F is a Laurent tower over Q or F_p (value group Z
  at every level, one level or more) and every coordinate of both operands
  and every structure constant is EXACT at every level, each coordinate is
  flattened once to (packed exponent key, int) pairs over one common
  denominator, the structure constants once per :class:`StructureConstants`,
  and all +-lam*a_i*b_j terms are accumulated in one int map per output
  coordinate by the sum-of-products accumulator ``flat._FlatSum``.  The
  result is a ``flat._FlatVector``: it adds up a map when it is first
  needed and turns it into a series when the coordinate is first read.
  Its zero test, ``==`` with another such vector and its flat forms as an
  operand of the next product come from the maps.  Such inputs have one
  canonical exact result, so this path gives the same stored series as the
  loop.  This is the Albert biquaternion product over Q((X))((Y)).
* The loop.  Everything else (a truncated coordinate or an inner O-term,
  Z[1/p] exponents, a coefficient field as F, exponents too wide to pack)
  adds up ``F.mul(a_i, b_j)`` times each entry with ``F`` arithmetic.  It
  skips exact zeros only: a coordinate or entry known only to an O-term
  bounds the precision of the products it enters, as in ``relation_mul``.

Which route of :func:`invert` serves which input:

* The q x q system over K.  In a cyclic algebra whose K is the Laurent
  field F_p((u)), u = t^(1/q) (``KummerContext._u_field``, t the variable
  of F = F_p((t))), with d and alpha EXACT.  D is a q-dimensional right
  K-vector space with basis 1, X, ..., X^(q-1), and x -> d*x commutes with
  right multiplication by K, so it is K-linear there.  With d = sum_j a_j X^j
  (a_j the u-series ``kummer._to_u_series`` makes of the slice X^j) and
  a X^m = X^m sigma^-m(a), the coefficient of X^k in d X^l b is
  sigma^-k(a_(k-l mod q)) alpha^[l > k] b; sigma^m multiplies the coefficient
  of u^e by xi^(m*e).  The entries are EXACT Laurent polynomials in u, and
  ``solve_linear(..., fraction_free=True)`` solves the system for the right
  coordinates b_l of the inverse by fraction-free (Bareiss) elimination:
  b_l = N_l * det^-1, cut at the working precision q*(target + slack) in
  u, plus 2q|v| when v, the least valuation of an entry, is negative (an
  EXACT 0 when N_l is).  That extra was found by trial: without it some
  coordinates came out 1 to 3 terms less precise than over F; with it none
  did, for coordinates with exponents down to -10 and alpha down to t^-5
  (``tests/test_linalg.py``).  det is the reduced norm of d, in F, so its
  terms lie q apart in u; a det of few terms (a d of few short
  coordinates) is inverted by long division, a dense one by Newton.
  The left coordinates are x_l = sigma^l(b_l), each b_l split by exponent
  mod q and scaled in one pass: sigma^l scales the slice of exponents
  i mod q by xi^(l*i).
  Singularity is decided exactly, so no exact input is a PrecisionError
  here.  A singular system gives its Cramer kernel over K, mapped back once
  with xi's powers scaled so that the lowest coefficient of its last
  nonzero coordinate is 1.
* The q^2 x q^2 system over F, ``solve_linear`` on ``left_mul_matrix``:
  everything else (a truncated coordinate or alpha, Hahn fields, towers,
  Q((t)), a coefficient field such as Q, and ``ConstantsAlgebra``).
"""

import json
from dataclasses import dataclass

from .element import Element, FiniteAlgebra, monomial_label
from .errors import CycdivError, DomainMismatchError, ZeroDivisorError
from .kummer import KummerContext, _to_u_series, _u_sigma, is_norm
from .linalg import _SLACK, solve_linear
from .flat import _flat_bounds, _flat_levels, _flat_sum, _FlatVector
from .series import _stored


class CyclicAlgebra(FiniteAlgebra):
    """(K/F, sigma_0, alpha) of dimension q^2 over F; the product is
    :func:`relation_mul`."""

    def __init__(self, kummer, alpha):
        if not isinstance(kummer, KummerContext):
            raise TypeError("kummer must be a KummerContext")
        if kummer.F.is_known_zero(alpha):
            raise CycdivError("alpha must be nonzero")
        q = kummer.q
        super().__init__(kummer.F, [monomial_label(("u", i), ("X", j))
                                    for j in range(q) for i in range(q)])
        self.kummer = kummer
        self.q = q
        self.alpha = alpha

    def __eq__(self, other):
        return other is self or (isinstance(other, CyclicAlgebra) and other.kummer == self.kummer
                                 and self.F.eq(other.alpha, self.alpha))

    def __repr__(self):
        return f"CyclicAlgebra(q={self.q}, F={self.F!r})"

    def basis_index(self, i, j):
        return i + self.q * j

    def mul(self, a, b):
        return relation_mul(a, b)

    @property
    def u(self):
        return self.basis(self.basis_index(1, 0))

    @property
    def X(self):
        return self.basis(self.basis_index(0, 1))


def relation_mul(d, e):
    """Product via (u^i X^j)(u^k X^l) = xi^{jk} u^{i+k} X^{j+l}, u^q -> t, X^q -> alpha."""
    d._check(e)
    A = d.algebra
    F, q, ctx = A.F, A.q, A.kummer
    out = [F.zero] * A.n
    for j in range(q):
        for i in range(q):
            a = d.coords[A.basis_index(i, j)]
            if F.is_zero(a):
                continue
            for l in range(q):
                for k in range(q):
                    b = e.coords[A.basis_index(k, l)]
                    if F.is_zero(b):
                        continue
                    p = F.mul(a, b)
                    jk = (j * k) % q
                    if jk:
                        p = F.mul(p, ctx.xi_pow(jk))
                    ii = i + k
                    if ii >= q:
                        ii -= q
                        p = F.mul(p, ctx.t)
                    jj = j + l
                    if jj >= q:
                        jj -= q
                        p = F.mul(p, A.alpha)
                    idx = A.basis_index(ii, jj)
                    out[idx] = F.add(out[idx], p)
    return A.element(out)


@dataclass
class StructureConstants:
    """The n matrices M_k with (M_k)_{ij} the c_k-coefficient of c_i * c_j."""

    n: int
    labels: list
    matrices: list  # matrices[k][i][j] over F
    field_descriptor: str = ""

    def __post_init__(self):
        self._sparse = None
        self._flat = {}  # "bounds": _entry_bounds, and shift -> _flat_table

    def sparse(self, F):
        """(i, j) -> [(k, lam)] over the entries that are not exactly zero (an
        O-term bounds a product's precision)."""
        if self._sparse is None:
            table = {}
            for k, mat in enumerate(self.matrices):
                for i, row in enumerate(mat):
                    for j, lam in enumerate(row):
                        if not F.is_zero(lam):
                            table.setdefault((i, j), []).append((k, lam))
            self._sparse = table
        return self._sparse

    def _entry_bounds(self, F, depth):
        """``_flat_bounds`` of the nonzero entries, or None when one is truncated."""
        if "bounds" not in self._flat:
            self._flat["bounds"] = _flat_bounds(
                [lam for entries in self.sparse(F).values() for _, lam in entries], depth)
        return self._flat["bounds"]

    def _flat_table(self, F, acc):
        """[(i, j, flat form of lam)] for each k, at the shift of the
        ``_FlatSum`` ``acc``, over the denominator of ``_entry_bounds``."""
        table = self._flat.get(acc.shift)
        if table is None:
            den = self._flat["bounds"][2]
            table = [[] for _ in range(self.n)]
            for (i, j), entries in self.sparse(F).items():
                for k, lam in entries:
                    table[k].append((i, j, acc.flat(lam, den)))
            self._flat[acc.shift] = table
        return table


def structure_constants(algebra):
    """Extract the M_k from the products of all basis pairs."""
    n, F = algebra.n, algebra.F
    matrices = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    basis = [algebra.basis(idx) for idx in range(n)]
    for i in range(n):
        for j in range(n):
            prod = basis[i] * basis[j]
            for k, lam in enumerate(prod.coords):
                matrices[k][i][j] = lam
    return StructureConstants(n, list(algebra.labels), matrices, field_descriptor=repr(F))


def constants_mul(a, b, constants, F):
    """Bilinear product (a M_1 b^T, ..., a M_n b^T) from structure constants,
    by the flat product, as a ``_FlatVector``, or the loop, as a list (see the
    module docstring)."""
    n = constants.n
    if len(a) != n or len(b) != n:
        raise CycdivError("coordinate length mismatch with the structure constants")
    out = _flat_constants_mul(a, b, constants, F)
    if out is not None:
        return out
    out = [F.zero] * n
    table = constants.sparse(F)
    for i, ai in enumerate(a):
        if F.is_zero(ai):
            continue
        for j, bj in enumerate(b):
            if F.is_zero(bj):
                continue
            entries = table.get((i, j))
            if not entries:
                continue
            p = F.mul(ai, bj)
            for k, lam in entries:
                out[k] = F.add(out[k], F.mul(p, lam))
    return out


def _flat_constants_mul(a, b, constants, F):
    """``constants_mul`` as sums of products lam*a_i*b_j on the flat form (see
    ``cycdiv.flat``), as a ``_FlatVector``; None when F is no Laurent tower
    over Q or F_p, an input is truncated at some level, or the keys of the
    result would not pack into ``_FLAT_KEY_BITS``."""
    levels = _flat_levels(F)
    if levels is None:
        return None
    depth = len(levels)
    bounds = [constants._entry_bounds(F, depth), _flat_bounds(a, depth), _flat_bounds(b, depth)]
    acc = _flat_sum(levels, bounds, 3)
    if acc is None:
        return None
    table = constants._flat_table(F, acc)
    den_c, den_a, den_b = (bound[2] for bound in bounds)
    flat_a = acc.flat_coords(a, den_a)
    flat_b = acc.flat_coords(b, den_b)

    def terms(k):
        """The products lam*a_i*b_j of coordinate k, the longer factor innermost."""
        products = []
        for i, j, lam in table[k]:
            fa, fb = flat_a[i], flat_b[j]
            if fa and fb:
                products.append((1, lam, fa, fb) if len(fa) <= len(fb) else (1, lam, fb, fa))
        return products

    return _FlatVector(acc, constants.n, terms, den_a * den_b * den_c, bounds)


class ConstantsAlgebra(FiniteAlgebra):
    """An algebra given by its structure constants; the product is
    :func:`constants_mul`.  ``element_type`` is the class of its elements."""

    def __init__(self, F, constants, element_type=Element):
        super().__init__(F, constants.labels)
        self.constants = constants
        self.element_type = element_type

    def mul(self, a, b):
        a._check(b)
        return self.element(constants_mul(a.coords, b.coords, self.constants, self.F))


def tensor(A, B, element_type=Element):
    """A (x)_F B for structure-constant algebras A and B.

    The basis is a(x)b over the basis labels a of A and b of B, the index of
    e_s (x) f_t being s*B.n + t, and (e_s (x) f_t)(e_s' (x) f_t') =
    (e_s e_s') (x) (f_t f_t'): each structure constant is the product of one
    of A and one of B.
    """
    if A.F != B.F:
        raise DomainMismatchError("tensor factors must share the base field")
    F, m = A.F, B.n
    n = A.n * m
    matrices = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    sparse = {}  # the table StructureConstants.sparse would build
    table_b = B.constants.sparse(F)
    for (s, s2), entries_a in A.constants.sparse(F).items():
        for (t, t2), entries_b in table_b.items():
            i, j = s * m + t, s2 * m + t2
            entries = sparse[i, j] = []
            for k1, c1 in entries_a:
                for k2, c2 in entries_b:
                    # neither factor is an exact zero, so neither is their product
                    lam = matrices[k1 * m + k2][i][j] = F.mul(c1, c2)
                    entries.append((k1 * m + k2, lam))
    labels = [f"{a}(x){b}" for a in A.labels for b in B.labels]
    constants = StructureConstants(n, labels, matrices, field_descriptor=repr(F))
    constants._sparse = sparse
    return ConstantsAlgebra(F, constants, element_type)


def constants_to_json(constants, F):
    return json.dumps({
        "n": constants.n,
        "field": constants.field_descriptor or repr(F),
        "basis": constants.labels,
        "matrices": [[[F.to_str(lam) for lam in row] for row in mat]
                     for mat in constants.matrices],
    }, indent=2, sort_keys=True)


def constants_from_json(text, F):
    data = json.loads(text)
    parsed = {}  # each distinct entry string is parsed once; the values are immutable

    def entry(s):
        if s not in parsed:
            parsed[s] = F.parse(s)
        return parsed[s]

    matrices = [[[entry(s) for s in row] for row in mat] for mat in data["matrices"]]
    return StructureConstants(data["n"], data["basis"], matrices,
                              field_descriptor=data.get("field", ""))


def is_division(algebra, target_precision=None):
    """Division certification: D is a division algebra iff alpha is not a norm from K."""
    decision = is_norm(algebra.kummer, algebra.alpha, target_precision)
    return (not decision.is_norm), decision


def left_mul_matrix(d):
    """Matrix of x -> d*x in the fixed basis (columns are d * e_j)."""
    A = d.algebra
    if isinstance(A, CyclicAlgebra):
        return _cyclic_left_mul_matrix(d)
    cols = [(d * A.basis(j)).coords for j in range(A.n)]
    return [[col[i] for col in cols] for i in range(A.n)]


def _cyclic_left_mul_matrix(d):
    """``left_mul_matrix`` in a cyclic algebra, read off
    (u^i X^j)(u^k X^l) = xi^{jk} u^{i+k} X^{j+l}: the coordinate a of u^i X^j
    times xi^{jk}, then t when i + k wraps, then alpha when j + l wraps, the
    products ``relation_mul`` makes for d * u^k X^l."""
    A = d.algebra
    F, q, ctx, n = A.F, A.q, A.kummer, A.n
    matrix = [[F.zero] * n for _ in range(n)]
    for j in range(q):
        for i in range(q):
            a = d.coords[A.basis_index(i, j)]
            if F.is_zero(a):
                continue
            for k in range(q):
                p = a
                jk = (j * k) % q
                if jk:
                    p = F.mul(p, ctx.xi_pow(jk))
                ii = i + k
                if ii >= q:
                    ii -= q
                    p = F.mul(p, ctx.t)
                wrapped = F.mul(p, A.alpha) if j else None  # for the l where j + l wraps
                for l in range(q):
                    jj = j + l
                    matrix[A.basis_index(ii, jj % q)][A.basis_index(k, l)] = (
                        p if jj < q else wrapped)
    return matrix


def invert(d, target_precision=None):
    """Two-sided inverse by solving d*x = 1, over K or over F (see the module
    docstring); raises ZeroDivisorError with a kernel vector when d is a
    (left) zero divisor, and CycdivError when no coordinate of d is known to
    be nonzero."""
    A = d.algebra
    if d.is_known_zero():
        raise CycdivError("inverse of the zero algebra element: "
                          "no coordinate is known to be nonzero")
    if _k_route(d):
        return _invert_over_k(d, target_precision)
    x = solve_linear(A.F, left_mul_matrix(d), list(A.one.coords), precision=target_precision)
    return A.element(x)


def _k_route(d):
    """Whether ``invert`` solves over K = F_p((u)): d lies in a cyclic algebra
    whose K is that Laurent field, and d and alpha are EXACT."""
    A = d.algebra
    return (isinstance(A, CyclicAlgebra) and A.kummer._u_field is not None
            and A.kummer._u_field._laurent_p
            and A.alpha.is_exact and all(c.is_exact for c in d.coords))


def _invert_over_k(d, target_precision):
    """``invert`` as the q x q system over K = F_p((u)) in the right
    K-coordinates b_l of x = sum_l X^l b_l (see the module docstring)."""
    A = d.algebra
    F, q, ctx = A.F, A.q, A.kummer
    U, p = ctx._u_field, F.coeff.p
    xi = ctx.xi.terms[0]  # a root of unity of F_p((t)) is a constant
    xi_pows = [pow(xi, m, p) for m in range(q)]
    a = [_to_u_series(U, d.coords[q * j:q * (j + 1)], q) for j in range(q)]
    alpha = _to_u_series(U, [A.alpha] + [F.zero] * (q - 1), q)
    wrapped = [None] + [aj * alpha for aj in a[1:]]  # a_0 never wraps
    # d X^l b = sum_j X^k sigma^-k(a_j) alpha^[l > k] b with k = j + l mod q
    matrix = [[_u_sigma((wrapped if l > k else a)[(k - l) % q], -k, xi_pows) for l in range(q)]
              for k in range(q)]
    target = F.default_precision if target_precision is None else target_precision
    low = min((s.valuation() for row in matrix for s in row if s.terms), default=0)
    work = q * (target + _SLACK) + (2 * q * -low if low < 0 else 0)
    try:
        b = solve_linear(U, matrix, [U.one] + [U.zero] * (q - 1), work, fraction_free=True)
    except ZeroDivisorError as exc:
        # scaled so that its last nonzero coordinate, u^i X^l with i = e mod q
        # greatest in the last nonzero b_l, has lowest coefficient 1: the map
        # is F_p-linear, so scaling the powers of xi scales its result
        l = max(l for l, s in enumerate(exc.kernel) if s.terms)
        terms = exc.kernel[l].terms
        low = min(terms, key=lambda e: (-(e % q), e))
        inv = pow(terms[low] * xi_pows[l * low % q], -1, p)
        kernel = _left_coords(A, exc.kernel, [x * inv % p for x in xi_pows])
        raise ZeroDivisorError(str(exc), kernel=kernel) from None
    return A.element(_left_coords(A, b, xi_pows))


def _left_coords(A, b, xi_pows):
    """The F-coordinates of x = sum_l X^l b_l = sum_l sigma^l(b_l) X^l, one
    pass over each b_l: the coefficient of u^(q*e + i) in b_l, times the
    constant xi^(l*i) of sigma^l, is that of t^e in the coordinate of
    u^i X^l, known below t^ceil((P - i)/q) when b_l is known below u^P (as
    ``kummer._from_u_series`` splits it)."""
    F, q, p = A.F, A.q, A.F.coeff.p
    coords = []
    for l, s in enumerate(b):
        scale = [xi_pows[l * i % q] for i in range(q)]
        split = [{} for _ in range(q)]
        for e, c in s.terms.items():
            e, i = divmod(e, q)
            split[i][e] = c * scale[i] % p
        P = s.precision
        coords += [_stored(F, terms, 1, None if P is None else -((i - P) // q))
                   for i, terms in enumerate(split)]
    return coords


def zero_divisor_witness(algebra, beta):
    """(X - beta, sum_i beta^{q-1-i} X^i): a zero-divisor pair when alpha = beta^q.

    beta is central (it lies in F), so X^q - beta^q factors as stated.
    """
    A, F, q = algebra, algebra.F, algebra.q
    if not F.eq(F.pow(beta, q), A.alpha):
        raise CycdivError("beta^q != alpha: no factorization witness")
    left = A.X - A.from_base(beta)
    coords = [F.zero] * A.n
    for i in range(q):
        coords[A.basis_index(0, i)] = F.pow(beta, q - 1 - i)
    right = A.element(coords)
    product = relation_mul(left, right)
    if not product.is_known_zero():
        raise CycdivError("witness product is nonzero: internal error")
    return left, right

