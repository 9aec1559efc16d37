"""Cyclic algebras D = (K/F, sigma_0, alpha) and their certification.

The basis is (u^i X^j) for 0 <= i, j < q, ordered with i fastest, so the
coordinate index of u^i X^j is i + q*j.  Multiplication is driven by the
rewriting rules X^q = alpha and X*b = sigma_0(b)*X; the equivalent
structure-constant bilinear product is extracted from them and can be
serialized to JSON.
"""

import json
from dataclasses import dataclass

from .basefields import PrimeField, RationalField
from .errors import CycdivError, DomainMismatchError
from .kummer import KummerContext, is_norm
from .linalg import kernel_vector, solve_linear
from .series import SeriesDomain


class CyclicAlgebra:
    """(K/F, sigma_0, alpha) of dimension q^2 over F."""

    def __init__(self, kummer, alpha):
        if not isinstance(kummer, KummerContext):
            raise TypeError("kummer must be a KummerContext")
        if kummer.F.is_known_zero(alpha):
            raise CycdivError("alpha must be nonzero")
        self.kummer = kummer
        self.q = kummer.q
        self.n = kummer.q ** 2
        self.F = kummer.F
        self.alpha = alpha

    def __eq__(self, other):
        return (isinstance(other, CyclicAlgebra) and other.kummer == self.kummer
                and self.F.eq(other.alpha, self.alpha))

    def __repr__(self):
        return f"CyclicAlgebra(q={self.q}, F={self.F!r})"

    def basis_index(self, i, j):
        return i + self.q * j

    def basis_labels(self):
        labels = []
        for j in range(self.q):
            for i in range(self.q):
                lab = "1"
                if i:
                    lab = "u" if i == 1 else f"u^{i}"
                if j:
                    xl = "X" if j == 1 else f"X^{j}"
                    lab = xl if lab == "1" else f"{lab}*{xl}"
                labels.append(lab)
        # reorder to index = i + q*j
        out = [None] * self.n
        for j in range(self.q):
            for i in range(self.q):
                out[self.basis_index(i, j)] = labels[j * self.q + i]
        return out

    def element(self, coords):
        return AlgebraElement(self, tuple(coords))

    def from_base(self, f):
        coords = [self.F.zero] * self.n
        coords[0] = f
        return self.element(coords)

    def from_kummer(self, a):
        """Embed K = F(u) as the X^0 slice."""
        coords = [self.F.zero] * self.n
        for i, b in enumerate(a.coords):
            coords[self.basis_index(i, 0)] = b
        return self.element(coords)

    @property
    def one(self):
        return self.from_base(self.F.one)

    @property
    def u(self):
        coords = [self.F.zero] * self.n
        coords[self.basis_index(1, 0)] = self.F.one
        return self.element(coords)

    @property
    def X(self):
        coords = [self.F.zero] * self.n
        coords[self.basis_index(0, 1)] = self.F.one
        return self.element(coords)

    def random_element(self, rng, **opts):
        return self.element([self.F.random_element(rng, **opts) for _ in range(self.n)])


@dataclass(frozen=True)
class AlgebraElement:
    algebra: CyclicAlgebra
    coords: tuple

    def __post_init__(self):
        if len(self.coords) != self.algebra.n:
            raise CycdivError(f"expected {self.algebra.n} coordinates")

    def _check(self, other):
        if not isinstance(other, AlgebraElement) or other.algebra != self.algebra:
            raise DomainMismatchError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        F = self.algebra.F
        return AlgebraElement(self.algebra,
                              tuple(F.add(a, b) for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        F = self.algebra.F
        return AlgebraElement(self.algebra, tuple(F.neg(a) for a in self.coords))

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        return relation_mul(self, other)

    def scale(self, f):
        F = self.algebra.F
        return AlgebraElement(self.algebra, tuple(F.mul(f, c) for c in self.coords))

    def is_known_zero(self):
        F = self.algebra.F
        return all(F.is_known_zero(c) for c in self.coords)

    def __repr__(self):
        F = self.algebra.F
        labels = self.algebra.basis_labels()
        parts = []
        for c, lab in zip(self.coords, labels):
            if F.is_known_zero(c):
                continue
            cs = F.to_str(c) if not isinstance(F, SeriesDomain) else f"({F.to_str(c)})"
            parts.append(cs if lab == "1" else (lab if cs == "1" else f"{cs}*{lab}"))
        return " + ".join(parts) if parts else "0"


def relation_mul(d, e):
    """Product via (u^i X^j)(u^k X^l) = xi^{jk} u^{i+k} X^{j+l}, u^q -> t, X^q -> alpha."""
    d._check(e)
    A = d.algebra
    F, q, ctx = A.F, A.q, A.kummer
    out = [F.zero] * A.n
    for j in range(q):
        for i in range(q):
            a = d.coords[A.basis_index(i, j)]
            if F.is_known_zero(a):
                continue
            for l in range(q):
                for k in range(q):
                    b = e.coords[A.basis_index(k, l)]
                    if F.is_known_zero(b):
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
    return AlgebraElement(A, tuple(out))


@dataclass
class StructureConstants:
    """The n matrices M_k with (M_k)_{ij} the c_k-coefficient of c_i * c_j."""

    n: int
    labels: list
    matrices: list  # matrices[k][i][j] over F
    field_descriptor: str = ""

    def __post_init__(self):
        self._sparse = None

    def sparse(self, F):
        """(i, j) -> [(k, lam, sign)] over the nonzero entries, where sign is
        1 or -1 when lam is exactly F.one or -F.one and 0 otherwise."""
        if self._sparse is None:
            minus_one = F.neg(F.one)
            table = {}
            for k, mat in enumerate(self.matrices):
                for i, row in enumerate(mat):
                    for j, lam in enumerate(row):
                        if not F.is_known_zero(lam):
                            sign = (1 if _is_exactly(F, lam, F.one)
                                    else -1 if _is_exactly(F, lam, minus_one) else 0)
                            table.setdefault((i, j), []).append((k, lam, sign))
            self._sparse = table
        return self._sparse


def _is_exactly(F, a, b):
    """Whether a and b are the same element of F with nothing truncated: at
    each level of a series tower both are EXACT with the same support."""
    if isinstance(F, SeriesDomain):
        return (a.precision is None and b.precision is None
                and a.coeffs.keys() == b.coeffs.keys()
                and all(_is_exactly(F.coeff, c, b.coeffs[e]) for e, c in a.coeffs.items()))
    return isinstance(F, (PrimeField, RationalField)) and F.eq(a, b)


def structure_constants(algebra):
    """Extract the M_k from relation products of all basis pairs."""
    n, F = algebra.n, algebra.F
    matrices = [[[F.zero] * n for _ in range(n)] for _ in range(n)]
    basis = []
    for idx in range(n):
        coords = [F.zero] * n
        coords[idx] = F.one
        basis.append(algebra.element(coords))
    for i in range(n):
        for j in range(n):
            prod = relation_mul(basis[i], basis[j])
            for k, lam in enumerate(prod.coords):
                matrices[k][i][j] = lam
    return StructureConstants(n, algebra.basis_labels(), matrices,
                              field_descriptor=repr(F))


def constants_mul(a, b, constants, F):
    """Bilinear product (a M_1 b^T, ..., a M_n b^T) from structure constants."""
    n = constants.n
    if len(a) != n or len(b) != n:
        raise CycdivError("coordinate length mismatch with the structure constants")
    out = [F.zero] * n
    table = constants.sparse(F)
    for i, ai in enumerate(a):
        if F.is_known_zero(ai):
            continue
        for j, bj in enumerate(b):
            if F.is_known_zero(bj):
                continue
            entries = table.get((i, j))
            if not entries:
                continue
            p = F.mul(ai, bj)
            for k, lam, sign in entries:
                if sign > 0:
                    out[k] = F.add(out[k], p)
                elif sign < 0:
                    out[k] = F.sub(out[k], p)
                else:
                    out[k] = F.add(out[k], F.mul(p, lam))
    return out


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
    matrices = [[[F.parse(s) for s in row] for row in mat] for mat in data["matrices"]]
    return StructureConstants(data["n"], data["basis"], matrices,
                              field_descriptor=data.get("field", ""))


def is_division(algebra, target_precision=None):
    """Division certification: D is a division algebra iff alpha is not a norm from K."""
    decision = is_norm(algebra.kummer, algebra.alpha, target_precision)
    return (not decision.is_norm), decision


def left_mul_matrix(d):
    """Matrix of x -> d*x in the fixed basis (columns are d * e_j)."""
    A = d.algebra
    n, F = A.n, A.F
    cols = []
    for j in range(n):
        coords = [F.zero] * n
        coords[j] = F.one
        cols.append(relation_mul(d, A.element(coords)).coords)
    return [[cols[j][i] for j in range(n)] for i in range(n)]


def invert(d, target_precision=None):
    """Two-sided inverse by solving d*x = 1; raises ZeroDivisorError with a
    kernel vector when d is a (left) zero divisor."""
    A = d.algebra
    if d.is_known_zero():
        raise ZeroDivisionError("inverse of the zero algebra element")
    F = A.F
    M = left_mul_matrix(d)
    rhs = A.one.coords
    x = solve_linear(F, M, list(rhs), precision=target_precision)
    return A.element(x)


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


def left_kernel_witness(d):
    """A nonzero d' with d*d' = 0, from the kernel of left multiplication."""
    A = d.algebra
    kern = kernel_vector(A.F, left_mul_matrix(d))
    if kern is None:
        raise CycdivError("left multiplication by d is injective")
    return A.element(kern)
