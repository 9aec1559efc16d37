"""Finite-dimensional algebras over a coefficient domain, and their elements.

An algebra of dimension n over F fixes a basis with printable labels, the
first of which is the identity; an element is its sequence of coordinates
in that basis: a tuple, or the ``flat._FlatVector`` that a structure-constant
product returns, which builds a coordinate only when it is read and answers
the zero test and ``==`` from its flat form.  The linear part (addition,
negation, subtraction, scaling, the zero test, printing) is the same for
every algebra and lives here, in the one element type.  Each algebra
supplies only its product, ``mul``.
"""

from dataclasses import dataclass

from .errors import CycdivError, DomainMismatchError
from .flat import _FlatVector
from .series import SeriesDomain


def monomial_label(*powers):
    """The label of a basis monomial from (variable, exponent) pairs:
    ("u", 2), ("X", 1) gives "u^2*X"; all exponents 0 give "1"."""
    parts = [var if k == 1 else f"{var}^{k}" for var, k in powers if k]
    return "*".join(parts) or "1"


@dataclass(frozen=True)
class Element:
    """An element of a finite algebra, by its coordinates over the base field."""

    algebra: "FiniteAlgebra"
    coords: tuple  # or a _FlatVector

    def __post_init__(self):
        if len(self.coords) != self.algebra.n:
            raise CycdivError(f"expected {self.algebra.n} coordinates")

    @property
    def context(self):
        """The algebra; for an element of a Kummer field K, the KummerContext."""
        return self.algebra

    def _check(self, other):
        if not isinstance(other, Element) or (other.algebra is not self.algebra
                                              and other.algebra != self.algebra):
            raise DomainMismatchError("elements of different algebras")

    def __add__(self, other):
        self._check(other)
        F = self.algebra.F
        return self.algebra.element(F.add(a, b) for a, b in zip(self.coords, other.coords))

    def __neg__(self):
        F = self.algebra.F
        return self.algebra.element(F.neg(a) for a in self.coords)

    def __sub__(self, other):
        self._check(other)
        F = self.algebra.F
        return self.algebra.element(F.sub(a, b) for a, b in zip(self.coords, other.coords))

    def __mul__(self, other):
        return self.algebra.mul(self, other)

    def scale(self, f):
        F = self.algebra.F
        return self.algebra.element(F.mul(f, c) for c in self.coords)

    def is_known_zero(self):
        if isinstance(self.coords, _FlatVector):
            return self.coords.is_zero()
        F = self.algebra.F
        return all(F.is_known_zero(c) for c in self.coords)

    def __repr__(self):
        F = self.algebra.F
        parts = []
        for c, lab in zip(self.coords, self.algebra.labels):
            if F.is_known_zero(c):
                continue
            cs = f"({F.to_str(c)})" if isinstance(F, SeriesDomain) else F.to_str(c)
            parts.append(cs if lab == "1" else (lab if cs == "1" else f"{cs}*{lab}"))
        return " + ".join(parts) if parts else "0"


class FiniteAlgebra:
    """An algebra over F with the given basis labels; subclasses define
    ``mul(a, b)``, which checks its operands and returns an element."""

    element_type = Element

    def __init__(self, F, labels):
        self.F = F
        self.labels = list(labels)
        self.n = len(self.labels)

    def element(self, coords):
        """The element with these coordinates; a ``_FlatVector`` is kept as it
        is, any other iterable becomes a tuple."""
        if not isinstance(coords, _FlatVector):
            coords = tuple(coords)
        return self.element_type(self, coords)

    def basis(self, k):
        coords = [self.F.zero] * self.n
        coords[k] = self.F.one
        return self.element(coords)

    def from_base(self, f):
        """Embed f in F as f times the identity."""
        coords = [self.F.zero] * self.n
        coords[0] = f
        return self.element(coords)

    @property
    def one(self):
        return self.basis(0)

    def drawer(self, rng, **opts):
        """A function of no arguments that draws one element, its
        coordinates in turn from one drawer of F."""
        coord, n, element = self.F.drawer(rng, **opts), self.n, self.element
        return lambda: element([coord() for _ in range(n)])

    def random_element(self, rng, **opts):
        """One draw of :meth:`drawer`."""
        return self.drawer(rng, **opts)()
