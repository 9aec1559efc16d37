"""Anagram classes of F_q^q and the combinatorial norm coefficients.

An anagram class is the orbit of a q-tuple over {0,...,q-1} under
permutation of positions.  For each level lam in F_q the class splits by
the linear form tilde_sigma(d) = sum_i i*d_i (mod q); the level counts
N_lam drive the closed norm formula of the Kummer norm module.
"""

import functools
import itertools
import math
from dataclasses import dataclass

from .errors import CycdivError

SUPPORTED_Q = (2, 3, 5, 7)


def tilde_sigma(q, d):
    """sum_i i*d_i mod q for a q-tuple d over {0,...,q-1}."""
    _check_tuple(q, d)
    return sum(i * c for i, c in enumerate(d)) % q


def _check_tuple(q, d):
    if len(d) != q:
        raise CycdivError(f"expected a {q}-tuple, got length {len(d)}")
    if any(not (0 <= c < q) for c in d):
        raise CycdivError(f"entries must lie in 0..{q - 1}")


@dataclass(frozen=True)
class AnagramClass:
    """One orbit of F_q^q under position permutation, with its level data."""

    q: int
    canonical_rep: tuple  # ascending multiset representative
    multiplicities: tuple  # l_1, ..., l_k of the distinct entries
    class_size: int  # q! / (l_1! ... l_k!)
    level_counts: tuple  # N_lam for lam = 0, ..., q-1

    @property
    def coordinate_sum(self):
        return sum(self.canonical_rep)

    @property
    def sum_is_zero_mod_q(self):
        return self.coordinate_sum % self.q == 0

    @property
    def is_constant(self):
        return len(self.multiplicities) == 1

    def coefficient_f(self, with_class_size_factor=False):
        """N_0 - N_1, optionally times |An(c)| (see c0_classes docs)."""
        base = self.level_counts[0] - self.level_counts[1]
        return base * self.class_size if with_class_size_factor else base


@functools.cache
def _level_counts(q, rest):
    """Level counts of the anagrams of the sorted multiset ``rest``, placed
    on the last ``len(rest)`` of the q positions.

    Entry lam counts the distinct arrangements whose weighted sum
    sum_i i*d_i over those positions is lam mod q.  The recursion places
    each distinct value at the first free position q - len(rest).  Memo
    keys are (q, remaining sorted multiset), so every class of one q reads
    the counts of the sub-multisets the others already computed.
    """
    if not rest:
        return (1,) + (0,) * (q - 1)
    pos = q - len(rest)
    acc = [0] * q
    for i, v in enumerate(rest):
        if i and rest[i - 1] == v:
            continue
        sub = _level_counts(q, rest[:i] + rest[i + 1:])
        shift = (pos * v) % q
        for lam in range(q):
            acc[(lam + shift) % q] += sub[lam]
    return tuple(acc)


def class_of(q, d):
    """The fully populated anagram class of a q-tuple (exhaustive counts)."""
    _check_tuple(q, d)
    rep = tuple(sorted(d))
    mults = tuple(rep.count(v) for v in sorted(set(rep)))
    counts = _level_counts(q, rep)
    size = math.factorial(q)
    for l in mults:
        size //= math.factorial(l)
    assert size == sum(counts)
    return AnagramClass(q, rep, mults, size, counts)


def all_classes(q):
    """Every anagram class, by ascending canonical representative.

    The classes of each q are built on first use; every call returns a
    new list of them.
    """
    if q not in SUPPORTED_Q:
        raise CycdivError(f"q must be one of {SUPPORTED_Q} (exhaustive enumeration)")
    return list(_classes(q))


@functools.cache
def _classes(q):
    return tuple(class_of(q, rep)
                 for rep in itertools.combinations_with_replacement(range(q), q))


def c0_classes(q):
    """Classes with coordinate sum = 0 mod q: the survivors of the norm sum."""
    return [c for c in all_classes(q) if c.sum_is_zero_mod_q]


@functools.cache
def norm_terms(q, with_class_size_factor=False):
    """The terms of the closed norm formula: one (f, canonical rep, power of
    t) per class of C_0, in the order of :func:`c0_classes`."""
    return tuple((cls.coefficient_f(with_class_size_factor), cls.canonical_rep,
                  cls.coordinate_sum // q)
                 for cls in c0_classes(q))


def verify_level_count_laws(q):
    """Exhaustively check the level-count symmetries for every class.

    Checked per class: (1) N_lam = N_mu for all nonzero lam, mu; (2) for
    mixed classes, N_0 = N_1 iff the coordinate sum is nonzero mod q;
    (3) mixed classes with zero sum have q | N_0 (the cyclic shift acts
    freely on the level-0 anagrams), mixed classes with nonzero sum have
    N_lam = (q-1)!/(l_1!...l_k!) for every lam.

    The stronger divisibility q(q-1) | N_0 is also reported, under the
    key "q(q-1)-divides-N0 (info)", but is NOT counted in "passed": it
    fails for some zero-sum classes with repeated entries (smallest case
    q = 5, rep (0,0,1,1,3), where N_0 = 10), because the multiplicative
    reindexing action on level-0 anagrams has fixed points.
    Returns a list of per-class result dicts.
    """
    results = []
    for cls in all_classes(q):
        n = cls.level_counts
        checks = {"nonzero-levels-equal": n[2:] == n[1:2] * (q - 2),
                  "total": sum(n) == cls.class_size}
        info = {}
        if not cls.is_constant:
            if cls.sum_is_zero_mod_q:
                checks["levels-split"] = n[0] != n[1]
                checks["q-divides-N0"] = n[0] % q == 0
                info = {"q(q-1)-divides-N0 (info)": n[0] % (q * (q - 1)) == 0}
            else:
                checks["levels-flat"] = n[0] == n[1]
                expected = math.factorial(q - 1)
                for l in cls.multiplicities:
                    expected //= math.factorial(l)
                checks["remark-count"] = n == (expected,) * q
        results.append({"class": cls, "passed": all(checks.values()),
                        "checks": checks, "info": info})
    return results

