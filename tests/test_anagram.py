import math
from collections import Counter
from itertools import permutations

import pytest
from hypothesis import given, settings, strategies as st

from cycdiv import (all_classes, c0_classes, class_of, tilde_sigma,
                    verify_level_count_laws)
from cycdiv.anagram import SUPPORTED_Q, norm_terms
from cycdiv.errors import CycdivError


def multiplicative_reindex(q, d, nu):
    """d^{sigma_nu}: position i reads d at position nu*i (mod q)."""
    assert nu % q, "nu must be a unit mod a prime q"
    return tuple(d[(nu * i) % q] for i in range(q))


def cyclic_shift(d):
    """(d_1, ..., d_{q-1}, d_0)."""
    return d[1:] + d[:1]


def brute_level_counts(q, rep):
    counts = Counter()
    for d in set(permutations(rep)):
        counts[tilde_sigma(q, d)] += 1
    return tuple(counts[lam] for lam in range(q))


def test_tilde_sigma():
    assert tilde_sigma(3, (2, 1, 0)) == 1  # 0*2 + 1*1 + 2*0
    assert tilde_sigma(3, (0, 1, 2)) == 2  # 1 + 4 = 5 = 2 mod 3
    with pytest.raises(CycdivError):
        tilde_sigma(3, (0, 1))
    with pytest.raises(CycdivError):
        tilde_sigma(3, (0, 1, 3))


def test_class_of_q3():
    cls = class_of(3, (2, 1, 0))
    assert cls.canonical_rep == (0, 1, 2)
    assert cls.multiplicities == (1, 1, 1)
    assert cls.class_size == 6
    assert cls.level_counts == (0, 3, 3)
    assert cls.coefficient_f() == -3
    assert cls.coefficient_f(with_class_size_factor=True) == -18


def test_class_of_constant():
    cls = class_of(3, (1, 1, 1))
    assert cls.class_size == 1
    assert cls.level_counts == (1, 0, 0)
    assert cls.coefficient_f() == 1


def test_class_of_q2():
    assert class_of(2, (1, 1)).level_counts == (0, 1)
    assert class_of(2, (1, 1)).coefficient_f() == -1
    assert class_of(2, (0, 0)).coefficient_f() == 1


def per_class_level_counts(q, rep):
    """The level counts by a dynamic program over the sub-multisets of one
    class, with a memo of its own: the reference for the shared memo."""
    values = sorted(set(rep))
    full = tuple(rep.count(v) for v in values)
    memo = {}

    def g(counts):
        cached = memo.get(counts)
        if cached is not None:
            return cached
        total = sum(counts)
        if total == 0:
            result = (1,) + (0,) * (q - 1)
        else:
            pos = q - total
            acc = [0] * q
            for i, c in enumerate(counts):
                if c:
                    sub = g(counts[:i] + (c - 1,) + counts[i + 1:])
                    shift = (pos * values[i]) % q
                    for lam in range(q):
                        acc[(lam + shift) % q] += sub[lam]
            result = tuple(acc)
        memo[counts] = result
        return result

    return g(full)


@pytest.mark.parametrize("q", [2, 3, 5])
def test_level_counts_match_brute_force(q):
    for cls in all_classes(q):
        assert cls.level_counts == brute_level_counts(q, cls.canonical_rep)


def test_level_counts_match_per_class_dp_at_q7():
    classes = all_classes(7)
    assert len(classes) == 1716
    for cls in classes:
        assert cls.level_counts == per_class_level_counts(7, cls.canonical_rep)


def test_all_classes_returns_a_fresh_list():
    first = all_classes(3)
    first.clear()
    second = all_classes(3)
    assert len(second) == 10 and second is not all_classes(3)
    second[0] = None
    assert all_classes(3)[0] == class_of(3, (0, 0, 0))


@pytest.mark.parametrize("q", SUPPORTED_Q)
@pytest.mark.parametrize("weighted", [False, True])
def test_norm_terms_follow_c0_classes(q, weighted):
    assert norm_terms(q, weighted) == tuple(
        (c.coefficient_f(weighted), c.canonical_rep, c.coordinate_sum // q)
        for c in c0_classes(q))


def test_class_counts():
    # classes = multisets of size q over q symbols: C(2q-1, q)
    for q in SUPPORTED_Q:
        assert len(all_classes(q)) == math.comb(2 * q - 1, q)


def test_total_class_sizes_cover_fqq():
    for q in (2, 3, 5):
        assert sum(c.class_size for c in all_classes(q)) == q ** q


def test_c0_classes_q3():
    reps = {c.canonical_rep for c in c0_classes(3)}
    assert reps == {(0, 0, 0), (1, 1, 1), (2, 2, 2), (0, 1, 2)}
    assert all(c.coefficient_f() != 0 for c in c0_classes(3))


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_f_nonzero_on_c0(q):
    for c in c0_classes(q):
        assert c.coefficient_f() != 0


@pytest.mark.parametrize("q", SUPPORTED_Q)
def test_level_count_laws(q):
    results = verify_level_count_laws(q)
    assert all(r["passed"] for r in results)


def test_printed_divisibility_has_counterexamples():
    # the stronger claim q(q-1) | N_0 fails exactly on some repeated-entry
    # zero-sum classes; the smallest is q = 5, rep (0,0,1,1,3) with N_0 = 10
    cls = class_of(5, (0, 0, 1, 1, 3))
    assert cls.sum_is_zero_mod_q
    assert cls.level_counts == (10, 5, 5, 5, 5)
    assert cls.level_counts[0] % 5 == 0
    assert cls.level_counts[0] % 20 != 0
    results = verify_level_count_laws(5)
    flagged = [r for r in results
               if r["info"] and not r["info"]["q(q-1)-divides-N0 (info)"]]
    assert len(flagged) == 10


def test_unsupported_q_rejected():
    with pytest.raises(CycdivError):
        all_classes(11)


def test_orbit_actions():
    q = 5
    d = (0, 1, 1, 2, 1)
    # multiplicative reindexing moves level lam to nu^{-1} lam
    for nu in range(1, q):
        moved = multiplicative_reindex(q, d, nu)
        assert sorted(moved) == sorted(d)
        assert tilde_sigma(q, moved) == (pow(nu, q - 2, q) * tilde_sigma(q, d)) % q
    # cyclic shift changes tilde_sigma by -sum(d)
    assert tilde_sigma(q, cyclic_shift(d)) == (tilde_sigma(q, d) - sum(d)) % q


@given(st.integers(min_value=0, max_value=4), st.data())
@settings(max_examples=40)
def test_shift_action_property(seed, data):
    q = 5
    d = tuple(data.draw(st.integers(min_value=0, max_value=q - 1)) for _ in range(q))
    assert tilde_sigma(q, cyclic_shift(d)) == (tilde_sigma(q, d) - sum(d)) % q
