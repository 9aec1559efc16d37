"""Seeded draws consume the generator exactly as ``randint``/``randrange`` do.

The library draws its random elements from ``rng._randbelow`` and builds
the stored form directly.  The reference below is the earlier draw code,
which went through ``randint``/``randrange``, ``Fraction`` and
``Series(...)``; both run from equal-seeded generators and must give the
same stored forms and leave the generators in the same state.

This module imports no pytest, so it also runs on interpreters without it:

    PYTHONPATH=src python tests/test_draws.py
"""

import random
from fractions import Fraction

from cycdiv import (QQ, CyclicAlgebra, PrimeField, QuadraticExtension, RationalField, Series,
                    SeriesDomain, albert_setup, hahn_tower_context, hamilton_algebra, laurent,
                    laurent_context, nonsquare_witness)
from cycdiv.series import _norm_exp


# -- the reference: the earlier draw code -------------------------------------

def _ref_field(F, rng, nonzero=False):
    if isinstance(F, PrimeField):
        return rng.randrange(1 if nonzero else 0, F.p)
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 9))
        if not nonzero or a != 0:
            return a


def _ref_series(domain, rng, n_terms=3, exp_lo=-3, exp_hi=8, precision=None,
                nonzero=False, unit=False, **coeff_opts):
    while True:
        coeffs = {}
        k = rng.randint(1 if (nonzero or unit) else 0, n_terms)
        for _ in range(k):
            e = rng.randint(exp_lo, exp_hi)
            if domain.group.p is not None and rng.random() < 0.4:
                e = Fraction(e, domain.group.p ** rng.randint(1, 2))
            c = _reference(domain.coeff, rng, nonzero=True, **coeff_opts)
            coeffs[_norm_exp(e)] = c
        if unit:
            coeffs = {e: c for e, c in coeffs.items() if e > 0}
            coeffs[0] = _reference(domain.coeff, rng, nonzero=True, **coeff_opts)
        if precision is not None:
            coeffs = {e: c for e, c in coeffs.items() if e < precision}
        if nonzero and not coeffs:
            continue
        return Series(domain, coeffs, precision, _validate=False)


def _reference(domain, rng, **opts):
    """The earlier ``domain.random_element(rng, **opts)``."""
    if isinstance(domain, (PrimeField, RationalField)):
        return _ref_field(domain, rng, **opts)
    if isinstance(domain, SeriesDomain):
        return _ref_series(domain, rng, **opts)
    if isinstance(domain, QuadraticExtension):
        return (_reference(domain.base, rng, **opts), _reference(domain.base, rng, **opts))
    # a finite algebra: one draw from F per coordinate
    return domain.element([_reference(domain.F, rng, **opts) for _ in range(domain.n)])


def _form(x):
    """The stored form, recursively: terms in insertion order, den, precision,
    and the type of every exponent and coefficient."""
    if isinstance(x, Series):
        return [(_form(e), _form(c)) for e, c in x.terms.items()], x.den, x.precision
    if isinstance(x, tuple):
        return tuple(_form(c) for c in x)
    if hasattr(x, "coords"):
        return [_form(c) for c in x.coords]
    return type(x), x


# -- the domains and option sets the claims draw from -------------------------

def _domains():
    F7, F11 = laurent(PrimeField(7)), laurent(PrimeField(11))
    _, QXY, _, _, _ = albert_setup(precision=20)
    witness, _ = nonsquare_witness(QXY.coeff)
    K = QuadraticExtension(QXY, QXY.constant(witness))
    hahn_ctx = hahn_tower_context(7, 3, precision=4)
    kummer = laurent_context(7, 3, precision=20)
    return [
        ("F_2", PrimeField(2)), ("F_7", PrimeField(7)), ("Q", QQ),
        ("F_7((t))", F7), ("F_11((t))", F11), ("Q((X))", laurent(QQ, "X")),
        ("Q((X))((Y))", QXY), ("hahn tower", hahn_ctx.F),
        ("Q((X))((Y))(sqrt)", K), ("hamilton", hamilton_algebra()),
        ("kummer F_7", kummer), ("kummer F_11", laurent_context(11, 5, precision=30)),
        ("cyclic F_7", CyclicAlgebra(kummer, kummer.F.from_int(2))),
        ("hahn cyclic", CyclicAlgebra(hahn_ctx, hahn_ctx.F.variable)),
    ]


_SERIES_OPTS = [
    {}, {"nonzero": True}, {"unit": True}, {"precision": 2}, {"precision": 5, "nonzero": True},
    {"precision": 0, "unit": True}, {"n_terms": 0}, {"n_terms": 5, "exp_lo": -6, "exp_hi": 6},
    # the option sets the claims and the benchmark pass
    {"n_terms": 3, "exp_lo": -3, "exp_hi": 8, "precision": 30},
    {"n_terms": 2, "exp_lo": -5, "exp_hi": 5},
    {"n_terms": 2, "exp_lo": 0, "exp_hi": 6, "unit": True},
    {"n_terms": 1, "exp_lo": -2, "exp_hi": 4}, {"n_terms": 1, "exp_lo": 0, "exp_hi": 3},
    {"n_terms": 1, "exp_lo": 0, "exp_hi": 2}, {"n_terms": 2, "exp_lo": -2, "exp_hi": 4},
    {"n_terms": 2, "exp_lo": -2, "exp_hi": 3}, {"n_terms": 1, "exp_lo": -1, "exp_hi": 2},
    {"n_terms": 2, "exp_lo": 1, "exp_hi": 4, "nonzero": True},
]


def _option_sets(domain):
    field = getattr(domain, "F", domain)  # the coordinates' field of an algebra
    if isinstance(field, (PrimeField, RationalField)):
        return [{}, {"nonzero": True}]
    return _SERIES_OPTS


def check_rng_streams(draws=40):
    """Every domain and option set: the same stored forms, in the same order,
    and the same generator state afterwards, as the reference."""
    for seed, (name, domain) in enumerate(_domains()):
        for opts in _option_sets(domain):
            ours, ref = random.Random(seed), random.Random(seed)
            for _ in range(draws):
                got, want = domain.random_element(ours, **opts), _reference(domain, ref, **opts)
                assert _form(got) == _form(want), (name, opts, got, want)
            assert ours.getstate() == ref.getstate(), (name, opts)


class _Guarded(random.Random):
    """A generator that fails, instead of looping forever, on an empty range."""

    def _randbelow(self, n):
        assert n > 0, f"_randbelow({n})"
        return super()._randbelow(n)


def _outcome(draw, rng):
    try:
        return _form(draw(rng))
    except ValueError:
        return ValueError


def check_empty_ranges(seeds=12):
    """An empty range of term counts or exponents raises ValueError where the
    reference does, with the same generator state, and never asks
    ``_randbelow`` for an empty range."""
    F7 = laurent(PrimeField(7))
    _, QXY, _, _, _ = albert_setup(precision=20)
    always = [{"exp_lo": 3, "exp_hi": 2, "nonzero": True},
              {"exp_lo": 0, "exp_hi": -5, "unit": True},
              {"n_terms": 0, "nonzero": True}, {"n_terms": 0, "unit": True},
              {"n_terms": -1}, {"n_terms": -3, "exp_lo": 3, "exp_hi": 2}]
    sometimes = [{"exp_lo": 3, "exp_hi": 2}, {"n_terms": 0, "exp_lo": 3, "exp_hi": 2}]
    for domain in (F7, QXY):
        for opts in always + sometimes:
            for seed in range(seeds):
                ours, ref = _Guarded(seed), _Guarded(seed)
                got = _outcome(lambda rng: domain.random_element(rng, **opts), ours)
                want = _outcome(lambda rng: _reference(domain, rng, **opts), ref)
                assert got == want, (domain, opts, seed, got, want)
                assert got is ValueError or opts in sometimes, (domain, opts, seed)
                assert ours.getstate() == ref.getstate(), (domain, opts, seed)


def test_draws_match_the_reference_stream():
    check_rng_streams()


def test_empty_ranges_raise_value_error():
    check_empty_ranges()


if __name__ == "__main__":
    import sys
    check_rng_streams()
    check_empty_ranges()
    print(f"seeded draws match the reference under Python {sys.version.split()[0]}")
