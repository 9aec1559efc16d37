"""Seeded draws consume the generator exactly as ``randint``/``randrange`` do.

The library draws its random elements from ``rng._randbelow`` and builds
the stored form directly.  The reference below is the earlier draw code,
which went through ``randint``/``randrange``, ``Fraction`` and
``Series(...)``; both run from equal-seeded generators and must give the
same stored forms and leave the generators in the same state.

This module imports no pytest, so it also runs on interpreters without it:

    PYTHONPATH=src python tests/test_draws.py
"""

import functools
import random
from fractions import Fraction

from cycdiv import (QQ, CyclicAlgebra, KummerContext, PrimeField, QuadraticExtension,
                    RationalField, Series, SeriesDomain, albert_setup, hahn_tower_context,
                    hamilton_algebra, laurent, laurent_context, nonsquare_witness)
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
    and the same generator state afterwards, as the reference; both one
    ``random_element`` call per element and one drawer for the whole loop."""
    for seed, (name, domain) in enumerate(_domains()):
        for opts in _option_sets(domain):
            for per_loop in (False, True):
                ours, ref = random.Random(seed), random.Random(seed)
                if per_loop:
                    draw = domain.drawer(ours, **opts)
                    assert ours.getstate() == ref.getstate(), (name, opts)
                else:
                    draw = functools.partial(domain.random_element, ours, **opts)
                for _ in range(draws):
                    got, want = draw(), _reference(domain, ref, **opts)
                    assert _form(got) == _form(want), (name, opts, per_loop, got, want)
                assert ours.getstate() == ref.getstate(), (name, opts, per_loop)


def check_interleaved_drawers(draws=30):
    """Two drawers on one generator, with other draws between theirs (as the
    claims' loops make them), follow the reference stream."""
    _, QXY, _, _, _ = albert_setup(precision=20)
    kummer = laurent_context(11, 5, precision=30)
    a_opts, b_opts = {"n_terms": 2, "exp_lo": -2, "exp_hi": 3}, {"unit": True}
    for seed in range(4):
        ours, ref = random.Random(seed), random.Random(seed)
        draw_a, draw_b = QXY.drawer(ours, **a_opts), kummer.drawer(ours, **b_opts)
        for _ in range(draws):
            got = [draw_a() for _ in range(ours.randint(1, 4))] + [draw_b()]
            want = [_reference(QXY, ref, **a_opts) for _ in range(ref.randint(1, 4))]
            want.append(_reference(kummer, ref, **b_opts))
            assert _form(got) == _form(want), (seed, got, want)
        assert ours.getstate() == ref.getstate(), seed


class _OnesQ(RationalField):
    """Q whose draws are all 1 and use no randomness."""

    def random_element(self, rng, **opts):
        return Fraction(1)


class _SevensF(PrimeField):
    """F_11 whose units are drawn from a ``randint(1, 7)``."""

    def random_element(self, rng, nonzero=False):
        return rng.randint(1, 7)


def check_overrides_are_drawn():
    """A domain that overrides ``random_element`` is drawn through the
    override, alone, as a tower's coefficient field, as the base of a
    quadratic extension and as the field of an algebra."""
    ones, sevens = _OnesQ(), _SevensF(11)
    for seed in range(6):
        rng = random.Random(seed)
        state = rng.getstate()
        assert ones.drawer(rng, n_terms=2, exp_lo=-2, exp_hi=4)() == Fraction(1)
        assert QuadraticExtension(ones, Fraction(2)).drawer(rng)() == (1, 1)
        assert CyclicAlgebra(KummerContext(ones, 2, Fraction(-1), Fraction(-1)),
                             Fraction(-1)).drawer(rng)().coords == (1,) * 4
        assert rng.getstate() == state  # nothing drawn
        s = laurent(ones, "X").drawer(rng, n_terms=4, nonzero=True)()
        assert s.den == 1 and set(s.terms.values()) == {1}
        t = laurent(sevens, "t").drawer(rng, n_terms=12, nonzero=True)()
        assert set(t.terms.values()) <= set(range(1, 8))
        assert len(laurent(laurent(ones, "X"), "Y").drawer(rng, nonzero=True)().terms) >= 1


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
                # a drawer raises when it is called, not when it is built
                ours = _Guarded(seed)
                draw = domain.drawer(ours, **opts)
                assert ours.getstate() == _Guarded(seed).getstate(), (domain, opts, seed)
                assert _outcome(lambda rng: draw(), ours) == want, (domain, opts, seed)
                assert ours.getstate() == ref.getstate(), (domain, opts, seed)
    # with no term to draw, an empty range raises before any draw
    for domain in (F7, QXY):
        for opts in always[2:]:
            rng = _Guarded(0)
            draw = domain.drawer(rng, **opts)
            try:
                draw()
            except ValueError:
                pass
            else:
                raise AssertionError(f"{opts}: no ValueError")
            assert rng.getstate() == _Guarded(0).getstate(), opts


def test_draws_match_the_reference_stream():
    check_rng_streams()


def test_interleaved_drawers_match_the_reference_stream():
    check_interleaved_drawers()


def test_overrides_are_drawn():
    check_overrides_are_drawn()


def test_empty_ranges_raise_value_error():
    check_empty_ranges()


if __name__ == "__main__":
    import sys
    check_rng_streams()
    check_interleaved_drawers()
    check_overrides_are_drawn()
    check_empty_ranges()
    print(f"seeded draws match the reference under Python {sys.version.split()[0]}")
