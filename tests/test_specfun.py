"""Tests for the special-function kernel.

The reference values here come from an independent evaluation route:
Miller's backward recurrence (normalized through the even-order closure
J_0 + 2 sum J_2k = 1) for general order, and the defining power series for
small argument.  The library itself may use any backend; these tests pin
the numbers, and two infinite Bessel sum rules check bessel_j over whole
order rows.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from artifact.specfun import (
    ZernikeIndex,
    bessel_j,
    zernike_angular,
    zernike_radial,
)

from _oracles import miller_row, series_j


def test_miller_reference_self_consistency():
    # the two independent routes must agree before either is trusted
    for x in (0.3, 1.1, 1.9):
        row = miller_row(x, 8)
        for n in range(9):
            assert abs(row[n] - series_j(n, x)) < 1e-14


# ---------------------------------------------------------------------------
# bessel_j


def test_bessel_examples():
    assert bessel_j(0, 0.0) == 1.0
    assert bessel_j(1, 0.0) == 0.0
    assert abs(bessel_j(1, 3.8317059702)) < 1e-9


def test_first_j1_zero_by_bisection_on_series():
    lo, hi = 3.0, 4.5
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if series_j(1, lo) * series_j(1, mid) <= 0:
            hi = mid
        else:
            lo = mid
    root = 0.5 * (lo + hi)
    assert abs(root - 3.8317059702075123) < 1e-12
    assert abs(bessel_j(1, root)) < 1e-13


@pytest.mark.parametrize("x", [0.05, 0.7, 2.3, 9.4, 37.0, 100.0])
def test_bessel_against_miller(x):
    row = miller_row(x, 600)
    got = bessel_j(np.arange(601), x)
    assert np.max(np.abs(got - row)) < 1e-12


def test_bessel_vectorized_orders_and_args():
    n = np.array([0, 1, 2])
    x = np.array([0.5, 1.5, 2.5])
    out = bessel_j(n[:, None], x[None, :])
    assert out.shape == (3, 3)
    assert_allclose(out[1, 2], bessel_j(1, 2.5), rtol=1e-15)


def test_bessel_domain_errors():
    with pytest.raises(ValueError):
        bessel_j(0, -0.5)
    with pytest.raises(ValueError):
        bessel_j(0, np.nan)
    with pytest.raises(ValueError):
        bessel_j(651, 1.0)
    with pytest.raises(ValueError):
        bessel_j(-651, 1.0)
    with pytest.raises(ValueError):
        bessel_j(0.5, 1.0)


@given(
    n=st.integers(min_value=0, max_value=10),
    x=st.floats(min_value=0.0, max_value=50.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_reflection_identity(n, x):
    assert abs(bessel_j(-n, x) - (-1.0) ** n * bessel_j(n, x)) < 1e-12


@given(
    n=st.integers(min_value=1, max_value=100),
    x=st.floats(min_value=1e-3, max_value=50.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_three_term_recurrence(n, x):
    lhs = 2.0 * n * bessel_j(n, x) / x
    j_prev, j_next = bessel_j(n - 1, x), bessel_j(n + 1, x)
    # Near a zero of J_n the sum J_{n-1} + J_{n+1} cancels, and its rounding
    # error (up to 21 ulp of the larger term over 27,644 points at and around
    # the zeros of J_1..J_100 below 50) exceeds rtol of the sum once the sum
    # is below about 1e-5 of that term; n=1, x=3.8317059702075125 gives
    # 1.1e-16 against 2J_1/x = 3.7e-17.  Such points test the cancellation,
    # not bessel_j, and are left out.
    assume(abs(lhs) >= 1e-4 * max(abs(j_prev), abs(j_next)))
    assert_allclose(lhs, j_prev + j_next, rtol=1e-10, atol=1e-280)


@pytest.mark.parametrize("n", [0, 1, 3, 7])
@pytest.mark.parametrize("x", [0.4, 2.2, 11.0, 43.0])
def test_derivative_identity_vs_finite_difference(n, x):
    h = 1e-6
    fd = (bessel_j(n, x + h) - bessel_j(n, x - h)) / (2 * h)
    closed = 0.5 * (bessel_j(abs(n - 1), x) * (-1 if n == 0 else 1) - bessel_j(n + 1, x))
    assert abs(fd - closed) < 1e-7


@pytest.mark.parametrize("x", [0.0, 1.3, 8.0, 27.5, 50.0])
def test_squared_sum_closure(x):
    top = int(x) + 50
    s = 2.0 * np.sum(bessel_j(np.arange(top + 1), x) ** 2)
    assert abs(s - (1.0 + bessel_j(0, x) ** 2)) < 1e-10


# ---------------------------------------------------------------------------
# ZernikeIndex


def test_linear_index_examples():
    assert ZernikeIndex(0, 0).linear == 0
    assert ZernikeIndex(1, -1).linear == 1
    assert ZernikeIndex(1, 1).linear == 2
    assert ZernikeIndex(2, 0).linear == 4


@given(k=st.integers(min_value=0, max_value=5000))
@settings(max_examples=200, deadline=None)
def test_linear_index_bijection(k):
    idx = ZernikeIndex.from_linear(k)
    assert abs(idx.m) <= idx.n
    assert (idx.n - idx.m) % 2 == 0
    assert idx.linear == k


@pytest.mark.parametrize("n,m", [(1, 0), (2, 1), (0, 1), (-1, 1), (3, 4)])
def test_invalid_index_pairs_rejected(n, m):
    with pytest.raises(ValueError):
        ZernikeIndex(n, m)


# ---------------------------------------------------------------------------
# Zernike factors


def test_zernike_radial_examples():
    assert zernike_radial(ZernikeIndex(0, 0), 0.7) == 1.0
    assert_allclose(zernike_radial(ZernikeIndex(1, 1), 1.0), math.sqrt(2.0), rtol=1e-15)
    assert_allclose(zernike_radial(ZernikeIndex(2, 0), 0.0), -math.sqrt(3.0), rtol=1e-15)


def test_zernike_radial_against_direct_sum():
    # independent literal evaluation of the defining sum
    u = 0.63
    n, m = 4, 2
    acc = 0.0
    for j in range((n - m) // 2 + 1):
        acc += (
            (-1) ** j
            * math.factorial(n - j)
            / (math.factorial(j) * math.factorial((n + m) // 2 - j) * math.factorial((n - m) // 2 - j))
            * u ** (n - 2 * j)
        )
    assert_allclose(zernike_radial(ZernikeIndex(n, m), u), math.sqrt(5.0) * acc, rtol=1e-14)


def test_zernike_radial_domain():
    with pytest.raises(ValueError):
        zernike_radial(ZernikeIndex(0, 0), 1.2)
    with pytest.raises(ValueError):
        zernike_radial(ZernikeIndex(0, 0), -0.1)


def test_zernike_radial_orthogonality():
    # weighted Gauss-Legendre quadrature on [0,1] with weight u du
    nodes, weights = np.polynomial.legendre.leggauss(120)
    u = 0.5 * (nodes + 1.0)
    w = 0.5 * weights * u
    pairs = [ZernikeIndex(n, m) for n in range(6) for m in range(-n, n + 1, 2)]
    for a in pairs:
        for b in pairs:
            if a.m != b.m:
                continue
            val = np.sum(w * zernike_radial(a, u) * zernike_radial(b, u))
            expect = 0.5 if a == b else 0.0
            assert abs(val - expect) < 1e-12


def test_zernike_angular_examples():
    assert zernike_angular(0, 1.234) == 1.0
    assert_allclose(zernike_angular(2, 0.0), math.sqrt(2.0), rtol=1e-15)
    assert_allclose(zernike_angular(-2, math.pi / 4), math.sqrt(2.0), rtol=1e-12)


def test_zernike_angular_orthogonality():
    theta = (np.arange(512) + 0.5) * 2 * math.pi / 512
    ms = range(-5, 6)
    for a in ms:
        for b in ms:
            val = np.mean(zernike_angular(a, theta) * zernike_angular(b, theta))
            assert abs(val - (1.0 if a == b else 0.0)) < 1e-12


# ---------------------------------------------------------------------------
# Bessel sum rules


def _sum_terms(x, n_terms):
    # orders far above the argument contribute negligibly
    return math.ceil(x) + 60 if n_terms is None else n_terms


def _sum_rule_1(x, n_terms=None):
    """Partial sum of sum_n [J_{n-1}(x) - J_{n+3}(x)]^2 over n = 0..n_terms; -> 1."""
    nmax = _sum_terms(x, n_terms)
    j = bessel_j(np.arange(-1, nmax + 4), x)
    # orders[k] = k - 1, so J_{n-1} sits at position n and J_{n+3} at n + 4
    diff = j[: nmax + 1] - j[4 : nmax + 5]
    return float(np.sum(diff**2))


def _sum_rule_2(x, n_terms=None):
    """Partial sum of (4/3) sum_n n(n+2) [J_n(x) + J_{n+2}(x)]^2; -> x^2."""
    nmax = _sum_terms(x, n_terms)
    j = bessel_j(np.arange(0, nmax + 3), x)
    n = np.arange(0, nmax + 1)
    terms = n * (n + 2) * (j[: nmax + 1] + j[2 : nmax + 3]) ** 2
    return float(4.0 / 3.0 * np.sum(terms))


def test_identity_1_examples():
    assert abs(_sum_rule_1(0.0, 100) - 1.0) < 1e-14
    assert abs(_sum_rule_1(5.0, 200) - 1.0) < 1e-10
    assert abs(_sum_rule_1(40.0, 400) - 1.0) < 1e-10


def test_identity_2_examples():
    assert _sum_rule_2(0.0, 100) == 0.0
    assert abs(_sum_rule_2(2.0, 100) - 4.0) < 1e-8
    assert abs(_sum_rule_2(30.0, 300) - 900.0) < 1e-5


def test_identity_adaptive_terms():
    # ceil(x) + 60 terms suffice
    assert abs(_sum_rule_1(17.3) - 1.0) < 1e-10
    assert abs(_sum_rule_2(17.3) - 17.3**2) < 1e-8 * 17.3**2


@pytest.mark.parametrize("x", np.arange(0.0, 50.5, 2.5))
def test_identities_on_coarse_grid(x):
    # the full 0.1-spaced sweep runs in the acceptance suite
    assert abs(_sum_rule_1(float(x)) - 1.0) < 1e-10
    assert abs(_sum_rule_2(float(x)) - x * x) < 1e-8 * max(1.0, x * x)
