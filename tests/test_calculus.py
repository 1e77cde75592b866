"""Quadrature rules, difference stencils and the coefficient recursion."""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import neutrace
from neutrace.calculus import (
    _sine_ball_rule,
    _sphere_rule,
    coeff_c,
    dimension_constants,
    gamma_fn,
    gauss_legendre,
    interp_cubic,
    richardson,
    serial_products,
    stencil_apply,
    stencil_derivative,
    unit_ball_volume,
)

from neutrace.inversion import _angular_set
from neutrace.transforms import _mean_directions

from _oracles import (
    angular_set_by_hand,
    assert_same_bits,
    mean_directions_by_hand,
    sine_ball_rule_by_hand,
    poly_eval,
    poly_integral,
    volume_directions_by_hand,
)

coeff_lists = st.lists(
    st.floats(-4.0, 4.0, allow_nan=False, allow_infinity=False), min_size=1, max_size=8
)


# ---------------------------------------------------------------------------
# Gauss-Legendre


def test_gauss_legendre_two_point_nodes():
    rule = gauss_legendre(2, -1.0, 1.0)
    assert rule.nodes == pytest.approx([-1.0 / math.sqrt(3.0), 1.0 / math.sqrt(3.0)])
    assert rule.weights == pytest.approx([1.0, 1.0])


def test_gauss_legendre_weights_positive_and_sum_to_length():
    for m in (1, 3, 7, 40):
        rule = gauss_legendre(m, -0.3, 2.1)
        assert np.all(rule.weights > 0)
        assert np.sum(rule.weights) == pytest.approx(2.4, abs=1e-13)


@given(m=st.integers(1, 8), coeffs=coeff_lists, a=st.floats(-2.0, 0.0), b=st.floats(0.5, 2.0))
@settings(max_examples=80, deadline=None)
def test_gauss_legendre_exact_to_degree(m, coeffs, a, b):
    """An m-point rule integrates polynomials up to degree 2m - 1 exactly."""
    coeffs = coeffs[: 2 * m]
    rule = gauss_legendre(m, a, b)
    got = float(np.sum(rule.weights * poly_eval(coeffs, rule.nodes)))
    assert got == pytest.approx(poly_integral(coeffs, a, b), abs=1e-10, rel=1e-12)


def test_gauss_legendre_spectral_on_sine():
    exact = 2.0  # integral of sin over (0, pi)
    errs = [
        abs(gauss_legendre(m, 0.0, math.pi).integrate(np.sin) - exact) for m in (2, 4, 8)
    ]
    assert errs[1] <= errs[0] / 10.0
    assert errs[2] <= errs[1] / 10.0
    assert errs[2] < 1e-13  # float floor


@pytest.mark.parametrize("m", [4, 8, 12, 32, 64])
@pytest.mark.parametrize("n", [2, 3])
def test_sphere_rule_keeps_the_bits_of_the_hand_built_rules(n, m):
    """The one product rule on the circle and sphere gives the bits of the
    three rules it replaced: the sphere-mean directions, the correction's
    angular set, and the identity check's volume directions, turned by a
    phase."""
    for got, want in (
        (_mean_directions(n, m), mean_directions_by_hand(n, m)),
        (_angular_set(n, m), angular_set_by_hand(n, m)),
    ):
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])
    if n == 3:
        for phase in (0.0, 0.37, -1.9):
            dirs, wu = _sphere_rule(3, m, shift=0.5, phase=phase)
            want = volume_directions_by_hand(m, 2 * m, phase)
            assert_same_bits(dirs, want[0])
            assert_same_bits(wu * (2.0 * np.pi / (2 * m)), want[1])


@pytest.mark.parametrize("m", [4, 17, 40, 48, 57, 192])
def test_sine_ball_rule_keeps_the_bits_of_the_hand_built_rules(m):
    """The one sine-substituted ball rule gives the bits of the 2-D forward's
    weights w sin(phi) and of the ball profile's w sin^{n-1}(phi)."""
    for got, want in (
        (_sine_ball_rule(m, 2), sine_ball_rule_by_hand(m)),
        (_sine_ball_rule(m, 2), sine_ball_rule_by_hand(m, 2)),
        (_sine_ball_rule(m, 3), sine_ball_rule_by_hand(m, 3)),
    ):
        assert_same_bits(got[0], want[0])
        assert_same_bits(got[1], want[1])


def test_gauss_legendre_rejects_bad_count():
    with pytest.raises(ValueError):
        gauss_legendre(0, 0.0, 1.0)


# ---------------------------------------------------------------------------
# constants


def test_gamma_fn_known_values():
    assert gamma_fn(0.5) == pytest.approx(math.sqrt(math.pi), rel=1e-15)
    assert gamma_fn(5.0) == 24.0
    with pytest.raises(ValueError):
        gamma_fn(0.0)


def test_unit_ball_volume():
    assert unit_ball_volume(0) == 1.0
    assert unit_ball_volume(1) == pytest.approx(2.0)
    assert unit_ball_volume(2) == pytest.approx(math.pi)
    assert unit_ball_volume(3) == pytest.approx(4.0 * math.pi / 3.0)
    with pytest.raises(ValueError):
        unit_ball_volume(-1)


def test_dimension_constants():
    c2 = dimension_constants(2)
    assert (c2.gamma_n, c2.omega_n) == (2.0, pytest.approx(math.pi))
    c3 = dimension_constants(3)
    assert (c3.gamma_n, c3.omega_n) == (1.0, pytest.approx(4.0 * math.pi / 3.0))
    c4 = dimension_constants(4)
    assert (c4.gamma_n, c4.omega_n) == (8.0, pytest.approx(math.pi**2 / 2.0))
    with pytest.raises(ValueError):
        dimension_constants(1)


# ---------------------------------------------------------------------------
# coefficient recursion


def test_coeff_c_base_cases():
    assert coeff_c(4, 0, 0) == 1
    assert coeff_c(4, 1, 0) == 3
    assert coeff_c(4, 2, 0) == 3
    for n in (2, 3, 4, 6):
        for k in range(4):
            assert coeff_c(n, k, k) == 1


def test_coeff_c_rejects_bad_indices():
    with pytest.raises(ValueError):
        coeff_c(1, 0, 0)
    with pytest.raises(ValueError):
        coeff_c(4, 1, 2)
    with pytest.raises(ValueError):
        coeff_c(4, -1, 0)


@pytest.mark.parametrize("n,k", [(n, k) for n in (4, 6) for k in range(4) if n >= 2 * k])
def test_coeff_c_nonnegative_integers(n, k):
    """All coefficients stay nonnegative while n >= 2k."""
    for l in range(k + 1):
        c = coeff_c(n, k, l)
        assert isinstance(c, int)
        assert c >= 0


def test_coeff_c_sign_boundary_is_sharp():
    # one step past n >= 2k the leading coefficient goes negative:
    # (1/t d/dt)^3 (t^3 A) = -3 A/t^3 + 3 A'/t^2 + 6 A''/t + A'''
    assert coeff_c(4, 3, 0) == -3
    assert [coeff_c(4, 3, l) for l in range(4)] == [-3, 3, 6, 1]


@pytest.mark.parametrize("n", [2, 3, 4, 6])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_coeff_c_matches_symbolic_expansion(n, k):
    """Expand (1/t d/dt)^k (t^{n-1} A(t)) with a CAS and read off the
    coefficient of each t-power times A-derivative monomial."""
    sympy = pytest.importorskip("sympy")
    t = sympy.Symbol("t", positive=True)
    A = sympy.Function("A")
    expr = t ** (n - 1) * A(t)
    for _ in range(k):
        expr = sympy.expand(sympy.diff(expr, t) / t)
    for l in range(k + 1):
        monomial = t ** (n - (2 * k + 1 - l)) * sympy.Derivative(A(t), (t, l))
        want = coeff_c(n, k, l)
        got = expr.coeff(sympy.Derivative(A(t), (t, l)) if l else A(t))
        got_c = sympy.simplify(got * t ** -(n - (2 * k + 1 - l)))
        assert got_c == want, f"coefficient of {monomial} is {got_c}, recursion gives {want}"


# ---------------------------------------------------------------------------
# difference stencils


def poly3(x):
    return 0.4 - 1.1 * x + 0.7 * x**2 + 0.25 * x**3


def poly3_d1(x):
    return -1.1 + 1.4 * x + 0.75 * x**2


def poly3_d2(x):
    return 1.4 + 1.5 * x


def poly3_d3(x):
    return 1.5


@pytest.mark.parametrize("order,deriv", [(1, poly3_d1), (2, poly3_d2), (3, poly3_d3)])
def test_stencil_derivative_exact_on_cubics(order, deriv):
    t = -0.61
    got = stencil_derivative(poly3, t, 0.07, order)
    assert got == pytest.approx(deriv(t), abs=1e-9)


def test_stencil_derivative_fourth_order_convergence():
    f, t = math.sin, 0.9
    errs = [abs(stencil_derivative(f, t, h, 2) - (-math.sin(t))) for h in (0.1, 0.05)]
    assert errs[1] <= errs[0] / 12.0  # 2^4 = 16 up to the next error term


def test_stencil_derivative_validation():
    with pytest.raises(ValueError):
        stencil_derivative(poly3, 0.0, 0.0, 1)
    with pytest.raises(ValueError):
        stencil_derivative(poly3, 0.0, 0.1, 4)


def test_stencil_apply_matches_pointwise_and_marks_edges():
    h = 0.02
    xs = -0.3 + h * np.arange(40)
    table = poly3(xs)
    for order, deriv in ((1, poly3_d1), (2, poly3_d2), (3, poly3_d3)):
        out = stencil_apply(table, h, order)
        reach = {1: 2, 2: 2, 3: 3}[order]
        assert np.all(np.isnan(out[:reach])) and np.all(np.isnan(out[-reach:]))
        core = slice(reach, len(xs) - reach)
        np.testing.assert_allclose(out[core], deriv(xs[core]), atol=1e-8)
    # stride 2 doubles the masked margin and the effective step
    out2 = stencil_apply(table, h, 1, stride=2)
    assert np.all(np.isnan(out2[:4])) and not np.isnan(out2[4])
    np.testing.assert_allclose(out2[4:-4], poly3_d1(xs[4:-4]), atol=1e-8)


def test_richardson_removes_fourth_order_term():
    f, t, exact = math.cos, 0.3, -math.sin(0.3)
    h = 0.05
    plain = stencil_derivative(f, t, h, 1)
    combined = richardson(plain, stencil_derivative(f, t, 2 * h, 1))
    assert abs(combined - exact) < abs(plain - exact) / 50.0


# ---------------------------------------------------------------------------
# table interpolation


@given(q=st.floats(-0.99, 0.99))
@settings(max_examples=50, deadline=None)
def test_interp_cubic_reproduces_cubics(q):
    x0, dx = -1.0, 0.1
    table = poly3(x0 + dx * np.arange(21))
    got = float(interp_cubic(np.array([q]), x0, dx, table)[0])
    assert got == pytest.approx(poly3(q), abs=1e-11)


def test_interp_cubic_rejects_queries_outside_the_table():
    # the end cells are read off the nearest stencil that fits on the table,
    # so a global cubic is still reproduced exactly up to both ends
    x0, dx = 0.0, 0.25
    table = poly3(x0 + dx * np.arange(9))
    ends = np.array([0.0, 0.1, 1.9, 2.0])
    np.testing.assert_allclose(interp_cubic(ends, x0, dx, table), poly3(ends), atol=1e-11)
    # beyond them a query raises instead of being extrapolated
    for bad in (-1e-9, -0.1, 2.0 + 1e-9):
        with pytest.raises(ValueError, match="leave the table"):
            interp_cubic(np.array([0.5, bad]), x0, dx, table)


# prints the digest of serial_products on a 100 x 25 by 25 x 340 product, a
# shape that OpenBLAS splits over two threads with edge blocks that round
# differently from its one-thread blocks
SERIAL_PRODUCT_CHILD = """
import hashlib
import numpy as np
from neutrace.calculus import serial_products
rng = np.random.default_rng(7)
print(hashlib.sha256(serial_products(rng.random((100, 25)), rng.random((340, 25))).tobytes()).hexdigest())
"""


def test_serial_products_bits_do_not_depend_on_the_blas_thread_count():
    src = os.path.dirname(os.path.dirname(os.path.abspath(neutrace.__file__)))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    digests = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads}
        proc = subprocess.run(
            [sys.executable, "-c", SERIAL_PRODUCT_CHILD], capture_output=True, text=True, env=env
        )
        assert proc.returncode == 0, proc.stderr
        digests.append(proc.stdout)
    assert digests[0] == digests[1]


def test_serial_products_is_the_matrix_product():
    rng = np.random.default_rng(3)
    a, w = rng.random((150, 25)), rng.random((700, 25))
    np.testing.assert_allclose(serial_products(a, w), a @ w.T, rtol=1e-14)
