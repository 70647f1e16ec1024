"""Polynomial reduction and characteristic-curve integration checks."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from freesde import characteristics as ch
from freesde import models as md
from freesde.errors import (
    MomentsUnavailable,
    OrderTooHigh,
    OutsideSurface,
    StepTooLarge,
)


class TestPolynomial:
    def test_trims_trailing_zeros(self):
        p = ch.Polynomial([1.0, 2.0, 0.0, 0.0])
        assert p.coeffs == (1.0, 2.0)
        assert p.degree == 1

    def test_zero_polynomial(self):
        p = ch.Polynomial([0.0, 0.0])
        assert p.coeffs == () and p.degree == -1
        assert p(3.0) == 0.0

    def test_degree_cap(self):
        with pytest.raises(OrderTooHigh):
            ch.Polynomial([1.0] * 10)

    def test_horner_and_derivative(self):
        # the fold reads f'(z) off the derivative's coefficients
        p = ch.Polynomial([1.0, -2.0, 3.0])
        assert p(2.0) == 1 - 4 + 12
        assert ch.Polynomial(ch._pderiv(p.coeffs))(2.0) == -2 + 12


def division_parts(f, z, mu):
    """(f(z), f'(z), S1(z), S2(z)), with the moment sums S1 and S2 the fold
    reads summed term by term in z."""
    S1, S2 = (sum(c * z ** p for p, c in enumerate(ch._moment_sum(f.coeffs, mu, d)))
              for d in (1, 2))
    return f(z), ch.Polynomial(ch._pderiv(f.coeffs))(z), S1, S2


class TestMomentSum:
    """The moment sums on a point mass at x, mu_j = x^j:
    S1(z) = (f(x) - f(z)) / (x - z) and
    S2(z) = (f(x) - f(z) - f'(z) (x - z)) / (x - z)^2."""

    def test_square(self):
        # a point mass at 0.7: (x^2 - z^2)/(x - z) = x + z, and S2 = 1
        mu = (1.0, 0.7, 0.49)
        assert ch._moment_sum((0.0, 0.0, 1.0), mu, 1) == [0.7, 1.0]
        assert ch._moment_sum((0.0, 0.0, 1.0), mu, 2) == [1.0]

    def test_cube_at_two(self):
        # a point mass at 2: (8 - z^3)/(2 - z) = 4 + 2z + z^2, and
        # (8 - z^3 - 3z^2 (2 - z))/(2 - z)^2 = 2 + 2z
        mu = (1.0, 2.0, 4.0, 8.0)
        assert ch._moment_sum((0.0, 0.0, 0.0, 1.0), mu, 1) == [4.0, 2.0, 1.0]
        assert ch._moment_sum((0.0, 0.0, 0.0, 1.0), mu, 2) == [2.0, 2.0]

    def test_constant_is_empty(self):
        assert ch._moment_sum((5.0,), (1.0,), 1) == []
        assert ch._moment_sum((5.0,), (1.0,), 2) == []

    @given(st.lists(st.floats(-3, 3), min_size=2, max_size=9),
           st.floats(-2, 2), st.floats(0.1, 2))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_reconstruction_identity(self, coeffs, zr, zi):
        # f(x) = f(z) + S1(z) (x - z) = f(z) + f'(z) (x - z) + S2(z) (x - z)^2
        f = ch.Polynomial(coeffs)
        if f.degree < 1:
            return
        z = complex(zr, zi)
        x = np.linspace(-2, 2, 10)
        fz, fpz, S1, S2 = division_parts(f, z, [x ** j for j in range(f.degree + 1)])
        scale = max(1.0, float(np.max(np.abs(f(x)))))
        for recon in (fz + S1 * (x - z), fz + fpz * (x - z) + S2 * (x - z) ** 2):
            assert np.max(np.abs(recon - f(x))) / scale < 1e-12


def three_atom_reference(f, atoms, weights, z):
    """Direct expectations on a discrete measure: the independent oracle."""
    atoms = np.asarray(atoms, dtype=float)
    weights = np.asarray(weights, dtype=float)
    g = np.sum(weights / (atoms - z))
    dg = np.sum(weights / (atoms - z) ** 2)
    E_fG = np.sum(weights * f(atoms) / (atoms - z))
    E_fG2 = np.sum(weights * f(atoms) / (atoms - z) ** 2)
    return g, dg, E_fG, E_fG2


def resolvent_expectations(f, g, dg, z, mu):
    """E(f(X)G) = f(z) g + S1 and E(f(X)G^2) = f(z) dg + f'(z) g + S2."""
    fz, fpz, S1, S2 = division_parts(f, z, mu)
    return fz * g + S1, fz * dg + fpz * g + S2


class TestReduceResolventExpectation:
    def setup_method(self):
        rng = np.random.default_rng(11)
        self.z = complex(rng.normal(), rng.uniform(0.5, 1.5))
        self.g = complex(rng.normal(), rng.uniform(0.1, 1))
        self.dg = complex(rng.normal(), rng.normal()) * 0.3

    def test_linear_drift_shape(self):
        # f(x) = x: E(XG) = z g + 1, E(XG^2) = z dg + g
        E1, E2 = resolvent_expectations(
            ch.Polynomial([0, 1]), self.g, self.dg, self.z, (1.0,))
        assert abs(E1 - (self.z * self.g + 1.0)) < 1e-14
        assert abs(E2 - (self.z * self.dg + self.g)) < 1e-14

    def test_constant(self):
        E1, E2 = resolvent_expectations(
            ch.Polynomial([2.5]), self.g, self.dg, self.z, (1.0,))
        assert abs(E1 - 2.5 * self.g) < 1e-14
        assert abs(E2 - 2.5 * self.dg) < 1e-14

    def test_square_with_first_moment(self):
        mu1 = 0.7
        E1, E2 = resolvent_expectations(
            ch.Polynomial([0, 0, 1]), self.g, self.dg, self.z, (1.0, mu1))
        z = self.z
        assert abs(E1 - (z * z * self.g + z + mu1)) < 1e-13
        assert abs(E2 - (z * z * self.dg + 2 * z * self.g + 1.0)) < 1e-13

    @given(st.integers(1, 6), st.integers(0, 10 ** 6))
    @settings(max_examples=40, deadline=None, derandomize=True)
    def test_discrete_measure_equivalence(self, degree, seed):
        rng = np.random.default_rng(seed)
        atoms = rng.uniform(-2, 2, 3)
        weights = rng.dirichlet(np.ones(3))
        coeffs = rng.uniform(-2, 2, degree + 1)
        coeffs[-1] = coeffs[-1] or 1.0
        f = ch.Polynomial(coeffs)
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        mu = [1.0] + [float(np.sum(weights * atoms ** j)) for j in range(1, degree)]
        g, dg, E_fG_ref, E_fG2_ref = three_atom_reference(f, atoms, weights, z)
        E1, E2 = resolvent_expectations(f, g, dg, z, mu)
        assert abs(E1 - E_fG_ref) < 1e-12 * max(1, abs(E_fG_ref))
        assert abs(E2 - E_fG2_ref) < 1e-12 * max(1, abs(E_fG2_ref))


class TestBuildPde:
    def setup_method(self):
        rng = np.random.default_rng(23)
        self.z = rng.normal(size=6) + 1j * rng.uniform(0.4, 2, 6)
        self.g = rng.normal(size=6) * 0.4 + 1j * rng.uniform(0.05, 1, 6)
        self.dg = (rng.normal(size=6) + 1j * rng.normal(size=6)) * 0.2

    def test_constant_diffusion_shape(self):
        theta, sigma = -0.7, 1.3
        rhs = ch.build_pde(ch.Polynomial([0, theta]), ch.Polynomial([sigma]),
                           ch.MomentFunction.none())
        got = rhs(0.2, self.z, self.g, self.dg)
        want = -theta * (self.z * self.dg + self.g) + sigma ** 2 * self.g * self.dg
        assert np.max(np.abs(got - want)) < 1e-13

    def test_constant_diffusion_product_term(self):
        # with constant bc the noise term factors as [E(bc)]^2 g dg
        sigma = 0.9
        rhs = ch.build_pde(ch.Polynomial([]), ch.Polynomial([sigma]),
                           ch.MomentFunction.none())
        got = rhs(0.0, self.z, self.g, self.dg)
        assert np.max(np.abs(got - sigma ** 2 * self.g * self.dg)) < 1e-14

    def test_linear_diffusion_shape(self):
        # a = theta x, bc = x: E(bcG) = 1 + z g, E(bcG^2) = g + z dg
        theta = 0.4
        rhs = ch.build_pde(ch.Polynomial([0, theta]), ch.Polynomial([0, 1]),
                           ch.MomentFunction.from_values([1.0, 1.0]))
        got = rhs(0.0, self.z, self.g, self.dg)
        want = -theta * (self.g + self.z * self.dg) + \
            (1 + self.z * self.g) * (self.g + self.z * self.dg)
        assert np.max(np.abs(got - want)) < 1e-13

    def test_zero_coefficients_freeze(self):
        rhs = ch.build_pde(ch.Polynomial([]), ch.Polynomial([]),
                           ch.MomentFunction.none())
        assert np.max(np.abs(rhs(0.0, self.z, self.g, self.dg))) == 0.0

    def test_explosive_characteristic_form(self):
        k, a0 = 1.0, 1.0
        rhs = ch.build_pde(ch.Polynomial([]), ch.Polynomial([0, 0, k]),
                           ch.MomentFunction.from_values([1.0, a0]))
        z, g, dg = self.z, self.g, self.dg
        EbcG = k * (a0 + z + z * z * g)
        adv, src = rhs.characteristic(0.1, z, g)
        assert np.max(np.abs(adv - (-(k * z * z) * EbcG))) < 1e-13
        assert np.max(np.abs(src - k * EbcG * (1 + 2 * z * g))) < 1e-13
        full = rhs(0.1, z, g, dg)
        want = EbcG * k * (1 + 2 * z * g + z * z * dg)
        assert np.max(np.abs(full - want)) < 1e-13

    def test_moment_coverage_checked(self):
        # the drift enters through S2 alone, which reads mu up to deg a - 2:
        # a quartic drift needs mu_2, a cubic one mu_1
        mu01 = ch.MomentFunction.from_values([1.0, 0.0])
        with pytest.raises(MomentsUnavailable):
            ch.build_pde(ch.Polynomial([0, 0, 0, 0, 1]), ch.Polynomial([1.0]), mu01)
        assert ch.build_pde(ch.Polynomial([0, 0, 0, 1]), ch.Polynomial([1.0]), mu01).need == 1

    @pytest.mark.parametrize("a, pairs, need", [
        md.OrnsteinUhlenbeck(-1.0, 1.0).polynomials() + (0,),
        md.GeometricBrownian1(0.5).polynomials() + (0,),
        md.GeometricBrownian2(0.5).polynomials() + (1,),
        md.Explosive(1.0, 1.0).polynomials() + (1,),
        (ch.Polynomial([0, 0, -1.0]), ((ch.Polynomial([]), ch.ONE),), 0),
        (ch.Polynomial([0, 0, 0, 0, 1.0]), ((ch.ONE, ch.ONE),), 2),
        (ch.Polynomial([]), ((ch.Polynomial([]), ch.ONE),), 0),
    ], ids=["ou", "gbm1", "gbm2", "explosive", "quadratic-drift", "quartic-drift", "zero"])
    def test_need_is_the_highest_order_the_fold_reads(self, a, pairs, need):
        # S2 of the drift reads mu up to deg a - 2, S1 of each f_ij = c_i b_j
        # up to deg f_ij - 1 (gbm2's c_2 b_1 = x^2 reads the mean)
        assert ch.PdeRightHandSide(a, pairs, ch.MomentFunction.none()).need == need

    def test_cubic_drift_marches_on_the_mean_alone(self):
        # a = -(x + x^3)/2, bc = 1: the fold reads mu_0 and mu_1 only, so the
        # march with mu_1 alone is bit for bit the march with any mu_2
        a, bc = ch.Polynomial([0.0, -0.5, 0.0, -0.5]), ch.Polynomial([1.0])

        def march(values):
            rhs = ch.build_pde(a, bc, ch.MomentFunction.from_values(values))
            surf = ch.integrate_characteristics(
                rhs, lambda s: (s + 2.0j, -1.0 / (s + 2.0j)), np.linspace(-2, 2, 41),
                t_end=0.5, dt=1e-2)
            return surf.z.tobytes() + surf.g.tobytes()

        alone = march([1.0, 0.0])
        assert alone == march([1.0, 0.0, 0.7]) == march([1.0, 0.0, 1e6])

    @given(st.integers(0, 4), st.lists(st.integers(0, 2), min_size=4, max_size=4),
           st.integers(0, 10 ** 6))
    @settings(max_examples=50, deadline=None, derandomize=True)
    def test_discrete_measure_equivalence(self, deg_a, deg_pairs, seed):
        # two pairs (b_i, c_i): -E(aG^2) + sum_ij E(c_i b_j G) E(b_i c_j G^2),
        # each expectation taken on the atoms
        rng = np.random.default_rng(seed)
        atoms = rng.uniform(-2, 2, 3)
        weights = rng.dirichlet(np.ones(3))
        a, b1, c1, b2, c2 = (
            ch.Polynomial(np.append(rng.uniform(-2, 2, d), rng.uniform(0.5, 2)))
            for d in [deg_a] + deg_pairs)
        pairs = ((b1, c1), (b2, c2))
        m = ch.MomentFunction.from_values(
            [1.0] + [float(np.sum(weights * atoms ** j)) for j in (1, 2, 3)])
        z = complex(rng.uniform(-2, 2), rng.uniform(0.5, 2))
        g, dg, _, E_aG2 = three_atom_reference(a, atoms, weights, z)
        terms = [three_atom_reference(lambda x: ci(x) * bj(x), atoms, weights, z)[2]
                 * three_atom_reference(lambda x: bi(x) * cj(x), atoms, weights, z)[3]
                 for bi, ci in pairs for bj, cj in pairs]
        want = -E_aG2 + sum(terms)
        got = ch.build_pde(a, pairs, m)(0.0, z, g, dg)
        assert abs(got - want) < 1e-11 * max(1.0, abs(E_aG2), *map(abs, terms))


def pair_products(pairs):
    """(c_i b_j, b_i c_j) for every ordered couple of noise pairs, by numpy."""
    def mul(p, q):
        return ch.Polynomial(np.convolve(p.coeffs, q.coeffs) if p.coeffs and q.coeffs else [])
    return [(mul(ci, bj), mul(bi, cj)) for bi, ci in pairs for bj, cj in pairs]


def atom_characteristic(rhs, ys, z, g):
    """(P, Q) with every expectation taken on the equally weighted atoms
    ``ys``, whose moments rhs reads: S1 = mean (f(y) - f(z))/(y - z) and
    S2 = mean (f(y) - f(z) - f'(z)(y - z))/(y - z)^2, summed over the
    products of the noise pairs."""
    u = ys[:, None] - z

    def parts(f):
        fy, fz, fpz = f(ys)[:, None], f(z), ch.Polynomial(ch._pderiv(f.coeffs))(z)
        return fz, fpz, np.mean((fy - fz) / u, axis=0), \
            np.mean((fy - fz - fpz * u) / u ** 2, axis=0)

    az, apz, _, S2_a = parts(rhs.drift)
    P, Q = az, -(apz * g + S2_a)
    for f, h in pair_products(rhs.pairs):
        (fz, _, S1_f, _), (hz, hpz, _, S2_h) = parts(f), parts(h)
        E_fG = fz * g + S1_f
        P, Q = P - hz * E_fG, Q + E_fG * (hpz * g + S2_h)
    return P, Q


def term_scale(rhs, t, z, g):
    """Sums of the moduli of the terms of P and Q: a bound on either form's rounding."""
    mu = [abs(rhs.moments(j, t)) for j in range(rhs.moments.jmax + 1)]
    z_abs, g_abs = np.abs(z), np.abs(g)

    def parts(f):
        # f, f', S1 = sum_i c_i sum_{j<i} mu_j z^(i-1-j) and
        # S2 = sum_i c_i sum_{j<i-1} (i-1-j) mu_j z^(i-2-j), on the moduli
        c, zero = np.abs(f.coeffs), np.zeros_like(z_abs)
        return (zero + sum(ci * z_abs ** i for i, ci in enumerate(c)),
                zero + sum(i * ci * z_abs ** (i - 1) for i, ci in enumerate(c) if i),
                zero + sum(ci * mu[j] * z_abs ** (i - 1 - j)
                           for i, ci in enumerate(c) for j in range(i)),
                zero + sum(ci * (i - 1 - j) * mu[j] * z_abs ** (i - 2 - j)
                           for i, ci in enumerate(c) for j in range(i - 1)))

    az, apz, _, S2_a = parts(rhs.drift)
    P, Q = az, apz * g_abs + S2_a
    for f, h in pair_products(rhs.pairs):
        (fz, _, S1_f, _), (hz, hpz, _, S2_h) = parts(f), parts(h)
        E_fG = fz * g_abs + S1_f
        P, Q = P + hz * E_fG, Q + E_fG * (hpz * g_abs + S2_h)
    return np.maximum(P, 1e-300), np.maximum(Q, 1e-300)


coefficient = st.one_of(st.integers(-8, 8).map(lambda k: k / 4),
                        st.floats(-2, 2).filter(lambda v: abs(v) > 1e-3))


class TestFoldedCharacteristic:
    """The coefficient polynomials folded once per moment vector and evaluated
    by Horner reproduce the expectations on the atoms at every time."""

    @given(st.lists(coefficient, max_size=5), st.lists(coefficient, max_size=5),
           st.lists(st.floats(-2, 2), min_size=3, max_size=3), st.floats(0.1, 1.0),
           st.integers(0, 10 ** 6))
    @example([0.0, -1.0], [1.0], [0.0, 0.0, 0.0], 0.5, 0)      # ou: P = -z - g, Q = g
    @example([1.0, -1.0, 0.5], [-1.0], [0.5, -1.0, 1.5], 0.5, 1)
    @example([0.0, 0.5], [0.0, 1.0], [1.0, 1.0, 1.0], 0.5, 2)  # gbm1
    @example([], [0.0, 0.0, 1.0], [1.0, 1.0, 1.0], 0.5, 3)     # explosive
    @example([0.7], [1.0], [0.5, -1.0, 1.5], 0.5, 4)           # P = 0.7 - g
    @settings(max_examples=200, deadline=None, derandomize=True)
    def test_matches_two_division_form(self, a, bc, atoms, t2, seed):
        # moments of three atoms that move with t, so every mu_j changes in time
        atoms = np.asarray(atoms)

        def mu(j, t):
            return float(np.mean((atoms * (1.0 + t) + t) ** j))

        m = ch.MomentFunction(mu, jmax=4)
        a, bc = ch.Polynomial(a), ch.Polynomial(bc)
        rhs = ch.build_pde(a, bc, m)
        rng = np.random.default_rng(seed)
        z = rng.uniform(-2, 2, 4) + 1j * rng.uniform(0.1, 2, 4)
        g = rng.normal(size=4) + 1j * rng.normal(size=4)
        for t in (0.0, t2, 0.0):
            got = rhs.characteristic(t, z, g)
            want = atom_characteristic(rhs, atoms * (1.0 + t) + t, z, g)
            for x, y, s in zip(got, want, term_scale(rhs, t, z, g)):
                assert np.all(np.abs(x - y) <= 1e-12 * s)
            # the one pair (bc, 1) folds bit for bit as the one product bc
            mu = tuple(m(j, t) for j in range(rhs.need + 1))
            assert repr(ch._fold(a, rhs.pairs, mu)) == repr(_one_product_fold(a, bc, mu))
            # and bit for bit what the out-of-place Horner gives
            for x, y in zip(got, _reference_characteristic(rhs, t, z, g)):
                assert np.broadcast_to(np.asarray(y, x.dtype), x.shape).tobytes() == x.tobytes()

    def test_ou_folds_to_two_terms(self):
        rhs = ou_rhs()
        assert rhs.need == 0
        P0, P1, Q0, Q1, Q2 = ch._fold(rhs.drift, rhs.pairs, (1.0,))
        assert (P0, P1, Q0, Q1, Q2) == ((0.0, -1.0), (-1.0,), (), (1.0,), ())
        # a fold of mu_0 alone is compiled once, whatever the time
        assert rhs.slope(0.3) is rhs.slope(0.0)

    def test_constant_slope_is_an_array(self):
        # a = 0.7, bc = 0: P = 0.7 and Q = 0 are constants, returned as arrays
        rhs = ch.build_pde(ch.Polynomial([0.7]), ch.Polynomial([]), ch.MomentFunction.none())
        z = np.array([1.0 + 1.0j, -2.0 + 0.5j])
        P, Q = rhs.characteristic(0.0, z, 1.0 / z)
        assert P.shape == Q.shape == (2,) and P.dtype == complex
        assert P.tolist() == [0.7, 0.7] and Q.tolist() == [0.0, 0.0]


def _one_product_fold(a, bc, mu):
    """The fold of a single noise product bc, term by term in the order the
    pair fold sums one pair's terms."""
    a, bc = a.coeffs, bc.coeffs
    S2_a = ch._moment_sum(a, mu, 2)
    S1_bc, S2_bc = ch._moment_sum(bc, mu, 1), ch._moment_sum(bc, mu, 2)
    dbc = ch._pderiv(bc)
    return (ch._padd(a, ch._pneg(ch._pmul(bc, S1_bc))),
            ch._padd(ch._pneg(ch._pmul(bc, bc))),
            ch._padd(ch._pneg(S2_a), ch._pmul(S1_bc, S2_bc)),
            ch._padd(ch._pneg(ch._pderiv(a)), ch._pmul(bc, S2_bc), ch._pmul(S1_bc, dbc)),
            ch._padd(ch._pmul(bc, dbc)))


def ou_rhs(theta=-1.0, sigma=1.0):
    return ch.build_pde(ch.Polynomial([0.0, theta]), ch.Polynomial([sigma]),
                        ch.MomentFunction.none())


def _horner(c, z):
    """sum_k c_k z^k out of place, as the march evaluated it before the
    compiled slope: zero terms skipped, a unit leading factor for free, a
    float when c is constant."""
    if len(c) < 2:
        return c[0] if c else 0.0
    top = c[-1]
    acc = z if top == 1.0 else -z if top == -1.0 else top * z
    for ck in c[-2:0:-1]:
        if ck:
            acc = acc + ck
        acc = acc * z
    return acc + c[0] if c[0] else acc


def _mul_add(c, x, y):
    """c x + y out of place, skipping a zero term and taking a unit factor
    for free; c and y are each a float or an array."""
    if isinstance(c, float):
        if c == 0.0:
            return y
        if c == -1.0:
            return -x if ch._is_zero(y) else y - x
        cx = x if c == 1.0 else c * x
    else:
        cx = c * x
    return cx if ch._is_zero(y) else cx + y


def _reference_characteristic(rhs, t, z, g):
    """(P, Q) from the folded coefficients by out-of-place Horner: each a
    float where constant, and possibly z or g itself."""
    mu = tuple(rhs.moments(j, t) for j in range(rhs.need + 1))
    P0, P1, Q0, Q1, Q2 = ch._fold(rhs.drift, rhs.pairs, mu)
    P = _mul_add(_horner(P1, z), g, _horner(P0, z))
    Q = _mul_add(_mul_add(_horner(Q2, z), g, _horner(Q1, z)), g, _horner(Q0, z))
    return P, Q


def _reference_march(rhs, init, labels, t_end, dt):
    """(z, g, trunc_index, truncated) of the two-array march: z and g in
    separate time-major arrays, every stage out of place, every curve
    tested for blow-up at every step."""
    labels = np.asarray(labels, dtype=float)
    z0, g0 = init(labels)
    n_steps = max(1, int(round(t_end / dt))) if t_end > 0 else 0
    h = t_end / n_steps if n_steps else 0.0
    t_grid = np.linspace(0.0, t_end, n_steps + 1)
    n_s = labels.size
    Z = np.zeros((n_steps + 1, n_s), complex)
    G = np.zeros((n_steps + 1, n_s), complex)
    Z[0], G[0] = z0, g0
    trunc_index = np.full(n_s, n_steps, dtype=int)
    active = np.ones(n_s, dtype=bool)

    def f(t, z, g):
        return _reference_characteristic(rhs, t, z, g)

    def advance(x, k1, k2, k3, k4, out):
        acc = k2 * 2
        acc += k1
        acc += k3 * 2
        acc += k4
        acc *= h / 6
        np.add(x, acc, out=out)

    with np.errstate(over="ignore", invalid="ignore"):
        for n in range(n_steps):
            t = t_grid[n]
            z, g = Z[n], G[n]
            k1z, k1g = f(t, z, g)
            k2z, k2g = f(t + h / 2, z + h / 2 * k1z, g + h / 2 * k1g)
            k3z, k3g = f(t + h / 2, z + h / 2 * k2z, g + h / 2 * k2g)
            k4z, k4g = f(t + h, z + h * k3z, g + h * k3g)
            advance(z, k1z, k2z, k3z, k4z, Z[n + 1])
            advance(g, k1g, k2g, k3g, k4g, G[n + 1])
            z, g = Z[n + 1], G[n + 1]
            alive = (np.abs(z) < ch.BLOWUP_CUTOFF) & (np.abs(g) < ch.BLOWUP_CUTOFF)
            if alive.all():
                continue
            trunc_index[active & ~alive] = n
            active &= alive
            if not active.any():
                break
    truncated = trunc_index < n_steps
    for i in np.flatnonzero(truncated):
        Z[trunc_index[i] + 1:, i] = G[trunc_index[i] + 1:, i] = np.nan
    return Z.T, G.T, trunc_index, truncated


def _record_case(spec, t_end):
    return (ch.build_pde(*spec.polynomials(), spec.moment_function()),
            lambda s: (s + 2.0j, 1.0 / (spec.x0 - (s + 2.0j))),
            np.linspace(-2.0, 4.0, 25), t_end, 1e-3)


def _signed_start(z, g):
    """Labels to the one start (z, g), each a (real, imaginary) pair, built
    through .real and .imag: s + 0j would turn an imaginary -0 into +0."""
    def init(labels):
        zs, gs = np.empty((2, labels.size), complex)
        zs.real, zs.imag = z
        gs.real, gs.imag = g
        return zs, gs
    return init


def _march_cases():
    square = ch.build_pde(ch.Polynomial([0, 0, -1.0]), ch.Polynomial([]),
                          ch.MomentFunction.from_values([1.0, 0.0]))
    yield "bench", (ou_rhs(), lambda s: (s + 2.0j, -1.0 / (s + 2.0j)),
                    np.linspace(-4, 4, 801), 1.0, 1e-3)
    yield "ou", _record_case(md.OrnsteinUhlenbeck(-1.0, 1.0), 1.0)
    yield "gbm1", _record_case(md.GeometricBrownian1(0.5), 1.0)
    yield "explosive", _record_case(md.Explosive(1.0, 1.0), 0.5)
    yield "gbm2", _record_case(md.GeometricBrownian2(0.5), 1.0)
    yield "31-curve", (square, lambda s: (-s + 0j, np.ones_like(s) + 0j),
                       np.linspace(0.5, 3.5, 31), 1.0, 1e-2)
    yield "constant-P", (ch.build_pde(ch.Polynomial([0.7]), ch.Polynomial([]),
                                      ch.MomentFunction.none()),
                         lambda s: (np.conj(s + 0j), 1.0 / (s + 1j)), np.linspace(-1, 1, 5), 0.5,
                         1e-2)
    # signed zeros that a multiply on the real view would keep but the
    # complex multiply by a real scalar drops: in a stage argument ...
    yield "signed-zero-stage", (ou_rhs(theta=1.0), _signed_start((-1.0, -0.0), (-1.0, 0.0)),
                                np.zeros(1), 0.3, 0.1)
    # ... and in the h/6 scaling of the RK4 combination
    yield "signed-zero-scale", (ou_rhs(theta=0.0), _signed_start((0.0, -0.0), (0.0, 0.0)),
                                np.zeros(1), 0.3, 0.1)


class TestIntegrateCharacteristics:
    def test_ou_closed_form_curves(self):
        # dz/dt = theta z - sigma^2 g, dg/dt = -theta g from real labels:
        # g(s, t) = -(1/s) e^{-theta t}
        rhs = ou_rhs(theta=1.0, sigma=1.0)
        s = np.array([1.5, 2.0, 3.0, -2.0])
        surf = ch.integrate_characteristics(
            rhs, lambda s: (s.astype(complex), -1.0 / s), s, t_end=1.0, dt=1e-3)
        ref = -(1.0 / s) * np.exp(-1.0)
        assert np.max(np.abs(surf.g[:, -1] - ref)) < 1e-8

    def test_frozen_dynamics(self):
        rhs = ch.build_pde(ch.Polynomial([]), ch.Polynomial([]),
                           ch.MomentFunction.none())
        s = np.linspace(-1, 1, 5)
        surf = ch.integrate_characteristics(
            rhs, lambda s: (s + 1j, 1.0 / (s + 1j)), s, t_end=0.5, dt=1e-2)
        assert np.max(np.abs(surf.z - surf.z[:, :1])) == 0.0
        assert np.max(np.abs(surf.g - surf.g[:, :1])) == 0.0

    def test_product_conserved_for_linear_noise(self):
        # with a = 0, bc = x the product z g is a first integral of the curves
        rhs = ch.build_pde(ch.Polynomial([]), ch.Polynomial([0, 1]),
                           ch.MomentFunction.from_values([1.0, 1.0]))
        s = np.linspace(2.0, 4.0, 5)
        surf = ch.integrate_characteristics(
            rhs, lambda s: (s + 1j, 1.0 / (1.0 - (s + 1j))), s, t_end=1.0, dt=1e-3)
        drift = np.abs(surf.z[:, -1] * surf.g[:, -1] - surf.z[:, 0] * surf.g[:, 0])
        assert np.max(drift) < 1e-9

    def test_rk4_order(self):
        rhs = ou_rhs()
        z0 = 2.0 + 1.0j
        g0 = -1.0 / z0
        theta, sigma = -1.0, 1.0
        g_exact = g0 * np.exp(-theta)
        z_exact = (z0 - sigma ** 2 * g0 / (2 * theta)) * np.exp(theta) \
            + sigma ** 2 * g0 / (2 * theta) * np.exp(-theta)
        errs = []
        for dt in (0.02, 0.01):
            surf = ch.integrate_characteristics(
                rhs, lambda s: (np.full_like(s, z0, dtype=complex),
                                np.full_like(s, g0, dtype=complex)),
                np.array([0.0]), t_end=1.0, dt=dt)
            errs.append(max(abs(surf.g[0, -1] - g_exact),
                            abs(surf.z[0, -1] - z_exact)))
        assert errs[0] / errs[1] >= 14.0

    def test_blowup_truncation(self):
        # dz/dt = -z^2 from z0 = -1 leaves [0, 1.2] in finite time
        rhs = ch.build_pde(ch.Polynomial([0, 0, -1.0]), ch.Polynomial([]),
                           ch.MomentFunction.from_values([1.0, 0.0]))
        surf = ch.integrate_characteristics(
            rhs, lambda s: (np.full_like(s, -1.0, dtype=complex),
                            np.full_like(s, 1.0, dtype=complex)),
            np.array([0.0]), t_end=1.2, dt=1e-3)
        assert surf.truncated[0]
        assert surf.trunc_index[0] < surf.t_grid.size - 1
        assert np.isnan(surf.z[0, -1].real)

    def test_step_too_large(self):
        # quadratic drift squares the state: 1e200^2 overflows at stage one
        rhs = ch.build_pde(ch.Polynomial([0, 0, -1.0]), ch.Polynomial([]),
                           ch.MomentFunction.from_values([1.0, 0.0]))
        with pytest.raises(StepTooLarge):
            ch.integrate_characteristics(
                rhs, lambda s: (np.full(s.shape, 1e200 + 0j),
                                np.full(s.shape, 1.0 + 0j)),
                np.array([0.0]), t_end=0.1, dt=1e-2)


    def test_g_alone_blowing_up_truncates(self):
        # a = -40x, bc = 0: z = (s + i) e^{-40t} shrinks while g = e^{40t}
        # passes the cutoff at t = ln(1e12)/40 = 0.6908, after step 690
        rhs = ch.build_pde(ch.Polynomial([0, -40.0]), ch.Polynomial([]),
                           ch.MomentFunction.none())
        surf = ch.integrate_characteristics(
            rhs, lambda s: (s + 1j, np.ones_like(s) + 0j), np.linspace(-1, 1, 5),
            t_end=1.0, dt=1e-3)
        assert surf.trunc_index.tolist() == [690] * 5
        assert surf.truncated.all()
        assert np.nanmax(np.abs(surf.z)) == abs(1 + 1j)
        assert np.abs(surf.g[:, 690]).max() < ch.BLOWUP_CUTOFF
        assert np.isnan(surf.g[:, 691:]).all() and np.isnan(surf.z[:, 691:]).all()

    def test_non_finite_after_the_first_step_truncates(self):
        # dz/dt = z^8 at dt = 0.01: from z0 = 1.5 the first step reaches
        # z = 3.64 and the second step's stages overflow to NaN, below the
        # cutoff all along; z0 = 0 stays put.  From z0 = 3 the first step
        # overflows already.
        rhs = ch.build_pde(ch.Polynomial([0.0] * 8 + [1.0]), ch.Polynomial([]),
                           ch.MomentFunction.from_values([1.0] + [0.0] * 7))

        def init(s):
            return s + 0j, np.ones_like(s) + 0j

        surf = ch.integrate_characteristics(rhs, init, np.array([0.0, 1.5]),
                                            t_end=0.05, dt=1e-2)
        assert surf.trunc_index.tolist() == [5, 1]
        assert surf.truncated.tolist() == [False, True]
        assert 3.6 < abs(surf.z[1, 1]) < 3.7
        assert np.isnan(surf.z[1, 2:]).all() and np.isnan(surf.g[1, 2:]).all()
        assert np.array_equal(surf.z[0], np.zeros(6)) and np.array_equal(surf.g[0], np.ones(6))
        # the second step, taken again out of place, is not finite
        y, h = np.array([surf.z[1, 1], surf.g[1, 1]]), 1e-2
        with np.errstate(over="ignore", invalid="ignore"):
            k1 = np.array(rhs.characteristic(0.0, *y))
            k2 = np.array(rhs.characteristic(0.0, *(y + h / 2 * k1)))
            k3 = np.array(rhs.characteristic(0.0, *(y + h / 2 * k2)))
            k4 = np.array(rhs.characteristic(0.0, *(y + h * k3)))
            assert not np.isfinite(y + h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)).any()
        with pytest.raises(StepTooLarge):
            ch.integrate_characteristics(rhs, init, np.array([0.0, 3.0]),
                                         t_end=0.05, dt=1e-2)

    @pytest.mark.parametrize("t_end, dt", [(np.nan, 1e-2), (1.0, np.nan), (np.inf, 1e-2),
                                           (1.0, np.inf)],
                             ids=["t_end-nan", "dt-nan", "t_end-inf", "dt-inf"])
    def test_non_finite_times_are_refused(self, t_end, dt):
        with pytest.raises(ValueError, match=r"dt.*t_end"):
            ch.integrate_characteristics(
                ou_rhs(), lambda s: (s + 1j, 1.0 / (s + 1j)), np.zeros(2),
                t_end=t_end, dt=dt)

    def test_no_labels_is_refused(self):
        # refused before the march, whose blow-up test reduces over the curves
        with pytest.raises(ValueError, match="at least one label"):
            ch.integrate_characteristics(
                ou_rhs(), lambda s: (s + 1j, 1.0 / (s + 1j)), np.zeros(0),
                t_end=1.0, dt=1e-2)

    def test_time_major_layout_and_truncation(self):
        # dz/dt = -z^2 from z0 = -s blows up at t = 1/s: 25 of the 31 curves
        # truncate, at 25 different steps
        rhs = ch.build_pde(ch.Polynomial([0, 0, -1.0]), ch.Polynomial([]),
                           ch.MomentFunction.from_values([1.0, 0.0]))
        s = np.linspace(0.5, 3.5, 31)
        surf = ch.integrate_characteristics(
            rhs, lambda s: (-s + 0j, np.ones_like(s) + 0j), s, t_end=1.0, dt=1e-2)
        trunc = [100] * 6 + [91, 84, 77, 72, 67, 63, 59, 56, 53, 50, 48, 46, 44,
                             42, 40, 39, 38, 36, 35, 34, 33, 32, 31, 30, 29]
        assert surf.trunc_index.tolist() == trunc
        assert surf.z.shape == surf.g.shape == (31, 101)
        assert surf.truncated.tolist() == [k < 100 for k in trunc]
        for i, k in enumerate(trunc):
            for arr in (surf.z[i], surf.g[i]):
                assert np.isfinite(arr[:k + 1]).all()
                assert np.isnan(arr[k + 1:]).all()


class TestMarchMatchesTwoArrayMarch:
    """The stacked in-place march gives every surface bit of the two-array
    out-of-place march it replaced."""

    @pytest.mark.parametrize("case", [c for _, c in _march_cases()],
                             ids=[name for name, _ in _march_cases()])
    def test_bitwise_equal(self, case):
        surf = ch.integrate_characteristics(*case)
        z, g, trunc_index, truncated = _reference_march(*case)
        assert surf.z.tobytes() == z.tobytes()
        assert surf.g.tobytes() == g.tobytes()
        assert np.array_equal(surf.trunc_index, trunc_index)
        assert np.array_equal(surf.truncated, truncated)


class TestModelRecordsThroughEngine:
    """Each model's record polynomials and moments, run through the engine,
    reproduce its closed-form transform on the characteristic curves."""

    @pytest.mark.parametrize("spec, t_end", [
        (md.OrnsteinUhlenbeck(-1.0, 1.0), 1.0),
        (md.GeometricBrownian1(0.5), 1.0),
        (md.Explosive(1.0, 1.0), 0.5),
    ], ids=["ou", "gbm1", "explosive"])
    def test_on_curve_values_match_closed_form(self, spec, t_end):
        rhs = ch.build_pde(*spec.polynomials(), spec.moment_function())
        surf = ch.integrate_characteristics(
            rhs, lambda s: (s + 2.0j, 1.0 / (spec.x0 - (s + 2.0j))),
            np.linspace(-2.0, 4.0, 25), t_end=t_end)
        assert not surf.truncated.any()
        evaluator = md.cauchy_evaluator(spec)
        n_t = surf.t_grid.size
        for j in (n_t // 3, 2 * n_t // 3, n_t - 1):
            err = np.abs(surf.g[:, j] - evaluator(surf.t_grid[j], surf.z[:, j]))
            assert np.max(err) < 1e-8

    @pytest.mark.parametrize("theta", [0.0, 0.5])
    def test_gbm2_keeps_its_first_integral(self, theta):
        # gbm2 has no closed-form transform: its two noise pairs march
        # curves on which the first integral of its label map holds
        spec = md.GeometricBrownian2(theta)
        rhs = ch.build_pde(*spec.polynomials(), spec.moment_function())
        surf = ch.integrate_characteristics(
            rhs, lambda s: (s + 2.0j, 1.0 / (spec.x0 - (s + 2.0j))),
            np.linspace(-2.0, 4.0, 801), t_end=1.0)
        assert rhs.need == 1 and not surf.truncated.any()
        for j in (300, 1000):
            got = md.gbm2_first_integral(theta, surf.t_grid[j], surf.z[:, j], surf.g[:, j])
            assert np.max(np.abs(got - 2.0 * surf.g[:, 0] ** 2)) < 1e-10

class TestEvaluateOnSurface:
    @staticmethod
    def _ou_surface(t_end=1.0):
        rhs = ou_rhs()
        s = np.linspace(-4, 4, 801)
        return ch.integrate_characteristics(
            rhs, lambda s: (s + 2.0j, -1.0 / (s + 2.0j)), s, t_end=t_end, dt=1e-3)

    def test_exact_curve_point(self):
        surf = self._ou_surface()
        assert abs(ch.evaluate_on_surface(surf, 1.0, surf.z[500, -1])
                   - surf.g[500, -1]) < 1e-12

    def test_interior_matches_closed_form(self):
        surf = self._ou_surface()
        worst = 0.0
        for tq in (0.25, 0.5, 0.75, 1.0):
            j = int(round(tq / 1e-3))
            zs = surf.z[:, j]
            for i in (250, 400, 550):
                mid = (zs[i] + zs[i + 1]) / 2
                got = ch.evaluate_on_surface(surf, tq, mid)
                want = md.ou_cauchy(-1.0, 1.0, tq, mid)
                worst = max(worst, abs(got - want))
        assert worst < 1e-4

    def test_outside_hull(self):
        surf = self._ou_surface()
        with pytest.raises(OutsideSurface):
            ch.evaluate_on_surface(surf, 1.0, 100.0 + 1.0j)

    def test_off_curve_query_raises(self):
        # at t=1 the curves cross Re z = 1 near Im z = 0.43; the value
        # bracketed there (-0.679+0.707i) is not g(1+0.3i) = -0.794+0.761i
        surf = self._ou_surface()
        with pytest.raises(OutsideSurface):
            ch.evaluate_on_surface(surf, 1.0, 1.0 + 0.3j)

    def test_one_row_surface(self):
        # t_end = 0 leaves the start row alone, and t = 0 is in its range:
        # g = -1/z there, interpolated between the curves
        surf = self._ou_surface(t_end=0.0)
        assert surf.t_grid.tolist() == [0.0]
        assert ch.evaluate_on_surface(surf, 0.0, surf.z[500, 0]) == surf.g[500, 0]
        mid = (surf.z[500, 0] + surf.z[501, 0]) / 2
        assert abs(ch.evaluate_on_surface(surf, 0.0, mid) + 1.0 / mid) < 1e-5
        with pytest.raises(OutsideSurface):
            ch.evaluate_on_surface(surf, 0.1, mid)

    def test_time_out_of_range(self):
        surf = self._ou_surface()
        with pytest.raises(OutsideSurface):
            ch.evaluate_on_surface(surf, 2.0, 0.5j)

