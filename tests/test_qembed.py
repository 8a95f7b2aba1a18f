"""Qubit embedding of Bernoulli dynamics: rotations, channels, rates."""

import numpy as np
import pytest

from stochres.errors import InvalidInput, InvalidState, OutOfRange, SingularPath
from stochres.qembed import (
    PAULI_X,
    assert_density,
    bernoulli_channel,
    channel_matrix,
    correlated_flip_check,
    rotation_pair,
    unvec,
    vec,
    verification_report,
    verify_rate_relation,
)


def random_density(gen, dim=2):
    a = gen.normal(size=(dim, dim)) + 1j * gen.normal(size=(dim, dim))
    rho = a @ a.conj().T
    return rho / np.trace(rho).real


# --- rotation pair -----------------------------------------------------------

def test_rotation_pair_limits():
    pair = rotation_pair(1.0)
    np.testing.assert_allclose(pair.u1, np.eye(2), atol=1e-14)
    np.testing.assert_allclose(pair.u2, np.eye(2), atol=1e-14)
    pair0 = rotation_pair(0.0)
    np.testing.assert_allclose(pair0.u1, -1j * PAULI_X, atol=1e-14)
    assert abs(pair0.theta - np.pi / 2) < 1e-14


def test_rotation_pair_quarter():
    pair = rotation_pair(0.25)
    assert abs(pair.theta - np.pi / 3) < 1e-14
    expected = np.cos(np.pi / 3) * np.eye(2) - 1j * np.sin(np.pi / 3) * PAULI_X
    np.testing.assert_allclose(pair.u1, expected, atol=1e-14)
    for u in (pair.u1, pair.u2):
        assert np.max(np.abs(u @ u.conj().T - np.eye(2))) < 1e-14


def test_rotation_pair_range_check():
    with pytest.raises(OutOfRange):
        rotation_pair(1.2)


# --- channel ------------------------------------------------------------------

def test_channel_diagonal_weights_basis_state():
    zero = np.zeros((2, 2), dtype=complex)
    zero[0, 0] = 1.0
    out = bernoulli_channel(0.25, zero)
    assert abs(out[0, 0].real - 0.25) < 1e-12
    assert abs(out[1, 1].real - 0.75) < 1e-12
    assert abs(out[0, 1]) < 1e-12  # coherences cancel between the two rotations


def test_channel_fixes_maximally_mixed_state():
    mixed = 0.5 * np.eye(2, dtype=complex)
    for p in (0.0, 0.3, 0.9):
        np.testing.assert_allclose(bernoulli_channel(p, mixed), mixed, atol=1e-13)


def test_channel_outputs_valid_states():
    gen = np.random.default_rng(1)
    for _ in range(50):
        out = bernoulli_channel(float(gen.uniform(0, 1)), random_density(gen))
        assert_density(out)


def test_vectorized_and_direct_routes_agree():
    gen = np.random.default_rng(2)
    pair_residual = 0.0
    for _ in range(100):
        p = float(gen.uniform(0, 1))
        rho = random_density(gen)
        pair = rotation_pair(p)
        direct = 0.5 * (pair.u1 @ rho @ pair.u1.conj().T
                        + pair.u2 @ rho @ pair.u2.conj().T)
        vectorized = unvec(channel_matrix(p) @ vec(rho))
        pair_residual = max(pair_residual, float(np.max(np.abs(direct - vectorized))))
    assert pair_residual < 1e-12


def test_vec_column_stacking_convention():
    rho = np.array([[1, 2], [3, 4]], dtype=complex)
    np.testing.assert_array_equal(vec(rho), [1, 3, 2, 4])
    np.testing.assert_array_equal(unvec(vec(rho)), rho)


def test_channel_rejects_invalid_states():
    with pytest.raises(InvalidState):
        bernoulli_channel(0.5, np.array([[1.0, 0.5], [0.2, 0.0]]))
    with pytest.raises(InvalidState):
        bernoulli_channel(0.5, np.eye(2))  # trace 2


# --- rate relation --------------------------------------------------------------

def test_rate_relation_constant_path():
    assert verify_rate_relation(np.full(100, 0.4), 1e-3) < 1e-12


def test_rate_relation_cosine_squared():
    dt = 1e-4
    t = np.arange(0.1, 1.4, dt)
    assert verify_rate_relation(np.cos(t) ** 2, dt) < 1e-6


def test_rate_relation_linear_path_closed_form():
    dt = 1e-4
    t = np.arange(0.1, 0.9, dt)
    dev = verify_rate_relation(t.copy(), dt)
    assert dev < 1e-6  # d(sqrt t)/dt = 1/(2 sqrt t) exactly


def test_rate_relation_second_order_convergence():
    devs = []
    for dt in (2e-3, 1e-3, 5e-4):
        t = np.arange(0.1, 1.4, dt)
        devs.append(verify_rate_relation(np.cos(t) ** 2, dt))
    orders = np.log2(np.array(devs[:-1]) / np.array(devs[1:]))
    assert np.all((orders > 1.7) & (orders < 2.3))


def test_rate_relation_rejects_zero_touching_path():
    with pytest.raises(SingularPath):
        verify_rate_relation(np.array([0.5, 0.0, 0.5]), 1e-2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_rate_relation_rejects_a_nonfinite_path(bad):
    with pytest.raises(InvalidInput, match="finite path"):
        verify_rate_relation(np.array([0.5, bad, 0.5, 0.4]), 1e-2)


@pytest.mark.parametrize("dt", [np.nan, np.inf, 0.0, -1e-3])
def test_rate_relation_rejects_a_nonfinite_or_nonpositive_step(dt):
    with pytest.raises(InvalidInput, match="dt must be (finite|> 0)"):
        verify_rate_relation(np.cos(np.arange(0.1, 1.4, 1e-2)) ** 2, dt)


# --- correlated flips --------------------------------------------------------

def test_correlated_flip_identity_at_zero_angle():
    res = correlated_flip_check(0.0)
    np.testing.assert_allclose(res["populations"], [1, 0, 0, 0], atol=1e-14)


def test_correlated_flip_full_transfer():
    res = correlated_flip_check(np.pi / 2)
    np.testing.assert_allclose(res["populations"], [0, 0, 0, 1], atol=1e-14)


def test_correlated_flip_partial_transfer_stays_on_diagonal_pair():
    res = correlated_flip_check(np.pi / 6)
    assert abs(res["p11"] - 0.25) < 1e-12  # sin^2(pi/6)
    assert res["leakage"] < 1e-12


@pytest.mark.parametrize("theta", [np.nan, np.inf, -np.inf])
def test_correlated_flip_rejects_a_nonfinite_angle(theta):
    with pytest.raises(InvalidInput, match="theta must be finite"):
        correlated_flip_check(theta)


# --- whole suite ----------------------------------------------------------------

def test_verification_report_passes_at_default_tolerance():
    report = verification_report()
    assert report["passed"]
    for name, check in report["checks"].items():
        assert check["passed"], name
    assert 1.7 <= report["checks"]["rate_relation"]["order"] <= 2.3
