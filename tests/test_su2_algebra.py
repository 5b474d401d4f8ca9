import numpy as np
import pytest

from su2topo import su2_algebra as alg


def test_generators_are_anti_hermitian_traceless():
    t = alg.GENERATORS
    assert np.max(np.abs(t + np.conj(np.swapaxes(t, -1, -2)))) <= 1e-12
    assert np.max(np.abs(np.trace(t, axis1=-2, axis2=-1))) <= 1e-12


def test_anticommutator_identity():
    assert alg.anticommutator_residual() <= 1e-15


def test_element_identities_all_tuples():
    res1, res2 = alg.element_identity_residuals()
    assert res1 <= 1e-15
    assert res2 <= 1e-15


def test_self_check_runs():
    alg.self_check(force=True)


def _random_spinors(rng, shape):
    """Component-major spinor slabs ``(shape[0], 2, *shape[1:])``."""
    shape = shape[:1] + (2,) + shape[1:]
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def _site(x):
    """A component-major array with its component axis moved last."""
    return np.moveaxis(x, 1, -1)


def _bilinear_reference(u, v, sigma=alg.SIGMA):
    return np.moveaxis(np.einsum("...i,aij,...j->...a", np.conj(_site(u)), sigma,
                                 _site(v)), -1, 1)


def _apply_reference(c, v, sigma=alg.SIGMA):
    return np.moveaxis(np.einsum("...a,aij,...j->...i", _site(c), sigma, _site(v)), -1, 1)


def _kernel_cases(seed):
    """(u, v) pairs of component-major slabs: same-shape slabs, one spinor
    per site against a slab that broadcasts over the planes, and rows
    with no plane axes."""
    rng = np.random.default_rng(seed)
    psi = _random_spinors(rng, (4, 5, 6))
    return [(psi, 3.0 * _random_spinors(rng, (4, 5, 6))),
            (psi, _random_spinors(rng, (1, 5, 6))),
            (_random_spinors(rng, (7,)), _random_spinors(rng, (7,)))]


def _deviation(got, ref, *operands):
    scale = np.prod([np.max(np.abs(x)) for x in operands])
    return np.max(np.abs(got - ref)) / scale


@pytest.mark.parametrize("seed", range(3))
def test_sigma_bilinear_matches_einsum(seed):
    for u, v in _kernel_cases(seed):
        got = alg.sigma_bilinear(u, v)
        ref = _bilinear_reference(u, v)
        assert got.shape == ref.shape
        assert _deviation(got, ref, u, v) <= 1e-15


@pytest.mark.parametrize("seed", range(3))
def test_sigma_apply_matches_einsum(seed):
    rng = np.random.default_rng(100 + seed)
    for _, v in _kernel_cases(seed):
        c = rng.normal(size=v.shape[:1] + (3,) + v.shape[2:])
        got = alg.sigma_apply(c, v, np.empty(v.shape, dtype=complex))
        ref = _apply_reference(c, v)
        assert got.shape == ref.shape
        assert _deviation(got, ref, c, v) <= 1e-15


@pytest.mark.parametrize("a", range(3))
def test_kernel_comparison_catches_one_flipped_sigma(a):
    flipped = alg.SIGMA.copy()
    flipped[a] *= -1.0
    u, v = _kernel_cases(7)[0]
    c = np.random.default_rng(7).normal(size=v.shape[:1] + (3,) + v.shape[2:])
    assert _deviation(alg.sigma_bilinear(u, v), _bilinear_reference(u, v, flipped),
                      u, v) > 1e-2
    assert _deviation(alg.sigma_apply(c, v, np.empty(v.shape, dtype=complex)),
                      _apply_reference(c, v, flipped),
                      c, v) > 1e-2


@pytest.mark.parametrize("seed", range(3))
def test_spinor_current_extends_sigma_bilinear(seed):
    for u, v in _kernel_cases(seed):
        shape = np.broadcast_shapes(u.shape, v.shape)
        out = np.full(shape[:1] + (4,) + shape[2:], np.nan, dtype=complex)
        current = alg.spinor_current(u, v, out)
        assert current is out
        assert np.array_equal(current[:, 1:], alg.sigma_bilinear(u, v))
        j0 = np.einsum("...c,...c->...", np.conj(_site(u)), _site(v))
        assert _deviation(current[:, 0], j0, u, v) <= 1e-15
