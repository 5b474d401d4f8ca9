"""A closed-form SU(2) gauge transformation for the gauge-covariance tests.

S = exp(theta_1 T_1) exp(theta_2 T_3), theta_i = k_i . x + c_i (seeded), is
non-abelian and varies in space.  As T_a^2 = -1/4, exp(theta T_a) =
cos(theta/2) + 2 sin(theta/2) T_a, d_m S = k1_m T_1 S + k2_m S T_3 and
d_n d_m S = -(k1_m k1_n + k2_m k2_n) S/4 + (k1_m k2_n + k2_m k1_n) T_1 S T_3.
"""

import numpy as np

import su2topo as st
from site_major import stored
from su2topo.su2_algebra import GENERATORS, SIGMA

T1, T3 = GENERATORS[0], GENERATORS[2]


def matrices(c):
    """The su(2) matrices c_a T_a of components c, the colour axis last."""
    return np.einsum("...a,aij->...ij", np.asarray(c, dtype=np.complex128), GENERATORS)


def components(m):
    """c_a = i tr(sigma_a M), the inverse of :func:`matrices`."""
    return (1j * np.einsum("...ij,aji->...a", m, SIGMA)).real


def dagger(x):
    return np.conj(np.swapaxes(x, -1, -2))


def transformation(grid, seed):
    """``(S, dS, d2S)`` on ``grid``, the derivative axes before the 2 x 2 ones."""
    rng = np.random.default_rng(seed)
    k = rng.normal(size=(2, grid.rank))
    half = (grid.points() @ k.T + rng.uniform(0, 2 * np.pi, 2))[..., None, None] / 2
    s = ((np.cos(half[..., 0, :, :]) * np.eye(2) + 2 * np.sin(half[..., 0, :, :]) * T1)
         @ (np.cos(half[..., 1, :, :]) * np.eye(2) + 2 * np.sin(half[..., 1, :, :]) * T3))
    k1, k2 = k[..., None, None]
    ds = k1 * (T1 @ s)[..., None, :, :] + k2 * (s @ T3)[..., None, :, :]
    pure, mixed = k.T @ k, np.outer(k[0], k[1]) + np.outer(k[1], k[0])
    d2s = (-0.25 * pure[..., None, None] * s[..., None, None, :, :]
           + mixed[..., None, None] * (T1 @ s @ T3)[..., None, None, :, :])
    return s, ds, d2s


def transform(psi, gauge, sjets):
    """``(S Psi, S A S^dag + (dS) S^dag)``, with exact jets, for ``(S, dS, d2S)``."""
    s, ds, d2s = sjets
    psi, gauge = stored(psi), stored(gauge)
    psi2 = st.SpinorField(psi.grid, np.einsum("...ij,...j->...i", s, psi.values),
                          jet=np.einsum("...mij,...j->...mi", ds, psi.values)
                          + np.einsum("...ij,...mj->...mi", s, psi.jet))
    a, da = matrices(gauge.values), matrices(gauge.jet)
    a2 = (s[..., None, :, :] @ a + ds) @ dagger(s)[..., None, :, :]
    # d_n (S A_m S^dag + d_m S S^dag), the derivative axis n before m
    sn, sdn = s[..., None, None, :, :], dagger(s)[..., None, None, :, :]
    dn, dsdn = ds[..., :, None, :, :], dagger(ds)[..., :, None, :, :]
    am, dm = a[..., None, :, :, :], ds[..., None, :, :, :]
    da2 = dn @ am @ sdn + sn @ (da @ sdn + am @ dsdn) + d2s @ sdn + dm @ dsdn
    return psi2, st.GaugeField(gauge.grid, components(a2), jet=components(da2))
