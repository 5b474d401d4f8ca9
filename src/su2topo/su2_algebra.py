"""Pauli-matrix constants and closed-form Pauli kernels.

Generators follow the anti-Hermitian convention ``T_a = sigma_a / (2i)``;
every other module must take its constants from here so sign conventions
cannot drift.  For the same reason the Pauli contractions of spinors on
grids go through the closed-form kernels here: :func:`sigma_bilinear`
(``u^dag sigma_a v``), :func:`spinor_current` (the same with ``sigma_0 = 1``
prepended) and :func:`sigma_apply` (``(c_a sigma_a) v``).  They use only the
four nonzero entries of each ``sigma_a`` instead of a generic three-operand
einsum.

The kernels take component-major slabs (see
:func:`~su2topo.lattice.component_major`): axis 0 runs over planes, axis 1
over the spinor or color components, and the sites of a plane follow, so
each component is a contiguous array of a plane's sites and every ufunc
runs over those.  A quantity with a derivative axis, such as a jet, is
passed whole, in one call, as a view with the derivative axis moved
behind the component axis, where a spinor without one broadcasts over
it; the kernels write into ``out`` where given.  Each complex product
keeps its operands in the order of the one-axis form: numpy's complex
multiply is not commutative bit for bit.  ``self_check`` replays the algebraic identities
the rest of the package relies on and is executed once per process by the
CLI.
"""

from __future__ import annotations

import numpy as np

from .conventions import EPS3
from .errors import ReconstructionError

IDENTITY2 = np.eye(2, dtype=np.complex128)

SIGMA = np.array(
    [
        [[0.0, 1.0], [1.0, 0.0]],
        [[0.0, -1.0j], [1.0j, 0.0]],
        [[1.0, 0.0], [0.0, -1.0]],
    ],
    dtype=np.complex128,
)

#: Anti-Hermitian generators T_a = sigma_a / (2i).
GENERATORS = SIGMA / 2.0j

IDENTITY2.setflags(write=False)
SIGMA.setflags(write=False)
GENERATORS.setflags(write=False)


def sigma_bilinear(u: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``u^dag sigma_a v`` for component-major spinor slabs, the color axis
    ``a`` on axis 1, written into ``out`` (a new array if None) and
    returned.

    ``u`` and ``v`` have shape ``(planes, 2, ...)`` and broadcast; the
    result has shape ``(planes, 3, ...)``.
    """
    u0, u1 = np.conj(u).swapaxes(0, 1)
    v0, v1 = v[:, 0], v[:, 1]
    if out is None:
        shape = np.broadcast_shapes(u0.shape, v0.shape)
        out = np.empty(shape[:1] + (3,) + shape[1:], dtype=np.complex128)
    p01, p10 = np.multiply(u0, v1, out=out[:, 0]), u1 * v0
    np.subtract(p10, p01, out=out[:, 1])
    out[:, 1] *= 1j
    p01 += p10
    np.multiply(u0, v0, out=out[:, 2])
    out[:, 2] -= np.multiply(u1, v1, out=p10)
    return out


def spinor_current(u: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``u^dag sigma_A v`` with ``sigma_0 = 1``: the index ``A`` on axis 1,
    of length 4, written into ``out`` and returned.

    Shapes and broadcasting are those of :func:`sigma_bilinear`.  Entries
    1 to 3 are the result of :func:`sigma_bilinear` bit for bit: they are
    built from the same four products.
    """
    u0, u1 = np.conj(u).swapaxes(0, 1)
    v0, v1 = v[:, 0], v[:, 1]
    p01, p10 = np.multiply(u0, v1, out=out[:, 1]), u1 * v0
    np.subtract(p10, p01, out=out[:, 2])
    out[:, 2] *= 1j
    p01 += p10
    p00, p11 = np.multiply(u0, v0, out=out[:, 0]), np.multiply(u1, v1, out=p10)
    np.subtract(p00, p11, out=out[:, 3])
    p00 += p11
    return out


def sigma_apply(c: np.ndarray, v: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``(c_a sigma_a) v`` for real components ``c`` ``(planes, 3, ...)`` and
    spinors ``v`` ``(planes, 2, ...)``, which broadcast, written into
    ``out`` ``(planes, 2, ...)`` and returned."""
    c1, c2, c3 = c[:, 0], c[:, 1], c[:, 2]
    v0, v1 = v[:, 0], v[:, 1]
    ic2 = 1j * c2
    term = np.subtract(c1, ic2)
    term *= v1
    np.add(np.multiply(c3, v0, out=out[:, 0]), term, out=out[:, 0])
    np.add(c1, ic2, out=out[:, 1])
    out[:, 1] *= v0
    out[:, 1] -= np.multiply(c3, v1, out=term)
    return out


def parallel_components(current: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """A^a = -2 Im J^a of a component-major spinor current ``J``: shape
    ``(planes, rank, 3, ...)``, written into ``out`` (a new array if None)."""
    return np.multiply(current[:, :, 1:].imag, -2.0, out=out)


def _im_pair(dvalues: np.ndarray, j: int, k: int) -> np.ndarray:
    """Im (d_j Psi^dag d_k Psi) of component-major jets ``(planes, rank,
    2, ...)``, summed over the two spinor components."""
    re, im = dvalues.real, dvalues.imag
    return ((re[:, j, 0] * im[:, k, 0] - im[:, j, 0] * re[:, k, 0])
            + (re[:, j, 1] * im[:, k, 1] - im[:, j, 1] * re[:, k, 1]))


def _colour_dot(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """x^a y^a of component-major color vectors ``(planes, 3, ...)``, summed
    as (x^0 y^0 + x^2 y^2) + x^1 y^1: the order ``np.einsum('...a,...a->...')``
    takes on color-last rows, so the trace density keeps its bits."""
    return (x[:, 0] * y[:, 0] + x[:, 2] * y[:, 2]) + x[:, 1] * y[:, 1]


def _maxabs(x) -> float:
    return float(np.max(np.abs(x))) if np.size(x) else 0.0


def anticommutator_residual() -> float:
    """Largest violation of sigma_a sigma_b + sigma_b sigma_a = 2 delta_ab I."""
    res = 0.0
    for a in range(3):
        for b in range(3):
            anti = SIGMA[a] @ SIGMA[b] + SIGMA[b] @ SIGMA[a]
            res = max(res, _maxabs(anti - 2.0 * (a == b) * IDENTITY2))
    return res


def element_identity_residuals():
    """Violations of the two Pauli element identities.

    First: sigma_a^{ab} sigma_a^{cd} = 2 d_{ad} d_{cb} - d_{ab} d_{cd},
    checked over all 16 index tuples.  Second: the epsilon-weighted triple
    product
    eps_{abc} s_a^{ab} s_b^{cd} s_c^{ef}
      = -2i (d_{af} d_{cb'}... ) over all 64 tuples.
    """
    delta = np.eye(2)
    lhs1 = np.einsum("aij,akl->ijkl", SIGMA, SIGMA)
    rhs1 = 2.0 * np.einsum("il,kj->ijkl", delta, delta) - np.einsum(
        "ij,kl->ijkl", delta, delta)
    res1 = _maxabs(lhs1 - rhs1)

    lhs2 = np.einsum("abc,aij,bkl,cmn->ijklmn", EPS3, SIGMA, SIGMA, SIGMA)
    rhs2 = -2.0j * (
        np.einsum("il,kn,mj->ijklmn", delta, delta, delta)
        - np.einsum("in,ml,kj->ijklmn", delta, delta, delta)
    )
    res2 = _maxabs(lhs2 - rhs2)
    return res1, res2


_CHECKED = False


def self_check(force: bool = False) -> None:
    """Replay the Pauli identities once per process; raises on drift."""
    global _CHECKED
    if _CHECKED and not force:
        return
    res = anticommutator_residual()
    if res > 1e-15:
        raise ReconstructionError(f"anticommutator identity residual {res:.3e}")
    res1, res2 = element_identity_residuals()
    if res1 > 1e-15 or res2 > 1e-15:
        raise ReconstructionError(
            f"Pauli element identity residuals {res1:.3e}, {res2:.3e}")
    _CHECKED = True
