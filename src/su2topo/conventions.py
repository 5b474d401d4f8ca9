"""Index and orientation conventions shared by every density kernel.

All antisymmetric contractions use Levi-Civita symbols with
``eps[0, 1, ...] = +1`` in grid-axis order.  On the hyperspherical chart of
the unit 3-sphere the axis order is (chi, theta, phi) with

    n0 = cos(chi)
    n1 = sin(chi) cos(theta)
    n2 = sin(chi) sin(theta) cos(phi)
    n3 = sin(chi) sin(theta) sin(phi)

``ORIENTATION_SIGN`` is the single global calibration applied to every
density (Chern-Simons, Abelian, Chern).  It is fixed once by requiring the
identity chart of the 3-sphere to carry knot charge +1, and is stored here
so the volume, boundary and zero-ledger routes cannot drift apart.  With
the conventions above the calibration works out to +1.
"""

from __future__ import annotations

import itertools

import numpy as np

#: Global sign calibrating all densities to the degree-(+1) reference map.
ORIENTATION_SIGN = 1.0

#: Antisymmetric index pairs (mu < nu) of a rank-4 grid, in storage order.
PAIRS4 = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def levi_civita(n: int) -> np.ndarray:
    """Dense rank-``n`` Levi-Civita symbol with eps[0,1,...,n-1] = +1."""
    eps = np.zeros((n,) * n)
    for perm in itertools.permutations(range(n)):
        sign = 1
        for i in range(n):
            for j in range(i + 1, n):
                if perm[i] > perm[j]:
                    sign = -sign
        eps[perm] = sign
    return eps


EPS3 = levi_civita(3)
EPS3.setflags(write=False)
