"""Isolated zeros of the 4-vector field and the charge ledger.

The map x -> phi(x) in R^4 concentrates the whole second Chern number at
its isolated zeros.  Each zero x_j carries a Brouwer degree eta_j = +-1
(the orientation, sign of the Jacobian at regular zeros) and a Hopf index
beta_j >= 1 (the covering multiplicity); their product is the local degree
d_j measured as a surface integral over a small 3-sphere:

    d_j = 1/(2 pi^2) Int det[n, d_chi n, d_theta n, d_phi n] dchi dtheta dphi

with n = phi/|phi| sampled on the sphere.  The ledger then states
C_2 = sum_j beta_j eta_j and cross-checks it against the Chern-Simons flux
of the unit spinor through the 8 faces of the box, the degree density of
n on the faces, which by Stokes is the
same C_2 computed from the boundary alone; the sum doubles as the Euler
characteristic through the top Chern class.

Zero search: 4-cells where every component changes sign across the 16
corners seed damped Newton iterations (sign screening over-fires on coarse
grids, so Newton is the arbiter).  The screen works on the rank-4 layout
of the per-slab kernels, component-major ``(planes, 4, n1, n2, n3)``
(:func:`~su2topo.lattice.component_major`), so each test runs over whole
planes of sites: a cell spans 0 in a component when some corner is <= 0
and some corner is >= 0, two boolean tests OR-reduced over the corners
one axis at a time, as pairwise passes over neighbouring slices (rolled on
periodic axes), and the norms are summed over the component planes.  It
reads phi's values one axis-0 slab (:func:`~su2topo.lattice.slabs`) at a
time, through :meth:`~su2topo.lattice.LatticeField.values_at`, so a
generated field computes each plane once and never holds its values
whole (a box field serves its blocks component-major already, so taking
them so costs no copy): each slab's cells are screened with the one plane
carried from the slab before, and the slabs' candidates, concatenated in
order, are the whole-grid ones in row-major order.

Newton reads phi through one evaluator that returns values and derivative
stacks together: the analytic sampler attached by the generators, which
gives machine-precision roots, or for lattice-only fields the multilinear
interpolant and its exact gradient, with O(h^2) positions, read from the
bounding block of the points only.  Sphere sampling needs values only: it
calls the sampler with ``jet=False``, or plain interpolation, on one
chi-slab of the sphere chart at a time, and the chart derivatives of n
and the determinants of the 4x4 matrices [n, d n] (the faces' kernel)
follow a slab behind,
summed as they are swept, so no attempt holds more of the sphere than a
few slabs.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .chern_density import _det4, boundary_degree, check_flux_box
from .errors import DegreeResolutionError, FieldError, LatticeError, ZeroLocationError
from .fields import PhiField, _finite_max, _norms
from .generators import s3_chart_grid, s3_points
from .lattice import (Grid, Quadrature, component_major, derivative_stack,
                      interpolate, interpolate_with_gradient, interpolation_window,
                      slabs, stencil_windows)

DEGENERACY_TOL = 1e-8
NEWTON_TOL = 1e-10           # |phi| at an accepted (refined) zero
NEWTON_MAX_ITER = 40
SPHERE_RESOLUTION = (32, 32, 64)   # (chi, theta, phi) samples, first attempt
SPHERE_REFINEMENTS = 2       # resolution doublings before a degree is rejected


@dataclass(frozen=True)
class ZeroPoint:
    """A located zero with its local topological data."""

    position: tuple
    cell_index: tuple
    refined: bool
    phi_norm: float
    jacobian: float
    degree: int | None = None
    beta: int | None = None
    eta: int | None = None
    degenerate: bool = False
    degree_deviation: float | None = None


@dataclass(frozen=True)
class ZeroSearch:
    """Zero-location result: accepted zeros plus suspicious cells.

    A suspicious cell passed the sign screen but its Newton iteration did
    not converge inside the cell neighborhood; it is reported, never
    silently dropped.
    """

    zeros: tuple
    suspicious_cells: tuple


def _evaluator(phi: PhiField):
    """``points (n, 4) -> (values (n, 4), jacobians (n, 4, 4))`` of phi."""
    if phi.sampler is not None:
        return phi.sampler
    return _interpolant(phi, interpolate_with_gradient)


def _values_evaluator(phi: PhiField):
    """``points (n, 4) -> values (n, 4)`` of phi, for sphere sampling."""
    if phi.sampler is not None:
        return lambda pts: phi.sampler(pts, jet=False)[0]
    return _interpolant(phi, interpolate)


def _interpolant(phi: PhiField, interpolator):
    """``interpolator`` (:func:`~su2topo.lattice.interpolate` or its
    gradient form) of phi's samples at the points, read on the bounding
    block of the points only (:func:`~su2topo.lattice.interpolation_window`)
    through :meth:`~su2topo.lattice.LatticeField.values_at`; the corners
    are shifted into the block, so every value is the whole-grid one bit
    for bit."""
    def evaluate(points):
        take = interpolation_window(phi.grid, points)
        return interpolator(_window(phi.values_at, take), phi.grid, points,
                            [int(t[0]) for t in take])
    return evaluate


def _value_and_matrix(evaluate, x: np.ndarray):
    """phi(x) and the 4x4 matrix J[a, mu] = d phi^a / d x^mu at one point."""
    values, jacobians = evaluate(x[None])
    return np.asarray(values)[0], np.asarray(jacobians)[0].T


def _newton(evaluate, x0: np.ndarray, bounds):
    """Damped Newton iteration toward phi(x) = 0 inside a cell neighborhood.

    ``evaluate`` is an :func:`_evaluator`; each step uses the Jacobian from
    the evaluation that accepted its starting point.  Returns ``(x,
    |phi(x)|, converged, J(x))``.
    """
    lo, hi = bounds
    x = x0.copy()
    fx, jx = _value_and_matrix(evaluate, x)
    best = float(np.linalg.norm(fx))
    for _ in range(NEWTON_MAX_ITER):
        if best < NEWTON_TOL:
            break
        try:
            step = np.linalg.solve(jx, fx)
        except np.linalg.LinAlgError:
            step = np.linalg.lstsq(jx, fx, rcond=None)[0]
        lam = 1.0
        moved = False
        while lam > 2.0**-10:
            xn = x - lam * step
            if np.all(xn >= lo) and np.all(xn <= hi):
                try:
                    fn, jn = _value_and_matrix(evaluate, xn)
                except LatticeError:
                    fn = None
                if fn is not None:
                    nn = float(np.linalg.norm(fn))
                    if nn < best * (1.0 - 0.25 * lam) or nn < NEWTON_TOL:
                        x, fx, jx, best, moved = xn, fn, jn, nn, True
                        break
            lam *= 0.5
        if not moved:
            break
    return x, best, best < NEWTON_TOL, jx


def _cell_mask(lower: np.ndarray, upper: np.ndarray, grid: Grid) -> np.ndarray:
    """The sign-change mask of the rows of cells between the component-major
    axis-0 site planes ``lower`` ``(rows, 4, ...)`` and the planes ``upper``
    one step above them (a cell spans sites k and k+1 on each axis, and
    k+1 wraps on periodic axes).

    A cell spans 0 in a component when some corner is <= 0 and some
    corner is >= 0: the closed range min <= 0 <= max, so a zero whose
    coordinates lie on lattice planes, where a component is exactly 0 on
    a whole plane of corners, still marks the cells around it; Newton and
    the half-cell deduplication settle the extra candidates.  Both tests
    are OR-reduced over the corners one axis at a time, pairwise over
    neighbouring slices: 4 passes instead of 16 corner copies.  On finite
    values, the only ones :meth:`~su2topo.lattice.LatticeField.values_at`
    serves, this is the corner min/max rule exactly.
    """
    low = (lower <= 0.0) | (upper <= 0.0)
    high = (lower >= 0.0) | (upper >= 0.0)
    for ax in range(1, grid.rank):
        axis = ax + 1                      # the components are axis 1
        if grid.periodic[ax]:
            low |= np.roll(low, -1, axis=axis)
            high |= np.roll(high, -1, axis=axis)
        else:
            lo = (slice(None),) * axis + (slice(None, -1),)
            hi = (slice(None),) * axis + (slice(1, None),)
            low = low[lo] | low[hi]
            high = high[lo] | high[hi]
    span = low & high
    return span[:, 0] & span[:, 1] & span[:, 2] & span[:, 3]


def _screen(phi: PhiField):
    """The Newton starts of the zero search: ``(cells, sites)``, index arrays
    ``(k, 4)`` in row-major order.

    ``cells`` are the 4-cells whose 16 corners span 0 in every component
    (:func:`_cell_mask`) and ``sites`` the lattice sites where |phi| <
    1e-9 max(1, max|phi|).  Both are taken from phi's values one axis-0
    slab (:func:`~su2topo.lattice.slabs`) at a time, as
    :meth:`~su2topo.lattice.LatticeField.values_at` serves them, taken
    component-major (:func:`~su2topo.lattice.component_major`, no copy for
    a box field's blocks), so each plane is read once: when a slab
    arrives, the row of cells between the last plane of the slab before,
    carried on, and its first plane is screened, then the rows between its
    own planes (on a periodic axis 0 the first plane is kept too, for the
    row that wraps).  A slab's norms are taken again only when its
    smallest norm is below that threshold, which is known once every slab
    is seen.  The lists are those of ``np.argwhere`` on the whole-grid
    masks.
    """
    grid = phi.grid
    cells, lows = [], []
    top = 0.0
    first = carried = None

    def screen(lower, upper, row):
        cells.append(np.argwhere(_cell_mask(lower, upper, grid)) + (row, 0, 0, 0))

    for slab in slabs(grid):
        block = component_major(phi.values_at(slab), 4)
        if carried is not None:
            screen(carried, block[:1], slab.start - 1)
        screen(block[:-1], block[1:], slab.start)
        norms = _norms(block)
        top = max(top, _finite_max(norms, "phi", slab.start))
        lows.append((slab, float(np.min(norms))))
        carried = block[-1:]
        if first is None and grid.periodic[0]:
            first = block[:1]
    if first is not None:
        screen(carried, first, grid.shape[0] - 1)
    site_tol = 1e-9 * max(1.0, top)
    sites = [np.argwhere(_norms(component_major(phi.values_at(slab), 4)) < site_tol)
             + (slab.start, 0, 0, 0) for slab, low in lows if low < site_tol]
    return np.concatenate(cells), np.concatenate([np.empty((0, 4), int)] + sites)


def locate_zeros(phi: PhiField) -> ZeroSearch:
    """Find the isolated zeros of phi on a rank-4 grid.

    Candidate cells are 4-cells whose 16 corners span 0 in every
    component; lattice sites where phi itself (nearly) vanishes seed
    candidates directly.  Accepted zeros are deduplicated at half a cell
    width; two surviving zeros within one cell width mean the grid cannot
    separate them and raise :class:`ZeroLocationError`.  A zero's
    ``jacobian`` is det J from the sampler's last Newton evaluation, or for
    lattice-only fields the site Jacobians det[d_mu phi^a] interpolated at
    the zero (:func:`_zero_jacobian`).
    """
    grid = phi.grid
    if grid.rank != 4:
        raise FieldError("zero location needs a rank-4 grid")
    hmax = max(grid.spacing)
    cells, seed_sites = _screen(phi)

    evaluate = _evaluator(phi)
    starts = []
    offset = 0.5 if grid.cell_centered else 0.0
    for cell in cells:
        center = np.array([grid.origin[i] + (cell[i] + 0.5 + offset) * grid.spacing[i]
                           for i in range(4)])
        starts.append((tuple(int(c) for c in cell), center))
    for site in seed_sites:
        point = np.array([grid.origin[i] + (site[i] + offset) * grid.spacing[i]
                          for i in range(4)])
        starts.append((tuple(int(c) for c in site), point))

    accepted = []
    suspicious = []
    for cell, center in starts:
        half = np.array([1.5 * h for h in grid.spacing])
        bounds = (center - half, center + half)
        x, fnorm, ok, jmat = _newton(evaluate, center, bounds)
        if ok:
            accepted.append((cell, x, fnorm, jmat))
        else:
            suspicious.append(cell)

    accepted.sort(key=lambda item: item[0])
    unique = []
    for cell, x, fnorm, jmat in accepted:
        for _, ux, _, _ in unique:
            if np.linalg.norm(x - ux) < 0.5 * hmax:
                break
        else:
            unique.append((cell, x, fnorm, jmat))

    for i in range(len(unique)):
        for j in range(i + 1, len(unique)):
            dist = np.linalg.norm(unique[i][1] - unique[j][1])
            if dist < hmax:
                raise ZeroLocationError(
                    f"two zeros separated by {dist:.3e} < cell width {hmax:.3e}; "
                    "refine the grid to separate them")

    zeros = []
    for cell, x, fnorm, jmat in unique:
        if phi.sampler is not None:
            det = float(np.linalg.det(jmat))
        else:
            det = _zero_jacobian(phi, x)
        zeros.append(ZeroPoint(position=tuple(float(v) for v in x),
                               cell_index=cell, refined=fnorm < NEWTON_TOL,
                               phi_norm=fnorm, jacobian=det))
    return ZeroSearch(tuple(zeros), tuple(suspicious))


def _zero_jacobian(phi: PhiField, x: np.ndarray) -> float:
    """det[d_mu phi^a] interpolated at ``x`` from the 16 sites that
    interpolation reads, without the whole-grid Jacobian.

    The site Jacobians are ``np.linalg.det`` of the jet of a 4^4 window
    that holds every corner with the stencil neighbours it has in the full
    grid: the exact jet, else second-order differences of the window's
    values (read only then).  The corners sit where the window's stencils
    are those of the full grid (the interior stencil, or the one-sided one
    on a true boundary), so each determinant is the full-grid one.  The
    window is read through
    :meth:`~su2topo.lattice.LatticeField.values_at` or
    :meth:`~PhiField.exact_jet`, one block per run of consecutive sites on
    each axis (two on an axis where the window wraps).  A determinant that
    is not finite raises :class:`FieldError`.
    """
    grid = phi.grid
    take = []
    for axis, corner in enumerate(interpolation_window(grid, x[None])):
        b, n = int(corner[0]), grid.shape[axis]
        if grid.periodic[axis]:
            take.append((b - 1 + np.arange(4)) % n)
        else:
            start = min(max(b - 1, 0), n - 4)
            take.append(np.arange(start, start + 4))
    jet = _window(phi.exact_jet, take)
    if jet is None:
        jet = derivative_stack(_window(phi.values_at, take),
                               Grid((4,) * 4, (0.0,) * 4, grid.spacing, (False,) * 4))
    with np.errstate(over="ignore", invalid="ignore"):
        det = np.linalg.det(jet)
    if not np.all(np.isfinite(det)):
        raise FieldError("the Jacobian determinant is not finite near the zero at "
                         f"{tuple(float(v) for v in x)}")
    return float(interpolate(det, grid, x[None], [int(t[0]) for t in take])[0])


def _window(read, take) -> np.ndarray | None:
    """``read`` (a field's ``values_at`` or ``exact_jet``) of the block of
    per-axis sites ``take``, whose sites run consecutively on each axis but
    may wrap once past the end, or None where ``read`` gives None."""
    runs = []
    for t in take:
        cut = int(np.argmin(t))        # where a wrapped run restarts at 0
        runs.append([(slice(lo, hi), slice(int(t[lo]), int(t[lo]) + hi - lo))
                     for lo, hi in ((0, cut), (cut, len(t))) if hi > lo])
    out = None
    for parts in itertools.product(*runs):
        block = read(tuple(source for _, source in parts))
        if block is None:
            return None
        if out is None:
            out = np.empty(tuple(map(len, take)) + block.shape[len(take):], block.dtype)
        out[tuple(target for target, _ in parts)] = block
    return out


def surface_degree(evaluate, center, radius: float):
    """Degree of phi/|phi| over the 3-sphere of ``radius`` around ``center``.

    ``evaluate`` maps points ``(n, 4)`` to values ``(n, 4)``.  The sphere
    is sampled on the cell-centered hyperspherical chart
    :func:`~su2topo.generators.s3_chart_grid`, starting at
    ``SPHERE_RESOLUTION``; the angular resolution doubles automatically
    while the rounding deviation exceeds 0.1, up to ``SPHERE_REFINEMENTS``
    times, and a deviation that stays >= 0.2 raises
    :class:`DegreeResolutionError`.  Each attempt evaluates phi on one
    chi-slab of the chart (:func:`~su2topo.lattice.slabs`) at a time and
    takes the three chart derivatives of n a slab behind, on the slab's own
    n and the held planes next to it that their stencils read
    (:func:`~su2topo.lattice.stencil_windows`; chi and theta open, phi
    periodic), and the determinants of the 4x4 matrices
    [n, d n] are fed to a :class:`~su2topo.lattice.Quadrature` slab by
    slab, so no array of the whole sphere is kept; each determinant, and
    the sum, which does not depend on the slabs, equals the whole-sphere
    evaluation bit for bit.

    Returns ``(degree, raw_value, deviation)``.
    """
    center = np.asarray(center, dtype=np.float64)
    resolution = SPHERE_RESOLUTION
    for attempt in range(SPHERE_REFINEMENTS + 1):
        agrid = s3_chart_grid(resolution)
        quadrature = Quadrature(agrid)
        for slab, (n,), (held,) in stencil_windows(
                agrid, 2, _sphere_slabs(evaluate, center, radius, agrid)):
            quadrature.add(slab, _slab_dets(n, held, agrid, slab))
        value = quadrature.total() / (2.0 * np.pi**2)
        degree = int(np.rint(value))
        deviation = abs(value - degree)
        if deviation <= 0.1 or attempt == SPHERE_REFINEMENTS:
            if deviation >= 0.2:
                raise DegreeResolutionError(
                    f"surface degree {value:.4f} not near an integer at "
                    f"resolution {resolution}")
            return degree, value, deviation
        resolution = tuple(2 * r for r in resolution)
    raise AssertionError("unreachable")


def _slab_dets(n: np.ndarray, held: dict, agrid: Grid, slab: slice) -> np.ndarray:
    """det[n, d n] (:func:`~su2topo.chern_density._det4`) on the planes
    ``slab`` of the sphere chart, from their component-major n and the
    ``held`` planes next to them that the stencils read."""
    dn = derivative_stack(n, agrid, 2, slab, held, components_first=True)
    return _det4(n, dn[:, 0], dn[:, 1], dn[:, 2])


def _sphere_slabs(evaluate, center: np.ndarray, radius: float, agrid: Grid):
    """Yield ``(slab, [n])`` for each chi-slab of the sphere chart
    ``agrid``: n = phi/|phi| at the slab's points, component-major, for
    :func:`~su2topo.lattice.stencil_windows`."""
    for slab in slabs(agrid):
        points = center + radius * s3_points(agrid, slab)
        samples = component_major(
            np.asarray(evaluate(points.reshape(-1, 4))).reshape(points.shape), 3)
        norms = _norms(samples)
        if np.min(norms) <= 0.0 or not np.all(np.isfinite(norms)):
            raise ZeroLocationError(
                "phi vanishes on the sampling sphere; another zero within radius")
        yield slab, [samples / norms[:, None]]


def _check_sphere_inside(grid: Grid, center, radius: float) -> None:
    """Raise :class:`ZeroLocationError` when the sphere of ``radius`` around
    ``center`` reaches past the first or last sites of an open axis.

    The rule is checked before any sampling, so a field with an analytic
    sampler, which could evaluate outside the box, gets the same verdict
    as a lattice-only one, whose interpolant cannot.
    """
    for axis in range(grid.rank):
        coords = grid.coords(axis)
        if not grid.periodic[axis] and (center[axis] - radius < coords[0]
                                        or center[axis] + radius > coords[-1]):
            # 6 digits: the two evaluators refine a zero to different last bits
            where = ", ".join(f"{float(x):.6g}" for x in center)
            raise ZeroLocationError(
                f"sampling sphere of radius {radius:.3e} around ({where}) leaves "
                "the domain; zeros this close to the boundary are rejected")


def local_degree(phi: PhiField, zero: ZeroPoint,
                 radius: float | None = None) -> ZeroPoint:
    """Classify one zero: local degree d, Hopf index beta, Brouwer degree eta.

    For regular zeros (|Jacobian| above 1e-8) eta is the Jacobian sign and
    beta = |d|; at degenerate zeros the Jacobian-sign definition does not
    apply, so eta falls back to sign(d) and the degeneracy flag is set.
    A degree of zero marks a non-topological sign-change artifact; it is
    returned (degree 0) and later excluded from the ledger with a warning.
    """
    grid = phi.grid
    if radius is None:
        radius = 3.0 * max(grid.spacing)
    _check_sphere_inside(grid, zero.position, radius)
    degree, value, deviation = surface_degree(_values_evaluator(phi),
                                              zero.position, radius)
    if degree == 0:
        return replace(zero, degree=0, beta=None, eta=None,
                       degenerate=abs(zero.jacobian) <= DEGENERACY_TOL,
                       degree_deviation=deviation)
    beta = abs(degree)
    if abs(zero.jacobian) > DEGENERACY_TOL:
        eta = int(np.sign(zero.jacobian))
        degenerate = False
        if eta * beta != degree:
            warnings.warn(
                f"Jacobian sign {eta} conflicts with surface degree {degree} "
                f"at {zero.position}; treating the zero as degenerate")
            eta = int(np.sign(degree))
            degenerate = True
    else:
        eta = int(np.sign(degree))
        degenerate = True
    return replace(zero, degree=degree, beta=beta, eta=eta,
                   degenerate=degenerate, degree_deviation=deviation)


@dataclass(frozen=True)
class Ledger:
    """The zero ledger against the boundary-flux second Chern number."""

    zeros: tuple
    index_sum: int
    boundary_c2: float
    discrepancy: float
    tolerance: float
    passed: bool

    @property
    def chi(self) -> int:
        """Euler characteristic alias: identical to the index sum."""
        return self.index_sum


def charge_ledger(zeros, boundary_c2: float, tolerance: float = 0.05) -> Ledger:
    """Assemble the ledger sum and compare with the boundary-flux value.

    Zeros with degree 0 are excluded (with a warning); the FAIL state is
    carried in ``passed``, never swallowed.
    """
    kept = []
    for zero in zeros:
        if zero.degree is None:
            raise FieldError("ledger needs classified zeros (run local_degree)")
        if zero.degree == 0:
            warnings.warn(f"zero at {zero.position} has surface degree 0; "
                          "excluded from the ledger")
            continue
        kept.append(zero)
    kept.sort(key=lambda z: z.cell_index)
    index_sum = int(sum(z.beta * z.eta for z in kept))
    discrepancy = abs(boundary_c2 - index_sum)
    return Ledger(zeros=tuple(kept), index_sum=index_sum, boundary_c2=boundary_c2,
                  discrepancy=discrepancy, tolerance=tolerance,
                  passed=bool(discrepancy < tolerance))


@dataclass(frozen=True)
class LedgerAnalysis:
    """Full zero-ledger pipeline output."""

    ledger: Ledger
    search: ZeroSearch


def analyze(phi: PhiField, ledger_tol: float = 0.05) -> LedgerAnalysis:
    """Locate zeros, classify them, and check the ledger against the boundary.

    Each zero's degree sphere has a radius of three cell widths, shrunk to
    0.45 of the smallest zero separation.  The ledger sum is compared with
    :func:`~su2topo.chern_density.boundary_degree` of phi, which reads only
    the 8 faces of the box: the two sides share no computed quantity but
    the determinant kernel, so a missed or misclassified zero shows as a
    discrepancy.  A grid whose faces
    cannot be summed is rejected before the search.  The zeros are
    classified one after another, in the search's order.
    """
    check_flux_box(phi.grid)
    search = locate_zeros(phi)
    radius = 3.0 * max(phi.grid.spacing)
    positions = [np.asarray(z.position) for z in search.zeros]
    if len(positions) > 1:
        gap = min(np.linalg.norm(a - b) for i, a in enumerate(positions)
                  for b in positions[i + 1:])
        radius = min(radius, 0.45 * gap)   # keep other zeros off the sphere

    # the faces first: a zero on a face site is reported as such, not as a
    # degree sphere that leaves the box
    flux = boundary_degree(phi)
    classified = [local_degree(phi, z, radius=radius) for z in search.zeros]
    ledger = charge_ledger(classified, flux, tolerance=ledger_tol)
    return LedgerAnalysis(ledger=ledger, search=search)
