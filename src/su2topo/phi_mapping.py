"""Isolated zeros of the 4-vector field and the charge ledger.

The map x -> phi(x) in R^4 concentrates the whole second Chern number at
its isolated zeros.  Each zero x_j carries a Brouwer degree eta_j = +-1
(the sign of the Jacobian at regular zeros) and a Hopf index beta_j >= 1;
their product is the local degree d_j.  The ledger states C_2 = sum_j
beta_j eta_j and cross-checks it against the Chern-Simons flux of the
unit spinor through the 8 faces of the box, which by Stokes is the same
C_2 from the boundary alone; the sum doubles as the Euler characteristic
through the top Chern class.

The local degrees are an exact count, the simplicial degree of Stenger
and Kearfott: each 4-cell splits into the 24 Kuhn simplices v_0 = 0,
v_{k+1} = v_k + e_pi(k), of orientation sgn pi, and the degree of phi is
the sum of sgn pi sign det[phi_i - phi_0] over the simplices on which the
linear interpolant of phi's samples takes a small fixed value y
(:func:`_simplex_count`).  Each such simplex belongs to the Newton zero
nearest its preimage of y, so the ledger's sum is the whole count however
Newton splits a degenerate zero.

Zero search: 4-cells whose 16 corners span 0 in every component seed
damped Newton iterations (sign screening over-fires on coarse grids, so
Newton is the arbiter).  The screen (:func:`_screen`) reads phi's values
one axis-0 slab at a time, component-major, so a generated field computes
each plane once and never holds its values whole; the same pass marks the
cells whose corners span y and keeps their corners for the count.  Newton
reads phi through one evaluator of values and derivatives: the analytic
sampler attached by the generators, which gives machine-precision roots,
or for lattice-only fields the multilinear interpolant and its exact
gradient, with O(h^2) positions, read from the bounding block of the
points only.
"""

from __future__ import annotations

import itertools
import warnings
from dataclasses import dataclass, replace

import numpy as np

from .chern_density import _det4, boundary_degree, check_flux_box
from .errors import FieldError, LatticeError, ZeroLocationError
from .fields import PhiField, _finite_max, _norms
from .lattice import (Grid, _fractional_index, component_major, derivative_stack,
                      interpolate, interpolate_with_gradient, interpolation_window,
                      slabs)

DEGENERACY_TOL = 1e-8
NEWTON_TOL = 1e-10           # |phi| at an accepted (refined) zero
NEWTON_MAX_ITER = 40
#: The direction v of the counted value y, a fixed generic unit vector.
Y_DIRECTION = np.array([0.5377, -0.1826, 0.7231, 0.3959])
Y_DIRECTION /= np.linalg.norm(Y_DIRECTION)
_PERMUTATIONS = np.array(list(itertools.permutations(range(4))))
#: The Kuhn simplices of a cell: the corner indices (bit k of a corner is
#: its offset on axis k) of v_0..v_4 for each permutation pi, and sgn pi.
_KUHN = np.cumsum(np.hstack([np.zeros((24, 1), int), 1 << _PERMUTATIONS]), axis=1)
_KUHN_SIGNS = np.rint(np.linalg.det(np.eye(4)[_PERMUTATIONS])).astype(int)


@dataclass(frozen=True)
class ZeroPoint:
    """A located zero with its local topological data: ``degree``, the
    sum of its simplices, is set by :func:`locate_zeros`; ``beta``,
    ``eta`` and ``degenerate`` by :func:`local_degree`."""

    position: tuple
    cell_index: tuple
    refined: bool
    phi_norm: float
    jacobian: float
    degree: int
    beta: int | None = None
    eta: int | None = None
    degenerate: bool = False


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
    """``points (n, 4) -> (values (n, 4), jacobians (n, 4, 4))`` of phi:
    its sampler, or the multilinear interpolant of its samples and its
    gradient, read on the bounding block of the points only, whose values
    are the whole-grid ones bit for bit; the points' lattice indices are
    taken once for the block and the interpolant."""
    if phi.sampler is not None:
        return phi.sampler

    def evaluate(points):
        index = _fractional_index(phi.grid, points)
        take = interpolation_window(phi.grid, points, index)
        return interpolate_with_gradient(_window(phi.values_at, take), phi.grid, points,
                                         [int(t[0]) for t in take], index)
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


def _cell_mask(lower: np.ndarray, upper: np.ndarray, grid: Grid,
               band: float) -> np.ndarray:
    """The mask of the rows of cells between the component-major axis-0
    site planes ``lower`` ``(rows, 4, ...)`` and the planes ``upper`` one
    step above them (k+1 wraps on periodic axes) that span the band
    [-band, band] in every component: some corner <= band and some corner
    >= -band.  At band 0 that is the closed range min <= 0 <= max, so a
    zero on lattice planes, where a component is 0 on a whole plane of
    corners, still marks the cells around it.  Both tests are OR-reduced
    one axis at a time, pairwise over neighbouring slices: 4 passes
    instead of 16 corner copies, and on finite values the corner min/max
    rule exactly.
    """
    low = (lower <= band) | (upper <= band)
    high = (lower >= -band) | (upper >= -band)
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


def _cell_corners(lower: np.ndarray, upper: np.ndarray, cells: np.ndarray,
                  grid: Grid) -> np.ndarray:
    """The values ``(k, 16, 4)`` at the 16 corners of the cells ``(k, 4)``
    of :func:`_cell_mask`'s rows (row 0 the first of ``lower``); bit ``a``
    of a corner's index is its offset on axis ``a``."""
    out = np.empty((len(cells), 16, 4))
    for corner in range(16):
        index = [cells[:, 0], slice(None)]
        for axis in range(1, 4):
            site = cells[:, axis] + ((corner >> axis) & 1)
            index.append(site % grid.shape[axis] if grid.periodic[axis] else site)
        out[:, corner] = (upper if corner & 1 else lower)[tuple(index)]
    return out


def _spans(corners: np.ndarray, y) -> np.ndarray:
    """Which of the cells' corner values ``(k, 16, 4)`` span ``y`` (0 or a
    4-vector) in every component: some corner <= y and some >= y."""
    return np.all(np.any(corners <= y, axis=1) & np.any(corners >= y, axis=1), axis=1)


def _screen(phi: PhiField):
    """The Newton starts and the counted simplices of the zero search:
    ``(cells, sites, points, signs)``.

    ``cells`` are the 4-cells whose 16 corners span 0 in every component
    and ``sites`` the lattice sites where |phi| < 1e-9 max(1, max|phi|),
    index arrays ``(k, 4)`` in the row-major order of ``np.argwhere`` on
    the whole grid; ``points`` and ``signs`` are :func:`_simplex_count` of
    the cells whose corners span y = 1e-9 max|phi_0| ``Y_DIRECTION``, with
    max|phi_0| over the first axis-0 plane, the one read before any cell.
    phi's values are read one axis-0 slab at a time, component-major, so
    each plane is read once: a slab's rows of cells are screened as it
    arrives, the first with the plane carried from the slab before (on a
    periodic axis 0 the first plane is kept for the row that wraps).  One
    mask with the band max|y| finds the cells that may span 0 or y, and
    their corners are tested exactly.  A slab's norms are taken again only
    when its smallest norm is below the site threshold, known once every
    slab is seen.
    """
    grid = phi.grid
    cells, marked, corners, lows = [], [], [], []
    top = band = 0.0
    first = carried = y = None

    def screen(lower, upper, row):
        found = np.argwhere(_cell_mask(lower, upper, grid, band))
        if len(found):
            values = _cell_corners(lower, upper, found, grid)
            found += (row, 0, 0, 0)
            cells.append(found[_spans(values, 0.0)])
            counted = _spans(values, y)
            marked.append(found[counted])
            corners.append(values[counted])

    for slab in slabs(grid):
        block = component_major(phi.values_at(slab), 4)
        norms = _norms(block)
        top = max(top, _finite_max(norms, "phi", slab.start))
        if y is None:
            y = 1e-9 * float(np.max(norms[0])) * Y_DIRECTION
            band = float(np.max(np.abs(y)))
        if carried is not None:
            screen(carried, block[:1], slab.start - 1)
        screen(block[:-1], block[1:], slab.start)
        lows.append((slab, float(np.min(norms))))
        carried = block[-1:]
        if first is None and grid.periodic[0]:
            first = block[:1]
    if first is not None:
        screen(carried, first, grid.shape[0] - 1)
    site_tol = 1e-9 * max(1.0, top)
    sites = [np.argwhere(_norms(component_major(phi.values_at(slab), 4)) < site_tol)
             + (slab.start, 0, 0, 0) for slab, low in lows if low < site_tol]
    empty = [np.empty((0, 4), int)]
    return (np.concatenate(empty + cells), np.concatenate(empty + sites),
            *_simplex_count(np.concatenate(empty + marked),
                            np.concatenate([np.empty((0, 16, 4))] + corners), y, grid))


def _simplex_count(cells: np.ndarray, corners: np.ndarray, y: np.ndarray, grid: Grid):
    """The Kuhn simplices of the cells ``(k, 4)``, with corner values
    ``(k, 16, 4)``, on which the linear interpolant of phi takes the value
    ``y``: their preimages ``(s, 4)`` of y and their degrees ``(s,)``,
    sgn pi sign det D, with row m of D phi(v_{m+1}) - phi(v_0).

    By Cramer's rule (:func:`~su2topo.chern_density._det4`, one call per
    row for all simplices at once) y - phi(v_0) = sum_m mu_m D_m, mu_m =
    det D_m / det D with row m of D replaced by y - phi(v_0).  A simplex
    counts when det D != 0 and the barycentric coordinates mu_m and 1 -
    sum mu are all >= 0: det D_m and det D - sum det D_m have the sign of
    det D or vanish.
    """
    values = corners[:, _KUHN]                          # (k, 24, 5, 4)
    rows = [(values[:, :, m + 1] - values[:, :, 0]).reshape(-1, 4) for m in range(4)]
    rhs = (y - values[:, :, 0]).reshape(-1, 4)
    det = _det4(*rows)
    parts = [_det4(*rows[:m], rhs, *rows[m + 1:]) for m in range(4)]
    orient = np.sign(det)
    inside = (det != 0.0) & (orient * (det - sum(parts)) >= 0.0)
    for part in parts:
        inside &= orient * part >= 0.0
    cell, perm = np.divmod(np.flatnonzero(inside), 24)
    mu = np.stack(parts, axis=1)[inside] / det[inside, None]
    # v_0 + sum_m mu_m (v_{m+1} - v_0): axis pi(j) moves by sum_{m >= j} mu_m
    frac = np.zeros_like(mu)
    np.put_along_axis(frac, _PERMUTATIONS[perm],
                      np.cumsum(mu[:, ::-1], axis=1)[:, ::-1], axis=1)
    offset = 0.5 if grid.cell_centered else 0.0
    points = np.asarray(grid.origin) + (cells[cell] + frac + offset) * np.asarray(grid.spacing)
    return points, _KUHN_SIGNS[perm] * orient[inside].astype(int)


def _assign(points: np.ndarray, signs: np.ndarray, zeros: list, grid: Grid) -> np.ndarray:
    """The degree of each zero: the sum of the ``signs`` of the simplices
    whose preimage ``points`` lie nearer to it than to any other zero
    (across the wrap on periodic axes).  Without zeros nothing is
    assigned."""
    degrees = np.zeros(len(zeros), int)
    if zeros:
        diff = points[:, None] - np.asarray(zeros)[None]
        for axis in np.flatnonzero(grid.periodic):
            period = grid.shape[axis] * grid.spacing[axis]
            diff[..., axis] -= period * np.rint(diff[..., axis] / period)
        np.add.at(degrees, np.argmin(np.linalg.norm(diff, axis=2), axis=1), signs)
    return degrees


def locate_zeros(phi: PhiField) -> ZeroSearch:
    """Find the isolated zeros of phi on a rank-4 grid, with their degrees.

    Candidate cells are 4-cells whose 16 corners span 0 in every
    component; lattice sites where phi itself (nearly) vanishes seed
    candidates directly.  Accepted zeros are deduplicated at half a cell
    width; two surviving zeros within one cell width mean the grid cannot
    separate them and raise :class:`ZeroLocationError`.  A zero's
    ``jacobian`` is det J from the sampler's last Newton evaluation, or for
    lattice-only fields the site Jacobians det[d_mu phi^a] interpolated at
    the zero (:func:`_zero_jacobian`).  Its ``degree`` is the sum of the
    counted simplices (:func:`_simplex_count`) nearest to it
    (:func:`_assign`).
    """
    grid = phi.grid
    if grid.rank != 4:
        raise FieldError("zero location needs a rank-4 grid")
    hmax = max(grid.spacing)
    cells, seed_sites, points, signs = _screen(phi)

    evaluate = _evaluator(phi)
    origin, spacing = np.asarray(grid.origin), np.asarray(grid.spacing)
    offset = 0.5 if grid.cell_centered else 0.0
    starts = [(cell, cell + 0.5 + offset) for cell in cells]
    starts += [(site, site + offset) for site in seed_sites]

    accepted = []
    suspicious = []
    for cell, index in starts:
        cell, center = tuple(int(c) for c in cell), origin + index * spacing
        bounds = (center - 1.5 * spacing, center + 1.5 * spacing)
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

    degrees = _assign(points, signs, [x for _, x, _, _ in unique], grid)
    zeros = []
    for (cell, x, fnorm, jmat), degree in zip(unique, degrees):
        if phi.sampler is not None:
            det = float(np.linalg.det(jmat))
        else:
            det = _zero_jacobian(phi, x)
        zeros.append(ZeroPoint(position=tuple(float(v) for v in x),
                               cell_index=cell, refined=fnorm < NEWTON_TOL,
                               phi_norm=fnorm, jacobian=det, degree=int(degree)))
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


def _check_sphere_inside(grid: Grid, center, radius: float) -> None:
    """Raise :class:`ZeroLocationError` when the sphere of ``radius`` around
    ``center`` reaches past the first or last sites of an open axis: a
    zero that close to a face is rejected, whatever its evaluator, by the
    rule and message of the degree spheres the count replaced."""
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
    """Classify one zero of :func:`locate_zeros` by its degree d (the sum of
    its simplices): Hopf index beta and Brouwer degree eta.

    A zero within ``radius`` (3 cell widths by default) of an open face
    is rejected (:func:`_check_sphere_inside`).  For regular zeros
    (|Jacobian| above 1e-8) eta is the Jacobian sign and beta = |d|; at
    degenerate zeros the Jacobian-sign definition does not apply, so eta
    falls back to sign(d) and the degeneracy flag is set.  A degree of
    zero marks a non-topological sign-change artifact; it is returned
    unclassified and later excluded from the ledger with a warning.
    """
    if radius is None:
        radius = 3.0 * max(phi.grid.spacing)
    _check_sphere_inside(phi.grid, zero.position, radius)
    degree, degenerate = zero.degree, abs(zero.jacobian) <= DEGENERACY_TOL
    if degree == 0:
        return replace(zero, degenerate=degenerate)
    eta = int(np.sign(degree if degenerate else zero.jacobian))
    if eta * abs(degree) != degree:
        warnings.warn(f"Jacobian sign {eta} conflicts with degree {degree} "
                      f"at {zero.position}; treating the zero as degenerate")
        eta, degenerate = int(np.sign(degree)), True
    return replace(zero, beta=abs(degree), eta=eta, degenerate=degenerate)


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
        if zero.degree and zero.beta is None:
            raise FieldError("ledger needs classified zeros (run local_degree)")
        if zero.degree == 0:
            warnings.warn(f"zero at {zero.position} has degree 0; "
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

    A zero is rejected when it lies within three cell widths, shrunk to
    0.45 of the smallest zero separation, of an open face (the radius of
    the degree spheres the count replaced).  The ledger sum, the whole
    simplex count of the box, is compared with
    :func:`~su2topo.chern_density.boundary_degree` of phi, which reads only
    the 8 faces of the box: an exact count against an O(h^2) quadrature
    that share no computed quantity but the determinant kernel, so a
    miscounted simplex shows as a discrepancy.  A grid whose faces cannot
    be summed is rejected before the search.  The zeros are classified one
    after another, in the search's order.
    """
    check_flux_box(phi.grid)
    search = locate_zeros(phi)
    radius = 3.0 * max(phi.grid.spacing)
    positions = [np.asarray(z.position) for z in search.zeros]
    if len(positions) > 1:
        gap = min(np.linalg.norm(a - b) for i, a in enumerate(positions)
                  for b in positions[i + 1:])
        radius = min(radius, 0.45 * gap)

    # the faces first: a zero on a face site is reported as such, not as a
    # zero too close to the boundary
    flux = boundary_degree(phi)
    classified = [local_degree(phi, z, radius=radius) for z in search.zeros]
    ledger = charge_ledger(classified, flux, tolerance=ledger_tol)
    return LedgerAnalysis(ledger=ledger, search=search)
