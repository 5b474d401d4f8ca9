"""Topological invariants of SU(2) spinor and gauge field configurations.

The package decomposes gauge potentials through spinors, evaluates
Chern-Simons and Chern densities by independent routes, and cross-checks
the ledger of isolated zeros of the associated 4-vector field (Brouwer
degrees times Hopf indices) against the Chern-Simons flux through the
boundary of the box.
"""

from .conventions import ORIENTATION_SIGN
from .errors import (BadMagicError, ChecksumError, CountMismatchError,
                     DegreeResolutionError, FieldError, FieldFormatError,
                     FileChangedError, HeaderError, LatticeError,
                     NormalizationError, ReconstructionError, Su2TopoError,
                     ZeroLocationError)
from .lattice import Grid, derivative_stack, interpolate
from .su2_algebra import GENERATORS, IDENTITY2, SIGMA, self_check
from .fields import (GaugeField, PhiField, SpinorField, face_restrict, normalize,
                     norm_squared, phi_to_spinor, sigma_model_field, spinor_to_phi)
from .decomposition import Decomposition, covariant_derivative, decompose
# The function chern_simons.chern_simons is left out here: as a package
# attribute it would shadow its module.
from .chern_simons import KnotCharges, fn_pointwise, trace_pointwise
from .chern_density import boundary_degree, chern_numbers
from .phi_mapping import (Ledger, LedgerAnalysis, ZeroPoint, ZeroSearch,
                          analyze, charge_ledger, local_degree,
                          locate_zeros, surface_degree)
from .generators import (box_grid, identity_map_s3, linear_phi_field,
                         quaternion_polynomial_field, quaternion_power_field,
                         random_config, s3_chart_grid, s3_unit_vectors)
from .fldio import read_field, write_field
from .report import ChargeReport, __version__

__all__ = [name for name in dir() if not name.startswith("_")]
