"""Topological invariants of SU(2) spinor and gauge field configurations.

The package decomposes gauge potentials through spinors, evaluates
Chern-Simons and Chern densities by independent routes, and cross-checks
the ledger of isolated zeros of the associated 4-vector field (Brouwer
degrees times Hopf indices) against the Chern-Simons flux through the
boundary of the box.  Each public name and submodule is imported on
first use (PEP 562), so a process loads only the modules it runs.
"""

import importlib

# The function chern_simons.chern_simons is left out here: as a package
# attribute it would shadow its module.
_EXPORTS = {
    "conventions": ("ORIENTATION_SIGN",),
    "errors": ("BadMagicError", "ChecksumError", "CountMismatchError", "FieldError",
               "FieldFormatError", "FileChangedError", "HeaderError", "LatticeError",
               "NormalizationError", "ReconstructionError", "Su2TopoError",
               "ZeroLocationError"),
    "lattice": ("Grid", "derivative_stack", "interpolate"),
    "su2_algebra": ("GENERATORS", "IDENTITY2", "SIGMA", "self_check"),
    "fields": ("GaugeField", "PhiField", "SpinorField", "face_restrict", "normalize",
               "norm_squared", "phi_to_spinor", "sigma_model_field", "spinor_to_phi"),
    "decomposition": ("Decomposition", "covariant_derivative", "decompose"),
    "chern_simons": ("KnotCharges", "fn_pointwise", "trace_pointwise"),
    "chern_density": ("boundary_degree", "chern_numbers"),
    "phi_mapping": ("Ledger", "LedgerAnalysis", "ZeroPoint", "ZeroSearch", "analyze",
                    "charge_ledger", "local_degree", "locate_zeros"),
    "generators": ("box_grid", "identity_map_s3", "linear_phi_field",
                   "quaternion_polynomial_field", "quaternion_power_field",
                   "random_config", "s3_chart_grid", "s3_unit_vectors"),
    "fldio": ("read_field", "write_field"),
    "report": ("ChargeReport", "__version__"),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted({*_EXPORTS, *_HOME} - {"__version__"})


def __getattr__(name: str):
    module = _HOME.get(name, name if name in _EXPORTS else None)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = importlib.import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__})
