"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with ``pytest tests/test_acceptance.py -s`` to see the PASS/FAIL lines.
Each criterion pins its tolerance explicitly; nothing here is calibrated
at runtime.
"""

import time

import numpy as np
import pytest

import su2topo as st
from su2topo.chern_density import _spinor_values, _unit_values
from su2topo.chern_simons import chern_simons
from su2topo.cli import main as cli_main
from su2topo.fldio import read_field, write_field
from su2topo.lattice import component_major
from su2_gauge import dagger, matrices, transform, transformation
import site_major as oracle


def report(num, name, ok, detail):
    flag = "PASS" if ok else "FAIL"
    print(f"[{flag}] criterion {num:>2}: {name}: {detail}", flush=True)
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_decomposition_identity():
    start = time.perf_counter()
    grid = st.box_grid((12, 12, 12, 12), -1.0, 1.0)
    worst = 0.0
    for seed in range(20):
        psi = st.random_config(1000 + seed, "spinor", grid)
        gauge = st.random_config(2000 + seed, "gauge", grid)
        dec = st.decompose(psi, gauge)
        parts = oracle.swept(psi, "a", "b", gauge=gauge)
        amat = matrices(gauge.values)
        worst = max(worst, dec.residual, float(np.max(np.abs(
            matrices(parts["a"]) + matrices(parts["b"]) - amat))))
    elapsed = time.perf_counter() - start
    report(1, "decomposition identity",
           worst < 1e-12 and elapsed < 10.0,
           f"max|a+b-A| = {worst:.3e} (< 1e-12), runtime {elapsed:.1f}s (< 10s)")


def test_criterion_02_transformation_laws():
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    worst_a = worst_b = 0.0
    for seed in range(10):
        psi = st.random_config(3000 + seed, "spinor", grid)
        gauge = st.random_config(4000 + seed, "gauge", grid)
        s, ds, d2s = transformation(grid, 5000 + seed)
        psi2, gauge2 = transform(psi, gauge, (s, ds, d2s))
        dec = oracle.swept(psi, "a", "b", gauge=gauge)
        dec2 = oracle.swept(psi2, "a", "b", gauge=gauge2)
        sdag = dagger(s)[..., None, :, :]
        rot = lambda x: s[..., None, :, :] @ matrices(x) @ sdag
        a_law = rot(dec["a"]) + ds @ sdag
        worst_a = max(worst_a, float(np.max(np.abs(matrices(dec2["a"]) - a_law))))
        worst_b = max(worst_b, float(np.max(np.abs(
            matrices(dec2["b"]) - rot(dec["b"])))))
    report(2, "transformation laws",
           worst_a < 1e-10 and worst_b < 1e-10,
           f"gauge-law residual {worst_a:.3e}, covariance residual "
           f"{worst_b:.3e} (each < 1e-10)")


def test_criterion_03_parallel_condition():
    configs = [st.identity_map_s3(12)]
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    for seed in range(10):
        configs.append(st.normalize(st.random_config(6000 + seed, "spinor", grid)))
    worst_d = worst_b = 0.0
    for psi in configs:
        swept = oracle.swept(psi, "gauge", "b")     # b of the parallel potential
        worst_d = max(worst_d, float(np.max(np.abs(st.covariant_derivative(*(
            component_major(x, psi.grid.rank)
            for x in (oracle.stored(psi).values, oracle.derivatives(psi),
                      swept["gauge"])))))))
        worst_b = max(worst_b, float(np.max(np.abs(matrices(swept["b"])))))
    report(3, "parallel condition",
           worst_d < 1e-12 and worst_b < 1e-12,
           f"max|DPsi| = {worst_d:.3e}, max|b| = {worst_b:.3e} (each < 1e-12)")


def test_criterion_04_spinor_cs_form():
    errs = {}
    t96 = None
    for n in (24, 48, 96):
        start = time.perf_counter()
        psi = st.identity_map_s3(n)
        errs[n] = abs(chern_simons(psi).q_spinor - 1.0)
        if n == 96:
            t96 = time.perf_counter() - start
    r1, r2 = errs[24] / errs[48], errs[48] / errs[96]
    ok = errs[48] < 1e-2 and 3.0 <= r1 <= 5.0 and 3.0 <= r2 <= 5.0 and t96 < 60.0
    report(4, "spinor Chern-Simons form", ok,
           f"|Q(48)-1| = {errs[48]:.3e} (< 1e-2), ratios {r1:.2f}, {r2:.2f} "
           f"(in [3,5]), 96^3 runtime {t96:.1f}s (< 60s)")


def test_criterion_05_quantization():
    grid = st.s3_chart_grid(64)
    worst_q = worst_fn = 0.0
    for n in (-2, -1, 1, 2, 3):
        psi = st.phi_to_spinor(st.quaternion_power_field(n, grid))
        charges = chern_simons(psi)
        q, q_fn = charges.q_spinor, charges.q_fn
        worst_q = max(worst_q, abs(q - n))
        worst_fn = max(worst_fn, abs(q_fn - q))
    report(5, "knot charge quantization",
           worst_q < 0.02 and worst_fn < 0.02,
           f"max|Q-n| = {worst_q:.3e} (< 0.02), max|Q_fn-Q| = {worst_fn:.3e} "
           f"(< 0.02)")


def test_criterion_06_abelian_identity():
    constants = []
    for n in (16, 32, 64):
        psi = st.identity_map_s3(n)
        swept = oracle.swept(psi, "gauge", "c", "h")
        lhs = st.fn_pointwise(component_major(swept["c"], 3),
                              component_major(swept["h"], 3))
        residual = float(np.max(np.abs(
            lhs - st.trace_pointwise(st.GaugeField(psi.grid, swept["gauge"])))))
        constants.append(residual / max(psi.grid.spacing) ** 2)
    drift = max(constants) / min(constants)
    report(6, "Abelian/non-Abelian integrand identity", drift < 2.0,
           f"fitted C = {', '.join(f'{c:.3f}' for c in constants)}; "
           f"drift {drift:.2f}x (< 2x)")


def test_criterion_07_chern_density_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(77)
    dphi = rng.normal(size=(100000, 4, 4))
    dpsi = np.stack([dphi[..., 0] + 1j * dphi[..., 1],
                     dphi[..., 2] + 1j * dphi[..., 3]], axis=-1)
    rho_spinor = _spinor_values(dpsi)
    rho_unit = _unit_values(dpsi)
    rel = float(np.max(np.abs(rho_spinor - rho_unit)) / np.max(np.abs(rho_unit)))
    elapsed = time.perf_counter() - start
    report(7, "Chern density identity",
           rel < 1e-12 and elapsed < 5.0,
           f"max relative gap {rel:.3e} over 1e5 jets (< 1e-12), "
           f"runtime {elapsed:.1f}s (< 5s)")


def test_criterion_08_chern_weil_stokes():
    base = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    diffs = []
    for grid in (base, st.box_grid((19, 19, 19, 19), -1.0, 1.0)):
        psi = st.random_config(8080, "spinor", grid)
        volume = st.chern_numbers(psi, ("spinor",))["spinor"]
        boundary, _ = oracle.boundary_cs_sum(psi)
        diffs.append(abs(volume - boundary))
    ratio = diffs[0] / diffs[1]
    h2 = max(base.spacing) ** 2
    report(8, "Chern-Weil/Stokes consistency",
           diffs[0] < 50.0 * h2 and 3.0 <= ratio <= 5.0,
           f"|volume - boundary| = {diffs[0]:.3e} -> {diffs[1]:.3e}, "
           f"ratio {ratio:.2f} (in [3,5])")


def test_criterion_09_ledger_theorem():
    start = time.perf_counter()
    # (a) linear field
    grid = st.box_grid((16, 16, 16, 16), -2.0, 2.0)
    lin = st.linear_phi_field(np.eye(4), [0.05, -0.03, 0.02, 0.01], grid)
    analysis = st.analyze(lin)
    ok_a = ([(z.beta, z.eta) for z in analysis.ledger.zeros] == [(1, 1)]
            and abs(analysis.ledger.boundary_c2 - 1.0) < 0.02)

    # (b) orientation flip
    m = np.eye(4)
    m[0, 0] = -1.0
    flipped = st.linear_phi_field(m, [0.05, -0.03, 0.02, 0.01], grid)
    analysis_b = st.analyze(flipped)
    ok_b = ([(z.beta, z.eta) for z in analysis_b.ledger.zeros] == [(1, -1)]
            and abs(analysis_b.ledger.boundary_c2 + 1.0) < 0.02)

    # (c) two-root quaternion polynomial on 24^4
    grid24 = st.box_grid((24, 24, 24, 24), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid24)
    analysis_c = st.analyze(phi)
    positions = sorted(z.position for z in analysis_c.ledger.zeros)
    pos_err = max(np.max(np.abs(np.array(p) - r))
                  for p, r in zip(positions, sorted(map(tuple, roots))))
    ok_c = (len(analysis_c.ledger.zeros) == 2 and pos_err < 1e-8
            and analysis_c.ledger.index_sum == 2
            and abs(analysis_c.ledger.boundary_c2 - 2.0) < 0.05)

    # (d) degenerate quaternion square
    gridq = st.box_grid((16, 16, 16, 16), -1.0, 1.0)
    q2 = st.quaternion_power_field(2, gridq)
    zero = st.local_degree(q2, st.locate_zeros(q2).zeros[0])
    ok_d = zero.degree == 2 and zero.degenerate

    elapsed = time.perf_counter() - start
    report(9, "ledger theorem",
           ok_a and ok_b and ok_c and ok_d and elapsed < 300.0,
           f"(a) C2 = {analysis.ledger.boundary_c2:+.4f}; "
           f"(b) C2 = {analysis_b.ledger.boundary_c2:+.4f}; "
           f"(c) sum = {analysis_c.ledger.index_sum}, "
           f"root error {pos_err:.2e}, C2 = {analysis_c.ledger.boundary_c2:.4f}; "
           f"(d) d = {zero.degree}, degenerate {zero.degenerate}; "
           f"runtime {elapsed:.0f}s (< 300s)")


def test_criterion_10_euler_alias(tmp_path, capsys):
    ok = True
    details = []
    for config, grid in (("qpoly", "16,16,16,16"), ("linear", "14,14,14,14")):
        path = str(tmp_path / f"{config}.txt")
        code = cli_main(["verify", config, "--grid", grid, "--box=-2:2",
                         "--no-color", "--report", path])
        capsys.readouterr()
        text = open(path).read()
        chi = sum_ = None
        for line in text.splitlines():
            if line.strip().startswith("chi:"):
                chi = int(line.split(":")[1])
            if line.strip().startswith("index_sum:"):
                sum_ = int(line.split(":")[1])
        ok = ok and code == 0 and chi is not None and chi == sum_
        details.append(f"{config}: chi = {chi}, sum = {sum_}")
    with capsys.disabled():
        report(10, "Euler characteristic alias", ok,
               "; ".join(details) + " (integer equality on verify runs)")


def test_criterion_11_field_file_round_trip(tmp_path):
    g3 = st.Grid((5, 6, 7), (0.0, -1.0, 0.5), (0.1, 0.2, 0.3),
                 (False, True, False))
    g4 = st.Grid((4, 5, 4, 6), (-1.0, 0.0, 0.0, 2.0), (0.1, 0.2, 0.3, 0.1),
                 (False, False, True, False))
    rng = np.random.default_rng(0)
    fields = [
        st.SpinorField(g3, rng.normal(size=(5, 6, 7, 2))
                       + 1j * rng.normal(size=(5, 6, 7, 2)),
                       jet=rng.normal(size=(5, 6, 7, 3, 2))
                       + 1j * rng.normal(size=(5, 6, 7, 3, 2))),
        st.PhiField(g4, rng.normal(size=g4.shape + (4,)),
                    jet=rng.normal(size=g4.shape + (4, 4))),
        st.GaugeField(g4, rng.normal(size=g4.shape + (4, 3))),
        st.PhiField(g3, rng.normal(size=g3.shape + (4,))),
    ]
    kinds_ok = True
    for field in fields:
        path = str(tmp_path / f"{type(field).__name__}.fld")
        write_field(field, path)
        back = read_field(path)
        # a file's values and jet are read from the file block by block
        whole = oracle.stored(back)
        same = np.array_equal(whole.values, field.values)
        same = same and ((field.jet is None and whole.jet is None)
                         or np.array_equal(field.jet, whole.jet))
        kinds_ok = kinds_ok and same and back.grid == field.grid

    path = str(tmp_path / "target.fld")
    write_field(fields[1], path)
    blob = open(path, "rb").read()
    rng = np.random.default_rng(1234)
    caught = 0
    bad_path = str(tmp_path / "bad.fld")
    for _ in range(100):
        pos = int(rng.integers(0, len(blob)))
        bit = 1 << int(rng.integers(0, 8))
        open(bad_path, "wb").write(blob[:pos] + bytes([blob[pos] ^ bit])
                                   + blob[pos + 1:])
        try:
            read_field(bad_path)
        except st.FieldFormatError:
            caught += 1
    report(11, "field file round trip", kinds_ok and caught == 100,
           f"bit-exact round trips on 4 kinds: {kinds_ok}; corruption "
           f"detected {caught}/100")
