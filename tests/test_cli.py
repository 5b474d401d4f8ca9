import argparse
import contextlib
import hashlib
import io
import os
import re
import struct
import sys
import warnings
import zlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

import su2topo as st
from conftest import peak_traced_bytes
from site_major import stored
from su2topo.cli import build_parser, main
from su2topo.fldio import write_field


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_generate_and_cs_pipeline(tmp_path, capsys):
    field_path = str(tmp_path / "id.fld")
    code, out, _ = run(capsys, "generate", "--kind", "identity", "--chart", "s3",
                       "--grid", "24,24,24", "--out", field_path)
    assert code == 0

    report_path = str(tmp_path / "report.txt")
    code, out, _ = run(capsys, "cs", field_path, "--no-color",
                       "--report", report_path)
    assert code == 0
    text = open(report_path).read()
    assert "Q_spinor" in text and "Q_trace" in text and "Q_fn" in text
    assert "trace-vs-spinor" in text
    assert "overall: PASS" in text
    assert "timings" not in text


def test_reports_are_byte_identical(tmp_path, capsys):
    paths = []
    for name in ("a.txt", "b.txt"):
        report = str(tmp_path / name)
        code, _, _ = run(capsys, "verify", "linear", "--grid", "12,12,12,12",
                         "--box=-1:1", "--no-color", "--report", report)
        assert code == 0
        paths.append(report)
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()


def test_verify_qpoly_ledger(tmp_path, capsys):
    report = str(tmp_path / "r.txt")
    code, out, _ = run(capsys, "verify", "qpoly", "--grid", "16,16,16,16",
                       "--box=-2:2", "--no-color", "--report", report)
    assert code == 0
    text = open(report).read()
    assert "ledger-equivalence" in text
    assert "euler-alias" in text
    assert "index_sum: 2" in text
    assert "chi: 2" in text


def test_zeros_subcommand_roundtrip(tmp_path, capsys):
    grid = st.box_grid((14, 14, 14, 14), -1.0, 1.0)
    phi = st.linear_phi_field(np.eye(4), [0.04, -0.03, 0.02, 0.01], grid)
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    code, out, _ = run(capsys, "zeros", path, "--no-color")
    assert code == 0
    assert "index_sum: 1" in out


def test_decompose_subcommand(tmp_path, capsys):
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    psi = st.random_config(1, "spinor", grid)
    gauge = st.random_config(2, "gauge", grid)
    psi_path, gauge_path = str(tmp_path / "psi.fld"), str(tmp_path / "a.fld")
    write_field(psi, psi_path)
    write_field(gauge, gauge_path)
    code, out, _ = run(capsys, "decompose", "--psi", psi_path,
                       "--gauge", gauge_path, "--no-color", "--tol", "1e-10")
    assert code == 0
    assert "reconstruction" in out


def test_decompose_reads_no_jet_of_its_gauge_file(tmp_path, capsys, monkeypatch):
    # the split reads the values of A only: the gauge file's jet stays in
    # the file unread, while the spinor's is read from its file
    from su2topo import fldio
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    psi_path, gauge_path = str(tmp_path / "psi.fld"), str(tmp_path / "a.fld")
    write_field(st.random_config(1, "spinor", grid), psi_path)
    write_field(st.random_config(2, "gauge", grid), gauge_path)
    reads = []
    real = fldio._FileBlocks.__call__

    def counted(self, block):
        reads.append((self.path, self.offset))
        return real(self, block)

    monkeypatch.setattr(fldio._FileBlocks, "__call__", counted)
    code, out, _ = run(capsys, "decompose", "--psi", psi_path,
                       "--gauge", gauge_path, "--no-color", "--tol", "1e-10")
    assert code == 0 and "overall: PASS" in out
    # the values start right after the header, the jet after the values
    values_at = 8 + 4 * 21
    paths = {os.path.abspath(path) for path in (psi_path, gauge_path)}
    assert {path for path, offset in reads if offset == values_at} == paths
    assert {path for path, offset in reads if offset > values_at} == {
        os.path.abspath(psi_path)}


def test_violated_decomposition_identity_is_a_failed_check(tmp_path, capsys,
                                                           monkeypatch):
    # a wrong covariant derivative breaks a + b = A beyond rounding: the run
    # reports a FAIL (exit 1), not an input error (exit 3)
    import su2topo.decomposition as decomposition
    real = decomposition.covariant_derivative
    monkeypatch.setattr(decomposition, "covariant_derivative",
                        lambda *args, **kwargs: real(*args, **kwargs) * (1.0 + 1e-6))
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    psi_path, gauge_path = str(tmp_path / "psi.fld"), str(tmp_path / "a.fld")
    write_field(st.random_config(0, "spinor", grid), psi_path)
    write_field(st.random_config(1, "gauge", grid), gauge_path)
    code, out, err = run(capsys, "decompose", "--psi", psi_path,
                         "--gauge", gauge_path, "--no-color")
    assert code == 1
    assert re.search(r"name: reconstruction\n\s+status: FAIL\n\s+detail: "
                     r"decomposition identity violated", out)
    assert "overall: FAIL" in out and err == ""


def test_abelian_route_off_by_more_than_rounding_fails(capsys, monkeypatch):
    # Q_fn and Q_spinor integrate one current, so a relative error of 1e-9
    # in the Abelian density, and so in Q_fn, is far outside rounding and
    # FAILs the check (exit 1)
    import su2topo.chern_simons as chern_simons
    real = chern_simons.fn_pointwise
    monkeypatch.setattr(chern_simons, "fn_pointwise",
                        lambda c, h: real(c, h) * (1.0 + 1e-9))
    code, out, err = run(capsys, "verify", "identity", "--no-color")
    assert code == 1 and err == ""
    assert re.search(r"name: abelian-vs-spinor\n\s+status: FAIL\n\s+detail: "
                     r"\|Q_fn - Q_spinor\| = \S+ >= 1\.000e-12", out)
    assert out.count("status: FAIL") == 1


@pytest.mark.parametrize("config", ["identity", "qpower:2"])
def test_a_violated_decomposition_identity_is_a_reconstruction_fail(capsys, monkeypatch,
                                                                    config):
    # a + b = A fails in the charge sweep's decomposition kernel: verify
    # keeps the charges and their checks and reports the library's message
    # as a reconstruction FAIL line with exit 1, as decompose does (it used
    # to exit 3 with no report)
    import su2topo.decomposition as decomposition
    monkeypatch.setattr(decomposition, "RECONSTRUCTION_TOL", 0.0)
    code, out, err = run(capsys, "verify", config, "--grid", "16,16,16",
                         "--no-color", "--tol", "0.5")
    assert code == 1 and err == ""
    assert re.search(r"name: reconstruction\n\s+status: FAIL\n\s+detail: decomposition "
                     r"identity violated: max\|a \+ b - A\| = \S+\n", out)
    assert out.count("status: FAIL") == 1 and "overall: FAIL" in out
    assert "Q_spinor" in out and "name: exactness" not in out
    assert "parallel-condition" not in out and "max_DPsi" not in out


def test_a_failed_exactness_check_is_a_fail_line(capsys, monkeypatch):
    # a Berry potential of the wrong sign breaks dC = H: verify reports the
    # library's message as one FAIL line and exits 1, without the parallel
    # condition, which needs the charge sweep's potential
    real = st.fields._slab_current

    def flipped(*args):
        slab, samples, dvalues, current = real(*args)
        current[:, :, 0] = np.conj(current[:, :, 0])
        return slab, samples, dvalues, current

    monkeypatch.setattr(st.fields, "_slab_current", flipped)
    code, out, err = run(capsys, "verify", "identity", "--grid", "32,32,32",
                         "--no-color")
    assert code == 1 and err == ""
    assert re.search(r"name: exactness\n\s+status: FAIL\n\s+detail: Abelian potential "
                     r"is not a potential for H: residual \S+\n", out)
    assert out.count("status: FAIL") == 1 and "overall: FAIL" in out
    assert "parallel-condition" not in out and "Q_spinor" not in out


def test_decompose_without_jets_is_held_to_tol(tmp_path, capsys):
    # the split is algebraic in the derivative samples, so bare lattice
    # input reassembles A at rounding level and meets the same --tol
    grid = st.box_grid((8, 8, 8, 8), -1.0, 1.0)
    psi = st.random_config(5, "spinor", grid)
    gauge = st.random_config(6, "gauge", grid)
    psi_path, gauge_path = str(tmp_path / "psi.fld"), str(tmp_path / "a.fld")
    write_field(st.SpinorField(grid, psi.values), psi_path)
    write_field(st.GaugeField(grid, gauge.values), gauge_path)
    code, out, _ = run(capsys, "decompose", "--psi", psi_path,
                       "--gauge", gauge_path, "--no-color", "--tol", "1e-14")
    assert code == 0
    residual = float(re.search(r"reconstruction_residual: (\S+)", out).group(1))
    assert residual < 1e-14
    assert "regime" not in out and "component_residual" not in out


def test_chern_subcommand_methods_agree(tmp_path, capsys):
    grid = st.box_grid((10, 10, 10, 10), -1.0, 1.0)
    psi = st.normalize(st.random_config(4, "spinor", grid))
    path = str(tmp_path / "psi.fld")
    write_field(psi, path)
    code, out, _ = run(capsys, "chern", path, "--no-color", "--tol", "0.2")
    assert code == 0
    assert "C2_spinor" in out and "C2_unit" in out and "C2_trace" in out
    assert "method-agreement" in out
    # every run checks all three routes: a single route would check nothing
    with pytest.raises(SystemExit) as info:
        run(capsys, "chern", path, "--method", "spinor", "--no-color")
    assert info.value.code == 2 and "--method" in capsys.readouterr().err


def test_missing_file_exits_3(capsys, tmp_path):
    code, _, err = run(capsys, "cs", str(tmp_path / "nope.fld"), "--no-color")
    assert code == 3


def test_corrupt_file_exits_3(tmp_path, capsys):
    path = str(tmp_path / "f.fld")
    grid = st.Grid((5, 6, 7), (0.0,) * 3, (0.1,) * 3, (False,) * 3)
    write_field(st.PhiField(grid, np.zeros(grid.shape + (4,))), path)
    blob = bytearray(open(path, "rb").read())
    blob[150] ^= 0x01
    open(path, "wb").write(bytes(blob))
    code, _, err = run(capsys, "zeros", path, "--no-color")
    assert code == 3
    assert "checksum" in err


def _phi_file(tmp_path, n=12, first_root=(-0.8, 0.11, -0.07, 0.13)):
    path = str(tmp_path / "phi.fld")
    grid = st.box_grid((n,) * 4, -2.0, 2.0)
    roots = np.array([first_root, [0.8, -0.12, 0.08, -0.1]])
    write_field(st.quaternion_polynomial_field(roots, grid), path)
    return path


def _patch(path, offset, data):
    """Overwrite bytes of an FLD file at ``offset`` and rewrite its CRC, so
    that only the semantic checks can reject it."""
    blob = bytearray(open(path, "rb").read())
    blob[offset:offset + len(data)] = data
    blob[-8:] = struct.pack("<Q", zlib.crc32(bytes(blob[:-8])))
    open(path, "wb").write(bytes(blob))


_FILE_COMMANDS = (("decompose", "--psi"), ("cs",), ("chern",), ("zeros",))


def _chart_file(tmp_path, name="chart.fld"):
    path = str(tmp_path / name)
    assert main(["generate", "--kind", "identity", "--chart", "s3", "--grid", "8,8,8",
                 "--out", path]) == 0
    return path


@pytest.mark.parametrize("entry", [np.nan, np.inf])
def test_non_finite_jet_exits_3_on_every_command(tmp_path, capsys, entry):
    # one NaN in the jet of an 8^3 chart file, CRC rewritten: every command
    # that reads the file stops with one input error, before any verdict
    path = _chart_file(tmp_path)
    capsys.readouterr()
    _patch(path, 8 + 3 * 21 + 8**3 * 4 * 8 + 8 * 1000, struct.pack("<d", entry))
    for command in _FILE_COMMANDS:
        code, out, err = run(capsys, *command, path, "--no-color")
        assert (code, out) == (3, ""), command
        assert err == (f"su2topo: error: {path}: phi jet contains non-finite "
                       "samples\n"), command


@pytest.mark.parametrize("axis", [0, 1])
@pytest.mark.parametrize("field_at, value", [
    (12, 1e308), (4, 1e308), (4, -1e308), (12, 1e-320)],
    ids=["spacing 1e308", "origin 1e308", "origin -1e308", "subnormal spacing"])
def test_degenerate_grid_headers_exit_3(tmp_path, capsys, axis, field_at, value):
    # a header whose coordinates overflow, collapse or step subnormally is
    # an input error on every command, with no traceback
    paths = [_chart_file(tmp_path), _phi_file(tmp_path)]
    capsys.readouterr()
    for path in paths:
        _patch(path, 8 + 21 * axis + field_at, struct.pack("<d", value))
        for command in _FILE_COMMANDS:
            code, out, err = run(capsys, *command, path, "--no-color")
            assert (code, out) == (3, ""), (path, command)
            assert err.startswith(f"su2topo: input error [bad-header]: {path}: ")
            assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("box", ["--box=-1e308:1e308", "--box=1e308:1.0000000000000002e308",
                                 "--box=0:1e-310", "--box=0:2e308"])
@pytest.mark.parametrize("command", [["verify", "qpoly"], ["verify", "linear"],
                                     ["generate", "--kind", "linear", "--out", "x.fld"]])
def test_degenerate_boxes_on_the_command_line_exit_2(tmp_path, capsys, monkeypatch,
                                                     box, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *command, "--grid", "8,8,8,8", box)
    assert (code, out) == (2, "")
    assert err.startswith("su2topo: usage error: ") and err.count("\n") == 1
    assert not (tmp_path / "x.fld").exists()


def test_generated_values_that_overflow_exit_2(tmp_path, capsys, monkeypatch):
    # a box field computes its values while the file is written; a map that
    # overflows on the given box is still a usage error, and no file is left.
    # The error is the one line on stderr: outside the test runner a numpy
    # warning would print there too.
    monkeypatch.chdir(tmp_path)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "generate", "--kind", "qpower", "--power", "4",
                             "--grid", "6,6,6,6", "--box=1e80:2e80", "--out", "x.fld")
    assert (code, out) == (2, "")
    assert err == "su2topo: usage error: phi contains non-finite samples\n"
    assert [str(w.message) for w in caught] == []
    assert list(tmp_path.iterdir()) == []


def _one_input_error(capsys, *argv):
    """Run ``argv`` and return its stderr, asserting exit 3, nothing on
    stdout, one stderr line and no warning."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, *argv, "--no-color")
    assert (code, out) == (3, ""), argv
    assert err.startswith("su2topo: error: ") and err.count("\n") == 1, argv
    assert [str(w.message) for w in caught] == [], argv
    return err


@pytest.mark.parametrize("command, spacing, message", [
    ("cs", 1e110, "quadrature weights"),       # h^3 overflows
    ("cs", 3e102, "quadrature sum"),           # the charge sum overflows
    ("cs", 1e-150, "quadrature weights"),      # h^3 underflows to 0
    ("chern", 1e80, "quadrature weights"),     # h^4 overflows
    ("chern", 1e76, "quadrature sum"),         # the Chern sum overflows
])
def test_spacings_that_break_the_quadrature_exit_3(tmp_path, capsys, command, spacing,
                                                   message):
    # every spacing of a CRC-valid 8^3 chart (cs) or 12^4 qpoly (chern)
    # file rewritten: the grid is valid, but its cell volume or its
    # integrals are not finite or vanish.  chern reads the unit spinor of
    # the qpoly file, whose densities from the stored jet vanish up to
    # rounding noise of size |d n|^4 ~ |phi|^-4: the default qpoly's sum
    # to about 1e291 at h = 1e76, while a zero of phi 1e-8 off the site
    # (3, 5, 6, 8) lifts them there past what h^4 = 1e304 leaves finite
    if command == "cs":
        path = _chart_file(tmp_path)
    elif message == "quadrature sum":
        site = -2.0 + 4.0 / 11 * np.array([3, 5, 6, 8])
        path = _phi_file(tmp_path, first_root=site + 1e-8)
    else:
        path = _phi_file(tmp_path)
    capsys.readouterr()
    rank = 3 if command == "cs" else 4
    for axis in range(rank):
        _patch(path, 8 + 21 * axis + 12, struct.pack("<d", spacing))
    assert message in _one_input_error(capsys, command, path)


def test_norms_that_overflow_exit_3(tmp_path, capsys, monkeypatch):
    # finite samples whose |phi|^2 overflows: an input error on every
    # command, not a ledger FAIL, a warning or a normalization message
    monkeypatch.chdir(tmp_path)
    err = _one_input_error(capsys, "verify", "linear", "--grid", "8,8,8,8",
                           "--box=1e154:2e154")
    assert err == "su2topo: error: phi norm overflows at site (0, 0, 0, 0): its " \
                  "samples are too large to square\n"
    path = _phi_file(tmp_path)
    _patch(path, 8 + 4 * 21 + 8 * 1000, struct.pack("<d", 1e300))
    for command in _FILE_COMMANDS:
        err = _one_input_error(capsys, *command, path)
        name = "phi" if command == ("zeros",) else "spinor"
        assert err == (f"su2topo: error: {name} norm overflows at site (0, 1, 8, 10): "
                       "its samples are too large to square\n"), command


def test_a_zero_of_the_spinor_exits_3_on_every_unit_route(tmp_path, capsys):
    # Psi = 0 at one site of a chart file: each command that takes the unit
    # spinor stops at normalize's check, with the site, whichever route
    # calls it (chern before its rank check)
    path = _chart_file(tmp_path)
    capsys.readouterr()
    site = (2, 3, 4)
    _patch(path, 8 + 3 * 21 + 32 * int(np.ravel_multi_index(site, (8, 8, 8))), bytes(32))
    for command in (("decompose", "--psi"), ("cs",), ("chern",)):
        err = _one_input_error(capsys, *command, path)
        assert err == f"su2topo: error: spinor norm 0.000e+00 < 1.0e-12 at site {site}\n"


def test_a_jacobian_that_overflows_at_a_zero_exits_3(tmp_path, capsys):
    # a jet file of the linear map whose jet is scaled by 1e100: the norms
    # are finite, but the site Jacobians of the zero's window are not
    grid = st.box_grid((8,) * 4, -1.0, 1.0)
    phi = stored(st.linear_phi_field(np.eye(4), np.array([0.013, -0.021, 0.032, 0.011]),
                                     grid))
    path = str(tmp_path / "steep.fld")
    write_field(st.PhiField(grid, phi.values, jet=1e100 * phi.jet), path)
    err = _one_input_error(capsys, "zeros", path)
    assert err.startswith("su2topo: error: the Jacobian determinant is not finite near "
                          "the zero at (0.013"), err


def test_decompose_on_different_grids_names_both_files(tmp_path, capsys):
    psi = _chart_file(tmp_path)
    gauge = str(tmp_path / "gauge.fld")
    assert main(["generate", "--kind", "random-gauge", "--grid", "6,6,6,6",
                 "--out", gauge]) == 0
    capsys.readouterr()
    code, out, err = run(capsys, "decompose", "--psi", psi, "--gauge", gauge)
    assert (code, out) == (3, "")
    assert err == (f"su2topo: error: spinor and gauge grids differ: {psi} is on a "
                   f"8x8x8 grid, {gauge} on a 6x6x6x6 grid\n")


@pytest.mark.parametrize("plane", ["first", "last"])
def test_corrupt_jet_plane_exits_3(tmp_path, capsys, plane):
    # a file's jet is checksummed one plane at a time and left in the
    # file; a flipped bit in its first or its last plane still exits 3, in
    # a phi, a spinor and a gauge file
    grid = st.box_grid((12,) * 4, -2.0, 2.0)
    paths = {"phi": _phi_file(tmp_path)}
    for kind in ("spinor", "gauge"):
        paths[kind] = str(tmp_path / f"{kind}.fld")
        write_field(st.random_config(1, kind, grid), paths[kind])
    bad = str(tmp_path / "bad.fld")
    for kind, floats, argv in (("phi", 4, ["zeros", bad]),
                               ("spinor", 4, ["decompose", "--psi", bad]),
                               ("gauge", 12, ["decompose", "--psi", paths["spinor"],
                                              "--gauge", bad])):
        blob = bytearray(open(paths[kind], "rb").read())
        jet_start = 8 + 4 * 21 + 8 * floats * 12**4
        plane_bytes = 8 * floats * 4 * 12**3
        assert len(blob) == jet_start + 12 * plane_bytes + 8
        pos = jet_start + 17 if plane == "first" else len(blob) - 8 - plane_bytes // 2
        blob[pos] ^= 0x04
        open(bad, "wb").write(bytes(blob))
        code, out, err = run(capsys, *argv, "--no-color")
        assert code == 3 and out == "", kind
        assert "checksum" in err and "Traceback" not in err


def test_file_changed_after_its_read_exits_3(tmp_path, capsys, monkeypatch):
    # the zero search reads the jet from the file after the read verified
    # it: a file cut short in between is one input error, exit 3
    from su2topo import fldio
    path = _phi_file(tmp_path)
    read = fldio.read_field

    def read_then_truncate(name):
        field = read(name)
        os.truncate(name, os.path.getsize(name) - 8)
        return field

    monkeypatch.setattr(fldio, "read_field", read_then_truncate)
    code, out, err = run(capsys, "zeros", path, "--no-color")
    assert code == 3 and out == ""
    assert err.startswith("su2topo: input error [file-changed]: ")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("change", ["truncate", "replace"])
def test_values_of_a_file_changed_after_its_read_exit_3(tmp_path, capsys, monkeypatch,
                                                         change):
    # the values, too, are read from the file after the read verified it:
    # on a values-only file, every command exits 3 with one input error
    from su2topo import fldio
    phi = _phi_file(tmp_path)
    paths = [_bare_copy(phi, str(tmp_path / f"bare{k}.fld")) for k in range(4)]
    read = fldio.read_field

    def read_then_change(name):
        field = read(name)
        if change == "truncate":
            os.truncate(name, os.path.getsize(name) - 8)
        else:
            copy = name + ".copy"
            open(copy, "wb").write(open(name, "rb").read())
            os.replace(copy, name)
        return field

    monkeypatch.setattr(fldio, "read_field", read_then_change)
    for command, path in zip(_FILE_COMMANDS, paths):
        code, out, err = run(capsys, *command, path, "--no-color")
        assert (code, out) == (3, ""), command
        assert err.startswith("su2topo: input error [file-changed]: "), command
        assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("entry", [np.nan, np.inf, -np.inf])
def test_non_finite_values_exit_3_naming_the_values(tmp_path, capsys, entry):
    # the reader checks each values plane as it checksums it: a CRC-valid
    # file with a non-finite value in its first, a middle or its last
    # plane is one input error on every command, which names the values
    for plane in (0, 7, 11):
        path = _phi_file(tmp_path)
        _patch(path, 8 + 4 * 21 + 8 * (4 * 12**3 * plane + 4 * 100 + 2),
               struct.pack("<d", entry))
        for command in _FILE_COMMANDS:
            err = _one_input_error(capsys, *command, path)
            assert err == (f"su2topo: error: {path}: phi values contain non-finite "
                           "samples\n"), (plane, command)


def test_bare_cs_reads_each_values_plane_a_bounded_number_of_times(tmp_path, capsys,
                                                                   monkeypatch):
    # with one plane a slab, the charge sweep over a values-only chart file
    # reads each plane once for normalize's check and then in the stencil
    # planes of the slabs that read it (up to 4 next to an open end, whose
    # one-sided stencils read 3 planes), never the whole grid for a slab;
    # the report is that of the default slabs.  A copy that is not unit
    # reads its planes as often: the unit spinor normalize serves reads
    # each plane the sweep asks for once.
    from su2topo import fldio, lattice
    path = _bare_copy(_chart_file(tmp_path), str(tmp_path / "bare.fld"))
    field = st.read_field(path)
    scaled = str(tmp_path / "scaled.fld")
    write_field(type(field)(field.grid, 2.0 * stored(field).values), scaled)
    real = fldio._FileBlocks.__call__
    for path in (path, scaled):
        capsys.readouterr()
        expected = run(capsys, "cs", path, "--no-color")
        hits, sizes = np.zeros(8, dtype=int), []

        def counted(self, block):
            planes = range(*(block[0] if isinstance(block, tuple) else block).indices(8))
            hits[list(planes)] += 1
            sizes.append(len(planes))
            return real(self, block)

        with monkeypatch.context() as patch:
            patch.setattr(lattice, "SLAB_SITES", 8 * 8)
            patch.setattr(fldio._FileBlocks, "__call__", counted)
            assert run(capsys, "cs", path, "--no-color") == expected
        assert max(sizes) == 3 and hits.max() == 5, (path, sizes, hits)


def test_retired_su2_kind_exits_3(tmp_path, capsys):
    # kind 4 held one SU(2) matrix a site (8 floats) and kind 5 one scalar,
    # kinds no command reads; a CRC-valid file of either layout is an
    # unknown kind
    for kind, floats in ((4, 8), (5, 1)):
        path = str(tmp_path / f"kind{kind}.fld")
        blob = (b"FLD2" + struct.pack("<BBBB", kind, 3, 0, 0)
                + struct.pack("<IddB", 4, 0.0, 0.1, 0) * 3
                + np.zeros(4**3 * floats, dtype="<f8").tobytes())
        open(path, "wb").write(blob + struct.pack("<Q", zlib.crc32(blob)))
        with pytest.raises(st.HeaderError, match=f"unknown field kind {kind}"):
            st.read_field(path)
        for command in _FILE_COMMANDS:
            code, out, err = run(capsys, *command, path, "--no-color")
            assert (code, out) == (3, ""), command
            assert err == (f"su2topo: input error [bad-header]: {path}: unknown field "
                           f"kind {kind}\n")


def test_retired_fld1_file_exits_3(tmp_path, capsys):
    path = str(tmp_path / "old.fld")
    grid = st.Grid((5, 6, 7), (0.0,) * 3, (0.1,) * 3, (False,) * 3)
    write_field(st.PhiField(grid, np.zeros(grid.shape + (4,))), path)
    blob = open(path, "rb").read()
    open(path, "wb").write(b"FLD1" + blob[4:])
    code, _, err = run(capsys, "zeros", path, "--no-color")
    assert code == 3
    assert "retired FLD1" in err
    assert "Traceback" not in err


def test_generate_timings_flag(tmp_path, capsys):
    report = str(tmp_path / "t.txt")
    code, _, _ = run(capsys, "verify", "linear", "--grid", "12,12,12,12",
                     "--box=-1:1", "--no-color", "--report", report, "--timings")
    assert code == 0
    assert "timings" in open(report).read()


def test_threads_variable_is_not_read(tmp_path, capsys, monkeypatch):
    # zeros are classified one after another; no variable sets a worker count
    path = _phi_file(tmp_path)
    plain = run(capsys, "zeros", path, "--no-color")
    monkeypatch.setenv("SU2TOPO_THREADS", "abc")
    assert run(capsys, "zeros", path, "--no-color") == plain
    assert plain[0] == 0 and "threads" not in plain[1]


def test_terminal_reports_color_their_verdicts(tmp_path, capsys, monkeypatch):
    # on a terminal PASS is green and FAIL red; --no-color, SU2TOPO_NO_COLOR
    # and the --report file stay plain
    monkeypatch.delenv("SU2TOPO_NO_COLOR", raising=False)
    monkeypatch.setattr(sys.stdout, "isatty", lambda: True)
    argv = ["verify", "linear", "--grid", "12,12,12,12", "--box=-1:1", "--tol", "1e-9"]
    report = tmp_path / "r.txt"
    code, colored, _ = run(capsys, *argv, "--report", str(report))
    assert code == 1
    assert "status: \x1b[32mPASS\x1b[0m" in colored
    assert "status: \x1b[31mFAIL\x1b[0m" in colored
    plain = report.read_text()
    assert "\x1b" not in plain and "status: PASS" in plain and "status: FAIL" in plain
    assert re.sub(r"\x1b\[\d+m", "", colored) == plain
    assert run(capsys, *argv, "--no-color") == (1, plain, "")
    monkeypatch.setenv("SU2TOPO_NO_COLOR", "1")
    assert run(capsys, *argv) == (1, plain, "")


@pytest.mark.parametrize("argv", [
    ["verify", "identity", "--grid", "16,16,16", "--tol", "1e-9"],
    ["verify", "linear", "--grid", "12,12,12,12", "--box=-1:1", "--tol", "1e-9"],
])
def test_failed_bound_checks_print_the_comparison_that_holds(capsys, argv):
    code, out, _ = run(capsys, *argv, "--no-color")
    assert code == 1
    checks = out.split("checks:")[1].split("\n    - name: ")[1:]
    statuses = {}
    for block in checks:
        name, status, detail = (line.split(": ", 1)[-1]
                                for line in block.splitlines()[:3])
        statuses[name] = status
        if name == "euler-alias":
            continue
        holds = " >= " in detail or " > " in detail
        assert holds == (status == "FAIL"), (name, status, detail)
    assert "FAIL" in statuses.values() and "PASS" in statuses.values()


def test_bad_grid_spec_exits_2(capsys):
    with pytest.raises(SystemExit) as info:
        main(["verify", "linear", "--grid", "bogus"])
    assert info.value.code == 2


def test_verify_identity_builds_the_parallel_potential_once(capsys, monkeypatch):
    # the charge sweep computes A slab by slab, once, and hands each slab
    # to the trace stencils and the decomposition kernel; no whole-grid
    # gauge field is built (the parts a and b are not read by verify)
    from su2topo import chern_simons, lattice
    monkeypatch.setattr(lattice, "SLAB_SITES", 3 * 16 * 16)
    built, slabs = [], []
    real = st.GaugeField.__post_init__
    real_components = chern_simons.parallel_components

    def counted(self):
        built.append(self.grid.shape)
        real(self)

    def components(current):
        slabs.append(current.shape[0])
        return real_components(current)

    monkeypatch.setattr(st.GaugeField, "__post_init__", counted)
    monkeypatch.setattr(chern_simons, "parallel_components", components)
    # At 16^3 the trace route's O(h^2) error exceeds the default --tol.
    code, out, _ = run(capsys, "verify", "identity", "--grid", "16,16,16",
                       "--no-color", "--tol", "0.1")
    assert code == 0
    assert "parallel-condition" in out
    assert built == []
    assert slabs == [3, 3, 3, 3, 3, 1]


def _plane_hits(slabs, planes):
    """How often each axis-0 plane is covered by the ``slabs``."""
    hits = np.zeros(planes, dtype=int)
    for slab in slabs:
        hits[slab] += 1
    return hits


def test_verify_identity_computes_the_covariant_derivative_once(capsys, monkeypatch):
    # decompose asks for D Psi slab by slab, in order: every plane exactly
    # once
    import su2topo.decomposition as decomposition
    from su2topo import lattice
    planes = []
    real = decomposition.covariant_derivative

    def counted(samples, dvalues, gauge):
        planes.append(samples.shape[0])
        return real(samples, dvalues, gauge)

    monkeypatch.setattr(decomposition, "covariant_derivative", counted)
    code, out, _ = run(capsys, "verify", "identity", "--grid", "48,48,48",
                       "--no-color")
    assert code == 0
    assert "max_DPsi" in out
    assert len(planes) > 1
    assert planes == [s.stop - s.start for s in lattice.slabs(st.s3_chart_grid(48))]


def test_verify_identity_computes_the_spinor_current_once_per_sweep(capsys,
                                                                    monkeypatch):
    # J and the chart jet are never stored: the one sweep of the knot
    # charges and the parallel condition asks for each slab by slab, in
    # order, and covers every plane exactly once (twice, in two sweeps,
    # when the parallel condition ran a decompose sweep of its own)
    from su2topo import lattice
    calls = {"current": [], "exact_jet": []}
    real_current, real_jet = st.fields._slab_current, st.SpinorField.exact_jet

    def current(slab, samples, dvalues):
        calls["current"].append(slab)
        assert samples.shape[0] == dvalues.shape[0] == slab.stop - slab.start
        return real_current(slab, samples, dvalues)

    def exact_jet(self, slab=slice(None)):
        calls["exact_jet"].append(slab)
        return real_jet(self, slab)

    monkeypatch.setattr(st.fields, "_slab_current", current)
    monkeypatch.setattr(st.SpinorField, "exact_jet", exact_jet)
    code, out, _ = run(capsys, "verify", "identity", "--grid", "48,48,48",
                       "--no-color")
    assert code == 0
    assert "max_DPsi" in out
    for slabs in calls.values():
        assert slabs == list(lattice.slabs(st.s3_chart_grid(48)))
        assert len(slabs) > 1
        assert np.all(_plane_hits(slabs, 48) == 1)


def test_verify_identity_peak_memory_is_bounded_by_the_field(capsys):
    # The charge routes and the parallel condition run in one slab sweep
    # that never stores the spinor current.  Traced peak over the
    # spinor-with-jets bytes at 48^3: 7.58 with whole-grid temporaries, 5.70
    # slab by slab with J and a, b, D Psi stored, 3.04 streaming, 2.40 with
    # the chart jet taken per slab, 2.07 with A, c and H held as a halo,
    # 1.68 with the chart values served and the densities summed as they
    # are swept, 1.48 before and 1.37 after the stencils read held planes
    # in place of copied windows and the kernels ran once a slab.  The
    # bound was 3.3 from 3.04 on, then 1.9; it is now 1.76, which resident
    # values and densities (0.44 of the field) exceed.
    field_bytes = 48**3 * (2 + 3 * 2) * 16
    peak, (code, _, _) = peak_traced_bytes(
        lambda: run(capsys, "verify", "identity", "--grid", "48,48,48", "--no-color"))
    assert code == 0
    assert peak < 1.76 * field_bytes


def test_verify_qpoly_peak_memory_is_bounded_by_the_values(capsys):
    # The box path streams: the generator fills phi's values slab by slab
    # and the zero screen reads one slab of cells and a halo plane at a
    # time.  Traced peak over the 24^4 values bytes: 4.77 with whole-grid
    # points and product temporaries, 3.20 streaming (the peak is then the
    # first degree sphere); the bound leaves 0.6 of margin.
    values_bytes = 24**4 * 4 * 8
    peak, (code, out, _) = peak_traced_bytes(
        lambda: run(capsys, "verify", "qpoly", "--grid", "24,24,24,24", "--no-color"))
    assert code == 0 and "index_sum: 2" in out
    assert peak < 3.8 * values_bytes


def _charges(out):
    """The printed value of each Q_* entry, as floats."""
    return {name: float(value) for name, value in
            re.findall(r"(Q_\w+):\n\s+value: (\S+)", out)}


# Charges printed before the spinor current and the closed-form kernels;
# the rewrite keeps them within 4 ulp.
_PINNED = {
    "verify-48": {"Q_spinor": 1.0001785090721933, "Q_trace": 0.9927189162201279,
                  "Q_fn": 1.0001785090721935},
    "cs-32": {"Q_spinor": 1.0004017081549652, "Q_trace": 0.9837262947457115,
              "Q_fn": 1.0004017081549654},
}


def _assert_pinned(got, want):
    assert set(got) == set(want)
    for name, value in want.items():
        assert abs(got[name] - value) <= 4 * np.spacing(value), name


def test_identity_charges_stay_pinned(tmp_path, capsys):
    code, out, _ = run(capsys, "verify", "identity", "--grid", "48,48,48",
                       "--no-color")
    assert code == 0
    _assert_pinned(_charges(out), _PINNED["verify-48"])
    # max_b is the largest entry modulus of b's matrices, bit for bit
    assert "max_DPsi: 5.661048867003677e-16\n" in out
    assert "max_b: 4.724974980969774e-16\n" in out

    path = str(tmp_path / "id32.fld")
    assert run(capsys, "generate", "--kind", "identity", "--chart", "s3",
               "--grid", "32,32,32", "--out", path)[0] == 0
    code, out, _ = run(capsys, "cs", path, "--no-color")
    assert code == 0
    _assert_pinned(_charges(out), _PINNED["cs-32"])


# SHA-256 of the 16^3 chart files, with their jets; a converter that drops
# the jet writes a file a quarter of the size
_CHART_FILE_DIGESTS = {
    ("identity",): "2036541b1ee9347cfcbc71054adbd443a5902fe783c1d1dd012c0692b5de8f9d",
    ("qpower", "--power", "2"):
        "2cdad064652f0a2cb01c2181d0ec025e25b2b4210ed0b2c152cc3469f133137b",
    ("qpower", "--power", "-3"):
        "b5e00d2b42402869743b8f21b14498a01c785334d8d6eec29f9408141a7a6a42",
}


@pytest.mark.parametrize("kind", list(_CHART_FILE_DIGESTS), ids=" ".join)
def test_chart_files_keep_their_bytes(kind, tmp_path, capsys):
    path = tmp_path / "chart.fld"
    assert run(capsys, "generate", "--kind", *kind, "--chart", "s3",
               "--grid", "16,16,16", "--out", str(path))[0] == 0
    data = path.read_bytes()
    assert len(data) == 8 + 3 * 21 + 16**3 * 4 * 4 * 8 + 8
    assert hashlib.sha256(data).hexdigest() == _CHART_FILE_DIGESTS[kind]


# Exit code and SHA-256 of the report of runs on small files, recorded
# while decompose still built the whole parallel potential and spinor and
# gauge jets were still read whole.  "chart" is a 16^3 identity chart
# file, "qpoly" the 12^4 two-root file, "spinor" and "gauge" 10^4 random
# files; the grids of the first two differ from the gauge file's (exit 3).
# Those of "cs chart-bare", "chern spinor" and "verify identity" were
# recorded again when quadrature took its own summation order, the exact
# sum of plane sums, which moved a value of each by one or two ulps, and
# that of "zeros qpoly-bare" when the boundary flux became the degree of
# phi/|phi| (exit 1 -> 0, C2_boundary 1.89088352905581 ->
# 1.9887104657696208).  That of "chern spinor" was recorded again when
# every Chern route came to read the normalized spinor and the entries lost
# their imag_residue, which was 0.0 on every input: C2_spinor
# 0.000631233631116998 -> 1.2554718767481276e-19, C2_unit
# 1.355807448794972e-19 -> 1.444853693466068e-19, the spread 6.312e-04 ->
# 1.323e-04; C2_trace 0.00013231347149549464 kept its bits.
_REPORT_DIGESTS = {
    ("decompose", "--psi", "chart"):
        (0, "5755dad2862c6b79d66191da54dccf038665866a8aacc946bba954f9a8936070"),
    ("decompose", "--psi", "chart", "--gauge", "gauge"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("decompose", "--psi", "qpoly"):
        (0, "8f35f4782c0a872a5ff6a7a1d3a83231147155a55ad7fdf90479bf38a4406dc8"),
    ("decompose", "--psi", "qpoly", "--gauge", "gauge"):
        (3, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"),
    ("decompose", "--psi", "spinor"):
        (0, "50057c7712c054625fe5aff22fcfa5cefd7b66872e329fc77477aee89c45e34e"),
    ("decompose", "--psi", "spinor", "--gauge", "gauge"):
        (0, "50057c7712c054625fe5aff22fcfa5cefd7b66872e329fc77477aee89c45e34e"),
    ("decompose", "--psi", "spinor-bare"):
        (0, "50057c7712c054625fe5aff22fcfa5cefd7b66872e329fc77477aee89c45e34e"),
    ("cs", "chart-bare"):
        (0, "f5c9f26c86d855fcd3b99649f680f77e486665b693fa2be96349be8423715d71"),
    ("zeros", "qpoly"):
        (0, "6359da10891dcf41fe6932e3f05e9a5daed14d097445fb4f225e93b96baa21f3"),
    ("zeros", "qpoly-bare"):
        (0, "e0089c82d5ca88ca9c477493ed02aea8776a828dd6efd114999e64bb7c706c7a"),
    ("cs", "chart"):
        (1, "fa22b7dbbf5627982ae790494d5b8f5b94e6aad8d9eac8284804ce37e20e6035"),
    ("chern", "spinor"):
        (0, "d6af304a1bc0654e3e2db32a84f85b9a993b809abe8f0bdb49b01e91c877332d"),
    ("verify", "identity", "--grid", "48,48,48"):
        (0, "ff746648405ddb03d23188f4d0e9306c3894a2fa5458691a3ea38c4914375746"),
    ("verify", "qpower:-2", "--grid", "24,24,24"):
        (1, "493829045fc12cdb1931cf695aa4e91d612ad0d89cfd16ca1c9ffc5d0e7d0ba5"),
}


@pytest.fixture(scope="module")
def report_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("reports")
    paths = {"qpoly": _phi_file(root)}
    for name, argv in (("chart", ["identity", "--chart", "s3", "--grid", "16,16,16"]),
                       ("spinor", ["random-spinor", "--grid", "10,10,10,10", "--seed", "1"]),
                       ("gauge", ["random-gauge", "--grid", "10,10,10,10", "--seed", "2"])):
        paths[name] = str(root / f"{name}.fld")
        assert main(["generate", "--kind", *argv, "--out", paths[name]]) == 0
    for name in ("qpoly", "chart", "spinor"):      # values-only copies
        paths[f"{name}-bare"] = _bare_copy(paths[name], str(root / f"{name}-bare.fld"))
    return paths


def _bare_copy(path, bare):
    """Write the values of the FLD file ``path``, without its jet, to ``bare``."""
    field = st.read_field(path)
    write_field(type(field)(field.grid, stored(field).values), bare)
    return bare


@pytest.mark.parametrize("argv", list(_REPORT_DIGESTS), ids=" ".join)
def test_reports_keep_their_bytes(argv, report_files, capsys):
    code, out, _ = run(capsys, *(report_files.get(arg, arg) for arg in argv), "--no-color")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _REPORT_DIGESTS[argv]


# Exit code and SHA-256 of the reports of the box generators' runs, and of
# the files they write, recorded while box blocks were still sampled at a
# meshgrid of their points, site-major.  The 32^4 box is the benchmark's
# for seed 101.  Those of "verify linear" were recorded again when the
# boundary flux became the degree of phi/|phi|, which moved C2_boundary by
# one ulp.
_BOX_REPORT_DIGESTS = {
    ("verify", "qpoly", "--grid", "16,16,16,16"):
        (0, "9302778513be19c681d2aa69e2fdc23cbd9b4490aff3a39ece176c1023371e94"),
    ("verify", "qpoly", "--grid", "16,16,16,16", "--box=-1.93:2.07"):
        (0, "621eaa6b2d26feaec3376069637c6c4d7335271900dc2ea370719efa368392ae"),
    ("verify", "qpoly", "--grid", "32,32,32,32", "--box=-1.989529:2.010471"):
        (0, "cabe011109cb1252299a84afe46e2de1b3685b9cdece2a697238fcb4f45d2bc4"),
    ("verify", "linear"):
        (0, "e140b3af66af62320f3bde55f41a5b81be307b5805d1f15ae9bf184bd3a0b187"),
    ("verify", "linear", "--grid", "12,12,12,12", "--shift=0.31,-0.2,0.17,0.05"):
        (0, "e900533366a13c3fa43bf9b25fc0bc5e290b856a10bead9e1ec3e46f1a54603b"),
}

_BOX_FILE_DIGESTS = {
    ("qpoly", "--grid", "12,12,12,12"):
        "bb583fc5b7e1b247aadc8a9bee4879a9929476797ba602d0f78c0f73dc2ae58f",
    ("qpower", "--power", "-3", "--chart", "box", "--grid", "10,10,10,10"):
        "352ba4e57f65b89387c1b0ec19de54cc67885fd98fb1a1aa821acb68bf66563e",
    ("linear",):
        "6cef7b6609cc902e0c9ed7a35666a2ef5df082936a49d8e5711febc13fbe330f",
}


@pytest.mark.parametrize("argv", list(_BOX_REPORT_DIGESTS), ids=" ".join)
def test_box_reports_keep_their_bytes(argv, capsys):
    code, out, _ = run(capsys, *argv, "--no-color")
    assert (code, hashlib.sha256(out.encode()).hexdigest()) == _BOX_REPORT_DIGESTS[argv]


@pytest.mark.parametrize("kind", list(_BOX_FILE_DIGESTS), ids=" ".join)
def test_box_files_keep_their_bytes(kind, tmp_path, capsys):
    path = tmp_path / "box.fld"
    assert run(capsys, "generate", "--kind", *kind, "--out", str(path))[0] == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == _BOX_FILE_DIGESTS[kind]


@pytest.mark.parametrize("argv, plane", [
    (("verify", "identity", "--grid", "48,48,48"), 48 * 48),
    (("verify", "qpower:-3", "--grid", "32,32,32"), 32 * 32),
    (("chern", "spinor-16"), 16**3),
], ids=lambda x: " ".join(x) if isinstance(x, tuple) else str(x))
def test_one_plane_slabs_keep_the_report_bytes(argv, plane, tmp_path, capsys, monkeypatch):
    # the benchmark's 96^3 sweep runs one plane a slab, where each stencil
    # reads its neighbour planes from the held planes of other slabs; the
    # pinned digests run several planes a slab, so each run here must give
    # the bytes of its default-slab run
    from su2topo import lattice
    if "spinor-16" in argv:
        path = str(tmp_path / "spinor.fld")
        assert run(capsys, "generate", "--kind", "random-spinor", "--grid", "16,16,16,16",
                   "--seed", "3", "--out", path)[0] == 0
        argv = [path if arg == "spinor-16" else arg for arg in argv]
    argv = [*argv, "--no-color"]
    default = run(capsys, *argv)
    assert plane < lattice.SLAB_SITES
    monkeypatch.setattr(lattice, "SLAB_SITES", plane)
    assert run(capsys, *argv) == default


@pytest.mark.parametrize("periodic, cell_centered", [((False, True, False, False), False),
                                                     ((False,) * 4, True)])
def test_zeros_rejects_an_unsummable_grid_before_the_search(
        tmp_path, capsys, monkeypatch, periodic, cell_centered):
    import su2topo.phi_mapping as phi_mapping
    calls = []
    monkeypatch.setattr(phi_mapping, "locate_zeros",
                        lambda phi: calls.append(1) or phi_mapping.ZeroSearch((), ()))
    grid = st.Grid((8,) * 4, (-1.0,) * 4, (0.25,) * 4, periodic, cell_centered)
    phi = st.linear_phi_field(np.eye(4), [0.04, -0.03, 0.02, 0.01], grid)
    path = str(tmp_path / "phi.fld")
    write_field(phi, path)
    code, out, err = run(capsys, "zeros", path, "--no-color")
    assert code == 3
    assert out == ""
    assert err == ("su2topo: error: boundary flux sums need an open "
                   "vertex-centered box\n")
    assert calls == []


def _ledger_check(out):
    block = out.split("name: ledger-equivalence\n")[1]
    return block.splitlines()[0].split(": ", 1)[1]


def test_dropping_a_zero_fails_the_ledger(capsys, monkeypatch):
    import su2topo.phi_mapping as phi_mapping
    real = phi_mapping.locate_zeros

    def drop_one(phi):
        search = real(phi)
        return phi_mapping.ZeroSearch(search.zeros[1:], search.suspicious_cells)

    monkeypatch.setattr(phi_mapping, "locate_zeros", drop_one)
    code, out, _ = run(capsys, "verify", "qpoly", "--no-color")
    assert code == 1
    assert "index_sum: 1" in out
    assert _ledger_check(out) == "FAIL"


def test_flipping_one_eta_fails_the_ledger(capsys, monkeypatch):
    import dataclasses
    import su2topo.phi_mapping as phi_mapping
    real = phi_mapping.local_degree

    def flip_left(phi, zero, radius=None):
        classified = real(phi, zero, radius=radius)
        if zero.position[0] > 0.0:
            return classified
        return dataclasses.replace(classified, eta=-classified.eta)

    monkeypatch.setattr(phi_mapping, "local_degree", flip_left)
    code, out, _ = run(capsys, "verify", "qpoly", "--no-color")
    assert code == 1
    assert "index_sum: 0" in out
    assert _ledger_check(out) == "FAIL"


def test_flipping_one_simplex_fails_the_ledger(capsys, monkeypatch):
    # the ledger's sum is the simplex count: one simplex counted with the
    # wrong orientation moves it off the boundary flux
    import su2topo.phi_mapping as phi_mapping
    real = phi_mapping._simplex_count

    def flip_first(*args):
        points, signs = real(*args)
        assert len(signs) == 2
        return points, np.concatenate([-signs[:1], signs[1:]])

    monkeypatch.setattr(phi_mapping, "_simplex_count", flip_first)
    # the flipped zero's degree also conflicts with its Jacobian's sign
    with pytest.warns(UserWarning, match="Jacobian sign 1 conflicts with degree -1"):
        code, out, _ = run(capsys, "verify", "qpoly", "--no-color")
    assert code == 1
    assert "index_sum: 0" in out
    assert _ledger_check(out) == "FAIL"


def test_zeros_counts_the_triple_zero_of_a_qpower_file(tmp_path, capsys):
    # Newton splits the degree -3 zero of q^-3 into three zeros; at 16^4
    # each gets one of its three simplices, where the degree spheres gave
    # the middle one degree 0 and the ledger -2.  The grids whose Newton
    # zeros come closer than a cell still ask for a finer grid.
    outs = {}
    for n in (12, 16, 20):
        path = str(tmp_path / f"q-3-{n}.fld")
        assert run(capsys, "generate", "--kind", "qpower", "--power", "-3", "--chart",
                   "box", "--grid", ",".join([str(n)] * 4), "--out", path)[0] == 0
        outs[n] = run(capsys, "zeros", path, "--no-color")
    code, out, _ = outs[16]
    assert code == 0
    assert "zero_count: 3" in out and "index_sum: -3" in out
    assert "C2_boundary: -2.996276955434688" in out
    assert out.count("degree: -1") == 3
    assert _ledger_check(out) == "PASS"
    for n in (12, 20):
        code, out, err = outs[n]
        assert code == 3 and out == ""
        assert "refine the grid to separate them" in err


def test_zeros_without_jets_passes_the_ledger(tmp_path, capsys):
    grid = st.box_grid((24, 24, 24, 24), -2.0, 2.0)
    roots = np.array([[-0.8, 0.11, -0.07, 0.13], [0.8, -0.12, 0.08, -0.1]])
    phi = st.quaternion_polynomial_field(roots, grid)
    path = str(tmp_path / "bare.fld")
    write_field(st.PhiField(grid, stored(phi).values), path)
    code, out, _ = run(capsys, "zeros", path, "--no-color")
    assert code == 0
    assert "index_sum: 2" in out
    assert "C2_boundary: 1.9974" in out


def _boundary_c2(out):
    return float(re.search(r"C2_boundary: (\S+)\n", out).group(1))


def test_bare_files_get_the_ledger_verdict_of_their_jet_files(tmp_path, capsys):
    # the boundary degree differences phi itself, not n = phi/|phi|, so a
    # values-only file gets its jet file's C2_boundary and verdict
    paths = [_phi_file(tmp_path)]
    for power in (2, -2):
        for n in (12, 16):
            paths.append(str(tmp_path / f"qpower{power}-{n}.fld"))
            assert run(capsys, "generate", "--kind", "qpower", "--power", str(power),
                       "--chart", "box", "--grid", ",".join([str(n)] * 4),
                       "--out", paths[-1])[0] == 0
    for path in paths:
        code, jet_out, _ = run(capsys, "zeros", path, "--no-color")
        assert code == 0, path
        bare = _bare_copy(path, path[:-4] + "-bare.fld")
        code, bare_out, _ = run(capsys, "zeros", bare, "--no-color")
        assert code == 0, path
        jet, got = _boundary_c2(jet_out), _boundary_c2(bare_out)
        assert abs(got - jet) <= 1e-14 * abs(jet), path


def test_zero_next_to_a_face_is_rejected(capsys):
    # the zero sits 0.05 from the x0 = 2 face, inside its degree sphere
    code, out, err = run(capsys, "verify", "linear", "--grid", "16,16,16,16",
                         "--shift", "1.95,0.01,0.02,0.03", "--no-color")
    assert code == 3 and out == ""
    assert err.startswith("su2topo: error: sampling sphere of radius")
    assert "zeros this close to the boundary are rejected" in err


def test_zero_next_to_a_face_gets_one_verdict_on_both_evaluators(tmp_path, capsys):
    # the analytic sampler could sample past the face, the lattice-only
    # interpolant cannot; both reject the zero before sampling, alike
    shift = "1.9,0.01,0.02,0.03"
    sampled = run(capsys, "verify", "linear", "--grid", "9,9,9,9", "--box=-2:2",
                  "--shift", shift, "--no-color")
    path = str(tmp_path / "lin.fld")
    assert run(capsys, "generate", "--kind", "linear", "--grid", "9,9,9,9",
               "--box=-2:2", "--shift", shift, "--out", path)[0] == 0
    lattice = run(capsys, "zeros", path, "--no-color")
    assert sampled == lattice
    code, out, err = sampled
    assert code == 3 and out == ""
    assert err == ("su2topo: error: sampling sphere of radius 1.500e+00 around "
                   "(1.9, 0.01, 0.02, 0.03) leaves the domain; zeros this close "
                   "to the boundary are rejected\n")


def test_zero_on_lattice_planes_is_found(capsys):
    # the zero (0.3, 0, 0, 0) lies on the planes x1 = x2 = x3 = 0, where
    # three components vanish on whole planes of corners: an open screen
    # (min < 0 < max) found no cell and the ledger failed
    code, out, _ = run(capsys, "verify", "linear", "--grid", "9,9,9,9",
                       "--box=-2:2", "--shift", "0.3,0,0,0", "--no-color")
    assert code == 0
    assert "zero_count: 1" in out
    assert _ledger_check(out) == "PASS"


def test_degree_sphere_error_prints_plain_floats(tmp_path, capsys):
    path = str(tmp_path / "lin.fld")
    assert run(capsys, "generate", "--kind", "linear", "--shift",
               "1.8,0.01,0.02,0.03", "--out", path)[0] == 0
    code, out, err = run(capsys, "zeros", path, "--no-color")
    assert code == 3
    assert err.startswith("su2topo: error: sampling sphere of radius")
    assert "around (1.8, 0.01" in err
    assert "np.float64" not in err and err.count("\n") == 1


def test_zero_on_a_face_site_is_an_error(capsys):
    code, out, err = run(capsys, "verify", "linear", "--grid", "9,9,9,9",
                         "--box=-2:2", "--shift", "2,0,0,0", "--no-color")
    assert code == 3
    assert err.startswith("su2topo: error: phi vanishes on the high face of axis 0")
    assert err.count("\n") == 1
    assert "at site (4, 4, 4)" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [
    ["verify", "qpoly", "--grid", "16,16,16"],
    ["verify", "qpoly", "--box=-2:2,-1:1"],
    ["verify", "qpower:x"],
    # values the generators reject: no file is involved, so usage errors
    ["verify", "identity", "--grid", "3,3,3"],
    ["verify", "qpower:0"],
    ["verify", "linear", "--grid", "2,2,2,2"],
    ["verify", "linear", "--box=1:-1"],
    ["generate", "--kind", "linear", "--grid", "2,2,2,2", "--out", "x.fld"],
    # kind/chart/box combinations that have no meaning
    ["generate", "--kind", "linear", "--chart", "s3", "--grid", "6,6,6,6",
     "--out", "x.fld"],
    ["generate", "--kind", "qpoly", "--chart", "s3", "--roots=0,0,0,0",
     "--out", "x.fld"],
    ["generate", "--kind", "random-spinor", "--chart", "s3", "--out", "x.fld"],
    ["generate", "--kind", "random-gauge", "--chart", "s3", "--out", "x.fld"],
    ["generate", "--kind", "identity", "--chart", "s3", "--box=-1:1",
     "--out", "x.fld"],
    ["verify", "identity", "--grid", "8,8,8", "--box=5:6"],
    ["verify", "qpower:2", "--grid", "8,8,8", "--box=-1:1"],
    ["verify", "identity", "--grid", "8,8,8,8"],
    # a tolerance that is not a finite positive number
    ["zeros", "x.fld", "--tol", "nan"],
    ["cs", "x.fld", "--tol=-1"],
    ["verify", "linear", "--tol", "0"],
    # a seed numpy's generator rejects
    ["generate", "--kind", "random-spinor", "--seed", "-1", "--out", "x.fld"],
    # kind flags the kind does not read, even at their default values
    ["generate", "--kind", "linear", "--grid", "6,6,6,6", "--power", "3", "--seed", "5",
     "--roots", "0,0,0,0", "--out", "x.fld"],
    ["generate", "--kind", "linear", "--power", "1", "--out", "x.fld"],
    ["generate", "--kind", "linear", "--seed", "0", "--out", "x.fld"],
    ["generate", "--kind", "linear", "--roots=0.1,0,0,0", "--out", "x.fld"],
    ["generate", "--kind", "qpower", "--chart", "s3", "--shift", "1,1,1,1",
     "--seed", "3", "--out", "x.fld"],
    ["generate", "--kind", "qpoly", "--power", "2", "--out", "x.fld"],
    ["generate", "--kind", "identity", "--chart", "s3", "--seed", "1", "--out", "x.fld"],
    ["generate", "--kind", "random-gauge", "--shift", "0,0,0,0", "--out", "x.fld"],
    ["generate", "--kind", "random-spinor", "--roots=0,0,0,0", "--out", "x.fld"],
    ["verify", "identity", "--shift", "1,2,3,4"],
    ["verify", "qpoly", "--shift", "0.05,-0.03,0.02,0.01"],
])
def test_inconsistent_arguments_exit_2(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("su2topo: usage error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err
    assert not (tmp_path / "x.fld").exists()


@pytest.mark.parametrize("argv", [
    ["cs", "x.fld", "--seed", "1"],
    ["zeros", "x.fld", "--grid", "4,4,4,4"],
    ["chern", "x.fld", "--box=0:1"],
    ["decompose", "--psi", "x.fld", "--threads", "2"],
    ["zeros", "x.fld", "--threads", "2"],
    ["verify", "qpoly", "--threads", "1"],
    ["generate", "--kind", "linear", "--grid", "6,6,6,6", "--out", "x.fld",
     "--tol", "0.1"],
])
def test_flags_a_subcommand_does_not_read_exit_2(capsys, tmp_path, monkeypatch,
                                                 argv):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(argv)
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert "unrecognized arguments" in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.fld").exists()


@pytest.mark.parametrize("argv", [
    ["--roots", "a,b,c,d"],
    ["--roots=0,0,0"],
    ["--roots=0,0,0,0;1,1"],
    ["--shift", "1,2,3"],
    ["--shift", "x,0,0,0"],
])
def test_malformed_vectors_exit_2_at_parse_time(capsys, tmp_path, monkeypatch, argv):
    # --roots and --shift are read as 4-vectors before anything is built
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as info:
        main(["generate", "--kind", "qpoly", *argv, "--out", "x.fld"])
    err = capsys.readouterr().err
    assert info.value.code == 2
    assert f"error: argument {argv[0].split('=')[0]}: " in err
    assert "Traceback" not in err
    assert not (tmp_path / "x.fld").exists()


GRID4 = st.box_grid((6, 6, 6, 6), -2.0, 2.0)
ROOTS = np.array([[-0.9, 0.1, 0.0, 0.2], [0.9, 0.0, -0.1, 0.0]])


@pytest.mark.parametrize("argv, build", [
    pytest.param(["--kind", "identity", "--chart", "s3", "--grid", "8,8,8"],
                 lambda: st.spinor_to_phi(st.identity_map_s3((8, 8, 8))),
                 id="identity-s3"),
    pytest.param(["--kind", "qpower", "--chart", "s3", "--power", "2",
                  "--grid", "8,9,10"],
                 lambda: st.quaternion_power_field(2, st.s3_chart_grid((8, 9, 10))),
                 id="qpower-s3-positive"),
    pytest.param(["--kind", "qpower", "--chart", "s3", "--power", "-1",
                  "--grid", "8,8,8"],
                 lambda: st.quaternion_power_field(-1, st.s3_chart_grid((8, 8, 8))),
                 id="qpower-s3-negative"),
    pytest.param(["--kind", "qpower", "--power", "3", "--grid", "6,6,6,6",
                  "--box=-2:2"],
                 lambda: st.quaternion_power_field(3, GRID4),
                 id="qpower-box-positive"),
    pytest.param(["--kind", "qpower", "--power", "-2", "--grid", "6,6,6,6",
                  "--box=-2:2"],
                 lambda: st.quaternion_power_field(-2, GRID4),
                 id="qpower-box-negative"),
    pytest.param(["--kind", "qpoly", "--grid", "10,10,10,10", "--box=-2:2",
                  "--roots=-0.9,0.1,0,0.2;0.9,0,-0.1,0"],
                 lambda: st.quaternion_polynomial_field(
                     ROOTS, st.box_grid((10, 10, 10, 10), -2.0, 2.0)),
                 id="qpoly"),
    pytest.param(["--kind", "linear", "--grid", "6,6,6,6", "--box=-2:2",
                  "--shift", "0.1,0,0,0.02"],
                 lambda: st.linear_phi_field(np.eye(4), [0.1, 0.0, 0.0, 0.02], GRID4),
                 id="linear"),
    pytest.param(["--kind", "random-spinor", "--seed", "3", "--grid", "6,6,6,6",
                  "--box=-2:2"],
                 lambda: st.random_config(3, "spinor", GRID4), id="random-spinor"),
    pytest.param(["--kind", "random-gauge", "--seed", "4", "--grid", "6,6,6,6",
                  "--box=-2:2"],
                 lambda: st.random_config(4, "gauge", GRID4), id="random-gauge"),
])
def test_generate_writes_the_library_field(tmp_path, capsys, argv, build):
    cli_path, lib_path = tmp_path / "cli.fld", tmp_path / "lib.fld"
    code, _, _ = run(capsys, "generate", *argv, "--out", str(cli_path))
    assert code == 0
    write_field(build(), str(lib_path))
    assert cli_path.read_bytes() == lib_path.read_bytes()


def _subcommand_actions():
    """Each subcommand's arguments, read from the parser's own table."""
    parser = build_parser()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    return {name: [a for a in p._actions if not isinstance(a, argparse._HelpAction)]
            for name, p in sub.choices.items()}


def _join(values):
    return ",".join(str(v) for v in values)


SMALL_INT = hst.integers(-5, 5)
ARGV_VALUES = {
    "grid": hst.lists(hst.integers(1, 8), min_size=2, max_size=5).map(_join),
    "box": hst.lists(hst.sampled_from(["-2:2", "-1:1", "0:1", "1:-1", "5:6"]),
                     min_size=1, max_size=4).map(_join),
    "shift": hst.lists(hst.sampled_from([0.0, 0.05, -0.3]),
                       min_size=3, max_size=5).map(_join),
    "seed": SMALL_INT,
    "power": SMALL_INT,
    "tol": hst.sampled_from([1e-12, 0.05, 0.2, 1.0]),
    "roots": hst.sampled_from(["-0.9,0.1,0,0.2;0.9,0,-0.1,0", "0,0,0,0",
                               "a,b,c,d", "1,2,3"]),
    "config": hst.sampled_from(["identity", "qpower:2", "qpower:-1", "linear",
                                "qpoly", "qpower:x", "bogus"]),
}


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    root = tmp_path_factory.mktemp("argv")
    grid = st.box_grid((6, 6, 6, 6), -1.0, 1.0)
    fields = {"phi.fld": st.linear_phi_field(np.eye(4), [0.1, 0.0, 0.0, 0.0], grid),
              "psi4.fld": st.random_config(1, "spinor", grid),
              "gauge.fld": st.random_config(2, "gauge", grid),
              "psi3.fld": st.identity_map_s3((8, 8, 8))}
    for name, field in fields.items():
        write_field(field, str(root / name))
    return root, [str(root / name) for name in [*fields, "missing.fld"]]


@settings(max_examples=30)
@given(data=hst.data())
def test_random_argv_keeps_the_exit_code_contract(argv_files, data):
    root, files = argv_files
    actions = _subcommand_actions()
    command = data.draw(hst.sampled_from(sorted(actions)))
    optional = [a for a in actions[command] if a.option_strings and not a.required]
    chosen = data.draw(hst.lists(hst.sampled_from(optional), unique=True, max_size=4))
    argv = [command]
    for action in [a for a in actions[command] if a.required] + chosen:
        if action.option_strings:
            argv.append(action.option_strings[-1])
        if action.nargs == 0:
            continue
        if action.choices:
            value = data.draw(hst.sampled_from(sorted(action.choices)))
        elif action.dest in ARGV_VALUES:
            value = data.draw(ARGV_VALUES[action.dest])
        elif action.dest in ("out", "report", "csv"):
            value = str(root / f"out.{action.dest}")
        else:
            value = data.draw(hst.sampled_from(files))
        # "=" keeps a value that starts with "-" from reading as a flag
        if action.option_strings:
            argv[-1] += f"={value}"
        else:
            argv.append(value)
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    assert code in (0, 1, 2, 3), (argv, code)
    assert "Traceback" not in err.getvalue(), argv
