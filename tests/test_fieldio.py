import json
import struct
from io import StringIO

import numpy as np
import pytest
from numpy.testing import assert_allclose

from epriccati.fieldio import (
    MAGIC,
    fmt,
    read_scalar_field,
    write_norm_csv,
    write_scalar_field,
    write_snapshot,
    write_sweep_csv,
    write_tracer_csv,
)
from epriccati.riccati import PhysicalParams
from epriccati.simulate import NormSeries, SpectralFrame
from epriccati.spectral import Grid
from epriccati.tracing import TracerSeries


def test_float_formatting_round_trips():
    for x in (0.1, 1.0 / 3.0, 4.79e-3, -2.0**-40, 1e308):
        assert float(fmt(x)) == x
    assert fmt(0.1) == "0.1"  # shortest form, not 17 digits


def test_scalar_field_round_trip(tmp_path):
    rng = np.random.default_rng(0)
    values = rng.standard_normal((32, 32))
    path = tmp_path / "field.epf"
    write_scalar_field(path, values, 7.5)
    back, L = read_scalar_field(path)
    assert L == 7.5
    assert np.array_equal(back, values)


def test_snapshot_header_layout(tmp_path):
    path = tmp_path / "field.epf"
    write_scalar_field(path, np.zeros((16, 16)), 2.5)
    raw = path.read_bytes()
    assert raw[:4] == MAGIC
    assert struct.unpack("<i", raw[4:8])[0] == 16
    assert struct.unpack("<d", raw[8:16])[0] == 2.5
    assert len(raw) == 16 + 8 * 16 * 16


def test_scalar_field_rejects_corruption(tmp_path):
    path = tmp_path / "field.epf"
    write_scalar_field(path, np.zeros((16, 16)), 2.5)
    data = bytearray(path.read_bytes())
    data[:4] = b"XXXX"
    path.write_bytes(bytes(data))
    with pytest.raises(ValueError):
        read_scalar_field(path)
    path.write_bytes(bytes(data)[:100])
    with pytest.raises(ValueError):
        read_scalar_field(path)


def test_snapshot_manifest(tmp_path):
    grid = Grid(N=16, L=3.0)
    fields = np.stack([np.ones((16, 16)), np.full((16, 16), 0.5), np.zeros((16, 16))])
    frame = SpectralFrame(1.5, np.fft.rfft2(fields), a=2.0, H=0.25)
    params = PhysicalParams(k=-1.0, c_b=0.5)
    paths = write_snapshot(tmp_path, "snap_0000", frame, grid, params, (1.0, 0.2, 0.1))
    manifest = json.loads((tmp_path / "snap_0000.json").read_text())
    assert manifest["time"] == 1.5
    assert (manifest["a"], manifest["H"]) == (2.0, 0.25)
    assert manifest["N"] == 16 and manifest["L"] == 3.0
    assert manifest["fields"] == ["rho", "u1", "u2"]
    assert manifest["norms"]["rho_sup"] == 1.0
    names = ["rho", "u1", "u2"]
    assert paths == [str(tmp_path / f"snap_0000_{n}.epf") for n in names] + [str(tmp_path / "snap_0000.json")]
    for name, want in zip(names, fields):
        back, _ = read_scalar_field(tmp_path / f"snap_0000_{name}.epf")
        assert_allclose(back, want, atol=1e-15)


def test_norm_csv_header_and_determinism():
    series = NormSeries(
        t=np.array([0.0, 0.1]),
        rho_sup=np.array([1.0, 0.9]),
        phi_sup=np.array([0.5, 0.4]),
        dphi_dx_sup=np.array([0.25, 0.2]),
    )
    buffers = []
    for _ in range(2):
        buf = StringIO()
        write_norm_csv(buf, series, timestamp=False)
        buffers.append(buf.getvalue())
    assert buffers[0] == buffers[1]
    lines = buffers[0].splitlines()
    assert lines[0] == "t,rho_sup,phi_sup,dphi_dx_sup"
    assert lines[1] == "0.0,1.0,0.5,0.25"


def test_timestamp_line_is_comment():
    series = NormSeries(
        t=np.array([0.0]), rho_sup=np.array([1.0]), phi_sup=np.array([0.0]), dphi_dx_sup=np.array([0.0])
    )
    buf = StringIO()
    write_norm_csv(buf, series, timestamp=True)
    assert buf.getvalue().startswith("# generated: ")


def test_tracer_csv_columns_and_envelope_flag():
    n = 3
    series = TracerSeries(
        t=np.array([0.0, 1.0, 2.0]),
        x=np.zeros((n, 2)),
        rho=np.ones(n),
        d=np.zeros(n),
        omega=np.zeros(n),
        eta=np.zeros(n),
        xi=np.zeros(n),
        f1=np.zeros(n),
        f2=np.zeros(n),
        A=np.array([0.0, -5.0, 0.0]),  # middle sample dips below -e^t
    )
    buf = StringIO()
    write_tracer_csv(buf, series, timestamp=False)
    lines = buf.getvalue().splitlines()
    assert lines[0] == "t,x1,x2,rho,d,omega,eta,xi,f1,f2,A,envelope_ok"
    assert [ln.rsplit(",", 1)[1] for ln in lines[1:]] == ["1", "0", "1"]


def test_sweep_csv_blank_blow_up_for_global_rows():
    buf = StringIO()
    write_sweep_csv(
        buf,
        [(0.1, 0.2, "OmegaM", "global-to-horizon", None), (0.5, 0.1, "Outside", "blowup", 4.3)],
        timestamp=False,
    )
    lines = buf.getvalue().splitlines()
    assert lines[0] == "rho0,d0,region,status,t_blow_mid"
    assert lines[1].endswith("global-to-horizon,")
    assert lines[2].endswith("blowup,4.3")
