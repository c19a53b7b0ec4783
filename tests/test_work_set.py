"""The kept-block step equals the full-layout one, and a run's work set owns its step.

``spectral._rhs`` writes each stage slope into its output through a
:class:`~epriccati.spectral.WorkSet`, on the kept block of the 2/3 rule.
The solver once stepped the whole ``rfft2`` half spectrum and masked its
products; that right-hand side, ``_allocating_rhs`` below, with
``rfft2``/``irfft2``, fresh arrays and the full layout's multipliers
(:func:`_full_layout`), is kept as the oracle.  On zero-padded kept blocks
the oracle's steps keep every mode outside the block exactly 0 and equal the
kept-block steps bit for bit on the block, and so does the full layout's
interpolant, to rounding.  The set also carries the stage slopes from one
step to the next: ``step_ep`` reuses the last slope as its first only when
handed the spectrum the set's last step returned.
"""

import ast
import math
import tracemalloc
from dataclasses import astuple
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from epriccati import spectral, tracing
from epriccati.errors import PositivityError
from epriccati.integrate import _NODES, _dp5_stages
from epriccati.riccati import PhysicalParams
from epriccati.simulate import SpectralFrame, example_config, run_example
from epriccati.spectral import (
    ComovingFrame,
    Grid,
    WorkSet,
    _inv,
    _keep,
    _pad,
    _rhs,
    eval_point,
    make_density,
    step_ep,
)
from epriccati.tracing import trace_characteristic

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epriccati"

SIZES = (16, 32, 64, 128, 256)
PARAMS = PhysicalParams(k=-1.0, c_b=0.04)
FRAMES = {"static": ComovingFrame(), "comoving": ComovingFrame.for_params(PARAMS)}


def _full_layout(grid):
    """The ``rfft2`` layout's multipliers and 2/3 mask, as ``Grid`` built them before the kept block."""
    n = grid.N
    kx = ((math.pi / grid.L) * np.fft.fftfreq(n, d=1.0 / n))[:, None]
    ky = ((math.pi / grid.L) * np.arange(n // 2 + 1))[None, :]
    k2 = kx**2 + ky**2
    k2[0, 0] = 1.0
    inv_lap = -1.0 / k2
    inv_lap[0, 0] = 0.0
    ik = 1j * np.stack(np.broadcast_arrays(kx, ky))
    ik[0, n // 2, :] = 0.0  # odd derivative undefined at the Nyquist mode
    ik[1, :, n // 2] = 0.0
    m = np.fft.fftfreq(n, d=1.0 / n)
    dealias = (np.abs(m[:, None]) <= n // 3) & (np.abs(m[None, : n // 2 + 1]) <= n // 3)
    kxb, kyb = np.broadcast_arrays(kx, ky)
    hermitian = np.full(n // 2 + 1, 2.0)
    hermitian[0] = hermitian[-1] = 1.0
    return SimpleNamespace(
        N=n,
        L=grid.L,
        _kx=kx,
        _ky=ky,
        _ik=ik,
        _inv_lap=inv_lap,
        _dealias=dealias,
        _riesz=np.stack([kxb**2 - kyb**2, 2.0 * kxb * kyb]) / k2,
        _hermitian=hermitian,
    )


def _allocating_rhs(hat, params, full, a, H):
    """The full-layout right-hand side: full 2D transforms of fresh arrays, in the same operation order."""
    ik, mask = full._ik, full._dealias
    m = hat * mask
    r, v1, v2, omega = np.fft.irfft2(
        np.concatenate([m, ik[0, None] * m[2:] - ik[1, None] * m[1:2]]), s=(full.N, full.N)
    )
    quad = np.stack([r * v1, r * v2, 0.5 * (v1 * v1 + v2 * v2), -omega * v2, omega * v1])
    prod = np.fft.rfft2(quad) * mask
    out = np.empty_like(hat)
    out[0] = -(ik[0] * prod[0] + ik[1] * prod[1]) / a
    out[1:] = -(ik * (prod[2] - params.k * hat[0] * full._inv_lap) + prod[3:]) / a - H * hat[1:]
    return out


def _allocating_step(hat, t, dt, params, full, frame):
    """The full-layout step: ``step_ep``'s stage loop on the oracle's slopes, then ``irfft2``."""
    k = np.empty((7, *hat.shape), dtype=complex)
    k[0] = _allocating_rhs(hat, params, full, *frame.scale(t))

    def stage(s, y, out):
        a, H = frame.scale(t + _NODES[s] * dt)
        out.view(complex)[...] = _allocating_rhs(y.view(complex), params, full, a, H)

    kf = k.view(float)
    new = _dp5_stages(stage, hat.view(float), dt, kf, kf[6], np.empty_like(kf[0])).view(complex)
    return new, np.fft.irfft2(new, s=(full.N, full.N))


def _full_eval_point(spec, full, x, grad=False):
    """The full layout's interpolant: Hermitian weights ``1, 2, ..., 2, 1``, Nyquist modes as cosines."""
    e1 = np.exp(1j * (x[0] + full.L) * full._kx[:, 0])
    e1[full.N // 2] = e1[full.N // 2].real
    e2 = full._hermitian * np.exp(1j * (x[1] + full.L) * full._ky[0])
    if not grad:
        return (spec @ e2 @ e1).real / full.N**2
    cols = spec @ np.stack([e2, full._ik[1, 0] * e2], axis=-1)
    vals = np.stack([e1, full._ik[0, :, 0] * e1]) @ cols
    return np.stack([vals[..., 0, 0], vals[..., 1, 0], vals[..., 0, 1]]).real / full.N**2


def _padded(hat, n):
    """The ``rfft2`` half spectra whose kept blocks are ``hat`` and whose other modes are 0."""
    return _pad(hat, np.zeros((*hat.shape[:-2], n, n // 2 + 1), dtype=complex))


def _unkept(spec):
    """The modes of full-layout half spectra outside the kept block."""
    n = spec.shape[-2]
    outside = np.ones(spec.shape[-2:], dtype=bool)
    outside[: n // 3 + 1, : n // 3 + 1] = outside[n - n // 3 :, : n // 3 + 1] = False
    return spec[..., outside]


def _seeded_spectra(n, seed):
    """Kept blocks of seeded random ``(rho, u1, u2)``: every kept mode nonzero.

    The fields' half spectra have every mode nonzero, the Nyquist modes too;
    their projection onto the block has no Nyquist content.
    """
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(3, n, n)) * np.array([0.01, 0.1, 0.1])[:, None, None]
    fields[0] += 0.05
    full = np.fft.rfft2(fields)
    assert np.all(full[:, n // 2, :] != 0.0) and np.all(full[:, :, n // 2] != 0.0)
    hat = _keep(full)
    assert np.all(hat != 0.0)
    projected = _padded(hat, n)
    assert np.all(projected[:, n // 2, :] == 0.0) and np.all(projected[:, :, n // 2] == 0.0)
    return hat


def _state(grid):
    """Scenario 5.2's density with a small shear flow, as a kept block."""
    cfg = example_config("5.2", grid=grid)
    fields = np.concatenate([make_density(grid, cfg.blobs)[None], 0.01 * np.stack(grid.mesh)])
    return cfg.params, _keep(np.fft.rfft2(fields))


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("n", SIZES)
def test_in_place_rhs_equals_the_allocating_oracle(n, frame):
    grid = Grid(N=n, L=10.0)
    full = _full_layout(grid)
    a, H = FRAMES[frame].scale(2.0)
    # one set for both spectra: the first leaves its buffers dirty
    work = WorkSet(grid, PARAMS, FRAMES[frame])
    for seed in (n, n + 1):
        hat = _seeded_spectra(n, seed)
        out = np.full_like(hat, np.nan)
        assert _rhs(hat, a, H, work, out) is out
        want = _allocating_rhs(_padded(hat, n), PARAMS, full, a, H)
        assert np.all(_unkept(want) == 0.0)
        assert out.tobytes() == _keep(want).tobytes()


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("n", SIZES)
def test_kept_block_steps_equal_the_full_layout_oracle(n, frame):
    # over several steps from projected data the oracle keeps every mode
    # outside the block 0, and the block's bits, and the grid fields', are
    # the kept-block step's: compared as bytes, so no zero the oracle
    # carries outside the block, of either sign, reaches a stored bit
    grid = Grid(N=n, L=10.0)
    full = _full_layout(grid)
    work = WorkSet(grid, PARAMS, FRAMES[frame])
    for seed in (n, 7919):
        hat = _seeded_spectra(n, seed)
        oracle, t, dt = _padded(hat, n), 0.0, 0.1 * grid.dx
        for _ in range(4):
            hat, fields = step_ep(hat, t, dt, work)
            oracle, oracle_fields = _allocating_step(oracle, t, dt, PARAMS, full, FRAMES[frame])
            t += dt
            assert np.all(_unkept(oracle) == 0.0)
            assert hat.tobytes() == _keep(oracle).tobytes()
            assert fields.tobytes() == oracle_fields.tobytes()


# the kept-block interpolant sums fewer terms, in another order, than the
# full layout's of the zero-padded spectra: the two agree to rounding
_INTERPOLANT_RTOL = 1e-13


@pytest.mark.parametrize("n", SIZES)
def test_kept_block_interpolant_equals_the_full_layouts(n):
    grid = Grid(N=n, L=10.0)
    full = _full_layout(grid)
    rng = np.random.default_rng(n)
    blocks = np.concatenate([_seeded_spectra(n, n), _seeded_spectra(n, n + 1)])
    for x in rng.uniform(-grid.L, grid.L, size=(8, 2)):
        for grad in (False, True):
            got = eval_point(blocks, grid, x, grad=grad)
            want = _full_eval_point(_padded(blocks, n), full, x, grad=grad)
            assert np.max(np.abs(got - want)) <= _INTERPOLANT_RTOL * np.max(np.abs(want))


def test_a_traced_run_equals_its_full_layout_trace(monkeypatch):
    # scenario 5.2's run, traced on its kept blocks and on their zero-padded
    # half spectra with the full layout's multipliers and interpolant
    result = run_example(example_config("5.2", grid=Grid(N=64, L=10.0), t_end=1.5, store_history=True))
    full = _full_layout(result.grid)
    padded = SimpleNamespace(
        grid=full,
        params=result.params,
        history=[SpectralFrame(f.t, _padded(f.hat, full.N), f.a, f.H) for f in result.history],
    )
    seeds = [(2.5, 2.5), (1.0, 2.0), (-2.0, 1.0)]
    kept = [trace_characteristic(result, x0) for x0 in seeds]
    monkeypatch.setattr(tracing, "eval_point", lambda spec, grid, x, grad=False: _full_eval_point(spec, full, x, grad))
    # each sample against its family's scale: on seed (2.5, 2.5), on the
    # diagonal, omega, eta and f1 are rounding noise beside d, xi and f2
    families = (("x",), ("rho",), ("d", "omega", "eta", "xi"), ("f1", "f2"), ("A",))
    for x0, got in zip(seeds, kept):
        want = trace_characteristic(padded, x0)
        assert np.array_equal(got.t, want.t) and got.status == want.status == "complete"
        for names in families:
            scale = max(np.max(np.abs(getattr(want, name))) for name in names)
            for name in names:
                error = np.max(np.abs(getattr(got, name) - getattr(want, name)))
                assert error <= _INTERPOLANT_RTOL * scale, name


@pytest.mark.parametrize("n", SIZES)
def test_kept_column_passes_equal_numpy_2d_transforms(n):
    grid = Grid(N=n, L=10.0)
    work = WorkSet(grid, PARAMS, ComovingFrame())
    rng = np.random.default_rng(n)
    # the inverse of four kept blocks, written into the kept rows of pad:
    # irfft2 of their zero-padded half spectra
    blocks = _keep(np.fft.rfft2(rng.normal(size=(4, n, n))))
    _pad(blocks, work.pad)
    inverse = work.inverse(4, out=work.fields)
    assert inverse.tobytes() == np.fft.irfft2(_padded(blocks, n), s=(n, n)).tobytes()
    assert _inv(blocks).tobytes() == inverse.tobytes()
    # the rows outside the block are never written
    assert np.all(work.pad[:, n // 3 + 1 : n - n // 3] == 0.0)
    # the forward of five grid fields: the kept blocks of rfft2
    work.quad[...] = rng.normal(size=(5, n, n))
    got = work.forward()
    assert got is work.prod and got.tobytes() == _keep(np.fft.rfft2(work.quad)).tobytes()


def test_one_work_set_over_twenty_steps_equals_a_fresh_one_each_step():
    # a continuing run reuses each step's last slope as the next step's
    # first; a fresh set evaluates it, and the two agree bit for bit
    grid = Grid(N=32, L=10.0)
    params, hat = _state(grid)
    frame = ComovingFrame.for_params(params)
    runs = []
    for fresh in (False, True):
        work, y, t = WorkSet(grid, params, frame), hat, 0.0
        states = []
        for _ in range(20):
            if fresh:
                work = WorkSet(grid, params, frame)
            y, fields = step_ep(y, t, 0.05, work)
            states.append((y, fields))
            t += 0.05
        runs.append(states)
    for (y1, f1), (y2, f2) in zip(*runs):
        assert np.array_equal(y1, y2) and np.array_equal(f1, f2)


def _counted_rhs(monkeypatch):
    """Count the right-hand sides the step evaluates; the returned list grows by one per call."""
    calls = []

    def counted(*args):
        calls.append(None)
        return _rhs(*args)

    monkeypatch.setattr(spectral, "_rhs", counted)
    return calls


def test_only_the_remembered_spectrum_reuses_the_last_slope(monkeypatch):
    grid = Grid(N=32, L=10.0)
    params, hat = _state(grid)
    frame = ComovingFrame.for_params(params)
    work = WorkSet(grid, params, frame)
    y, _ = step_ep(hat, 0.0, 0.05, work)
    calls = _counted_rhs(monkeypatch)
    # an equal-valued copy is not the remembered spectrum: its slope is evaluated
    copied = step_ep(y.copy(), 0.05, 0.05, work)
    assert len(calls) == 7
    calls.clear()
    again = WorkSet(grid, params, frame)
    y, _ = step_ep(hat, 0.0, 0.05, again)
    calls.clear()
    reused = step_ep(y, 0.05, 0.05, again)
    assert len(calls) == 6
    assert np.array_equal(copied[0], reused[0]) and np.array_equal(copied[1], reused[1])


def test_a_step_that_raises_leaves_no_remembered_spectrum(monkeypatch):
    grid = Grid(N=32, L=10.0)
    params, hat = _state(grid)
    frame = ComovingFrame.for_params(params)
    work = WorkSet(grid, params, frame)
    y, _ = step_ep(hat, 0.0, 0.05, work)

    def failing(rho):
        raise PositivityError("density reached -1")

    # the failed step overwrites the slopes; its last is at its rejected end
    monkeypatch.setattr(spectral, "check_positivity", failing)
    with pytest.raises(PositivityError):
        step_ep(y, 0.05, 0.1, work)
    monkeypatch.undo()
    calls = _counted_rhs(monkeypatch)
    retried = step_ep(y, 0.05, 0.05, work)
    assert len(calls) == 7
    expected = step_ep(y, 0.05, 0.05, WorkSet(grid, params, frame))
    assert np.array_equal(retried[0], expected[0]) and np.array_equal(retried[1], expected[1])


def test_a_returned_spectrum_is_read_only():
    grid = Grid(N=32, L=10.0)
    params, hat = _state(grid)
    new, fields = step_ep(hat, 0.0, 0.05, WorkSet(grid, params, ComovingFrame.for_params(params)))
    with pytest.raises(ValueError, match="read-only"):
        new[0, 0, 0] = 1.0
    fields[0, 0, 0] = 1.0  # the grid fields are the caller's


@pytest.mark.parametrize(
    "shape", [(3, 43, 22), (2, 21, 11), (3, 32, 17)], ids=["N", "fields", "full-layout"]
)
def test_a_spectrum_of_another_shape_is_refused(shape):
    grid = Grid(N=32, L=10.0)
    params, _ = _state(grid)
    work = WorkSet(grid, params, ComovingFrame.for_params(params))
    with pytest.raises(ValueError) as excinfo:
        step_ep(np.zeros(shape, dtype=complex), 0.0, 0.02, work)
    message = str(excinfo.value)
    assert message == f"the spectrum has shape {shape}, not the work set's (3, 21, 11)"
    assert "\n" not in message


def _steps(grid, count, work):
    """``count`` static-frame steps of a fresh state on ``work``; their states."""
    _, y = _state(grid)
    states = []
    for _ in range(count):
        y, _ = step_ep(y, 0.0, 0.02, work)
        states.append(y)
    return states


def test_runs_at_two_sizes_interleaved_equal_separate_runs():
    grids = (Grid(N=32, L=10.0), Grid(N=64, L=10.0))
    alone = [_steps(grid, 5, WorkSet(grid, PARAMS, ComovingFrame())) for grid in grids]
    # step the two sizes in turn, each on its own work set
    works = [WorkSet(grid, PARAMS, ComovingFrame()) for grid in grids]
    states = [_state(grid)[1] for grid in grids]
    for i in range(5):
        for j in range(len(grids)):
            states[j], _ = step_ep(states[j], 0.0, 0.02, works[j])
            assert np.array_equal(states[j], alone[j][i])
    # whole runs at the two sizes in turn repeat themselves
    configs = [example_config("5.2", grid=grid, t_end=0.3) for grid in grids]
    first = [run_example(cfg) for cfg in configs]
    again = [run_example(cfg) for cfg in configs]
    for one, two in zip(first, again):
        assert np.array_equal(one.final.hat, two.final.hat)
        assert np.array_equal(np.stack(astuple(one.norms)), np.stack(astuple(two.norms)))


def test_a_step_on_a_reused_work_set_allocates_only_its_results():
    # after a warm step, a step's traced peak is its new state and grid
    # fields, the fields' finiteness mask (a byte a value) and less than a
    # state's bytes of other transients (measured: 51,338 bytes of
    # transients, the mask's 49,152 among them); the allocating right-hand
    # side peaked at about 4 MB here
    grid = Grid(N=128, L=10.0)
    params, hat = _state(grid)
    work = WorkSet(grid, params, ComovingFrame.for_params(params))
    hat, _ = step_ep(hat, 0.0, 0.05, work)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        new, fields = step_ep(hat, 0.05, 0.05, work)
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert new.shape == (3, 85, 43)
    assert peak <= new.nbytes + fields.nbytes + fields.size + new.size


def test_only_spectral_references_the_spectral_rhs():
    # the stage protocol (first slope, stage slopes, first same as last)
    # stays behind step_ep: no other module evaluates a slope itself
    offenders = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "spectral.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            names = [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom) else []
            if (
                "_rhs" in names
                or (isinstance(node, ast.Name) and node.id == "_rhs")
                or (isinstance(node, ast.Attribute) and node.attr == "_rhs")
            ):
                offenders.append(f"{path.name}:{node.lineno}")
    assert not offenders, f"_rhs is referenced outside spectral.py at {offenders}"
