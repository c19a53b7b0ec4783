"""The in-place right-hand side equals the allocating one, and a run's work set owns its step.

``spectral._rhs`` writes each stage slope into its output through a
:class:`~epriccati.spectral.WorkSet` and runs the column passes of its
transforms on the kept columns only.  ``_allocating_rhs`` below is the
formula it replaced, with ``rfft2``/``irfft2`` and fresh arrays, kept as the
oracle.  The set also carries the stage slopes from one step to the next:
``step_ep`` reuses the last slope as its first only when handed the
spectrum the set's last step returned.
"""

import ast
import tracemalloc
from dataclasses import astuple
from pathlib import Path

import numpy as np
import pytest

from epriccati import spectral
from epriccati.errors import PositivityError
from epriccati.riccati import PhysicalParams
from epriccati.simulate import example_config, run_example
from epriccati.spectral import ComovingFrame, Grid, WorkSet, _rhs, make_density, step_ep

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "epriccati"

SIZES = (16, 32, 64, 128, 256)
PARAMS = PhysicalParams(k=-1.0, c_b=0.04)
FRAMES = {"static": (1.0, 0.0), "comoving": ComovingFrame.for_params(PARAMS).scale(2.0)}


def _allocating_rhs(hat, params, grid, a, H):
    """The right-hand side as full 2D transforms of fresh arrays, in the same operation order."""
    ik, mask = grid._ik, grid._dealias
    m = hat * mask
    r, v1, v2, omega = np.fft.irfft2(
        np.concatenate([m, ik[0, None] * m[2:] - ik[1, None] * m[1:2]]), s=(grid.N, grid.N)
    )
    quad = np.stack([r * v1, r * v2, 0.5 * (v1 * v1 + v2 * v2), -omega * v2, omega * v1])
    prod = np.fft.rfft2(quad) * mask
    out = np.empty_like(hat)
    out[0] = -(ik[0] * prod[0] + ik[1] * prod[1]) / a
    out[1:] = -(ik * (prod[2] - params.k * hat[0] * grid._inv_lap) + prod[3:]) / a - H * hat[1:]
    return out


def _seeded_spectra(n, seed):
    """Half spectra of seeded random ``(rho, u1, u2)``: every mode nonzero, Nyquist modes too."""
    rng = np.random.default_rng(seed)
    fields = rng.normal(size=(3, n, n)) * np.array([0.01, 0.1, 0.1])[:, None, None]
    fields[0] += 0.05
    hat = np.fft.rfft2(fields)
    assert np.all(hat[:, n // 2, :] != 0.0) and np.all(hat[:, :, n // 2] != 0.0)
    return hat


def _state(grid):
    """Scenario 5.2's density with a small shear flow, as a half spectrum."""
    cfg = example_config("5.2", grid=grid)
    fields = np.concatenate([make_density(grid, cfg.blobs)[None], 0.01 * np.stack(grid.mesh)])
    return cfg.params, np.fft.rfft2(fields)


@pytest.mark.parametrize("frame", FRAMES)
@pytest.mark.parametrize("n", SIZES)
def test_in_place_rhs_equals_the_allocating_oracle(n, frame):
    grid = Grid(N=n, L=10.0)
    a, H = FRAMES[frame]
    # one set for both spectra: the first leaves its buffers dirty
    work = WorkSet(grid, PARAMS, ComovingFrame.for_params(PARAMS))
    for seed in (n, n + 1):
        hat = _seeded_spectra(n, seed)
        out = np.full_like(hat, np.nan)
        assert _rhs(hat, a, H, work, out) is out
        assert np.array_equal(out, _allocating_rhs(hat, PARAMS, grid, a, H))


@pytest.mark.parametrize("n", SIZES)
def test_kept_column_passes_equal_numpy_2d_transforms(n):
    grid = Grid(N=n, L=10.0)
    work = WorkSet(grid, PARAMS, ComovingFrame())
    c = work.kept
    rng = np.random.default_rng(n)
    # the inverse of four dealiased spectra, given on their kept columns
    dealiased = np.fft.rfft2(rng.normal(size=(4, n, n))) * grid._dealias
    assert np.all(dealiased[:, :, c:] == 0.0)
    work.prod[:4, :, :c] = dealiased[:, :, :c]
    assert np.array_equal(work.inverse(), np.fft.irfft2(dealiased, s=(n, n)))
    # the forward of five grid fields: exact on the kept columns, 0 past them
    work.quad[...] = rng.normal(size=(5, n, n))
    spectra = np.fft.rfft2(work.quad)
    got = work.forward()
    assert np.array_equal(got[:, :, :c], spectra[:, :, :c])
    assert np.all(got[:, :, c:] == 0.0)
    assert np.array_equal(got * grid._dealias, spectra * grid._dealias)


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


@pytest.mark.parametrize("shape", [(3, 64, 33), (2, 32, 17)], ids=["N", "fields"])
def test_a_spectrum_of_another_shape_is_refused(shape):
    grid = Grid(N=32, L=10.0)
    params, _ = _state(grid)
    work = WorkSet(grid, params, ComovingFrame.for_params(params))
    with pytest.raises(ValueError) as excinfo:
        step_ep(np.zeros(shape, dtype=complex), 0.0, 0.02, work)
    message = str(excinfo.value)
    assert message == f"the spectrum has shape {shape}, not the work set's (3, 32, 17)"
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
    # fields, plus less than one grid field of transients (numpy's cast
    # buffers and the finiteness mask); the allocating right-hand side
    # peaked at about 4 MB here, five times that
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
    assert peak <= new.nbytes + fields.nbytes + fields[0].nbytes


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
