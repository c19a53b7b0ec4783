"""A stored run history holds kept blocks, and tracing it transforms nothing."""

import math
from dataclasses import replace

import numpy as np
import pytest

from epriccati import tracing
from epriccati.simulate import SpectralFrame, example_config, run_example
from epriccati.spectral import Grid, _keep
from epriccati.tracing import trace_characteristic


@pytest.fixture(scope="module")
def run52():
    cfg = example_config("5.2", grid=Grid(N=32, L=10.0), t_end=1.0, store_history=True)
    return run_example(cfg)


def test_history_frames_are_half_spectra_of_the_state(run52):
    # the final state is the t_end record itself, the history's last frame
    assert all(isinstance(f, SpectralFrame) for f in run52.history)
    last = run52.history[-1]
    assert run52.final is last and last.t == 1.0
    assert last.hat.shape == (3, 21, 11)
    # the kept blocks of real fields: a round trip through the grid keeps them
    again = _keep(np.fft.rfft2(np.concatenate([last.rho[None], last.u])))
    assert np.max(np.abs(again - last.hat)) <= 1e-14 * np.max(np.abs(last.hat))


def test_replacing_the_grid_density_replaces_its_spectrum(run52):
    last = run52.final
    before = last.hat.copy()
    heavier = replace(last, rho=2.0 * last.rho)
    assert (heavier.t, heavier.a, heavier.H) == (last.t, last.a, last.H)
    assert np.allclose(heavier.rho, 2.0 * last.rho, rtol=0.0, atol=1e-15)
    assert np.array_equal(heavier.hat[1:], last.hat[1:])
    # the recorded frame keeps its own spectrum
    assert np.array_equal(last.hat, before)


def test_default_run_stores_a_frame_per_norm_sample():
    # a frame per norm sample, whether it falls on a step end or inside a step
    cfg = example_config("5.2", grid=Grid(N=16, L=10.0), t_end=1.0, store_history=True)
    res = run_example(cfg)
    assert len(res.history) == len(res.norms.t) == 11
    assert [f.t for f in res.history] == list(res.norms.t)


def test_history_frames_keep_the_mean_density_mode():
    # the steps never write the density's mean mode, so the stored mass is exact
    cfg = example_config("5.2", grid=Grid(N=16, L=10.0), t_end=1.0, store_history=True)
    history = run_example(cfg).history
    assert all(f.hat[0, 0, 0] == history[0].hat[0, 0, 0] for f in history)


_ONE_D = ("fft", "ifft", "rfft", "irfft")


def _run_passes(monkeypatch, cfg):
    """A run's result, the 1-D FFT passes it made, one per stacked field, and their column widths.

    A 2D call counts two passes per field: its row and its column pass.  The
    widths are the columns of each pass down them (``axis=-2``).
    """
    passes, widths = [], set()

    def counted(name):
        fft = getattr(np.fft, name)

        def call(a, *args, **kwargs):
            passes.append(math.prod(np.shape(a)[:-2]) * (1 if name in _ONE_D else 2))
            if kwargs.get("axis") == -2:
                widths.add(np.shape(a)[-1])
            return fft(a, *args, **kwargs)

        return call

    with monkeypatch.context() as m:
        for name in (*_ONE_D, "rfft2", "irfft2"):
            m.setattr(np.fft, name, counted(name))
        res = run_example(cfg)
    return res, sum(passes), widths


def test_stored_history_costs_no_transform(monkeypatch):
    # in 1-D passes per field: the initial state's transform and inverse
    # (6 + 6), the first slope's 18, the 6 * 18 + 6 of each step, four per
    # norm sample (one inverse of two fields) and two for the density of the
    # sample inside a step: none for the history frames.  From rest the run
    # takes its one step of dt_max = 0.5, and the sample at 0.25 reads that
    # step's continuous extension.  Every inverse after the initial
    # transform runs its column pass on the N//3 + 1 = 6 kept columns
    cfg = example_config("5.2", grid=Grid(N=16, L=10.0), t_end=0.5, norm_cadence=0.25)
    kept, with_history, widths = _run_passes(monkeypatch, replace(cfg, store_history=True))
    assert [f.t for f in kept.history] == [0.0, 0.25, 0.5]
    assert with_history == 12 + 18 + 114 + 4 * len(kept.norms.t) + 2
    assert widths == {6}
    assert _run_passes(monkeypatch, cfg)[1:] == (with_history, widths)


def test_tracer_makes_no_fft(run52, monkeypatch):
    calls = []

    def counted(name):
        fn = getattr(np.fft, name)

        def call(*args, **kwargs):
            calls.append(name)
            return fn(*args, **kwargs)

        return call

    for name in ("rfft2", "irfft2", "fft2"):
        monkeypatch.setattr(np.fft, name, counted(name))
    trace_characteristic(run52, (2.5, 2.5))
    assert calls == []


def test_history_frames_are_the_spectra_of_same_time_snapshots():
    # the history holds every norm sample; a snapshot is the history's frame
    # at its time, the same object
    times = tuple(round(0.1 * i, 12) for i in range(11))
    cfg = example_config(
        "5.2", grid=Grid(N=32, L=10.0), t_end=1.0, store_history=True, snapshot_times=times
    )
    res = run_example(cfg)
    matched = [f for f in res.history if f.t in times]
    assert [f.t for f in matched] == [f.t for f in res.snapshots] == list(times)
    assert all(snap is frame for snap, frame in zip(res.snapshots, matched))


def test_snapshot_times_change_no_step():
    # 0.35 falls inside a step: its snapshot reads the step's extension, and
    # the run's steps, final state and other records are those of a plain run
    cfg = example_config("5.2", grid=Grid(N=16, L=10.0), t_end=1.0)
    plain = run_example(cfg)
    snapped = run_example(replace(cfg, snapshot_times=(0.0, 0.35, 1.0), store_history=True))
    assert plain.final.rho.tobytes() == snapped.final.rho.tobytes()
    assert plain.final.u.tobytes() == snapped.final.u.tobytes()
    shared = np.isin(snapped.norms.t, plain.norms.t)
    assert np.array_equal(snapped.norms.t[~shared], [0.35])
    for name in ("t", "rho_sup", "phi_sup", "dphi_dx_sup"):
        want, got = getattr(plain.norms, name), getattr(snapped.norms, name)[shared]
        assert want.tobytes() == got.tobytes()
    assert [f.t for f in snapped.snapshots] == [0.0, 0.35, 1.0]
    assert snapped.snapshots[1] is next(f for f in snapped.history if f.t == 0.35)


@pytest.mark.parametrize("x0", [(np.nan, 0.0), (np.inf, 1.0), (0.0, -np.inf)])
def test_tracer_rejects_non_finite_seed(run52, x0, monkeypatch):
    # the seed is checked before the tracer builds any frame's spectra
    built = []
    monkeypatch.setattr(tracing._Window, "_build", lambda self, j, spec: built.append(j))
    with pytest.raises(ValueError, match="x0 must be a finite 2-vector"):
        trace_characteristic(run52, x0)
    assert built == []
