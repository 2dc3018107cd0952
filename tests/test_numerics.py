"""Conventions of the linear-algebra wrappers: ordering, shapes, failures,
the BLAS thread cap that campaign workers fork under, and the heap they
keep."""

import ctypes
import multiprocessing
import os
import platform
import types

import numpy as np
import pytest

from fdlink import numerics, simulator
from fdlink.config_units import SystemConfig
from fdlink.simulator import ScenarioSpec, monte_carlo


def test_svd_reconstructs_and_orders():
    gen = np.random.default_rng(7)
    a = gen.standard_normal((5, 3)) + 1j * gen.standard_normal((5, 3))
    u, s, v = numerics.svd(a)
    assert u.shape == (5, 5) and s.shape == (3,) and v.shape == (3, 3)
    assert np.all(np.diff(s) <= 0)
    recon = (u[:, :3] * s) @ v.conj().T
    assert np.allclose(recon, a, atol=1e-12)
    assert np.allclose(u.conj().T @ u, np.eye(5), atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(3), atol=1e-12)


def test_svd_batched():
    gen = np.random.default_rng(3)
    a = gen.standard_normal((4, 6, 2, 3)) + 1j * gen.standard_normal((4, 6, 2, 3))
    u, s, v = numerics.svd(a)
    assert u.shape == (4, 6, 2, 2) and v.shape == (4, 6, 3, 3)
    recon = u @ (s[..., None] * np.swapaxes(v[..., :2], -2, -1).conj())
    assert np.allclose(recon, a, atol=1e-12)
    # the trailing right-singular vector spans the null space of a
    assert np.allclose(a @ v[..., 2:], 0.0, atol=1e-12)


def test_svd_nonfinite_raises():
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(numerics.NumericalError):
        numerics.svd(a)


def test_eigh_reconstructs_and_orders():
    gen = np.random.default_rng(17)
    b = gen.standard_normal((6, 4)) + 1j * gen.standard_normal((6, 4))
    a = b @ b.conj().T                    # Hermitian, rank 4
    w, v = numerics.eigh(a)
    assert w.shape == (6,) and v.shape == (6, 6)
    assert np.all(np.diff(w) <= 0)
    assert np.allclose((v * w) @ v.conj().T, a, atol=1e-12)
    assert np.allclose(v.conj().T @ v, np.eye(6), atol=1e-12)
    assert np.allclose(w[:4], np.linalg.svd(b, compute_uv=False) ** 2)


def test_eigh_nonfinite_raises():
    a = np.array([[1.0, np.nan], [np.nan, 1.0]])
    with pytest.raises(numerics.NumericalError):
        numerics.eigh(a)


def test_eig_general_sorted_and_consistent():
    gen = np.random.default_rng(11)
    a = gen.standard_normal((5, 5)) + 1j * gen.standard_normal((5, 5))
    w, v = numerics.eig_general(a)
    assert np.all(np.diff(np.abs(w)) <= 1e-12)
    for k in range(5):
        assert np.allclose(a @ v[:, k], w[k] * v[:, k], atol=1e-10)
        assert np.isclose(np.linalg.norm(v[:, k]), 1.0)


def test_eig_general_batched():
    gen = np.random.default_rng(13)
    a = gen.standard_normal((3, 4, 4)) + 1j * gen.standard_normal((3, 4, 4))
    w, v = numerics.eig_general(a)
    assert w.shape == (3, 4) and v.shape == (3, 4, 4)
    for b in range(3):
        for k in range(4):
            assert np.allclose(a[b] @ v[b, :, k], w[b, k] * v[b, :, k],
                               atol=1e-10)


def test_fft_is_unitary():
    gen = np.random.default_rng(5)
    x = gen.standard_normal(64) + 1j * gen.standard_normal(64)
    xf = numerics.fft(x)
    # Parseval with no scale factor, and exact inversion
    assert np.isclose(np.sum(np.abs(xf) ** 2), np.sum(np.abs(x) ** 2))
    assert np.allclose(numerics.ifft(xf), x, atol=1e-12)


def test_fft_axis_argument():
    gen = np.random.default_rng(5)
    x = gen.standard_normal((3, 16, 2))
    xf = numerics.fft(x, axis=1)
    assert np.allclose(xf, np.fft.fft(x, axis=1, norm="ortho"))


# --- BLAS thread cap -------------------------------------------------------
# blas_threads caps the test process only inside its body and restores the
# count on exit; forked pool workers keep the cap until they die.

def _openblas_thread_count():
    """This process's OpenBLAS thread count, or None if none is mapped."""
    with open("/proc/self/maps") as f:
        path = next((line.split(None, 5)[5].strip() for line in f
                     if "openblas" in line), None)
    if path is None:
        return None
    lib = ctypes.CDLL(path)
    for name in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads64_",
                 "scipy_openblas_get_num_threads"):
        if hasattr(lib, name):
            get_threads = getattr(lib, name)
            get_threads.argtypes, get_threads.restype = [], ctypes.c_int
            return get_threads()
    return None


def _worker_thread_count(_):
    return _openblas_thread_count()


def test_blas_threads_caps_forked_worker():
    if _openblas_thread_count() is None:
        pytest.skip("no OpenBLAS mapped")
    ctx = multiprocessing.get_context("fork")
    with numerics.blas_threads(1), ctx.Pool(2) as pool:
        counts = pool.map(_worker_thread_count, range(4), chunksize=1)
    assert counts == [1, 1, 1, 1]


def test_blas_threads_restores_count_when_body_raises():
    before = _openblas_thread_count()
    if before is None:
        pytest.skip("no OpenBLAS mapped")
    with pytest.raises(RuntimeError, match="body failed"):
        with numerics.blas_threads(1):
            assert _openblas_thread_count() == 1
            raise RuntimeError("body failed")
    assert _openblas_thread_count() == before


def test_monte_carlo_worker_runs_one_os_thread(monkeypatch):
    # a worker that set its own cap after the fork re-created OpenBLAS's
    # thread pool and carried one extra, spinning OS thread. A serial frame
    # also runs at one BLAS thread, but the OpenBLAS threads this process
    # already made stay alive, so only the count applies there
    if _openblas_thread_count() is None or (os.cpu_count() or 1) < 2:
        pytest.skip("needs OpenBLAS and at least two CPUs")
    real_run_frame = simulator.run_frame

    def probe(cfg, rng, stages="full", run_id=0, sweep_point=""):
        real_run_frame(cfg, rng, stages=stages, run_id=run_id,
                       sweep_point=sweep_point)
        return (_openblas_thread_count(),
                len(os.listdir("/proc/self/task")))
    monkeypatch.setattr(simulator, "run_frame", probe)
    cfg = SystemConfig().override(frame_symbols=12, train_symbols=4)
    spec = ScenarioSpec(name="t", config=cfg, runs=4, stages="analog")
    serial = monte_carlo(spec, workers=1)
    assert [blas for blas, _ in serial.records] == [1] * 4
    result = monte_carlo(spec, workers=2)   # forked workers see probe
    assert result.records == [(1, 1)] * 4


def test_monte_carlo_pool_leaves_parent_blas_alone():
    before = _openblas_thread_count()
    if before is None:
        pytest.skip("no OpenBLAS mapped")
    cfg = SystemConfig().override(frame_symbols=12, train_symbols=4)
    spec = ScenarioSpec(name="t", config=cfg, runs=2, stages="analog")
    for workers in (1, 2):
        result = monte_carlo(spec, workers=workers)
        assert len(result.records) == 2
        assert _openblas_thread_count() == before, workers


# --- heap reuse --------------------------------------------------------------
# keep_heap is process-wide and one-way; the CLI calls it in this test
# process too, so setting it here changes nothing the other tests see.

def _libc_with(mallopt):
    return lambda name: types.SimpleNamespace(mallopt=mallopt)


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="mallopt is glibc's")
def test_keep_heap_sets_both_glibc_thresholds(monkeypatch):
    real = ctypes.CDLL(None).mallopt
    real.argtypes, real.restype = [ctypes.c_int, ctypes.c_int], ctypes.c_int
    calls = []

    def mallopt(param, value):
        calls.append((param, value, real(param, value)))
        return calls[-1][2]
    monkeypatch.setattr(ctypes, "CDLL", _libc_with(mallopt))
    assert numerics.keep_heap() is True
    assert numerics.keep_heap() is True
    # M_MMAP_THRESHOLD to 32 MiB, then M_TRIM_THRESHOLD to 1 GiB, glibc
    # accepting each, on both calls
    assert calls == [(-3, 32 << 20, 1), (-1, 1 << 30, 1)] * 2


def test_keep_heap_leaves_trim_alone_when_mmap_threshold_is_refused(
        monkeypatch):
    # either threshold alone turns off glibc's dynamic threshold
    calls = []

    def mallopt(param, value):
        calls.append(param)
        return 0
    monkeypatch.setattr(ctypes, "CDLL", _libc_with(mallopt))
    assert numerics.keep_heap() is False
    assert calls == [-3]


def test_keep_heap_without_mallopt_does_nothing(monkeypatch):
    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace())
    assert numerics.keep_heap() is False


def test_monte_carlo_workers_keep_their_heap(monkeypatch):
    # a library caller's pool keeps its heap without going through the CLI
    kept = []
    monkeypatch.setattr(numerics, "keep_heap", lambda: kept.append(True))
    monkeypatch.setattr(simulator, "run_frame", lambda cfg, rng, **kw: kept)
    spec = ScenarioSpec(name="t", config=SystemConfig(), runs=4,
                        stages="analog")
    assert monte_carlo(spec, workers=2).records == [[True]] * 4
    assert kept == []       # the caller's own process is left alone
