"""Thin linear-algebra wrappers pinning the conventions used everywhere else.

All FFTs are unitary (1/sqrt(N) both ways), singular values and Hermitian
eigenvalues come back descending, and eigenpairs of general matrices come
back sorted by magnitude.
LAPACK failures surface as NumericalError instead of half-filled arrays.

blas_threads caps the OpenBLAS that numpy loaded while a block runs. A
worker forked inside it starts at one BLAS thread, so no worker builds a
BLAS thread pool of its own. keep_heap makes glibc's malloc keep
freed frame arrays in the heap, so the next frame reuses them.
"""

import contextlib
import ctypes

import numpy as np

# Thread-count getter/setter names (%s: get, set) across OpenBLAS builds:
# plain, 64-bit-integer suffixed, and the scipy-openblas wheels numpy ships.
_OPENBLAS_THREADS = ("openblas_%s_num_threads", "openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads")

# glibc mallopt parameters. 32 MiB is the largest mmap threshold every
# 64-bit glibc accepts; it is above every frame array (9.3 MB at lte20 and
# nr100) and the canceller's training-window buffers (about 13.5 MB). The
# trim threshold lies far above a frame's high-water mark.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
_MMAP_THRESHOLD = 32 << 20
_TRIM_THRESHOLD = 1 << 30


class NumericalError(Exception):
    """A decomposition failed to converge or produced non-finite output."""


def _check_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericalError(f"{name} produced non-finite values")


def herm(a):
    """Conjugate transpose of the last two axes; batches over the others."""
    return np.swapaxes(a, -2, -1).conj()


def svd(a):
    """Full SVD with descending singular values, batched over leading axes.

    Returns (u, s, v), a = u[:, :k] @ diag(s) @ v[:, :k].conj().T for a (m, n)
    and k = min(m, n). u and v are unitary, and v holds the right-singular
    vectors as columns, so its last n - k span the null space of a.
    """
    try:
        u, s, vh = np.linalg.svd(np.asarray(a), full_matrices=True)
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"svd failed to converge: {exc}") from None
    _check_finite("svd", u, s)
    return u, s, herm(vh)


def eigh(a):
    """Eigendecomposition of a Hermitian matrix, eigenpairs descending.

    Returns (w, v) with a = v @ diag(w) @ v.conj().T, w real and descending
    and v holding orthonormal eigenvectors as columns. Only the lower
    triangle of a is read. Batches over leading axes like np.linalg.eigh.
    """
    try:
        w, v = np.linalg.eigh(np.asarray(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eigh failed to converge: {exc}") from None
    _check_finite("eigh", w, v)
    return w[..., ::-1], v[..., ::-1]


# No frame calls it: the tests' ul_combiner oracle; perfbench/bench.py wraps it.
def eig_general(a):
    """Eigendecomposition of a general (possibly non-normal) square matrix.

    Returns (w, v) with columns of v unit-norm eigenvectors and w sorted by
    descending magnitude. Batches over leading axes like np.linalg.eig.
    """
    try:
        w, v = np.linalg.eig(np.asarray(a))
    except np.linalg.LinAlgError as exc:
        raise NumericalError(f"eig failed to converge: {exc}") from None
    _check_finite("eig", w, v)
    order = np.argsort(-np.abs(w), axis=-1, kind="stable")
    w = np.take_along_axis(w, order, axis=-1)
    v = np.take_along_axis(v, order[..., None, :], axis=-1)
    return w, v


def fft(x, axis=-1):
    """Unitary DFT along one axis."""
    return np.fft.fft(x, axis=axis, norm="ortho")


def ifft(x, axis=-1):
    """Unitary inverse DFT along one axis."""
    return np.fft.ifft(x, axis=axis, norm="ortho")


def _openblas_thread_funcs():
    """(get, set) thread-count functions of the OpenBLAS numpy loaded.

    The library is found in /proc/self/maps. Returns None when no OpenBLAS
    with known thread-count symbols is mapped.
    """
    try:
        with open("/proc/self/maps") as f:
            path = next((line.split(None, 5)[5].strip() for line in f
                         if "openblas" in line), None)
        lib = ctypes.CDLL(path) if path else None
    except OSError:
        return None
    for name in _OPENBLAS_THREADS:
        get, set_ = (getattr(lib, name % verb, None) for verb in ("get", "set"))
        if get is not None and set_ is not None:
            get.argtypes, get.restype = [], ctypes.c_int
            set_.argtypes, set_.restype = [ctypes.c_int], None
            return get, set_
    return None


@contextlib.contextmanager
def blas_threads(n):
    """Cap this process's OpenBLAS at n threads while the body runs.

    Processes forked inside the body inherit the cap. The caller's count is
    restored on exit, also when the body raises. Other threads of this
    process share the cap meanwhile. Does nothing when no OpenBLAS with
    known thread-count symbols is mapped.
    """
    funcs = _openblas_thread_funcs()
    if funcs is None:
        yield
        return
    get, set_ = funcs
    before = get()
    set_(n)
    try:
        yield
    finally:
        set_(before)


def keep_heap():
    """Keep freed memory in this process's heap for the next frame.

    By default glibc hands a freed frame-sized array back to the kernel, by
    munmap or by trimming the heap top, so the next frame faults the same
    pages in again. This sets glibc's mmap threshold to 32 MiB and its trim
    threshold to 1 GiB, so frame arrays come from the heap and stay there.
    Both are set: either one alone turns off glibc's dynamic threshold and
    faults more than the defaults.

    Process-wide and one-way: glibc has no getter for these values, and
    setting its defaults back leaves the dynamic threshold off. Call it only
    in processes fdlink owns (the CLI and its campaign workers); calling it
    again changes nothing. Returns True when glibc accepted both values, False
    where there is no mallopt (macOS, musl), which changes nothing.
    """
    try:
        mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    except TypeError:                   # Windows: no CDLL(None)
        return False
    if mallopt is None:
        return False
    mallopt.argtypes = [ctypes.c_int, ctypes.c_int]
    mallopt.restype = ctypes.c_int
    # the mmap threshold first: if glibc refuses it, nothing has changed
    return (mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD) == 1
            and mallopt(_M_TRIM_THRESHOLD, _TRIM_THRESHOLD) == 1)
