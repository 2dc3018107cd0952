"""Thin linear-algebra wrappers pinning the conventions used everywhere else.

All FFTs are unitary (1/sqrt(N) both ways), singular values and Hermitian
eigenvalues come back descending, and eigenpairs of general matrices come
back sorted by magnitude.
LAPACK failures surface as NumericalError instead of half-filled arrays.

blas_threads caps the OpenBLAS that numpy loaded while a block runs. A pool
forked inside it starts at one BLAS thread per worker, so the workers never
build a BLAS thread pool of their own.
"""

import contextlib
import ctypes

import numpy as np

# Thread-count getter/setter names (%s: get, set) across OpenBLAS builds:
# plain, 64-bit-integer suffixed, and the scipy-openblas wheels numpy ships.
_OPENBLAS_THREADS = ("openblas_%s_num_threads", "openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads64_",
                     "scipy_openblas_%s_num_threads")


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
    return u, s, np.swapaxes(vh, -2, -1).conj()


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
