"""Thin linear-algebra wrappers pinning the conventions used everywhere else.

All FFTs are unitary (1/sqrt(N) both ways), singular values and Hermitian
eigenvalues come back descending, and eigenpairs of general matrices come
back sorted by magnitude.
LAPACK failures surface as NumericalError instead of half-filled arrays.
"""

import ctypes

import numpy as np

# Thread-count setters across OpenBLAS builds: plain, 64-bit-integer suffixed,
# and the scipy-openblas wheels that numpy ships.
_OPENBLAS_SET_THREADS = ("openblas_set_num_threads",
                         "openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads64_",
                         "scipy_openblas_set_num_threads")


class NumericalError(Exception):
    """A decomposition failed to converge or produced non-finite output."""


def _check_finite(name, *arrays):
    for a in arrays:
        if not np.all(np.isfinite(a)):
            raise NumericalError(f"{name} produced non-finite values")


def svd(a):
    """Economy SVD with descending singular values.

    Returns (u, s, v) with a = u @ diag(s) @ v.conj().T, where u and v hold
    orthonormal columns (v holds right-singular vectors, not their transpose).
    Accepts stacked inputs (..., m, n) and batches over leading axes.
    """
    try:
        u, s, vh = np.linalg.svd(np.asarray(a), full_matrices=False)
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


def limit_blas_threads(n):
    """Cap the OpenBLAS that numpy loaded at n threads in this process.

    Meant as a pool initializer: a forked worker inherits its parent's
    multithreaded BLAS, and several such workers oversubscribe the CPUs.
    The library is found in /proc/self/maps. Returns False, changing
    nothing, when no OpenBLAS with a known setter is mapped.
    """
    try:
        with open("/proc/self/maps") as f:
            path = next((line.split(None, 5)[5].strip() for line in f
                         if "openblas" in line), None)
        lib = ctypes.CDLL(path) if path else None
    except OSError:
        return False
    for name in _OPENBLAS_SET_THREADS:
        if hasattr(lib, name):
            set_threads = getattr(lib, name)
            set_threads.argtypes, set_threads.restype = [ctypes.c_int], None
            set_threads(n)
            return True
    return False
