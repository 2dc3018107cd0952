"""Adaptive digital SI canceller: design matrix, normal equations and
truncated-SVD fit."""

import numpy as np
import pytest

from fdlink import numerics
from fdlink.channel import BLOCK, apply_channel
from fdlink.config_units import Rng, complex_normal
from fdlink.digital_canceller import (DigitalCancellerState,
                                      build_design_matrix, cancel_signal,
                                      linear_basis_mask, normal_equations,
                                      tsvd_estimate, tsvd_fit)
from fdlink.impairments import build_augmented_vector


def _frame(gen, n_tx=2, t=120):
    return complex_normal(gen, (n_tx, t))


# --- design matrix -----------------------------------------------------------

def test_design_matrix_shape_and_delay_structure():
    gen = Rng(0).generator
    x = _frame(gen, n_tx=3, t=40)
    psi = build_design_matrix(x, 4)
    assert psi.shape == (6 * 3 * 4, 40)
    base = build_augmented_vector(x)
    for l in range(4):
        block = psi[l * 18:(l + 1) * 18]
        assert np.array_equal(block[:, l:], base[:, :40 - l])
        assert np.all(block[:, :l] == 0)
    # delays look only backward: a training window is a column prefix
    assert np.array_equal(build_design_matrix(x[:, :25], 4), psi[:, :25])


def test_design_matrix_monomial_rows():
    x = np.array([[1.0 + 1.0j, 2.0 - 1.0j]])
    psi = build_design_matrix(x, 1)
    a = x[0]
    want = np.stack([a, a.conj(), a ** 3, a ** 2 * a.conj(),
                     a * a.conj() ** 2, a.conj() ** 3])
    assert np.allclose(psi, want)


def test_linear_basis_mask():
    mask = linear_basis_mask(4, 3)
    assert mask.shape == (72,)
    assert mask.sum() == 12
    idx = np.flatnonzero(mask)
    assert np.array_equal(idx, np.r_[0:4, 24:28, 48:52])


@pytest.mark.parametrize("linear_only", [False, True])
def test_cancel_signal_filter_equals_dense_design_matrix(linear_only):
    gen = Rng(9).generator
    n_tx, l_si = 3, 4
    x = _frame(gen, n_tx=n_tx, t=90)
    psi = build_design_matrix(x, l_si)
    basis = build_augmented_vector
    if linear_only:
        psi, basis = psi[linear_basis_mask(n_tx, l_si)], None
    theta = complex_normal(gen, (2, psi.shape[0]))
    state = DigitalCancellerState(theta, psi.shape[0], np.zeros(2),
                                  np.ones(psi.shape[0]))
    want = -(theta @ psi)
    got = cancel_signal(state, x, basis)
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("linear_only", [False, True])
@pytest.mark.parametrize("start", [0, 2, 3, 50])
def test_cancel_signal_on_payload_window_equals_full_frame(linear_only,
                                                           start):
    # the payload from `start` on needs only the l_si - 1 samples before it
    gen = Rng(11).generator
    n_tx, l_si = 3, 4
    x = _frame(gen, n_tx=n_tx, t=90)
    basis = None if linear_only else build_augmented_vector
    n_basis = n_tx if linear_only else 6 * n_tx
    theta = complex_normal(gen, (2, l_si * n_basis))
    state = DigitalCancellerState(theta, theta.shape[1], np.zeros(2),
                                  np.ones(theta.shape[1]))
    want = cancel_signal(state, x, basis)[:, start:]
    hist = max(start - l_si + 1, 0)
    got = cancel_signal(state, x[:, hist:], basis)[:, start - hist:]
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-12 * np.abs(want).max()


# frame lengths around the edges of apply_channel's column blocks
@pytest.mark.parametrize("l_si", [1, 6])
@pytest.mark.parametrize("edge", ["B-1", "B", "B+1", "2B+L-1"])
def test_blockwise_basis_filter_bytes_equal_whole_frame_basis(l_si, edge):
    # the filter builds the monomials one block at a time; each block must
    # give the same bytes as filtering the whole frame's monomial stream
    t = {"B-1": BLOCK - 1, "B": BLOCK, "B+1": BLOCK + 1,
         "2B+L-1": 2 * BLOCK + l_si - 1}[edge]
    gen = Rng(12).generator
    n_tx = 2
    x = _frame(gen, n_tx=n_tx, t=t)
    theta = complex_normal(gen, (3, l_si * 6 * n_tx))
    state = DigitalCancellerState(theta, theta.shape[1], np.zeros(3),
                                  np.ones(theta.shape[1]))
    taps = theta.reshape(3, l_si, 6 * n_tx).transpose(1, 0, 2)
    want = -apply_channel(build_augmented_vector(x), taps)
    got = cancel_signal(state, x, build_augmented_vector)
    assert np.array_equal(got, want)


def test_normal_equations_equal_dense_products():
    gen = Rng(10).generator
    short = 0
    for case in range(400):
        n_tx, l_si = int(gen.integers(1, 5)), int(gen.integers(1, 8))
        # every tenth case is no longer than the delay span
        t = int(gen.integers(1, l_si + 1 if case % 10 == 0 else 61))
        short += t < l_si
        x = _frame(gen, n_tx=n_tx, t=t)
        y = complex_normal(gen, (int(gen.integers(1, 5)), t))
        psi = build_design_matrix(x, l_si)
        g, c = normal_equations(build_augmented_vector(x), y, l_si)
        g_want, c_want = psi @ psi.conj().T, y @ psi.conj().T
        assert g.shape == g_want.shape and c.shape == c_want.shape
        assert np.max(np.abs(g - g_want)) <= 1e-12 * np.abs(g_want).max()
        assert np.max(np.abs(c - c_want)) <= 1e-12 * np.abs(c_want).max()
    assert short > 0


def _normal_equations_all_rows(u, y, l_si):
    """normal_equations with every row of block row 0 taken by the product,
    as it was before the conjugate rows were mirrored: the byte oracle."""
    nb, t = u.shape
    pad_c = np.zeros((nb, l_si - 1 + t), dtype=complex)
    np.conjugate(u, out=pad_c[:, l_si - 1:])
    g = np.empty((l_si, nb, l_si, nb), dtype=complex)
    c = np.empty((y.shape[0], l_si, nb), dtype=complex)
    for m in range(l_si):
        sh = pad_c[:, l_si - 1 - m:][:, :t].T
        g[0, :, m], c[:, m] = u @ sh, y @ sh
    rev = pad_c[:, :-l_si:-1].conj()
    for l in range(1, l_si):
        g[l:, :, l - 1] = g[l - 1, :, l:].transpose(1, 2, 0).conj()
        g[l, :, l:] = g[l - 1, :, l - 1:-1] - (
            rev[:, l - 1, None, None] * rev[:, l - 1:l_si - 1].conj().T)
    return g.reshape(l_si * nb, -1), c.reshape(-1, l_si * nb)


def _mirror(n_tx):
    """Index of the conjugate of each row of a six-block monomial stack."""
    return (np.array([1, 0, 5, 4, 3, 2])[:, None] * n_tx
            + np.arange(n_tx)).ravel()


@pytest.mark.parametrize("n_tx", [1, 2, 3, 4])
def test_normal_equations_equal_all_rows_products(n_tx):
    # frames run at one BLAS thread; there the mirrored rows keep the
    # all-rows product's values for an even transmitter count, as at every
    # preset (four). For an odd count OpenBLAS rounds the columns of its last
    # partial column tile unlike the others, so the all-rows product is not
    # exactly conjugate-symmetric there and the two differ in the last bits.
    gen = Rng(30 + n_tx).generator
    with numerics.blas_threads(1):
        for l_si, t, n_rx in [(1, 40, 2), (5, 3, 1), (6, 301, 4),
                              (19, 2 * BLOCK + 5, 4)]:
            u = build_augmented_vector(_frame(gen, n_tx=n_tx, t=t))
            y = complex_normal(gen, (n_rx, t))
            g, c = normal_equations(u, y, l_si)
            g_want, c_want = _normal_equations_all_rows(u, y, l_si)
            assert np.array_equal(c, c_want)
            # block row 0 is conjugate-symmetric under the mirror by design
            idx = _mirror(n_tx)
            g0 = g[:6 * n_tx].reshape(6 * n_tx, l_si, 6 * n_tx)
            assert np.array_equal(g0, g0[idx][:, :, idx].conj())
            if n_tx % 2 == 0:
                assert np.array_equal(g, g_want)
            else:
                assert np.max(np.abs(g - g_want)) <= 1e-15 * np.abs(g_want).max()


# --- TSVD fit ----------------------------------------------------------------

# floor 0 keeps the full rank; 1e-3 truncates the full basis (72 -> 45) and
# 3e-2 truncates both bases (72 -> 7, 12 -> 10)
@pytest.mark.parametrize("linear_only", [False, True])
@pytest.mark.parametrize("noise_var", [0.0, 1e-3, 3e-2])
def test_sub_block_fit_equals_dense_fit(linear_only, noise_var):
    # the fit from (a principal submatrix of) normal_equations equals the
    # dense fit over the same rows of the design matrix
    gen = Rng(11).generator
    n_tx, l_si, t = 4, 3, 160
    x = _frame(gen, n_tx=n_tx, t=t)
    psi = build_design_matrix(x, l_si)
    y = (complex_normal(gen, (4, psi.shape[0]), var=1e-4) @ psi
         + complex_normal(gen, (4, t), var=1e-9))
    g, c = normal_equations(build_augmented_vector(x), y, l_si)
    rows = np.ones(psi.shape[0], dtype=bool)
    if linear_only:
        rows = linear_basis_mask(n_tx, l_si)
    got = tsvd_fit(g[np.ix_(rows, rows)], c[:, rows], y, noise_var)
    want = tsvd_estimate(psi[rows], y, noise_var)
    assert got.rank_used == want.rank_used
    assert np.max(np.abs(got.theta - want.theta)) <= (
        1e-10 * np.abs(want.theta).max())


def test_noiseless_recovery_cancels_exactly():
    gen = Rng(1).generator
    x = _frame(gen, n_tx=2, t=200)
    psi = build_design_matrix(x, 2)
    theta_true = complex_normal(gen, (3, psi.shape[0]))
    y = theta_true @ psi
    state = tsvd_estimate(psi, y, 0.0)
    resid = y + cancel_signal(state, x, build_augmented_vector)
    assert np.max(np.abs(resid)) < 1e-10 * np.max(np.abs(y))
    rel = state.residual_power_per_antenna / np.mean(np.abs(y) ** 2, axis=1)
    assert np.all(rel < 1e-12)


def test_full_rank_equals_minimum_norm_pinv():
    gen = Rng(2).generator
    x = _frame(gen, n_tx=2, t=60)
    psi = build_design_matrix(x, 2)     # 24 rows, 60 columns
    y = complex_normal(gen, (4, 60))    # arbitrary observations, no model
    state = tsvd_estimate(psi, y, 0.0)  # zero floor: never stops early
    want = y @ np.linalg.pinv(psi)
    assert np.allclose(state.theta, want, atol=1e-8 * np.abs(want).max())


def test_rank_deficient_equals_truncated_pinv():
    # antenna 1 is a scaled copy of antenna 0 and antenna 3 is dead, so half
    # the rows of psi are dependent or zero
    gen = Rng(8).generator
    x = _frame(gen, n_tx=4, t=200)
    x[1] = (0.5 - 2.0j) * x[0]
    x[3] = 0.0
    psi = build_design_matrix(x, 2)
    y = complex_normal(gen, (3, 200))
    state = tsvd_estimate(psi, y, 0.0)
    want = y @ np.linalg.pinv(psi, rcond=200 * np.finfo(float).eps)
    assert state.rank_used == np.linalg.matrix_rank(psi) == 24
    assert np.all(np.isfinite(state.theta))
    assert np.max(np.abs(state.theta - want)) <= 1e-8 * np.abs(want).max()


def test_zero_design_matrix_guard():
    psi = np.zeros((12, 30), dtype=complex)
    y = complex_normal(Rng(3).generator, (2, 30))
    state = tsvd_estimate(psi, y, 1e-13)
    assert state.rank_used == 0
    assert np.all(state.theta == 0)
    assert np.allclose(state.residual_power_per_antenna,
                       np.mean(np.abs(y) ** 2, axis=1))
    x = np.zeros((2, 30), dtype=complex)
    assert np.all(cancel_signal(state, x, build_augmented_vector) == 0)


def test_rank_shrinks_as_noise_floor_rises():
    gen = Rng(4).generator
    x = _frame(gen, n_tx=2, t=150)
    psi = build_design_matrix(x, 2)
    theta_true = complex_normal(gen, (2, psi.shape[0]), var=1e-4)
    y = theta_true @ psi + complex_normal(gen, (2, 150), var=1e-10)
    ranks = [tsvd_estimate(psi, y, nv).rank_used
             for nv in (0.0, 1e-10, 1e-8, 1e-6, 1e-2)]
    assert all(r1 >= r2 for r1, r2 in zip(ranks, ranks[1:]))
    assert ranks[0] > ranks[-1]
    assert ranks[-1] >= 1                # always at least one rank


def test_stopping_rule_residual_at_or_below_floor():
    gen = Rng(5).generator
    x = _frame(gen, n_tx=2, t=150)
    psi = build_design_matrix(x, 2)
    theta_true = complex_normal(gen, (2, psi.shape[0]), var=1e-4)
    nv = 1e-9
    y = theta_true @ psi + complex_normal(gen, (2, 150), var=nv)
    state = tsvd_estimate(psi, y, nv)
    assert np.all(state.residual_power_per_antenna <= nv)
    if state.rank_used > 1:              # one fewer rank would not suffice
        b = y @ np.linalg.svd(psi)[2].conj().T[:, :state.rank_used - 1]
        res = np.sum(np.abs(y) ** 2, axis=1) - np.sum(np.abs(b) ** 2, axis=1)
        assert np.any(res / 150 > nv)


def test_residuals_monotone_in_rank():
    # brute-force check of the cumulative-residual bookkeeping
    gen = Rng(6).generator
    x = _frame(gen, n_tx=2, t=100)
    psi = build_design_matrix(x, 3)
    y = complex_normal(gen, (2, 100))
    u, s, vh = np.linalg.svd(psi, full_matrices=False)
    k = int(np.sum(s > s[0] * max(psi.shape) * np.finfo(float).eps))
    prev = np.full(2, np.inf)
    for p in range(1, k + 1):
        b = y @ vh.conj().T[:, :p]
        theta = (b / s[:p]) @ u[:, :p].conj().T
        res = np.mean(np.abs(y - theta @ psi) ** 2, axis=1)
        assert np.all(res <= prev + 1e-15)
        prev = res
    # the library fit at floor 0 equals the full-rank residual
    state = tsvd_estimate(psi, y, 0.0)
    assert state.rank_used == k
    assert np.allclose(state.residual_power_per_antenna, prev, rtol=1e-6)


def test_mismatched_lengths_raise():
    psi = np.zeros((6, 10), dtype=complex)
    with pytest.raises(ValueError):
        tsvd_estimate(psi, np.zeros((2, 11), dtype=complex), 0.0)
    with pytest.raises(ValueError):
        normal_equations(psi[:1], np.zeros((2, 11), dtype=complex), 2)


def test_state_fields():
    gen = Rng(7).generator
    x = _frame(gen, n_tx=1, t=50)
    psi = build_design_matrix(x, 1)
    y = complex_normal(gen, (1, 50))
    state = tsvd_estimate(psi, y, 1e-30)
    assert isinstance(state, DigitalCancellerState)
    assert state.theta.shape == (1, 6)
    assert state.singular_values.ndim == 1
    assert np.all(np.diff(state.singular_values) <= 0)
    assert 1 <= state.rank_used <= 6
