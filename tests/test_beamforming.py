"""Beamforming: DL null-space steering, UL whitening combiner, rate math."""

import numpy as np
import pytest

from fdlink import numerics
from fdlink.beamforming import (DlInfeasibleError, rate_bits, solve_dl,
                                ul_combiner, ul_precoder)
from fdlink.config_units import Rng, SystemConfig, complex_normal, dbm_to_linear
from fdlink.impairments import make_impairment_model, derive_gain_matrices

CFG = SystemConfig()
NC = CFG.nc
DATA = CFG.data_idx
CP = CFG.cp_len


def _gains(n_tx=4, p_dbm=30.0):
    model = make_impairment_model()
    g1 = np.sqrt(dbm_to_linear(p_dbm) / n_tx)
    return derive_gain_matrices(model, g1)


def _rand_f(gen, nc, n_rx, n_tx):
    return complex_normal(gen, (nc, n_rx, n_tx))


def _subspace_gap(a, b):
    """Largest principal-angle sine between the column spaces of a and b."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    s = np.linalg.svd(qa.conj().T @ qb, compute_uv=False)
    return np.sqrt(max(0.0, 1.0 - np.min(s) ** 2))


# --- downlink ----------------------------------------------------------------

def test_dl_no_si_gives_eigenbeamforming_rate():
    # with negligible SI and a huge threshold the full stream count survives;
    # the null basis is then complete, so the combined link collapses to the
    # top singular values of the DL channel exactly
    gen = Rng(0).generator
    h_dl = _rand_f(gen, NC, 4, 4)
    h_si = 1e-6 * _rand_f(gen, NC, 4, 4)
    gains = _gains()
    sol = solve_dl(h_si, h_dl, gains, dbm_to_linear(30.0), 1e6, NC, DATA, CP,
                   Rng(1).generator)
    assert sol.feasible and sol.alpha == 4
    sigma2 = 1e-9
    s_eff = np.swapaxes(sol.u[DATA].conj(), 1, 2) @ h_dl[DATA] \
        @ (sol.g1 * sol.v[DATA])
    q = np.broadcast_to(sigma2 * np.eye(4), s_eff.shape[:1] + (4, 4))
    got = rate_bits(s_eff, q)
    sv = np.linalg.svd(h_dl[DATA], compute_uv=False)
    want = np.sum(np.log2(1.0 + sol.g1 ** 2 * sv ** 2 / sigma2), axis=1)
    assert np.allclose(got, want, rtol=1e-9)


def test_dl_precoder_columns_orthonormal_and_null_bins_zero():
    gen = Rng(2).generator
    sol = solve_dl(1e-4 * _rand_f(gen, NC, 4, 4), _rand_f(gen, NC, 2, 4),
                   _gains(), dbm_to_linear(30.0), dbm_to_linear(-40.0),
                   NC, DATA, CP, Rng(3).generator)
    v = sol.v[DATA]
    eye = np.broadcast_to(np.eye(sol.alpha), (len(DATA), sol.alpha, sol.alpha))
    assert np.allclose(np.swapaxes(v.conj(), 1, 2) @ v, eye, atol=1e-12)
    null = np.setdiff1d(np.arange(NC), DATA)
    assert np.all(sol.v[null] == 0) and np.all(sol.u[null] == 0)


def test_dl_single_stream_rides_weakest_singular_vector():
    gen = Rng(4).generator
    h_si = _rand_f(gen, NC, 4, 4)
    h_dl = _rand_f(gen, NC, 1, 4)          # single-antenna user forces alpha=1
    sol = solve_dl(h_si, h_dl, _gains(), dbm_to_linear(30.0), 1e9,
                   NC, DATA, CP, Rng(5).generator)
    assert sol.alpha == 1
    _, _, vr = numerics.svd(h_si[DATA])
    vmin = vr[:, :, -1]
    align = np.abs(np.sum(sol.v[DATA, :, 0].conj() * vmin, axis=1))
    assert np.all(align > 1.0 - 1e-9)


def test_dl_stream_count_drops_under_tight_threshold():
    # shrinking lambda forces the solver down from the max stream count
    gen = Rng(6).generator
    h_si = 1e-3 * _rand_f(gen, NC, 4, 4)
    h_dl = _rand_f(gen, NC, 4, 4)
    p = dbm_to_linear(30.0)
    loose = solve_dl(h_si, h_dl, _gains(), p, 1e3, NC, DATA, CP,
                     Rng(7).generator)
    tight = solve_dl(h_si, h_dl, _gains(), p,
                     dbm_to_linear(-52.0), NC, DATA, CP, Rng(7).generator)
    assert loose.alpha == 4
    assert tight.alpha < loose.alpha


def test_dl_infeasible_flags_and_strict_raises():
    gen = Rng(8).generator
    h_si = _rand_f(gen, NC, 4, 4)          # 0 dB SI, impossible threshold
    h_dl = _rand_f(gen, NC, 4, 4)
    p = dbm_to_linear(30.0)
    lam = dbm_to_linear(-120.0)
    sol = solve_dl(h_si, h_dl, _gains(), p, lam, NC, DATA, CP, Rng(9).generator)
    assert not sol.feasible
    assert sol.alpha == 2                  # flagged smallest candidate
    assert sol.violating_antenna is not None and sol.margin_db > 0
    assert sol.est_residual_w.shape == (4,)
    with pytest.raises(DlInfeasibleError) as exc:
        solve_dl(h_si, h_dl, _gains(), p, lam, NC, DATA, CP,
                 Rng(9).generator, strict=True)
    assert exc.value.antenna == sol.violating_antenna
    assert exc.value.margin_db == pytest.approx(sol.margin_db)
    assert exc.value.solution.alpha == sol.alpha


def test_dl_alpha_cap():
    gen = Rng(10).generator
    sol = solve_dl(1e-6 * _rand_f(gen, NC, 4, 4),
                   _rand_f(gen, NC, 4, 4), _gains(), dbm_to_linear(30.0),
                   1e6, NC, DATA, CP, Rng(11).generator, alpha_cap=2)
    assert sol.alpha == 2


# --- uplink ------------------------------------------------------------------

def test_ul_precoder_is_eigenbeamformer():
    gen = Rng(12).generator
    h = _rand_f(gen, NC, 4, 4)
    v, g1 = ul_precoder(h, 2, dbm_to_linear(23.0), NC, DATA)
    assert g1 == pytest.approx(np.sqrt(dbm_to_linear(23.0) / 4))
    _, _, vr = numerics.svd(h[DATA])
    align = np.abs(np.sum(v[DATA].conj() * vr[:, :, :2], axis=1))
    assert np.all(align > 1.0 - 1e-9)


def test_ul_combiner_noise_only_matches_matched_filter():
    # sigma = sigma2 I: generalized eigenvectors reduce to the top left-
    # singular subspace of the effective uplink channel
    gen = Rng(13).generator
    h = _rand_f(gen, NC, 4, 4)
    v, g1 = ul_precoder(h, 2, dbm_to_linear(23.0), NC, DATA)
    u = ul_combiner(h, v, g1, 2, 1e-13, NC, DATA)
    heff = h[DATA] @ (g1 * v[DATA])
    for n in range(0, len(DATA), 7):
        uu, _, _ = np.linalg.svd(heff[n])
        assert _subspace_gap(u[DATA[n]], uu[:, :2]) < 1e-6


def test_ul_combiner_whitens_strong_interference():
    # a single-direction jammer: the combiner must put its streams into the
    # clean subspace, beating random unit combiners on every bin
    gen = Rng(14).generator
    h = _rand_f(gen, NC, 4, 2)
    v, g1 = ul_precoder(h, 1, dbm_to_linear(23.0), NC, DATA)
    jam = complex_normal(gen, (NC, 4, 1))
    h_si_eff = 30.0 * jam                  # one strong interference column
    v_b = np.zeros((NC, 1, 1), dtype=complex)
    v_b[DATA] = 1.0
    sigma2 = 1e-6                          # keeps sigma invertible (INR 90 dB)
    u = ul_combiner(h, v, g1, 1, sigma2, NC, DATA,
                    h_si_eff_f=h_si_eff, v_b=v_b, g1_b=1.0)
    heff = h[DATA] @ (g1 * v[DATA])
    r_best = None
    for trial in range(50):
        if trial == 0:
            cand = u[DATA]
        else:
            cand = complex_normal(gen, (len(DATA), 4, 1))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        sig = np.swapaxes(cand.conj(), 1, 2) @ heff
        j_eff = np.swapaxes(cand.conj(), 1, 2) @ (30.0 * jam[DATA])
        q = j_eff @ np.swapaxes(j_eff.conj(), 1, 2) + sigma2 * np.eye(1)
        r = rate_bits(sig, q)
        if trial == 0:
            r_comb = r
        else:
            r_best = r if r_best is None else np.maximum(r_best, r)
    assert np.all(r_comb >= r_best - 1e-9)


def test_ul_combiner_unit_columns():
    gen = Rng(15).generator
    h = _rand_f(gen, NC, 4, 4)
    v, g1 = ul_precoder(h, 2, 1.0, NC, DATA)
    z_cov = 1e-6 * np.broadcast_to(np.eye(4), (len(DATA), 4, 4))
    u = ul_combiner(h, v, g1, 2, 1e-13, NC, DATA, z_m2_cov=z_cov,
                    d_cov=1e-9 * np.broadcast_to(np.eye(4), (len(DATA), 4, 4)))
    norms = np.linalg.norm(u[DATA], axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    null = np.setdiff1d(np.arange(NC), DATA)
    assert np.all(u[null] == 0)


def test_ul_combiner_singular_sigma_raises():
    h = np.zeros((NC, 2, 2), dtype=complex)
    h[DATA] = np.eye(2)
    v, g1 = ul_precoder(h, 1, 1.0, NC, DATA)
    with pytest.raises(numerics.NumericalError):
        ul_combiner(h, v, g1, 1, 0.0, NC, DATA)


# --- rates ---------------------------------------------------------------

def test_rate_bits_scalar_case():
    s = np.array([[[3.0 + 4.0j]]])
    q = np.array([[[2.0 + 0.0j]]])
    assert rate_bits(s, q)[0] == pytest.approx(np.log2(1 + 25.0 / 2.0))


def test_rate_bits_phase_invariance():
    gen = Rng(17).generator
    s = complex_normal(gen, (5, 3, 3))
    e = complex_normal(gen, (5, 3, 3))
    q = e @ np.swapaxes(e.conj(), 1, 2) + 1e-3 * np.eye(3)
    phase = np.exp(1j * gen.uniform(0, 2 * np.pi, size=(5, 1, 1)))
    assert np.allclose(rate_bits(s, q), rate_bits(phase * s, q), rtol=1e-9)


def test_rate_bits_singular_q_raises():
    s = np.ones((1, 2, 2), dtype=complex)
    q = np.zeros((1, 2, 2), dtype=complex)
    with pytest.raises(numerics.NumericalError):
        rate_bits(s, q)
