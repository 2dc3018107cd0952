"""Beamforming: DL null-space steering, UL whitening combiner, rate math."""

import numpy as np
import pytest

from fdlink import numerics
from fdlink.beamforming import (PROBE_SYMBOLS, DlSolution, rate_bits,
                                residual_si_cov, solve_dl, ul_combiner,
                                ul_precoder)
from fdlink.config_units import Rng, SystemConfig, complex_normal, dbm_to_linear
from fdlink.impairments import (check_saturation, derive_gain_matrices,
                                make_impairment_model, tx_chain)
from fdlink.waveform import (draw_symbols, full_bins, ofdm_demodulate,
                             ofdm_modulate)

CFG = SystemConfig()
NC = CFG.nc
DATA = CFG.data_idx
CP = CFG.cp_len


G1 = np.sqrt(dbm_to_linear(30.0) / 4)   # per-antenna amplitude at 30 dBm


def _gains():
    return derive_gain_matrices(make_impairment_model(), G1)


def _rand_f(gen, n_rx, n_tx):
    """A random per-bin response drawn on all NC bins, cut to the data bins."""
    return complex_normal(gen, (NC, n_rx, n_tx))[DATA]


def _noise(sigma2, n_rx):
    return np.broadcast_to(sigma2 * np.eye(n_rx), (len(DATA), n_rx, n_rx))


def _subspace_gap(a, b):
    """Largest principal-angle sine between the column spaces of a and b
    (of equal dimension), from b's part outside a's span."""
    qa, _ = np.linalg.qr(a)
    qb, _ = np.linalg.qr(b)
    return np.linalg.norm(qb - qa @ (qa.conj().T @ qb), ord=2)


# --- downlink ----------------------------------------------------------------

def test_dl_no_si_gives_eigenbeamforming_rate():
    # with negligible SI and a huge threshold the full stream count survives;
    # the null basis is then complete, so the combined link collapses to the
    # top singular values of the DL channel exactly
    gen = Rng(0).generator
    h_dl = _rand_f(gen, 4, 4)
    h_si = 1e-6 * _rand_f(gen, 4, 4)
    gains = _gains()
    sol = solve_dl(h_si, h_dl, gains, G1, 1e6, NC, DATA, CP,
                   Rng(1).generator, alpha_cap=4)
    assert sol.feasible and sol.alpha == 4
    sigma2 = 1e-9
    s_eff = np.swapaxes(sol.u.conj(), 1, 2) @ h_dl @ (G1 * sol.v)
    q = np.broadcast_to(sigma2 * np.eye(4), s_eff.shape[:1] + (4, 4))
    got = rate_bits(s_eff, q)
    sv = np.linalg.svd(h_dl, compute_uv=False)
    want = np.sum(np.log2(1.0 + G1 ** 2 * sv ** 2 / sigma2), axis=1)
    assert np.allclose(got, want, rtol=1e-9)


def test_dl_precoder_columns_orthonormal_and_null_bins_zero():
    gen = Rng(2).generator
    sol = solve_dl(1e-4 * _rand_f(gen, 4, 4), _rand_f(gen, 2, 4),
                   _gains(), G1, dbm_to_linear(-40.0),
                   NC, DATA, CP, Rng(3).generator, alpha_cap=4)
    v = sol.v
    eye = np.broadcast_to(np.eye(sol.alpha), (len(DATA), sol.alpha, sol.alpha))
    assert np.allclose(np.swapaxes(v.conj(), 1, 2) @ v, eye, atol=1e-12)
    # the solution holds the data bins only; the precoder reaches the null
    # bins through full_bins, as zeros
    assert sol.u.shape == (len(DATA), 2, sol.alpha)
    null = np.setdiff1d(np.arange(NC), DATA)
    assert np.all(full_bins(NC, DATA, v)[null] == 0)


def test_dl_single_stream_rides_weakest_singular_vector():
    gen = Rng(4).generator
    h_si = _rand_f(gen, 4, 4)
    h_dl = _rand_f(gen, 1, 4)              # single-antenna user forces alpha=1
    sol = solve_dl(h_si, h_dl, _gains(), G1, 1e9,
                   NC, DATA, CP, Rng(5).generator, alpha_cap=4)
    assert sol.alpha == 1
    _, _, vr = numerics.svd(h_si)
    vmin = vr[:, :, -1]
    align = np.abs(np.sum(sol.v[:, :, 0].conj() * vmin, axis=1))
    assert np.all(align > 1.0 - 1e-9)


def test_dl_stream_count_drops_under_tight_threshold():
    # shrinking lambda forces the solver down from the max stream count
    gen = Rng(6).generator
    h_si = 1e-3 * _rand_f(gen, 4, 4)
    h_dl = _rand_f(gen, 4, 4)
    loose = solve_dl(h_si, h_dl, _gains(), G1, 1e3, NC, DATA, CP,
                     Rng(7).generator, alpha_cap=4)
    tight = solve_dl(h_si, h_dl, _gains(), G1, dbm_to_linear(-52.0),
                     NC, DATA, CP, Rng(7).generator, alpha_cap=4)
    assert loose.alpha == 4
    assert tight.alpha < loose.alpha


def test_dl_infeasible_flags_and_strict_raises():
    gen = Rng(8).generator
    h_si = _rand_f(gen, 4, 4)              # 0 dB SI, impossible threshold
    h_dl = _rand_f(gen, 4, 4)
    lam = dbm_to_linear(-120.0)
    sol = solve_dl(h_si, h_dl, _gains(), G1, lam, NC, DATA, CP,
                   Rng(9).generator, alpha_cap=4)
    assert not sol.feasible
    assert sol.alpha == 2                  # flagged smallest candidate
    assert sol.violating_antenna is not None and sol.margin_db > 0
    assert sol.est_residual_w.shape == (4,)


def test_dl_precoder_steers_into_the_null_space_of_a_wide_si_response():
    # 2 receive and 4 transmit antennas: the SI response has a 2-dimensional
    # null space, and two streams there reach the own receiver not at all
    gen = Rng(14).generator
    h_si = _rand_f(gen, 2, 4)
    sol = solve_dl(h_si, _rand_f(gen, 2, 4), _gains(), G1, 1e6,
                   NC, DATA, CP, Rng(15).generator, alpha_cap=2)
    assert sol.alpha == 2 and sol.v.shape == (len(DATA), 4, 2)
    assert np.max(np.abs(h_si @ sol.v)) < 1e-12
    assert np.all(sol.est_residual_w >= 0)


def test_residual_si_cov_diagonal_is_the_per_antenna_power():
    gen = Rng(16).generator
    h = _rand_f(gen, 3, 4)
    a = _rand_f(gen, 4, 2)
    z = complex_normal(gen, (len(DATA), 4, 5))
    cov = residual_si_cov(h, a, z)
    assert cov.shape == (len(DATA), 3, 3)
    assert np.allclose(cov, numerics.herm(cov), atol=1e-12)
    p_sig = np.sum(np.abs(h @ a) ** 2, axis=2)
    p_z = np.mean(np.abs(h @ z) ** 2, axis=2)
    got = np.diagonal(cov, axis1=1, axis2=2)
    assert np.allclose(got, p_sig + p_z, rtol=1e-12, atol=0)


def test_residual_si_cov_stays_non_negative_in_the_null_space():
    # a precoder in the null space of h and no TX distortion leave a
    # residual at the rounding level; h (a a^H) h^H rounds half of these
    # 52 diagonals below 0, and a negative residual has no dB margin
    gen = Rng(17).generator
    h = _rand_f(gen, 1, 2)
    _, _, v = numerics.svd(h)
    cov = residual_si_cov(h, 0.3 * v[:, :, 1:], np.zeros((len(DATA), 2, 4)))
    assert np.all(np.diagonal(cov, axis1=1, axis2=2).real >= 0)


def _solve_dl_every_try(h_si_eff_f, h_dl_f, gains_b, g1, lambda_b_w, nc,
                        data_idx, cp_len, probe_gen, alpha_cap):
    """solve_dl as it was before it rejected a stream count on its signal
    part alone: every count gets its SVD and probe frame. The byte-exact
    oracle of the pruned search."""
    n_tx = h_si_eff_f.shape[2]
    alpha_max = min(h_dl_f.shape[1], n_tx, alpha_cap)
    candidates = list(range(alpha_max, 1, -1)) if alpha_max >= 2 else [1]
    _, _, vr = numerics.svd(h_si_eff_f)
    for alpha in candidates:
        null_basis = vr[:, :, n_tx - alpha:]
        um, _, fm = numerics.svd(h_dl_f @ null_basis)
        v = null_basis @ fm
        s = draw_symbols(probe_gen, PROBE_SYMBOLS, nc, data_idx, alpha)
        x = ofdm_modulate(s, full_bins(nc, data_idx, v), cp_len)
        _, z = tx_chain(x, gains_b)
        zf = ofdm_demodulate(z, nc, cp_len)[:, data_idx, :].transpose(1, 2, 0)
        cov = residual_si_cov(h_si_eff_f, g1 * v, zf)
        res_w = np.sum(np.diagonal(cov, axis1=1, axis2=2).real, axis=0) / nc
        sat = check_saturation(res_w, lambda_b_w)
        with np.errstate(divide="ignore"):
            margin = float(10 * np.log10(np.max(res_w) / lambda_b_w))
        last = DlSolution(
            v=v, u=um[:, :, :alpha], alpha=alpha, feasible=not np.any(sat),
            violating_antenna=int(np.argmax(res_w)) if np.any(sat) else None,
            margin_db=margin, est_residual_w=res_w)
        if last.feasible:
            break
    return last


def _uneven_si(gen):
    """SI whose right-singular directions carry very different powers, so
    the larger stream counts saturate on their signal part alone."""
    return 1e-3 * _rand_f(gen, 4, 4) * np.array([1.0, 1.0, 0.1, 0.01])


@pytest.mark.parametrize("n_rx_m1,lambda_dbm,pruned", [
    pytest.param(4, -20.0, 0, id="feasible-first-try"),
    # 4 and 3 streams: signal alone at -33.6 and -39.7 dBm on the worst
    # antenna, 2 streams at -58.8 dBm
    pytest.param(4, -50.0, 2, id="pruned-tries"),
    pytest.param(4, -39.5, 1, id="built-infeasible-try"),
    pytest.param(4, -70.0, 2, id="every-try-infeasible"),
    pytest.param(1, -20.0, 0, id="alpha-max-1"),
    pytest.param(1, -70.0, 0, id="alpha-max-1-infeasible"),
])
def test_solve_dl_equals_the_every_try_search(monkeypatch, n_rx_m1,
                                              lambda_dbm, pruned):
    gen = Rng(20).generator
    h_si, h_dl = _uneven_si(gen), _rand_f(gen, n_rx_m1, 4)
    args = (h_si, h_dl, _gains(), G1, dbm_to_linear(lambda_dbm), NC, DATA, CP)
    gen_want, gen_got = Rng(21).generator, Rng(21).generator
    want = _solve_dl_every_try(*args, gen_want, alpha_cap=4)
    svds = []
    real_svd = numerics.svd
    monkeypatch.setattr(numerics, "svd",
                        lambda a: svds.append(a.shape) or real_svd(a))
    got = solve_dl(*args, gen_got, alpha_cap=4)
    tries = min(n_rx_m1, 4) - want.alpha + 1 if n_rx_m1 > 1 else 1
    assert len(svds) == 1 + tries - pruned     # the SI's, then one per build
    for name in ("alpha", "feasible", "violating_antenna", "margin_db"):
        assert getattr(got, name) == getattr(want, name), name
    for name in ("v", "u", "est_residual_w"):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes()
    # the probe stream is left where the every-try search leaves it
    assert gen_got.random() == gen_want.random()


def test_dl_alpha_cap():
    gen = Rng(10).generator
    sol = solve_dl(1e-6 * _rand_f(gen, 4, 4),
                   _rand_f(gen, 4, 4), _gains(), G1,
                   1e6, NC, DATA, CP, Rng(11).generator, alpha_cap=2)
    assert sol.alpha == 2


# --- uplink ------------------------------------------------------------------

def test_ul_precoder_is_eigenbeamformer():
    gen = Rng(12).generator
    h = _rand_f(gen, 4, 4)
    v = ul_precoder(h, 2)
    assert v.shape == (len(DATA), 4, 2)
    _, _, vr = numerics.svd(h)
    align = np.abs(np.sum(v.conj() * vr[:, :, :2], axis=1))
    assert np.all(align > 1.0 - 1e-9)


def test_ul_combiner_noise_only_matches_matched_filter():
    # sigma = sigma2 I: generalized eigenvectors reduce to the top left-
    # singular subspace of the effective uplink channel
    gen = Rng(13).generator
    h = _rand_f(gen, 4, 4)
    heff = h @ (np.sqrt(dbm_to_linear(23.0) / 4) * ul_precoder(h, 2))
    u = ul_combiner(heff, _noise(1e-13, 4))
    for n in range(0, len(DATA), 7):
        uu, _, _ = np.linalg.svd(heff[n])
        assert _subspace_gap(u[n], uu[:, :2]) < 1e-6


def test_ul_combiner_whitens_strong_interference():
    # a single-direction jammer: the combiner must put its streams into the
    # clean subspace, beating random unit combiners on every bin
    gen = Rng(14).generator
    h = _rand_f(gen, 4, 2)
    heff = h @ (np.sqrt(dbm_to_linear(23.0) / 2) * ul_precoder(h, 1))
    jam = complex_normal(gen, (NC, 4, 1))[DATA]
    h_si_eff = 30.0 * jam                  # one strong interference column
    sigma2 = 1e-6                          # keeps sigma invertible (INR 90 dB)
    ipn = h_si_eff @ np.swapaxes(h_si_eff.conj(), 1, 2) + _noise(sigma2, 4)
    u = ul_combiner(heff, ipn)
    r_best = None
    for trial in range(50):
        if trial == 0:
            cand = u
        else:
            cand = complex_normal(gen, (len(DATA), 4, 1))
            cand /= np.linalg.norm(cand, axis=1, keepdims=True)
        sig = np.swapaxes(cand.conj(), 1, 2) @ heff
        j_eff = np.swapaxes(cand.conj(), 1, 2) @ h_si_eff
        q = j_eff @ np.swapaxes(j_eff.conj(), 1, 2) + sigma2 * np.eye(1)
        r = rate_bits(sig, q)
        if trial == 0:
            r_comb = r
        else:
            r_best = r if r_best is None else np.maximum(r_best, r)
    assert np.all(r_comb >= r_best - 1e-9)


def _jammed_ipn(gen, n_rx, jam_db=60.0):
    """Unit noise plus one interference direction jam_db above it, per bin."""
    jam = complex_normal(gen, (NC, n_rx, 1))[DATA]
    jam /= np.linalg.norm(jam, axis=1, keepdims=True)
    return 10 ** (jam_db / 10) * jam @ numerics.herm(jam) + _noise(1.0, n_rx)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_ul_combiner_spans_the_generalized_eigenvectors(d):
    # oracle: the dominant eigenvectors of the general matrix ipn^-1 S
    gen = Rng(16).generator
    heff = _rand_f(gen, 4, d)
    ipn = _jammed_ipn(gen, 4)
    u = ul_combiner(heff, ipn)
    _, vec = numerics.eig_general(
        np.linalg.solve(ipn, heff @ numerics.herm(heff)))
    for n in range(len(DATA)):
        assert _subspace_gap(u[n], vec[n, :, :d]) <= 1e-9


# rate_bits rounds to about eps * cond(ipn) relative: a random unitary
# combiner moves the rate by 7e-14 at 30 dB and 4e-11 at 60 dB
@pytest.mark.parametrize("jam_db,rtol", [(30.0, 1e-12), (60.0, 1e-10)])
def test_ul_combiner_at_full_stream_count_keeps_the_rate(jam_db, rtol):
    # d = n_rx: the combiner is invertible, so the combined rate is the
    # rate before combining
    gen = Rng(17).generator
    heff = _rand_f(gen, 4, 4)
    ipn = _jammed_ipn(gen, 4, jam_db)
    u = ul_combiner(heff, ipn)
    uh = numerics.herm(u)
    np.testing.assert_allclose(rate_bits(uh @ heff, uh @ ipn @ u),
                               rate_bits(heff, ipn), rtol=rtol, atol=0)


def test_ul_combiner_unit_columns():
    gen = Rng(15).generator
    h = _rand_f(gen, 4, 4)
    heff = h @ (0.5 * ul_precoder(h, 2))
    ipn = (h @ _noise(1e-6, 4) @ np.swapaxes(h.conj(), 1, 2)
           + _noise(1e-9, 4) + _noise(1e-13, 4))
    u = ul_combiner(heff, ipn)
    assert u.shape == (len(DATA), 4, 2)
    norms = np.linalg.norm(u, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)


def test_ul_combiner_singular_sigma_raises():
    h = np.broadcast_to(np.eye(2, dtype=complex), (len(DATA), 2, 2))
    heff = h @ (np.sqrt(0.5) * ul_precoder(h, 1))
    with pytest.raises(numerics.NumericalError):
        ul_combiner(heff, _noise(0.0, 2))


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
