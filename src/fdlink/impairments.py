"""Transmitter IQ-imbalance and PA nonlinearity, plus the receiver ADC.

The TX chain per antenna is: digital drive scale c, IQ mixer with image
leakage (mu1, mu2), third-order PA (nu1, nu3). The chain admits an exact
composite description

    x_out = g1 x + z(x),   z from the augmented monomial vector psi(x),

where psi stacks (x, x*, x^3, x^2 x*, x x*^2, x*^3) and the six composite
gains follow from expanding nu3 |mu1 u + mu2 u*|^2 (mu1 u + mu2 u*). Both
forms are implemented and agree to machine precision; the simulator runs the
physical chain and the analysis code uses the composite gains.
"""

from dataclasses import dataclass

import numpy as np

from .config_units import dbm_to_linear, db_to_linear

# frame columns per block of tx_chain; a block's buffers stay in cache
TX_BLOCK = 8192


@dataclass(frozen=True)
class TxImpairmentModel:
    """IQ mixer gains (mu1, mu2), and PA gains at the PA input plane."""
    mu1: complex
    mu2: complex
    nu1: float
    nu3: float


def make_impairment_model(irr_db=30.0, iip3_dbm=15.0, pa_gain_db=38.0):
    """Build the TX impairment model.

    :param irr_db: image rejection ratio in dB; None for an ideal mixer. The
        amplitude mismatch g is solved so the requested IRR is met exactly.
    :param iip3_dbm: PA input-referred third-order intercept; None for linear
    :param pa_gain_db: PA gain; the linear amplitude gain nu1 is
        10^(pa_gain_db/20)
    """
    nu1 = 10.0 ** (pa_gain_db / 20.0)
    if irr_db is None:
        g = 1.0
    else:
        if irr_db <= 0:
            raise ValueError("irr_db must be positive")
        r = db_to_linear(irr_db)
        # |1 + g|^2 = R |1 - g|^2 reduces to g^2 - 2 g (R+1)/(R-1) + 1 = 0;
        # take the root in (0, 1).
        beta = (r + 1.0) / (r - 1.0)
        g = beta - np.sqrt(beta * beta - 1.0)
    mu1 = 0.5 * (1.0 + g)
    mu2 = 0.5 * (1.0 - g)
    if iip3_dbm is None:
        nu3 = 0.0
    else:
        nu3 = nu1 / dbm_to_linear(iip3_dbm)
    return TxImpairmentModel(mu1=complex(mu1), mu2=complex(mu2),
                             nu1=float(nu1), nu3=float(nu3))


@dataclass(frozen=True)
class GainMatrices:
    """Composite per-chain gains of the impaired transmitter.

    g1, g2 weight x and x*; g3..g6 weight the cubic monomials in psi order.
    All TX chains are identical, so the gain matrices are these scalars times
    identity blocks; drive is the digital scale applied before the mixer.
    """
    g1: complex
    g2: complex
    g3: complex
    g4: complex
    g5: complex
    g6: complex
    drive: float
    model: TxImpairmentModel

    def augmented(self, n_tx):
        """(n_tx, 6 n_tx) block matrix [g1 I | g2 I | ... | g6 I]."""
        eye = np.eye(n_tx)
        return np.hstack([gk * eye for gk in (self.g1, self.g2, self.g3,
                                              self.g4, self.g5, self.g6)])


def derive_gain_matrices(model, g1_target):
    """Back-solve the drive level so the composite linear gain is g1_target.

    The drive scale is real: c = g1_target / |mu1 nu1|. With a = mu1 c and
    b = mu2 c the PA input is w = a x + b x*, and expanding
    nu1 w + nu3 |w|^2 w over the monomials of psi gives the six gains. The
    x^2 x* coefficient is a (|a|^2 + 2 |b|^2) nu3 (and its mirror for
    x x*^2); at the ideal-mixer point it reduces to exactly nu3_eff, matching
    the plain cubic nu1 x + nu3 |x|^2 x.
    """
    c = float(g1_target) / abs(model.mu1 * model.nu1)
    a = model.mu1 * c
    b = model.mu2 * c
    aa = abs(a) ** 2
    bb = abs(b) ** 2
    nu1, nu3 = model.nu1, model.nu3
    return GainMatrices(
        g1=nu1 * a,
        g2=nu1 * b,
        g3=nu3 * a * a * np.conj(b),
        g4=nu3 * a * (aa + 2.0 * bb),
        g5=nu3 * b * (2.0 * aa + bb),
        g6=nu3 * np.conj(a) * b * b,
        drive=c,
        model=model,
    )


def build_augmented_vector(x):
    """Stack the impairment monomials of x: (x, x*, x^3, x^2 x*, x x*^2, x*^3).

    x may be (n,) or (n, T); the result is (6n,) or (6n, T) with the blocks
    in that fixed order (x*, x x*^2 and x*^3 conjugate their mirror blocks).
    """
    x = np.asarray(x)
    u = np.empty((6 * len(x),) + x.shape[1:], dtype=x.dtype)
    b = np.split(u, 6)                     # views of the six blocks
    b[0][...] = x
    np.conjugate(x, out=b[1])
    np.power(x, 3, out=b[2])
    np.square(x, out=b[4])                 # x^2, parked in block 4 for a step
    np.multiply(b[4], b[1], out=b[3])
    np.conjugate(b[3], out=b[4])
    np.conjugate(b[2], out=b[5])
    return u


def tx_chain(x, gains):
    """Run frames through drive scale, IQ mixer and PA.

    :param x: (n_tx, n_samples) intended baseband frame
    :param gains: GainMatrices from derive_gain_matrices
    :returns: (x_tilde, z) with x_tilde = g1 x + z exactly
    """
    m = gains.model
    x = np.asarray(x)
    x_tilde = np.empty(x.shape, dtype=complex)
    z = np.empty(x.shape, dtype=complex)
    # x_tilde = nu1 w + nu3 |w|^2 w for w = mu1 u + mu2 u*, u = drive x,
    # each product in the operand order of that formula, TX_BLOCK columns at
    # a time through two complex block buffers and one float block buffer
    for k0 in range(0, x.shape[-1], TX_BLOCK):
        cols = (..., slice(k0, k0 + TX_BLOCK))
        u = np.multiply(gains.drive, x[cols])
        w = np.conjugate(u)
        np.multiply(m.mu2, w, out=w)
        np.multiply(m.mu1, u, out=u)
        np.add(u, w, out=w)
        a = np.abs(w)
        np.square(a, out=a)
        np.multiply(m.nu3, a, out=a)
        cubic = np.multiply(a, w, out=u)
        xt = np.multiply(m.nu1, w, out=x_tilde[cols])
        np.add(xt, cubic, out=xt)
        zb = np.multiply(gains.g1, x[cols], out=z[cols])
        np.subtract(xt, zb, out=zb)
    return x_tilde, z


# ---------------------------------------------------------------------------
# receiver front end

def adc_full_scale(y, full_scale_dbm, auto_range):
    """Full-scale power, watts: full_scale_dbm, or per antenna with auto_range.

    With auto_range the rail tracks the measured per-antenna peak rail
    amplitude (a peak-tracking AGC) but never drops below the configured
    full-scale floor, so quantization error stays within one LSB while the
    step never collapses on a cold antenna.
    """
    floor_w = dbm_to_linear(full_scale_dbm)
    if not auto_range:
        return floor_w
    y = np.atleast_2d(np.asarray(y))
    peak = np.maximum(np.abs(y.real), np.abs(y.imag)).max(axis=1)
    return np.maximum(floor_w, peak ** 2)


def adc_quantize(y, bits, full_scale_w):
    """Uniform mid-rise quantization of I and Q rails with clipping.

    Each rail spans [-A, +A] with A = sqrt(full_scale_w) in 2^bits steps;
    inputs beyond the rails clip to the outermost code. The map is idempotent.
    full_scale_w may be a scalar or per-antenna vector (see adc_full_scale).
    """
    y = np.asarray(y)
    amp = np.sqrt(np.asarray(full_scale_w, dtype=float))
    if amp.ndim == 1 and y.ndim == 2:
        amp = amp[:, None]
    step = 2.0 * amp / (2 ** bits)
    top = amp - 0.5 * step

    out = np.empty(y.shape, dtype=complex)
    for v, rail in ((y.real, out.real), (y.imag, out.imag)):
        np.divide(v, step, out=rail)
        np.floor(rail, out=rail)
        rail += 0.5
        rail *= step
        np.clip(rail, -top, top, out=rail)
    return out


def check_saturation(power_w, threshold_w):
    """Per-antenna RF saturation flags; the boundary counts as saturated."""
    return np.asarray(power_w) >= threshold_w
