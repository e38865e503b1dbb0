"""Synthetic spectra and operators with prescribed energy-basis statistics.

Operators are generated directly in their eigenbasis from the standard
matrix-element ansatz

    A_mn = O(Ebar) delta_mn + exp(-S(Ebar)/2) f(Ebar, w) R_mn

with Ebar = (E_m + E_n)/2 and w = E_m - E_n. The noise R is Hermitian with
complex off-diagonal entries of unit total variance (variance 1/2 per real
component) and real unit-variance diagonal entries, so mean|R_mn|^2 = 1.

Reproducibility contract: all draws come from Philox4x64 counter-based
streams. Row m of an operator uses the stream keyed (seed, m) and draws, in
order, one standard normal for the diagonal, then interleaved (re, im) pairs
for columns n > m. The spectrum uses the stream keyed (seed, 2**63). Results
are therefore identical across platforms and independent of evaluation
schedule, and the scheme is part of the fixture file-format contract.

The lower triangle is the conjugate mirror of the upper one, written in
place, column m as row m is drawn: the same bytes as mirroring the whole
upper triangle at the end, without a second operator-sized array.
"""

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import SizeError, ValidationError
from .spectral import MAX_DENSE_DIM, EnergySpectrum, OperatorEigenbasis

_SPECTRUM_STREAM = np.uint64(1) << np.uint64(63)

DOS_SHAPES = ("gaussian", "semicircle", "flat")
ENVELOPE_FORMS = ("exp_decay", "constant", "table")


def _stream(seed, tag):
    key = np.array([np.uint64(seed), np.uint64(tag)], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class SynthSpectrumParams:
    dim: int
    dos_shape: str = "gaussian"
    bandwidth: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.dim < 16:
            raise ValidationError("synthetic spectra need dim >= 16")
        if self.dim > MAX_DENSE_DIM:    # synth_eth_operator allocates dim^2 complex
            raise SizeError(f"dimension {self.dim} exceeds dense cap {MAX_DENSE_DIM}")
        if self.dos_shape not in DOS_SHAPES:
            raise ValidationError(f"unknown dos_shape {self.dos_shape!r}")
        if self.bandwidth <= 0:
            raise ValidationError("bandwidth must be positive")


def synth_spectrum(params):
    """Sorted eigenvalue draws from the chosen density of states.

    Bandwidth semantics: flat is uniform on [0, bandwidth); semicircle has
    diameter bandwidth centered at 0; gaussian has standard deviation
    bandwidth/4. The basis is the identity (None): synthetic operators live
    natively in this eigenbasis.
    """
    rng = _stream(params.seed, _SPECTRUM_STREAM)
    d, w = params.dim, params.bandwidth
    if params.dos_shape == "flat":
        e = rng.random(d) * w
    elif params.dos_shape == "gaussian":
        e = rng.standard_normal(d) * (w / 4.0)
    else:
        e = (rng.beta(1.5, 1.5, size=d) - 0.5) * w
    e.sort()
    return EnergySpectrum(eigenvalues=e)


@dataclass(frozen=True)
class EnvelopeSpec:
    """Spectral envelope f(E, w), real and even in w.

    ``exp_decay`` is f0 * exp(-gamma * |w|); ``constant`` is f0; ``table``
    interpolates (|w|, value) knots linearly, clamping outside the knot
    range. No E dependence is modeled.
    """

    form: str = "exp_decay"
    gamma: float = 0.25
    f0: float = 1.0
    table: tuple = field(default=None)

    def __post_init__(self):
        if self.form not in ENVELOPE_FORMS:
            raise ValidationError(f"unknown envelope form {self.form!r}")
        if self.gamma < 0:
            raise ValidationError("gamma must be nonnegative")
        if self.form == "table":
            try:    # None, a number, not two sequences, an int beyond the floats
                omegas, values = (tuple(k) for k in self.table)
                valid = len(omegas) == len(values) >= 2 and all(
                    isinstance(x, numbers.Real) and not isinstance(x, bool)
                    and math.isfinite(x) for x in omegas + values)
            except (TypeError, ValueError, OverflowError):
                valid = False
            if not valid:
                raise ValidationError("table needs two equal-length sequences of >= 2 "
                                      "finite numbers, the |w| knots and their values")
            omegas, values = tuple(map(float, omegas)), tuple(map(float, values))
            if any(x < 0 for x in omegas) or any(b <= a for a, b in zip(omegas, omegas[1:])):
                raise ValidationError(
                    "table knots must be nonnegative, strictly increasing |w|"
                )
            object.__setattr__(self, "table", (omegas, values))

    def evaluate(self, abs_omega):
        """Envelope value at |w| (arrays welcome)."""
        w = np.abs(np.asarray(abs_omega, dtype=float))
        if self.form == "constant":
            return np.full_like(w, self.f0)
        if self.form == "exp_decay":
            return self.f0 * np.exp(-self.gamma * w)
        omegas, values = self.table
        return np.interp(w, omegas, values)


def synth_eth_operator(spectrum, entropy, envelope, diagonal=None, seed=0):
    """Generate a Hermitian operator from the matrix-element ansatz.

    ``diagonal`` is a callable O(Ebar) for the smooth diagonal profile
    (None means zero). Hermiticity is exact by construction: only the upper
    triangle is drawn, and each row's conjugate is written in place into
    the column below its diagonal as the row is drawn, so no second
    operator-sized array exists.
    """
    if not isinstance(envelope, EnvelopeSpec):
        raise ValidationError("envelope must be an EnvelopeSpec")
    e = spectrum.eigenvalues
    d = e.size
    s_half = 0.5 * np.asarray(entropy.entropy_at(e), dtype=float)
    if diagonal is not None:
        diag_profile = np.asarray(diagonal(e), dtype=float)
    else:
        diag_profile = np.zeros(d)
    a = np.zeros((d, d), dtype=complex)
    f_zero = float(envelope.evaluate(0.0))
    root_half = np.sqrt(0.5)
    for m in range(d):
        rng = _stream(seed, m)
        g = rng.standard_normal()
        a[m, m] = diag_profile[m] + np.exp(-s_half[m]) * f_zero * g
        tail = d - m - 1
        if tail == 0:
            continue
        buf = rng.standard_normal(2 * tail)
        r = (buf[0::2] + 1j * buf[1::2]) * root_half
        ebar = 0.5 * (e[m] + e[m + 1:])
        omega = np.abs(e[m] - e[m + 1:])
        amp = np.exp(-np.asarray(entropy.entropy_at(ebar), dtype=float) / 2.0)
        a[m, m + 1:] = amp * envelope.evaluate(omega) * r
        a[m + 1:, m] = a[m, m + 1:].conj()
    return OperatorEigenbasis(matrix=a)
