"""The synthetic ETH operator with its lower triangle mirrored at the end,
through ``tril_indices`` and a conjugate-transposed copy: the reference the
in-place mirror of :func:`ethlab.synth_eth_operator` is compared against
byte for byte."""

import numpy as np

import ethlab as el
from ethlab.synth import _stream


def synth_eth_operator_mirrored_at_end(spectrum, entropy, envelope,
                                       diagonal=None, seed=0):
    """The upper triangle drawn row by row from the (seed, m) streams, then
    the strict lower triangle set to the conjugate transpose in one step."""
    e = spectrum.eigenvalues
    d = e.size
    s_half = 0.5 * np.asarray(entropy.entropy_at(e), dtype=float)
    diag_profile = (np.zeros(d) if diagonal is None
                    else np.asarray(diagonal(e), dtype=float))
    a = np.zeros((d, d), dtype=complex)
    f_zero = float(envelope.evaluate(0.0))
    for m in range(d):
        rng = _stream(seed, m)
        a[m, m] = diag_profile[m] + np.exp(-s_half[m]) * f_zero * rng.standard_normal()
        tail = d - m - 1
        if tail == 0:
            continue
        buf = rng.standard_normal(2 * tail)
        r = (buf[0::2] + 1j * buf[1::2]) * np.sqrt(0.5)
        ebar = 0.5 * (e[m] + e[m + 1:])
        omega = np.abs(e[m] - e[m + 1:])
        amp = np.exp(-np.asarray(entropy.entropy_at(ebar), dtype=float) / 2.0)
        a[m, m + 1:] = amp * envelope.evaluate(omega) * r
    lower = np.tril_indices(d, -1)
    a[lower] = a.conj().T[lower]
    return el.OperatorEigenbasis(matrix=a)
