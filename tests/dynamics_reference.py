"""The half delta comb of the symmetric and response spectra, stored whole:
the reference the streamed broadening of :func:`ethlab.spectral_densities`
is checked against."""

import numpy as np

import ethlab as el
from ethlab.dynamics import _diagonal_weight, _pair_chunks


def spectral_peaks(a, spectrum, beta):
    """Half delta comb of Fsym and Resp: each pair frequency stored once.

    Returns (freqs, f_weights, rho_weights) for the pairs m < n, in
    row-major order, at w = E_n - E_m >= 0, followed by one w = 0 entry
    holding the diagonal (connected) symmetric weight: d(d-1)/2 + 1 entries
    in all. The mirrored pair (n, m) sits at -w with the same F weight and
    the opposite rho weight and is not stored. Weights satisfy
    f_w = 2*coth(beta*w/2)*rho_w exactly for w != 0.
    """
    rho = el.gibbs_weights(spectrum, beta)
    diagonal = ([0.0], [_diagonal_weight(a, rho)], [0.0])
    return tuple(np.concatenate(parts) for parts in
                 zip(*_pair_chunks(a, spectrum, rho), diagonal))
