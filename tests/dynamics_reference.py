"""Dense references for the pair measure of :func:`ethlab.pair_measure`:
the half delta comb of the symmetric and response spectra, stored whole,
and the two-point correlators summed over every pair of the whole matrix."""

import numpy as np

import ethlab as el


def spectral_peaks(a, spectrum, beta):
    """Half delta comb of Fsym and Resp: each pair frequency stored once.

    Returns (freqs, f_weights, rho_weights) for the pairs m < n, in
    row-major order, at w = E_n - E_m >= 0, followed by one w = 0 entry
    holding the diagonal (connected) symmetric weight: d(d-1)/2 + 1 entries
    in all. The mirrored pair (n, m) sits at -w with the same F weight and
    the opposite rho weight and is not stored. Weights satisfy
    f_w = 2*coth(beta*w/2)*rho_w exactly for w != 0.
    """
    e = spectrum.eigenvalues
    rho = el.gibbs_weights(spectrum, beta)
    diag = np.real(np.diagonal(a.matrix))
    parts = [((e - e[rows, None])[upper],
              0.5 * (rho[rows, None] + rho)[upper] * a2,
              0.25 * (rho[rows, None] - rho)[upper] * a2)
             for rows, upper, a2 in a.upper_pairs()]
    parts.append(([0.0], [np.dot(rho, diag**2) - np.dot(rho, diag) ** 2], [0.0]))
    return tuple(np.concatenate(column) for column in zip(*parts))


def dense_correlators(a, spectrum, beta, times):
    """(F2, Fsym, Resp) values as Lehmann sums over every pair (m, n) of
    the whole |A|^2: sum_mn left_m right_n |A_mn|^2 exp(i (E_m - E_n) t)
    with (left, right) = (rho^(1/2), rho^(1/2)) for F2 and (rho, 1) for
    <A(t) A>, whose real part less <A>^2 is Fsym and twice whose imaginary
    part, times i, is Resp."""
    e = spectrum.eigenvalues
    rho = el.gibbs_weights(spectrum, beta)
    abs2 = np.abs(a.matrix) ** 2
    v = np.exp(1j * np.outer(e, times))

    def lehmann(left, right):
        return np.einsum("mt,mn,nt->t", left[:, None] * v, abs2,
                         right[:, None] * v.conj())

    c = lehmann(rho, np.ones_like(rho))
    mean = rho @ np.real(np.diagonal(a.matrix))
    return lehmann(np.sqrt(rho), np.sqrt(rho)), c.real - mean**2, 2j * c.imag
