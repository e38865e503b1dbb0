"""Dense mixed-field Ising Hamiltonian and its reflection-block gathers: the
reference the directly built blocks of :func:`ethlab.reflection_blocks` are
compared against; and the restriction of a spectrum and operator to one
reflection sector, for per-sector statistics."""

import numpy as np

import ethlab as el


def build_mixed_field_ising(params):
    """Dense real-symmetric H = sum J Z_i Z_{i+1} + sum (hx X_i + hz Z_i)."""
    n = params.n_sites
    dim = 1 << n
    states = np.arange(dim)
    shifts = n - 1 - np.arange(n)
    z = 1.0 - 2.0 * ((states[:, None] >> shifts[None, :]) & 1)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if params.boundary == "periodic":
        bonds.append((n - 1, 0))
    diag = params.hz * z.sum(axis=1)
    for i, k in bonds:
        diag = diag + params.j * z[:, i] * z[:, k]
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, diag)
    for i in range(n):
        flipped = states ^ (1 << (n - 1 - i))
        h[states, flipped] += params.hx
    return h


def reflection_block_gathers(h, r):
    """The even and odd blocks of ``h`` under the involution r, gathered from
    the dense matrix: with A = h[s, s'] and B = h[s, r(s')] over the
    representatives s <= r(s), the even block is c_s c_s' (A + B), c = 1 on
    pairs and 1/sqrt(2) on fixed points, and the odd block is A - B over the
    pairs."""
    states = np.arange(h.shape[0])
    reps = states[states <= r]
    pair = r[reps] != reps
    c = np.where(pair, 1.0, np.sqrt(0.5))
    even = h[np.ix_(reps, reps)]
    even += h[np.ix_(reps, r[reps])]
    even *= c
    even *= c[:, None]
    odd = h[np.ix_(reps[pair], reps[pair])]
    odd -= h[np.ix_(reps[pair], r[reps[pair]])]
    return even, odd


def reflection_parity(spectrum):
    """+1 or -1 per eigenvalue: the even or odd block its eigenvector came
    from, read from ``BlockEigenvectors.columns``; ``None`` for a spectrum
    without two blocks."""
    vectors = spectrum.eigenvectors
    if vectors is None or len(vectors.columns) != 2:
        return None
    parity = np.empty(spectrum.dim, dtype=np.int8)
    parity[vectors.columns[0]] = 1
    parity[vectors.columns[1]] = -1
    return parity


def restrict_to_reflection_sector(spectrum, a, parity=1):
    """Restrict a spectrum and operator to one reflection-parity sector.

    The sector is read from :func:`reflection_parity`, so the spectrum must
    come from :func:`ethlab.eigendecompose_blocks` on the two blocks of
    :func:`ethlab.reflection_blocks`; a spectrum without them is refused.
    Returns a new (EnergySpectrum, OperatorEigenbasis) pair living in the
    sector eigenbasis (identity basis, sector eigenvalues ascending).
    The restricted operator is the sector block, i.e. the reflection-even
    part of the original observable when the input couples sectors.
    """
    p = reflection_parity(spectrum)
    if p is None:
        raise el.ValidationError(
            "reflection parity unknown: diagonalize with the reflection symmetry")
    sel = np.flatnonzero(p == parity)
    if sel.size == 0:
        raise el.ValidationError("no eigenstates with the requested parity")
    sub_spec = el.EnergySpectrum(eigenvalues=spectrum.eigenvalues[sel])
    sub_op = el.OperatorEigenbasis(matrix=a.matrix[np.ix_(sel, sel)].copy())
    return sub_spec, sub_op
