"""Mixed-field Ising chains and embedded Pauli-word observables.

The lattice model is H = sum_i J Z_i Z_{i+1} + sum_i (hx X_i + hz Z_i) on N
qubits in a line, with open or periodic boundary. The default couplings
(J=1, hx=0.9045, hz=0.8090) sit at a standard strongly nonintegrable point.

Bit-order convention: site 0 is the most significant qubit, i.e. basis state
index s carries the spin of site i in bit (N-1-i). This is fixed so golden
files are stable.

A uniform chain, open or periodic, commutes with the spatial reflection
(site i -> N-1-i), so its spectrum is a superposition of two independent
sectors. :func:`reflection_blocks` writes H straight into its blocks in the
parity-adapted basis of :func:`ethlab.spectral.parity_layout`, from the
chain's bit structure, in O(d L) besides the blocks themselves, so no d x d
Hamiltonian is ever formed. The pipeline hands them to
:func:`ethlab.spectral.eigendecompose_blocks`, whose
``BlockEigenvectors.columns`` record each eigenstate's sector. Level
statistics and matrix-element statistics should be computed per sector.

A Pauli word is applied as a signed permutation of the basis states (a bit
flip mask and a per-state phase). :func:`to_eigenbasis` applies it to the
block eigenvectors directly, in at most 3 d^3 / 4 flops (about 3 d^3 / 8
for Z_0) instead of the 2 d^3 of V^T (P V), and without the d x d basis V
or its gather P V.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SizeError, ValidationError
from .spectral import MAX_DENSE_DIM, OperatorEigenbasis, parity_layout


@dataclass(frozen=True)
class SpinChainParams:
    n_sites: int
    j: float = 1.0
    hx: float = 0.9045
    hz: float = 0.8090
    boundary: str = "open"

    def __post_init__(self):
        if self.n_sites < 2:
            raise ValidationError("need at least 2 sites")
        if self.boundary not in ("open", "periodic"):
            raise ValidationError(f"unknown boundary {self.boundary!r}")


@dataclass(frozen=True)
class LocalObservableSpec:
    """A Pauli word on a set of sites."""

    sites: tuple
    paulis: str

    def __post_init__(self):
        sites = tuple(int(s) for s in self.sites)
        object.__setattr__(self, "sites", sites)
        if len(sites) != len(self.paulis):
            raise ValidationError("one Pauli letter per supported site required")
        if len(set(sites)) != len(sites):
            raise ValidationError("duplicate site in support")
        if any(p not in "XYZ" for p in self.paulis):
            raise ValidationError("Pauli letters must be X, Y or Z")


def _site_z(states, n_sites):
    """z_i(s) = +-1 per basis state s in ``states``, shape (states.size, n_sites)."""
    shifts = n_sites - 1 - np.arange(n_sites)
    bits = (states[:, None] >> shifts[None, :]) & 1
    return 1.0 - 2.0 * bits


def _diagonal_energies(params, states):
    """<s|H|s> = sum J z_i z_k + hz sum z_i for each basis state s in ``states``."""
    n = params.n_sites
    z = _site_z(states, n)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if params.boundary == "periodic":
        bonds.append((n - 1, 0))
    diag = params.hz * z.sum(axis=1)
    for i, k in bonds:
        diag = diag + params.j * z[:, i] * z[:, k]
    return diag


def reflection_blocks(params):
    """The chain's reflection r and its two parity blocks of H, built from the chain.

    Returns ``(r, blocks)``, the arguments of
    :func:`ethlab.spectral.eigendecompose_blocks`. ``blocks`` yields the even
    block and then the odd one of :func:`ethlab.spectral.parity_layout`, each
    built only when it is asked for, so one block is alive at a time and no
    d x d H is ever formed. With c = 1 on a pair s < r(s) and 1/sqrt(2) on a
    fixed point s = r(s), the even block over the representatives is
    c_s c_s' (H[s, s'] + H[s, r(s')]), and the odd block over the pairs is
    H[s, s'] - H[s, r(s')]. The diagonal holds the ZZ and Z energies, doubled
    on a fixed point (no X term joins s to r(s), which differ in an even
    number of bits). Each X_i takes s to t = s ^ bit_i with weight hx,
    landing in the row of t's representative: twice on a fixed point, where
    both terms are t, and signed by the sign of t's coefficient. Every entry
    is bit-identical to the same sums over the dense H. Chains above the
    dense cap raise :class:`SizeError` before anything of size 2^n_sites is
    allocated.
    """
    n = params.n_sites
    if n > MAX_DENSE_DIM.bit_length() - 1:
        raise SizeError(
            f"{n} sites: dimension 2^{n} exceeds dense cap {MAX_DENSE_DIM}")
    r = reflection_permutation(n)
    return r, (_reflection_block(params, r, k) for k in (0, 1))


def _reflection_block(params, r, k):
    """Block k (0 even, 1 odd) of H under the reflection r; see :func:`reflection_blocks`."""
    reps, column, coef = parity_layout(r, k)
    fixed = r[reps] == reps
    # per basis state: the weight of an X flip onto it, which lands in the
    # column of its representative (-1 outside the block)
    weight = params.hx * np.sign(coef)
    weight[r == np.arange(r.size)] *= 2.0
    block = np.zeros((reps.size, reps.size))
    rows = np.arange(reps.size)
    # H[s, s] +- H[s, r(s)], whose second term is 0.0 on a pair, as in the dense sum
    diag = _diagonal_energies(params, reps)
    block[rows, rows] = diag + (-1.0 if k else 1.0) * np.where(fixed, diag, 0.0)
    for i in range(params.n_sites):
        t = reps ^ (1 << (params.n_sites - 1 - i))
        on = column[t] >= 0
        block[rows[on], column[t[on]]] += weight[t[on]]
    # times c_s', then c_s; c = 1 on a pair leaves its entries as they are
    block[:, fixed] *= np.sqrt(0.5)
    block[fixed] *= np.sqrt(0.5)
    return block


def _pauli_word_action(spec, n_sites):
    """Signed-permutation form of a Pauli word: (P v)[s] = factor * sign[s] * v[source[s]].

    X and Y flip their site's bit, so source = s ^ flip. Z and Y contribute
    (-1)^bit of the source state and each Y a factor i, so i^(#Y) is split
    into the real (-1)^(#Y // 2), folded into ``sign``, and ``factor``, which
    is 1j for an odd number of Ys and 1 otherwise.
    """
    for s in spec.sites:
        if not 0 <= s < n_sites:
            raise ValidationError(f"site {s} out of range for {n_sites} qubits")
    states = np.arange(1 << n_sites)
    flip = sum(1 << (n_sites - 1 - s) for s, p in zip(spec.sites, spec.paulis)
               if p != "Z")
    source = states ^ flip
    parity = np.zeros_like(states)
    for s, p in zip(spec.sites, spec.paulis):
        if p != "X":
            parity ^= (source >> (n_sites - 1 - s)) & 1
    n_y = spec.paulis.count("Y")
    sign = (1.0 - 2.0 * parity) * (-1) ** (n_y // 2)
    return source, sign, 1j if n_y % 2 else 1


def to_eigenbasis(op, spectrum):
    """Transform a Pauli word to A_mn = V^dag op V.

    ``op`` is a :class:`LocalObservableSpec` on log2(dim) qubits; anything
    else is refused. The word is a signed permutation, applied block by
    block to the spectrum's eigenvectors (:meth:`ethlab.spectral.
    BlockEigenvectors.signed_permutation_elements`), so neither a d x d
    operator nor a d x d eigenvector matrix is built; it needs a spectrum
    with eigenvectors.
    """
    if not isinstance(op, LocalObservableSpec):
        raise ValidationError(
            f"to_eigenbasis takes a LocalObservableSpec, got {type(op).__name__}")
    n_sites = spectrum.dim.bit_length() - 1
    if spectrum.dim != 1 << n_sites:
        raise ValidationError(
            f"a Pauli word needs a power-of-two dimension, got {spectrum.dim}")
    if spectrum.eigenvectors is None:
        raise ValidationError("a Pauli word needs a spectrum with eigenvectors")
    source, sign, factor = _pauli_word_action(op, n_sites)
    a = spectrum.eigenvectors.signed_permutation_elements(source, sign, factor)
    return OperatorEigenbasis(matrix=a)


def reflection_permutation(n_sites):
    """Index permutation of the spatial reflection site i -> n_sites-1-i."""
    dim = 1 << n_sites
    states = np.arange(dim)
    out = np.zeros(dim, dtype=np.int64)
    for i in range(n_sites):
        bit = (states >> (n_sites - 1 - i)) & 1
        out |= bit << i
    return out
