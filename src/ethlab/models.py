"""Mixed-field Ising chains and embedded Pauli-word observables.

The lattice model is H = sum_i J Z_i Z_{i+1} + sum_i (hx X_i + hz Z_i) on N
qubits in a line, with open or periodic boundary. The default couplings
(J=1, hx=0.9045, hz=0.8090) sit at a standard strongly nonintegrable point.

Bit-order convention: site 0 is the most significant qubit, i.e. basis state
index s carries the spin of site i in bit (N-1-i). This is fixed so golden
files are stable.

Note that a uniform open chain commutes with the spatial reflection
(site i -> N-1-i), so its spectrum is a superposition of two independent
sectors. Level statistics and matrix-element statistics should be computed
per sector; see :func:`restrict_to_reflection_sector`.
"""

from dataclasses import dataclass

import numpy as np

from .errors import SizeError, ValidationError
from .spectral import EnergySpectrum, OperatorEigenbasis

MAX_SITES = 13

PAULI = {
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
    "I": np.eye(2, dtype=complex),
}


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


def _site_z(n_sites):
    """z_i(s) = +-1 per basis state, shape (dim, n_sites)."""
    dim = 1 << n_sites
    states = np.arange(dim)
    shifts = n_sites - 1 - np.arange(n_sites)
    bits = (states[:, None] >> shifts[None, :]) & 1
    return 1.0 - 2.0 * bits


def build_mixed_field_ising(params):
    """Dense real-symmetric H = sum J Z_i Z_{i+1} + sum (hx X_i + hz Z_i)."""
    n = params.n_sites
    if n > MAX_SITES:
        raise SizeError(f"{n} sites exceeds dense cap of {MAX_SITES}")
    dim = 1 << n
    z = _site_z(n)
    bonds = [(i, i + 1) for i in range(n - 1)]
    if params.boundary == "periodic":
        bonds.append((n - 1, 0))
    diag = params.hz * z.sum(axis=1)
    for i, k in bonds:
        diag = diag + params.j * z[:, i] * z[:, k]
    h = np.zeros((dim, dim))
    np.fill_diagonal(h, diag)
    states = np.arange(dim)
    for i in range(n):
        flipped = states ^ (1 << (n - 1 - i))
        h[states, flipped] += params.hx
    return h


def build_local_observable(spec, n_sites):
    """Embed a Pauli word by identity padding (real when the word is real)."""
    for s in spec.sites:
        if not 0 <= s < n_sites:
            raise ValidationError(f"site {s} out of range for {n_sites} qubits")
    letters = dict(zip(spec.sites, spec.paulis))
    op = np.array([[1.0 + 0j]])
    for site in range(n_sites):
        op = np.kron(op, PAULI[letters.get(site, "I")])
    if np.abs(op.imag).max() == 0.0:
        op = op.real.copy()
    return op


def to_eigenbasis(op, spectrum):
    """Transform a site-basis operator to A_mn = V^dag op V."""
    op = np.asarray(op)
    if op.shape != (spectrum.dim, spectrum.dim):
        raise ValidationError(
            f"operator shape {op.shape} does not match spectrum dim {spectrum.dim}"
        )
    if spectrum.basis is None:
        return OperatorEigenbasis(matrix=op.copy())
    v = spectrum.basis
    return OperatorEigenbasis(matrix=v.conj().T @ op @ v)


def reflection_permutation(n_sites):
    """Index permutation of the spatial reflection site i -> n_sites-1-i."""
    dim = 1 << n_sites
    states = np.arange(dim)
    out = np.zeros(dim, dtype=np.int64)
    for i in range(n_sites):
        bit = (states >> (n_sites - 1 - i)) & 1
        out |= bit << i
    return out


def reflection_parities(spectrum, n_sites):
    """Expectation of the reflection operator in each eigenstate, near +-1.

    Values far from +-1 indicate (near-)degenerate eigenvectors that mix
    sectors; callers doing sector-resolved statistics should drop those.
    """
    if spectrum.basis is None:
        raise ValidationError("reflection parity needs an explicit eigenbasis")
    perm = reflection_permutation(n_sites)
    v = spectrum.basis
    return np.real(np.einsum("in,in->n", v.conj(), v[perm]))


def restrict_to_reflection_sector(spectrum, a, n_sites, parity=1, min_overlap=0.99):
    """Restrict a spectrum and operator to one reflection-parity sector.

    Returns a new (EnergySpectrum, OperatorEigenbasis) pair living in the
    sector eigenbasis (identity basis, sector eigenvalues ascending).
    The restricted operator is the sector block, i.e. the reflection-even
    part of the original observable when the input couples sectors.
    """
    p = reflection_parities(spectrum, n_sites)
    sel = np.where(p * parity > min_overlap)[0]
    if sel.size == 0:
        raise ValidationError("no eigenstates with the requested parity")
    sub_spec = EnergySpectrum(eigenvalues=spectrum.eigenvalues[sel], basis=None)
    sub_op = OperatorEigenbasis(matrix=a.matrix[np.ix_(sel, sel)].copy())
    return sub_spec, sub_op
