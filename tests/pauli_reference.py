"""Dense Pauli words: the reference the tests compare the signed-permutation
path against, and explicit operators for identity-basis spectra."""

import numpy as np

from ethlab.models import _pauli_word_action


def build_local_observable(spec, n_sites):
    """Dense Pauli word on ``n_sites`` qubits (real when the word is real).

    The matrix is filled from the word's signed-permutation form, one
    nonzero per row.
    """
    source, sign, factor = _pauli_word_action(spec, n_sites)
    op = np.zeros((source.size, source.size), dtype=float if factor == 1 else complex)
    op[np.arange(source.size), source] = factor * sign
    return op
