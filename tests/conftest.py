import numpy as np
import pytest

import ethlab as el
from ising_reference import build_mixed_field_ising
from pauli_reference import build_local_observable


def eigendecompose_dense(h):
    """Diagonalize a dense Hermitian matrix: the one block of the identity
    symmetry, the one path every ``eigh`` takes."""
    h = np.asarray(h)
    return el.eigendecompose_blocks(np.arange(h.shape[0]), [h])


def correlators(a, spectrum, beta, times):
    """(F2, Fsym, Resp) from the pair measure of the widest width that
    serves ``times`` and the default sigma_omega of 0.05."""
    times = np.asarray(times, dtype=float)
    width = el.measure_width(0.05, np.abs(times).max(initial=0.0))
    return el.pair_measure(a, spectrum, beta, width).thermal_correlators(times)


def densities(a, spectrum, beta, sigma_omega, omegas):
    """The spectral densities from the pair measure of width sigma_omega/16."""
    width = el.measure_width(sigma_omega, 0.0)
    return el.pair_measure(a, spectrum, beta, width).spectral_densities(
        sigma_omega, omegas)


def _ising_chain(n_sites):
    """The pipeline's path: the reflection blocks built from the chain and
    diagonalized one by one, Z_0 applied as a Pauli word."""
    spec = el.eigendecompose_blocks(*el.reflection_blocks(el.SpinChainParams(n_sites=n_sites)))
    z0 = el.LocalObservableSpec(sites=(0,), paulis="Z")
    a = el.to_eigenbasis(z0, spec)
    return {"spec": spec, "z0": build_local_observable(z0, n_sites), "a": a}


@pytest.fixture(scope="session")
def ising8():
    """L=8 chain at the chaotic defaults with the site-0 Z observable, and
    its dense H from the tests' reference builder."""
    return dict(_ising_chain(8), h=build_mixed_field_ising(el.SpinChainParams(n_sites=8)))


@pytest.fixture(scope="session")
def ising9():
    """L=9 chain (d=512): its OTOC spans sixteen row blocks."""
    return _ising_chain(9)


@pytest.fixture(scope="session")
def ising10():
    return _ising_chain(10)


@pytest.fixture(scope="session")
def synth2000():
    """Flat-spectrum synthetic operator, S = log(D), decay rate 0.25."""
    spec = el.synth_spectrum(el.SynthSpectrumParams(
        dim=2000, dos_shape="flat", bandwidth=4.0, seed=11))
    ent = el.EntropyModel.constant(np.log(2000), spec.eigenvalues[0],
                                   spec.eigenvalues[-1])
    env = el.EnvelopeSpec(form="exp_decay", gamma=0.25, f0=1.0)
    op = el.synth_eth_operator(spec, ent, env, seed=42)
    return {"spec": spec, "entropy": ent, "envelope": env, "op": op}
