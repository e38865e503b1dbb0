import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ethlab as el
from conftest import eigendecompose_dense
from ising_reference import (build_mixed_field_ising, reflection_block_gathers,
                             reflection_parity, restrict_to_reflection_sector)
from pauli_reference import build_local_observable

PAULI = {"X": np.array([[0, 1], [1, 0]], dtype=complex),
         "Y": np.array([[0, -1j], [1j, 0]]),
         "Z": np.diag([1.0, -1.0]).astype(complex),
         "I": np.eye(2, dtype=complex)}


def kron_word(spec, n_sites):
    """Reference Pauli word by identity padding, site 0 most significant."""
    letters = dict(zip(spec.sites, spec.paulis))
    op = np.ones((1, 1), dtype=complex)
    for site in range(n_sites):
        op = np.kron(op, PAULI[letters.get(site, "I")])
    return op


def ising_spectrum(**params):
    return el.eigendecompose_blocks(*el.reflection_blocks(el.SpinChainParams(**params)))


class TestBuildIsing:
    def test_zz_only_two_sites(self):
        spec = ising_spectrum(n_sites=2, j=1.0, hx=0.0, hz=0.0)
        assert np.allclose(spec.eigenvalues, [-1.0, -1.0, 1.0, 1.0])

    def test_two_free_spins(self):
        spec = ising_spectrum(n_sites=2, j=0.0, hx=1.0, hz=0.0)
        assert np.allclose(spec.eigenvalues, [-2.0, 0.0, 0.0, 2.0])

    def test_real_symmetric(self):
        _, blocks = el.reflection_blocks(el.SpinChainParams(n_sites=8))
        for block in blocks:
            assert not np.iscomplexobj(block)
            assert np.array_equal(block, block.T)

    def test_periodic_adds_bond(self):
        _, blocks = el.reflection_blocks(
            el.SpinChainParams(n_sites=4, j=1.0, hx=0.0, hz=0.0,
                               boundary="periodic"))
        # all-up state energy: 4 bonds of ZZ = +4 (open has 3); the all-up
        # state is a fixed point of the reflection, so its entry is 2 c^2 H[0, 0]
        assert next(blocks)[0, 0] == pytest.approx(4.0)

    def test_site_count_guard(self, monkeypatch):
        # refused before anything of size 2^n_sites is allocated
        def must_not_run(*args):
            raise AssertionError("a 2^n_sites array was built before the size guard")

        monkeypatch.setattr(el.models, "reflection_permutation", must_not_run)
        monkeypatch.setattr(el.models, "_site_z", must_not_run)
        with pytest.raises(el.SizeError, match="dense cap 8192"):
            el.reflection_blocks(el.SpinChainParams(n_sites=14))

    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n_sites", range(2, 13))
    def test_blocks_equal_the_dense_gathers(self, n_sites, boundary):
        # corner couplings switch off one term each, and a negative hx flips
        # the sign of every off-diagonal entry
        for couplings in [{}, {"hx": 0.0}, {"j": 0.0}, {"hz": 0.0}, {"hx": -0.7}]:
            params = el.SpinChainParams(n_sites=n_sites, boundary=boundary, **couplings)
            r, blocks = el.reflection_blocks(params)
            assert np.array_equal(r, el.reflection_permutation(n_sites))
            want = reflection_block_gathers(build_mixed_field_ising(params), r)
            got = list(blocks)
            assert len(got) == 2
            for block, ref in zip(got, want):
                assert block.shape == ref.shape
                assert block.tobytes() == ref.tobytes(), couplings

    def test_chaotic_defaults_level_statistics(self, ising10):
        # uniform open chains keep spatial reflection symmetry; the r
        # statistic is chaotic within each parity sector
        spec, a = ising10["spec"], ising10["a"]
        sub_spec, _ = restrict_to_reflection_sector(spec, a, parity=1)
        r = el.spacing_ratio_mean(sub_spec.eigenvalues)
        assert abs(r - 0.53) <= 0.03


class TestLocalObservable:
    def test_z_site0(self):
        op = build_local_observable(
            el.LocalObservableSpec(sites=(0,), paulis="Z"), 2)
        assert np.allclose(op, np.diag([1.0, 1.0, -1.0, -1.0]))

    def test_x_site1_swaps_low_bit(self):
        op = build_local_observable(
            el.LocalObservableSpec(sites=(1,), paulis="X"), 2)
        perm = np.zeros((4, 4))
        perm[[1, 0, 3, 2], [0, 1, 2, 3]] = 1.0
        assert np.allclose(op, perm)

    def test_zz_word_norm_and_trace(self):
        op = build_local_observable(
            el.LocalObservableSpec(sites=(0, 1), paulis="ZZ"), 10)
        assert np.trace(op) == 0.0
        assert np.linalg.norm(op, 2) == pytest.approx(1.0)

    def test_out_of_range_site(self):
        with pytest.raises(el.ValidationError):
            build_local_observable(
                el.LocalObservableSpec(sites=(5,), paulis="X"), 4)

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.sampled_from("XYZ"), min_size=1, max_size=3),
           st.integers(min_value=0, max_value=3))
    def test_pauli_words_square_to_identity(self, letters, start):
        n = 6
        sites = tuple(range(start, start + len(letters)))
        op = build_local_observable(
            el.LocalObservableSpec(sites=sites, paulis="".join(letters)), n)
        assert np.allclose(op @ op, np.eye(2**n))
        assert abs(np.trace(op)) < 1e-12

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.sampled_from("XYZ"), min_size=1, max_size=4),
           st.permutations(range(5)))
    def test_matches_kron_product(self, letters, order):
        spec = el.LocalObservableSpec(sites=tuple(order[:len(letters)]),
                                      paulis="".join(letters))
        op = build_local_observable(spec, 5)
        want = kron_word(spec, 5)
        assert np.array_equal(op, want)
        assert np.iscomplexobj(op) == (spec.paulis.count("Y") % 2 == 1)


class TestToEigenbasis:
    # a dense operator is transformed in the test itself, as V^H op V from
    # the d x d basis V; to_eigenbasis takes Pauli words only
    def test_identity_is_exact(self, ising8):
        v = ising8["spec"].basis
        a = v.conj().T @ np.eye(256) @ v
        assert np.allclose(a, np.eye(256), atol=1e-13)

    def test_hamiltonian_diagonalizes(self, ising8):
        spec = ising8["spec"]
        v = spec.basis
        a = v.conj().T @ ising8["h"] @ v
        dev = np.abs(a - np.diag(spec.eigenvalues)).max()
        assert dev <= 1e-9 * np.abs(spec.eigenvalues).max()

    def test_frobenius_invariance_random_hermitian(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        x = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        op = x + x.conj().T
        spec = eigendecompose_dense(build_mixed_field_ising(
            el.SpinChainParams(n_sites=7)))
        v = spec.basis
        a = v.conj().T @ op @ v
        t_site = np.sum(np.abs(op) ** 2)
        t_eig = np.sum(np.abs(a) ** 2)
        assert abs(t_eig - t_site) <= 1e-10 * t_site

    def test_dimension_mismatch(self, ising8):
        with pytest.raises(el.ValidationError):
            el.to_eigenbasis(np.eye(8), ising8["spec"])

    @pytest.mark.parametrize("op", [np.eye(256), "Z", None])
    def test_refuses_anything_but_a_pauli_word(self, ising8, op):
        with pytest.raises(el.ValidationError, match="LocalObservableSpec"):
            el.to_eigenbasis(op, ising8["spec"])

    @pytest.mark.parametrize("sites,paulis", [
        ((0,), "X"), ((3,), "Y"), ((7,), "Z"), ((1, 2, 4), "XYZ"), ((2, 6), "YY")])
    def test_pauli_word_matches_dense(self, ising8, sites, paulis):
        spec = ising8["spec"]
        word = el.LocalObservableSpec(sites=sites, paulis=paulis)
        dense = build_local_observable(word, 8)
        v = spec.basis
        want = v.T @ dense @ v
        got = el.to_eigenbasis(word, spec).matrix
        assert got.dtype == want.dtype
        assert np.abs(got - want).max() <= 1e-12

    def test_pauli_word_needs_eigenvectors(self):
        spec = el.EnergySpectrum(np.arange(16.0))
        with pytest.raises(el.ValidationError):
            el.to_eigenbasis(el.LocalObservableSpec(sites=(1, 3), paulis="YX"), spec)

    @pytest.mark.parametrize("blocked", [True, False])
    @pytest.mark.parametrize("boundary", ["open", "periodic"])
    @pytest.mark.parametrize("n_sites", [6, 7, 8, 9])
    def test_blocked_transform_matches_dense(self, n_sites, boundary, blocked):
        # the dense reference is V^H P V with P from Kronecker products;
        # XYZ and YYY carry an odd number of Ys, so their A is imaginary;
        # every word is Hermitian, and so is its A, exactly
        params = el.SpinChainParams(n_sites=n_sites, boundary=boundary)
        spec = (el.eigendecompose_blocks(*el.reflection_blocks(params)) if blocked
                else eigendecompose_dense(build_mixed_field_ising(params)))
        v = spec.basis
        last = n_sites - 1
        for sites, paulis in [((0,), "X"), ((1,), "Y"), ((0,), "Z"),
                              ((0, 2, last), "XYZ"), ((1, last - 1), "YY"),
                              ((0, 1, last), "YYY")]:
            word = el.LocalObservableSpec(sites=sites, paulis=paulis)
            want = v.conj().T @ kron_word(word, n_sites) @ v
            got = el.to_eigenbasis(word, spec).matrix
            assert np.iscomplexobj(got) == (paulis.count("Y") % 2 == 1)
            assert np.abs(got - want).max() <= 1e-12, (sites, paulis)
            assert np.array_equal(got, got.conj().T), (sites, paulis)

    @pytest.mark.parametrize("n_sites", [8, 9])
    def test_reflection_even_word_has_exactly_zero_cross_blocks(self, n_sites):
        spec = ising_spectrum(n_sites=n_sites)
        word = el.LocalObservableSpec(sites=(0, n_sites - 1), paulis="ZZ")
        a = el.to_eigenbasis(word, spec).matrix
        parity = reflection_parity(spec)
        even, odd = parity == 1, parity == -1
        assert np.all(a[np.ix_(even, odd)] == 0.0)
        assert np.all(a[np.ix_(odd, even)] == 0.0)
        assert np.abs(a[np.ix_(even, even)]).max() > 0.1
        assert np.abs(a[np.ix_(odd, odd)]).max() > 0.1

    def test_pauli_word_needs_qubit_dimension(self):
        spec = el.EnergySpectrum(np.arange(12.0))
        with pytest.raises(el.ValidationError):
            el.to_eigenbasis(el.LocalObservableSpec(sites=(0,), paulis="Z"), spec)


class TestReflectionSectors:
    def test_parities_near_unit(self, ising8):
        spec = ising8["spec"]
        v = spec.basis
        r_v = v[el.reflection_permutation(8)]
        expectation = np.einsum("in,in->n", v.conj(), r_v).real
        assert np.abs(expectation - reflection_parity(spec)).max() <= 1e-12

    def test_sector_sizes(self, ising8):
        p = reflection_parity(ising8["spec"])
        # symmetric states: (2^8 + 2^4)/2 = 136
        assert (p == 1).sum() == 136 and (p == -1).sum() == 120

    def test_unknown_parity_rejected(self, ising8):
        spec = el.EnergySpectrum(ising8["spec"].eigenvalues)
        with pytest.raises(el.ValidationError):
            restrict_to_reflection_sector(spec, ising8["a"])

    def test_restricted_operator_hermitian(self, ising8):
        sub_spec, sub_a = restrict_to_reflection_sector(
            ising8["spec"], ising8["a"], parity=1)
        assert sub_spec.dim == 136
        assert sub_a.is_hermitian()
        assert np.all(np.diff(sub_spec.eigenvalues) >= 0)
