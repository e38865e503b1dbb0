import weakref

import numpy as np
import pytest

import ethlab as el
from conftest import eigendecompose_dense
from ising_reference import build_mixed_field_ising, reflection_parity


def gue_matrix(dim, seed):
    """Hermitian draw from the Gaussian unitary ensemble, E|H_mn|^2 = 1 off-diagonal."""
    key = np.array([seed, (1 << 63) - 1], dtype=np.uint64)
    rng = np.random.Generator(np.random.Philox(key=key))
    x = rng.standard_normal((dim, dim))
    y = rng.standard_normal((dim, dim))
    a = (x + 1j * y) * np.sqrt(0.5)
    return (a + a.conj().T) * np.sqrt(0.5)


class TestEigendecompose:
    def test_pauli_z(self):
        spec = eigendecompose_dense(np.diag([1.0, -1.0]))
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        # identity basis up to column order / phase
        assert np.allclose(np.abs(spec.basis), np.eye(2)[:, ::-1])

    def test_uniform_degenerate(self):
        c = 2.5
        spec = eigendecompose_dense(c * np.eye(16))
        assert np.allclose(spec.eigenvalues, c)
        v = spec.basis
        assert np.allclose(v.conj().T @ v, np.eye(16), atol=1e-12)

    def test_gue_reconstruction(self):
        h = gue_matrix(64, seed=7)
        spec = eigendecompose_dense(h)
        recon = spec.basis @ np.diag(spec.eigenvalues) @ spec.basis.conj().T
        rel = np.linalg.norm(recon - h) / np.linalg.norm(h)
        assert rel <= 1e-10

    def test_rejects_non_hermitian(self):
        with pytest.raises(el.ValidationError):
            eigendecompose_dense(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_rejects_non_square(self):
        with pytest.raises(el.ValidationError):
            eigendecompose_dense(np.ones((3, 4)))

    def test_real_input_gives_real_basis(self, ising8):
        assert not np.iscomplexobj(ising8["spec"].basis)

    def test_trace_preserved_by_basis_change(self, ising8):
        spec = ising8["spec"]
        rng = np.random.Generator(np.random.Philox(key=np.uint64(12)))
        x = rng.standard_normal((256, 256)) + 1j * rng.standard_normal((256, 256))
        op = x + x.conj().T
        v = spec.basis
        a = v.conj().T @ op @ v
        assert abs(np.trace(a) - np.trace(op)) <= 1e-10 * abs(np.trace(op))


class TestHermitianDeviation:
    def test_tiled_matches_dense_frobenius(self):
        # 300 is not a multiple of the 64-row tile, so edge tiles are ragged
        from ethlab.spectral import _hermitian_deviation
        rng = np.random.default_rng(11)
        m = rng.standard_normal((300, 300)) + 1j * rng.standard_normal((300, 300))
        dense = np.linalg.norm(m - m.conj().T)
        assert abs(_hermitian_deviation(m) - dense) <= 1e-12 * dense
        h = m + m.conj().T
        assert _hermitian_deviation(h) == 0.0
        assert el.OperatorEigenbasis(h).is_hermitian()
        assert not el.OperatorEigenbasis(m).is_hermitian()
        assert el.OperatorEigenbasis(np.zeros((300, 300))).is_hermitian()


class TestParityBlocks:
    @pytest.mark.parametrize("n_sites,boundary",
                             [(7, "open"), (8, "open"), (8, "periodic")])
    def test_blocked_matches_full(self, n_sites, boundary):
        # odd L has 2^((L+1)/2) palindromic states, even L 2^(L/2)
        params = el.SpinChainParams(n_sites=n_sites, boundary=boundary)
        h = build_mixed_field_ising(params)
        full = eigendecompose_dense(h)
        spec = el.eigendecompose_blocks(*el.reflection_blocks(params))
        scale = np.abs(full.eigenvalues).max()
        assert np.abs(spec.eigenvalues - full.eigenvalues).max() <= 1e-12 * scale
        v = spec.basis
        assert not np.iscomplexobj(v)
        assert np.abs(v.T @ v - np.eye(h.shape[0])).max() <= 1e-12
        assert np.abs((v * spec.eigenvalues) @ v.T - h).max() <= 1e-12
        assert len(full.eigenvectors.columns) == 1
        parity = reflection_parity(spec)
        r_v = v[el.reflection_permutation(n_sites)]
        assert np.abs(np.einsum("in,in->n", v, r_v) - parity).max() <= 1e-12
        d = 1 << n_sites
        assert (parity == 1).sum() == (d + (1 << ((n_sites + 1) // 2))) // 2

    @pytest.mark.parametrize("n_sites,boundary",
                             [(7, "open"), (8, "open"), (9, "periodic")])
    def test_basis_equals_the_scattered_blocks(self, n_sites, boundary):
        # reference: the block eigenvectors scattered into the d x d basis,
        # each pair member carrying 1/sqrt(2) of its amplitude
        params = el.SpinChainParams(n_sites=n_sites, boundary=boundary)
        h = build_mixed_field_ising(params)
        r = el.reflection_permutation(n_sites)
        spec = el.eigendecompose_blocks(*el.reflection_blocks(params))
        states = np.arange(h.shape[0])
        reps = states[states <= r]
        pair = r[reps] != reps
        c = np.where(pair, 1.0, np.sqrt(0.5))
        even = (h[np.ix_(reps, reps)] + h[np.ix_(reps, r[reps])]) * c * c[:, None]
        odd = (h[np.ix_(reps, reps)] - h[np.ix_(reps, r[reps])])[np.ix_(pair, pair)]
        e_even, u_even = np.linalg.eigh(even)
        e_odd, u_odd = np.linalg.eigh(odd)
        order = np.argsort(np.concatenate([e_even, e_odd]), kind="stable")
        column = np.empty_like(order)
        column[order] = states
        even_cols, odd_cols = column[:e_even.size], column[e_even.size:]
        want = np.zeros_like(h)
        u_even *= np.where(pair, np.sqrt(0.5), 1.0)[:, None]
        want[np.ix_(reps, even_cols)] = u_even
        want[np.ix_(r[reps], even_cols)] = u_even
        u_odd *= np.sqrt(0.5)
        want[np.ix_(reps[pair], odd_cols)] = u_odd
        want[np.ix_(r[reps[pair]], odd_cols)] = -u_odd
        assert spec.basis.tobytes() == want.tobytes()
        assert eigendecompose_dense(h).basis.tobytes() == np.linalg.eigh(h)[1].tobytes()

    @pytest.mark.parametrize("symmetry", [
        np.roll(np.arange(128), 1),         # a permutation, not an involution
        np.arange(64),                      # wrong length
        np.arange(128) ^ 1,                 # involution with other sector sizes
    ])
    def test_rejects_bad_symmetry(self, symmetry):
        # the L=7 reflection blocks are 72 x 72 and 56 x 56
        _, blocks = el.reflection_blocks(el.SpinChainParams(n_sites=7))
        with pytest.raises(el.ValidationError):
            el.eigendecompose_blocks(symmetry, blocks)

    @pytest.mark.parametrize("blocks", [1, 3])
    def test_rejects_a_wrong_block_count(self, blocks):
        r, (even, odd) = el.reflection_blocks(el.SpinChainParams(n_sites=5))
        with pytest.raises(el.ValidationError, match="blocks"):
            el.eigendecompose_blocks(r, [even, odd, odd][:blocks])

    def test_rejects_a_non_hermitian_block(self):
        r, (even, odd) = el.reflection_blocks(el.SpinChainParams(n_sites=5))
        odd[0, 1] += 1.0
        with pytest.raises(el.ValidationError, match="block 1 is not Hermitian"):
            el.eigendecompose_blocks(r, [even, odd])

    def test_one_block_alive_at_a_time(self, monkeypatch):
        # the odd block is built only after the even eigh has returned and
        # the even block is gone, so the memory peak holds one block
        events, refs = [], []
        eigh = el.spectral._eigh

        def logged_eigh(h):
            events.append(("eigh", h.shape[0]))
            return eigh(h)

        r, blocks = el.reflection_blocks(el.SpinChainParams(n_sites=7))

        def logged_blocks():
            for _ in range(2):
                block = next(blocks)
                # the third entry: is the block built before still alive
                events.append(("block", block.shape[0],
                               bool(refs) and refs[-1]() is not None))
                refs.append(weakref.ref(block))
                yield block
                del block

        monkeypatch.setattr(el.spectral, "_eigh", logged_eigh)
        el.eigendecompose_blocks(r, logged_blocks())
        assert events == [("block", 72, False), ("eigh", 72),
                          ("block", 56, False), ("eigh", 56)]


class TestEntropyModel:
    def test_flat_spectrum_level_count(self):
        e = np.linspace(0.0, 1.0, 1000)
        spec = el.EnergySpectrum(eigenvalues=e)
        ent = el.entropy_model(spec, sigma_s=0.05)
        assert abs(ent.entropy_at(0.5) - np.log(1000)) <= 0.1

    def test_gaussian_dos_beta_crosses_zero_at_peak(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=4096, dos_shape="gaussian", bandwidth=4.0, seed=3))
        ent = el.entropy_model(spec)
        peak = ent.grid_energies[np.argmax(ent.grid_entropy)]
        assert abs(ent.beta_at(peak)) < 0.3
        lo, hi = np.quantile(spec.eigenvalues, [0.25, 0.75])
        assert ent.beta_at(lo) > ent.beta_at(peak) > ent.beta_at(hi)

    def test_beta_monotone_on_noise_free_gaussian(self):
        # deterministic quantile levels isolate the estimator from sampling
        # noise; beta must then decrease strictly through the bulk
        from scipy.stats import norm
        d = 4096
        e = norm.ppf((np.arange(d) + 0.5) / d)
        ent = el.entropy_model(el.EnergySpectrum(e))
        lo, hi = np.quantile(e, [0.25, 0.75])
        probes = np.linspace(lo, hi, 15)
        assert np.all(np.diff(ent.beta_at(probes)) < 0)

    def test_density_matches_window_count(self, ising10):
        spec = ising10["spec"]
        ent = el.entropy_model(spec)
        center = ent.grid_energies[np.argmax(ent.grid_entropy)]
        half = 0.05 * spec.bandwidth
        w = el.microcanonical_window(spec, center, half)
        predicted = np.exp(ent.entropy_at(center)) * 2 * half
        assert predicted / 2 <= w.size <= predicted * 2

    def test_interleaved_union_raises_entropy_by_log2(self):
        e = np.sort(np.random.Generator(
            np.random.Philox(key=np.uint64(5))).random(2000))
        shift = 0.25 * float(np.diff(e).mean())
        union = np.sort(np.concatenate([e, e + shift]))
        s1 = el.entropy_model(el.EnergySpectrum(e), sigma_s=0.05)
        s2 = el.entropy_model(el.EnergySpectrum(union), sigma_s=0.05)
        probe = np.linspace(0.3, 0.7, 9)
        gain = s2.entropy_at(probe) - s1.entropy_at(probe)
        assert np.all(np.abs(gain - np.log(2)) < 0.05)

    def test_rejects_narrow_bandwidth(self):
        e = np.linspace(0.0, 1.0, 100)
        spec = el.EnergySpectrum(eigenvalues=e)
        with pytest.raises(el.ValidationError):
            el.entropy_model(spec, sigma_s=0.01)
        # with 2 and 3 levels the central spacing is 1 and 2, the latter
        # above the mean 1.5 over all levels
        for e, spacing in (([0.0, 1.0], 1.0), ([0.0, 1.0, 3.0], 2.0)):
            with pytest.raises(el.ValidationError, match=rf"\({3 * spacing:g}\)"):
                el.entropy_model(el.EnergySpectrum(np.array(e)), sigma_s=2.9 * spacing)

    def test_bytes_equal_the_chunked_kernel_sum(self):
        # d = 3000 levels take two chunks of 2**22 // 2049 = 2047 columns; the
        # density is summed chunk by chunk in this order, so that entropy.csv
        # keeps its bytes
        e = np.sort(np.random.Generator(
            np.random.Philox(key=np.uint64(9))).standard_normal(3000))
        ent = el.entropy_model(el.EnergySpectrum(e))
        sigma = 0.02 * float(e[-1] - e[0])
        grid = np.linspace(e[0] - 2 * sigma, e[-1] + 2 * sigma, 2049)
        density = np.zeros_like(grid)
        for start in (0, 2047):
            z = grid[:, None] - e[None, start:start + 2047]
            z /= sigma
            z *= z
            z *= -0.5
            density += (1.0 / (np.sqrt(2 * np.pi) * sigma)) * np.exp(z, out=z).sum(axis=1)
        s = np.log(np.maximum(density, 1e-300))
        assert ent.grid_energies.tobytes() == grid.tobytes()
        assert ent.grid_entropy.tobytes() == s.tobytes()
        assert ent.grid_beta.tobytes() == np.gradient(s, grid).tobytes()

    def test_constant_model(self):
        ent = el.EntropyModel.constant(3.0, 0.0, 1.0)
        assert ent.entropy_at(0.37) == pytest.approx(3.0)
        assert ent.beta_at(0.5) == pytest.approx(0.0)


class TestMicrocanonicalWindow:
    def test_direct_membership(self):
        spec = el.EnergySpectrum(np.array([0.0, 1.0, 2.0, 3.0]))
        w = el.microcanonical_window(spec, 1.5, 0.6)
        assert list(w.indices) == [1, 2]

    def test_whole_band(self):
        spec = el.EnergySpectrum(np.array([0.0, 1.0, 2.0, 3.0]))
        w = el.microcanonical_window(spec, 1.5, 10.0)
        assert w.size == 4

    def test_empty_window_raises(self):
        spec = el.EnergySpectrum(np.array([0.0, 1.0, 2.0, 3.0]))
        with pytest.raises(el.EmptyWindowError):
            el.microcanonical_window(spec, 0.5, 0.2)

    def test_nonpositive_width_rejected(self):
        spec = el.EnergySpectrum(np.array([0.0, 1.0]))
        with pytest.raises(el.ValidationError):
            el.microcanonical_window(spec, 0.5, 0.0)


class TestSpacingRatio:
    def test_poisson_reference(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(21)))
        e = np.sort(rng.random(20000))
        r = el.spacing_ratio_mean(e)
        assert abs(r - 0.386) < 0.02

    def test_goe_reference(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(22)))
        x = rng.standard_normal((2000, 2000))
        h = (x + x.T) / 2
        e = np.linalg.eigvalsh(h)
        r = el.spacing_ratio_mean(e)
        assert abs(r - 0.5307) < 0.02
