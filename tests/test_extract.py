import numpy as np
import pytest
import scipy.stats

import ethlab as el
from ethlab.extract import _moments


def profile_by_grid_point(a, spectrum, bandwidth):
    """The diagonal profile one grid point at a time, each with its own
    kernel row: the reference for the one kernel matrix."""
    e = spectrum.eigenvalues
    diag = np.real(np.diagonal(a.matrix)).astype(float)
    grid = np.linspace(e[0], e[-1], 201)
    values, scatter = np.empty_like(grid), np.empty_like(grid)
    for i, g in enumerate(grid):
        w = np.exp(-0.5 * ((e - g) / bandwidth) ** 2)
        total = w.sum()
        values[i] = np.dot(w, diag) / total
        scatter[i] = np.sqrt(max(np.dot(w, (diag - values[i]) ** 2) / total, 0.0))
    return grid, values, scatter


class TestDiagonalProfile:
    @pytest.mark.parametrize("case", ["ising8", "tanh"])
    def test_kernel_matrix_matches_the_loop(self, ising8, case):
        if case == "ising8":
            a, spec = ising8["a"], ising8["spec"]
            bandwidth = 0.02 * spec.bandwidth
        else:
            spec = el.synth_spectrum(el.SynthSpectrumParams(
                dim=2000, dos_shape="flat", bandwidth=4.0, seed=6))
            ent = el.EntropyModel.constant(np.log(2000), 0, 4)
            a = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=0.25),
                                      diagonal=np.tanh, seed=17)
            bandwidth = 0.08
        prof = el.diagonal_profile(a, spec, bandwidth=None if case == "ising8" else bandwidth)
        grid, values, scatter = profile_by_grid_point(a, spec, bandwidth)
        assert np.array_equal(prof.energies, grid)
        for got, want in ((prof.values, values), (prof.scatter, scatter)):
            assert np.abs(got - want).max() <= 1e-13 * np.abs(want).max()

    def test_identity_operator(self, ising8):
        a = el.OperatorEigenbasis(matrix=np.eye(256))
        prof = el.diagonal_profile(a, ising8["spec"])
        assert np.allclose(prof.values, 1.0)
        assert np.allclose(prof.scatter, 0.0, atol=1e-12)

    def test_tanh_profile_roundtrip(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=2000, dos_shape="flat", bandwidth=4.0, seed=6))
        ent = el.EntropyModel.constant(np.log(2000), 0, 4)
        op = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=0.25),
                                   diagonal=lambda e: np.tanh(e), seed=17)
        prof = el.diagonal_profile(op, spec, bandwidth=0.08)
        bulk = (prof.energies > np.quantile(spec.eigenvalues, 0.2)) & \
               (prof.energies < np.quantile(spec.eigenvalues, 0.8))
        dev = np.abs(prof.values[bulk] - np.tanh(prof.energies[bulk]))
        assert dev.max() <= 0.02

    def test_scatter_shrinks_with_system_size(self, ising8, ising10):
        # diagonal scatter scales like exp(-S/2): larger chains scatter less
        scatters = {}
        for name, data in (("L8", ising8), ("L10", ising10)):
            spec = data["spec"]
            prof = el.diagonal_profile(data["a"], spec)
            center = 0.5 * (spec.eigenvalues[0] + spec.eigenvalues[-1])
            i = np.argmin(np.abs(prof.energies - center))
            scatters[name] = prof.scatter[i]
        measured = scatters["L8"] / scatters["L10"]
        ents = {}
        for name, data in (("L8", ising8), ("L10", ising10)):
            spec = data["spec"]
            ent = el.entropy_model(spec)
            center = 0.5 * (spec.eigenvalues[0] + spec.eigenvalues[-1])
            ents[name] = ent.entropy_at(center)
        predicted = np.exp((ents["L10"] - ents["L8"]) / 2)
        assert predicted / 2 <= measured <= predicted * 2

    def test_narrow_bandwidth_rejected(self, ising8):
        with pytest.raises(el.ValidationError):
            el.diagonal_profile(ising8["a"], ising8["spec"], bandwidth=1e-4)

    def test_zero_bandwidth_spectrum_rejected(self):
        # its default width is 0, which used to give NaN values through 0/0
        a = el.OperatorEigenbasis(np.eye(20))
        with pytest.raises(el.ValidationError, match="zero bandwidth"):
            el.diagonal_profile(a, el.EnergySpectrum(np.zeros(20)))


class TestEnvelopeEstimate:
    def test_gamma_roundtrip(self, synth2000):
        model = el.envelope_estimate(synth2000["op"],
                                     synth2000["spec"], synth2000["entropy"])
        assert abs(model.central_gamma - 0.25) <= 0.025

    def test_constant_envelope_flat_log(self, synth2000):
        op = el.synth_eth_operator(synth2000["spec"], synth2000["entropy"],
                                   el.EnvelopeSpec(form="constant", f0=1.0),
                                   seed=301)
        model = el.envelope_estimate(op, synth2000["spec"],
                                     synth2000["entropy"])
        assert abs(model.central_gamma) <= 0.02

    def test_low_count_bins_dropped(self, synth2000):
        binn = el.BinningSpec(e_bins=8, omega_bins=48, min_count=10**9)
        model = el.envelope_estimate(synth2000["op"],
                                     synth2000["spec"], synth2000["entropy"],
                                     binn)
        assert np.all(np.isnan(model.f2))
        assert np.all(np.isnan(model.gamma))

    def test_bin_refinement_stability(self, synth2000):
        spec, ent = synth2000["spec"], synth2000["entropy"]
        a = synth2000["op"]
        coarse = el.envelope_estimate(a, spec, ent,
                                      el.BinningSpec(omega_bins=40))
        fine = el.envelope_estimate(a, spec, ent,
                                    el.BinningSpec(omega_bins=80))
        mid = len(coarse.gamma) // 2
        delta = abs(coarse.gamma[mid] - fine.gamma[mid])
        assert delta <= 2 * max(coarse.gamma_stderr[mid],
                                fine.gamma_stderr[mid]) + 1e-4

    def test_estimator_consistency_with_size(self):
        # per-bin estimate variance tracks the inverse pair count
        env = el.EnvelopeSpec(gamma=0.25)
        binn = el.BinningSpec(e_bins=4, omega_bins=24, omega_max=3.0)
        variances, counts = [], []
        for dim in (1000, 2000):
            samples = []
            for seed in range(10):
                spec = el.synth_spectrum(el.SynthSpectrumParams(
                    dim=dim, dos_shape="flat", bandwidth=4.0, seed=500 + seed))
                ent = el.EntropyModel.constant(np.log(dim), 0, 4)
                op = el.synth_eth_operator(spec, ent, env, seed=600 + seed)
                model = el.envelope_estimate(op, spec, ent, binn)
                samples.append(model.f2[2, 4])
                count = model.counts[2, 4]
            variances.append(np.var(samples))
            counts.append(count)
        measured = variances[1] / variances[0]
        expected = counts[0] / counts[1]
        assert measured <= 0.65
        assert 0.3 * expected <= measured <= 3.0 * expected


def per_pair_sample(a, spectrum, envelope, window):
    """The Gaussianity sample by per-pair lookups: Ebar and |w| digitized
    for |f|^2 (NaN off the grid), and Ebar digitized again for exp(S), over
    the window's whole submatrix; the real parts of a real operator, both
    components scaled by sqrt(2) of a complex one. Also returns which
    pairs fell on the grid."""
    idx = window.indices
    e = spectrum.eigenvalues[idx]
    m, n = np.triu_indices(idx.size, 1)
    vals = a.matrix[np.ix_(idx, idx)][m, n]
    ebar = 0.5 * (e[m] + e[n])
    i = np.digitize(ebar, envelope.e_edges) - 1
    j = np.digitize(np.abs(e[m] - e[n]), envelope.omega_edges) - 1
    ne, nw = envelope.f2.shape
    on_grid = (i >= 0) & (i < ne) & (j >= 0) & (j < nw)
    f2 = np.where(on_grid,
                  envelope.f2[np.clip(i, 0, ne - 1), np.clip(j, 0, nw - 1)],
                  np.nan)
    ok = np.isfinite(f2) & (f2 > 0)
    k = np.clip(np.digitize(ebar[ok], envelope.e_edges) - 1, 0, ne - 1)
    r_hat = vals[ok] * np.sqrt(envelope.density_boost[k]) / np.sqrt(f2[ok])
    if np.isrealobj(r_hat):
        return r_hat, on_grid
    return np.concatenate([r_hat.real, r_hat.imag]) * np.sqrt(2.0), on_grid


class TestGaussianityStats:
    @pytest.mark.parametrize("kind", ["ising8-real", "synth2000-complex"])
    def test_single_lookup_matches_per_pair_digitize(self, request, kind):
        # omega_max at half the window width leaves the widest window pairs
        # off the grid; one set of bin indices must give the very sample of
        # the per-pair lookups
        if kind == "ising8-real":
            ising8 = request.getfixturevalue("ising8")
            spec, a = ising8["spec"], ising8["a"]
            ent = el.entropy_model(spec)
            window = el.microcanonical_window(spec, 0.0, 0.1 * spec.bandwidth)
            binning = el.BinningSpec(min_count=5, omega_max=0.1 * spec.bandwidth)
        else:
            synth2000 = request.getfixturevalue("synth2000")
            spec, a, ent = synth2000["spec"], synth2000["op"], synth2000["entropy"]
            window = el.microcanonical_window(spec, 2.0, 0.5)
            binning = el.BinningSpec(omega_max=0.5)
        assert np.isrealobj(a.matrix) == (kind == "ising8-real")
        env = el.envelope_estimate(a, spec, ent, binning)
        sample, on_grid = per_pair_sample(a, spec, env, window)
        assert on_grid.any() and not on_grid.all()
        assert el.gaussianity_stats(a, spec, env, window) == _moments(sample)

    def test_purely_imaginary_operator_samples_its_imaginary_parts(self):
        # X_1 Y_4 on the L=7 chain is i times a real antisymmetric matrix:
        # its real parts are exactly zero and carry no data, so the sample
        # is the imaginary parts alone, unscaled, as for the real operator
        # with those values
        spec = el.eigendecompose_blocks(*el.reflection_blocks(
            el.SpinChainParams(n_sites=7)))
        a = el.to_eigenbasis(el.LocalObservableSpec(sites=(1, 4), paulis="XY"),
                             spec)
        assert np.all(a.matrix.real == 0) and np.abs(a.matrix.imag).max() > 0
        ent = el.entropy_model(spec)
        env = el.envelope_estimate(a, spec, ent)
        window = el.microcanonical_window(spec, 0.0, 0.2 * spec.bandwidth)
        imaginary = el.gaussianity_stats(a, spec, env, window)
        skew = el.OperatorEigenbasis(matrix=np.ascontiguousarray(a.matrix.imag))
        real = el.gaussianity_stats(skew, spec, env, window)
        assert imaginary.sample_size == real.sample_size
        for name in ("mean", "variance", "skewness", "excess_kurtosis"):
            assert getattr(imaginary, name) == pytest.approx(
                getattr(real, name), rel=1e-12, abs=1e-15)

    def test_synthetic_roundtrip(self, synth2000):
        spec, ent = synth2000["spec"], synth2000["entropy"]
        model = el.envelope_estimate(synth2000["op"], spec, ent)
        w = el.microcanonical_window(spec, 2.0, 0.5)
        gs = el.gaussianity_stats(synth2000["op"], spec, model, w)
        sigma_mean = 1.0 / np.sqrt(gs.sample_size)
        assert abs(gs.mean) <= 3 * sigma_mean
        assert abs(gs.variance - 1.0) <= 0.05
        assert abs(gs.excess_kurtosis) <= 0.2
        assert not gs.low_power

    def test_diagonal_only_matrix_raises(self, synth2000):
        spec, ent = synth2000["spec"], synth2000["entropy"]
        model = el.envelope_estimate(synth2000["op"], spec, ent)
        diag = el.OperatorEigenbasis(matrix=np.diag(spec.eigenvalues))
        w = el.microcanonical_window(spec, 2.0, 0.5)
        with pytest.raises(el.ValidationError):
            # off-diagonals are exactly zero: degenerate sample
            el.gaussianity_stats(diag, spec, model, w)

    def test_single_state_window_raises(self, synth2000):
        spec, ent = synth2000["spec"], synth2000["entropy"]
        model = el.envelope_estimate(synth2000["op"], spec, ent)
        e0 = spec.eigenvalues[1000]
        w = el.MicrocanonicalWindow(center=e0, half_width=1e-9,
                                    start=1000, stop=1001)
        with pytest.raises(el.ValidationError):
            el.gaussianity_stats(synth2000["op"], spec, model, w)

    def test_moments_match_scipy(self):
        # heavy tails (Student t, 5 degrees of freedom) make the third and
        # fourth moments large and sensitive to how they are formed
        sample = np.random.default_rng(8).standard_t(5, size=20000)
        got = _moments(sample)
        assert got.mean == pytest.approx(np.mean(sample), rel=1e-12)
        assert got.variance == pytest.approx(np.var(sample), rel=1e-12)
        assert got.skewness == pytest.approx(
            scipy.stats.skew(sample, bias=True), rel=1e-12)
        assert got.excess_kurtosis == pytest.approx(
            scipy.stats.kurtosis(sample, bias=True), rel=1e-12)
        assert got.sample_size == sample.size and not got.low_power
