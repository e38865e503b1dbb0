import tracemalloc

import numpy as np
import pytest

import ethlab as el
from synth_reference import synth_eth_operator_mirrored_at_end


class TestSynthSpectrum:
    def test_flat_small(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=16, dos_shape="flat", bandwidth=1.0, seed=0))
        e = spec.eigenvalues
        assert e.size == 16
        assert np.all((e >= 0) & (e <= 1))
        assert np.all(np.diff(e) >= 0)

    def test_determinism(self):
        p = el.SynthSpectrumParams(dim=64, dos_shape="semicircle",
                                   bandwidth=2.0, seed=123)
        assert np.array_equal(el.synth_spectrum(p).eigenvalues,
                              el.synth_spectrum(p).eigenvalues)

    def test_gaussian_kurtosis(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=4096, dos_shape="gaussian", bandwidth=4.0, seed=9))
        e = spec.eigenvalues
        z = (e - e.mean()) / e.std()
        kurt = np.mean(z**4)
        assert abs(kurt - 3.0) <= 0.15

    def test_semicircle_support(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=512, dos_shape="semicircle", bandwidth=2.0, seed=4))
        assert np.all(np.abs(spec.eigenvalues) <= 1.0)

    def test_rejects_tiny_dim(self):
        with pytest.raises(el.ValidationError):
            el.SynthSpectrumParams(dim=8, dos_shape="flat", bandwidth=1.0)

    def test_dimension_above_the_dense_cap_refused(self):
        # the params allocate nothing; synth_eth_operator would allocate a
        # dim x dim complex array, 160 GB at dim 10^5
        with pytest.raises(el.SizeError, match="dense cap 8192"):
            el.SynthSpectrumParams(dim=8193)
        assert el.SynthSpectrumParams(dim=8192).dim == 8192


class TestEnvelopeSpec:
    def test_exp_decay_values(self):
        env = el.EnvelopeSpec(form="exp_decay", gamma=0.5, f0=2.0)
        assert env.evaluate(0.0) == pytest.approx(2.0)
        assert env.evaluate(2.0) == pytest.approx(2.0 * np.exp(-1.0))
        assert env.evaluate(-2.0) == env.evaluate(2.0)  # even in omega

    def test_constant(self):
        env = el.EnvelopeSpec(form="constant", f0=0.7)
        assert np.allclose(env.evaluate(np.linspace(-3, 3, 7)), 0.7)

    def test_table_interpolation(self):
        env = el.EnvelopeSpec(form="table", table=((0.0, 1.0, 2.0),
                                                   (1.0, 0.5, 0.25)))
        assert env.evaluate(0.5) == pytest.approx(0.75)
        assert env.evaluate(-0.5) == pytest.approx(0.75)

    def test_negative_gamma_rejected(self):
        with pytest.raises(el.ValidationError):
            el.EnvelopeSpec(form="exp_decay", gamma=-0.1)

    def test_bad_table_rejected(self):
        with pytest.raises(el.ValidationError):
            el.EnvelopeSpec(form="table", table=((1.0, 0.5), (1.0, 1.0)))

    @pytest.mark.parametrize("table", [
        None, ((0.0, 1.0),), ((0.0, 1.0), (1.0, 0.5), (2.0, 0.1)), (0.0, 1.0),
        ((0.0, "a"), (1.0, 0.5)), ((0.0, "1"), (1.0, 0.5)), ((0.0, True), (1.0, 0.5)),
        ((0.0, float("nan")), (1.0, 0.5)), ((0.0, 10**400), (1.0, 0.5)),
        ((0.0, 1.0), (1.0, 0.5, 0.2)),
    ], ids=["none", "one-sequence", "three-sequences", "numbers", "non-numeric",
            "numeric-string", "bool", "nan", "huge-int", "unequal-lengths"])
    def test_malformed_table_raises_validation_error(self, table):
        # a wrong number of sequences, a knot list that is a number, a
        # non-numeric knot and an int beyond the floats used to raise a plain
        # ValueError, TypeError or OverflowError, and a numeric string, a bool
        # or a NaN passed as a knot
        with pytest.raises(el.ValidationError):
            el.EnvelopeSpec(form="table", table=table)


class TestSynthOperator:
    def test_zero_envelope_gives_exact_diagonal(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=64, dos_shape="flat", bandwidth=1.0, seed=2))
        ent = el.EntropyModel.constant(np.log(64), 0, 1)
        env = el.EnvelopeSpec(form="constant", f0=0.0)
        op = el.synth_eth_operator(spec, ent, env,
                                   diagonal=lambda e: np.tanh(e), seed=5)
        assert np.array_equal(op.matrix, np.diag(np.tanh(spec.eigenvalues)))

    def test_bitwise_hermitian(self, synth2000):
        m = synth2000["op"].matrix
        assert np.array_equal(m, m.conj().T)

    def test_determinism(self, synth2000):
        again = el.synth_eth_operator(synth2000["spec"], synth2000["entropy"],
                                      synth2000["envelope"], seed=42)
        assert np.array_equal(again.matrix, synth2000["op"].matrix)

    def test_normalized_offdiagonals_unit_variance(self, synth2000):
        spec, ent, env = (synth2000["spec"], synth2000["entropy"],
                          synth2000["envelope"])
        m = synth2000["op"].matrix
        e = spec.eigenvalues
        iu = np.triu_indices(e.size, 1)
        ebar = 0.5 * (e[iu[0]] + e[iu[1]])
        omega = np.abs(e[iu[0]] - e[iu[1]])
        norm = np.exp(0.5 * ent.entropy_at(ebar)) / env.evaluate(omega)
        r = m[iu] * norm
        n = 2 * r.size
        mean_sq = np.mean(np.abs(r) ** 2)
        # |R|^2 has unit mean, variance 1; 3-sigma statistical band
        assert abs(mean_sq - 1.0) <= 3.0 / np.sqrt(r.size)
        assert n >= 2 * 10**5

    def test_envelope_recovery_fresh_seed(self, synth2000):
        # estimate on an independently seeded realization of the same model
        fresh = el.synth_eth_operator(synth2000["spec"], synth2000["entropy"],
                                      synth2000["envelope"], seed=777)
        model = el.envelope_estimate(fresh, synth2000["spec"],
                                     synth2000["entropy"])
        assert abs(model.central_gamma - 0.25) <= 0.025

    def test_doubling_density_halves_mean_square(self):
        # the exp(-S) suppression: doubling exp(S) halves binned |A_mn|^2
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=1024, dos_shape="flat", bandwidth=4.0, seed=8))
        env = el.EnvelopeSpec(form="constant", f0=1.0)
        means = []
        for scale in (1.0, 2.0):
            ent = el.EntropyModel.constant(np.log(scale * 1024), 0, 4)
            op = el.synth_eth_operator(spec, ent, env, seed=99)
            iu = np.triu_indices(1024, 1)
            means.append(np.mean(np.abs(op.matrix[iu]) ** 2))
        ratio = means[1] / means[0]
        assert abs(ratio - 0.5) < 0.02

    def test_rejects_bad_envelope_argument(self, synth2000):
        with pytest.raises(el.ValidationError):
            el.synth_eth_operator(synth2000["spec"], synth2000["entropy"],
                                  envelope="exp", seed=1)

    @pytest.mark.parametrize("dim", [16, 17, 300])
    def test_in_place_mirror_equals_mirror_at_end(self, dim):
        # the fixture format contract: the same bytes as the reference that
        # mirrors the whole upper triangle after drawing it
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=dim, dos_shape="gaussian", bandwidth=3.0, seed=dim))
        ent = el.EntropyModel.constant(np.log(dim), spec.eigenvalues[0],
                                       spec.eigenvalues[-1])
        env = el.EnvelopeSpec(form="exp_decay", gamma=0.5, f0=1.3)
        args = (spec, ent, env)
        kwargs = {"diagonal": np.tanh, "seed": 7}
        got = el.synth_eth_operator(*args, **kwargs).matrix
        ref = synth_eth_operator_mirrored_at_end(*args, **kwargs).matrix
        assert got.dtype == ref.dtype and got.shape == ref.shape
        assert got.tobytes() == ref.tobytes()

    def test_no_second_operator_sized_array(self):
        # the lower triangle is written in place, row by row
        dim = 512
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=dim, dos_shape="flat", bandwidth=4.0, seed=5))
        ent = el.EntropyModel.constant(np.log(dim), spec.eigenvalues[0],
                                       spec.eigenvalues[-1])
        env = el.EnvelopeSpec(form="exp_decay", gamma=0.25, f0=1.0)
        operator = dim**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            el.synth_eth_operator(spec, ent, env, seed=6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert operator <= peak < 1.25 * operator
