import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import spearmanr

import ethlab as el
from ethlab.io import dump_json, load_json, load_record
from pauli_reference import build_local_observable


def brute_force_residuals(a_matrix, members, c_a):
    """Dense projector-based oracle: P (A^dag A) P - C_A P, code block."""
    d = a_matrix.shape[0]
    p = np.zeros((d, d))
    for m in members:
        p[m, m] = 1.0
    full = p @ (a_matrix.conj().T @ a_matrix) @ p - c_a * p
    return full[np.ix_(members, members)]


@pytest.fixture(scope="module")
def synth512():
    spec = el.synth_spectrum(el.SynthSpectrumParams(
        dim=512, dos_shape="flat", bandwidth=4.0, seed=5))
    ent = el.EntropyModel.constant(np.log(512), 0, 4)
    op = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=0.25), seed=7)
    return spec, ent, op


class TestCodeSpec:
    def test_member_count_enforced(self):
        with pytest.raises(el.ValidationError):
            el.CodeSpec(members=(1, 2, 3), k=1, d=1)

    def test_distinct_members(self):
        with pytest.raises(el.ValidationError):
            el.CodeSpec(members=(1, 1), k=1, d=1)

    def test_locality_within_qubits(self):
        with pytest.raises(el.ValidationError):
            el.CodeSpec(members=(0, 1), k=1, d=9, n_qubits=8)

    @pytest.mark.parametrize("k,d", [(-1, 1), (1, -1)])
    def test_negative_k_or_d_refused(self, k, d):
        # k < 0 used to reach 1 << k first: ValueError, negative shift count
        with pytest.raises(el.ValidationError, match="d and k must be nonnegative"):
            el.CodeSpec(members=(0,), k=k, d=d)

    def test_selection_nearest(self, synth512):
        spec, _, _ = synth512
        w = el.microcanonical_window(spec, 2.0, 0.5)
        members = el.select_code_states(w, 2, spectrum=spec)
        assert len(members) == 4
        e = spec.eigenvalues[list(members)]
        # the four chosen states hug the window center
        others = np.setdiff1d(w.indices, members)
        assert np.abs(e - 2.0).max() <= np.abs(
            spec.eigenvalues[others] - 2.0).min() + 1e-12

    def test_selection_random_inside_window(self, synth512):
        spec, _, _ = synth512
        w = el.microcanonical_window(spec, 2.0, 0.5)
        members = el.select_code_states(w, 3, method="random", seed=4,
                                        spectrum=spec)
        assert all(w.start <= m < w.stop for m in members)


class TestKlResiduals:
    def test_identity_exact_zero(self, synth512):
        spec, _, _ = synth512
        code = el.CodeSpec(members=(250, 251), k=1, d=1)
        rep = el.kl_residuals(el.OperatorEigenbasis(matrix=np.eye(512)),
                              spec, code)
        assert rep.eps_max == 0.0
        assert rep.eps_code == 0.0

    def test_pauli_word_exact_zero(self, synth512):
        # identity-basis spectrum, so the word is its own eigenbasis matrix
        spec, _, _ = synth512
        word = build_local_observable(
            el.LocalObservableSpec(sites=(2, 3), paulis="XZ"), 9)
        code = el.CodeSpec(members=(100, 200), k=1, d=2)
        rep = el.kl_residuals(el.OperatorEigenbasis(matrix=word), spec, code)
        assert rep.eps_max == 0.0

    def test_brute_force_oracle(self, synth512):
        spec, _, op = synth512
        w = el.microcanonical_window(spec, 2.0, 0.4)
        members = el.select_code_states(w, 1, spectrum=spec)
        code = el.CodeSpec(members=members, k=1, d=1)
        rep = el.kl_residuals(op, spec, code)
        oracle = brute_force_residuals(op.matrix, members, rep.c_a)
        rel = np.abs(rep.epsilon - oracle).max() / np.abs(rep.epsilon).max()
        assert rel <= 1e-12

    def test_epsilon_hermitian(self, synth512):
        spec, _, op = synth512
        code = el.CodeSpec(members=(200, 240, 280, 320), k=2, d=1)
        rep = el.kl_residuals(op, spec, code)
        dev = np.abs(rep.epsilon - rep.epsilon.conj().T).max()
        assert dev <= 1e-12 * max(np.abs(rep.epsilon).max(), 1e-300)
        assert np.all(np.abs(np.imag(np.diagonal(rep.epsilon))) <= 1e-15)
        assert rep.eps_code >= 0

    def test_omega_matches_energies(self, synth512):
        spec, _, op = synth512
        code = el.CodeSpec(members=(100, 300), k=1, d=1)
        rep = el.kl_residuals(op, spec, code)
        expected = spec.eigenvalues[100] - spec.eigenvalues[300]
        assert rep.omega[0, 1] == pytest.approx(expected)

    def test_json_roundtrip(self, synth512, tmp_path):
        # dump_json and load_record are each other's inverse on a complex
        # k = 2 report without a qubit count
        spec, _, op = synth512
        w = el.microcanonical_window(spec, 2.0, 0.4)
        code = el.CodeSpec(members=el.select_code_states(w, 2, spectrum=spec),
                           k=2, d=1)
        rep = el.kl_residuals(op, spec, code)
        assert np.abs(rep.epsilon.imag).max() > 0  # both parts carry data
        dump_json(tmp_path / "code.json", rep)
        data = load_json(tmp_path / "code.json")
        # the separations are recomputed from the energies, not stored
        assert "omega" not in data and "epsilon" not in data
        back = load_record(el.KlResidualReport, data)
        assert back.n_qubits is None and back.members == rep.members
        for f in dataclasses.fields(el.KlResidualReport):
            assert np.array_equal(getattr(back, f.name), getattr(rep, f.name)), f.name
            assert type(getattr(back, f.name)) is type(getattr(rep, f.name)), f.name
        assert np.array_equal(back.omega, rep.omega)

    def test_dimension_mismatch(self, synth512):
        spec, _, _ = synth512
        with pytest.raises(el.ValidationError):
            el.kl_residuals(el.OperatorEigenbasis(matrix=np.eye(16)), spec,
                            el.CodeSpec(members=(0, 1), k=1, d=1))

    def test_residual_decay_with_pair_frequency(self):
        # mean |eps_ij| is statistically non-increasing in |w_ij| for
        # exponentially decaying envelopes
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=2048, dos_shape="flat", bandwidth=4.0, seed=31))
        ent = el.EntropyModel.constant(np.log(2048), 0, 4)
        op = el.synth_eth_operator(spec, ent,
                                   el.EnvelopeSpec(gamma=1.5), seed=77)
        w = el.microcanonical_window(spec, 2.0, 1.2)
        # members spread evenly across the window so pair separations span
        # the full frequency range (adjacent states would all have w ~ 0)
        members = tuple(np.unique(np.linspace(w.start, w.stop - 1,
                                              32).astype(int)))
        rep = el.kl_residuals(op, spec,
                              el.CodeSpec(members=members, k=5, d=1))
        iu = np.triu_indices(32, 1)
        omegas = np.abs(rep.omega[iu])
        eps = np.abs(rep.epsilon[iu])
        # bin by |omega| and test monotone decrease of the bin means
        edges = np.quantile(omegas, np.linspace(0, 1, 9))
        means, centers = [], []
        for lo, hi in zip(edges[:-1], edges[1:]):
            sel = (omegas >= lo) & (omegas < hi)
            if sel.sum() > 5:
                means.append(eps[sel].mean())
                centers.append(0.5 * (lo + hi))
        rho, pval = spearmanr(centers, means)
        assert rho <= 0
        assert pval < 0.01


class TestBoundFormulas:
    def test_unit_value_at_origin(self):
        assert el.code_error_bound(0.0, 1.0, 0.0, 0, 0) == pytest.approx(1.0)

    def test_exact_arithmetic_case(self):
        val = el.code_error_bound(4 * math.log(2), 1.0, 0.0, 1, 1)
        assert val == pytest.approx(8 * math.exp(-math.log(2)), rel=1e-12)
        assert val == pytest.approx(4.0, rel=1e-12)

    def test_saturation_case(self):
        # S=10, lam=2*pi (chaos bound at beta=1), w=2, d=2, k=1
        val = el.code_error_bound(10.0, 2 * math.pi, 2.0, 2, 1)
        assert val == pytest.approx(16 * math.exp(-2.5 - 0.5), rel=1e-12)

    def test_weak_exponent_variant_is_larger(self):
        # the weak form, pi*|w|/(4*lam) in the exponent, is the bound at 2*lam
        s, lam, omega, d, k = 3.0, 1.0, 2.0, 1, 1
        strong = el.code_error_bound(s, lam, omega, d, k)
        weak = el.code_error_bound(s, 2 * lam, omega, d, k)
        assert weak == 2.0 ** (d + 2 * k) * math.exp(-s / 4 - math.pi * omega / (4 * lam))
        assert weak > strong

    def test_lambda_must_be_positive(self):
        with pytest.raises(el.ValidationError):
            el.code_error_bound(1.0, 0.0, 1.0, 0, 0)

    def test_lower_bound_zero_frequency(self):
        assert el.lyapunov_lower_bound(0.1, 1, 1, 5.0, 0.0) == 0.0

    def test_lower_bound_zero_error(self):
        assert el.lyapunov_lower_bound(0.0, 1, 1, 5.0, 2.0) == 0.0

    def test_lower_bound_vacuous(self):
        # huge entropy drives the denominator negative
        assert el.lyapunov_lower_bound(0.5, 0, 0, 100.0, 1.0) is None

    def test_worked_example(self):
        # pi*2 / (2*ln(800) - 5); an independent high-precision evaluation
        # (mpmath, 30 digits) gives 0.75074890050566155...
        val = el.lyapunov_lower_bound(0.01, 1, 1, 10.0, 2.0)
        assert val == pytest.approx(0.7507489005056616, rel=1e-12)

    def test_algebraic_inverse(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(55)))
        for _ in range(50):
            s = rng.uniform(0, 30)
            lam = rng.uniform(0.1, 5.0)
            omega = rng.uniform(0.5, 5.0)
            d = int(rng.integers(0, 4))
            k = int(rng.integers(0, 3))
            rhs = el.code_error_bound(s, lam, omega, d, k)
            back = el.lyapunov_lower_bound(rhs, d, k, s, omega)
            assert abs(back - lam) <= 1e-12 * lam

    @settings(max_examples=40, deadline=None)
    @given(st.floats(0.0, 20.0), st.floats(0.2, 4.0), st.floats(0.5, 4.0),
           st.integers(0, 3), st.integers(0, 2))
    def test_inverse_property(self, s, lam, omega, d, k):
        rhs = el.code_error_bound(s, lam, omega, d, k)
        back = el.lyapunov_lower_bound(rhs, d, k, s, omega)
        assert back is not None
        assert abs(back - lam) <= 1e-11 * lam


class TestCheckBounds:
    def _report(self, spec, op, k=1, d=1):
        w = el.microcanonical_window(spec, 2.0, 0.4)
        members = el.select_code_states(w, k, spectrum=spec)
        return el.kl_residuals(op, spec,
                               el.CodeSpec(members=members, k=k, d=d))

    @staticmethod
    def _check(rep, ent, beta, lam_fit=None, gamma=None):
        return el.check_bounds(rep, ent, beta, lam_fit=lam_fit, gamma=gamma,
                               measured_dynamical=0.0, measured_static=0.0)

    def test_saturating_envelope_implies_chaos_bound(self):
        # gamma = beta/4 decay makes the implied rate exactly 2*pi/beta
        beta = 1.0
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=1024, dos_shape="flat", bandwidth=4.0, seed=13))
        ent = el.EntropyModel.constant(np.log(1024), 0, 4)
        op = el.synth_eth_operator(spec, ent,
                                   el.EnvelopeSpec(gamma=beta / 4), seed=21)
        env = el.envelope_estimate(op, spec, ent)
        report = self._report(spec, op)
        bound = self._check(report, ent, beta, gamma=env.central_gamma)
        assert bound.lambda_source == "envelope-implied"
        chaos = 2 * math.pi / beta
        assert abs(bound.lambda_used - chaos) / chaos < 0.15
        assert bound.flags["lower_over_used"]
        assert bound.flags["code_error"]

    def test_zero_error_code_trivially_consistent(self, synth512):
        spec, ent, _ = synth512
        code = el.CodeSpec(members=(250, 251), k=1, d=1)
        rep = el.kl_residuals(el.OperatorEigenbasis(matrix=np.eye(512)),
                              spec, code)
        bound = self._check(rep, ent, 1.0)
        assert bound.lambda_lower == 0.0
        assert bound.slack_ratios["code_error"] == bound.slack_ratios["pair_max"] == 0.0
        assert bound.all_within_slack

    def test_lambda_source_precedence(self, synth512):
        spec, ent, op = synth512
        rep = self._report(spec, op)
        env = el.envelope_estimate(op, spec, ent)
        gamma = env.central_gamma
        fitted = self._check(rep, ent, 1.0, lam_fit=2.5, gamma=gamma)
        assert fitted.lambda_source == "fitted"
        assert fitted.lambda_used == 2.5
        implied = self._check(rep, ent, 1.0, gamma=gamma)
        assert implied.lambda_source == "envelope-implied"
        chaos = self._check(rep, ent, 1.0)
        assert chaos.lambda_source == "chaos-bound"
        assert chaos.lambda_used == pytest.approx(2 * math.pi)

    def test_no_source_raises(self, synth512):
        spec, ent, op = synth512
        rep = self._report(spec, op)
        with pytest.raises(el.ValidationError):
            self._check(rep, ent, 0.0)

    def test_lower_bound_below_used_when_code_error_within(self, synth512):
        # algebraic consistency of the sandwich: when the code error sits
        # below its ceiling, the recovered lower bound cannot exceed the
        # rate that produced the ceiling (monotonicity of the inverse)
        spec, ent, op = synth512
        rep = self._report(spec, op, k=2, d=1)
        bound = self._check(rep, ent, 1.0)
        if bound.slack_ratios["code_error"] <= 1 and bound.lambda_lower:
            assert bound.lambda_lower <= bound.lambda_used * (1 + 1e-12)

    def test_bare_gamma_matches_envelope(self, synth512):
        spec, ent, op = synth512
        rep = self._report(spec, op)
        gamma = el.envelope_estimate(op, spec, ent).central_gamma
        from_gamma = self._check(rep, ent, 1.0, gamma=gamma)
        assert from_gamma.lambda_source == "envelope-implied"
        assert from_gamma.lambda_used == math.pi / (2 * gamma)
        unfitted = self._check(rep, ent, 1.0, gamma=float("nan"))
        assert unfitted.lambda_source == "chaos-bound"

    def test_flags_are_ratios_within_slack(self, synth512):
        # seeded draws of code, entropy, beta, rate source and measured
        # fluctuations: S = 100 makes the lower bound vacuous (None), beta = 0
        # puts the chaos bound at inf, and every ratio is probed with slacks
        # below, at and above it
        names = ["code_error", "pair_max", "lower_over_used", "used_over_chaos",
                 "dynamical_rate", "static"]
        spec, _, op = synth512
        rng = np.random.Generator(np.random.Philox(key=np.uint64(30)))
        seen, outcomes = set(), {name: set() for name in names}
        for _ in range(16):
            rep = self._report(spec, op, k=int(rng.integers(0, 3)),
                               d=int(rng.integers(0, 3)))
            ent = el.EntropyModel.constant(float(rng.choice([0.0, np.log(512), 100.0])),
                                           -4, 4)
            beta = float(rng.choice([0.0, rng.uniform(0.1, 3.0)]))
            lam_fit = float(rng.uniform(0.1, 10.0)) if beta == 0 or rng.random() < 0.5 else None
            measured = {"measured_dynamical": float(rng.choice([0.0, 1e-3, 1.0])),
                        "measured_static": float(rng.choice([0.0, 0.5, 50.0]))}
            base = el.check_bounds(rep, ent, beta, lam_fit=lam_fit, gamma=None,
                                   **measured)
            ratios = base.slack_ratios
            if base.lambda_lower is None:
                seen.add("vacuous")
            if beta == 0:
                seen.add("beta=0")
            for r in ratios.values():
                for slack in (r / 2, r, 2 * r) if r > 0 else (-1.0, 0.0, 1.0):
                    bound = el.check_bounds(rep, ent, beta, lam_fit=lam_fit, gamma=None,
                                            slack=slack, **measured)
                    assert bound.slack_ratios == ratios
                    assert list(bound.slack_ratios) == list(bound.flags) == names
                    for name in names:
                        assert bound.flags[name] is (ratios[name] <= slack)
                        outcomes[name].add(bound.flags[name])
                    assert bound.all_within_slack is all(bound.flags.values())
        assert seen == {"vacuous", "beta=0"}
        assert all(values == {True, False} for values in outcomes.values())

    def test_one_ratio_rule(self, synth512):
        # measured / bound; 0 for a zero measurement or an infinite bound
        # (beta = 0 for the chaos bound, the divergent static integral), inf
        # for a zero bound under a nonzero measurement: at S = 800 the
        # dynamical rate bound exp(-S - pi*|w|/lam) underflows to 0
        spec, _, op = synth512
        rep = self._report(spec, op)
        ent = el.EntropyModel.constant(800.0, -4, 4)
        bound = el.check_bounds(rep, ent, 0.0, lam_fit=1.0, gamma=None,
                                measured_dynamical=1e-300, measured_static=0.5)
        assert bound.dynamical_bound_rate == 0.0
        assert bound.slack_ratios["dynamical_rate"] == math.inf
        assert not bound.flags["dynamical_rate"] and not bound.all_within_slack
        assert bound.chaos_bound == math.inf
        assert bound.slack_ratios["used_over_chaos"] == 0.0
        quiet = el.check_bounds(rep, ent, 0.0, lam_fit=1.0, gamma=None,
                                measured_dynamical=0.0, measured_static=0.5)
        assert quiet.slack_ratios["dynamical_rate"] == 0.0
        divergent = el.check_bounds(rep, ent, 1.0, lam_fit=2 * math.pi, gamma=None,
                                    measured_dynamical=0.0, measured_static=0.5)
        assert divergent.static_divergent and divergent.static_bound == math.inf
        assert divergent.slack_ratios["static"] == 0.0

    def test_report_serialization_fields(self, synth512, tmp_path):
        spec, ent, op = synth512
        rep = self._report(spec, op)
        bound = self._check(rep, ent, 1.0)
        dump_json(tmp_path / "bound.json", bound)
        d = load_json(tmp_path / "bound.json")
        assert set(d) == {
            "code_error_rhs", "lambda_lower", "lambda_used", "lambda_source",
            "chaos_bound", "entropy_value", "omega_char", "dynamical_bound_rate",
            "dynamical_bound_code", "static_bound", "static_divergent",
            "fdt_bound_rate", "fdt_bound_code", "slack_ratios", "flags", "per_pair"}
