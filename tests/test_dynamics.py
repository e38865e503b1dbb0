import math
import os
import threading
import tracemalloc

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg
from hypothesis import given, settings, strategies as st

import ethlab as el
from conftest import correlators, densities
from dynamics_reference import dense_correlators, spectral_peaks
from pauli_reference import build_local_observable


def static_fluctuation_variance_form(a, n):
    """Same quantity as <n|A^2|n> - <n|A|n>^2, via the operator square."""
    row = a.matrix[n, :]
    col = a.matrix[:, n]
    a2_nn = complex(np.dot(row, col))
    return float(a2_nn.real - np.real(a.matrix[n, n]) ** 2)


def heisenberg_oracle(h, op, beta, times):
    """Direct-evolution correlators via Pade expm, no eigenbasis involved.

    Returns dict of F2, Fsym, Resp, OTOC arrays.
    """
    z = scipy.linalg.expm(-beta * h)
    zz = np.trace(z).real
    r2 = scipy.linalg.expm(-0.5 * beta * h) / math.sqrt(zz)
    r4 = scipy.linalg.expm(-0.25 * beta * h) / zz**0.25
    rho = z / zz
    mean = np.trace(rho @ op).real
    out = {"F2": [], "Fsym": [], "Resp": [], "OTOC": []}
    for t in times:
        u = scipy.linalg.expm(1j * h * t)
        at = u @ op @ u.conj().T
        out["F2"].append(np.trace(r2 @ at @ r2 @ op))
        c = np.trace(rho @ at @ op)
        out["Fsym"].append(0.5 * (c + np.conj(c)) - mean**2)
        out["Resp"].append(c - np.conj(c))
        out["OTOC"].append(np.trace(r4 @ at @ r4 @ op @ r4 @ at @ r4 @ op))
    return {k: np.array(v) for k, v in out.items()}


def rel_dev(x, y):
    x, y = np.asarray(x), np.asarray(y)
    return np.abs(x - y).max() / max(np.abs(y).max(), 1e-300)


def synth_complex(dim, seed, diagonal=None):
    """Complex Hermitian ETH operator in the identity basis of a flat spectrum."""
    spec = el.synth_spectrum(el.SynthSpectrumParams(
        dim=dim, dos_shape="flat", bandwidth=4.0, seed=seed))
    ent = el.EntropyModel.constant(np.log(dim), spec.eigenvalues[0],
                                   spec.eigenvalues[-1])
    env = el.EnvelopeSpec(form="exp_decay", gamma=0.25, f0=1.0)
    return spec, el.synth_eth_operator(spec, ent, env, diagonal=diagonal,
                                       seed=seed + 1)


def dense_broadened(a, spectrum, beta, sigma, omegas):
    """Untruncated Gaussian sum over every pair peak, built from the matrix."""
    e = spectrum.eigenvalues
    rho = el.gibbs_weights(spectrum, beta)
    abs2 = np.abs(a.matrix) ** 2
    off = ~np.eye(e.size, dtype=bool)
    freqs = (e[None, :] - e[:, None])[off]          # w = E_n - E_m
    f_w = (0.5 * (rho[:, None] + rho[None, :]) * abs2)[off]
    r_w = (0.25 * (rho[:, None] - rho[None, :]) * abs2)[off]
    diag = np.real(np.diagonal(a.matrix))
    freqs = np.append(freqs, 0.0)
    f_w = np.append(f_w, np.dot(rho, diag**2) - np.dot(rho, diag) ** 2)
    r_w = np.append(r_w, 0.0)
    norm = 1.0 / (math.sqrt(2 * math.pi) * sigma)
    f_vals, r_vals = [], []
    for w in omegas:
        kern = norm * np.exp(-0.5 * ((w - freqs) / sigma) ** 2)
        f_vals.append(kern @ f_w)
        r_vals.append(kern @ r_w)
    return np.array(f_vals), np.array(r_vals)


class TestThermalState:
    """The Gibbs weights of the thermal state, from :func:`el.gibbs_weights`."""

    @pytest.mark.parametrize("power", [1.0, 0.5, 0.25])
    def test_infinite_temperature_uniform(self, power):
        # d = 321 is not a power of two: 1/d and d**(-p) are rounded
        d = 321
        spec = el.EnergySpectrum(np.linspace(-3.0, 3.0, d))
        weights = el.gibbs_weights(spec, 0.0, power)
        expected = 1.0 / d if power == 1 else float(d) ** -power
        assert np.all(weights == expected)
        assert weights.sum() == pytest.approx(float(d) ** (1 - power))

    def test_two_level_weights(self):
        spec = el.EnergySpectrum(np.array([0.0, 0.7]))
        expected = np.array([1.0, math.exp(-0.7)])
        expected /= expected.sum()
        assert np.allclose(el.gibbs_weights(spec, 1.0), expected, rtol=1e-14)

    def test_thermodynamic_identity(self, ising10):
        # <H> = -d(log Z)/d(beta) by centered difference, log Z summed here
        spec = ising10["spec"]
        beta, h_step = 1.0, 1e-4
        mean_e = np.dot(el.gibbs_weights(spec, beta), spec.eigenvalues)
        e0 = spec.eigenvalues.min()
        lz = lambda b: -b * e0 + math.log(np.exp(-b * (spec.eigenvalues - e0)).sum())
        numeric = -(lz(beta + h_step) - lz(beta - h_step)) / (2 * h_step)
        assert abs(mean_e - numeric) <= 1e-6 * abs(numeric)

    def test_negative_beta_rejected(self, ising8):
        with pytest.raises(el.ValidationError):
            el.gibbs_weights(ising8["spec"], -0.5)


class TestTwoPoint:
    def test_identity_constant_one(self, ising8):
        a = el.OperatorEigenbasis(matrix=np.eye(256))
        f2 = correlators(a, ising8["spec"], 1.0, np.linspace(0, 2, 9))[0]
        assert np.allclose(f2.real_values(), 1.0, atol=1e-12)

    def test_t0_nonnegative(self, ising8):
        f2 = correlators(ising8["a"], ising8["spec"], 1.0,
                         np.array([0.0]))[0]
        assert f2.real_values()[0] >= 0

    def test_matches_heisenberg_evolution(self, ising8):
        times = np.linspace(0, 3, 7)
        oracle = heisenberg_oracle(ising8["h"], ising8["z0"], 1.0, times)
        f2 = correlators(ising8["a"], ising8["spec"], 1.0, times)[0]
        assert rel_dev(f2.values, oracle["F2"]) <= 1e-9

    def test_infinite_temperature_reduces_to_unregulated(self, ising8):
        # at beta = 0, F2(t) = Tr[A(t) A] / D
        spec, a, h, z0 = (ising8["spec"], ising8["a"], ising8["h"],
                          ising8["z0"])
        times = np.linspace(0, 2, 5)
        f2 = correlators(a, spec, 0.0, times)[0]
        direct = []
        for t in times:
            u = scipy.linalg.expm(1j * h * t)
            direct.append(np.trace(u @ z0 @ u.conj().T @ z0) / 256)
        assert rel_dev(f2.values, np.array(direct)) <= 1e-10


class TestSymmetricAndResponse:
    def test_response_vanishes_at_t0(self, ising8):
        _, _, resp = correlators(ising8["a"], ising8["spec"], 1.0,
                                 np.array([0.0, 1.0]))
        assert abs(resp.values[0]) <= 1e-12

    def test_identity_has_zero_connected_part(self, ising8):
        a = el.OperatorEigenbasis(matrix=np.eye(256))
        _, fsym, _ = correlators(a, ising8["spec"], 1.0,
                                 np.linspace(0, 2, 5))
        assert np.allclose(fsym.values, 0.0, atol=1e-12)

    def test_time_parity(self, ising8):
        times = np.linspace(0.25, 2.0, 8)
        _, fwd_s, fwd_r = correlators(ising8["a"], ising8["spec"],
                                      1.0, times)
        _, bwd_s, bwd_r = correlators(ising8["a"], ising8["spec"],
                                      1.0, -times)
        assert np.abs(fwd_s.values - bwd_s.values).max() <= 1e-10
        assert np.abs(fwd_r.values + bwd_r.values).max() <= 1e-10

    def test_matches_heisenberg_evolution(self, ising8):
        times = np.linspace(0, 3, 7)
        oracle = heisenberg_oracle(ising8["h"], ising8["z0"], 1.0, times)
        _, fsym, resp = correlators(ising8["a"], ising8["spec"],
                                    1.0, times)
        assert rel_dev(fsym.values, oracle["Fsym"]) <= 1e-9
        assert rel_dev(resp.values, oracle["Resp"]) <= 1e-9

    def test_response_purely_imaginary(self, ising8):
        _, _, resp = correlators(ising8["a"], ising8["spec"], 1.0,
                                 np.linspace(0, 2, 5))
        assert np.abs(resp.values.real).max() <= 1e-12


class TestLehmannSum:
    def test_complex_operator_matches_direct_traces(self):
        # |A_mn|^2 differs from A_mn^2 only for a complex operator, and the
        # left/right weights of <A(t) A> are not symmetric
        spec, a = synth_complex(128, seed=33, diagonal=np.tanh)
        assert np.abs(a.matrix.imag).max() > 0.1 * np.abs(a.matrix).max()
        beta, times = 1.0, np.array([0.0, 0.4, 1.3, 2.9])
        e = spec.eigenvalues
        z = np.exp(-beta * e).sum()
        rho = np.diag(np.exp(-beta * e)) / z
        r2 = np.diag(np.exp(-0.5 * beta * e)) / math.sqrt(z)
        mean = np.trace(rho @ a.matrix).real
        direct_f2, direct_c = [], []
        for t in times:
            u = np.diag(np.exp(1j * e * t))
            at = u @ a.matrix @ u.conj().T
            direct_f2.append(np.trace(r2 @ at @ r2 @ a.matrix))
            direct_c.append(np.trace(rho @ at @ a.matrix))
        direct_c = np.array(direct_c)
        f2, fsym, resp = correlators(a, spec, beta, times)
        assert rel_dev(f2.values, np.array(direct_f2)) <= 1e-10
        assert rel_dev(fsym.values, direct_c.real - mean**2) <= 1e-10
        assert rel_dev(resp.values, direct_c - direct_c.conj()) <= 1e-10

    def test_f2_and_otoc_keep_only_real_part(self, ising8):
        times = np.linspace(0, 3, 7)
        f2 = correlators(ising8["a"], ising8["spec"], 1.0, times)[0]
        oto = el.otoc(ising8["a"], ising8["spec"], 1.0, times)
        assert np.all(f2.values.imag == 0.0)
        assert np.all(oto.values.imag == 0.0)


class TestOtoc:
    def test_identity_constant_one(self, ising8):
        a = el.OperatorEigenbasis(matrix=np.eye(256))
        oto = el.otoc(a, ising8["spec"], 1.0, np.linspace(0, 2, 4))
        assert np.allclose(oto.real_values(), 1.0, atol=1e-12)

    def test_pauli_word_infinite_temperature_t0_exact(self):
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=256, dos_shape="flat", bandwidth=4.0, seed=1))
        word = build_local_observable(
            el.LocalObservableSpec(sites=(0,), paulis="Z"), 8)
        oto = el.otoc(el.OperatorEigenbasis(matrix=word), spec, 0.0,
                      np.array([0.0]))
        assert oto.values[0] == 1.0 + 0.0j

    def test_matches_heisenberg_evolution(self, ising8):
        times = np.linspace(0, 3, 6)
        oracle = heisenberg_oracle(ising8["h"], ising8["z0"], 1.0, times)
        oto = el.otoc(ising8["a"], ising8["spec"], 1.0, times)
        assert rel_dev(oto.values, oracle["OTOC"]) <= 1e-9

    def test_infinite_temperature_reduces_to_unregulated(self, ising8):
        spec, a, h, z0 = (ising8["spec"], ising8["a"], ising8["h"],
                          ising8["z0"])
        times = np.array([0.0, 0.7, 1.9])
        oto = el.otoc(a, spec, 0.0, times)
        direct = []
        for t in times:
            u = scipy.linalg.expm(1j * h * t)
            at = u @ z0 @ u.conj().T
            direct.append(np.trace(at @ z0 @ at @ z0) / 256)
        assert rel_dev(oto.values, np.array(direct)) <= 1e-10

    def test_complex_operator_matches_direct_trace(self):
        spec, a = synth_complex(128, seed=21)
        beta, times = 1.0, np.array([0.0, 0.4, 1.3, 2.9])
        e = spec.eigenvalues
        r4 = np.diag(np.exp(-0.25 * beta * e)) / \
            np.exp(-beta * e).sum() ** 0.25
        direct = []
        for t in times:
            u = np.diag(np.exp(1j * e * t))
            at = u @ a.matrix @ u.conj().T
            direct.append(np.trace(r4 @ at @ r4 @ a.matrix @ r4 @ at @ r4
                                   @ a.matrix))
        oto = el.otoc(a, spec, beta, times)
        assert rel_dev(oto.values, np.array(direct)) <= 1e-10

    @pytest.mark.parametrize("beta", [0.0, 1.0, 8.0, 400.0])
    def test_real_path_matches_complex_path(self, ising8, beta):
        # a real operator takes real strips and W = G o G, the same operator
        # cast to complex the strips of G and H and W = G o conj(H); at
        # beta = 400 rho^(1/8) is exactly zero for the top states
        a, spec = ising8["a"], ising8["spec"]
        assert np.isrealobj(a.matrix)
        weights = el.gibbs_weights(spec, beta, 0.125)
        assert np.any(weights == 0) == (beta == 400.0)
        times = np.linspace(0, 3, 6)
        real = el.otoc(a, spec, beta, times)
        cplx = el.otoc(el.OperatorEigenbasis(matrix=a.matrix.astype(complex)),
                       spec, beta, times)
        assert np.all(np.isfinite(real.values))
        assert rel_dev(real.values, cplx.values) <= 1e-13

    @pytest.mark.parametrize("dtype,per_term", [(float, 4), (complex, 16)])
    def test_cost_guard_states_flops_of_the_path(self, dtype, per_term,
                                                 monkeypatch):
        # the guard reads only the shape and dtype: a broadcast zero stands
        # in for the matrix without allocating it; per_term counts the flops
        # of one block row times one column times one inner index: two strip
        # rows (real and imaginary part of G, or G and H) at 2 flops per
        # multiply-add of a real GEMM or 8 of a complex one, and the block at
        # row s multiplies with the columns s: only
        n, h = 4097, el.dynamics.OTOC_BLOCK_ROWS
        a = el.OperatorEigenbasis(matrix=np.broadcast_to(dtype(0), (n, n)))
        terms = sum(min(h, n - s) * n * (n - s) for s in range(0, n, h))
        # about 2 n^3 (1 + h/n) per point real, 8 n^3 (1 + h/n) complex: the
        # last block is one row
        assert per_term * terms == pytest.approx(
            per_term // 2 * n**3 * (1 + h / n), rel=1e-3)
        flops = per_term * terms * 5
        # admitted at exactly the budget, refused just above it
        monkeypatch.setattr(el.dynamics, "OTOC_FLOP_BUDGET", float(flops))
        el.dynamics.check_otoc_cost(a, 5)
        monkeypatch.setattr(el.dynamics, "OTOC_FLOP_BUDGET", flops * (1 - 1e-9))
        # 5 points stacked in one strip of 5 x 2h rows on one thread, and
        # two strips of 3 x 2h in flight on two, and their products
        for cpus, buffers in ((1, {4: "0.02", 16: "0.04"}),
                              (2, {4: "0.02", 16: "0.05"})):
            self._path(monkeypatch, cpus)
            stated = (f"about {per_term // 2} d\\^3 \\(1 \\+ h/d\\) each over "
                      f"the upper block triangle of W, h = 32; buffers "
                      f"{buffers[per_term]} GiB")
            with pytest.raises(el.CostGuardError, match=stated) as err:
                el.dynamics.check_otoc_cost(a, 5)
            assert err.value.estimated_flops == flops

    def test_cost_guard(self, ising8, monkeypatch):
        # the budget is 1e13 flops per call, stated in the message; a
        # broadcast zero stands in for the operator. At d = 8192 it admits
        # 7 real points (7.7e12) and 2 complex ones; a single point takes
        # blocks of h = d/16 rows
        budget = el.dynamics.OTOC_FLOP_BUDGET
        assert budget == 1e13
        grid = [(float, 4096, 64, True), (float, 4096, 80, False),
                (float, 8192, 1, True), (float, 8192, 7, True),
                (float, 8192, 9, True), (float, 8192, 10, False),
                (complex, 8192, 1, True), (complex, 8192, 2, True),
                (complex, 8192, 3, False), (float, 1 << 15, 1, False)]
        for dtype, d, n_times, admitted in grid:
            a = el.OperatorEigenbasis(matrix=np.broadcast_to(dtype(0), (d, d)))
            if admitted:
                el.dynamics.check_otoc_cost(a, n_times)
                continue
            with pytest.raises(el.CostGuardError,
                               match=f"dim {d} exceeds the budget of 1.00e\\+13 "
                                     "flops") as err:
                el.dynamics.check_otoc_cost(a, n_times)
            assert err.value.estimated_flops > budget
        # otoc itself refuses before its first GEMM
        calls = []
        matmul = np.matmul
        monkeypatch.setattr(np, "matmul",
                            lambda *args, **kw: calls.append(1) or matmul(*args, **kw))
        monkeypatch.setattr(el.dynamics, "OTOC_FLOP_BUDGET", 1e6)
        with pytest.raises(el.CostGuardError) as err:
            el.otoc(ising8["a"], ising8["spec"], 1.0, np.array([0.0]))
        assert err.value.estimated_flops > 1e6
        assert calls == []

    def test_subnormal_gibbs_factors_flushed(self, ising8):
        # at beta = 200 the Gibbs factors of the top states reach the
        # subnormal range; they are zeroed, diag(conj(u)) A holds no
        # subnormal entry, and a real and a complex A equal the unflushed sum
        a, spec, beta = ising8["a"], ising8["spec"], 200.0
        tiny = np.finfo(float).tiny
        q = el.dynamics._gibbs_factor(spec, beta)
        assert np.any((q == 0) & (el.gibbs_weights(spec, beta, 0.25) > 0))
        raw = el.gibbs_weights(spec, beta, 0.125)
        times = np.linspace(0, 3, 6)
        unflushed = []
        for t in times:
            u = q * np.exp(1j * spec.eigenvalues * t)
            flushed = u.conj()[:, None] * a.matrix
            assert not np.any((flushed != 0) & (np.abs(flushed) < tiny))
            s = raw * np.exp(0.5j * spec.eigenvalues * t)
            c = (s[:, None] * a.matrix * s.conj()) @ \
                (s.conj()[:, None] * a.matrix * s)
            unflushed.append(np.einsum("ij,ji->", c, c))
        unflushed = np.array(unflushed)
        scale = np.abs(unflushed).max()
        real = el.otoc(a, spec, beta, times)
        cplx = el.otoc(el.OperatorEigenbasis(matrix=a.matrix.astype(complex)),
                       spec, beta, times)
        assert np.abs(real.values - unflushed).max() <= 1e-13 * scale
        assert np.abs(cplx.values - unflushed).max() <= 1e-13 * scale

    @pytest.mark.parametrize("beta", [0.0, 1.0, 8.0])
    @pytest.mark.parametrize("sites,paulis", [((0,), "Z"), ((3,), "X"),
                                              ((2, 5), "ZZ")])
    def test_real_path_matches_dense_direct_trace(self, ising8, sites, paulis,
                                                  beta):
        spec = ising8["spec"]
        a = el.to_eigenbasis(el.LocalObservableSpec(sites=sites, paulis=paulis),
                             spec)
        assert np.isrealobj(a.matrix)
        e = spec.eigenvalues
        logw = -beta * (e - e.min())
        r4 = np.diag(np.exp(0.25 * logw) / np.exp(logw).sum() ** 0.25)
        times = np.array([0.0, 0.6, 1.7, 3.1])
        direct = []
        for t in times:
            u = np.diag(np.exp(1j * e * t))
            at = u @ a.matrix @ u.conj().T
            direct.append(np.trace(r4 @ at @ r4 @ a.matrix @ r4 @ at @ r4
                                   @ a.matrix))
        direct = np.array(direct)
        oto = el.otoc(a, spec, beta, times)
        assert np.abs(oto.values - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("kind", ["real", "complex"])
    def test_fortran_ordered_operator(self, ising8, kind):
        if kind == "real":
            a, spec = ising8["a"], ising8["spec"]
        else:
            spec, a = synth_complex(128, seed=21)
        # the same values, laid out column-major as a transposed view
        f = np.ascontiguousarray(a.matrix.T).T
        assert f.flags.f_contiguous and not f.flags.c_contiguous
        times = np.linspace(0, 3, 5)
        c_order = el.otoc(a, spec, 1.0, times).values
        f_order = el.otoc(el.OperatorEigenbasis(matrix=f), spec, 1.0,
                          times).values
        assert np.abs(f_order - c_order).max() <= 1e-13 * np.abs(c_order).max()

    def test_gemm_operand_holds_no_subnormal(self, ising10, monkeypatch):
        # at beta = 200 rho^(1/4) of the top states falls below tiny^(1/2)
        # of its maximum; they are dropped, so the left operand of every
        # real GEMM, A's rows scaled by the real and imaginary parts of
        # rho^(1/4) e^(-iEt), is subnormal-free; at d = 1024 on two threads
        # the 5 points fall into strips of 2, 2 and 1 points
        a, spec, beta = ising10["a"], ising10["spec"], 200.0
        q = el.dynamics._gibbs_factor(spec, beta)
        assert np.any((q == 0) & (el.gibbs_weights(spec, beta, 0.25) > 0))
        self._path(monkeypatch, cpus=2)
        times = np.linspace(0, 3, 5)
        h = el.dynamics.OTOC_BLOCK_ROWS
        assert el.dynamics._otoc_plan(spec.dim, times.size) == (h, 2, 2)
        operands = []
        lock = threading.Lock()
        matmul = np.matmul

        def spy(x, y, **kwargs):
            with lock:
                operands.append(np.array(x))
            return matmul(x, y, **kwargs)

        monkeypatch.setattr(np, "matmul", spy)
        el.otoc(a, spec, beta, times)
        assert len(operands) == 3 * -(-spec.dim // h)
        assert sorted({x.shape[0] for x in operands}) == [2 * h, 4 * h]
        tiny = np.finfo(float).tiny
        for x in operands:
            assert x.dtype == float
            assert not np.any((x != 0) & (np.abs(x) < tiny))

    @pytest.mark.parametrize("beta", [0.0, 1.0, 200.0, 400.0])
    @pytest.mark.parametrize("kind", ["ising9"])
    def test_real_path_spans_row_blocks(self, request, kind, beta):
        # the L=9 chain (d = 512, sixteen row blocks): every off-diagonal
        # block of W is formed and counted twice; at beta = 200 and 400
        # states are flushed
        chain = request.getfixturevalue(kind)
        a, spec = chain["a"], chain["spec"]
        assert np.isrealobj(a.matrix)
        assert spec.dim > el.dynamics.OTOC_BLOCK_ROWS
        e = spec.eigenvalues
        logw = -beta * (e - e.min())
        r4 = np.exp(0.25 * logw) / np.exp(logw).sum() ** 0.25
        times = np.array([0.0, 0.9, 2.3])
        direct = []
        for t in times:
            v = r4 * np.exp(1j * e * t)
            # rho^(1/4) A(t) rho^(1/4) A, the diagonal factors as scalings
            x = (v[:, None] * a.matrix * v.conj()) @ a.matrix
            direct.append(np.einsum("ij,ji->", x, x))
        direct = np.array(direct)
        real = el.otoc(a, spec, beta, times)
        cplx = el.otoc(el.OperatorEigenbasis(matrix=a.matrix.astype(complex)),
                       spec, beta, times)
        assert np.abs(real.values - direct).max() <= 1e-12 * np.abs(direct).max()
        assert rel_dev(real.values, cplx.values) <= 1e-13

    @pytest.mark.parametrize("n_times", [1, 7, 31])
    @pytest.mark.parametrize("beta", [0.0, 1.0, 200.0, 400.0])
    @pytest.mark.parametrize("layout,dtype", [
        ("ragged", complex), ("below_one_block", complex), ("stacked", complex),
        ("ragged", float), ("below_one_block", float), ("stacked", float)],
        ids=["ragged", "below_one_block", "stacked",
             "ragged-real", "below_one_block-real", "stacked-real"])
    def test_complex_path_matches_dense_direct_trace(self, monkeypatch, layout,
                                                     dtype, beta, n_times):
        # a complex Hermitian and a real symmetric A through the same
        # layouts on one thread: d = 2h + 13 (two full row blocks and a
        # ragged one), d < h (one block), and d = 16h + 13, where a strip
        # stacks two time points and 7 and 31 points leave a part-filled
        # last strip; at beta = 200 and 400 states are flushed
        h = el.dynamics.OTOC_BLOCK_ROWS
        dim = {"ragged": 2 * h + 13, "below_one_block": 20,
               "stacked": 16 * h + 13}[layout]
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=dim, dos_shape="flat", bandwidth=8.0, seed=dim))
        rng = np.random.default_rng(dim + 1)
        x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
        if dtype is float:
            x = x.real
        a = el.OperatorEigenbasis(matrix=(x + x.conj().T) / 2)
        assert a.matrix.dtype == dtype
        assert (spec.dim < h) == (layout == "below_one_block")
        self._path(monkeypatch, cpus=1)
        _, per, _ = el.dynamics._otoc_plan(dim, n_times)
        assert (per > 1) == (layout == "stacked" and n_times > 1)
        e = spec.eigenvalues
        logw = -beta * (e - e.min())
        r4 = np.exp(0.25 * logw) / np.exp(logw).sum() ** 0.25
        # weights below 1e-290 change nothing at 1e-12 of scale and would
        # only feed subnormal numbers, slowly, into the dense products
        r4[r4 < 1e-290] = 0.0
        times = np.linspace(0.0, 3.0, n_times)
        direct = []
        for t in times:
            u = r4 * np.exp(1j * e * t)
            gu = ((a.matrix * u.conj()) @ a.matrix) * u     # G U
            direct.append(np.einsum("ij,ji->", gu, gu))
        direct = np.array(direct)
        oto = el.otoc(a, spec, beta, times)
        assert np.abs(oto.values - direct).max() <= 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("skew", [0.0, 1e-10])
    def test_imaginary_word_matches_dense_direct_trace(self, skew):
        # the XY word at L=7 has one Y, so its A is imaginary, and the
        # reflection blocks make it exactly Hermitian; skew adds an
        # anti-Hermitian part with ||A - A^H||_F = skew ||A||_F, inside the
        # Hermiticity check, where G_ji = conj(H_ij) holds only to
        # ||A - A^H|| and the value may move by at most 4 ||A||^3 ||A - A^H||
        spec = el.eigendecompose_blocks(
            *el.reflection_blocks(el.SpinChainParams(n_sites=7)))
        word = el.to_eigenbasis(el.LocalObservableSpec(sites=(1, 4),
                                                       paulis="XY"), spec)
        m = word.matrix
        assert np.iscomplexobj(m) and not np.any(m.real)
        x = np.random.default_rng(5).standard_normal(m.shape)
        k = (x - x.T) / 2
        m = m + skew * np.linalg.norm(m) / np.linalg.norm(2 * k) * k
        skewed = m - m.conj().T
        assert np.linalg.norm(skewed) == pytest.approx(skew * np.linalg.norm(m))
        a = el.OperatorEigenbasis(matrix=m)
        assert a.is_hermitian()
        e = spec.eigenvalues
        beta = 1.0
        logw = -beta * (e - e.min())
        r4 = np.exp(0.25 * logw) / np.exp(logw).sum() ** 0.25
        times = np.linspace(0.0, 3.0, 7)
        direct = []
        for t in times:
            u = r4 * np.exp(1j * e * t)
            gu = ((m * u.conj()) @ m) * u
            direct.append(np.einsum("ij,ji->", gu, gu).real)
        direct = np.array(direct)
        oto = el.otoc(a, spec, beta, times)
        bound = 4 * np.linalg.norm(m, 2) ** 3 * np.linalg.norm(skewed, 2)
        assert (bound == 0) == (skew == 0)
        assert np.abs(oto.values - direct).max() <= \
            bound + 1e-12 * np.abs(direct).max()

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_holds_no_square_buffer(self, dtype):
        # at d = 512 G (and H) are formed in strips of at most d/4 rows, so
        # the traced peak stays below one d x d complex array
        spec, a = synth_complex(512, seed=8)
        if dtype is float:
            # the real part of a Hermitian matrix is symmetric
            a = el.OperatorEigenbasis(matrix=np.ascontiguousarray(a.matrix.real))
        square = spec.dim**2 * np.dtype(complex).itemsize
        tracemalloc.start()
        try:
            el.otoc(a, spec, 1.0, np.linspace(0, 3, 7))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < square


    @staticmethod
    def _path(monkeypatch, cpus, blas="1"):
        """Pin the thread rule: ``cpus`` CPUs in the affinity mask and
        ``blas`` BLAS threads."""
        for var in el.dynamics.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", blas)
        monkeypatch.setattr(os, "sched_getaffinity",
                            lambda pid: set(range(cpus)), raising=False)

    def test_thread_count_rule(self, monkeypatch):
        threads = el.dynamics._otoc_threads
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3},
                            raising=False)
        for var in el.dynamics.BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        # no variable set: BLAS already spreads over every CPU
        assert threads(7) == 1
        monkeypatch.setenv("OMP_NUM_THREADS", "1")
        assert threads(7) == 4
        assert threads(3) == 3 and threads(1) == 1 and threads(0) == 1
        # the first positive integer wins, in the order of BLAS_THREAD_VARS
        monkeypatch.setenv("MKL_NUM_THREADS", "2")
        assert threads(7) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "many")
        assert threads(7) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "0")
        assert threads(7) == 2
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        assert threads(7) == 1
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert threads(7) == 4
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "2")
        assert threads(7) == 2
        # one CPU in the mask, as under taskset -c 0
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        assert threads(7) == 1
        # no affinity on this platform: the CPU count
        monkeypatch.delattr(os, "sched_getaffinity")
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        assert threads(7) == 2

    @pytest.mark.parametrize("n_times", [2, 7, 31])
    @pytest.mark.parametrize("dtype", [float, complex])
    @pytest.mark.parametrize("layout", ["stacked", "one_point_strips"])
    def test_threaded_path_matches_single_path(self, monkeypatch, layout,
                                               dtype, n_times):
        # stacked: d = 24h + 13 stacks 3 points per strip on one thread and
        # 2 per strip on two, so 7 and 31 points leave a part-filled last
        # strip and exceed chunk x threads = 6; the GEMMs have other row
        # counts on the two paths, and a BLAS may round a row differently
        # with the row count (OpenBLAS's DGEMM can), so the values agree to
        # rounding. one_point_strips: d = 8h + 13
        # takes one point per strip on either path, so each point runs the
        # same calls on the same operands and the values are bit-identical
        h = el.dynamics.OTOC_BLOCK_ROWS
        dim, chunk = {"stacked": (24 * h + 13, 3),
                      "one_point_strips": (8 * h + 13, 1)}[layout]
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=dim, dos_shape="flat", bandwidth=8.0, seed=dim))
        x = np.random.default_rng(dim + 1).standard_normal((dim, dim, 2))
        x = x[..., 0] + 1j * x[..., 1] if dtype is complex else x[..., 0]
        a = el.OperatorEigenbasis(matrix=(x + x.conj().T) / 2)
        times = np.linspace(0.0, 3.0, n_times)
        chunk = min(chunk, n_times)
        self._path(monkeypatch, cpus=1)
        assert el.dynamics._otoc_plan(dim, n_times) == (h, chunk, 1)
        single = el.otoc(a, spec, 1.0, times).values
        self._path(monkeypatch, cpus=2)
        assert el.dynamics._otoc_plan(dim, n_times) == (h, -(-chunk // 2), 2)
        threaded = el.otoc(a, spec, 1.0, times).values
        assert np.abs(threaded - single).max() <= 1e-15 * np.abs(single).max()
        if layout == "one_point_strips":
            assert np.array_equal(threaded, single)
            # up to eight threads, whatever the number of cores
            self._path(monkeypatch, cpus=8)
            assert el.dynamics._otoc_plan(dim, n_times) == (h, 1, min(8, n_times))
            assert np.array_equal(el.otoc(a, spec, 1.0, times).values, single)

    @pytest.mark.parametrize("cpus", [1, 2, 8])
    @pytest.mark.parametrize("n_times", [1, 2, 7, 31])
    def test_strips_cover_every_point_once(self, monkeypatch, n_times, cpus):
        # the pool hands every time point to exactly one strip of at most
        # per points, in order, on at most n threads, and the n strips in
        # flight hold at most chunk + n - 1 points; the strip sum is replaced
        # by one returning its times, so no operator is needed
        seen = []
        lock = threading.Lock()

        def strip(a, q, e, times, rows):
            with lock:
                seen.append((times.size, rows, threading.get_ident()))
            return times.astype(complex)

        monkeypatch.setattr(el.dynamics, "_otoc_strip", strip)
        self._path(monkeypatch, cpus)
        h = el.dynamics.OTOC_BLOCK_ROWS
        for dim in (20, 8 * h + 13, 40 * h + 13, 4096):
            seen.clear()
            rows, per, n = el.dynamics._otoc_plan(dim, n_times)
            chunk = max(1, min(n_times, dim // (8 * rows)))
            assert n == min(n_times, cpus)
            assert n * per <= chunk + n - 1
            times = np.linspace(0, 3, n_times)
            a = np.broadcast_to(0.0, (dim, dim))
            vals = el.dynamics._otoc_sum(a, None, None, times)
            assert np.array_equal(vals, times)
            assert all(0 < k <= per and r == rows for k, r, _ in seen)
            assert len(seen) == -(-n_times // per)
            assert len({ident for _, _, ident in seen}) <= n
        # no time point, no strip
        assert el.dynamics._otoc_sum(a, None, None, np.zeros(0)).shape == (0,)

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_threaded_strips_stay_within_bound(self, monkeypatch, dtype):
        # the n strips in flight and their products hold at most
        # 2h (chunk + n - 1) rows of d entries each: at d = 40h + 13 and
        # 7 points chunk = 5, and two threads take strips of 3, so
        # 6 x 2h rows, not the 10 x 2h of a full chunk per thread.
        # Beyond them each thread holds a few d-entry vectors per point and
        # the buffers of numpy's ufunc iterator, 3 x np.getbufsize() entries
        h = el.dynamics.OTOC_BLOCK_ROWS
        dim = 40 * h + 13
        spec, a = synth_complex(dim, seed=9)
        if dtype is float:
            a = el.OperatorEigenbasis(matrix=np.ascontiguousarray(a.matrix.real))
        times = np.linspace(0, 3, 7)
        self._path(monkeypatch, cpus=2)
        chunk, per, n = 5, 3, 2
        assert el.dynamics._otoc_plan(dim, times.size) == (h, per, n)
        assert n * per == chunk + n - 1
        item, c16 = np.dtype(dtype).itemsize, np.dtype(complex).itemsize
        bound = 2 * 2 * h * n * per * dim * item
        full = 2 * 2 * h * 2 * chunk * dim * item
        others = (6 * times.size * dim + 2 * 3 * np.getbufsize()) * c16
        assert bound + others < full
        tracemalloc.start()
        try:
            el.otoc(a, spec, 1.0, times)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound + others

    @pytest.mark.parametrize("dtype", [float, complex])
    def test_one_point_takes_taller_blocks(self, dtype):
        # one point takes h = max(32, d/16) = 64 at d = 32h + 13 (a ragged
        # last block); two points keep h = 32, so both sums agree to
        # rounding and with the dense trace
        h = el.dynamics.OTOC_BLOCK_ROWS
        dim = 32 * h + 13
        plan = el.dynamics._otoc_plan
        assert plan(dim, 1)[0] == 2 * h
        assert plan(dim, 2)[0] == h
        assert plan(20, 1)[0] == 20
        spec, a = synth_complex(dim, seed=4)
        if dtype is float:
            a = el.OperatorEigenbasis(matrix=np.ascontiguousarray(a.matrix.real))
        t = 1.3
        one = el.otoc(a, spec, 1.0, np.array([t])).values
        two = el.otoc(a, spec, 1.0, np.array([t, 2.0])).values
        e = spec.eigenvalues
        r4 = np.exp(-0.25 * (e - e.min()))
        r4 /= np.sum(r4**4) ** 0.25
        u = r4 * np.exp(1j * e * t)
        gu = ((a.matrix * u.conj()) @ a.matrix) * u
        direct = np.einsum("ij,ji->", gu, gu)
        assert abs(one[0] - two[0]) <= 1e-14 * abs(two[0])
        assert abs(one[0] - direct) <= 1e-12 * abs(direct)


class TestSpectralDensities:
    def test_identity_vanishes(self, ising8):
        a = el.OperatorEigenbasis(matrix=np.eye(256))
        sd = densities(a, ising8["spec"], 1.0, 0.1,
                       np.linspace(-5, 5, 101))
        assert np.abs(sd.f_values).max() <= 1e-12
        assert np.abs(sd.rho_values).max() <= 1e-12

    def test_parity(self, ising8):
        om = np.linspace(-8, 8, 321)  # symmetric grid
        sd = densities(ising8["a"], ising8["spec"], 1.0, 0.1, om)
        assert np.abs(sd.f_values - sd.f_values[::-1]).max() <= \
            1e-10 * sd.f_values.max()
        assert np.abs(sd.rho_values + sd.rho_values[::-1]).max() <= \
            1e-10 * np.abs(sd.rho_values).max()

    def test_sum_rule(self, ising8):
        # integral of F equals the connected symmetric correlator at t = 0
        spec, a = ising8["spec"], ising8["a"]
        band = spec.bandwidth
        om = np.linspace(-1.2 * band, 1.2 * band, 4001)
        sd = densities(a, spec, 1.0, 0.1, om)
        total = np.trapezoid(sd.f_values, om)
        _, fsym, _ = correlators(a, spec, 1.0, np.array([0.0]))
        target = fsym.values[0].real
        assert abs(total - target) <= 0.01 * abs(target)

    def test_under_resolved_sigma_rejected(self, ising8):
        measure = el.pair_measure(ising8["a"], ising8["spec"], 1.0,
                                  el.measure_width(0.1, 0.0))
        with pytest.raises(el.ValidationError, match="under-resolved"):
            measure.spectral_densities(1e-4, np.linspace(-1, 1, 11))

    def test_sigma_one_level_spacing_boundary(self, ising8):
        spacing = el.mean_level_spacing(ising8["spec"].eigenvalues)
        om = np.linspace(-1, 1, 11)
        with pytest.raises(el.ValidationError):
            densities(ising8["a"], ising8["spec"], 1.0,
                      0.99 * spacing, om)
        densities(ising8["a"], ising8["spec"], 1.0,
                  1.01 * spacing, om)

    @pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 2.0])
    def test_windowed_matches_dense_sum_ising(self, ising8, beta):
        self._check_against_dense(ising8["a"], ising8["spec"], beta)

    def test_windowed_matches_dense_sum_complex(self):
        spec, a = synth_complex(256, seed=7)
        self._check_against_dense(a, spec, 1.0)

    @staticmethod
    def _check_against_dense(a, spec, beta):
        sigma = 0.1
        band = spec.bandwidth
        # asymmetric grid through w = 0, running past the largest pair
        # frequency so that the outermost windows hold no peak at all
        om = sigma * np.arange(-round(1.1 * band / sigma),
                               round(1.4 * band / sigma) + 1)
        sd = densities(a, spec, beta, sigma, om)
        f_ref, r_ref = dense_broadened(a, spec, beta, sigma, om)
        assert om.max() > band + 9 * sigma and 0.0 in om
        scale = np.abs(f_ref).max()
        assert np.abs(sd.f_values - f_ref).max() <= 1e-12 * scale
        assert np.abs(sd.rho_values - r_ref).max() <= 1e-12 * scale

    def test_broadened_symmetric_density_nonnegative(self, ising8):
        band = ising8["spec"].bandwidth
        om = np.linspace(-0.8 * band, 0.8 * band, 801)
        sd = densities(ising8["a"], ising8["spec"], 1.0, 0.1, om)
        assert sd.f_values.min() >= -1e-12 * sd.f_values.max()

    def test_peak_level_identity_exact(self, ising8):
        freqs, f_w, r_w = spectral_peaks(ising8["a"], ising8["spec"], 1.0)
        nz = np.abs(freqs) > 1e-12
        coth = 1.0 / np.tanh(1.0 * freqs[nz] / 2.0)
        dev = np.abs(f_w[nz] - 2.0 * coth * r_w[nz])
        assert dev.max() <= 1e-10 * f_w[nz].max()

    def test_peaks_are_a_half_comb(self, ising8):
        spec, a = ising8["spec"], ising8["a"]
        d = spec.dim
        freqs, f_w, r_w = spectral_peaks(a, spec, 1.0)
        assert freqs.shape == f_w.shape == r_w.shape == (d * (d - 1) // 2 + 1,)
        assert freqs.min() >= 0.0
        rho = el.gibbs_weights(spec, 1.0)
        diag = np.diagonal(a.matrix).real
        assert freqs[-1] == 0.0 and r_w[-1] == 0.0
        assert f_w[-1] == pytest.approx(rho @ diag**2 - (rho @ diag) ** 2)
        # the pairs are the upper triangle, row-major
        m, n = np.triu_indices(d, 1)
        assert np.array_equal(freqs[:-1], spec.eigenvalues[n] - spec.eigenvalues[m])

    def test_dense_window_flat_spectrum_matches_exact_sum(self):
        # bandwidth 1 and sigma 0.08: the 9-sigma window of every omega holds
        # most of the pairs; the reference sums every peak exactly
        d, sigma, beta = 512, 0.08, 1.0
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=d, dos_shape="flat", bandwidth=1.0, seed=5))
        ent = el.EntropyModel.constant(np.log(d), spec.eigenvalues[0],
                                       spec.eigenvalues[-1])
        a = el.synth_eth_operator(
            spec, ent, el.EnvelopeSpec(form="exp_decay", gamma=0.25, f0=1.0),
            seed=6)
        om = np.linspace(-1.2, 1.2, 25)
        sd = densities(a, spec, beta, sigma, om)
        e = spec.eigenvalues
        rho = el.gibbs_weights(spec, beta)
        abs2 = np.abs(a.matrix) ** 2
        off = ~np.eye(d, dtype=bool)
        freqs = (e[None, :] - e[:, None])[off]
        f_w = (0.5 * (rho[:, None] + rho[None, :]) * abs2)[off]
        r_w = (0.25 * (rho[:, None] - rho[None, :]) * abs2)[off]
        diag = np.real(np.diagonal(a.matrix))
        diag_w = rho @ diag**2 - (rho @ diag) ** 2
        norm = 1.0 / (math.sqrt(2 * math.pi) * sigma)
        f_ref, r_ref = [], []
        for w in om:
            kern = norm * np.exp(-0.5 * ((w - freqs) / sigma) ** 2)
            f_ref.append(math.fsum(kern * f_w) +
                         diag_w * norm * math.exp(-0.5 * (w / sigma) ** 2))
            r_ref.append(math.fsum(kern * r_w))
        scale = max(abs(x) for x in f_ref)
        assert np.abs(sd.f_values - f_ref).max() <= 1e-13 * scale
        assert np.abs(sd.rho_values - r_ref).max() <= 1e-13 * scale

    def test_unsorted_nonuniform_grid(self, ising8):
        spec, a = ising8["spec"], ising8["a"]
        band = spec.bandwidth
        rng = np.random.default_rng(3)
        om = np.append(rng.uniform(-1.3 * band, 1.3 * band, 60), 0.0)
        assert np.any(np.diff(om) < 0)
        sd = densities(a, spec, 1.0, 0.1, om)
        f_ref, r_ref = dense_broadened(a, spec, 1.0, 0.1, om)
        scale = np.abs(f_ref).max()
        assert np.abs(sd.f_values - f_ref).max() <= 1e-12 * scale
        assert np.abs(sd.rho_values - r_ref).max() <= 1e-12 * scale

    @pytest.mark.parametrize("levels", [[0.0, 0.25, 0.3, 1.03],
                                        [0.0, 0.25, 0.5, 2.0]])
    def test_pairs_at_the_largest_frequency_and_on_bin_edges(self, levels):
        # sigma/B = 1/64: w = 0.25 sits on a bin edge, and so does the
        # largest frequency 2.0 of the second spectrum
        spec = el.EnergySpectrum(np.array(levels))
        a = el.OperatorEigenbasis(matrix=np.array(
            [[0.3, 1.0, 0.5, 0.7], [1.0, -0.2, 0.9, 0.4],
             [0.5, 0.9, 0.1, 0.8], [0.7, 0.4, 0.8, -0.6]]))
        sigma = 0.25
        width = sigma / el.dynamics.BROADENING_BINS
        assert (0.25 / width).is_integer() and (2.0 / width).is_integer()
        om = np.linspace(-5.0, 5.0, 81)
        sd = densities(a, spec, 1.0, sigma, om)
        f_ref, r_ref = dense_broadened(a, spec, 1.0, sigma, om)
        scale = np.abs(f_ref).max()
        assert np.abs(sd.f_values - f_ref).max() <= 1e-13 * scale
        assert np.abs(sd.rho_values - r_ref).max() <= 1e-13 * scale

    def test_measure_bins_the_half_comb(self, ising8):
        # moment n of bin k sums weight * s^n/n! over the pairs of the half
        # comb in [k h, (k + 1) h), s their offset from the centre in units
        # of h; the diagonal keeps its connected weight and <A>
        spec, a = ising8["spec"], ising8["a"]
        h = el.measure_width(0.1, 0.0)
        measure = el.pair_measure(a, spec, 1.0, h)
        freqs, f_w, r_w = (x[:-1] for x in spectral_peaks(a, spec, 1.0))
        u = el.gibbs_weights(spec, 1.0, 0.5)
        m, n = np.triu_indices(spec.dim, 1)
        p_w = u[m] * u[n] * np.abs(a.matrix[m, n]) ** 2
        k = np.floor(freqs / h).astype(int)
        s = freqs / h - k - 0.5
        bins = measure.moments.shape[-1]
        assert bins == int(spec.bandwidth / h) + 1
        for weights, moments in zip((p_w, f_w, r_w), measure.moments):
            for order, row in enumerate(moments):
                want = np.bincount(k, weights * s**order / math.factorial(order),
                                   minlength=bins)
                assert np.abs(row - want).max() <= 1e-15 * np.abs(weights).sum()
        rho = el.gibbs_weights(spec, 1.0)
        diag = np.diagonal(a.matrix).real
        assert measure.mean == pytest.approx(rho @ diag, rel=1e-14)
        assert measure.connected == pytest.approx(
            rho @ diag**2 - (rho @ diag) ** 2, rel=1e-14)


class TestPairMeasure:
    def test_width_rule(self):
        # sigma_omega/16 wherever sigma_omega * t_max <= 2, else 1/(8 t_max)
        assert el.measure_width(0.08, 6.0) == 0.08 / 16
        assert el.measure_width(0.05, 0.0) == 0.05 / 16
        assert el.measure_width(0.3, 40.0) == 1 / 320

    def test_each_evaluation_refuses_a_coarse_table(self, ising8):
        h = 0.01
        measure = el.pair_measure(ising8["a"], ising8["spec"], 1.0, h)
        reach = 1 / (8 * h)    # h |t|/2 <= 1/16
        measure.thermal_correlators(np.array([0.0, -reach, reach]))
        with pytest.raises(el.ValidationError, match="serves \\|t\\|"):
            measure.thermal_correlators(np.array([0.0, 1.001 * reach]))
        om = np.linspace(-1.0, 1.0, 5)
        measure.spectral_densities(16 * h, om)
        with pytest.raises(el.ValidationError, match="serves sigma_omega"):
            measure.spectral_densities(15.9 * h, om)

    def test_bin_cap_refused_before_the_walk(self, ising8, monkeypatch):
        def walk_must_not_run(self):
            raise AssertionError("the pair table was walked")

        monkeypatch.setattr(el.OperatorEigenbasis, "upper_pairs", walk_must_not_run)
        width = ising8["spec"].bandwidth / el.dynamics.PAIR_BIN_CAP
        with pytest.raises(el.CostGuardError, match="above the cap of 1048576"):
            el.pair_measure(ising8["a"], ising8["spec"], 1.0, width)
        with pytest.raises(el.ValidationError):
            el.pair_measure(ising8["a"], ising8["spec"], 1.0, 0.0)

    def test_large_sigma_t_matches_the_dense_sums(self, ising8):
        # sigma_omega * t_max = 12: the time-side bound sets h = 1/(8 t_max),
        # six times below sigma_omega/16, and one table serves both sides;
        # the dense sums carry the rounding of phases E_m t up to 300, about
        # 3.6e-14 of F2, and the table agrees with extended precision to 1.4e-15
        spec, a = ising8["spec"], ising8["a"]
        sigma, times = 0.3, np.linspace(0.0, 40.0, 161)
        h = el.measure_width(sigma, times.max())
        assert h == 1 / 320 and sigma / h == pytest.approx(96)
        measure = el.pair_measure(a, spec, 1.0, h)
        binned = measure.thermal_correlators(times)
        for series, ref in zip(binned, dense_correlators(a, spec, 1.0, times)):
            assert np.abs(series.values - ref).max() <= 1e-13 * np.abs(ref).max()
        om = np.linspace(-1.1 * spec.bandwidth, 1.1 * spec.bandwidth, 221)
        sd = measure.spectral_densities(sigma, om)
        f_ref, r_ref = dense_broadened(a, spec, 1.0, sigma, om)
        scale = np.abs(f_ref).max()
        assert np.abs(sd.f_values - f_ref).max() <= 1e-13 * scale
        assert np.abs(sd.rho_values - r_ref).max() <= 1e-13 * scale


class TestFdtCheck:
    def test_infinite_temperature_flagged(self, ising8):
        sd = densities(ising8["a"], ising8["spec"], 0.0, 0.1,
                       np.linspace(-5, 5, 201))
        res = el.fdt_check(sd)
        assert res.degenerate_beta and res.empty
        assert math.isnan(res.max_rel_dev)

    def test_coth_asymptote_high_frequency(self):
        # at beta*w/2 = 10 the relation reduces to F = 2*rho up to exp(-20)
        beta, w = 2.0, 10.0
        coth = 1.0 / math.tanh(beta * w / 2.0)
        # coth(x) - 1 = 2 exp(-2x) / (1 - exp(-2x))
        assert abs(2 * coth - 2.0) <= 5 * math.exp(-2 * beta * w / 2.0)

    def test_ising_deviation_small(self, ising8):
        band = ising8["spec"].bandwidth
        om = np.linspace(-0.6 * band, 0.6 * band, 1201)
        for beta in (0.5, 1.0, 2.0):
            sd = densities(ising8["a"], ising8["spec"], beta,
                           0.05, om)
            res = el.fdt_check(sd)
            assert not res.empty
            assert res.max_rel_dev <= 0.05

    def test_empty_admissible_set_flagged(self, ising8):
        om = np.linspace(-0.1, 0.1, 11)  # entirely inside the 4-sigma guard
        sd = densities(ising8["a"], ising8["spec"], 1.0, 0.05, om)
        res = el.fdt_check(sd)
        assert res.empty


class TestFitLyapunov:
    # a dissipation time far below every fitted t_s, for the fits whose
    # hierarchy is not under test
    T_D = 0.5

    def _series(self, t, values):
        return el.CorrelatorSeries(kind="OTOC", times=t,
                                   values=np.asarray(values, complex))

    def test_noiseless_recovery(self):
        lam, t_s = 1.5, 10.0
        t = np.linspace(4, 8, 81)
        fit = el.fit_lyapunov(self._series(t, 1 - np.exp(lam * (t - t_s))),
                              1.0, 0.0, (4, 8), self.T_D)
        assert fit.t_d == self.T_D
        assert abs(fit.lam - lam) <= 1e-8
        assert abs(fit.t_s - t_s) <= 1e-8
        assert fit.residual_rms <= 1e-10
        assert fit.reliability == "exact"

    def test_noisy_recovery_within_two_percent(self):
        lam, t_s = 1.5, 10.0
        rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
        t = np.linspace(7, 9.5, 51)
        noisy = 1 - np.exp(lam * (t - t_s)) + 1e-3 * rng.standard_normal(t.size)
        fit = el.fit_lyapunov(self._series(t, noisy), 1.0, 0.0, (7, 9.5),
                              self.T_D)
        assert abs(fit.lam - lam) / lam <= 0.02
        assert abs(fit.t_s - t_s) / t_s <= 0.02

    def test_constant_rejected_as_non_growing(self):
        t = np.linspace(4, 8, 41)
        with pytest.raises(el.FitRejectedError):
            el.fit_lyapunov(self._series(t, np.full(t.size, 0.3)), 1.0, 0.0,
                            (4, 8), self.T_D)

    def test_window_past_scrambling_rejected(self):
        lam, t_s = 1.5, 10.0
        t = np.linspace(8, 12, 41)
        with pytest.raises(el.FitRejectedError):
            el.fit_lyapunov(self._series(t, 1 - np.exp(lam * (t - t_s))),
                            1.0, 0.0, (8, 12), self.T_D)

    def test_nonpositive_growth_in_window_rejected(self):
        t = np.linspace(0, 4, 21)
        vals = 1.0 + 0.1 * np.cos(t)  # f > 1 means 1 - f < 0
        with pytest.raises(el.FitRejectedError):
            el.fit_lyapunov(self._series(t, vals), 1.0, 0.0, (0, 4), self.T_D)

    def test_hierarchy_enforced_with_two_point(self, ising8):
        # a real-chain two-point series decays fast; t_d lands near t=0 and
        # a synthetic scrambling time past the window keeps the hierarchy;
        # on the unit grid the 1/e crossing falls in the first interval
        lam, t_s = 1.5, 12.0
        t = np.linspace(0, 8, 81)
        for grid in (t, t[::10]):
            f2 = correlators(ising8["a"], ising8["spec"], 1.0, grid)[0]
            t_d = el.dissipation_time(f2)
            fit = el.fit_lyapunov(self._series(t, 1 - np.exp(lam * (t - t_s))),
                                  1.0, 0.0, (4, 8), t_d)
            assert fit.t_d == t_d
            assert fit.t_d < fit.t_s
        assert 0 < t_d < grid[1]

    def test_broken_hierarchy_rejected(self):
        # t_d at or past the fitted scrambling time leaves no window of
        # exponential growth: rejected, with both times in the reason
        lam, t_s = 1.5, 10.0
        t = np.linspace(4, 8, 81)
        series = self._series(t, 1 - np.exp(lam * (t - t_s)))
        fitted = el.fit_lyapunov(series, 1.0, 0.0, (4, 8), self.T_D).t_s
        for t_d in (fitted, 12.0):
            with pytest.raises(el.FitRejectedError) as err:
                el.fit_lyapunov(series, 1.0, 0.0, (4, 8), t_d)
            assert str(err.value) == (
                f"no valid hierarchy: t_d={t_d:g} >= t_s={fitted:g}")


class TestFluctuations:
    def test_diagonal_operator_zero(self, ising8):
        spec = ising8["spec"]
        a = el.OperatorEigenbasis(matrix=np.diag(np.tanh(spec.eigenvalues)))
        p = el.gaussian_wavepacket(spec, 0.0, 2.0)
        assert el.dynamical_fluctuation(a, p) == 0.0

    @pytest.mark.parametrize("center,sigma", [(0.0, 2.0), (-5.0, 0.3), (4.0, 1.0)])
    def test_wavepacket_populations_are_a_normalized_gaussian(self, ising8,
                                                              center, sigma):
        e = ising8["spec"].eigenvalues
        p = el.gaussian_wavepacket(ising8["spec"], center, sigma)
        assert p.shape == e.shape and np.all(p >= 0)
        assert abs(p.sum() - 1.0) <= 1e-15
        # the log-ratio to the peak population is the Gaussian exponent
        peak = np.argmax(p)
        live = p > 1e-250
        want = -((e[live] - center) ** 2 - (e[peak] - center) ** 2) / (2 * sigma**2)
        got = np.log(p[live] / p[peak])
        assert np.abs(got - want).max() <= 1e-12 * max(1.0, np.abs(want).max())

    @pytest.mark.parametrize("center,sigma", [(0.0, 2.0), (-5.0, 0.3), (4.0, 1.0)])
    def test_wavepacket_matches_the_closed_form(self, ising8, center, sigma):
        # the populations are the spectral Gaussian kernel's row at the centre
        e = ising8["spec"].eigenvalues
        p = el.gaussian_wavepacket(ising8["spec"], center, sigma)
        q = np.exp(-((e - center) ** 2) / (2.0 * sigma**2))
        q /= q.sum()
        assert np.abs(p - q).max() <= 1e-15 * q.max()

    def test_wavepacket_without_support_refused(self, ising8):
        with pytest.raises(el.ValidationError, match="no support"):
            el.gaussian_wavepacket(ising8["spec"], 1e3, 0.1)

    @pytest.mark.parametrize("sigma", [0.0, -0.1, math.inf, math.nan])
    def test_wavepacket_width_must_be_positive_and_finite(self, ising8, sigma):
        # at width 0 a state at the center exactly would weigh 0/0 = NaN
        center = float(ising8["spec"].eigenvalues[100])
        with pytest.raises(el.ValidationError, match="positive and finite"):
            el.gaussian_wavepacket(ising8["spec"], center, sigma)

    def test_single_eigenstate_zero(self, ising8):
        p = np.zeros(256)
        p[128] = 1.0
        assert el.dynamical_fluctuation(ising8["a"], p) == \
            pytest.approx(0.0, abs=1e-300)

    def test_matches_long_time_average(self, ising8):
        spec, a = ising8["spec"], ising8["a"]
        ent = el.entropy_model(spec)
        center = ent.grid_energies[np.argmax(ent.grid_entropy)]
        p = el.gaussian_wavepacket(spec, center, 0.1 * spec.bandwidth)
        value = el.dynamical_fluctuation(a, p)
        # direct time evolution of a state with these populations and
        # random phases, uniform sampling over T = 1e4
        rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
        c = np.sqrt(p) * np.exp(2j * math.pi * rng.random(p.size))
        a_inf = float(np.dot(p, np.real(np.diagonal(a.matrix))))
        total, m_samples = 0.0, 100001
        ts = np.linspace(0.0, 1e4, m_samples)
        for s in range(0, m_samples, 4000):
            tt = ts[s:s + 4000]
            evolved = c[:, None] * np.exp(-1j * np.outer(spec.eigenvalues, tt))
            av = np.einsum("it,it->t", evolved.conj(),
                           a.matrix @ evolved).real
            total += np.sum((av - a_inf) ** 2)
        direct = total / m_samples
        assert abs(value - direct) <= 0.05 * direct

    def test_static_identity_zero(self, ising8):
        a = el.OperatorEigenbasis(matrix=np.eye(256))
        assert el.static_fluctuation(a, 10) == 0.0

    def test_static_pauli_word_range(self, ising8):
        a = ising8["a"]
        for n in (0, 77, 200):
            val = el.static_fluctuation(a, n)
            expect = 1.0 - np.real(a.matrix[n, n]) ** 2
            assert val == pytest.approx(expect, abs=1e-10)
            assert 0.0 <= val <= 1.0

    def test_static_two_formulas_agree(self, ising8):
        a = ising8["a"]
        for n in (5, 100, 250):
            s1 = el.static_fluctuation(a, n)
            s2 = static_fluctuation_variance_form(a, n)
            assert abs(s1 - s2) <= 1e-12 * max(abs(s1), 1e-300)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_static_two_formulas_agree_random(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        a = el.OperatorEigenbasis(matrix=x + x.conj().T)
        n = int(rng.integers(0, 24))
        s1 = el.static_fluctuation(a, n)
        s2 = static_fluctuation_variance_form(a, n)
        assert abs(s1 - s2) <= 1e-11 * max(abs(s1), 1.0)

    def test_diagonal_operator_zero_all_seeds(self, ising8):
        spec = ising8["spec"]
        a = el.OperatorEigenbasis(matrix=np.diag(np.tanh(spec.eigenvalues)))
        # packets centred across the whole spectrum: no cancellation anywhere
        e = spec.eigenvalues
        for center in np.linspace(e[0], e[-1], 200):
            p = el.gaussian_wavepacket(spec, center, 2.0)
            assert el.dynamical_fluctuation(a, p) == 0.0, center

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 2**31 - 1))
    def test_dynamical_nonnegative_random(self, seed):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed)))
        x = rng.standard_normal((24, 24)) + 1j * rng.standard_normal((24, 24))
        # strongly diagonal operators are where a cancellation would go
        # negative; scale the off-diagonal part down over many decades
        h = x + x.conj().T
        diag = np.diag(np.diagonal(h))
        scale = 10.0 ** -rng.uniform(0, 9)
        a = el.OperatorEigenbasis(matrix=diag + scale * (h - diag))
        c = rng.standard_normal(24) + 1j * rng.standard_normal(24)
        p = np.abs(c) ** 2
        assert el.dynamical_fluctuation(a, p / p.sum()) >= 0.0

    def test_static_nearly_diagonal_direct_sum(self):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(7)))
        d = 256
        x = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        off = 1e-9 * (x + x.conj().T)
        np.fill_diagonal(off, 0.0)
        a = el.OperatorEigenbasis(
            matrix=np.diag(rng.uniform(-1, 1, d)) + off)
        for n in (0, 100, 255):
            direct = sum(abs(a.matrix[m, n]) ** 2 for m in range(d) if m != n)
            val = el.static_fluctuation(a, n)
            assert abs(val - direct) <= 1e-12 * direct


class TestStaticFluctIntegral:
    def test_symmetric_exponential(self):
        assert el.static_fluct_integral(math.pi, 0.0) == pytest.approx(2.0)

    def test_closed_form_value(self):
        assert el.static_fluct_integral(math.pi, 1.0) == \
            pytest.approx(8.0 / 3.0, rel=1e-14)

    def test_matches_quadrature(self):
        for lam, beta in ((math.pi, 1.0), (1.0, 0.5), (2.0, 1.5), (5.0, 0.1)):
            if math.pi / lam <= beta / 2:
                continue
            val = el.static_fluct_integral(lam, beta)
            quad = sum(scipy.integrate.quad(
                lambda w: math.exp(beta * w / 2 - math.pi * abs(w) / lam),
                a, b, epsabs=1e-13, epsrel=1e-12)[0]
                for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
            assert abs(val - quad) <= 1e-6 * quad

    def test_divergence_exactly_at_chaos_bound(self):
        beta = 0.8
        with pytest.raises(el.DivergentIntegralError):
            el.static_fluct_integral(2 * math.pi / beta, beta)
        el.static_fluct_integral(2 * math.pi / beta * 0.999, beta)  # finite

    def test_monotone_growth_toward_saturation(self):
        beta = 1.0
        lams = np.linspace(0.5, 0.98, 12) * 2 * math.pi / beta
        vals = [el.static_fluct_integral(l, beta) for l in lams]
        assert np.all(np.diff(vals) > 0)

    def test_invalid_rate(self):
        with pytest.raises(el.ValidationError):
            el.static_fluct_integral(0.0, 1.0)

    def test_infinite_rate_refused(self):
        # the divergence message states 2*pi/beta, so beta = 0 must never
        # reach it; only an infinite rate would diverge there
        with pytest.raises(el.ValidationError, match="finite"):
            el.static_fluct_integral(math.inf, 0.0)


class TestFluctuationBounds:
    @staticmethod
    def _bounds(s, beta, omega, eps_code=0.0, d=0, *, lam_fit=None, gamma=None,
                measured_dynamical=0.0, measured_static=0.0):
        """check_bounds on a two-state code (k=1) at separation ``omega``
        with code error ``eps_code``, in an entropy model constant at ``s``."""
        pref = 2.0 ** (d + 2)
        eps_max = (eps_code / pref) ** 2
        report = el.KlResidualReport(
            members=(0, 1), k=1, d=d, c_a=1.0,
            epsilon=np.array([[0.0, eps_max], [eps_max, 0.0]]),
            eps_max=eps_max, eps_code=eps_code,
            member_energies=np.array([0.0, omega]), diagonal_spread=0.0)
        ent = el.EntropyModel.constant(s, -1.0, 1.0 + omega)
        return el.check_bounds(report, ent, beta, lam_fit=lam_fit, gamma=gamma,
                               measured_dynamical=measured_dynamical,
                               measured_static=measured_static)

    def test_substitution_identity(self):
        # with eps_code on its ceiling the two dynamical bounds coincide
        s, lam, omega, d, k = 7.0, 1.3, 2.2, 1, 1
        eps = el.code_error_bound(s, lam, omega, d, k)
        rep = self._bounds(s, 1.0, omega, eps, d, lam_fit=lam)
        assert abs(rep.dynamical_bound_rate - rep.dynamical_bound_code) <= \
            1e-10 * rep.dynamical_bound_rate

    def test_unit_bound_at_origin(self):
        rep = self._bounds(0.0, 1.0, 0.0, lam_fit=3.0)
        assert rep.dynamical_bound_rate == pytest.approx(1.0)

    def test_divergence_flag_matches_condition(self):
        # an infinite bound gives the ratio 0 under the one ratio rule
        rep = self._bounds(1.0, 1.0, 0.5, lam_fit=2 * math.pi, measured_static=0.5)
        assert rep.static_divergent
        assert rep.slack_ratios["static"] == 0.0 and rep.flags["static"]
        rep2 = self._bounds(1.0, 1.0, 0.5, lam_fit=math.pi)
        assert not rep2.static_divergent

    def test_measured_ratios_reported(self):
        rep = self._bounds(2.0, 1.0, 0.0, lam_fit=2.0,
                           measured_dynamical=1e-3, measured_static=0.5)
        assert rep.slack_ratios["dynamical_rate"] == \
            pytest.approx(1e-3 / rep.dynamical_bound_rate, rel=1e-15)
        assert rep.slack_ratios["static"] == \
            pytest.approx(0.5 / rep.static_bound, rel=1e-15)

    @pytest.mark.parametrize("ratios, within", [
        ({"dynamical_rate": 0.5, "dynamical_code": 1.6e14, "static": 2.0}, True),
        ({"dynamical_rate": 0.5, "dynamical_code": 0.1, "static": 11.0}, False),
        ({"dynamical_rate": 10.5, "static": 2.0}, False),
    ])
    def test_only_rate_and_static_ratios_gate(self, ratios, within):
        # measured values and code errors set to give the ratios, the code
        # form's measured / dynamical_bound_code among them; that form is a
        # reference value with no ratio and no flag, so it never gates (a
        # zero code error leaves it at 0)
        s, beta, omega, lam = 2.0, 1.0, 0.5, 2.0
        ref = self._bounds(s, beta, omega, lam_fit=lam)
        dyn = ratios["dynamical_rate"] * ref.dynamical_bound_rate
        rel2 = dyn / ratios["dynamical_code"] * math.exp(s / 2) \
            if "dynamical_code" in ratios else 0.0
        rep = self._bounds(
            s, beta, omega, 4.0 * math.sqrt(rel2), lam_fit=lam,
            measured_dynamical=dyn,
            measured_static=ratios["static"] * ref.static_bound)
        if rel2:
            assert dyn / rep.dynamical_bound_code == pytest.approx(
                ratios["dynamical_code"], rel=1e-12)
        else:
            assert rep.dynamical_bound_code == 0.0
        gating = {name: ratios[name] for name in ("dynamical_rate", "static")}
        assert {name: rep.slack_ratios[name] for name in gating} == \
            pytest.approx(gating, rel=1e-12)
        assert "dynamical_code" not in rep.slack_ratios
        assert {name: rep.flags[name] for name in gating} == {
            name: ratio <= 10.0 for name, ratio in gating.items()}
        assert rep.all_within_slack is within

    def test_fdt_forms_past_cosh_range(self):
        # beta*w/2 = 720 overflows cosh alone, yet the rate form
        # 4*pi*cosh(720)*e^-30 is finite; a code form beyond the double
        # range comes back inf, one inside it finite
        beta, omega, lam = 1440.0, 1.0, math.pi / 30.0
        rep = self._bounds(1.0, beta, omega, 4.0 * math.exp(-1.0), lam_fit=lam)
        assert rep.fdt_bound_rate == pytest.approx(2 * math.pi * math.exp(690.0),
                                                   rel=1e-12)
        assert rep.fdt_bound_code == math.inf
        rep = self._bounds(1.0, beta, omega, 4.0 * math.exp(-360.0), lam_fit=lam)
        assert rep.fdt_bound_code == pytest.approx(
            2 * math.pi * math.exp(720.0 + 0.5 - 720.0), rel=1e-12)

    def test_synthetic_ensemble_within_slack(self):
        # mid-spectrum wavepacket fluctuations sit below the rate bound; a
        # packet is its populations, so the ensemble is one of centres
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=2048, dos_shape="flat", bandwidth=4.0, seed=23))
        gamma = 0.25
        op = el.synth_eth_operator(spec, el.EntropyModel.constant(np.log(2048), 0, 4),
                                   el.EnvelopeSpec(gamma=gamma), seed=29)
        ok = 0
        for center in np.linspace(1.5, 2.5, 20):
            p = el.gaussian_wavepacket(spec, center, 0.2)
            measured = el.dynamical_fluctuation(op, p)
            rep = self._bounds(math.log(2048), 1.0, 0.0, gamma=gamma,
                               measured_dynamical=measured)
            assert rep.lambda_source == "envelope-implied"
            ok += rep.flags["dynamical_rate"]
        assert ok >= 19
