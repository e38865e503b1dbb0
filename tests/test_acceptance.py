"""Acceptance suite: one test and one printed verdict line per criterion.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict lines.
The heavy chain-statistics criterion builds an L=12 chain once per module.
"""

import math
import os

import numpy as np
import pytest
import scipy.integrate
import scipy.linalg

import ethlab as el
from ethlab.cli import main as cli_main
from ethlab.config import demo_config
from ethlab.io import load_json
from conftest import correlators, densities
from dynamics_reference import spectral_peaks
from ising_reference import restrict_to_reflection_sector
from pauli_reference import build_local_observable


def verdict(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num:2d} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ising12_sector():
    spec = el.eigendecompose_blocks(*el.reflection_blocks(el.SpinChainParams(n_sites=12)))
    a = el.to_eigenbasis(el.LocalObservableSpec(sites=(0,), paulis="Z"), spec)
    sub_spec, sub_a = restrict_to_reflection_sector(spec, a, parity=1)
    return sub_spec, sub_a


def test_criterion_01_closed_form_integral():
    val = el.static_fluct_integral(math.pi, 1.0)
    quad = sum(scipy.integrate.quad(
        lambda w: math.exp(w / 2 - abs(w)), a, b,
        epsabs=1e-13, epsrel=1e-12)[0]
        for a, b in ((-np.inf, 0.0), (0.0, np.inf)))
    ok = abs(val - 8.0 / 3.0) <= 1e-12 and abs(val - quad) <= 1e-6 * quad
    # divergence raised exactly when pi/lam <= beta/2
    for beta in (0.5, 1.0, 2.0):
        edge = 2 * math.pi / beta
        for lam, diverges in ((edge, True), (edge * 1.01, True),
                              (edge * 0.99, False)):
            try:
                el.static_fluct_integral(lam, beta)
                raised = False
            except el.DivergentIntegralError:
                raised = True
            ok = ok and (raised == diverges)
    verdict(1, ok, f"closed form {val:.9f} vs quadrature {quad:.9f}, "
                   f"divergence boundary exact")


def test_criterion_02_algebraic_inverse():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(2024)))
    worst = 0.0
    count = 0
    while count < 100:
        s = rng.uniform(0.0, 30.0)
        lam = rng.uniform(0.1, 5.0)
        omega = rng.uniform(0.5, 5.0)
        d = int(rng.integers(0, 4))
        k = int(rng.integers(0, 3))
        rhs = el.code_error_bound(s, lam, omega, d, k)
        back = el.lyapunov_lower_bound(rhs, d, k, s, omega)
        if back is None:
            continue
        worst = max(worst, abs(back - lam) / lam)
        count += 1
    verdict(2, worst <= 1e-12,
            f"inverse recovers lam over 100 points, worst rel err {worst:.2e}")


def test_criterion_03_kl_oracle_equivalence():
    rng = np.random.Generator(np.random.Philox(key=np.uint64(33)))
    worst = 0.0
    for trial in range(20):
        dim = int(rng.choice([256, 384, 512]))
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=dim, dos_shape="flat", bandwidth=4.0, seed=1000 + trial))
        ent = el.EntropyModel.constant(np.log(dim), 0, 4)
        if trial % 2 == 0:
            op = el.synth_eth_operator(
                spec, ent, el.EnvelopeSpec(gamma=float(rng.uniform(0.1, 0.6))),
                seed=2000 + trial)
            matrix = op.matrix
        else:
            x = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            matrix = (x + x.conj().T) / math.sqrt(dim)
        a = el.OperatorEigenbasis(matrix=matrix)
        k = int(rng.integers(1, 3))
        w = el.microcanonical_window(spec, 2.0, 1.0)
        members = el.select_code_states(w, k, method="random",
                                        seed=3000 + trial, spectrum=spec)
        code = el.CodeSpec(members=members, k=k, d=int(rng.integers(0, 3)))
        rep = el.kl_residuals(a, spec, code)
        p = np.zeros((dim, dim))
        for m in members:
            p[m, m] = 1.0
        brute = p @ (matrix.conj().T @ matrix) @ p - rep.c_a * p
        sub = brute[np.ix_(members, members)]
        scale = max(np.abs(rep.epsilon).max(), 1e-300)
        worst = max(worst, np.abs(rep.epsilon - sub).max() / scale)
    # exactness on identity and a Pauli word in the identity basis
    spec = el.synth_spectrum(el.SynthSpectrumParams(
        dim=512, dos_shape="flat", bandwidth=4.0, seed=77))
    code = el.CodeSpec(members=(250, 251), k=1, d=1)
    ident = el.kl_residuals(el.OperatorEigenbasis(matrix=np.eye(512)),
                            spec, code)
    word = build_local_observable(
        el.LocalObservableSpec(sites=(3, 4), paulis="XY"), 9)
    pauli = el.kl_residuals(el.OperatorEigenbasis(matrix=word), spec, code)
    exact = ident.eps_max == 0.0 and pauli.eps_max == 0.0
    verdict(3, worst <= 1e-12 and exact,
            f"20 oracle comparisons worst rel dev {worst:.2e}; "
            f"identity/Pauli residuals exactly zero: {exact}")


def test_criterion_04_entropy_scaling_law():
    sizes = [512, 1024, 2048, 4096]
    means = []
    for dim in sizes:
        samples = []
        for seed in range(8):
            spec = el.synth_spectrum(el.SynthSpectrumParams(
                dim=dim, dos_shape="flat", bandwidth=4.0, seed=100 + seed))
            ent = el.EntropyModel.constant(np.log(dim), 0, 4)
            op = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=0.25),
                                       seed=200 + seed)
            center = dim // 2
            for pair in range(16):
                i = center - 16 + 2 * pair
                rep = el.kl_residuals(op, spec,
                                      el.CodeSpec(members=(i, i + 1), k=1, d=1))
                samples.append(math.log(rep.eps_max))
        means.append(float(np.mean(samples)))
    slope = float(np.polyfit(np.log(sizes), means, 1)[0])
    ok = abs(slope - (-0.5)) <= 0.1
    verdict(4, ok, f"log eps_max vs S slope {slope:.4f} (target -0.5 +- 0.1)")


def test_criterion_05_envelope_roundtrip():
    spec = el.synth_spectrum(el.SynthSpectrumParams(
        dim=2000, dos_shape="flat", bandwidth=4.0, seed=11))
    ent = el.EntropyModel.constant(np.log(2000), 0, 4)
    details = []
    ok = True
    for gamma in (0.1, 0.25, 0.5):
        op = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=gamma),
                                   seed=400 + int(gamma * 100))
        model = el.envelope_estimate(op, spec, ent)
        rel = abs(model.central_gamma - gamma) / gamma
        details.append(f"gamma={gamma}: rel err {rel:.3f}")
        ok = ok and rel <= 0.10
    const = el.synth_eth_operator(spec, ent,
                                  el.EnvelopeSpec(form="constant", f0=1.0),
                                  seed=447)
    flat = el.envelope_estimate(const, spec, ent)
    details.append(f"constant: gamma_hat {flat.central_gamma:.4f}")
    ok = ok and abs(flat.central_gamma) <= 0.02
    verdict(5, ok, "; ".join(details))


def test_criterion_06_fdt_identity(ising8):
    spec, a = ising8["spec"], ising8["a"]
    band = spec.bandwidth
    om = np.linspace(-0.6 * band, 0.6 * band, 1201)
    ok = True
    details = []
    for beta in (0.5, 1.0, 2.0):
        sd = densities(a, spec, beta, 0.05, om)
        res = el.fdt_check(sd)
        details.append(f"beta={beta}: {res.max_rel_dev * 100:.2f}%")
        ok = ok and (not res.empty) and res.max_rel_dev <= 0.05
        freqs, f_w, r_w = spectral_peaks(a, spec, beta)
        nz = np.abs(freqs) > 1e-12
        coth = 1.0 / np.tanh(beta * freqs[nz] / 2.0)
        peak_dev = np.abs(f_w[nz] - 2 * coth * r_w[nz]).max() / f_w[nz].max()
        ok = ok and peak_dev <= 1e-10
    verdict(6, ok, "broadened deviation " + ", ".join(details) +
            "; peak-level identity to 1e-10")


def test_criterion_07_two_path_equivalence(ising8):
    h, z0, spec, a = (ising8["h"], ising8["z0"], ising8["spec"], ising8["a"])
    beta = 1.0
    times = np.linspace(0.0, 4.0, 20)
    z = scipy.linalg.expm(-beta * h)
    zz = np.trace(z).real
    r2 = scipy.linalg.expm(-0.5 * beta * h) / math.sqrt(zz)
    r4 = scipy.linalg.expm(-0.25 * beta * h) / zz**0.25
    rho = z / zz
    mean = np.trace(rho @ z0).real
    direct = {"F2": [], "Fsym": [], "Resp": [], "OTOC": []}
    for t in times:
        u = scipy.linalg.expm(1j * h * t)
        at = u @ z0 @ u.conj().T
        direct["F2"].append(np.trace(r2 @ at @ r2 @ z0))
        c = np.trace(rho @ at @ z0)
        direct["Fsym"].append(0.5 * (c + np.conj(c)) - mean**2)
        direct["Resp"].append(c - np.conj(c))
        direct["OTOC"].append(np.trace(r4 @ at @ r4 @ z0 @ r4 @ at @ r4 @ z0))
    f2, fsym, resp = correlators(a, spec, beta, times)
    oto = el.otoc(a, spec, beta, times)
    devs = {}
    for name, series in (("F2", f2), ("Fsym", fsym), ("Resp", resp),
                         ("OTOC", oto)):
        ref = np.array(direct[name])
        devs[name] = np.abs(series.values - ref).max() / np.abs(ref).max()
    ok = all(v <= 1e-9 for v in devs.values())
    # exact unit OTOC for a Pauli word at infinite temperature, t = 0
    spec_id = el.synth_spectrum(el.SynthSpectrumParams(
        dim=256, dos_shape="flat", bandwidth=4.0, seed=1))
    word = build_local_observable(
        el.LocalObservableSpec(sites=(0,), paulis="Z"), 8)
    v0 = el.otoc(el.OperatorEigenbasis(matrix=word), spec_id, 0.0,
                 np.array([0.0])).values[0]
    ok = ok and v0 == 1.0 + 0.0j
    verdict(7, ok, "max rel devs " +
            ", ".join(f"{k}={v:.2e}" for k, v in devs.items()) +
            f"; beta=0 Pauli OTOC(0) == 1 exactly: {v0 == 1.0 + 0.0j}")


def test_criterion_08_lyapunov_fit_fidelity():
    lam, t_s = 1.5, 10.0
    t = np.linspace(4, 8, 81)
    clean = el.CorrelatorSeries(
        kind="OTOC", times=t,
        values=(1 - np.exp(lam * (t - t_s))).astype(complex))
    # a dissipation time far below t_s: the fidelity, not the hierarchy,
    # is under test
    fit = el.fit_lyapunov(clean, 1.0, 0.0, (4, 8), 0.5)
    err_clean = abs(fit.lam - lam)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(9)))
    t2 = np.linspace(7, 9.5, 51)
    noisy_vals = (1 - np.exp(lam * (t2 - t_s))
                  + 1e-3 * rng.standard_normal(t2.size))
    noisy = el.CorrelatorSeries(kind="OTOC", times=t2,
                                values=noisy_vals.astype(complex))
    fit2 = el.fit_lyapunov(noisy, 1.0, 0.0, (7, 9.5), 0.5)
    err_noisy = abs(fit2.lam - lam) / lam
    ok = err_clean <= 1e-8 and err_noisy <= 0.02
    verdict(8, ok, f"noiseless lam err {err_clean:.2e}; "
                   f"1e-3 noise rel err {err_noisy * 100:.2f}% "
                   f"(reliability: {fit.reliability}/{fit2.reliability})")


def test_criterion_09_dynamical_fluctuation_time_average(ising8):
    spec, a = ising8["spec"], ising8["a"]
    ent = el.entropy_model(spec)
    center = ent.grid_energies[np.argmax(ent.grid_entropy)]
    p = el.gaussian_wavepacket(spec, center, 0.1 * spec.bandwidth)
    value = el.dynamical_fluctuation(a, p)
    # a state with these populations and random phases, evolved directly
    rng = np.random.Generator(np.random.Philox(key=np.uint64(3)))
    c = np.sqrt(p) * np.exp(2j * math.pi * rng.random(p.size))
    a_inf = float(np.dot(p, np.real(np.diagonal(a.matrix))))
    total, m_samples = 0.0, 100001
    ts = np.linspace(0.0, 1e4, m_samples)
    for s in range(0, m_samples, 4000):
        tt = ts[s:s + 4000]
        evolved = c[:, None] * np.exp(-1j * np.outer(spec.eigenvalues, tt))
        av = np.einsum("it,it->t", evolved.conj(), a.matrix @ evolved).real
        total += np.sum((av - a_inf) ** 2)
    direct = total / m_samples
    rel = abs(value - direct) / direct
    verdict(9, rel <= 0.05,
            f"sum formula {value:.6e} vs T=1e4 average {direct:.6e} "
            f"({rel * 100:.2f}% dev)")


def test_criterion_10_chain_statistics(ising12_sector):
    sub_spec, sub_a = ising12_sector
    r = el.spacing_ratio_mean(sub_spec.eigenvalues)
    r_ok = abs(r - 0.53) <= 0.03
    ent = el.entropy_model(sub_spec)
    peak = ent.grid_energies[np.argmax(ent.grid_entropy)]
    window = el.microcanonical_window(sub_spec, peak,
                                      0.035 * sub_spec.bandwidth)
    binning = el.BinningSpec(e_bins=6, omega_bins=64, min_count=30,
                             omega_max=2.1 * window.half_width)
    env = el.envelope_estimate(sub_a, sub_spec, ent, binning)
    stats = el.gaussianity_stats(sub_a, sub_spec, env, window)
    kurt_ok = abs(stats.excess_kurtosis) <= 0.5
    wide = el.envelope_estimate(sub_a, sub_spec, ent)
    slope_ok = np.isfinite(wide.central_gamma) and wide.central_gamma > 0
    ok = r_ok and kurt_ok and slope_ok
    verdict(10, ok,
            f"sector r = {r:.4f} (0.53 +- 0.03); excess kurtosis "
            f"{stats.excess_kurtosis:+.3f} (|.| <= 0.5); envelope decay "
            f"gamma_hat {wide.central_gamma:.3f} > 0")


def test_criterion_11_end_to_end_determinism(tmp_path):
    out1, out2 = str(tmp_path / "d1"), str(tmp_path / "d2")
    code1 = cli_main(["demo", "--out", out1])
    code2 = cli_main(["demo", "--out", out2])
    m1 = load_json(os.path.join(out1, "manifest.json"))
    m2 = load_json(os.path.join(out2, "manifest.json"))
    same_hashes = m1["files"] == m2["files"]
    byte_identical = all(
        (tmp_path / "d1" / f).read_bytes() == (tmp_path / "d2" / f).read_bytes()
        for f in m1["files"])
    exit_ok = code1 == 0 and code2 == 0
    # the slack policy drives the exit code: a vanishing slack must flip it
    cfg = demo_config(out1).with_path_value("slack", 1e-30)
    from ethlab.pipeline import run as run_pipeline
    manifest = run_pipeline(cfg, stages=("bounds",))
    slack_exit = manifest["all_within_slack"] is False
    ok = same_hashes and byte_identical and exit_ok and slack_exit
    verdict(11, ok,
            f"payload hashes equal: {same_hashes}; bytes equal: "
            f"{byte_identical}; exit codes 0/0; tightened slack flags "
            f"violation: {slack_exit}")
