"""Pair-table consumers against dense whole-matrix references.

Every sum over the pair table |A_mn|^2 walks
:meth:`ethlab.OperatorEigenbasis.abs2_rows` in blocks of PAIR_BLOCK_ROWS
(64) rows. At d = 65 and 129 the last block is a single row without any
pair m < n, and at d = 200 it is a partial block of 8 rows.
"""

import tracemalloc

import numpy as np
import pytest

import ethlab as el
from conftest import correlators, densities
from dynamics_reference import dense_correlators, spectral_peaks
from ethlab.spectral import PAIR_BLOCK_ROWS

RAGGED_DIMS = (65, 129, 200)


def synth(dim, real, seed=5):
    """Synthetic ETH operator over a flat spectrum: complex Hermitian, or
    its real part, which is real symmetric."""
    spec = el.synth_spectrum(el.SynthSpectrumParams(
        dim=dim, dos_shape="flat", bandwidth=4.0, seed=seed))
    ent = el.EntropyModel.constant(np.log(dim), spec.eigenvalues[0],
                                   spec.eigenvalues[-1])
    a = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=0.25),
                              diagonal=np.tanh, seed=seed + 1)
    if real:
        a = el.OperatorEigenbasis(matrix=np.ascontiguousarray(a.matrix.real))
    return spec, ent, a


RAGGED = [(d, real) for d in RAGGED_DIMS for real in (False, True)]


def case_id(case):
    return case if isinstance(case, str) else \
        f"d{case[0]}-{'real' if case[1] else 'complex'}"


@pytest.fixture(params=RAGGED, ids=case_id)
def ragged(request):
    dim, real = request.param
    return synth(dim, real)


def tied(name):
    """Spectra whose computed Ebar and |w| tie and fall on bin edges: the L=8
    chain without transverse field, diagonal in the Z basis and so exactly
    degenerate, and a flat synthetic spectrum centred on 0 and rounded to one
    decimal, where inverting Ebar or w from an edge rounds to either side
    of runs of equal levels."""
    if name == "zz8":
        params = el.SpinChainParams(n_sites=8, hx=0.0)
        spec = el.eigendecompose_blocks(*el.reflection_blocks(params))
        a = el.to_eigenbasis(el.LocalObservableSpec(sites=(0,), paulis="Z"), spec)
    else:
        spec, _, a = synth(200, real=False)
        spec = el.EnergySpectrum(eigenvalues=np.round(spec.eigenvalues - 2.0, 1))
    e = spec.eigenvalues
    return spec, el.EntropyModel.constant(np.log(spec.dim), e[0], e[-1]), a


def dense_abs2(a):
    return np.abs(a.matrix) ** 2


def test_blocks_cover_the_table_once(ragged):
    _, _, a = ragged
    d = a.dim
    rows = [r for r, _ in a.abs2_rows()]
    assert rows[0].start == 0 and rows[-1].stop == d
    assert all(r.stop - r.start == PAIR_BLOCK_ROWS for r in rows[:-1])
    assert all(x.stop == y.start for x, y in zip(rows, rows[1:]))
    assert np.array_equal(np.concatenate([b for _, b in a.abs2_rows()]),
                          dense_abs2(a))


@pytest.mark.parametrize("case", [*RAGGED, "zz8", "rounded"], ids=case_id)
def test_envelope_matches_dense_both_orders(case):
    spec, ent, a = tied(case) if isinstance(case, str) else synth(*case)
    e, d = spec.eigenvalues, spec.dim
    binning = el.BinningSpec(min_count=1)
    env = el.envelope_estimate(a, spec, ent, binning)
    # every ordered pair m != n, binned where it falls
    off = ~np.eye(d, dtype=bool)
    ii = np.digitize((0.5 * (e[:, None] + e[None, :]))[off], env.e_edges) - 1
    jj = np.digitize(np.abs(e[:, None] - e[None, :])[off], env.omega_edges) - 1
    ne, nw = env.f2.shape
    ok = (ii >= 0) & (ii < ne) & (jj >= 0) & (jj < nw)
    flat = ii[ok] * nw + jj[ok]
    counts = np.bincount(flat, minlength=ne * nw).reshape(ne, nw)
    sums = np.bincount(flat, weights=dense_abs2(a)[off][ok],
                       minlength=ne * nw).reshape(ne, nw)
    assert np.array_equal(env.counts, counts)
    alive = counts > 0
    assert np.array_equal(np.isfinite(env.f2), alive)
    recovered = env.f2[alive] / env.density_boost[np.nonzero(alive)[0]] * counts[alive]
    assert np.abs(recovered - sums[alive]).max() <= 1e-13 * sums.max()


def test_lehmann_sum_matches_dense(ragged):
    # F2 has weights (u, u), u = rho^(1/2), and <A(t) A> has (rho, 1)
    spec, _, a = ragged
    times = np.linspace(0.0, 5.0, 7)
    binned = correlators(a, spec, 1.0, times)
    for series, ref in zip(binned, dense_correlators(a, spec, 1.0, times)):
        assert np.abs(series.values - ref).max() <= 1e-13 * np.abs(ref).max()


def test_dynamical_fluctuation_matches_dense(ragged):
    spec, _, a = ragged
    p = el.gaussian_wavepacket(spec, 2.0, 0.5)
    abs2 = dense_abs2(a)
    np.fill_diagonal(abs2, 0.0)
    dense = p @ abs2 @ p
    assert abs(el.dynamical_fluctuation(a, p) - dense) <= 1e-13 * dense
    # a diagonal operator of the same size has no off-diagonal weight at all
    diag = el.OperatorEigenbasis(matrix=np.diag(np.diagonal(a.matrix)))
    assert el.dynamical_fluctuation(diag, p) == 0.0


def test_spectral_peaks_equal_dense_triu_gather(ragged):
    spec, _, a = ragged
    d, e = spec.dim, spec.eigenvalues
    rho = el.gibbs_weights(spec, 1.0)
    m, n = np.triu_indices(d, 1)
    a2 = dense_abs2(a)[m, n]
    freqs, f_w, r_w = spectral_peaks(a, spec, 1.0)
    assert freqs.size == f_w.size == r_w.size == d * (d - 1) // 2 + 1
    assert np.array_equal(freqs[:-1], e[n] - e[m])
    assert np.array_equal(f_w[:-1], 0.5 * (rho[m] + rho[n]) * a2)
    assert np.array_equal(r_w[:-1], 0.25 * (rho[m] - rho[n]) * a2)
    assert freqs[-1] == 0.0 and r_w[-1] == 0.0


def test_gaussianity_treats_complex_dtype_of_real_values_as_real():
    # the sample is real when max|Im A_mn| <= 1e-12 max(1, max|A_mn|) over
    # the window's pairs m < n, whatever the dtype; above that it holds both
    # components, scaled by sqrt(2)
    spec, ent, a = synth(400, real=True)
    env = el.envelope_estimate(a, spec, ent)
    window = el.microcanonical_window(spec, 2.0, 0.4)
    real = el.gaussianity_stats(a, spec, env, window)
    as_complex = el.OperatorEigenbasis(matrix=a.matrix.astype(complex))
    cast = el.gaussianity_stats(as_complex, spec, env, window)
    assert cast.sample_size == real.sample_size
    for name in ("mean", "variance", "skewness", "excess_kurtosis"):
        assert getattr(cast, name) == pytest.approx(getattr(real, name),
                                                    rel=1e-12, abs=1e-15)
    sub = a.matrix[window.start:window.stop, window.start:window.stop]
    scale = max(1.0, np.abs(sub[np.triu_indices(window.size, 1)]).max())
    below, above = (el.OperatorEigenbasis(matrix=a.matrix + 1j * x * scale)
                    for x in (1e-12, 1e-11))
    assert el.gaussianity_stats(below, spec, env, window).sample_size == \
        real.sample_size
    assert el.gaussianity_stats(above, spec, env, window).sample_size == \
        2 * real.sample_size


def test_pair_consumers_stay_below_half_a_dense_array():
    # d = 1024: half of one d x d float array is 4 MiB, while the operator
    # itself is 8 MiB and a whole |A|^2 another 8 MiB
    d = 1024
    spec, ent, a = synth(d, real=True)
    times = np.linspace(0.0, 4.0, 9)
    env = el.envelope_estimate(a, spec, ent)
    window = el.microcanonical_window(spec, 2.0, 0.2)
    p = el.gaussian_wavepacket(spec, 2.0, 0.3)
    omegas = np.linspace(-2.0, 2.0, 101)
    measure = el.pair_measure(a, spec, 1.0, el.measure_width(0.05, 4.0))
    calls = {
        "envelope_estimate": lambda: el.envelope_estimate(a, spec, ent),
        "pair_measure": lambda: el.pair_measure(a, spec, 1.0, measure.width),
        "thermal_correlators": lambda: measure.thermal_correlators(times),
        "dynamical_fluctuation": lambda: el.dynamical_fluctuation(a, p),
        "spectral_densities": lambda: measure.spectral_densities(0.05, omegas),
        "gaussianity_stats": lambda: el.gaussianity_stats(a, spec, env, window),
    }
    peaks = {}
    tracemalloc.start()
    try:
        for name, call in calls.items():
            base = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            call()
            peaks[name] = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    limit = d * d * 8 // 2
    assert all(peak < limit for peak in peaks.values()), peaks
