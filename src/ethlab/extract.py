"""Estimate energy-basis statistics of an operator: the smooth diagonal
profile, the squared envelope |f|^2(Ebar, w), and Gaussianity of the
normalized off-diagonal elements.

The envelope estimator inverts the matrix-element ansatz bin by bin:
|f|^2 in a (Ebar, w) bin is exp(S(Ebar)) times the mean |A_mn|^2 over the
bin of pairs m != n, each m < n binned once for both orders. Bins are
half-open, so the last edge is exclusive: the widest pair (0, d-1), at
w = omega_max, is not counted. The pair counts come from the sorted
spectrum alone, through per-row breakpoints that agree exactly with
``np.digitize`` of the computed Ebar and |w|; the |A|^2 sums are taken per
segment between breakpoints of each 64-row block of |A|^2. The decay rate
per Ebar slice comes from a count-weighted least-squares fit of log|f|^2
against |w|; since |f|^2 decays at twice the rate of f, the reported gamma
is minus half that slope.

The Gaussianity sample R_hat = A_mn exp(S/2)/f_hat bins each window pair
m < n once, one ``np.digitize`` per axis, for both |f|^2 and exp(S). A
component of A_mn, real or imaginary, enters only when its max |.| over the
window exceeds 1e-12 max(1, max |A_mn|), scaled by sqrt(2) only when both
enter: a real operator gives its real parts, a purely imaginary one (i times
a real antisymmetric matrix) its imaginary parts alone.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .spectral import _gaussian_kernel, _smoothing_width, mean_level_spacing


@dataclass(frozen=True)
class DiagonalProfile:
    """Kernel-smoothed regression of A_nn against E_n, with local scatter."""

    energies: np.ndarray
    values: np.ndarray
    scatter: np.ndarray


def diagonal_profile(a, spectrum, bandwidth=None):
    """Nadaraya-Watson smoothing of the diagonal matrix elements.

    The profile is evaluated on 201 evenly spaced energies from the lowest
    to the highest eigenvalue, weighted by one 201 x d matrix of the kernel
    of :func:`ethlab.entropy_model` under its width rule; a narrower bandwidth
    would just reproduce level-to-level scatter. The scatter takes two passes
    (the mean, then the squared deviations from it), so it does not cancel.
    """
    e = spectrum.eigenvalues
    diag = np.real(np.diagonal(a.matrix)).astype(float)
    bandwidth = _smoothing_width(spectrum, bandwidth, "bandwidth")
    grid = np.linspace(e[0], e[-1], 201)
    w = _gaussian_kernel(grid, e, bandwidth)
    total = w.sum(axis=1)
    values = (w @ diag) / total
    dev = diag - values[:, None]
    dev *= dev
    dev *= w
    scatter = np.sqrt(dev.sum(axis=1) / total)
    return DiagonalProfile(energies=grid, values=values, scatter=scatter)


@dataclass(frozen=True)
class BinningSpec:
    """Binning and fit controls for the envelope estimator."""

    e_bins: int = 8
    omega_bins: int = 48
    min_count: int = 50
    fit_window: tuple = None   # (w_min, w_max); None = auto
    omega_max: float = None    # None = data maximum

    def __post_init__(self):
        if self.e_bins < 1 or self.omega_bins < 2:
            raise ValidationError("need e_bins >= 1 and omega_bins >= 2")
        if self.min_count < 1:
            raise ValidationError("min_count must be >= 1")


@dataclass(frozen=True)
class EnvelopeModel:
    """Binned |f|^2 over (Ebar, |w|) plus per-slice exponential decay fits.

    ``f2`` is NaN in bins dropped for low count. ``gamma`` is NaN for slices
    where fewer than 4 bins survive inside the fit window. ``density_boost``
    records exp(S(Ebar)) at each slice center, so downstream normalization
    can recover exp(S/2) without re-supplying the entropy model;
    :func:`gaussianity_stats` indexes both with one bin pair per matrix element.
    """

    e_edges: np.ndarray
    omega_edges: np.ndarray
    f2: np.ndarray
    counts: np.ndarray
    density_boost: np.ndarray
    gamma: np.ndarray
    gamma_stderr: np.ndarray
    fit_residual: np.ndarray
    fit_window: tuple
    min_count: int

    @property
    def e_centers(self):
        return 0.5 * (self.e_edges[:-1] + self.e_edges[1:])

    @property
    def omega_centers(self):
        return 0.5 * (self.omega_edges[:-1] + self.omega_edges[1:])

    @property
    def _central_slice(self):
        """Index of the available slice nearest the center of the binned
        range, or None when no slice kept a gamma."""
        ok = np.where(np.isfinite(self.gamma))[0]
        if ok.size == 0:
            return None
        mid = 0.5 * (self.e_edges[0] + self.e_edges[-1])
        return ok[np.argmin(np.abs(self.e_centers[ok] - mid))]

    @property
    def central_gamma(self):
        """gamma of the available slice nearest the center of the binned range."""
        i = self._central_slice
        return float("nan") if i is None else float(self.gamma[i])

    @property
    def central_gamma_energy(self):
        """Center energy of the slice :attr:`central_gamma` comes from."""
        i = self._central_slice
        return float("nan") if i is None else float(self.e_centers[i])


def _first_reaching(value, guess, e, m, x, first, after):
    """Per row m and edge x: the first n in (m, d) with value(e_m, e_n) >= x,
    or d where there is none. value never decreases with n, so the guess
    (from inverting it) is corrected by evaluating it, stepping over a whole
    run of equal eigenvalues at a time: ``first`` and ``after`` give each
    level's run start and the index past its run."""
    d = e.size
    em = e[m, None]
    lo = m[:, None] + 1
    n = np.clip(guess, lo, d)
    while (back := (n > lo) & (value(em, e[n - 1]) >= x)).any():
        n = np.where(back, np.maximum(first[n - 1], lo), n)
    while (ahead := (n < d) & (value(em, e[np.minimum(n, d - 1)]) < x)).any():
        n = np.where(ahead, after[np.minimum(n, d - 1)], n)
    return n


def _mean_energy(em, en):
    return 0.5 * (em + en)


def _frequency(em, en):
    return en - em


def _pair_bins(a, e, e_edges, omega_edges):
    """Per-bin counts and |A|^2 sums over the ordered pairs m != n, binning
    each m < n once for both orders (same Ebar, |w| and, A Hermitian, |A_mn|^2).

    e is sorted, so along row m both Ebar = 0.5 (e_m + e_n) and w = e_n - e_m
    never decrease with n, and the row's bin changes only at the first n > m
    where either reaches an edge: at most len(e_edges) + len(omega_edges)
    breakpoints per row. They cut the row into segments whose bins equal
    ``np.digitize`` of the computed Ebar and |w|, the last edge exclusive.
    The counts are the segment lengths and depend on the spectrum alone; the
    sums take one ``np.add.reduceat`` per :meth:`abs2_rows` block, in which
    each row's first segment (n <= m, and n short of the first edges) is
    summed and discarded."""
    d = e.size
    ne, nw = len(e_edges) - 1, len(omega_edges) - 1
    starts_run = np.diff(e, prepend=-np.inf) > 0
    run_start = np.flatnonzero(starts_run)
    run = np.cumsum(starts_run) - 1
    first, after = run_start[run], np.append(run_start[1:], d)[run]
    counts = np.zeros(ne * nw, dtype=np.int64)
    sums = np.zeros(ne * nw)
    for rows, a2 in a.abs2_rows():
        m = np.arange(rows.start, rows.stop)
        em = e[m, None]
        pe = _first_reaching(_mean_energy, np.searchsorted(e, 2 * e_edges - em),
                             e, m, e_edges, first, after)
        pw = _first_reaching(_frequency, np.searchsorted(e, em + omega_edges),
                             e, m, omega_edges, first, after)
        marks = np.concatenate([np.zeros_like(pe[:, :1]), pe, pw], axis=1)
        order = np.argsort(marks, axis=1, kind="stable")
        cuts = np.take_along_axis(marks, order, axis=1)
        lengths = np.diff(cuts, append=d, axis=1)
        # edges at or below each segment's start, exact at the last of tied marks
        ii = np.cumsum((order > 0) & (order <= ne + 1), axis=1) - 1
        jj = np.cumsum(order > ne + 1, axis=1) - 1
        live = lengths > 0
        seg = np.add.reduceat(a2.ravel(), (cuts + (m - rows.start)[:, None] * d)[live])
        ii, jj, lengths = ii[live], jj[live], lengths[live]
        ok = (ii >= 0) & (ii < ne) & (jj >= 0) & (jj < nw)
        flat = ii[ok] * nw + jj[ok]
        counts += np.bincount(flat, lengths[ok], minlength=ne * nw).astype(np.int64)
        sums += np.bincount(flat, seg[ok], minlength=ne * nw)
    return 2 * counts.reshape(ne, nw), 2 * sums.reshape(ne, nw)


def envelope_estimate(a, spectrum, entropy, binning=None):
    """Binned |f|^2 estimate and per-slice decay-rate fits.

    Only m != n pairs enter, in half-open bins: a pair on the last Ebar or
    |w| edge, such as the widest pair at the default ``omega_max``, is not
    counted. The counts depend on the spectrum alone and match
    ``np.digitize`` of the computed Ebar and |w| exactly; the |A|^2 sums are
    taken per row segment of each 64-row block, so only their order of
    addition differs from a pair-by-pair sum. Bins with fewer than
    ``min_count`` pairs are dropped; slices with fewer than 4 surviving bins
    in the fit window get gamma = NaN. The default fit window starts at 4
    mean bulk level spacings to keep the smallest, discreteness-dominated
    frequencies out of the fit.
    """
    if binning is None:
        binning = BinningSpec()
    e = spectrum.eigenvalues
    d = e.size
    if a.matrix.shape != (d, d):
        raise ValidationError("operator and spectrum dimensions differ")
    omega_max = binning.omega_max
    if omega_max is None:
        omega_max = float(e[-1] - e[0])
    e_edges = np.linspace(e[0], e[-1], binning.e_bins + 1)
    omega_edges = np.linspace(0.0, omega_max, binning.omega_bins + 1)
    counts, sums = _pair_bins(a, e, e_edges, omega_edges)

    e_centers = 0.5 * (e_edges[:-1] + e_edges[1:])
    boost = np.exp(np.asarray(entropy.entropy_at(e_centers), dtype=float))
    f2 = np.full(counts.shape, np.nan)
    alive = counts >= binning.min_count
    f2[alive] = (sums[alive] / counts[alive]) * boost[np.nonzero(alive)[0]]

    spacing = mean_level_spacing(e)
    window = binning.fit_window
    if window is None:
        window = (4.0 * spacing, omega_max)
    w_centers = 0.5 * (omega_edges[:-1] + omega_edges[1:])
    in_window = (w_centers >= window[0]) & (w_centers <= window[1])

    gamma, stderr, residual = np.full((3, binning.e_bins), np.nan)
    for i in range(binning.e_bins):
        ok = alive[i] & in_window & (f2[i] > 0)
        if ok.sum() < 4:
            continue
        x = w_centers[ok]
        y = np.log(f2[i, ok])
        w = counts[i, ok].astype(float)
        slope, intercept, se = _weighted_line(x, y, w)
        gamma[i] = -0.5 * slope
        stderr[i] = 0.5 * se
        fitted = intercept + slope * x
        residual[i] = np.sqrt(np.average((y - fitted) ** 2, weights=w))
    return EnvelopeModel(e_edges=e_edges, omega_edges=omega_edges, f2=f2,
                         counts=counts, density_boost=boost, gamma=gamma,
                         gamma_stderr=stderr, fit_residual=residual,
                         fit_window=tuple(window), min_count=binning.min_count)


def _weighted_line(x, y, w):
    """Weighted least-squares line fit; returns slope, intercept, slope stderr."""
    wsum = w.sum()
    xm = np.dot(w, x) / wsum
    ym = np.dot(w, y) / wsum
    sxx = np.dot(w, (x - xm) ** 2)
    slope = np.dot(w, (x - xm) * (y - ym)) / sxx
    intercept = ym - slope * xm
    n = x.size
    if n > 2:
        chi2 = np.dot(w, (y - intercept - slope * x) ** 2) / (n - 2)
        se = np.sqrt(chi2 / sxx)
    else:
        se = np.inf
    return slope, intercept, se


@dataclass(frozen=True)
class GaussianityStats:
    """Moments of normalized off-diagonal elements over a window; two
    components enter scaled by sqrt(2), unit variance each under the
    Hermitian-noise convention (:func:`gaussianity_stats`)."""

    mean: float
    variance: float
    skewness: float
    excess_kurtosis: float
    sample_size: int
    low_power: bool


def gaussianity_stats(a, spectrum, envelope, window):
    """Moments of R_hat = A_mn * exp(S/2) / f_hat over window pairs, m != n.

    exp(S/2) comes from the envelope's recorded density boost and
    f_hat = sqrt(|f|^2) from its bins, so an envelope estimated on an
    independent realization can be used to normalize this one. Each window
    pair m < n is binned once, one ``np.digitize`` per axis, for both
    lookups; pairs off the grid or in bins without an estimate are
    excluded, and it raises when nothing survives. A component of A_mn,
    real or imaginary, enters only when its max |.| over the window exceeds
    1e-12 max(1, max |A_mn|), scaled by sqrt(2) only when both enter; with
    neither, the zero real parts make a degenerate sample, which raises.
    A sample of fewer than 1000 values is flagged ``low_power``.
    """
    if window.size < 2:
        raise ValidationError("window too small: no off-diagonal pairs")
    m, n = np.triu_indices(window.size, 1)
    m += window.start
    n += window.start
    vals = a.matrix[m, n]
    e = spectrum.eigenvalues
    i = np.digitize(0.5 * (e[m] + e[n]), envelope.e_edges) - 1
    j = np.digitize(np.abs(e[m] - e[n]), envelope.omega_edges) - 1
    ne, nw = envelope.f2.shape
    keep = np.flatnonzero((i >= 0) & (i < ne) & (j >= 0) & (j < nw))
    f2 = envelope.f2[i[keep], j[keep]]
    live = np.isfinite(f2) & (f2 > 0)
    if not np.any(live):
        raise ValidationError("no pairs with an available envelope estimate")
    keep = keep[live]
    amp = np.sqrt(envelope.density_boost[i[keep]])
    r_hat = vals[keep] * amp / np.sqrt(f2[live])
    floor = 1e-12 * max(1.0, np.abs(vals).max())
    re, im = (np.abs(part).max() > floor for part in (vals.real, vals.imag))
    if re and im:
        sample = np.concatenate([r_hat.real, r_hat.imag]) * np.sqrt(2.0)
    else:
        sample = r_hat.imag if im else r_hat.real
    return _moments(sample)


def _moments(sample):
    n = sample.size
    mean = float(sample.mean())
    centered = sample - mean
    squared = centered * centered
    m2 = float(np.mean(squared))
    m3 = float(np.mean(squared * centered))
    m4 = float(np.mean(squared * squared))
    if m2 <= 0:
        raise ValidationError("degenerate sample: zero variance")
    return GaussianityStats(
        mean=mean,
        variance=m2,
        skewness=m3 / m2**1.5,
        excess_kurtosis=m4 / m2**2 - 3.0,
        sample_size=int(n),
        low_power=bool(n < 1000),
    )
