"""Thermal correlators, scrambling diagnostics, and fluctuation measures.

Everything is evaluated in the energy eigenbasis: the two-point functions
and spectra from one binned pair measure, the OTOC by explicit sums. The
regulated correlators for a Hermitian observable A are

    F2(t)   = Tr[rho^(1/2) A(t) rho^(1/2) A]
    Fsym(t) = (1/2) <{A(t), A}>_beta - <A>_beta^2
    Resp(t) = <[A(t), A]>_beta
    Foto(t) = Tr[rho^(1/4) A(t) rho^(1/4) A rho^(1/4) A(t) rho^(1/4) A]

F2 and Foto are real for Hermitian A thanks to the symmetric regulator
splitting: F2 is summed as a real series and only the validated real part
of Foto is kept; Resp is purely imaginary.

F2, Fsym, Resp and the spectra F(w) and rho(w) are Lehmann sums over one
pair measure, |A_mn|^2 at w = E_n - E_m with the Gibbs weights
p = (rho_m rho_n)^(1/2), f = (rho_m + rho_n)/2 and r = (rho_m - rho_n)/4.
With E sorted, each pair m < n (w >= 0) stands for its mirror at -w, with
the same p and f and the opposite r, so, summing over m < n, with
C = sum_m rho_m A_mm^2 - <A>^2 and g the unit Gaussian of width sigma_omega,

    F2(t) = C + <A>^2 + 2 sum p |A_mn|^2 cos(w t),
    Fsym(t) = C + 2 sum f |A_mn|^2 cos(w t),
    Resp(t) = -8 i sum r |A_mn|^2 sin(w t),
    F(v) = C g(v) + sum f |A_mn|^2 (g(v - w) + g(v + w)),
    rho(v) = sum r |A_mn|^2 (g(v - w) - g(v + w)).

As f = 2*coth(beta*w/2)*r, F(w) = 2*coth(beta*w/2)*rho(w) holds peak by
peak at w != 0, and under the shared Gaussian away from peak overlap.
:func:`pair_measure` walks the pair table once into bins of width h from
w = 0: bin k has centre c_k = (k + 1/2) h, a pair in it the offset
s = (w - c_k)/h in [-1/2, 1/2), and the bin keeps the N = PAIR_MOMENTS = 9
moments M_n = sum weight |A_mn|^2 s^n/n! of each weight. Both evaluations
are series in s, each stopping short by less than 2^-53 of a pair's weight:

- Time: exp(i w t) = exp(i c_k t) sum_n (i h t)^n s^n/n!, with a tail of at
  most |s h t|^N/N!; h |t|/2 <= PHASE_OFFSET = 1/16 bounds it by
  (1/16)^9/9! ~ 4.0e-17, and larger |t| are refused.
- Frequency, a fast Gauss transform (Greengard and Strain, SIAM J. Sci.
  Stat. Comput. 12, 79 (1991)): with x = (v - c_k)/sigma_omega and
  q = s h/sigma_omega, exp(-(x - q)^2/2) = exp(-x^2/2) sum_n He_n(x) q^n/n!,
  over the bins with |x| <= BROADENING_RADIUS = 9. sigma_omega < B h
  (B = BROADENING_BINS = 16) is refused, so |q| <= 1/32: a dropped pair is
  below exp(-(9 - 1/32)^2/2) ~ 3.4e-18 of its peak, and by Cramer's
  inequality |He_n(x)| <= 1.0865 sqrt(n!) exp(x^2/4) a kept one is off by
  at most 1.0865 (1/32)^9/sqrt(9!)/(1 - 1/(32 sqrt(10))) ~ 5.2e-17.

:func:`measure_width` takes the widest bin both accept,
h = min(sigma_omega/16, 1/(8 t_max)), which is sigma_omega/16 while
sigma_omega t_max <= 2; beyond that the w_max/h + 1 bins grow as
w_max t_max, and :func:`pair_measure` refuses more than PAIR_BIN_CAP = 2^20
(216 MiB of moments) with a CostGuardError before it walks. The walk costs
3 N bincounts over the d (d - 1)/2 pairs, a time point a cosine, a sine
and 12 N flops per bin, and a frequency 4 N gathers per bin of its window,
289 bins at h = sigma_omega/16.

By cyclicity of the trace,

    Foto(t) = Tr[(G U)^2],   G = A diag(conj(u)) A,   U = diag(u),
    u_m = rho_m^(1/4) exp(i E_m t),

with no inverse of rho, so weights that underflow to zero are harmless.
G is never formed as a whole. Foto = u^T W u with a symmetric W, and only
the upper block triangle of W is formed, over row blocks I of
h = OTOC_BLOCK_ROWS rows (o is the entrywise product):

    Foto = u^T W u
         = sum_I u_I^T W_II u_I + 2 sum_{I<J} u_I^T W_IJ u_J.

With H = A diag(u) A, A = A^H gives H = G^H, so G_ji = conj(H_ij) and
W = G o conj(H). With u = c + i s, G = P - i Q and H = P + i Q, where
P = A diag(c) A and Q = A diag(s) A, so

    W = |P|^2 - |Q|^2 - 2 i Re(P o conj(Q)),

symmetric since P and Q are Hermitian. Block I starting at row s takes the
rows I of G right of column s from one GEMM of a strip of A_I scalings
against the fixed A[:, s:]; the strips of up to chunk = max(1, d/(8 h))
time points are stacked into one operand. h is 32, or max(32, d/16) for a
call with a single time point, whose strip stacks no other point. A
complex A stacks [A_I diag(conj(u)); A_I diag(u)], whose product holds the
rows of G and H, and forms W_I = G_I o conj(H_I) in two passes:
16 h d (d - s) flops per time point, 8 d^3 (1 + h/d) summed over the
blocks when h divides d. A real A has real P and Q, so H = conj(G) and
W = G o G; its real strip [A_I diag(c); A_I diag(-s)] gives the real and
imaginary parts of the rows of G in one real GEMM: 4 h d (d - s) flops per
time point, 2 d^3 (1 + h/d) summed. A real A writes G and its weighted
copy over the strip and the product once the GEMM has read them, as
complex arrays of the same bytes.

The time points fall into n contiguous groups, each summed on its own
thread by the same operations (numpy's GEMMs and ufuncs release the GIL),
with n = max(1, min(T, cpus // blas)): cpus the CPUs of the process's
affinity mask, blas the first positive integer among OPENBLAS_NUM_THREADS,
MKL_NUM_THREADS and OMP_NUM_THREADS, and n = 1 when none is set, since
BLAS then already spreads over every CPU. Each point's value comes from
one thread; a group's strip holds at most ceil(chunk/n) points. No d x d
buffer is made: the strips and their products are the only buffers of
more than a few d entries, at most 2 h (chunk + n - 1) rows of d entries
of A's dtype each over all groups whatever the number of time points, so
on one thread at most half a d x d array of that dtype once d >= 8 h:
32 MiB complex at d = 2048, and for the real L=12 operator (d = 4096) a
traced 68 MiB from 16 points on. The identity assumes A = A^H exactly;
where A is Hermitian only up to E = A - A^H, the value differs from
Tr[(G U)^2] by at most 4 ||A||^3 ||E|| (spectral norms) beyond rounding.
These are the per-point costs :func:`check_otoc_cost` states, and it
refuses a call above OTOC_FLOP_BUDGET = 1e13 flops.
"""

import concurrent.futures
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .errors import CostGuardError, FitRejectedError, ValidationError
from .spectral import _gaussian_kernel, mean_level_spacing

OTOC_BLOCK_ROWS = 32       # h: rows of G per block of the OTOC
OTOC_FLOP_BUDGET = 1e13    # flops one otoc call may spend
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OMP_NUM_THREADS")
BROADENING_RADIUS = 9.0    # Gaussian truncation, in units of sigma_omega
BROADENING_BINS = 16       # B: bins per sigma_omega, at least
PAIR_MOMENTS = 9           # N: moments kept per bin and weight
PHASE_OFFSET = 1 / 16      # largest |w - c_k| |t| the time side takes
PAIR_BIN_CAP = 2**20       # bins one pair measure may hold
CELL_BLOCK = 2**15         # (frequency, bin) cells formed at once


def gibbs_weights(spectrum, beta, power=1.0):
    """Weights rho_n**power of the Gibbs state rho = exp(-beta H)/Z at
    inverse temperature beta >= 0: exp(power * (-beta E_n - log Z)), with
    log Z in stabilized log form. beta = 0 gives the exact uniform 1/d, or
    d**(-power)."""
    if beta < 0 or not math.isfinite(beta):
        raise ValidationError("beta must be finite and nonnegative")
    if beta == 0:
        d = spectrum.dim
        return np.full(d, 1.0 / d if power == 1 else float(d) ** (-float(power)))
    logw = -beta * spectrum.eigenvalues
    peak = logw.max()
    log_z = float(peak + math.log(np.exp(logw - peak).sum()))
    return np.exp(power * (logw - log_z))


@dataclass(frozen=True)
class CorrelatorSeries:
    """A correlator sampled on a uniform time grid."""

    kind: str                 # F2 | Fsym | Resp | OTOC
    times: np.ndarray
    values: np.ndarray

    def __post_init__(self):
        values = np.asarray(self.values, dtype=complex)
        times = np.asarray(self.times, dtype=float)
        if values.shape != times.shape:
            raise ValidationError("one value per time point required")
        if not np.all(np.isfinite(values)):
            raise ValidationError(f"{self.kind} series contains non-finite values")
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "times", times)

    def real_values(self, tol=1e-8):
        scale = np.abs(self.values).max(initial=0.0)
        if scale > 0 and np.abs(self.values.imag).max() > tol * scale:
            raise ValidationError(
                f"{self.kind} values are not real within tolerance"
            )
        return self.values.real


@dataclass(frozen=True)
class SpectralDensity:
    """Broadened symmetric and response spectra on a frequency grid."""

    omegas: np.ndarray
    f_values: np.ndarray
    rho_values: np.ndarray
    sigma_omega: float
    beta: float


def measure_width(sigma_omega, t_max):
    """h = min(sigma_omega/16, 1/(8 t_max)): the widest bin that serves both
    sigma_omega and every |t| <= t_max."""
    h = sigma_omega / BROADENING_BINS
    return min(h, 2 * PHASE_OFFSET / t_max) if t_max > 0 else h


@dataclass(frozen=True)
class PairMeasure:
    """The pairs m < n of an operator at one beta, binned at ``width`` over
    w = E_n - E_m; the one table both evaluations read (module docstring)."""

    beta: float
    width: float            # h
    moments: np.ndarray     # (3, N, bins): M_n of the weights p, f and r
    connected: float        # C = sum_m rho_m A_mm^2 - <A>^2, F's w = 0 peak
    mean: float             # <A>_beta
    level_spacing: float    # mean bulk level spacing of the spectrum

    def thermal_correlators(self, times):
        """(F2, Fsym, Resp) at each time; times with h |t|/2 > PHASE_OFFSET
        are refused."""
        times = np.asarray(times, dtype=float)
        h, n_bins = self.width, self.moments.shape[-1]
        # the slack forgives the rounding of h = 1/(8 t_max)
        if h * np.abs(times).max(initial=0.0) > 2 * PHASE_OFFSET * (1 + 1e-12):
            raise ValidationError(f"pair measure of width {h:g} serves |t| <= "
                                  f"{2 * PHASE_OFFSET / h:g} only")
        centres = (np.arange(n_bins) + 0.5) * h
        table = self.moments.reshape(-1, n_bins).T
        # q[t, j] = sum_k exp(i c_k t) M_j,k, one time point at a time
        q = np.array([np.cos(t * centres) @ table + 1j * (np.sin(t * centres) @ table)
                      for t in times]).reshape(times.size, 3, PAIR_MOMENTS)
        # z[t, weight] = sum_n (i h t)^n q_n: sum_{m<n} weight exp(i w t)
        z = q[..., -1]
        for n in range(PAIR_MOMENTS - 2, -1, -1):
            z = z * (1j * h * times[:, None]) + q[..., n]
        values = (self.connected + self.mean**2 + 2 * z[:, 0].real,
                  self.connected + 2 * z[:, 1].real, -8j * z[:, 2].imag)
        return tuple(CorrelatorSeries(kind=kind, times=times, values=v)
                     for kind, v in zip(("F2", "Fsym", "Resp"), values))

    def spectral_densities(self, sigma_omega, omegas):
        """F and rho broadened at width sigma_omega on a frequency grid in any
        order. sigma_omega must be at least 1 mean bulk level spacing, below
        which the curves are under-resolved combs, and at least B h."""
        omegas = np.asarray(omegas, dtype=float)
        if sigma_omega < self.level_spacing:
            raise ValidationError(
                f"sigma_omega {sigma_omega:g} under-resolved: below the mean "
                f"bulk level spacing ({self.level_spacing:g})")
        h, n_bins = self.width, self.moments.shape[-1]
        if sigma_omega < BROADENING_BINS * h:
            raise ValidationError(f"pair measure of width {h:g} serves "
                                  f"sigma_omega >= {BROADENING_BINS * h:g} only")
        ratio = h / sigma_omega
        # f and r moments times ratio^n, bin k at k + 1; slot 0 stays zero
        scaled = np.zeros((2, PAIR_MOMENTS, n_bins + 1))
        scaled[:, :, 1:] = self.moments[1:] * ratio ** np.arange(PAIR_MOMENTS)[:, None]
        # every omega at +omega and -omega, one row of window bins each
        reach = math.ceil(BROADENING_RADIUS / ratio)
        sides = np.concatenate((omegas, -omegas))
        side = np.zeros((2, sides.size))    # the f and r sums at each side
        step = max(1, CELL_BLOCK // (2 * reach + 1))
        for b0 in range(0, sides.size, step):
            u = np.clip(sides[b0:b0 + step] / h, -reach - 1.0, n_bins + reach + 1.0)
            k = np.ceil(u - 0.5 - reach)[:, None] + np.arange(2 * reach + 1)
            x = (u[:, None] - 0.5 - k) * ratio
            idx = np.where((np.abs(x) <= BROADENING_RADIUS) & (k >= 0) & (k < n_bins),
                           k + 1, 0).astype(np.intp)
            # sum_n He_n(x) scaled_n by Clenshaw's recurrence for
            # He_(n+1) = x He_n - n He_(n-1), more accurate than the forward
            # one; np.take keeps the rows contiguous for the pairwise sum
            b1 = b2 = 0.0
            for n in range(PAIR_MOMENTS - 1, -1, -1):
                b1, b2 = np.take(scaled[:, n], idx, axis=1) + x * b1 - (n + 1) * b2, b1
            side[:, b0:b0 + step] = (b1 * np.exp(-0.5 * x * x)).sum(axis=-1)

        p = omegas.size
        norm = 1.0 / (math.sqrt(2 * math.pi) * sigma_omega)
        z = omegas / sigma_omega
        diag_vals = self.connected * np.where(
            np.abs(z) <= BROADENING_RADIUS, np.exp(-0.5 * z * z), 0.0)
        return SpectralDensity(omegas, norm * (diag_vals + side[0, :p] + side[0, p:]),
                               norm * (side[1, :p] - side[1, p:]),
                               float(sigma_omega), self.beta)


def pair_measure(a, spectrum, beta, width):
    """The :class:`PairMeasure` of ``a`` at ``beta``: one walk over the pairs
    m < n into bins of width h; more than PAIR_BIN_CAP bins are refused
    first. ``a`` must be Hermitian, since each pair stands for its mirror;
    the pipeline checks that once, when it reads the operator."""
    if not width > 0:
        raise ValidationError(f"pair measure width must be > 0, got {width!r}")
    e = spectrum.eigenvalues
    n_bins = int((e[-1] - e[0]) / width) + 1
    if n_bins > PAIR_BIN_CAP:
        raise CostGuardError(
            f"pair measure of width {width:g} over w up to {e[-1] - e[0]:g} needs "
            f"{n_bins} bins ({n_bins * 3 * PAIR_MOMENTS * 8 / 2**20:.0f} MiB of "
            f"moments), above the cap of {PAIR_BIN_CAP}")
    rho = gibbs_weights(spectrum, beta)
    u = gibbs_weights(spectrum, beta, 0.5)
    moments = np.zeros((3, PAIR_MOMENTS, n_bins))
    for rows, upper, a2 in a.upper_pairs():
        # s = w/h - k - 1/2 in place, k = floor(w/h) the bin as w >= 0
        s = (e - e[rows, None])[upper]
        s /= width
        idx = s.astype(np.intp)
        s -= idx
        s -= 0.5
        # the weights p, f and r one at a time; sum weight s^n here,
        # divided by n! once the walk is done
        for out, (op, g, scale) in zip(moments, ((np.multiply, u, 1.0),
                                                 (np.add, rho, 0.5),
                                                 (np.subtract, rho, 0.25))):
            w = op(g[rows, None], g)[upper]
            w *= a2
            w *= scale
            for n in range(PAIR_MOMENTS):
                if n:
                    w *= s
                out[n] += np.bincount(idx, w, minlength=n_bins)
            del w    # before the next weight is formed
        del s, idx    # before the next block is formed
    moments /= np.array([math.factorial(n) for n in range(PAIR_MOMENTS)])[:, None]
    diag = np.real(np.diagonal(a.matrix))
    return PairMeasure(beta=float(beta), width=float(width), moments=moments,
                       connected=float(np.dot(rho, diag**2) - np.dot(rho, diag) ** 2),
                       mean=float(np.dot(rho, diag)),
                       level_spacing=mean_level_spacing(e))


def _otoc_block_rows(d, n_times):
    """h, the rows per block of W: OTOC_BLOCK_ROWS, or for a single time
    point, whose strip stacks no other point, the taller max(h, d/16), so
    that its GEMM is not a thin 2 h-row one; never more than d."""
    h = OTOC_BLOCK_ROWS if n_times > 1 else max(OTOC_BLOCK_ROWS, d // 16)
    return min(h, d)


def _otoc_strip_points(d, h, n_times):
    """Time points per stacked strip of the OTOC, 2 h rows each: at most
    max(2 h, d/4) rows, whatever ``n_times``."""
    return max(1, min(n_times, d // (8 * h)))


def _otoc_threads(n_times):
    """Threads that sum the time points of one OTOC call:
    max(1, min(n_times, cpus // blas)), cpus the CPUs this process may run
    on and blas the first positive integer among BLAS_THREAD_VARS. With
    none set, BLAS already spreads over every CPU, so one thread."""
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:      # no affinity on this platform
        cpus = os.cpu_count() or 1
    for var in BLAS_THREAD_VARS:
        try:
            blas = int(os.environ.get(var, ""))
        except ValueError:
            continue
        if blas > 0:
            return max(1, min(n_times, cpus // blas))
    return 1


def _otoc_groups(d, h, n_times):
    """Contiguous groups of the time points, one per thread, as
    (start, stop, points per strip): a group's strip holds at most
    ceil(chunk/n) points, chunk = :func:`_otoc_strip_points`, so the strips
    of all n groups hold at most chunk + n - 1."""
    n = _otoc_threads(n_times)
    per = -(-_otoc_strip_points(d, h, n_times) // n)
    stops = [n_times * (i + 1) // n for i in range(n)]
    return [(start, stop, max(1, min(per, stop - start)))
            for start, stop in zip([0] + stops[:-1], stops)]


def check_otoc_cost(a, n_times):
    """Refuse an OTOC of ``a`` at ``n_times`` points above OTOC_FLOP_BUDGET.

    The flops and buffers are the ones :func:`otoc` spends (module
    docstring); the budget of 1e13 admits 7 real points at d = 8192
    (7.7e12). The CostGuardError carries the flops, and its message also
    states the buffer memory.
    """
    d = a.dim
    real = np.isrealobj(a.matrix)
    h = _otoc_block_rows(d, n_times)
    # the 2 rows per block row (real and imaginary part of G, or G and H)
    # at row s multiply the columns s: only: 2 x 2 flops per multiply-add
    # of a real GEMM, 2 x 8 of a complex one
    terms = sum(min(h, d - s) * d * (d - s) for s in range(0, d, h))
    flops = float((4 if real else 16) * terms * n_times)
    if flops > OTOC_FLOP_BUDGET:
        rows = 2 * h * sum(points for _, _, points in _otoc_groups(d, h, n_times))
        buffers = 2 * rows * d * (8 if real else 16)
        raise CostGuardError(
            f"otoc at dim {d} exceeds the budget of {OTOC_FLOP_BUDGET:.2e} "
            f"flops; estimated {flops:.2e} flops for {n_times} time points "
            f"(about {2 if real else 8} d^3 (1 + h/d) each over the upper "
            f"block triangle of W, h = {h}; buffers {buffers / 2**30:.2f} GiB)",
            estimated_flops=flops,
        )


def _gibbs_factor(spectrum, beta):
    """rho^(1/4) with the entries below tiny^(1/2) of its maximum zeroed
    (tiny = np.finfo(float).tiny): they would only feed subnormal numbers,
    slow and far below rounding, into the GEMMs of :func:`otoc`, whose
    operands scaled by u or conj(u) then hold none."""
    w = gibbs_weights(spectrum, beta, 0.25)
    w[w < np.sqrt(np.finfo(float).tiny) * w.max()] = 0.0
    return w


def otoc(a, spectrum, beta, times):
    """Four-point out-of-time-order correlator with rho^(1/4) regulators.

    Sums u^T W u over the upper block triangle of W by the strip GEMMs of
    the module docstring, which states their flops, thread groups and
    buffers (no d x d one), and the error of an A Hermitian only up to
    E = A - A^H; every point is summed by one thread through the same
    operations, so the value agrees with the one-thread sum to rounding.
    Calls above OTOC_FLOP_BUDGET flops are refused by :func:`check_otoc_cost`
    instead of silently grinding. ``a`` must be Hermitian; that is not
    checked here (the pipeline checks the operator once, when it reads it).

    States with rho_k < tiny^2 * max(rho) (tiny = np.finfo(float).tiny)
    are dropped by :func:`_gibbs_factor`. Foto is linear in each of its
    four rho^(1/4) factors, and Hoelder's inequality with ||rho^(1/4)||_4 = 1
    bounds the dropped contribution by
    4 r (1 + r)^3 ||A||^4, with ||A|| the spectral norm and
    r = (sum of the dropped rho_k)^(1/4) < d^(1/4) tiny^(1/2) ~ 1.5e-154 d^(1/4).
    """
    times = np.asarray(times, dtype=float)
    check_otoc_cost(a, times.size)
    q = _gibbs_factor(spectrum, beta)
    vals = _otoc_sum(a.matrix, q, spectrum.eigenvalues, times)
    series = CorrelatorSeries(kind="OTOC", times=times, values=vals)
    return replace(series, values=series.real_values())


def _otoc_sum(a, q, e, times):
    """u^T W u for every time point, the groups of :func:`_otoc_groups`
    each on its own thread (numpy's GEMMs and ufuncs release the GIL)."""
    d = a.shape[0]
    h = _otoc_block_rows(d, times.size)
    groups = _otoc_groups(d, h, times.size)
    if len(groups) == 1:
        return _otoc_group(a, q, e, times, h, groups[0][2])
    with concurrent.futures.ThreadPoolExecutor(max_workers=len(groups)) as pool:
        parts = pool.map(lambda g: _otoc_group(a, q, e, times[g[0]:g[1]], h, g[2]),
                         groups)
        return np.concatenate(list(parts))


def _otoc_group(a, q, e, times, rows, chunk):
    """u^T W u over ``rows``-row blocks of W's upper block triangle,
    ``chunk`` time points stacked per strip."""
    d = a.shape[0]
    real = np.isrealobj(a)
    strip = np.empty(2 * chunk * rows * d, dtype=a.dtype)
    prod = np.empty_like(strip)
    vals = np.zeros(times.size, dtype=complex)
    for t0 in range(0, times.size, chunk):
        u = q * np.exp(1j * np.multiply.outer(times[t0:t0 + chunk], e))
        k = u.shape[0]
        # per point the strip scalings, (Re conj(u), Im conj(u)) (real and
        # imaginary part of the rows of G) or (conj(u), u) (rows of G and
        # H), and the weights u and 2u of the diagonal block and the blocks
        # right of it
        ub = u.conj()
        scale = np.stack((ub.real, ub.imag) if real else (ub, u), axis=1)[:, :, None]
        u2 = 2 * u
        for s in range(0, d, rows):
            h, n = min(rows, d - s), d - s
            left = strip[:2 * k * h * d].reshape(k, 2, h, d)
            np.multiply(a[s:s + h], scale, out=left)
            out = prod[:2 * k * h * n].reshape(k, 2, h, n)
            np.matmul(left.reshape(-1, d), a[:, s:], out=out.reshape(-1, n))
            if real:
                # G into the strip the GEMM has consumed; conj(H) = G,
                # weighted below into the product G was read from
                g = strip[:2 * k * h * n].view(complex).reshape(k, h, n)
                np.copyto(g.real, out[:, 0])
                np.copyto(g.imag, out[:, 1])
                hc = prod[:2 * k * h * n].view(complex).reshape(k, h, n)
                src = g
            else:
                g, hc = out[:, 0], out[:, 1]
                src = np.conjugate(hc, out=hc)
            np.multiply(src[..., :h], u[:, None, s:s + h], out=hc[..., :h])
            np.multiply(src[..., h:], u2[:, None, s + h:], out=hc[..., h:])
            vals[t0:t0 + k] += np.einsum("ki,ki->k", u[:, s:s + h],
                                         np.einsum("kij,kij->ki", g, hc))
    return vals


@dataclass(frozen=True)
class FdtDeviation:
    """Result of the fluctuation-dissipation ratio check."""

    max_rel_dev: float
    n_admissible: int
    degenerate_beta: bool

    @property
    def empty(self):
        return self.n_admissible == 0


def fdt_check(sd, threshold=0.3):
    """Max relative deviation of F(w) - 2*coth(beta*w/2)*rho(w).

    Admissible frequencies have |rho| at least ``threshold`` of its maximum
    and |w| >= 4*sigma_omega (the broadened w = 0 diagonal peak of F has no
    response counterpart and must stay out). The default threshold keeps the
    check where the response carries appreciable weight; at low weight the
    broadened ratio is dominated by kernel smearing of coth across sparse
    peaks, not by the identity itself. beta = 0 makes the response vanish
    identically and is flagged degenerate rather than divided by.
    """
    rho_scale = np.abs(sd.rho_values).max(initial=0.0)
    sel = (np.abs(sd.rho_values) >= threshold * rho_scale) & \
          (np.abs(sd.omegas) >= 4 * sd.sigma_omega)
    if sd.beta == 0 or rho_scale == 0 or not np.any(sel):
        return FdtDeviation(max_rel_dev=float("nan"), n_admissible=0,
                            degenerate_beta=sd.beta == 0)
    w = sd.omegas[sel]
    predicted = 2.0 / np.tanh(sd.beta * w / 2.0) * sd.rho_values[sel]
    dev = np.abs(sd.f_values[sel] - predicted) / sd.f_values[sel]
    return FdtDeviation(max_rel_dev=float(dev.max()), n_admissible=int(sel.sum()),
                        degenerate_beta=False)


@dataclass(frozen=True)
class LyapunovFit:
    """Exponential-growth fit of the rescaled four-point correlator, with
    the dissipation time it was checked against (t_d < t_s)."""

    lam: float
    t_s: float
    t_d: float
    residual_rms: float
    reliability: str


def _reliability_grade(residual_rms):
    if residual_rms < 1e-8:
        return "exact"
    if residual_rms < 0.05:
        return "good"
    return "poor"


def dissipation_time(f2):
    """1/e decay time of the normalized two-point correlator.

    Normalization is |F2(t) - F2(inf)| / |F2(0) - F2(inf)| with F2(inf)
    approximated by the tail mean over the last quarter of the grid. Returns
    the first crossing by linear interpolation, or the final time when the
    correlator never decays that far.
    """
    t = f2.times
    y = f2.real_values()
    tail = y[-max(2, y.size // 4):].mean()
    g = np.abs(y - tail)
    if g[0] <= 0:
        return float(t[0])
    g = g / g[0]
    target = 1.0 / math.e
    below = np.where(g <= target)[0]
    if below.size == 0:
        return float(t[-1])
    j = below[0]    # >= 1: g[0] is exactly 1
    frac = (g[j - 1] - target) / (g[j - 1] - g[j])
    return float(t[j - 1] + frac * (t[j] - t[j - 1]))


def fit_lyapunov(otoc_series, f2_zero, eps_reg, window, t_d):
    """Fit log(1 - f(t)) = lam*(t - t_s) on a window, f = Foto/(F2(0)^2 + eps).

    Rejects non-growing fits (lam <= 0), windows whose data crosses
    1 - f <= 0, fits whose scrambling time lands inside or before the
    window (the growth ansatz only makes sense for t << t_s), and fits
    without the hierarchy t_d < t_s, where ``t_d`` is the dissipation time
    of the same beta (:func:`dissipation_time` of its F2 series).
    """
    t = otoc_series.times
    y = otoc_series.real_values(tol=1e-6)
    lo, hi = window
    sel = (t >= lo) & (t <= hi)
    if sel.sum() < 3:
        raise ValidationError("fit window must contain at least 3 grid points")
    denom = f2_zero**2 + eps_reg
    if denom <= 0:
        raise ValidationError("rescale constant F2(0)^2 + eps must be positive")
    f = y[sel] / denom
    growth = 1.0 - f
    if np.any(growth <= 0):
        raise FitRejectedError("1 - f(t) is nonpositive inside the fit window")
    x = t[sel]
    logg = np.log(growth)
    slope, intercept = np.polyfit(x, logg, 1)
    if slope * (x[-1] - x[0]) < 1e-10:
        raise FitRejectedError("non-growing series: fitted rate <= 0")
    lam = float(slope)
    t_s = float(-intercept / slope)
    if t_s <= hi:
        raise FitRejectedError(
            f"fit window extends past the fitted scrambling time t_s={t_s:g}"
        )
    if t_d >= t_s:
        raise FitRejectedError(f"no valid hierarchy: t_d={t_d:g} >= t_s={t_s:g}")
    fitted = intercept + slope * x
    residual = float(np.sqrt(np.mean((logg - fitted) ** 2)))
    return LyapunovFit(lam=lam, t_s=t_s, t_d=t_d, residual_rms=residual,
                       reliability=_reliability_grade(residual))


def gaussian_wavepacket(spectrum, center, sigma):
    """Populations |c_n|^2 of a Gaussian wave packet around an energy:
    exp(-(E_n - center)^2 / (2 sigma^2)), the spectral Gaussian kernel's
    row at the centre, normalised to sum to one.

    The infinite-time average of a state and its fluctuations about it
    depend on the state only through these populations when the energy
    gaps are nondegenerate, so no phases are drawn.
    """
    if not 0 < sigma < math.inf:
        raise ValidationError(f"wavepacket width must be positive and finite, got {sigma!r}")
    p = _gaussian_kernel(np.array([center], dtype=float), spectrum.eigenvalues, sigma)[0]
    if p.max() <= 0:
        raise ValidationError("wavepacket has no support on the spectrum")
    return p / p.sum()


def dynamical_fluctuation(a, populations):
    """Infinite-time-averaged fluctuation sum_{m != n} p_n p_m |A_mn|^2 of
    a state with the given populations p_n = |c_n|^2.

    The off-diagonal terms are summed directly, row block by row block, so
    the result is exactly 0 for a diagonal operator and never negative.

    Assumes nondegenerate energy gaps; rare rational gap coincidences in
    real chains are not corrected for.
    """
    total = 0.0
    for rows, a2 in a.abs2_rows():
        np.fill_diagonal(a2[:, rows], 0.0)
        total += populations[rows] @ (a2 @ populations)
    return float(total)


def static_fluctuation(a, n):
    """Eigenstate measurement variance sum_{m != n} |A_mn|^2.

    The off-diagonal entries of column n are summed directly, so the
    result is exactly 0 for a diagonal operator and never negative.
    """
    col = np.abs(a.matrix[:, n]) ** 2
    col[n] = 0.0
    return float(np.sum(col))
