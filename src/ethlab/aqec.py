"""Knill-Laflamme residuals of eigenstate codes and the chaos-code bounds.

For a code spanned by 2**k eigenstates inside a microcanonical window and a
d-local error operator A, the residual matrix is

    eps_ij = <E_i|A^dag A|E_j> - C_A delta_ij,

computed by the full-spectrum contraction sum_m conj(A_mi) A_mj. C_A is the
arithmetic mean of the code-member diagonal values (the report records the
diagonal spread, so the quality of the which-state independence is visible).
The code error is eps_code = 2**(d+2k) * sqrt(max_ij |eps_ij|).

The bound formulas relate eps_code, the entropy S, the growth rate lam and
the pair frequency separation w:

    eps_code  <= 2**(d+2k) * exp(-S/4 - pi*|w|/(2*lam))        (upper bound)
    lam       >= pi*|w| / (2*ln(2**(d+2k)/eps_code) - S/2)      (lower bound)

with lam itself capped by the chaos bound 2*pi/beta (Maldacena, Shenker and
Stanford, arXiv:1503.01409). The weak form of the upper bound, with
pi*|w|/(4*lam) in the exponent, is the same bound at 2*lam. The fluctuation
bounds (Murthy and Srednicki, arXiv:1906.10808) take the same S, w, lam and
beta, each in a rate form and a code form, with r = eps_code / 2**(d+2k):

    dynamical <= exp(-S - pi*|w|/lam)  or  exp(-S/2) * r**2
    static    <= integral over w' of exp(beta*w'/2 - pi*|w'|/lam)
    FDT       <= 4*pi*cosh(beta*w/2) * (exp(-pi*|w|/lam)  or  exp(S/2) * r**2)

:func:`check_bounds` is the one evaluator of all of them, for one code at
one beta, and returns that beta's one :class:`BoundReport`. A bound beyond
the double range is inf, written as null. Every check is a slack ratio by
one rule, measured / bound: 0 for a zero measurement or an infinite bound,
inf for a zero bound under a nonzero measurement. The inequalities hold up
to O(1) factors, so each check carries a configurable slack: its flag is
its ratio <= slack.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergentIntegralError, ValidationError

DEFAULT_SLACK = 10.0


@dataclass(frozen=True)
class CodeSpec:
    """2**k eigenstate indices forming a code against d-local errors."""

    members: tuple
    k: int
    d: int
    n_qubits: int = None

    def __post_init__(self):
        if self.d < 0 or self.k < 0:
            raise ValidationError("d and k must be nonnegative")
        members = tuple(int(m) for m in self.members)
        object.__setattr__(self, "members", members)
        if len(members) != 1 << self.k:
            raise ValidationError(
                f"code needs 2**k = {1 << self.k} members, got {len(members)}"
            )
        if len(set(members)) != len(members):
            raise ValidationError("code members must be distinct")
        if self.n_qubits is not None and self.d > self.n_qubits:
            raise ValidationError("error locality d exceeds qubit count")


def select_code_states(window, k, method="nearest", *, spectrum, seed=None):
    """Pick 2**k member indices inside a window of ``spectrum``.

    ``nearest`` takes the states closest to the window center (narrowest
    shell); ``random`` draws uniformly inside the window for robustness
    studies.
    """
    need = 1 << k
    idx = window.indices
    if idx.size < need:
        raise ValidationError(
            f"window holds {idx.size} states, need {need} for k={k}"
        )
    if method == "nearest":
        e = spectrum.eigenvalues[idx]
        order = np.argsort(np.abs(e - window.center), kind="stable")
        chosen = np.sort(idx[order[:need]])
    elif method == "random":
        rng = np.random.Generator(np.random.Philox(key=np.uint64(seed or 0)))
        chosen = np.sort(rng.choice(idx, size=need, replace=False))
    else:
        raise ValidationError(f"unknown selection method {method!r}")
    return tuple(int(c) for c in chosen)


@dataclass(frozen=True, kw_only=True)
class KlResidualReport(CodeSpec):
    """A code, checked as a :class:`CodeSpec`, with its residuals against one
    operator: the complex matrix ``epsilon``, its largest modulus ``eps_max``,
    the code error ``eps_code``, the mean ``c_a`` and ``diagonal_spread`` of
    the members' diagonal values, and ``member_energies``, which give ``omega``."""

    c_a: float
    epsilon: np.ndarray
    eps_max: float
    eps_code: float
    member_energies: np.ndarray
    diagonal_spread: float

    @property
    def omega(self):
        """Pair separations w_ij = E_i - E_j of the code members."""
        e = self.member_energies
        return e[:, None] - e[None, :]

    @property
    def omega_char(self):
        """Largest pair separation |w_ij| inside the code."""
        return float(np.abs(self.omega).max())


def kl_residuals(a, spectrum, code):
    """Residuals eps_ij by full-spectrum contraction.

    Cost is O(D * 4**k): only the code-member columns of A enter through
    G = A[:, members], eps = G^dag G - C_A I.
    """
    d = a.matrix.shape[0]
    if spectrum.dim != d:
        raise ValidationError("operator and spectrum dimensions differ")
    members = np.asarray(code.members)
    if members.min() < 0 or members.max() >= d:
        raise ValidationError("code member index out of range")
    g = a.matrix[:, members]
    gram = g.conj().T @ g
    diag = np.real(np.diagonal(gram))
    c_a = float(diag.mean())
    eps = gram - c_a * np.eye(members.size)
    energies = spectrum.eigenvalues[members]
    eps_max = float(np.abs(eps).max())
    eps_code = float(2.0 ** (code.d + 2 * code.k) * math.sqrt(eps_max))
    return KlResidualReport(
        members=code.members, k=code.k, d=code.d, n_qubits=code.n_qubits,
        c_a=c_a,
        epsilon=eps.astype(complex, copy=False),
        eps_max=eps_max,
        eps_code=eps_code,
        member_energies=energies,
        diagonal_spread=float(diag.max() - diag.min()),
    )


def _exp(x):
    """e**x, or inf where that is beyond the double range (math.exp raises)."""
    try:
        return math.exp(x)
    except OverflowError:
        return float("inf")


def code_error_bound(entropy, lam, omega, d, k):
    """Upper bound 2**(d+2k) * exp(-S/4 - pi*|w|/(2*lam)) on the code error.

    The weak form, with pi*|w|/(4*lam) in the exponent (the weaker rate that
    appears when the square root is carried through the frequency factor),
    is this bound at 2*lam: ``code_error_bound(entropy, 2 * lam, omega, d, k)``.
    :func:`check_bounds` gates on the strong form only.
    """
    if lam <= 0:
        raise ValidationError("growth rate lam must be positive")
    return float(2.0 ** (d + 2 * k) * _exp(-entropy / 4.0 - math.pi * abs(omega) / (2.0 * lam)))


def lyapunov_lower_bound(eps_code, d, k, entropy, omega):
    """Lower bound pi*|w| / (2*ln(2**(d+2k)/eps_code) - S/2) on the growth rate.

    Returns 0.0 at w = 0 (no constraint) and None when the denominator is
    nonpositive, i.e. the bound is vacuous for these inputs; vacuity is a
    reportable outcome, not a numeric error.
    """
    if eps_code <= 0:
        # perfect code: ln(1/eps) -> inf, the bound collapses to zero
        return 0.0
    if omega == 0:
        return 0.0
    denom = 2.0 * (math.log(2.0) * (d + 2 * k) - math.log(eps_code)) - entropy / 2.0
    if denom <= 0:
        return None
    return float(math.pi * abs(omega) / denom)


@dataclass(frozen=True)
class BoundReport:
    """Every bound of one code at one beta, with its slack ratios and flags.

    ``slack_ratios`` and ``flags`` hold the six checks that gate, under the
    same names: ``code_error`` (eps_code against ``code_error_rhs``),
    ``pair_max`` (the largest ``per_pair`` ratio), ``lower_over_used``
    (``lambda_lower`` against ``lambda_used``), ``used_over_chaos``
    (``lambda_used`` against ``chaos_bound``), ``dynamical_rate`` and
    ``static`` (the measured fluctuations against ``dynamical_bound_rate``
    and ``static_bound``). Each ratio follows one rule, measured / bound: 0
    for a zero measurement or an infinite bound, inf for a zero bound under
    a nonzero measurement. Each flag is its ratio <= slack. A None
    ``lambda_lower`` (a vacuous growth-rate bound) measures 0, so its ratio
    is 0, as is ``used_over_chaos`` at beta = 0 and ``static`` where the
    integral diverges (``static_divergent``, exactly when pi/lam <= beta/2),
    while a bound that underflows to 0 under a nonzero measurement fails
    its check. The weak code-error bound is :func:`code_error_bound` at
    2*lam and is not reported. The code forms ``dynamical_bound_code`` and ``fdt_bound_code``
    are reference values, not checks: with the lower bound of lam in the
    decreasing exponent they are no valid ceiling whenever eps_code sits
    below its saturation scale (unitary observables drive it to zero).
    ``per_pair`` lists, for every code pair i < j, the separation, the
    pairwise code error 2**(d+2k) * sqrt(|eps_ij|), the bound at that
    separation, and their ratio.
    """

    code_error_rhs: float
    lambda_lower: float
    lambda_used: float
    lambda_source: str
    chaos_bound: float
    entropy_value: float
    omega_char: float
    dynamical_bound_rate: float
    dynamical_bound_code: float
    static_bound: float
    static_divergent: bool
    fdt_bound_rate: float
    fdt_bound_code: float
    slack_ratios: dict
    flags: dict
    per_pair: list

    @property
    def all_within_slack(self):
        """The beta's verdict: every flag holds."""
        return all(self.flags.values())


def _ratio(measured, bound):
    """measured / bound: 0 for a zero measurement or an infinite bound, inf
    for a zero bound under a nonzero measurement."""
    if measured == 0 or bound == math.inf:
        return 0.0
    return float(measured / bound) if bound > 0 else math.inf


def resolve_lambda(beta, lam_fit, gamma):
    """Growth-rate source precedence: accepted fit, envelope-implied, chaos bound.

    ``lam_fit`` is an accepted fit's rate and ``gamma`` the central envelope
    decay rate; either may be None. gamma implies lam = pi/(2*gamma) by
    matching exp(-gamma*|w|) against exp(-pi*|w|/(2*lam)). Returns
    (lam, source).
    """
    if lam_fit is not None and lam_fit > 0:
        return float(lam_fit), "fitted"
    if gamma is not None and math.isfinite(gamma) and gamma > 0:
        return float(math.pi / (2.0 * gamma)), "envelope-implied"
    if beta > 0:
        return float(2.0 * math.pi / beta), "chaos-bound"
    raise ValidationError(
        "no growth-rate source available: no fit, no envelope decay, beta = 0"
    )


def static_fluct_integral(lam, beta):
    """Closed form of the static-fluctuation frequency integral.

    integral over w of exp(beta*w/2 - pi*|w|/lam)
        = (2*pi/lam) / ((pi/lam)**2 - (beta/2)**2),

    finite only below the chaos bound; at or above lam = 2*pi/beta the
    integral diverges and a :class:`DivergentIntegralError` is raised
    carrying the saturation diagnosis.
    """
    if not 0 < lam < math.inf:
        raise ValidationError("growth rate lam must be positive and finite")
    if beta < 0:
        raise ValidationError("beta must be nonnegative")
    a = math.pi / lam
    b = beta / 2.0
    if a <= b:
        raise DivergentIntegralError(lam, beta)
    return float(2.0 * a / (a * a - b * b))


def check_bounds(report, entropy, beta, *, lam_fit, gamma, measured_dynamical,
                 measured_static, slack=DEFAULT_SLACK):
    """Evaluate every inequality of one code at one beta: its :class:`BoundReport`.

    ``lam_fit`` (an accepted fit's rate) and ``gamma`` (the central envelope
    decay rate), each possibly None, are passed to :func:`resolve_lambda`.
    The entropy is taken at the mean code-member energy, and the fluctuation
    bounds at the code's largest pair separation ``omega_char``, against the
    measured dynamical (wave packet) and static (eigenstate) fluctuations.
    Each check's ratio is measured / bound (0 for a zero measurement or an
    infinite bound, inf for a zero bound under a nonzero measurement), and
    its flag is that ratio <= ``slack``: a violation only beyond ``slack``,
    since every inequality drops O(1) constants. The weak code-error bound is
    :func:`code_error_bound` at 2*lam. The report's ``all_within_slack`` is
    the beta's verdict.
    """
    lam, source = resolve_lambda(beta, lam_fit, gamma)
    s_value = float(entropy.entropy_at(float(report.member_energies.mean())))
    d, k = report.d, report.k
    omega_char = report.omega_char
    chaos = float(2.0 * math.pi / beta) if beta > 0 else float("inf")
    rhs = code_error_bound(s_value, lam, omega_char, d, k)
    lower = lyapunov_lower_bound(report.eps_code, d, k, s_value, omega_char)

    per_pair = []
    n = report.epsilon.shape[0]
    pref = 2.0 ** (d + 2 * k)
    omega = report.omega
    for i in range(n):
        for j in range(i + 1, n):
            w = abs(float(omega[i, j]))
            pair_err = pref * math.sqrt(abs(report.epsilon[i, j]))
            pair_rhs = code_error_bound(s_value, lam, w, d, k)
            per_pair.append((i, j, w, pair_err, pair_rhs, _ratio(pair_err, pair_rhs)))

    rate_exponent = -math.pi * omega_char / lam
    rel = report.eps_code / pref

    def fdt(x):
        # 4*pi*cosh(beta*w/2)*e**x with the cosh in the exponents, so that
        # no factor overflows where the product is finite
        h = beta * omega_char / 2.0
        return 2.0 * math.pi * (_exp(x + h) + _exp(x - h))

    dyn_rate = _exp(-s_value + rate_exponent)
    try:
        static_bound, static_div = static_fluct_integral(lam, beta), False
    except DivergentIntegralError:
        static_bound, static_div = float("inf"), True
    slack_ratios = {
        "code_error": _ratio(report.eps_code, rhs),
        "pair_max": max((r[5] for r in per_pair), default=0.0),
        "lower_over_used": _ratio(lower or 0.0, lam),
        # estimated rates may straddle the chaos bound at saturation, so the
        # chaos check carries the same slack as every other inequality
        "used_over_chaos": _ratio(lam, chaos),
        "dynamical_rate": _ratio(measured_dynamical, dyn_rate),
        "static": _ratio(measured_static, static_bound),
    }
    return BoundReport(
        code_error_rhs=rhs,
        lambda_lower=lower if lower is None else float(lower),
        lambda_used=lam,
        lambda_source=source,
        chaos_bound=chaos,
        entropy_value=s_value,
        omega_char=omega_char,
        dynamical_bound_rate=dyn_rate,
        dynamical_bound_code=_exp(-s_value / 2.0) * rel**2,
        static_bound=static_bound,
        static_divergent=static_div,
        fdt_bound_rate=fdt(rate_exponent),
        fdt_bound_code=fdt(s_value / 2.0 + 2.0 * math.log(rel)) if rel > 0 else 0.0,
        slack_ratios=slack_ratios,
        flags={name: ratio <= slack for name, ratio in slack_ratios.items()},
        per_pair=per_pair,
    )
