"""Output checks for one benchmark run, against an independent reference.

The reference is computed here, from the run's inputs and its two payload
files, by code that shares nothing with ``ethlab``: its own ``.ethb`` and
CSV readers, a Hamiltonian built from sparse Kronecker products, windowed
(not dense) Gaussian broadening, ``polyfit`` for the decay fits, and so on.
Every check is on a gauge-invariant quantity:

- eigenvalues against ``eigvalsh`` of the independently built Hamiltonian
  (Ising), or against a regeneration of the documented Philox stream
  (synthetic); for synthetic operators also three rows regenerated from
  their per-row streams;
- the operator in the eigenbasis through traces that do not depend on the
  eigenvector signs: Tr A, Tr A^2, Tr HA and Tr HAHA, each also computed in
  the site basis;
- derived outputs recomputed from the payloads: entropy S(E), the window,
  the envelope f2 and its counts, ``central_gamma``, the Knill-Laflamme
  ``eps_max``, correlator series, spectral densities, ``f2_zero``, the FDT
  deviation and the measured fluctuations.

Left out on purpose: the raw bytes of ``operator.ethb`` and the Gaussianity
moments. With more than one BLAS thread ``eigh`` returns eigenvectors with
other signs, so those bytes and the sign-dependent moments change with the
thread count (ROADMAP open item 3).

Values at the roundoff floor, such as ``eps_max`` of a unitary observable
(about 1e-16), are compared against an absolute floor of d * eps_mach * C_A,
never relatively.
"""

import hashlib
import json
import math
import os
import struct

import numpy as np

EPS = float(np.finfo(float).eps)
# Derived quantities: the same math in another summation order. Series are
# compared absolutely, at RTOL times the series' scale.
RTOL = 1e-9


class Checks:
    """Named pass/fail results of one run."""

    def __init__(self):
        self.results = []

    def ok(self, name, cond, detail=""):
        self.results.append((name, bool(cond), detail))
        return bool(cond)

    def close(self, name, got, want, rtol=RTOL, atol=0.0):
        got = np.asarray(got, dtype=float)
        want = np.asarray(want, dtype=float)
        if got.shape != want.shape:
            return self.ok(name, False, f"shape {got.shape} != {want.shape}")
        both_nan = np.isnan(got) & np.isnan(want)
        dev = np.where(both_nan, 0.0, np.abs(got - want))
        lim = atol + rtol * np.abs(want)
        bad = ~(dev <= lim)
        worst = float(np.nanmax(dev)) if dev.size else 0.0
        return self.ok(name, not bad.any(), f"max dev {worst:.3g}")

    @property
    def failed(self):
        return [r for r in self.results if not r[1]]


def read_ethb(path):
    """Read the documented array container (24-byte little-endian header)."""
    with open(path, "rb") as fh:
        raw = fh.read()
    magic, _, kind, code, nrows, ncols = struct.unpack("<4sHBBQQ", raw[:24])
    if magic != b"ETHB":
        raise ValueError(f"{path}: bad magic")
    dtype = {1: "<f8", 2: "<c16"}[code]
    data = np.frombuffer(raw, dtype=dtype, offset=24)
    return data if kind == 2 else data.reshape(nrows, ncols)


def read_table(path):
    with open(path) as fh:
        header = fh.readline().strip().split(",")
    data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    return {h: data[:, i] for i, h in enumerate(header)}


def load(path):
    with open(path) as fh:
        return json.load(fh)


# ---------------------------------------------------------------- inputs

_PAULI = {"I": [[1, 0], [0, 1]], "X": [[0, 1], [1, 0]],
          "Y": [[0, -1j], [1j, 0]], "Z": [[1, 0], [0, -1]]}


def _site_op(letters, n):
    import scipy.sparse as sp
    op = sp.identity(1, format="csr")
    for site in range(n):
        op = sp.kron(op, sp.csr_matrix(np.array(_PAULI[letters.get(site, "I")])),
                     format="csr")
    return op


def ising_hamiltonian(model):
    """Sparse H = sum J Z_i Z_i+1 + sum (hx X_i + hz Z_i), site 0 leftmost."""
    n = model["n_sites"]
    bonds = [(i, i + 1) for i in range(n - 1)]
    if model.get("boundary", "open") == "periodic":
        bonds.append((n - 1, 0))
    h = sum(model.get("j", 1.0) * _site_op({i: "Z", k: "Z"}, n) for i, k in bonds)
    for i in range(n):
        h = h + model.get("hx", 0.9045) * _site_op({i: "X"}, n)
        h = h + model.get("hz", 0.8090) * _site_op({i: "Z"}, n)
    return h.tocsr()


def observable(cfg):
    obs = cfg.get("observable", {})
    return _site_op(dict(zip(obs.get("sites", [0]), obs.get("paulis", "Z"))),
                    cfg["model"]["n_sites"])


def ising_eigenvalues(model, cache_dir):
    """eigvalsh of the independent Hamiltonian, cached per model block."""
    key = hashlib.sha256(json.dumps(model, sort_keys=True).encode()).hexdigest()[:16]
    path = os.path.join(cache_dir, f"eigvals-{key}.npy")
    if os.path.exists(path):
        return np.load(path)
    vals = np.linalg.eigvalsh(ising_hamiltonian(model).toarray())
    os.makedirs(cache_dir, exist_ok=True)
    np.save(path + ".tmp.npy", vals)
    os.replace(path + ".tmp.npy", path)
    return vals


def synth_row(seed, m, e, s_half, f0, gamma):
    """Row m of a synthetic operator from its documented per-row stream."""
    rng = np.random.Generator(np.random.Philox(
        key=np.array([seed, m], dtype=np.uint64)))
    row = np.zeros(e.size, dtype=complex)
    row[m] = math.exp(-s_half) * f0 * rng.standard_normal()
    tail = e.size - m - 1
    buf = rng.standard_normal(2 * tail)
    r = (buf[0::2] + 1j * buf[1::2]) * math.sqrt(0.5)
    row[m + 1:] = math.exp(-s_half) * f0 * np.exp(-gamma * np.abs(e[m] - e[m + 1:])) * r
    return row


# ---------------------------------------------------------------- reference

def level_spacing(e, bulk=0.6):
    n = e.size
    lo = int(round(n * (1 - bulk) / 2))
    return float(np.diff(e[lo:max(lo + 2, n - lo)]).mean())


def entropy_grid(e, sigma=None, points=2049):
    span = e[-1] - e[0]
    sigma = 0.02 * span if sigma is None else sigma
    grid = np.linspace(e[0] - 2 * sigma, e[-1] + 2 * sigma, points)
    dens = np.zeros(points)
    for lo in range(0, e.size, 512):
        z = (grid[:, None] - e[None, lo:lo + 512]) / sigma
        dens += np.exp(-0.5 * z * z).sum(axis=1)
    return grid, np.log(np.maximum(dens / (math.sqrt(2 * math.pi) * sigma), 1e-300))


def window(e, grid, s, fraction=0.05):
    sel = (grid >= e[0]) & (grid <= e[-1])
    center = float(grid[sel][np.argmax(s[sel])])
    half = fraction * (e[-1] - e[0])
    return (center, half, int(np.searchsorted(e, center - half, "left")),
            int(np.searchsorted(e, center + half, "right")))


def envelope(e, a2, grid, s, e_bins=8, omega_bins=48, min_count=50, fit_window=None):
    """Binned f2 over ordered pairs m != n, from the upper triangle."""
    span = e[-1] - e[0]
    e_edges = np.linspace(e[0], e[-1], e_bins + 1)
    w_edges = np.linspace(0.0, span, omega_bins + 1)
    counts = np.zeros(e_bins * omega_bins)
    sums = np.zeros(e_bins * omega_bins)
    for m in range(e.size - 1):
        i = np.searchsorted(e_edges, 0.5 * (e[m] + e[m + 1:]), "right") - 1
        j = np.searchsorted(w_edges, np.abs(e[m] - e[m + 1:]), "right") - 1
        ok = (i < e_bins) & (j < omega_bins)
        flat = i[ok] * omega_bins + j[ok]
        counts += 2 * np.bincount(flat, minlength=counts.size)
        sums += np.bincount(flat, weights=a2[m, m + 1:][ok] + a2[m + 1:, m][ok],
                            minlength=sums.size)
    counts = counts.reshape(e_bins, omega_bins)
    sums = sums.reshape(e_bins, omega_bins)
    e_c = 0.5 * (e_edges[:-1] + e_edges[1:])
    w_c = 0.5 * (w_edges[:-1] + w_edges[1:])
    alive = counts >= min_count
    f2 = np.where(alive, sums / np.maximum(counts, 1) * np.exp(np.interp(e_c, grid, s))[:, None],
                  np.nan)
    lo, hi = fit_window or (4 * level_spacing(e), span)
    in_fit = (w_c >= lo) & (w_c <= hi)
    gamma = np.full(e_bins, np.nan)
    for k in range(e_bins):
        ok = alive[k] & in_fit & (f2[k] > 0)
        if ok.sum() >= 4:
            slope = np.polyfit(w_c[ok], np.log(f2[k, ok]), 1, w=np.sqrt(counts[k, ok]))[0]
            gamma[k] = -0.5 * slope
    fin = np.where(np.isfinite(gamma))[0]
    mid = 0.5 * (e_edges[0] + e_edges[-1])
    central = float(gamma[fin[np.argmin(np.abs(e_c[fin] - mid))]]) if fin.size else math.nan
    rows = [(e_c[a], w_c[b], f2[a, b], counts[a, b]) for a, b in zip(*np.nonzero(alive))]
    return np.array(rows).reshape(-1, 4), central


def correlators(e, a2, diag, beta, times):
    """F2, Fsym and the response as Lehmann sums in cos/sin form."""
    rho = np.exp(-beta * (e - e.min()))
    rho /= rho.sum()
    c, s = np.cos(np.outer(e, times)), np.sin(np.outer(e, times))
    u = np.sqrt(rho)
    w = u[:, None] * u[None, :] * a2
    f2 = np.sum(c * (w @ c) + s * (w @ s), axis=0)
    p = rho[:, None] * a2
    pc, ps = p @ c, p @ s
    re_c = np.sum(c * pc + s * ps, axis=0)
    im_c = np.sum(s * pc - c * ps, axis=0)
    mean = float(rho @ diag)
    return {"f2": f2, "fsym": re_c - mean**2, "resp": 2 * im_c,
            "scale_f2": float(w.sum()), "scale_c": float(p.sum())}


def otoc_at(e, a, beta, t):
    rho = np.exp(-beta * (e - e.min()))
    q = (rho / rho.sum()) ** 0.25
    ph = np.exp(1j * e * t)
    x = ((q * ph)[:, None] * a * (q * ph.conj())[None, :]) @ a
    return complex(np.sum(x * x.T))


def spectral(e, a2, diag, beta, sigma, omegas, cut=8.0):
    """Gaussian-broadened F and rho, summing only peaks within cut*sigma."""
    rho = np.exp(-beta * (e - e.min()))
    rho /= rho.sum()
    iu = np.triu_indices(e.size, 1)
    w = e[iu[1]] - e[iu[0]]
    order = np.argsort(w)
    w = w[order]
    aa = a2[iu][order]
    fw = 0.5 * (rho[iu[0]] + rho[iu[1]])[order] * aa
    rw = 0.25 * (rho[iu[0]] - rho[iu[1]])[order] * aa
    dw = float(rho @ diag**2 - (rho @ diag) ** 2)
    norm = 1.0 / (math.sqrt(2 * math.pi) * sigma)
    f = np.empty(omegas.size)
    r = np.empty(omegas.size)
    for k, om in enumerate(omegas):
        f[k] = dw * norm * math.exp(-0.5 * (om / sigma) ** 2)
        r[k] = 0.0
        for sign in (1.0, -1.0):   # peaks at +w (weights f, r) and -w (f, -r)
            lo, hi = np.searchsorted(w, [sign * om - cut * sigma, sign * om + cut * sigma])
            kern = norm * np.exp(-0.5 * ((sign * om - w[lo:hi]) / sigma) ** 2)
            f[k] += kern @ fw[lo:hi]
            r[k] += sign * (kern @ rw[lo:hi])
    return f, r


# ---------------------------------------------------------------- checks

def check_run(chk, workload, out, exit_codes, refs, cache_dir):
    """Check one run's outputs.

    ``refs`` maps a hash of a point's payloads and config to its reference,
    so runs with identical payloads share one; ``cache_dir`` keeps the Ising
    eigenvalue references between invocations.
    """
    chk.ok("exit_status", all(c == 0 for c in exit_codes), f"codes {exit_codes}")
    missing = [f for f in workload.expected_files() if not os.path.exists(os.path.join(out, f))]
    if not chk.ok("files_present", not missing, f"missing {missing[:3]}"):
        return
    if workload.workers > 1:
        check_aggregate(chk, workload, out)
    elif "bounds" in workload.stages:
        chk.ok("all_within_slack",
               load(os.path.join(out, "manifest.json")).get("all_within_slack") is True)
    for point in workload.points:
        pdir = os.path.join(out, point)
        pcfg = load(os.path.join(pdir, "config.json"))
        check_point(chk, workload, pcfg, pdir, refs, cache_dir,
                    prefix=point and point.split("/")[-1] + ":")


def check_aggregate(chk, workload, out):
    with open(os.path.join(out, "aggregate.csv")) as fh:
        header = fh.readline().strip().split(",")
        rows = [dict(zip(header, line.strip().split(","))) for line in fh if line.strip()]
    chk.ok("aggregate_rows", len(rows) == len(workload.points), f"{len(rows)} rows")
    for row in rows:
        name = "model.dim=" + row["model.dim"]
        chk.ok(f"{name}:point_status", row["status"] == "ok", row["status"])
        code = load(os.path.join(out, "points", name, "code_error.json"))
        chk.close(f"{name}:aggregate_eps_max", float(row["eps_max"]), code["eps_max"], 0.0)


def check_point(chk, workload, cfg, pdir, refs, cache_dir, prefix=""):
    model = cfg["model"]
    e = np.array(read_ethb(os.path.join(pdir, "spectrum.ethb")))
    a = read_ethb(os.path.join(pdir, "operator.ethb"))
    d = e.size
    key = hashlib.sha256()
    for f in ("spectrum.ethb", "operator.ethb", "entropy.csv", "config.json"):
        with open(os.path.join(pdir, f), "rb") as fh:
            key.update(fh.read())
    key = key.hexdigest()

    def c(name, got, want, rtol=RTOL, atol=0.0):
        chk.close(prefix + name, got, want, rtol, atol)

    ent = read_table(os.path.join(pdir, "entropy.csv"))
    grid, s = ent["e"], ent["s"]
    emax = max(1.0, float(np.abs(e).max()))
    if model["kind"] == "ising":
        ref_e = ising_eigenvalues(model, cache_dir)
        c("eigenvalues", e, ref_e, 0.0, 1e-12 * emax)
        h, o = ising_hamiltonian(model), observable(cfg)
        ho = h @ o
        diag = np.real(np.diagonal(a))
        c("op_hermitian", np.abs(a - a.conj().T).max(), 0.0, 0.0, 1e-12 * np.abs(a).max())
        c("op_trace", diag.sum(), np.real(o.diagonal().sum()), 0.0, 1e-11 * d)
        c("op_trace_a2", np.sum(np.abs(a) ** 2), abs(o).power(2).sum(), 1e-11)
        c("op_trace_ha", e @ diag, np.real(h.multiply(o.T).sum()), 0.0, 1e-11 * d * emax)
        c("op_trace_haha", e @ (np.abs(a) ** 2) @ e, np.real(ho.multiply(ho.T).sum()),
          0.0, 1e-11 * d * emax**2)
        ref_grid, ref_s = entropy_grid(e, cfg.get("extract", {}).get("sigma_s"))
        c("entropy_grid", grid, ref_grid, 1e-12, 1e-12 * emax)
        c("entropy", s, ref_s, 1e-10, 1e-10)
    else:
        seed = cfg["seed"]
        rng = np.random.Generator(np.random.Philox(
            key=np.array([seed, 1 << 63], dtype=np.uint64)))
        c("eigenvalues", e, np.sort(rng.random(d) * model["bandwidth"]), 0.0, 0.0)
        chk.ok(prefix + "op_hermitian", np.array_equal(a, a.conj().T))
        env = model["envelope"]
        s_half = 0.5 * math.log(d)
        for m in (0, d // 2, d - 2):
            want = synth_row(seed, m, e, s_half, env["f0"], env["gamma"])
            c(f"op_row{m}", np.abs(a[m, m:] - want[m:]).max(), 0.0, 0.0,
              1e-13 * np.abs(want).max())
        c("entropy", s, np.full(s.size, math.log(d)), 1e-15)

    if key not in refs:
        refs[key] = reference(cfg, e, a, grid, s, "dynamics" in workload.stages)
    ref = refs[key]

    ext = load(os.path.join(pdir, "extract.json"))
    win = ext["window"]
    chk.ok(prefix + "window_bounds", (win["start"], win["stop"]) == ref["window"][2:],
           f"{(win['start'], win['stop'])} vs {ref['window'][2:]}")
    c("window_center", [win["center"], win["half_width"]], ref["window"][:2], 1e-12)
    env = read_table(os.path.join(pdir, "envelope.csv"))
    got = np.column_stack([env["e_center"], env["omega_center"], env["f2"], env["count"]])
    if chk.ok(prefix + "envelope_bins", got.shape == ref["envelope"].shape
              and np.array_equal(got[:, 3], ref["envelope"][:, 3]),
              f"{got.shape[0]} vs {ref['envelope'].shape[0]} bins"):
        c("envelope_centers", got[:, :2], ref["envelope"][:, :2], 1e-12, 1e-12 * emax)
        c("envelope_f2", got[:, 2], ref["envelope"][:, 2])
    cg = ext["central_gamma"]
    c("central_gamma", math.nan if cg is None else cg, ref["central_gamma"], 1e-8)

    code = load(os.path.join(pdir, "code_error.json"))
    center, _, start, stop = ref["window"]
    need = 1 << cfg.get("code", {}).get("k", 1)
    nearest = start + np.argsort(np.abs(e[start:stop] - center), kind="stable")[:need]
    chk.ok(prefix + "code_members", sorted(code["members"]) == sorted(nearest.tolist()),
           f"{code['members']}")
    g = a[:, code["members"]]
    gram = g.conj().T @ g
    c_a = float(np.real(np.diagonal(gram)).mean())
    eps_max = float(np.abs(gram - c_a * np.eye(len(code["members"]))).max())
    c("eps_max", code["eps_max"], eps_max, RTOL, d * EPS * c_a)

    if "dynamics" not in workload.stages:
        return
    dyn = load(os.path.join(pdir, "dynamics.json"))["per_beta"][0]
    for name in ("f2", "fsym", "resp"):
        t = read_table(os.path.join(pdir, f"correlator_{name}_beta1.csv"))
        scale = ref["scale_f2"] if name == "f2" else ref["scale_c"]
        want = ref[name]
        zero = np.zeros_like(want)
        want_re, want_im = (zero, want) if name == "resp" else (want, zero)
        c(f"{name}_re", t["re"], want_re, 0.0, RTOL * scale)
        c(f"{name}_im", t["im"], want_im, 0.0, RTOL * scale)
    t = read_table(os.path.join(pdir, "correlator_otoc_beta1.csv"))
    idx, vals = ref["otoc"]
    scale = max(abs(v) for v in vals)
    c("otoc_re", t["re"][idx], np.real(vals), 0.0, RTOL * scale)
    c("otoc_im", t["im"][idx], np.imag(vals), 0.0, RTOL * scale)
    sd = read_table(os.path.join(pdir, "spectral_density_beta1.csv"))
    sidx, f_ref, r_ref = ref["spectral"]
    c("spectral_f", sd["f"][sidx], f_ref, 0.0, RTOL * np.abs(f_ref).max())
    c("spectral_rho", sd["rho"][sidx], r_ref, 0.0, RTOL * np.abs(f_ref).max())
    c("f2_zero", dyn["f2_zero"], ref["f2"][0])
    dcfg = cfg["dynamics"]
    beta = cfg["thermal"]["betas"][0]
    om, f, r = sd["omega"], sd["f"], sd["rho"]
    sel = (np.abs(r) >= dcfg["fdt_threshold"] * np.abs(r).max()) & \
          (np.abs(om) >= 4 * dcfg["sigma_omega"])
    dev = np.abs(f[sel] - 2.0 / np.tanh(beta * om[sel] / 2.0) * r[sel]) / f[sel]
    chk.ok(prefix + "fdt_admissible", dyn["fdt_admissible_points"] == int(sel.sum()))
    c("fdt_max_deviation", dyn["fdt_max_deviation"], dev.max())
    dyn_ref, total, stat_idx, stat_ref = ref["fluct"]
    c("dynamical_fluctuation", dyn["measured_dynamical_fluctuation"], dyn_ref,
      RTOL, d * EPS * total)
    chk.ok(prefix + "static_index", dyn["static_eigenstate_index"] == stat_idx)
    c("static_fluctuation", dyn["measured_static_fluctuation"], stat_ref, RTOL, d * EPS)


def reference(cfg, e, a, grid, s, with_dynamics):
    """Everything the checks derive from one point's payloads."""
    d = e.size
    a2 = np.abs(a) ** 2
    x = cfg.get("extract", {})
    win = window(e, grid, s, cfg.get("code", {}).get("window_half_width_fraction", 0.05))
    env, central = envelope(e, a2, grid, s, x.get("e_bins", 8), x.get("omega_bins", 48),
                            x.get("min_count", 50), x.get("fit_window"))
    ref = {"window": win, "envelope": env, "central_gamma": central}
    if not with_dynamics:
        return ref
    dcfg = cfg["dynamics"]
    beta = cfg["thermal"]["betas"][0]
    diag = np.real(np.diagonal(a))
    ref.update(correlators(e, a2, diag, beta,
                           np.linspace(0.0, dcfg["t_max"], dcfg["t_points"])))
    otimes = np.linspace(0.0, dcfg["t_max"], dcfg["otoc_points"])
    # One complex d x d product per time point: check all of them up to
    # d = 1024 and the first, middle and last above.
    idx = np.arange(otimes.size) if d <= 1024 else np.unique([0, otimes.size // 2, otimes.size - 1])
    ref["otoc"] = (idx, [otoc_at(e, a, beta, otimes[i]) for i in idx])
    omax = dcfg.get("omega_max") or 0.6 * (e[-1] - e[0])
    omegas = np.linspace(-omax, omax, dcfg["omega_points"])
    sidx = np.arange(0, omegas.size, max(1, d // 512))
    ref["spectral"] = (sidx, *spectral(e, a2, diag, beta, dcfg["sigma_omega"], omegas[sidx]))
    center, _, start, stop = win
    sigma = dcfg["wavepacket_sigma_fraction"] * (e[-1] - e[0])
    amp2 = np.exp(-((e - center) ** 2) / (2.0 * sigma**2))   # populations only
    p = amp2 / amp2.sum()
    off = a2.copy()
    np.fill_diagonal(off, 0.0)
    stat_idx = int(start + np.argmin(np.abs(e[start:stop] - center)))
    ref["fluct"] = (float(p @ off @ p), float(p @ a2 @ p), stat_idx,
                    float(off[:, stat_idx].sum()))
    return ref
