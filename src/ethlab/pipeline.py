"""Batch pipeline: generate -> extract -> code-error -> dynamics -> bounds.

Each stage reads its inputs from files written by earlier stages, so stages
are independently re-runnable. All numeric payloads (CSV / JSON) are
deterministic functions of (config, seed); the manifest additionally records
wall-clock times and file hashes, and hashes are the determinism contract.
"""

import concurrent.futures
import itertools
import math
import os
import time

import numpy as np

from . import __version__
from .aqec import CodeSpec, KlResidualReport, check_bounds, kl_residuals, select_code_states
from .config import RunConfig
from .dynamics import (dissipation_time, dynamical_fluctuation, fdt_check,
                       fit_lyapunov, fluctuation_bounds, gaussian_wavepacket,
                       otoc, spectral_densities, static_fluctuation,
                       symmetric_and_response, thermal_state, two_point)
from .errors import EthLabError, FitRejectedError, ValidationError
from .extract import (BinningSpec, diagonal_profile, envelope_estimate,
                      gaussianity_stats)
from .io import (dump_json, file_sha256, format_number, load_json, read_array,
                 read_csv, write_array, write_csv, write_series_csv)
from .models import (LocalObservableSpec, SpinChainParams,
                     build_mixed_field_ising, reflection_permutation,
                     to_eigenbasis)
from .spectral import (EnergySpectrum, EntropyModel, OperatorEigenbasis,
                       eigendecompose, entropy_model, microcanonical_window)
from .synth import EnvelopeSpec, SynthSpectrumParams, synth_eth_operator, synth_spectrum

STAGES = ("generate", "extract", "code-error", "dynamics", "bounds")


def _beta_tag(beta):
    return format_number(beta)


def _diag_callable(block):
    kind = block["kind"]
    if kind == "zero":
        return None
    if kind == "constant":
        v = block["value"]
        return lambda e: np.full_like(np.asarray(e, dtype=float), v)
    scale = block["scale"]
    return lambda e: np.tanh(np.asarray(e, dtype=float) / scale)


def _load_spectrum(out):
    eigenvalues = read_array(os.path.join(out, "spectrum.ethb"))
    return EnergySpectrum(eigenvalues=np.asarray(eigenvalues, float), basis=None)


def _load_operator(out):
    return OperatorEigenbasis(matrix=read_array(os.path.join(out, "operator.ethb")))


def _load_entropy(out):
    _, (e, s, beta) = read_csv(os.path.join(out, "entropy.csv"))
    return EntropyModel(sigma_s=0.0, grid_energies=e, grid_entropy=s, grid_beta=beta)


def _window_from_config(cfg, spectrum, ent):
    code_cfg = cfg.data["code"]
    center = code_cfg["window_center"]
    if center == "dos_peak":
        g = ent.grid_energies
        sel = (g >= spectrum.eigenvalues[0]) & (g <= spectrum.eigenvalues[-1])
        center = float(g[sel][np.argmax(ent.grid_entropy[sel])])
    half = code_cfg["window_half_width_fraction"] * spectrum.bandwidth
    return microcanonical_window(spectrum, center, half)


def stage_generate(cfg, out):
    """Build or synthesize the spectrum, the operator, and the entropy model."""
    os.makedirs(out, exist_ok=True)
    model = cfg.data["model"]
    seed = cfg.data["seed"]
    if model["kind"] == "ising":
        params = SpinChainParams(n_sites=model["n_sites"], j=model["j"],
                                 hx=model["hx"], hz=model["hz"],
                                 boundary=model["boundary"])
        spectrum = eigendecompose(build_mixed_field_ising(params),
                                  symmetry=reflection_permutation(params.n_sites))
        obs = cfg.data["observable"]
        a = to_eigenbasis(LocalObservableSpec(sites=tuple(obs["sites"]),
                                              paulis=obs["paulis"]), spectrum)
        if obs["traceless_shift"]:
            # V^dag (op - c I) V = A - c I: subtract the thermal mean at the
            # first beta from the eigenbasis diagonal
            rho = thermal_state(spectrum, cfg.data["thermal"]["betas"][0]).weights
            diag = np.diag_indices(spectrum.dim)
            a.matrix[diag] -= np.dot(rho, a.matrix[diag].real)
        sigma_s = cfg.data["extract"]["sigma_s"]
        ent = entropy_model(spectrum, sigma_s=sigma_s)
    else:
        params = SynthSpectrumParams(dim=model["dim"], dos_shape=model["dos_shape"],
                                     bandwidth=model["bandwidth"], seed=seed)
        spectrum = synth_spectrum(params)
        ent_cfg = model["entropy"]
        if ent_cfg["kind"] == "log_dim":
            ent = EntropyModel.constant(math.log(model["dim"]),
                                        spectrum.eigenvalues[0],
                                        spectrum.eigenvalues[-1])
        else:
            ent = entropy_model(spectrum, sigma_s=ent_cfg["sigma_s"])
        env_cfg = model["envelope"]
        table = env_cfg["table"]
        envelope = EnvelopeSpec(form=env_cfg["form"], gamma=env_cfg["gamma"],
                                f0=env_cfg["f0"],
                                table=tuple(map(tuple, table)) if table else None)
        a = synth_eth_operator(spectrum, ent, envelope,
                               diagonal=_diag_callable(model["diagonal"]),
                               seed=seed)
    write_array(os.path.join(out, "spectrum.ethb"), spectrum.eigenvalues)
    write_array(os.path.join(out, "operator.ethb"), a.matrix)
    write_csv(os.path.join(out, "entropy.csv"), ["e", "s", "beta"],
              [ent.grid_energies, ent.grid_entropy, ent.grid_beta])
    return ["spectrum.ethb", "operator.ethb", "entropy.csv"]


def stage_extract(cfg, out):
    """Diagonal profile, envelope estimate, and Gaussianity statistics."""
    spectrum = _load_spectrum(out)
    a = _load_operator(out)
    ent = _load_entropy(out)
    x = cfg.data["extract"]
    profile = diagonal_profile(a, spectrum, bandwidth=x["profile_bandwidth"])
    write_csv(os.path.join(out, "profile.csv"), ["e", "value", "scatter"],
              [profile.energies, profile.values, profile.scatter])
    fit_window = tuple(x["fit_window"]) if x["fit_window"] else None
    binning = BinningSpec(e_bins=x["e_bins"], omega_bins=x["omega_bins"],
                          min_count=x["min_count"], fit_window=fit_window)
    env = envelope_estimate(a, spectrum, ent, binning)
    rows = env.to_rows()
    write_csv(os.path.join(out, "envelope.csv"),
              ["e_center", "omega_center", "f2", "count"],
              [np.array([r[i] for r in rows]) for i in range(4)])
    window = _window_from_config(cfg, spectrum, ent)
    try:
        gauss = gaussianity_stats(a, spectrum, env, window)
    except ValidationError as exc:
        gauss = {"error": str(exc)}
    report = {name: getattr(env, name) for name in (
        "e_edges", "omega_edges", "gamma", "gamma_stderr", "fit_residual",
        "fit_window", "central_gamma", "min_count", "density_boost")}
    report.update(gaussianity=gauss, window=window)
    dump_json(os.path.join(out, "extract.json"), report)
    return ["profile.csv", "envelope.csv", "extract.json"]


def stage_code_error(cfg, out):
    """Knill-Laflamme residual report for the configured code."""
    spectrum = _load_spectrum(out)
    a = _load_operator(out)
    ent = _load_entropy(out)
    window = _window_from_config(cfg, spectrum, ent)
    code_cfg = cfg.data["code"]
    members = select_code_states(window, code_cfg["k"],
                                 method=code_cfg["selection"],
                                 spectrum=spectrum, seed=cfg.data["seed"])
    n_qubits = cfg.data["model"].get("n_sites")
    code = CodeSpec(members=members, k=code_cfg["k"], d=code_cfg["d"],
                    n_qubits=n_qubits)
    report = kl_residuals(a, spectrum, code,
                          metadata={"betas": cfg.data["thermal"]["betas"]})
    dump_json(os.path.join(out, "code_error.json"), report.to_dict())
    return ["code_error.json"]


def stage_dynamics(cfg, out):
    """Correlators, spectral densities, FDT deviation, fluctuations, fit."""
    spectrum = _load_spectrum(out)
    a = _load_operator(out)
    ent = _load_entropy(out)
    dyn = cfg.data["dynamics"]
    times = np.linspace(0.0, dyn["t_max"], dyn["t_points"])
    otoc_times = np.linspace(0.0, dyn["t_max"], dyn["otoc_points"])
    omega_max = dyn["omega_max"]
    if omega_max is None:
        omega_max = 0.6 * spectrum.bandwidth
    omegas = np.linspace(-omega_max, omega_max, dyn["omega_points"])
    window = _window_from_config(cfg, spectrum, ent)
    state = gaussian_wavepacket(
        spectrum, window.center,
        dyn["wavepacket_sigma_fraction"] * spectrum.bandwidth,
        seed=cfg.data["seed"])
    center_idx = int(window.start + np.argmin(
        np.abs(window.member_energies(spectrum) - window.center)))
    files = []
    per_beta = []
    for beta in cfg.data["thermal"]["betas"]:
        tag = _beta_tag(beta)
        f2 = two_point(a, spectrum, beta, times)
        fsym, resp = symmetric_and_response(a, spectrum, beta, times)
        series_list = [(f2, "f2"), (fsym, "fsym"), (resp, "resp")]
        oto = None
        if dyn["otoc_points"] > 0:
            oto = otoc(a, spectrum, beta, otoc_times)
            series_list.append((oto, "otoc"))
        for series, name in series_list:
            fname = f"correlator_{name}_beta{tag}.csv"
            write_series_csv(os.path.join(out, fname), "t", series.times,
                             series.values)
            files.append(fname)
        sd = spectral_densities(a, spectrum, beta, dyn["sigma_omega"], omegas)
        fname = f"spectral_density_beta{tag}.csv"
        write_csv(os.path.join(out, fname), ["omega", "f", "rho"],
                  [sd.omegas, sd.f_values, sd.rho_values])
        files.append(fname)
        dev = fdt_check(sd, threshold=dyn["fdt_threshold"])
        f2_zero = float(f2.real_values()[0])
        fit_info = {"status": "not-attempted"}
        if dyn["fit_window"] is not None and oto is not None:
            try:
                fit = fit_lyapunov(oto, f2_zero, dyn["eps_reg"],
                                   tuple(dyn["fit_window"]), f2=f2)
                fit_info = {"status": "accepted", "lambda": fit.lam,
                            "t_s": fit.t_s, "t_d": fit.t_d,
                            "residual_rms": fit.residual_rms,
                            "reliability": fit.reliability}
            except (FitRejectedError, ValidationError) as exc:
                fit_info = {"status": "rejected", "reason": str(exc)}
        per_beta.append({
            "beta": beta,
            "f2_zero": f2_zero,
            "fdt_max_deviation": dev.max_rel_dev,
            "fdt_admissible_points": dev.n_admissible,
            "fdt_degenerate_beta": dev.degenerate_beta,
            "dissipation_time": dissipation_time(f2),
            "fit": fit_info,
            "measured_dynamical_fluctuation": dynamical_fluctuation(a, state),
            "measured_static_fluctuation": static_fluctuation(a, center_idx),
            "static_eigenstate_index": center_idx,
        })
    dump_json(os.path.join(out, "dynamics.json"),
              {"per_beta": per_beta,
               "gap_degeneracy_note": (
                   "time-average formulas assume nondegenerate energy gaps; "
                   "rare coincidences are not corrected for")})
    files.append("dynamics.json")
    return files


def stage_bounds(cfg, out):
    """Bound checks combining the code error, envelope, and dynamics outputs.

    Of the envelope only its central decay rate is needed; ``extract.json``
    stores it, with null meaning no slice could be fitted.
    """
    ent = _load_entropy(out)
    gamma = load_json(os.path.join(out, "extract.json"))["central_gamma"]
    report = KlResidualReport.from_dict(
        load_json(os.path.join(out, "code_error.json")))
    dyn_data = load_json(os.path.join(out, "dynamics.json"))
    slack = cfg.data["slack"]
    per_beta = []
    all_ok = True
    for entry in dyn_data["per_beta"]:
        beta = entry["beta"]
        fit = None
        if entry["fit"].get("status") == "accepted":
            fit = entry["fit"]["lambda"]
        bound = check_bounds(report, ent, beta, envelope=gamma,
                             lyapunov_fit=fit, slack=slack)
        lam = bound.lambda_used
        fluct = fluctuation_bounds(
            bound.entropy_value, beta, bound.omega_char, lam=lam,
            eps_code=report.eps_code, d=report.code.d, k=report.code.k,
            measured_dynamical=entry["measured_dynamical_fluctuation"],
            measured_static=entry["measured_static_fluctuation"],
            slack=slack)
        gating = {k_: v for k_, v in fluct.slack_ratios.items()
                  if k_ in ("dynamical_rate", "static")}
        ok = bound.all_within_slack and all(r <= slack for r in gating.values())
        all_ok = all_ok and ok
        # time-scale metadata recorded alongside the code checks; no gating
        # on the dissipation/scrambling hierarchy is applied
        per_beta.append({"beta": beta, "bound_report": bound,
                         "fluctuation_report": fluct,
                         "dissipation_time": entry["dissipation_time"],
                         "fit": entry["fit"],
                         "within_slack": ok})
    dump_json(os.path.join(out, "bounds.json"),
              {"per_beta": per_beta, "all_within_slack": all_ok,
               "slack": slack})
    return ["bounds.json"]


_STAGE_FUNCS = {
    "generate": stage_generate,
    "extract": stage_extract,
    "code-error": stage_code_error,
    "dynamics": stage_dynamics,
    "bounds": stage_bounds,
}


def run(cfg, out_dir=None, stages=STAGES):
    """Execute pipeline stages and return the manifest dict.

    The manifest lists per-stage outputs with sha256 hashes (the payload
    determinism contract) and wall-clock seconds (not part of the contract).
    """
    out = out_dir or cfg.data["out_dir"]
    os.makedirs(out, exist_ok=True)
    with open(os.path.join(out, "config.json"), "w") as fh:
        fh.write(cfg.canonical_json())
    manifest = {
        "artifact_version": __version__,
        "config_hash": cfg.config_hash(),
        "stages": {},
        "files": {},
        "wall_clock_seconds": {},
    }
    for stage in stages:
        t0 = time.perf_counter()
        files = _STAGE_FUNCS[stage](cfg, out)
        manifest["wall_clock_seconds"][stage] = time.perf_counter() - t0
        manifest["stages"][stage] = files
        for f in files:
            manifest["files"][f] = file_sha256(os.path.join(out, f))
    if "bounds" in stages:
        bounds = load_json(os.path.join(out, "bounds.json"))
        manifest["all_within_slack"] = bounds["all_within_slack"]
        manifest["lambda_source"] = [
            e["bound_report"]["lambda_source"] for e in bounds["per_beta"]]
    dump_json(os.path.join(out, "manifest.json"), manifest)
    return manifest


def _point_name(items):
    return "__".join(f"{path}={format_number(v)}" for path, v in items)


def _failure(exc):
    """A failed point's record: ("error", message); the message is str(exc)
    for an EthLabError and "Type: message" for anything else."""
    if isinstance(exc, EthLabError):
        return "error", str(exc)
    return "error", f"{type(exc).__name__}: {exc}"


def _run_sweep_point(args):
    """Run one point; returns ("ok", manifest) or the point's failure record."""
    base_dict, items, out = args
    try:
        cfg = RunConfig.from_dict(base_dict)
        for path, value in items:
            cfg = cfg.with_path_value(path, value)
        return "ok", run(cfg, out_dir=out)
    except Exception as exc:  # isolation: any point failure is recorded
        return _failure(exc)


def sweep(cfg, out_dir=None):
    """Cartesian-product sweep with per-point isolation and an aggregate CSV.

    Returns (manifests, aggregate_rows, any_error). Failing points record an
    error row; sibling points are unaffected.
    """
    sweep_cfg = cfg.data.get("sweep")
    if not sweep_cfg:
        raise ValidationError("config has no sweep block")
    out = out_dir or cfg.data["out_dir"]
    os.makedirs(os.path.join(out, "points"), exist_ok=True)
    paths = sorted(sweep_cfg["grid"])
    values = [sweep_cfg["grid"][p] for p in paths]
    points = [list(zip(paths, combo)) for combo in itertools.product(*values)]
    jobs = []
    for items in points:
        name = _point_name(items)
        jobs.append((cfg.to_dict(), items, os.path.join(out, "points", name)))
    workers = max(1, int(sweep_cfg["workers"]))
    results = {}
    if workers == 1:
        for job in jobs:
            results[_point_name(job[1])] = _run_sweep_point(job)
    else:
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            futures = {pool.submit(_run_sweep_point, job): _point_name(job[1])
                       for job in jobs}
            for fut in concurrent.futures.as_completed(futures):
                try:
                    results[futures[fut]] = fut.result()
                except Exception as exc:  # a worker that died returns nothing
                    results[futures[fut]] = _failure(exc)

    metric_cols = ["eps_max", "eps_code", "gamma_hat", "lambda_used",
                   "code_error_slack", "fdt_max_deviation"]
    rows = []
    any_error = False
    manifests = {}
    for items in points:
        name = _point_name(items)
        status, payload = results[name]
        row = {path: v for path, v in items}
        row["point"] = name
        if status == "error":
            any_error = True
            row.update(dict.fromkeys(metric_cols, math.nan),
                       status=f"error: {payload}")
        else:
            manifests[name] = payload
            pdir = os.path.join(out, "points", name)
            code_data = load_json(os.path.join(pdir, "code_error.json"))
            extract_data = load_json(os.path.join(pdir, "extract.json"))
            bounds_data = load_json(os.path.join(pdir, "bounds.json"))
            dyn_data = load_json(os.path.join(pdir, "dynamics.json"))
            first = bounds_data["per_beta"][0]

            def _num(x):
                return math.nan if x is None else float(x)

            row.update({
                "status": "ok",
                "eps_max": _num(code_data["eps_max"]),
                "eps_code": _num(code_data["eps_code"]),
                "gamma_hat": _num(extract_data["central_gamma"]),
                "lambda_used": _num(first["bound_report"]["lambda_used"]),
                "code_error_slack": _num(
                    first["bound_report"]["slack_ratios"]["code_error"]),
                "fdt_max_deviation": _num(
                    dyn_data["per_beta"][0]["fdt_max_deviation"]),
            })
        rows.append(row)

    header = paths + metric_cols + ["status"]
    with open(os.path.join(out, "aggregate.csv"), "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            cells = [format_number(row[p]) for p in paths]
            cells += [format_number(row[c]) for c in metric_cols]
            cells.append(row["status"])
            fh.write(",".join(cells) + "\n")
    dump_json(os.path.join(out, "manifest.json"), {
        "artifact_version": __version__,
        "config_hash": cfg.config_hash(),
        "points": {name: results[name][0] for name in sorted(results)},
        "aggregate": "aggregate.csv",
    })
    return manifests, rows, any_error
