"""Batch pipeline: generate -> extract -> code-error -> dynamics -> bounds.

Stages communicate through files in the output directory, so each stage can
be re-run on its own; :func:`run` is the only code that touches that
directory. A stage is a function ``stage_*(cfg, inputs)`` that returns
``{filename: payload}``: an ndarray for ``.ethb``, ``(header, columns)`` for
``.csv`` and an object for ``.json``. The runner keeps three promises:

- Inputs are read once per run: ``inputs`` reads an earlier stage's file on
  first use and keeps it. Stages run in pipeline order, so no file is
  rewritten after it was read. The operator is checked for Hermiticity
  there, once; the kernels take it as given.
- Outputs are replaced atomically (:func:`write_outputs`): a stage that
  fails leaves the previous files and no ``.tmp`` file.
- Each value is written once, by the stage that computes it: a later stage
  reads an earlier stage's value from that stage's file and does not copy
  it into its own (``bounds.json`` names what it read in ``inputs``).
- ``manifest.json`` is merged, not overwritten. Per stage it records the
  files with their sha256, wall-clock seconds, a ``status`` ("ok" or
  "error: <message>") and a fingerprint: the sha256 of the config keys that
  the stage and its upstream stages read (``_CONFIG_KEYS``). A stage whose
  upstream stage has no fingerprint, or another config's, is refused with a
  ValidationError that names the stage to re-run.

Payloads are deterministic functions of (config, seed) in one environment:
the file hashes are the determinism contract, not the wall-clock times.
Across BLAS thread counts each CSV column agrees within 1e-12 of its
maximum; binary payloads may differ there in eigenvector signs (no gauge).
"""

import concurrent.futures
import contextlib
import functools
import hashlib
import itertools
import json
import math
import os
import time

import numpy as np

from . import __version__
from .aqec import CodeSpec, KlResidualReport, check_bounds, kl_residuals, select_code_states
from .config import RunConfig
from .dynamics import (check_otoc_cost, dissipation_time, dynamical_fluctuation,
                       fdt_check, fit_lyapunov, gaussian_wavepacket,
                       gibbs_weights, measure_width, otoc, pair_measure,
                       static_fluctuation)
from .errors import EthLabError, FitRejectedError, ValidationError
from .extract import (BinningSpec, diagonal_profile, envelope_estimate,
                      gaussianity_stats)
from .io import (dump_json, file_sha256, format_number, load_json, load_record,
                 read_array, read_csv, write_array, write_csv)
from .models import (LocalObservableSpec, SpinChainParams, reflection_blocks,
                     to_eigenbasis)
from .spectral import (EnergySpectrum, EntropyModel, OperatorEigenbasis,
                       eigendecompose_blocks, entropy_model, microcanonical_window)
from .synth import EnvelopeSpec, SynthSpectrumParams, synth_eth_operator, synth_spectrum

STAGES = ("generate", "extract", "code-error", "dynamics", "bounds")

# The stages whose files each stage reads (closed under "upstream of").
_UPSTREAM = {
    "generate": (),
    "extract": ("generate",),
    "code-error": ("generate",),
    "dynamics": ("generate",),
    "bounds": ("generate", "extract", "code-error", "dynamics"),
}

_WINDOW_KEYS = ("code.window_center", "code.window_half_width_fraction")

# The config keys each stage reads, as dotted paths; a number indexes a list.
# generate reads thermal.betas.0 (the traceless shift) and extract.sigma_s
# for Ising models only, but both are always part of its fingerprint.
_CONFIG_KEYS = {
    "generate": ("seed", "model", "observable", "thermal.betas.0",
                 "extract.sigma_s"),
    "extract": ("extract",) + _WINDOW_KEYS,
    "code-error": ("seed", "code"),
    "dynamics": ("dynamics", "thermal.betas") + _WINDOW_KEYS,
    "bounds": ("slack",),
}


def _fingerprint(cfg, stage):
    """sha256 of the config keys read by ``stage`` and its upstream stages."""
    keys = set(_CONFIG_KEYS[stage]).union(
        *(_CONFIG_KEYS[up] for up in _UPSTREAM[stage]))
    values = {key: cfg.value_at(key) for key in sorted(keys)}
    return hashlib.sha256(json.dumps(values, sort_keys=True).encode()).hexdigest()


def _diag_callable(block):
    kind = block["kind"]
    if kind == "zero":
        return None
    if kind == "constant":
        v = block["value"]
        return lambda e: np.full_like(np.asarray(e, dtype=float), v)
    scale = block["scale"]
    return lambda e: np.tanh(np.asarray(e, dtype=float) / scale)


class _Inputs:
    """The earlier stages' files in ``out``, each read on first use and kept."""

    def __init__(self, cfg, out):
        self.cfg = cfg
        self.out = out
        self._reports = {}

    @functools.cached_property
    def spectrum(self):
        return EnergySpectrum(read_array(os.path.join(self.out, "spectrum.ethb")))

    @functools.cached_property
    def operator(self):
        """The operator, checked for Hermiticity once per run: every consumer
        of the pair table takes |A_mn| = |A_nm| for granted."""
        a = OperatorEigenbasis(read_array(os.path.join(self.out, "operator.ethb")))
        if not a.is_hermitian():
            raise ValidationError(
                f"operator.ethb in {self.out} is not Hermitian; re-run generate")
        return a

    @functools.cached_property
    def entropy(self):
        _, (e, s, beta) = read_csv(os.path.join(self.out, "entropy.csv"))
        return EntropyModel(grid_energies=e, grid_entropy=s, grid_beta=beta)

    @functools.cached_property
    def window(self):
        """The code window: ``code.window_center`` (the entropy peak inside
        the spectrum for "dos_peak") +- ``code.window_half_width_fraction``
        of the bandwidth."""
        code_cfg = self.cfg.data["code"]
        spectrum, center = self.spectrum, code_cfg["window_center"]
        if center == "dos_peak":
            g = self.entropy.grid_energies
            sel = (g >= spectrum.eigenvalues[0]) & (g <= spectrum.eigenvalues[-1])
            center = float(g[sel][np.argmax(self.entropy.grid_entropy[sel])])
        half = code_cfg["window_half_width_fraction"] * spectrum.bandwidth
        return microcanonical_window(spectrum, center, half)

    def report(self, name):
        """The JSON report ``name`` of an earlier stage."""
        if name not in self._reports:
            self._reports[name] = load_json(os.path.join(self.out, name))
        return self._reports[name]


def stage_generate(cfg, inputs):
    """Build or synthesize the spectrum, the operator, and the entropy model."""
    model = cfg.data["model"]
    seed = cfg.data["seed"]
    if model["kind"] == "ising":
        params = SpinChainParams(**{k: v for k, v in model.items() if k != "kind"})
        spectrum = eigendecompose_blocks(*reflection_blocks(params))
        obs = cfg.data["observable"]
        a = to_eigenbasis(LocalObservableSpec(sites=tuple(obs["sites"]),
                                              paulis=obs["paulis"]), spectrum)
        if obs["traceless_shift"]:
            # V^dag (op - c I) V = A - c I: subtract the thermal mean at the
            # first beta from the eigenbasis diagonal
            rho = gibbs_weights(spectrum, cfg.data["thermal"]["betas"][0])
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
        a = synth_eth_operator(spectrum, ent, EnvelopeSpec(**model["envelope"]),
                               diagonal=_diag_callable(model["diagonal"]),
                               seed=seed)
    return {"spectrum.ethb": spectrum.eigenvalues,
            "operator.ethb": a.matrix,
            "entropy.csv": (["e", "s", "beta"],
                            [ent.grid_energies, ent.grid_entropy, ent.grid_beta])}


def stage_extract(cfg, inputs):
    """Diagonal profile, envelope estimate, and Gaussianity statistics."""
    spectrum, a, window = inputs.spectrum, inputs.operator, inputs.window
    x = cfg.data["extract"]
    profile = diagonal_profile(a, spectrum, bandwidth=x["profile_bandwidth"])
    fit_window = tuple(x["fit_window"]) if x["fit_window"] else None
    binning = BinningSpec(e_bins=x["e_bins"], omega_bins=x["omega_bins"],
                          min_count=x["min_count"], fit_window=fit_window)
    env = envelope_estimate(a, spectrum, inputs.entropy, binning)
    try:
        gauss = gaussianity_stats(a, spectrum, env, window)
    except ValidationError as exc:
        gauss = {"error": str(exc)}
    report = {name: getattr(env, name) for name in (
        "e_edges", "omega_edges", "gamma", "gamma_stderr", "fit_residual",
        "fit_window", "central_gamma", "central_gamma_energy", "min_count",
        "density_boost")}
    report.update(gaussianity=gauss, window=window)
    alive = np.isfinite(env.f2)  # bins that kept an estimate, row-major
    rows, cols = np.nonzero(alive)
    return {"profile.csv": (["e", "value", "scatter"],
                            [profile.energies, profile.values, profile.scatter]),
            "envelope.csv": (["e_center", "omega_center", "f2", "count"],
                             [env.e_centers[rows], env.omega_centers[cols],
                              env.f2[alive], env.counts[alive]]),
            "extract.json": report}


def stage_code_error(cfg, inputs):
    """Knill-Laflamme residual report for the configured code, with the
    energy E_c at the center of the code window and S(E_c), beta(E_c) there."""
    code_cfg = cfg.data["code"]
    members = select_code_states(inputs.window, code_cfg["k"],
                                 method=code_cfg["selection"],
                                 spectrum=inputs.spectrum, seed=cfg.data["seed"])
    code = CodeSpec(members=members, k=code_cfg["k"], d=code_cfg["d"],
                    n_qubits=cfg.data["model"].get("n_sites"))
    report = kl_residuals(inputs.operator, inputs.spectrum, code)
    ent, e_c = inputs.entropy, inputs.window.center
    return {"code_error.json": dict(vars(report), window_energy=e_c,
                                    window_entropy=float(ent.entropy_at(e_c)),
                                    window_beta=float(ent.beta_at(e_c)))}


def stage_dynamics(cfg, inputs):
    """Correlators, spectral densities, FDT deviation, fluctuations, fit."""
    spectrum, a, window = inputs.spectrum, inputs.operator, inputs.window
    dyn = cfg.data["dynamics"]
    times = np.linspace(0.0, dyn["t_max"], dyn["t_points"])
    otoc_times = np.linspace(0.0, dyn["t_max"], dyn["otoc_points"])
    if otoc_times.size:
        check_otoc_cost(a, otoc_times.size)  # refuse before any correlator runs
    omega_max = dyn["omega_max"]
    if omega_max is None:
        omega_max = 0.6 * spectrum.bandwidth
    omegas = np.linspace(-omega_max, omega_max, dyn["omega_points"])
    populations = gaussian_wavepacket(
        spectrum, window.center,
        dyn["wavepacket_sigma_fraction"] * spectrum.bandwidth)
    center_idx, = select_code_states(window, 0, spectrum=spectrum)
    # neither fluctuation depends on beta
    measured_dynamical = dynamical_fluctuation(a, populations)
    measured_static = static_fluctuation(a, center_idx)
    width = measure_width(dyn["sigma_omega"], np.abs(times).max())
    payloads = {}
    per_beta = []
    for beta in cfg.data["thermal"]["betas"]:
        tag = format_number(beta)
        measure = pair_measure(a, spectrum, beta, width)  # one walk per beta
        f2, fsym, resp = measure.thermal_correlators(times)
        series = {"f2": f2, "fsym": fsym, "resp": resp}
        oto = None
        if dyn["otoc_points"] > 0:
            series["otoc"] = oto = otoc(a, spectrum, beta, otoc_times)
        for name, s in series.items():
            payloads[f"correlator_{name}_beta{tag}.csv"] = (
                ["t", "re", "im"], [s.times, s.values.real, s.values.imag])
        sd = measure.spectral_densities(dyn["sigma_omega"], omegas)
        payloads[f"spectral_density_beta{tag}.csv"] = (
            ["omega", "f", "rho"], [sd.omegas, sd.f_values, sd.rho_values])
        dev = fdt_check(sd, threshold=dyn["fdt_threshold"])
        f2_zero = float(f2.real_values()[0])
        t_d = dissipation_time(f2)
        fit_info = {"status": "not-attempted"}
        if dyn["fit_window"] is not None:
            try:
                fit = fit_lyapunov(oto, f2_zero, dyn["eps_reg"],
                                   tuple(dyn["fit_window"]), t_d)
                fit_info = {"status": "accepted", "lambda": fit.lam,
                            "t_s": fit.t_s, "residual_rms": fit.residual_rms,
                            "reliability": fit.reliability}
            except (FitRejectedError, ValidationError) as exc:
                fit_info = {"status": "rejected", "reason": str(exc)}
        per_beta.append({
            "beta": beta,
            "f2_zero": f2_zero,
            "fdt_max_deviation": dev.max_rel_dev,
            "fdt_admissible_points": dev.n_admissible,
            "fdt_degenerate_beta": dev.degenerate_beta,
            "dissipation_time": t_d,
            "fit": fit_info,
            "measured_dynamical_fluctuation": measured_dynamical,
            "measured_static_fluctuation": measured_static,
            "static_eigenstate_index": center_idx,
        })
    payloads["dynamics.json"] = {
        "per_beta": per_beta,
        "gap_degeneracy_note": (
            "time-average formulas assume nondegenerate energy gaps; "
            "rare coincidences are not corrected for")}
    return payloads


def stage_bounds(cfg, inputs):
    """Bound checks on the code error, envelope and dynamics outputs: one
    :func:`check_bounds` report per beta, its fields with the beta and its
    verdict, and ``inputs``, the file that each value read here came from.

    Of the envelope only its central decay rate is needed; ``extract.json``
    stores it, with null meaning no slice could be fitted.
    """
    gamma = inputs.report("extract.json")["central_gamma"]
    report = load_record(KlResidualReport, inputs.report("code_error.json"))
    per_beta = []
    for entry in inputs.report("dynamics.json")["per_beta"]:
        fit = entry["fit"]
        bound = check_bounds(
            report, inputs.entropy, entry["beta"],
            lam_fit=fit["lambda"] if fit["status"] == "accepted" else None,
            gamma=gamma,
            measured_dynamical=entry["measured_dynamical_fluctuation"],
            measured_static=entry["measured_static_fluctuation"],
            slack=cfg.data["slack"])
        per_beta.append(dict(vars(bound), beta=entry["beta"],
                             within_slack=bound.all_within_slack))
    read = {"central_gamma": "extract.json", "e": "entropy.csv", "s": "entropy.csv"}
    read.update(dict.fromkeys(("d", "k", "eps_code", "epsilon_re", "epsilon_im",
                               "member_energies"), "code_error.json"))
    read.update(dict.fromkeys(
        ("per_beta.beta", "per_beta.fit", "per_beta.measured_dynamical_fluctuation",
         "per_beta.measured_static_fluctuation"), "dynamics.json"))
    return {"bounds.json": {
        "per_beta": per_beta, "slack": cfg.data["slack"], "inputs": read,
        "all_within_slack": all(e["within_slack"] for e in per_beta)}}


_STAGE_FUNCS = {
    "generate": stage_generate,
    "extract": stage_extract,
    "code-error": stage_code_error,
    "dynamics": stage_dynamics,
    "bounds": stage_bounds,
}


def write_outputs(out, payloads):
    """Write ``{filename: payload}`` into ``out`` and return the names.

    Every payload goes to ``<name>.tmp`` first and is renamed into place
    only when all of them are written, so a failure leaves the previous
    files and no ``.tmp`` file. A str payload is written as it is.
    """
    tmps = []
    try:
        for name, payload in payloads.items():
            tmp = os.path.join(out, name + ".tmp")
            tmps.append(tmp)
            if isinstance(payload, str):
                with open(tmp, "w") as fh:
                    fh.write(payload)
            elif name.endswith(".ethb"):
                write_array(tmp, payload)
            elif name.endswith(".csv"):
                write_csv(tmp, *payload)
            else:
                dump_json(tmp, payload)
        for name, tmp in zip(payloads, tmps):
            os.replace(tmp, os.path.join(out, name))
    except BaseException:
        for tmp in tmps:
            with contextlib.suppress(FileNotFoundError):
                os.remove(tmp)
        raise
    return list(payloads)


def run(cfg, out_dir=None, stages=STAGES):
    """Execute pipeline stages, in pipeline order, and return the manifest.

    A stage that raises records its status, loses its fingerprint, and the
    exception propagates once the manifest is written.
    """
    if not set(stages) <= set(STAGES):
        raise ValidationError(f"unknown stages in {list(stages)}")
    stages = [s for s in STAGES if s in stages]
    out = out_dir or cfg.data["out_dir"]
    path = os.path.join(out, "manifest.json")
    manifest = load_json(path) if os.path.exists(path) else {}
    for key in ("stages", "files", "wall_clock_seconds", "status", "fingerprints"):
        manifest.setdefault(key, {})
    for stage in stages:
        for up in _UPSTREAM[stage]:
            if up not in stages and (manifest["fingerprints"].get(up)
                                     != _fingerprint(cfg, up)):
                raise ValidationError(
                    f"{stage}: the {up} outputs in {out} are missing or come "
                    f"from another config; re-run {up}")
    os.makedirs(out, exist_ok=True)
    write_outputs(out, {"config.json": cfg.canonical_json()})
    manifest.update(artifact_version=__version__, config_hash=cfg.config_hash())
    inputs = _Inputs(cfg, out)
    for stage in stages:
        t0 = time.perf_counter()
        try:
            files = write_outputs(out, _STAGE_FUNCS[stage](cfg, inputs))
        except Exception as exc:
            manifest["status"][stage] = "error: " + _failure(exc)[1]
            manifest["fingerprints"].pop(stage, None)
            write_outputs(out, {"manifest.json": manifest})
            raise
        for f in manifest["stages"].get(stage, ()):
            manifest["files"].pop(f, None)
        manifest["wall_clock_seconds"][stage] = time.perf_counter() - t0
        manifest["stages"][stage] = files
        manifest["files"].update(
            (f, file_sha256(os.path.join(out, f))) for f in files)
        manifest["status"][stage] = "ok"
        manifest["fingerprints"][stage] = _fingerprint(cfg, stage)
    if "bounds" in stages:
        manifest["all_within_slack"] = inputs.report("bounds.json")["all_within_slack"]
    write_outputs(out, {"manifest.json": manifest})
    return manifest


def _point_name(items):
    return "__".join(f"{path}={format_number(v)}" for path, v in items)


def _failure(exc):
    """A failed stage's or point's record: ("error", message); the message is
    str(exc) for an EthLabError and "Type: message" for anything else."""
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


def sweep(cfg):
    """Cartesian-product sweep with per-point isolation and an aggregate CSV.

    Returns (manifests, aggregate_rows, any_error). The aggregate has one row
    per point and beta, with a ``beta`` column; a failing point records one
    error row with an empty ``beta``, and sibling points are unaffected. A
    grid that names one point twice (say 1 and 1.0) is refused before
    anything is written.
    """
    sweep_cfg = cfg.data.get("sweep")
    if not sweep_cfg:
        raise ValidationError("config has no sweep block")
    out = cfg.data["out_dir"]
    paths = sorted(sweep_cfg["grid"])
    values = [sweep_cfg["grid"][p] for p in paths]
    points = [list(zip(paths, combo)) for combo in itertools.product(*values)]
    names = [_point_name(items) for items in points]
    twice = [name for i, name in enumerate(names) if name in names[:i]]
    if twice:
        raise ValidationError(f"sweep grid names the point {twice[0]} twice")
    os.makedirs(os.path.join(out, "points"), exist_ok=True)
    # a point is one plain run: its config.json records "sweep": null
    jobs = [(dict(cfg.to_dict(), sweep=None), items,
             os.path.join(out, "points", name))
            for items, name in zip(points, names)]
    workers = sweep_cfg["workers"]
    if workers == 1:
        results = [_run_sweep_point(job) for job in jobs]
    else:
        results = []
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            for fut in [pool.submit(_run_sweep_point, job) for job in jobs]:
                try:
                    results.append(fut.result())
                except Exception as exc:  # a worker that died returns nothing
                    results.append(_failure(exc))

    def _num(x):
        return math.nan if x is None else float(x)

    metric_cols = ["eps_max", "eps_code", "gamma_hat", "lambda_used",
                   "code_error_slack", "fdt_max_deviation"]
    rows = []
    any_error = False
    manifests = {}
    for items, name, (status, payload) in zip(points, names, results):
        point = dict(items, point=name)
        if status == "error":
            any_error = True
            rows.append(dict(point, beta="", status=f"error: {payload}",
                             **dict.fromkeys(metric_cols, math.nan)))
            continue
        manifests[name] = payload
        pdir = os.path.join(out, "points", name)
        code_data, extract_data, bounds_data, dyn_data = (
            load_json(os.path.join(pdir, f)) for f in (
                "code_error.json", "extract.json", "bounds.json", "dynamics.json"))
        code = load_record(KlResidualReport, code_data)
        # one row per beta: both reports list the betas in config order
        for bound, dyn in zip(bounds_data["per_beta"], dyn_data["per_beta"]):
            rows.append(dict(
                point, beta=bound["beta"], status="ok",
                eps_max=_num(code.eps_max),
                eps_code=_num(code.eps_code),
                gamma_hat=_num(extract_data["central_gamma"]),
                lambda_used=_num(bound["lambda_used"]),
                code_error_slack=_num(bound["slack_ratios"]["code_error"]),
                fdt_max_deviation=_num(dyn["fdt_max_deviation"])))

    header = paths + ["beta"] + metric_cols + ["status"]
    write_outputs(out, {
        # cell by cell, so that a beta column with an empty cell keeps the
        # number format
        "aggregate.csv": (header, [[format_number(row[c]) for row in rows]
                                   for c in header]),
        "manifest.json": {
            "artifact_version": __version__,
            "config_hash": cfg.config_hash(),
            "points": {name: status for name, (status, _) in zip(names, results)},
            "aggregate": "aggregate.csv",
        }})
    return manifests, rows, any_error
