import json
import os
import subprocess
import sys

import numpy as np
import pytest

import ethlab as el
from conftest import eigendecompose_dense
from ethlab.cli import main as cli_main
from ethlab.config import RunConfig, demo_config
from ethlab import pipeline
from ethlab.io import dump_json, load_json, read_array, read_csv, write_array
from ethlab.pipeline import STAGES, run, sweep


def small_synth_config(out_dir, dim=300, seed=3):
    return RunConfig.from_dict({
        "seed": seed,
        "out_dir": out_dir,
        "model": {"kind": "synthetic", "dim": dim, "dos_shape": "flat",
                  "bandwidth": 4.0,
                  "envelope": {"form": "exp_decay", "gamma": 0.25}},
        "code": {"k": 1, "d": 1, "window_half_width_fraction": 0.1},
        "extract": {"min_count": 20},
        "dynamics": {"t_max": 4.0, "t_points": 17, "otoc_points": 5,
                     "sigma_omega": 0.1, "omega_points": 101},
    })


class TestRun:
    def test_end_to_end_files(self, tmp_path):
        out = str(tmp_path / "r1")
        cfg = small_synth_config(out)
        manifest = run(cfg)
        for name in ("spectrum.ethb", "operator.ethb", "entropy.csv",
                     "profile.csv", "envelope.csv", "extract.json",
                     "code_error.json", "dynamics.json", "bounds.json",
                     "manifest.json", "config.json"):
            assert os.path.exists(os.path.join(out, name)), name
        assert manifest["config_hash"] == cfg.config_hash()
        assert set(manifest["stages"]) == {"generate", "extract",
                                           "code-error", "dynamics", "bounds"}
        # bounds.json is the one record of each beta's lambda source
        assert "lambda_source" not in manifest
        bounds = load_json(os.path.join(out, "bounds.json"))
        assert [e["lambda_source"] for e in bounds["per_beta"]] == ["envelope-implied"]

    def test_determinism_across_runs(self, tmp_path):
        cfg1 = small_synth_config(str(tmp_path / "a"))
        cfg2 = small_synth_config(str(tmp_path / "b"))
        m1, m2 = run(cfg1), run(cfg2)
        assert m1["files"] == m2["files"]  # sha256 of every payload matches

    def test_seed_changes_payloads(self, tmp_path):
        m1 = run(small_synth_config(str(tmp_path / "a"), seed=3))
        m2 = run(small_synth_config(str(tmp_path / "b"), seed=4))
        assert m1["files"]["operator.ethb"] != m2["files"]["operator.ethb"]

    def test_identity_observable_zero_code_error(self, tmp_path):
        # zero envelope + constant unit diagonal builds the exact identity
        out = str(tmp_path / "ident")
        cfg = RunConfig.from_dict({
            "seed": 1,
            "out_dir": out,
            "model": {"kind": "synthetic", "dim": 128, "dos_shape": "flat",
                      "bandwidth": 4.0,
                      "envelope": {"form": "constant", "f0": 0.0},
                      "diagonal": {"kind": "constant", "value": 1.0}},
            "code": {"k": 1, "d": 1, "window_half_width_fraction": 0.2},
            "extract": {"min_count": 5},
            "dynamics": {"t_max": 2.0, "t_points": 5, "otoc_points": 3,
                         "sigma_omega": 0.2, "omega_points": 41},
        })
        run(cfg, stages=("generate", "code-error"))
        data = load_json(os.path.join(out, "code_error.json"))
        assert data["eps_code"] == 0.0
        assert data["eps_max"] == 0.0

    def test_bound_reports_match_in_memory_check(self, tmp_path):
        # the bounds stage reads back only the code-error report, the central
        # decay rate and the measured fluctuations; each beta's report and
        # verdict must equal those of one in-memory check on the whole
        # envelope model
        out = str(tmp_path / "codec")
        cfg = small_synth_config(out)
        run(cfg)
        spec = el.synth_spectrum(el.SynthSpectrumParams(
            dim=300, dos_shape="flat", bandwidth=4.0, seed=3))
        ent = el.EntropyModel.constant(np.log(300), spec.eigenvalues[0],
                                       spec.eigenvalues[-1])
        a = el.synth_eth_operator(spec, ent, el.EnvelopeSpec(gamma=0.25), seed=3)
        env = el.envelope_estimate(a, spec, ent, el.BinningSpec(min_count=20))
        members = load_json(os.path.join(out, "code_error.json"))["members"]
        report = el.kl_residuals(a, spec, el.CodeSpec(members=members, k=1, d=1))
        dynamics = load_json(os.path.join(out, "dynamics.json"))["per_beta"]
        per_beta = load_json(os.path.join(out, "bounds.json"))["per_beta"]
        assert per_beta and len(per_beta) == len(dynamics)
        for entry, dyn in zip(per_beta, dynamics):
            bound = el.check_bounds(
                report, ent, dyn["beta"], lam_fit=dyn["fit"].get("lambda"),
                gamma=env.central_gamma,
                measured_dynamical=dyn["measured_dynamical_fluctuation"],
                measured_static=dyn["measured_static_fluctuation"],
                slack=cfg.data["slack"])
            dump_json(tmp_path / "report.json", bound)
            assert entry == dict(load_json(tmp_path / "report.json"),
                                 beta=dyn["beta"], within_slack=bound.all_within_slack)

    def test_bounds_complete_far_below_the_code_gap(self, tmp_path):
        # at beta = 20000 the k=2 code's omega_char = 0.079 puts beta*w/2
        # near 790, past the range of math.cosh; the bounds stage completes
        # and writes a form beyond the double range as null
        out = str(tmp_path / "frozen")
        cfg = RunConfig.from_dict({
            "seed": 1, "out_dir": out,
            "model": {"kind": "ising", "n_sites": 8}, "code": {"k": 2},
            "thermal": {"betas": [20000]}, "dynamics": {"otoc_points": 0}})
        assert run(cfg)["status"]["bounds"] == "ok"
        entry, = load_json(os.path.join(out, "bounds.json"))["per_beta"]
        assert entry["omega_char"] * 20000 / 2 > 710
        assert entry["fdt_bound_rate"] is None

    def test_bounds_json_repeats_no_upstream_value(self, tmp_path):
        # bounds.json holds only what the bounds stage computes: no number in
        # it equals the value of a key of an upstream report (beta aside,
        # which labels each entry)
        out = str(tmp_path / "once")
        cfg = RunConfig.from_dict({
            "seed": 1, "out_dir": out, "model": {"kind": "ising", "n_sites": 8},
            "thermal": {"betas": [0.5, 1.0]},
            "dynamics": {"t_max": 4.0, "t_points": 17, "otoc_points": 3,
                         "sigma_omega": 0.05, "omega_points": 201}})
        run(cfg)

        def numbers(node, lists=True):
            """The floats of a JSON tree outside any "beta" key; list
            elements count only where ``lists`` is set."""
            if isinstance(node, dict):
                return {x for k, v in node.items() if k != "beta"
                        for x in numbers(v, lists)}
            if isinstance(node, list):
                return {x for v in node if lists or isinstance(v, dict)
                        for x in numbers(v, lists)}
            return {node} if type(node) is float else set()

        bounds = load_json(os.path.join(out, "bounds.json"))
        written = numbers(bounds)
        assert len(written) > 20
        for name in ("code_error.json", "dynamics.json", "extract.json"):
            upstream = numbers(load_json(os.path.join(out, name)), lists=False)
            assert upstream and not written & upstream, name
        assert set(bounds["inputs"].values()) == {
            "code_error.json", "dynamics.json", "extract.json", "entropy.csv"}

    def test_code_error_layout(self, tmp_path):
        # the benchmark's output checks read members and eps_max at the top
        # level of code_error.json, and bounds.json's inputs name the
        # epsilon parts there too
        out = str(tmp_path / "layout")
        run(small_synth_config(out, dim=128), stages=("generate", "code-error"))
        code = load_json(os.path.join(out, "code_error.json"))
        assert {"members", "k", "d", "n_qubits", "eps_max", "eps_code",
                "epsilon_re", "epsilon_im", "member_energies"} <= set(code)
        assert len(code["members"]) == 2 and code["n_qubits"] is None
        assert np.array(code["epsilon_re"]).shape == (2, 2)
        assert np.abs(code["epsilon_im"]).max() > 0  # a complex operator

    def test_bounds_refuses_a_code_of_the_wrong_size(self, tmp_path):
        # the report that bounds reads runs the code's own checks
        out = str(tmp_path / "wrong")
        cfg = small_synth_config(out)
        run(cfg, stages=STAGES[:-1])
        path = os.path.join(out, "code_error.json")
        code = load_json(path)
        dump_json(path, dict(code, members=code["members"] + [0]))
        with pytest.raises(el.ValidationError, match="2\\*\\*k = 2 members, got 3"):
            run(cfg, stages=("bounds",))

    def test_stage_rerun_reproduces_outputs(self, tmp_path):
        out = str(tmp_path / "stages")
        cfg = small_synth_config(out)
        m_full = run(cfg)
        h1 = m_full["files"]["code_error.json"]
        m_again = run(cfg, stages=("code-error",))
        assert m_again["files"]["code_error.json"] == h1

    def test_reports_record_code_and_envelope_energies(self, tmp_path):
        # code_error.json: the code window's center E_c with S and beta read
        # from entropy.csv there; extract.json: the center energy of the
        # slice that central_gamma comes from
        out = str(tmp_path / "energies")
        cfg = RunConfig.from_dict({"seed": 1, "out_dir": out,
                                   "model": {"kind": "ising", "n_sites": 8}})
        run(cfg, stages=("generate", "extract", "code-error"))
        code = load_json(os.path.join(out, "code_error.json"))
        ext = load_json(os.path.join(out, "extract.json"))
        _, (e, s, beta) = read_csv(os.path.join(out, "entropy.csv"))
        e_c = code["window_energy"]
        assert e_c == ext["window"]["center"]
        assert code["window_entropy"] == np.interp(e_c, e, s)
        assert code["window_beta"] == np.interp(e_c, e, beta)
        assert code["window_beta"] != 0.0
        edges, gamma = np.array(ext["e_edges"]), np.array(ext["gamma"], dtype=float)
        centers = 0.5 * (edges[:-1] + edges[1:])
        slice_ = int(np.argmin(np.abs(centers - ext["central_gamma_energy"])))
        assert centers[slice_] == ext["central_gamma_energy"]
        assert gamma[slice_] == ext["central_gamma"]


class TestConfigBranches:
    def test_synthetic_smoothed_entropy(self, tmp_path):
        # entropy.kind "smoothed" writes the kernel estimate of the drawn
        # spectrum, whose peak lies inside the band; the flat log_dim
        # default would put the dos_peak window at the lowest level
        out = str(tmp_path / "smoothed")
        cfg = RunConfig.from_dict({"seed": 1, "out_dir": out,
                                   "model": {"kind": "synthetic", "dim": 256,
                                             "dos_shape": "flat",
                                             "entropy": {"kind": "smoothed"}}})
        run(cfg, stages=("generate", "extract"))
        spec = el.EnergySpectrum(read_array(os.path.join(out, "spectrum.ethb")))
        ent = el.entropy_model(spec)
        header, columns = read_csv(os.path.join(out, "entropy.csv"))
        assert header == ["e", "s", "beta"]
        for got, want in zip(columns, (ent.grid_energies, ent.grid_entropy, ent.grid_beta)):
            assert np.array_equal(got, want)
        assert load_json(os.path.join(out, "extract.json"))["window"]["start"] > 0

    def test_ising_traceless_shift_and_numeric_window(self, tmp_path):
        out = str(tmp_path / "shift")
        cfg = RunConfig.from_dict({
            "seed": 4,
            "out_dir": out,
            "model": {"kind": "ising", "n_sites": 7},
            "observable": {"sites": [0, 1], "paulis": "ZZ",
                           "traceless_shift": True},
            "thermal": {"betas": [0.8]},
            "code": {"k": 1, "d": 2, "window_center": 0.0,
                     "window_half_width_fraction": 0.1,
                     "selection": "random"},
            "extract": {"min_count": 10},
            "dynamics": {"t_max": 3.0, "t_points": 9, "otoc_points": 3,
                         "sigma_omega": 0.2, "omega_points": 61},
        })
        manifest = run(cfg)
        assert "bounds.json" in manifest["files"]
        code_data = load_json(os.path.join(out, "code_error.json"))
        e = np.array(code_data["member_energies"])
        half = 0.1 * (np.ptp(np.asarray(
            load_json(os.path.join(out, "extract.json"))["e_edges"])))
        assert np.all(np.abs(e) <= half * 1.5)
        # the shift zeroes the thermal mean of the written operator at beta
        spec = el.EnergySpectrum(read_array(os.path.join(out, "spectrum.ethb")))
        rho = el.gibbs_weights(spec, 0.8)
        a = read_array(os.path.join(out, "operator.ethb"))
        assert abs(np.dot(rho, np.diagonal(a).real)) <= 1e-12

    def test_synthetic_table_envelope(self, tmp_path):
        out = str(tmp_path / "table")
        cfg = RunConfig.from_dict({
            "seed": 6,
            "out_dir": out,
            "model": {"kind": "synthetic", "dim": 256, "dos_shape": "flat",
                      "bandwidth": 4.0,
                      "envelope": {"form": "table",
                                   "table": [[0.0, 2.0, 4.0],
                                             [1.0, 0.4, 0.1]]},
                      "diagonal": {"kind": "tanh", "scale": 2.0}},
            "code": {"k": 1, "d": 1, "window_half_width_fraction": 0.1},
            "extract": {"min_count": 10},
            "dynamics": {"t_max": 2.0, "t_points": 5, "otoc_points": 0,
                         "sigma_omega": 0.2, "omega_points": 41},
        })
        manifest = run(cfg)
        assert manifest["all_within_slack"] in (True, False)
        dyn = load_json(os.path.join(out, "dynamics.json"))
        assert dyn["per_beta"][0]["fit"]["status"] == "not-attempted"
        # no otoc file was written when otoc_points = 0
        assert not any("otoc" in f for f in manifest["files"])


class TestSweep:
    def _sweep_config(self, out):
        base = small_synth_config(out)
        d = base.to_dict()
        d["sweep"] = {"grid": {"model.dim": [200, 300], "seed": [1, 2]},
                      "workers": 1}
        return RunConfig.from_dict(d)

    def test_grid_and_aggregate(self, tmp_path):
        out = str(tmp_path / "sw")
        cfg = self._sweep_config(out)
        manifests, rows, any_error = sweep(cfg)
        assert not any_error
        assert len(rows) == 4
        header, cols = read_csv_text(os.path.join(out, "aggregate.csv"))
        assert header[:2] == ["model.dim", "seed"]
        assert "eps_max" in header and "status" in header
        assert all(r["status"] == "ok" for r in rows)

    def test_point_isolation_on_failure(self, tmp_path):
        out = str(tmp_path / "swfail")
        base = small_synth_config(out)
        d = base.to_dict()
        # k = 12 cannot fit 4096 states inside a 300-dim window: that point
        # fails, the sibling must still succeed
        d["sweep"] = {"grid": {"code.k": [1, 12]}, "workers": 1}
        cfg = RunConfig.from_dict(d)
        manifests, rows, any_error = sweep(cfg)
        assert any_error
        statuses = {row["code.k"]: row["status"] for row in rows}
        assert statuses[1] == "ok"
        assert statuses[12].startswith("error")
        ok_dir = os.path.join(out, "points")
        assert any("bounds.json" in files
                   for _, _, files in os.walk(ok_dir))

    def test_serial_isolation_on_unexpected_error(self, tmp_path, monkeypatch):
        # a non-EthLabError inside one point must become that point's error
        # row, exactly as it does in a process-pool sweep
        real = pipeline._STAGE_FUNCS["dynamics"]

        def dynamics_failing_for_seed_2(cfg, out):
            if cfg.data["seed"] == 2:
                raise RuntimeError("boom")
            return real(cfg, out)

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "dynamics",
                            dynamics_failing_for_seed_2)
        out = str(tmp_path / "swraise")
        d = small_synth_config(out, dim=200).to_dict()
        d["sweep"] = {"grid": {"seed": [1, 2]}, "workers": 1}
        _, rows, any_error = sweep(RunConfig.from_dict(d))
        assert any_error
        statuses = {row["seed"]: row["status"] for row in rows}
        assert statuses == {1: "ok", 2: "error: RuntimeError: boom"}
        assert os.path.exists(os.path.join(out, "aggregate.csv"))
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["points"] == {"seed=1": "ok", "seed=2": "error"}

    def test_empty_grid_rejected(self, tmp_path):
        base = small_synth_config(str(tmp_path / "x"))
        d = base.to_dict()
        d["sweep"] = {"grid": {"model.dim": []}}
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict(d)

    def test_point_named_twice_refused_before_any_write(self, tmp_path):
        # 1 and 1.0 both name the point thermal.betas=1
        out = tmp_path / "twice"
        d = small_synth_config(str(out), dim=256).to_dict()
        d["sweep"] = {"grid": {"thermal.betas": [1, 1.0]}, "workers": 1}
        cfg = RunConfig.from_dict(d)
        with pytest.raises(el.ValidationError, match="thermal.betas=1 twice"):
            sweep(cfg)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.canonical_json())
        assert cli_main(["sweep", "--config", str(cfg_path)]) == 1
        assert not out.exists()

    @pytest.mark.parametrize("workers", [0, -1])
    def test_workers_below_one_rejected(self, tmp_path, workers):
        out = tmp_path / "w"
        d = small_synth_config(str(out), dim=256).to_dict()
        d["sweep"] = {"grid": {"seed": [1, 2]}, "workers": workers}
        with pytest.raises(el.ValidationError, match="sweep.workers"):
            RunConfig.from_dict(d)
        d["sweep"]["workers"] = 1
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(RunConfig.from_dict(d).canonical_json())
        assert cli_main(["sweep", "--config", str(cfg_path),
                         f"--workers={workers}"]) == 1
        assert not out.exists()

    def test_dimension_sweep_scaling(self, tmp_path):
        # aggregate over growing dimension: log eps_max strictly decreasing
        out = str(tmp_path / "dsweep")
        cfg = RunConfig.from_dict({
            "seed": 5,
            "out_dir": out,
            "model": {"kind": "synthetic", "dim": 512, "dos_shape": "flat",
                      "bandwidth": 4.0,
                      "envelope": {"form": "exp_decay", "gamma": 0.25}},
            "code": {"k": 1, "d": 1, "window_half_width_fraction": 0.05},
            "extract": {"min_count": 30},
            "dynamics": {"t_max": 3.0, "t_points": 9, "otoc_points": 0,
                         "sigma_omega": 0.1, "omega_points": 61,
                         "omega_max": 3.0},
            "sweep": {"grid": {"model.dim": [512, 1024, 2048, 4096]}},
        })
        _, rows, any_error = sweep(cfg)
        assert not any_error
        assert len(rows) == 4
        eps = [row["eps_max"] for row in
               sorted(rows, key=lambda r: r["model.dim"])]
        assert all(b < a for a, b in zip(eps, eps[1:]))

    def test_beta_sweep_fdt_deviation(self, tmp_path):
        out = str(tmp_path / "bsweep")
        cfg = RunConfig.from_dict({
            "seed": 2,
            "out_dir": out,
            "model": {"kind": "ising", "n_sites": 8},
            "observable": {"sites": [0], "paulis": "Z"},
            "code": {"k": 1, "d": 1},
            "dynamics": {"t_max": 4.0, "t_points": 17, "otoc_points": 3,
                         "sigma_omega": 0.05, "omega_points": 601,
                         "omega_max": 15.0},
            "sweep": {"grid": {"thermal.betas": [0.5, 1.0, 2.0]}},
        })
        _, rows, any_error = sweep(cfg)
        assert not any_error
        assert len(rows) == 3
        for row in rows:
            assert row["fdt_max_deviation"] <= 0.05

    def test_exit_code_follows_every_point_verdict(self, tmp_path):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(RunConfig.from_dict({
            "seed": 1,
            "model": {"kind": "synthetic", "dim": 256},
            "dynamics": {"t_max": 4.0, "t_points": 17, "otoc_points": 3,
                         "sigma_omega": 0.08, "omega_points": 101},
            "sweep": {"grid": {"model.dim": [256, 384]}, "workers": 2},
        }).canonical_json())
        out = str(tmp_path / "sw")
        assert cli_main(["sweep", "--config", str(cfg_path), "--out", out]) == 0
        code_error, gating = [], []
        for name in os.listdir(os.path.join(out, "points")):
            bounds = load_json(os.path.join(out, "points", name, "bounds.json"))
            for entry in bounds["per_beta"]:
                code_error.append(entry["slack_ratios"]["code_error"])
                gating += entry["slack_ratios"].values()
        # a slack between the largest code-error ratio and the largest gating
        # ratio fails a check that the aggregate's code_error_slack misses
        assert max(code_error) < max(gating)
        slack = 0.5 * (max(code_error) + max(gating))
        code = cli_main(["sweep", "--config", str(cfg_path), "--out", out,
                         "--slack", repr(slack)])
        assert code == 2

    def test_one_aggregate_row_per_point_and_beta(self, tmp_path):
        # every beta of every point has its row, labelled in the beta column;
        # a failing point keeps one row, with an empty beta
        out = str(tmp_path / "betas")
        d = small_synth_config(out, dim=200).to_dict()
        d["thermal"]["betas"] = [1.0, 0.5]
        d["sweep"] = {"grid": {"model.dim": [200, 300]}, "workers": 1}
        _, rows, any_error = sweep(RunConfig.from_dict(d))
        assert not any_error
        assert [(r["model.dim"], r["beta"]) for r in rows] == [
            (200, 1.0), (200, 0.5), (300, 1.0), (300, 0.5)]
        for row in rows:
            pdir = os.path.join(out, "points", row["point"])
            i = [1.0, 0.5].index(row["beta"])
            bound = load_json(os.path.join(pdir, "bounds.json"))["per_beta"][i]
            dyn = load_json(os.path.join(pdir, "dynamics.json"))["per_beta"][i]
            assert row["lambda_used"] == bound["lambda_used"]
            assert row["code_error_slack"] == bound["slack_ratios"]["code_error"]
            assert row["fdt_max_deviation"] == dyn["fdt_max_deviation"]
        header, cells = read_csv_text(os.path.join(out, "aggregate.csv"))
        assert header[:2] == ["model.dim", "beta"]
        assert [c[:2] for c in cells] == [["200", "1"], ["200", "0.5"],
                                          ["300", "1"], ["300", "0.5"]]
        d["out_dir"] = out = str(tmp_path / "fail")
        d["sweep"]["grid"] = {"code.k": [1, 12]}
        _, rows, any_error = sweep(RunConfig.from_dict(d))
        assert any_error
        assert [(r["code.k"], r["beta"]) for r in rows] == [(1, 1.0), (1, 0.5), (12, "")]
        _, cells = read_csv_text(os.path.join(out, "aggregate.csv"))
        assert [c[:2] for c in cells] == [["1", "1"], ["1", "0.5"], ["12", ""]]

    def test_parallel_matches_serial(self, tmp_path):
        cfg_serial = self._sweep_config(str(tmp_path / "ser"))
        manifests_s, _, _ = sweep(cfg_serial)
        d = cfg_serial.to_dict()
        d["out_dir"] = str(tmp_path / "par")
        d["sweep"]["workers"] = 2
        cfg_par = RunConfig.from_dict(d)
        manifests_p, _, _ = sweep(cfg_par)
        assert set(manifests_s) == set(manifests_p)
        for name in manifests_s:
            assert manifests_s[name]["files"] == manifests_p[name]["files"]


class TestRunner:
    def _cli(self, tmp_path, cfg, *cmds, extra=()):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.canonical_json())
        return [cli_main([cmd, "--config", str(cfg_path), *extra]) for cmd in cmds]

    def test_stagewise_manifest_merges_stages(self, tmp_path):
        full = run(small_synth_config(str(tmp_path / "full"), dim=200))
        out = str(tmp_path / "steps")
        cfg = small_synth_config(out, dim=200)
        assert self._cli(tmp_path, cfg, "generate", "extract",
                         "code-error") == [0, 0, 0]
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert set(manifest["stages"]) == {"generate", "extract", "code-error"}
        assert manifest["status"] == dict.fromkeys(manifest["stages"], "ok")
        assert len(manifest["files"]) == 7
        assert manifest["files"] == {f: full["files"][f] for f in manifest["files"]}
        assert manifest["fingerprints"] == {
            s: full["fingerprints"][s] for s in manifest["stages"]}

    def test_input_from_other_config_refused(self, tmp_path, capsys):
        out = str(tmp_path / "mixed")
        cfg = small_synth_config(out, dim=200, seed=3)
        assert self._cli(tmp_path, cfg, "generate") == [0]
        assert self._cli(tmp_path, cfg, "extract", extra=("--seed", "4")) == [1]
        assert "re-run generate" in capsys.readouterr().err
        assert not os.path.exists(os.path.join(out, "extract.json"))
        assert load_json(os.path.join(out, "config.json"))["seed"] == 3

    def test_second_beta_keeps_the_code_error_outputs(self, tmp_path):
        # code-error reads no beta: with a beta added, dynamics and bounds run
        # on the code-error outputs already there
        out = str(tmp_path / "addbeta")
        cfg = small_synth_config(out, dim=200)
        first = run(cfg)
        more = cfg.with_path_value("thermal.betas", [1.0, 0.5])
        manifest = run(more, stages=("dynamics", "bounds"))
        assert manifest["fingerprints"]["code-error"] == first["fingerprints"]["code-error"]
        assert manifest["files"]["code_error.json"] == first["files"]["code_error.json"]
        bounds = load_json(os.path.join(out, "bounds.json"))["per_beta"]
        assert [e["beta"] for e in bounds] == [1.0, 0.5]

    def test_rerun_after_own_key_change_accepted(self, tmp_path):
        out = str(tmp_path / "tmax")
        run(small_synth_config(out, dim=200))
        d = small_synth_config(out, dim=200).to_dict()
        d["dynamics"]["t_max"] = 3.0
        cfg = RunConfig.from_dict(d)
        run(cfg, stages=("dynamics",))
        manifest = run(cfg, stages=("bounds",))
        assert manifest["status"]["bounds"] == "ok"
        # the earlier dynamics fingerprint no longer matches the old config
        with pytest.raises(el.ValidationError, match="re-run dynamics"):
            run(small_synth_config(out, dim=200), stages=("bounds",))

    def test_failed_write_leaves_previous_files_and_a_record(self, tmp_path,
                                                             monkeypatch):
        out = str(tmp_path / "atomic")
        cfg = small_synth_config(out, dim=200)
        run(cfg, stages=("generate", "extract"))
        before = {f: (tmp_path / "atomic" / f).read_bytes()
                  for f in ("profile.csv", "envelope.csv", "extract.json")}
        real = pipeline.write_csv

        def write_half_then_fail(path, header, columns):
            if str(path).endswith("envelope.csv.tmp"):
                with open(path, "w") as fh:
                    fh.write(",".join(header) + "\n0.5,")
                raise OSError("disk full")
            real(path, header, columns)

        monkeypatch.setattr(pipeline, "write_csv", write_half_then_fail)
        with pytest.raises(OSError, match="disk full"):
            run(cfg, stages=("extract",))
        for f, data in before.items():
            assert (tmp_path / "atomic" / f).read_bytes() == data, f
        assert not [f for f in os.listdir(out) if f.endswith(".tmp")]
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"] == {"generate": "ok",
                                      "extract": "error: OSError: disk full"}
        assert set(manifest["fingerprints"]) == {"generate"}
        monkeypatch.undo()
        with pytest.raises(el.ValidationError, match="re-run extract"):
            run(cfg, stages=("bounds",))

    def test_stage_that_raises_writes_nothing(self, tmp_path, monkeypatch):
        out = str(tmp_path / "raise")
        cfg = small_synth_config(out, dim=200)

        def generate_then_fail(cfg, inputs):
            pipeline.stage_generate(cfg, inputs)
            raise el.NumericError("eigensolver failed")

        monkeypatch.setitem(pipeline._STAGE_FUNCS, "generate", generate_then_fail)
        assert self._cli(tmp_path, cfg, "generate") == [1]
        assert sorted(os.listdir(out)) == ["config.json", "manifest.json"]
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"] == {"generate": "error: eigensolver failed"}

    def test_demo_fingerprints_keep_their_bytes(self):
        # the sha256 of each stage's config keys, read through the one walker
        # of dotted paths (thermal.betas.0 indexes a list)
        assert {stage: pipeline._fingerprint(demo_config(), stage)
                for stage in pipeline.STAGES} == {
            "generate": "c798c02826decac42b7e367814cb04b58a2d09f3cc6a543123a4257188c2f88d",
            "extract": "6c21e1b17db41322edaa14196ce8cb2367473955026255e43f6c28e635fa1a5a",
            "code-error": "0d24123d85a12542b31f6a83870939b070578e1cad8c5f6e36c6df4bfa586811",
            "dynamics": "e46b286c53031a649adbc07cb4ec7f641d0b2b27c6590b10bf80187f532616e7",
            "bounds": "e701dfe1de6fdb96bd65b1841b2725f5e34153d60000be35a79b107b06d39990"}

    def test_otoc_cost_refused_before_any_correlator(self, tmp_path, monkeypatch):
        out = str(tmp_path / "guard")
        cfg = RunConfig.from_dict({
            "seed": 1, "out_dir": out,
            "model": {"kind": "ising", "n_sites": 8},
            "dynamics": {"t_max": 2.0, "t_points": 5, "otoc_points": 3,
                         "sigma_omega": 0.2, "omega_points": 41}})
        run(cfg, stages=("generate",))

        def measure_must_not_run(*args):
            raise AssertionError("pair_measure ran before the OTOC cost guard")

        # a budget below the 1.1e8 flops of 3 points at d = 256 stands in
        # for a grid above the real budget
        monkeypatch.setattr(el.dynamics, "OTOC_FLOP_BUDGET", 1e8)
        monkeypatch.setattr(pipeline, "pair_measure", measure_must_not_run)
        with pytest.raises(el.CostGuardError) as err:
            run(cfg, stages=("dynamics",))
        # real operator: 4 flops per block row, column and inner index over
        # the upper block triangle
        h = el.dynamics.OTOC_BLOCK_ROWS
        terms = sum(h * 256 * (256 - s) for s in range(0, 256, h))
        assert err.value.estimated_flops == 4 * terms * 3
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"]["dynamics"].startswith("error: otoc at dim 256")
        # without OTOC points the budget does not apply
        monkeypatch.setattr(pipeline, "pair_measure", el.pair_measure)
        manifest = run(cfg.with_path_value("dynamics.otoc_points", 0),
                       stages=("dynamics",))
        assert manifest["status"]["dynamics"] == "ok"

    def test_correlator_csv_layout(self, tmp_path):
        out = str(tmp_path / "series")
        manifest = run(small_synth_config(out, dim=200))
        for name in ("f2", "fsym", "resp", "otoc"):
            header, cols = read_csv(os.path.join(out, f"correlator_{name}_beta1.csv"))
            assert header == ["t", "re", "im"]
            if name in ("f2", "otoc"):
                assert np.all(cols[2] == 0.0)
        assert manifest["stages"]["dynamics"] == [
            "correlator_f2_beta1.csv", "correlator_fsym_beta1.csv",
            "correlator_resp_beta1.csv", "correlator_otoc_beta1.csv",
            "spectral_density_beta1.csv", "dynamics.json"]

    def test_two_betas_write_both_sets_in_config_order(self, tmp_path):
        out = str(tmp_path / "betas")
        cfg = small_synth_config(out, dim=200).with_path_value(
            "thermal.betas", [1.0, 0.5])
        written = run(cfg)["stages"]["dynamics"]
        dyn = load_json(os.path.join(out, "dynamics.json"))["per_beta"]
        bounds = load_json(os.path.join(out, "bounds.json"))["per_beta"]
        assert [e["beta"] for e in dyn] == [e["beta"] for e in bounds] == [1.0, 0.5]
        for entry, tag in zip(dyn, ("1", "0.5")):
            for stem in ("spectral_density", "correlator_f2", "correlator_fsym",
                         "correlator_resp", "correlator_otoc"):
                assert f"{stem}_beta{tag}.csv" in written
            _, cols = read_csv(os.path.join(out, f"correlator_f2_beta{tag}.csv"))
            assert cols[1][0] == pytest.approx(entry["f2_zero"], rel=1e-15)
        assert dyn[0]["f2_zero"] != dyn[1]["f2_zero"]

    def test_negative_zero_beta_is_zero(self, tmp_path):
        # -0.0 once wrote *_beta-0.csv and hashed apart from 0.0
        raw = {"seed": 1, "model": {"kind": "synthetic", "dim": 64},
               "dynamics": {"t_max": 2.0, "t_points": 5, "otoc_points": 2,
                            "sigma_omega": 0.2, "omega_points": 41}}
        neg, pos = (RunConfig.from_dict(dict(raw, thermal={"betas": [beta]}))
                    for beta in (-0.0, 0.0))
        assert neg.canonical_json() == pos.canonical_json()
        assert neg.config_hash() == pos.config_hash()
        stages = ("generate", "dynamics")
        m_neg = run(neg, str(tmp_path / "neg"), stages=stages)
        m_pos = run(pos, str(tmp_path / "pos"), stages=stages)
        assert m_neg["fingerprints"] == m_pos["fingerprints"]
        assert m_neg["files"] == m_pos["files"]
        assert "correlator_f2_beta0.csv" in m_neg["files"]

    def test_generate_never_forms_the_eigenvector_matrix(self, tmp_path, monkeypatch):
        def must_not_run(self):
            raise AssertionError("the d x d eigenvector matrix was formed")

        monkeypatch.setattr(el.spectral.BlockEigenvectors, "dense", must_not_run)
        out = str(tmp_path / "blocks")
        cfg = RunConfig.from_dict({"seed": 1, "out_dir": out,
                                   "model": {"kind": "ising", "n_sites": 8}})
        manifest = run(cfg, stages=("generate",))
        assert manifest["status"] == {"generate": "ok"}
        with pytest.raises(AssertionError):
            eigendecompose_dense(np.eye(4)).basis

    def test_dynamics_stage_walks_the_pair_table_once_per_beta(self, tmp_path,
                                                              monkeypatch):
        # per beta one walk builds the pair measure that serves F2, Fsym,
        # Resp and the spectral densities; the dynamical fluctuation walks
        # once for all betas, and the operator is checked for Hermiticity
        # once, when it is read
        out = str(tmp_path / "spy")
        cfg = RunConfig.from_dict({
            "seed": 1, "out_dir": out,
            "model": {"kind": "ising", "n_sites": 8},
            "thermal": {"betas": [0.5, 1.0]},
            "dynamics": {"t_max": 2.0, "t_points": 5, "otoc_points": 0,
                         "sigma_omega": 0.2, "omega_points": 41}})
        run(cfg, stages=("generate",))
        counts = dict.fromkeys(("abs2_rows", "is_hermitian"), 0)
        for name in counts:
            method = getattr(el.OperatorEigenbasis, name)

            def counted(self, name=name, method=method):
                counts[name] += 1
                return method(self)

            monkeypatch.setattr(el.OperatorEigenbasis, name, counted)
        run(cfg, stages=("dynamics",))
        assert counts == {"abs2_rows": 3, "is_hermitian": 1}
        counts.update(abs2_rows=0, is_hermitian=0)
        run(cfg.with_path_value("dynamics.otoc_points", 3), stages=("dynamics",))
        assert counts == {"abs2_rows": 3, "is_hermitian": 1}

    def test_fit_takes_the_dissipation_time_the_stage_writes(self, tmp_path,
                                                              monkeypatch):
        # per beta the stage computes t_d once, hands it to the fit and
        # writes it; at beta = 1 this window's fit lands t_s before t_d
        out = str(tmp_path / "fit")
        cfg = RunConfig.from_dict({
            "seed": 1, "out_dir": out,
            "model": {"kind": "ising", "n_sites": 8},
            "thermal": {"betas": [0.5, 1.0]},
            "dynamics": {"t_max": 4.0, "t_points": 41, "otoc_points": 41,
                         "sigma_omega": 0.05, "omega_points": 21,
                         "fit_window": [0.1, 0.5], "eps_reg": 0.5}})
        run(cfg, stages=("generate",))
        computed, passed = [], []

        def dissipation_time(f2):
            computed.append(el.dissipation_time(f2))
            return computed[-1]

        def fit_lyapunov(*args):
            passed.append(args[4])
            return el.fit_lyapunov(*args)

        monkeypatch.setattr(pipeline, "dissipation_time", dissipation_time)
        monkeypatch.setattr(pipeline, "fit_lyapunov", fit_lyapunov)
        run(cfg, stages=("dynamics",))
        per_beta = load_json(os.path.join(out, "dynamics.json"))["per_beta"]
        assert [e["dissipation_time"] for e in per_beta] == passed == computed
        fit = per_beta[1]["fit"]
        prefix = f"no valid hierarchy: t_d={passed[1]:g} >= t_s="
        assert fit["status"] == "rejected" and fit["reason"].startswith(prefix)
        assert float(fit["reason"][len(prefix):]) <= passed[1]

    @pytest.mark.parametrize("stage", ["extract", "code-error", "dynamics"])
    def test_stages_refuse_a_non_hermitian_operator(self, tmp_path, stage):
        # one off-diagonal entry of operator.ethb perturbed, far above the
        # 2e-10 relative tolerance of is_hermitian
        out = str(tmp_path / "skew")
        cfg = RunConfig.from_dict({
            "seed": 1, "out_dir": out,
            "model": {"kind": "ising", "n_sites": 8},
            "dynamics": {"t_max": 2.0, "t_points": 5, "otoc_points": 2,
                         "sigma_omega": 0.3, "omega_points": 41}})
        run(cfg, stages=("generate",))
        path = os.path.join(out, "operator.ethb")
        a = read_array(path)
        a[3, 17] += 1e-3
        write_array(path, a)
        with pytest.raises(el.ValidationError,
                           match="operator.ethb .* not Hermitian; re-run generate"):
            run(cfg, stages=(stage,))
        manifest = load_json(os.path.join(out, "manifest.json"))
        assert manifest["status"][stage].startswith("error: operator.ethb")
        assert not os.path.exists(os.path.join(out, "bounds.json"))

    def test_ising_dynamics_does_not_depend_on_the_seed(self, tmp_path):
        # the seed feeds only synthetic models and the code selection; an
        # Ising chain's wave packet is its populations, which the seed never
        # touched, so its dynamics payloads are the same bytes for any seed
        raw = {"model": {"kind": "ising", "n_sites": 8},
               "dynamics": {"t_max": 4.0, "t_points": 17, "otoc_points": 3,
                            "sigma_omega": 0.05, "omega_points": 201}}
        files = []
        for seed in (1, 2):
            out = str(tmp_path / f"seed{seed}")
            manifest = run(RunConfig.from_dict(dict(raw, seed=seed)), out,
                           stages=("generate", "dynamics"))
            files.append({name: manifest["files"][name]
                          for name in manifest["stages"]["dynamics"]})
        assert "dynamics.json" in files[0]
        assert sum(name.startswith("correlator_") for name in files[0]) == 4
        assert files[0] == files[1]


def read_csv_text(path):
    with open(path) as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    return header, rows


class TestCli:
    def test_stagewise_execution(self, tmp_path):
        out = str(tmp_path / "cli")
        cfg = small_synth_config(out)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.canonical_json())
        for cmd in ("generate", "extract", "code-error", "dynamics", "bounds"):
            code = cli_main([cmd, "--config", str(cfg_path)])
            assert code == 0, cmd
        assert os.path.exists(os.path.join(out, "bounds.json"))

    def test_exit_code_two_on_slack_violation(self, tmp_path):
        out = str(tmp_path / "viol")
        cfg = small_synth_config(out)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.canonical_json())
        for cmd in ("generate", "extract", "code-error", "dynamics"):
            assert cli_main([cmd, "--config", str(cfg_path)]) == 0
        # an absurdly tight slack turns ordinary statistics into violations
        code = cli_main(["bounds", "--config", str(cfg_path),
                         "--slack", "1e-30"])
        assert code == 2

    def test_exit_code_one_on_bad_config(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"model\": {\"kind\": \"unknown\"}}")
        assert cli_main(["generate", "--config", str(bad)]) == 1

    @pytest.mark.parametrize("argv,code", [
        (["generate"], 1), (["bogus"], 1), ([], 1), (["demo", "--bogus"], 1),
        (["demo", "--seed", "x"], 1), (["--help"], 0), (["bounds", "--help"], 0),
    ], ids=["no-config", "unknown-command", "no-command", "unknown-flag",
            "bad-flag-value", "help", "command-help"])
    def test_usage_error_exits_one(self, capsys, argv, code):
        # argparse exits 2, the code of a bound check beyond the slack
        assert cli_main(argv) == code
        err = capsys.readouterr().err
        assert ("usage: ethlab" in err) == (code == 1)

    def test_chain_above_the_dense_cap_refused(self, tmp_path, capsys):
        # L=14 only: a guard that let a larger chain through could allocate
        # arrays of size 2^L before anything failed
        out = tmp_path / "l14"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "out_dir": str(out),
                                        "model": {"kind": "ising", "n_sites": 14}}))
        assert cli_main(["generate", "--config", str(cfg_path)]) == 1
        assert "dense cap 8192" in capsys.readouterr().err
        assert sorted(os.listdir(out)) == ["config.json", "manifest.json"]

    @pytest.mark.parametrize("key", ["slack", "observable"])
    def test_null_value_refused_before_any_stage(self, tmp_path, capsys, key):
        out = tmp_path / "null"
        d = demo_config(str(out)).to_dict()
        d[key] = None
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(d))
        assert cli_main(["demo", "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and key in err
        assert not out.exists()

    @pytest.mark.parametrize("command,block,keys", [
        ("demo", {"dynamics": {"fit_window": [0.1, 0.5], "otoc_points": 0}},
         ("dynamics.fit_window", "dynamics.otoc_points")),
        ("sweep", {"sweep": {"grid": {"thermal.betas": [[0.5, 1.0], [2.0]]}}},
         ("sweep.grid['thermal.betas'][0]",)),
    ], ids=["fit-window-without-otoc", "list-sweep-value"])
    def test_config_refused_at_load(self, tmp_path, capsys, command, block, keys):
        out = tmp_path / "refused"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "out_dir": str(out),
                                        "model": {"kind": "ising", "n_sites": 8},
                                        **block}))
        assert cli_main([command, "--config", str(cfg_path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and all(key in err for key in keys)
        assert not out.exists()

    @pytest.mark.parametrize("key,value", [
        ("code.window_half_width_fraction", 0.0),
        ("dynamics.sigma_omega", 0.0),
        ("dynamics.wavepacket_sigma_fraction", 0.0),
        ("dynamics.wavepacket_sigma_fraction", -0.04),
        ("extract.e_bins", 0),
        ("extract.omega_bins", 1),
        ("extract.min_count", 0),
        ("dynamics.t_max", 0.0),
        ("dynamics.t_max", -1.0),
        ("dynamics.omega_max", -1.0),
        ("dynamics.eps_reg", -1.0),
        ("dynamics.fdt_threshold", -1.0),
    ])
    def test_value_a_stage_refuses_is_refused_at_load(self, tmp_path, capsys,
                                                      key, value):
        # each of these used to load, and either let the earlier stages
        # write their files and then fail in extract, dynamics or bounds, or
        # (the dynamics values from t_max on) run to exit 0: t_max 0 wrote a
        # time grid of zeros, and t_max and omega_max -1 grids running down
        # to -1
        out = tmp_path / "refused"
        block, name = key.split(".")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "out_dir": str(out),
                                        "model": {"kind": "synthetic", "dim": 64},
                                        block: {name: value}}))
        assert cli_main(["demo", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key!r} must be")
        assert not out.exists()

    @pytest.mark.parametrize("model,block,key", [
        ({"kind": "ising", "n_sites": 8}, {"observable": {"sites": [0.7]}},
         "observable.sites.0"),
        ({"kind": "ising", "n_sites": 8}, {"observable": {"sites": ["0"]}},
         "observable.sites.0"),
        ({"kind": "ising", "n_sites": 8}, {"observable": {"sites": [True]}},
         "observable.sites.0"),
        ({"kind": "ising", "n_sites": 6}, {"observable": {"sites": [12]}}, "observable"),
        ({"kind": "ising", "n_sites": 8}, {"observable": {"paulis": "z"}}, "observable"),
        ({"kind": "synthetic", "dim": 64, "diagonal": {"kind": "tanh", "scale": 0}}, {},
         "model.diagonal.scale"),
        ({"kind": "synthetic", "dim": 64, "bandwidth": 0}, {}, "model.bandwidth"),
        ({"kind": "ising", "n_sites": 1}, {}, "model.n_sites"),
        ({"kind": "synthetic", "dim": 8}, {}, "model.dim"),
    ], ids=["site-0.7", "site-str", "site-true", "site-beyond-chain", "lowercase-pauli",
            "diagonal-scale-0", "bandwidth-0", "one-site", "dim-8"])
    def test_value_generate_refuses_is_refused_at_load(self, tmp_path, capsys,
                                                       model, block, key):
        # each of these used to load and write the run's directory,
        # config.json and manifest.json; generate then ran site 0.7 as site 0,
        # "0" as 0 and true as 1, or failed (tanh(E / 0) among them)
        out = tmp_path / "refused"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"seed": 1, "out_dir": str(out), "model": model,
                                        **block}))
        assert cli_main(["demo", "--config", str(cfg_path)]) == 1
        assert capsys.readouterr().err.startswith(f"error: config key {key!r}")
        assert not out.exists()

    def test_small_models_pass_extract_at_the_default_widths(self, tmp_path):
        # 2% of the bandwidth is below 3 mean level spacings here, which
        # used to refuse S(E) at L=6 and O(E) at dim 64; the default widths
        # now take that floor
        for model in ({"kind": "synthetic", "dim": 64}, {"kind": "ising", "n_sites": 6}):
            cfg = RunConfig.from_dict({"seed": 1, "out_dir": str(tmp_path / model["kind"]),
                                       "model": model})
            manifest = run(cfg, stages=("generate", "extract"))
            assert manifest["status"] == {"generate": "ok", "extract": "ok"}

    def test_workers_without_sweep_block_refused(self, tmp_path, capsys):
        out = tmp_path / "w"
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(small_synth_config(str(out), dim=64).canonical_json())
        assert cli_main(["generate", "--config", str(cfg_path),
                         "--workers", "2"]) == 1
        assert ("config path 'sweep.workers' does not exist"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_seed_override_changes_hash(self, tmp_path):
        out1, out2 = str(tmp_path / "s1"), str(tmp_path / "s2")
        cfg = small_synth_config(out1)
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(cfg.canonical_json())
        assert cli_main(["generate", "--config", str(cfg_path)]) == 0
        assert cli_main(["generate", "--config", str(cfg_path),
                         "--seed", "99", "--out", out2]) == 0
        m1 = load_json(os.path.join(out1, "manifest.json"))
        m2 = load_json(os.path.join(out2, "manifest.json"))
        assert m1["files"]["operator.ethb"] != m2["files"]["operator.ethb"]

    def test_demo_csv_payloads_agree_across_blas_threads(self, tmp_path):
        # bytes are promised only within one environment; across BLAS thread
        # counts each CSV column agrees within 1e-12 of its maximum. The
        # binary payloads are left out: eigenvector signs may differ. At
        # L=8 every payload is byte-identical, so the bundled L=10 demo runs
        src = os.path.dirname(os.path.dirname(el.__file__))
        outs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads,
                       PYTHONPATH=src)
            subprocess.run(
                [sys.executable, "-c",
                 "import sys; from ethlab.cli import main; "
                 "sys.exit(main(sys.argv[1:]))",
                 "demo", "--out", str(out)],
                env=env, check=True, capture_output=True)
            outs.append(out)
        names = sorted(p.name for p in outs[0].glob("*.csv"))
        assert names == sorted(p.name for p in outs[1].glob("*.csv"))
        assert "correlator_otoc_beta1.csv" in names
        for name in names:
            (h1, cols1), (h2, cols2) = (read_csv(str(o / name)) for o in outs)
            assert h1 == h2, name
            for col, x, y in zip(h1, cols1, cols2):
                np.testing.assert_allclose(y, x, rtol=0,
                                           atol=1e-12 * np.abs(x).max(),
                                           err_msg=f"{name} {col}")
