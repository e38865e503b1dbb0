import json

import numpy as np
import pytest

import ethlab as el
from ethlab.config import RunConfig, demo_config
from ethlab.io import (dump_json, file_sha256, format_number, load_json,
                       read_array, read_csv, write_array, write_csv)


class TestArrayContainer:
    def test_matrix_roundtrip_complex(self, tmp_path):
        rng = np.random.Generator(np.random.Philox(key=np.uint64(1)))
        m = rng.standard_normal((17, 17)) + 1j * rng.standard_normal((17, 17))
        path = tmp_path / "m.ethb"
        write_array(path, m)
        back = read_array(path)
        assert back.dtype == np.complex128
        assert np.array_equal(back, m)

    def test_vector_roundtrip_real(self, tmp_path):
        v = np.linspace(0, 1, 37)
        path = tmp_path / "v.ethb"
        write_array(path, v)
        back = read_array(path)
        assert back.dtype == np.float64
        assert np.array_equal(back, v)

    def test_write_is_bit_stable(self, tmp_path):
        v = np.sqrt(np.arange(100, dtype=float))
        p1, p2 = tmp_path / "a.ethb", tmp_path / "b.ethb"
        write_array(p1, v)
        write_array(p2, v)
        assert file_sha256(p1) == file_sha256(p2)

    def test_layout_and_byte_order_do_not_change_bytes(self, tmp_path):
        m = np.sqrt(np.arange(12.0)).reshape(3, 4)
        variants = {"c": m, "fortran": np.asfortranarray(m),
                    "big": m.astype(">f8")}
        for name, arr in variants.items():
            write_array(tmp_path / f"{name}.ethb", arr)
        want = (tmp_path / "c.ethb").read_bytes()
        assert len(want) == 24 + m.nbytes
        for name in ("fortran", "big"):
            assert (tmp_path / f"{name}.ethb").read_bytes() == want
            assert np.array_equal(read_array(tmp_path / f"{name}.ethb"), m)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.ethb"
        path.write_bytes(b"NOPE" + b"\x00" * 40)
        with pytest.raises(el.ValidationError):
            read_array(path)

    def test_truncated_payload_rejected(self, tmp_path):
        path = tmp_path / "t.ethb"
        write_array(path, np.arange(10.0))
        data = path.read_bytes()
        path.write_bytes(data[:-8])
        with pytest.raises(el.ValidationError):
            read_array(path)


class TestCsv:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "x.csv"
        a = np.array([1.0, 2.0, np.pi])
        b = np.array([-1.0, 0.5, 1e-17])
        write_csv(path, ["a", "b"], [a, b])
        header, cols = read_csv(path)
        assert header == ["a", "b"]
        assert np.array_equal(cols[0], a)
        assert np.array_equal(cols[1], b)

    def test_17_significant_digits_and_newlines(self, tmp_path):
        path = tmp_path / "y.csv"
        write_csv(path, ["v"], [np.array([np.pi])])
        raw = path.read_bytes().decode()
        assert "\r" not in raw
        assert raw == "v\n3.1415926535897931\n"

    def test_format_number_integer_passthrough(self):
        assert format_number(42) == "42"
        assert format_number(0.5) == "0.5"


class TestJson:
    def test_deterministic_and_sorted(self, tmp_path):
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        dump_json(p1, {"b": 1, "a": [1, 2, {"z": 0, "y": 1}]})
        dump_json(p2, {"a": [1, 2, {"y": 1, "z": 0}], "b": 1})
        assert p1.read_bytes() == p2.read_bytes()

    def test_non_finite_becomes_null(self, tmp_path):
        path = tmp_path / "n.json"
        dump_json(path, {"x": float("nan"), "y": float("inf"), "z": 1.0})
        back = load_json(path)
        assert back == {"x": None, "y": None, "z": 1.0}
        json.loads(path.read_text())  # standard JSON, parses strictly

    def test_dataclass_and_array_written_as_fields(self, tmp_path):
        window = el.MicrocanonicalWindow(center=0.5, half_width=0.25,
                                         start=3, stop=9)
        path = tmp_path / "d.json"
        dump_json(path, {"w": window, "a": np.array([[1.0, np.nan], [2.0, 3.0]])})
        assert load_json(path) == {
            "w": {"center": 0.5, "half_width": 0.25, "start": 3, "stop": 9},
            "a": [[1.0, None], [2.0, 3.0]]}


class TestRunConfig:
    def test_roundtrip_identity(self):
        cfg = demo_config()
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert again.config_hash() == cfg.config_hash()

    def test_unknown_top_level_key(self):
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                 "bogus": 1})

    def test_unknown_nested_key(self):
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4,
                                           "coupling": 2.0}})

    def test_missing_required_key(self):
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict({"model": {"kind": "synthetic"}})

    def test_bad_enum_value(self):
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4,
                                           "boundary": "twisted"}})

    @pytest.mark.parametrize("observable", [
        {"traceless_shift": True}, {"paulis": "X"}, {"sites": [1]}])
    def test_synthetic_rejects_observable_block(self, observable):
        with pytest.raises(el.ValidationError, match="observable"):
            RunConfig.from_dict({"model": {"kind": "synthetic", "dim": 64},
                                 "observable": observable})

    def test_synthetic_canonical_dict_roundtrip(self):
        # sweep hands each point cfg.to_dict(), which materializes the
        # default observable block
        cfg = RunConfig.from_dict({
            "model": {"kind": "synthetic", "dim": 64},
            "sweep": {"grid": {"model.dim": [64, 128]}}})
        again = RunConfig.from_dict(cfg.to_dict())
        assert again.to_dict() == cfg.to_dict()
        assert cfg.with_path_value("model.dim", 128).data["model"]["dim"] == 128

    def test_empty_betas_rejected(self):
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                 "thermal": {"betas": []}})

    @pytest.mark.parametrize("key,value", [("t_points", 0),
                                           ("otoc_points", -1),
                                           ("omega_points", -3)])
    def test_bad_point_counts_rejected(self, key, value):
        # the dynamics stage records and rescales by F2(0), the first point;
        # negative counts would only fail later, inside np.linspace
        with pytest.raises(el.ValidationError, match=f"dynamics.{key}"):
            RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                 "dynamics": {key: value}})

    def test_hash_changes_with_content(self):
        c1 = demo_config()
        c2 = c1.with_path_value("seed", 8)
        assert c1.config_hash() != c2.config_hash()

    @pytest.mark.parametrize("model,expected", [
        ({"kind": "ising", "n_sites": 4},
         {"kind": "ising", "n_sites": 4, "j": 1.0, "hx": 0.9045, "hz": 0.809,
          "boundary": "open"}),
        ({"kind": "synthetic", "dim": 64},
         {"kind": "synthetic", "dim": 64, "dos_shape": "flat", "bandwidth": 4.0,
          "envelope": {"form": "exp_decay", "gamma": 0.25, "f0": 1.0,
                       "table": None},
          "diagonal": {"kind": "zero", "value": 0.0, "scale": 1.0},
          "entropy": {"kind": "log_dim", "sigma_s": None}}),
    ])
    def test_defaults_pinned(self, model, expected):
        # the canonical text is hashed into every fingerprint, so a moved
        # default (or an int where a float was) must show up here
        expected = {
            "seed": 0, "slack": 10.0, "out_dir": "runs/out", "model": expected,
            "observable": {"sites": [0], "paulis": "Z", "traceless_shift": False},
            "thermal": {"betas": [1.0]},
            "code": {"k": 1, "d": 1, "window_center": "dos_peak",
                     "window_half_width_fraction": 0.05, "selection": "nearest"},
            "extract": {"e_bins": 8, "omega_bins": 48, "min_count": 50,
                        "fit_window": None, "profile_bandwidth": None,
                        "sigma_s": None},
            "dynamics": {"t_max": 6.0, "t_points": 61, "otoc_points": 9,
                         "sigma_omega": 0.05, "omega_points": 241,
                         "omega_max": None, "fit_window": None, "eps_reg": 0.0,
                         "wavepacket_sigma_fraction": 0.04, "fdt_threshold": 0.3},
            "sweep": None}
        text = json.dumps(expected, sort_keys=True, separators=(",", ": "),
                          indent=2) + "\n"
        assert RunConfig.from_dict({"model": model}).canonical_json() == text

    @pytest.mark.parametrize("raw,key", [
        ({"slack": None}, "slack"),
        ({"observable": None}, "observable"),
        ({"model": None}, "model"),
        ({"model": {"kind": "ising", "n_sites": None}}, "model.n_sites"),
        ({"dynamics": {"t_max": None}}, "dynamics.t_max"),
        ({"code": {"k": -1}}, "code.k"),
        ({"code": {"d": -1}}, "code.d"),
        ({"extract": {"fit_window": [1.0]}}, "extract.fit_window"),
        ({"extract": {"fit_window": ["a", "b"]}}, "extract.fit_window"),
        ({"dynamics": {"fit_window": ["a", "b"]}}, "dynamics.fit_window"),
        ({"seed": 2**64}, "seed"),
        ({"slack": float("nan")}, "slack"),
        ({"slack": float("inf")}, "slack"),
        ({"dynamics": {"sigma_omega": float("nan")}}, "dynamics.sigma_omega"),
        ({"dynamics": {"t_max": float("nan")}}, "dynamics.t_max"),
        ({"dynamics": {"t_max": float("-inf")}}, "dynamics.t_max"),
        ({"code": {"window_center": float("nan")}}, "code.window_center"),
        ({"code": {"window_center": 10**400}}, "code.window_center"),
        ({"thermal": {"betas": [0.5, float("inf")]}}, "thermal.betas.1"),
        ({"thermal": {"betas": [-1.0]}}, "thermal.betas.0"),
        ({"thermal": {"betas": [1.0, 0.5, 1]}}, "thermal.betas.2"),
    ])
    def test_values_that_would_crash_a_stage_rejected(self, raw, key):
        # each of these used to load and then fail inside a stage (or at
        # load) with a TypeError, ValueError, IndexError or OverflowError
        d = {"model": {"kind": "ising", "n_sites": 4}, **raw}
        with pytest.raises(el.ValidationError, match=key):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("raw,key", [
        ({"thermal": {"betas": [True, 0.5]}}, "thermal.betas.0"),
        ({"thermal": {"betas": [1.0, "0.5"]}}, "thermal.betas.1"),
        ({"extract": {"fit_window": [0.5, True]}}, "extract.fit_window.1"),
        ({"extract": {"fit_window": ["0.5", 2.0]}}, "extract.fit_window.0"),
        ({"dynamics": {"fit_window": [False, 2.0]}}, "dynamics.fit_window.0"),
        ({"dynamics": {"fit_window": [0.5, "2"]}}, "dynamics.fit_window.1"),
        ({"code": {"window_center": True}}, "code.window_center"),
    ])
    def test_bool_and_str_numbers_rejected(self, raw, key):
        # these used to load as floats ([true, "0.5"] as [1.0, 0.5]), while
        # every scalar float key refuses a bool or a string
        d = {"model": {"kind": "ising", "n_sites": 4}, **raw}
        with pytest.raises(el.ValidationError, match=key):
            RunConfig.from_dict(d)

    @pytest.mark.parametrize("envelope", [
        {"form": "table", "table": [[0.0, 1.0]]},
        {"form": "table", "table": [[0.0, "a"], [1.0, 0.5]]},
        {"form": "table", "table": [[0.0, 1.0], [1.0]]},
        {"form": "table", "table": [[0.0, True], [1.0, 0.5]]},
        {"form": "table", "table": None},
        {"table": [0.0, 1.0]},
    ], ids=["one-sequence", "non-numeric", "unequal-lengths", "bool", "null",
            "unused-numbers"])
    def test_malformed_envelope_table_rejected(self, envelope):
        # these used to load, and generate then died with a ValueError or
        # TypeError traceback (or, for a null table, a ValidationError)
        d = {"model": {"kind": "synthetic", "dim": 64, "envelope": envelope}}
        with pytest.raises(el.ValidationError, match="model.envelope.table"):
            RunConfig.from_dict(d)

    def test_negative_envelope_gamma_rejected(self):
        # used to load and then fail in generate, as EnvelopeSpec refuses it
        d = {"model": {"kind": "synthetic", "dim": 64, "envelope": {"gamma": -0.1}}}
        with pytest.raises(el.ValidationError, match="model.envelope.gamma"):
            RunConfig.from_dict(d)

    def test_number_lists_canonicalized_to_floats(self):
        cfg = RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                   "thermal": {"betas": [1, 0.5]},
                                   "dynamics": {"fit_window": [0, 2]},
                                   "code": {"window_center": 1}})
        assert cfg.data["thermal"]["betas"] == [1.0, 0.5]
        assert cfg.data["dynamics"]["fit_window"] == [0.0, 2.0]
        assert cfg.data["code"]["window_center"] == 1.0
        assert all(type(x) is float for x in cfg.data["thermal"]["betas"]
                   + cfg.data["dynamics"]["fit_window"]
                   + [cfg.data["code"]["window_center"]])

    def test_null_allowed_where_default_is_null(self):
        cfg = RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                   "dynamics": {"omega_max": None},
                                   "sweep": None})
        assert cfg.data["dynamics"]["omega_max"] is None
        assert cfg.data["sweep"] is None
        assert RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                    "seed": 2**64 - 1}).data["seed"] == 2**64 - 1

    def test_with_path_value_keeps_sweep_block(self):
        cfg = RunConfig.from_dict({"model": {"kind": "synthetic", "dim": 64},
                                   "sweep": {"grid": {"model.dim": [64, 128]}}})
        assert cfg.with_path_value("sweep.workers", 3).data["sweep"] == {
            "grid": {"model.dim": [64, 128]}, "workers": 3}

    def test_with_path_value_scalar_into_list(self):
        cfg = demo_config().with_path_value("thermal.betas", 2.0)
        assert cfg.data["thermal"]["betas"] == [2.0]

    def test_with_path_value_missing_path(self):
        with pytest.raises(el.ValidationError):
            demo_config().with_path_value("model.nonexistent", 1)

    def test_sweep_grid_validation(self):
        with pytest.raises(el.ValidationError):
            RunConfig.from_dict({"model": {"kind": "ising", "n_sites": 4},
                                 "sweep": {"grid": {}}})

    def test_fit_window_needs_an_otoc(self):
        # without OTOC points the window used to be ignored: every beta
        # wrote a fit with status "not-attempted"
        d = {"model": {"kind": "ising", "n_sites": 8},
             "dynamics": {"fit_window": [0.1, 0.5], "otoc_points": 0}}
        with pytest.raises(el.ValidationError,
                           match="dynamics.fit_window.*dynamics.otoc_points"):
            RunConfig.from_dict(d)
        d["dynamics"]["otoc_points"] = 1
        assert RunConfig.from_dict(d).data["dynamics"]["fit_window"] == [0.1, 0.5]

    @pytest.mark.parametrize("value", [[0.5, 1.0], {"beta": 1.0}, None])
    def test_sweep_values_must_be_numbers_or_strings(self, value):
        # each value names its point's directory; a list, object or null
        # used to crash the sweep with a TypeError while naming it
        d = {"model": {"kind": "ising", "n_sites": 4},
             "sweep": {"grid": {"seed": [1], "thermal.betas": [2.0, value]}}}
        with pytest.raises(el.ValidationError,
                           match=r"sweep\.grid\['thermal\.betas'\]\[1\]"):
            RunConfig.from_dict(d)
        d["sweep"]["grid"] = {"seed": [1, 2], "model.boundary": ["open"],
                              "observable.traceless_shift": [True, False]}
        assert RunConfig.from_dict(d).data["sweep"]["grid"] == d["sweep"]["grid"]

    @pytest.mark.parametrize("path", ["model.dimm", "model.n_sites",
                                      "thermal.betas.0", "seed.x"])
    def test_sweep_grid_paths_resolved_at_load(self, path):
        # a path that names no key of the loaded config (a typo, a key of the
        # other model kind, a list index, a key under a value) used to load
        # and then fail at every point of the sweep
        d = {"model": {"kind": "synthetic", "dim": 64},
             "sweep": {"grid": {"model.dim": [64, 128], path: [1, 2]}}}
        with pytest.raises(el.ValidationError,
                           match=f"config path {path!r} does not exist"):
            RunConfig.from_dict(d)

    def test_sweep_grid_path_that_indexes_a_list_refused(self):
        # thermal.betas.0 names an entry of the list, which the walker of
        # dotted paths reaches, but a sweep point replaces whole keys
        d = {"model": {"kind": "ising", "n_sites": 4},
             "thermal": {"betas": [0.5, 2.0]},
             "sweep": {"grid": {"thermal.betas.0": [1.0, 3.0]}}}
        with pytest.raises(el.ValidationError, match="it indexes a list"):
            RunConfig.from_dict(d)
        d["sweep"]["grid"] = {"thermal.betas": [1.0, 3.0]}
        assert RunConfig.from_dict(d).data["sweep"]["grid"] == d["sweep"]["grid"]

    def test_value_at_walks_keys_and_list_entries(self):
        cfg = demo_config()
        assert cfg.value_at("thermal.betas.0") == 1.0
        assert cfg.value_at("dynamics.t_max") == 6.0
        assert cfg.value_at("model") == cfg.data["model"]
        for path in ("thermal.betas.1", "thermal.betas.x", "sweep.workers",
                     "seed.x", "model.dimm"):
            with pytest.raises(el.ValidationError,
                               match=f"config path {path!r} does not exist"):
                cfg.value_at(path)

    @pytest.mark.parametrize("slack", [0, 0.0, -1.0, -1e-300])
    def test_slack_must_be_positive(self, slack):
        # at slack 0 every check with a nonzero ratio fails, and below 0
        # every check fails, so the run exits 2 whatever it measured
        d = {"model": {"kind": "ising", "n_sites": 4}, "slack": slack}
        with pytest.raises(el.ValidationError, match="'slack' must be > 0"):
            RunConfig.from_dict(d)
        with pytest.raises(el.ValidationError, match="'slack' must be > 0"):
            demo_config().with_path_value("slack", slack)
        assert RunConfig.from_dict(dict(d, slack=1e-30)).data["slack"] == 1e-30

    def test_canonical_file_roundtrip(self, tmp_path):
        cfg = demo_config()
        path = tmp_path / "cfg.json"
        path.write_text(cfg.canonical_json())
        again = RunConfig.from_file(path)
        assert again.to_dict() == cfg.to_dict()
