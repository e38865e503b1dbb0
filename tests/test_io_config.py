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
        c2 = c1.override(seed=8)
        assert c1.config_hash() != c2.config_hash()

    def test_override_restricted(self):
        with pytest.raises(el.ValidationError):
            demo_config().override(model={})

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

    def test_canonical_file_roundtrip(self, tmp_path):
        cfg = demo_config()
        path = tmp_path / "cfg.json"
        path.write_text(cfg.canonical_json())
        again = RunConfig.from_file(path)
        assert again.to_dict() == cfg.to_dict()
