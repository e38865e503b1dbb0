"""Run configuration: strict schema, canonical serialization, hashing.

Configs are JSON objects. Unknown keys are rejected at every level so a
typo cannot silently fall back to a default. ``RunConfig.from_dict`` then
``to_dict`` round-trips identically (defaults are materialized on parse),
and the config hash is the sha256 of the canonical JSON text.
"""

import copy
import hashlib
import json

from .aqec import DEFAULT_SLACK
from .errors import ValidationError
from .synth import DOS_SHAPES, ENVELOPE_FORMS

_MISSING = object()


def _take(d, key, default=_MISSING, kind=None, choices=None):
    if key in d:
        val = d.pop(key)
    elif default is not _MISSING:
        val = copy.deepcopy(default)
    else:
        raise ValidationError(f"missing required config key {key!r}")
    if val is not None and kind is not None:
        if (kind is float or kind is int) and isinstance(val, bool):
            raise ValidationError(f"config key {key!r} must be {kind.__name__}")
        elif kind is float and isinstance(val, (int, float)):
            val = float(val)
        elif not isinstance(val, kind):
            raise ValidationError(
                f"config key {key!r} must be {getattr(kind, '__name__', kind)}, "
                f"got {type(val).__name__}"
            )
    if choices is not None and val not in choices:
        raise ValidationError(f"config key {key!r} must be one of {choices}, got {val!r}")
    return val


def _reject_unknown(d, where):
    if d:
        raise ValidationError(f"unknown config keys in {where}: {sorted(d)}")


def _model_block(raw):
    d = dict(raw)
    kind = _take(d, "kind", kind=str, choices=("ising", "synthetic"))
    out = {"kind": kind}
    if kind == "ising":
        out["n_sites"] = _take(d, "n_sites", kind=int)
        out["j"] = _take(d, "j", 1.0, float)
        out["hx"] = _take(d, "hx", 0.9045, float)
        out["hz"] = _take(d, "hz", 0.8090, float)
        out["boundary"] = _take(d, "boundary", "open", str, ("open", "periodic"))
    else:
        out["dim"] = _take(d, "dim", kind=int)
        out["dos_shape"] = _take(d, "dos_shape", "flat", str, DOS_SHAPES)
        out["bandwidth"] = _take(d, "bandwidth", 4.0, float)
        env = dict(_take(d, "envelope", {"form": "exp_decay", "gamma": 0.25, "f0": 1.0},
                         dict))
        out["envelope"] = {
            "form": _take(env, "form", "exp_decay", str, ENVELOPE_FORMS),
            "gamma": _take(env, "gamma", 0.25, float),
            "f0": _take(env, "f0", 1.0, float),
            "table": _take(env, "table", None, list),
        }
        _reject_unknown(env, "model.envelope")
        diag = dict(_take(d, "diagonal", {"kind": "zero"}, dict))
        out["diagonal"] = {
            "kind": _take(diag, "kind", "zero", str, ("zero", "constant", "tanh")),
            "value": _take(diag, "value", 0.0, float),
            "scale": _take(diag, "scale", 1.0, float),
        }
        _reject_unknown(diag, "model.diagonal")
        ent = dict(_take(d, "entropy", {"kind": "log_dim"}, dict))
        out["entropy"] = {
            "kind": _take(ent, "kind", "log_dim", str, ("log_dim", "smoothed")),
            "sigma_s": _take(ent, "sigma_s", None, float),
        }
        _reject_unknown(ent, "model.entropy")
    _reject_unknown(d, "model")
    return out


def _observable_block(raw):
    d = dict(raw)
    out = {
        "sites": list(_take(d, "sites", [0], list)),
        "paulis": _take(d, "paulis", "Z", str),
        "traceless_shift": _take(d, "traceless_shift", False, bool),
    }
    _reject_unknown(d, "observable")
    return out


def _thermal_block(raw):
    d = dict(raw)
    betas = _take(d, "betas", [1.0], list)
    out = {"betas": [float(b) for b in betas]}
    if not out["betas"]:
        raise ValidationError("thermal.betas must be nonempty")
    _reject_unknown(d, "thermal")
    return out


def _code_block(raw):
    d = dict(raw)
    center = _take(d, "window_center", "dos_peak")
    if not (center == "dos_peak" or isinstance(center, (int, float))):
        raise ValidationError("code.window_center must be 'dos_peak' or a number")
    out = {
        "k": _take(d, "k", 1, int),
        "d": _take(d, "d", 1, int),
        "window_center": center if center == "dos_peak" else float(center),
        "window_half_width_fraction": _take(d, "window_half_width_fraction",
                                            0.05, float),
        "selection": _take(d, "selection", "nearest", str, ("nearest", "random")),
    }
    _reject_unknown(d, "code")
    return out


def _extract_block(raw):
    d = dict(raw)
    out = {
        "e_bins": _take(d, "e_bins", 8, int),
        "omega_bins": _take(d, "omega_bins", 48, int),
        "min_count": _take(d, "min_count", 50, int),
        "fit_window": _take(d, "fit_window", None, list),
        "profile_bandwidth": _take(d, "profile_bandwidth", None, float),
        "sigma_s": _take(d, "sigma_s", None, float),
    }
    _reject_unknown(d, "extract")
    return out


def _dynamics_block(raw):
    d = dict(raw)
    out = {
        "t_max": _take(d, "t_max", 6.0, float),
        "t_points": _take(d, "t_points", 61, int),
        "otoc_points": _take(d, "otoc_points", 9, int),
        "sigma_omega": _take(d, "sigma_omega", 0.05, float),
        "omega_points": _take(d, "omega_points", 241, int),
        "omega_max": _take(d, "omega_max", None, float),
        "fit_window": _take(d, "fit_window", None, list),
        "eps_reg": _take(d, "eps_reg", 0.0, float),
        "wavepacket_sigma_fraction": _take(d, "wavepacket_sigma_fraction", 0.04, float),
        "fdt_threshold": _take(d, "fdt_threshold", 0.3, float),
    }
    # t_points >= 1: F2(0), the first point of the two-point series,
    # rescales the fits; the other counts only feed np.linspace
    for key, least in (("t_points", 1), ("otoc_points", 0), ("omega_points", 0)):
        if out[key] < least:
            raise ValidationError(f"dynamics.{key} must be >= {least}")
    if out["fit_window"] is not None:
        if len(out["fit_window"]) != 2:
            raise ValidationError("dynamics.fit_window must be [lo, hi]")
        out["fit_window"] = [float(x) for x in out["fit_window"]]
    _reject_unknown(d, "dynamics")
    return out


def _sweep_block(raw):
    if raw is None:
        return None
    d = dict(raw)
    grid = dict(_take(d, "grid", kind=dict))
    if not grid:
        raise ValidationError("sweep.grid must be a nonempty mapping")
    for path, values in grid.items():
        if not isinstance(values, list) or not values:
            raise ValidationError(f"sweep.grid[{path!r}] must be a nonempty list")
    out = {"grid": grid, "workers": _take(d, "workers", 1, int)}
    if out["workers"] < 1:
        raise ValidationError("sweep.workers must be >= 1")
    _reject_unknown(d, "sweep")
    return out


class RunConfig:
    """Validated run configuration with canonical dict form."""

    def __init__(self, data):
        self.data = data

    @classmethod
    def from_dict(cls, raw):
        d = dict(raw)
        out = {
            "seed": _take(d, "seed", 0, int),
            "slack": _take(d, "slack", DEFAULT_SLACK, float),
            "out_dir": _take(d, "out_dir", "runs/out", str),
            "model": _model_block(_take(d, "model", kind=dict)),
            "observable": _observable_block(_take(d, "observable", {}, dict)),
            "thermal": _thermal_block(_take(d, "thermal", {}, dict)),
            "code": _code_block(_take(d, "code", {}, dict)),
            "extract": _extract_block(_take(d, "extract", {}, dict)),
            "dynamics": _dynamics_block(_take(d, "dynamics", {}, dict)),
            "sweep": _sweep_block(_take(d, "sweep", None, dict)),
        }
        _reject_unknown(d, "config")
        if (out["model"]["kind"] == "synthetic"
                and out["observable"] != _observable_block({})):
            raise ValidationError(
                "observable applies to Ising models only; a synthetic model "
                "takes its operator from model.envelope and model.diagonal")
        if out["seed"] < 0:
            raise ValidationError("seed must be a nonnegative 64-bit integer")
        return cls(out)

    @classmethod
    def from_file(cls, path):
        with open(path) as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self):
        return copy.deepcopy(self.data)

    def canonical_json(self):
        return json.dumps(self.data, sort_keys=True, separators=(",", ": "),
                          indent=2) + "\n"

    def config_hash(self):
        return hashlib.sha256(self.canonical_json().encode()).hexdigest()

    def override(self, **kwargs):
        """Copy with top-level scalar overrides (seed, slack, out_dir)."""
        d = self.to_dict()
        for key, val in kwargs.items():
            if val is None:
                continue
            if key not in ("seed", "slack", "out_dir"):
                raise ValidationError(f"cannot override {key!r}")
            d[key] = val
        return RunConfig.from_dict(d)

    def with_path_value(self, path, value):
        """Copy with one dotted-path field replaced (sweep expansion).

        When the target is a list and the value a scalar, the whole list is
        replaced by [value], so sweeping e.g. thermal.betas over scalars
        works naturally.
        """
        d = self.to_dict()
        parts = path.split(".")
        node = d
        for p in parts[:-1]:
            if not isinstance(node, dict) or p not in node:
                raise ValidationError(f"sweep path {path!r} does not exist")
            node = node[p]
        leaf = parts[-1]
        if not isinstance(node, dict) or leaf not in node:
            raise ValidationError(f"sweep path {path!r} does not exist")
        if isinstance(node[leaf], list) and not isinstance(value, list):
            node[leaf] = [value]
        else:
            node[leaf] = value
        d["sweep"] = None
        return RunConfig.from_dict(d)


def demo_config(out_dir="runs/demo"):
    """The bundled end-to-end demonstration configuration."""
    return RunConfig.from_dict({
        "seed": 7,
        "out_dir": out_dir,
        "model": {"kind": "ising", "n_sites": 10},
        "observable": {"sites": [0], "paulis": "Z"},
        "thermal": {"betas": [1.0]},
        "code": {"k": 1, "d": 1},
        "dynamics": {"t_max": 6.0, "t_points": 61, "otoc_points": 7,
                     "sigma_omega": 0.08, "omega_points": 201},
    })
