"""Run configuration: strict schema, canonical serialization, hashing.

Configs are JSON objects checked against ``SCHEMA``, where each key maps to
one of:

- ``(default, type)`` or ``(default, type, rule)``: a value. ``REQUIRED``
  as the default makes the key mandatory. A float key also takes an int
  and must be finite (no NaN or Infinity), and it loads -0.0 as 0.0; no
  number key takes a bool. A rule is a tuple of allowed values or the
  least allowed integer.
- a nested dict: a block. A missing block takes all of its defaults. A
  block whose ``kind`` maps to sub-schemas (``model``) takes the remaining
  keys of the sub-schema its kind names.
- ``(None, {...})``: a block that may be absent or null (``sweep``).

A value may be null only where its default is null. Unknown keys are
rejected at every level, so a typo cannot silently fall back to a default,
and every error names the dotted key. The few rules a table cannot state
are checked in ``RunConfig.from_dict``, among them that ``slack`` and three
widths are > 0, that a ``dynamics.fit_window`` needs an OTOC point, and that
each ``sweep.grid`` path names a config key, not a list entry, and each of
its values is a number (or bool) or a string: it names a point.

``RunConfig.from_dict`` then ``to_dict`` round-trips identically (defaults
are materialized on parse), the config hash is the sha256 of the canonical
JSON text, and ``RunConfig.with_path_value`` is the one way to change a
config. ``_locate`` is the one walker of dotted paths, where a number
indexes a list.
"""

import copy
import hashlib
import json
import math

from .aqec import DEFAULT_SLACK
from .errors import ValidationError
from .synth import DOS_SHAPES, ENVELOPE_FORMS, EnvelopeSpec

REQUIRED = object()

SCHEMA = {
    "seed": (0, int), "slack": (DEFAULT_SLACK, float), "out_dir": ("runs/out", str),
    "model": {"kind": {
        "ising": {"n_sites": (REQUIRED, int), "j": (1.0, float), "hx": (0.9045, float),
                  "hz": (0.8090, float), "boundary": ("open", str, ("open", "periodic"))},
        "synthetic": {
            "dim": (REQUIRED, int), "dos_shape": ("flat", str, DOS_SHAPES),
            "bandwidth": (4.0, float),
            "envelope": {"form": ("exp_decay", str, ENVELOPE_FORMS),
                         "gamma": (0.25, float, 0), "f0": (1.0, float),
                         "table": (None, list)},
            "diagonal": {"kind": ("zero", str, ("zero", "constant", "tanh")),
                         "value": (0.0, float), "scale": (1.0, float)},
            "entropy": {"kind": ("log_dim", str, ("log_dim", "smoothed")),
                        "sigma_s": (None, float)},
        },
    }},
    "observable": {"sites": ([0], list), "paulis": ("Z", str),
                   "traceless_shift": (False, bool)},
    "thermal": {"betas": ([1.0], list)},
    "code": {"k": (1, int, 0), "d": (1, int, 0), "window_center": ("dos_peak", object),
             "window_half_width_fraction": (0.05, float),
             "selection": ("nearest", str, ("nearest", "random"))},
    "extract": {"e_bins": (8, int, 1), "omega_bins": (48, int, 2), "min_count": (50, int, 1),
                "fit_window": (None, list), "profile_bandwidth": (None, float),
                "sigma_s": (None, float)},
    # t_points >= 1: F2(0), the first point of the two-point series, rescales
    # the fits; the other counts only feed np.linspace
    "dynamics": {"t_max": (6.0, float), "t_points": (61, int, 1),
                 "otoc_points": (9, int, 0), "sigma_omega": (0.05, float),
                 "omega_points": (241, int, 0), "omega_max": (None, float),
                 "fit_window": (None, list), "eps_reg": (0.0, float),
                 "wavepacket_sigma_fraction": (0.04, float),
                 "fdt_threshold": (0.3, float)},
    "sweep": (None, {"grid": (REQUIRED, dict), "workers": (1, int, 1)}),
}


def _walk(raw, schema, where=""):
    """``raw`` checked against the block ``schema``, defaults filled in."""
    if not isinstance(raw, dict):
        raise ValidationError(f"{where or 'config'} must be an object, "
                              f"got {type(raw).__name__}")
    kinds = schema.get("kind")
    if isinstance(kinds, dict):  # the block's kind picks the rest of its keys
        kind = _value(f"{where}.kind", raw.get("kind", REQUIRED),
                      REQUIRED, str, tuple(kinds))
        schema = {"kind": (kind, str), **kinds[kind]}
    out = {}
    for key, spec in schema.items():
        path = f"{where}.{key}" if where else key
        if isinstance(spec, dict):
            out[key] = _walk(raw.get(key, {}), spec, path)
        else:
            out[key] = _value(path, raw.get(key, spec[0]), *spec)
    unknown = sorted(set(raw) - set(schema))
    if unknown:
        raise ValidationError(f"unknown config keys in {where or 'config'}: {unknown}")
    return out


def _locate(d, path):
    """(node, key): the dict or list of ``d`` holding the entry at the dotted
    ``path`` (a number indexes a list) and its key there; else raises."""
    node = d
    for part in path.split("."):
        parent = node
        if isinstance(parent, list) and part.isdigit() and int(part) < len(parent):
            part = int(part)
        elif not isinstance(parent, dict) or part not in parent:
            raise ValidationError(f"config path {path!r} does not exist")
        node = parent[part]
    return parent, part


def _value(path, val, default, kind, rule=None):
    """``val``, found at ``path`` or defaulted, checked against its entry."""
    if val is REQUIRED:
        raise ValidationError(f"missing required config key {path!r}")
    if val is None:
        if default is not None:
            raise ValidationError(f"config key {path!r} must not be null")
        return None
    if isinstance(kind, dict):
        return _walk(val, kind, path)
    if (isinstance(val, bool) and kind in (int, float)
            or not isinstance(val, (int, float) if kind is float else kind)):
        raise ValidationError(f"config key {path!r} must be {kind.__name__}, "
                              f"got {type(val).__name__}")
    if kind is float:
        try:
            val = float(val)
        except OverflowError:    # an int beyond the float range
            val = math.inf
        val += 0.0    # -0.0 becomes 0.0, so equal values write equal text
        if not math.isfinite(val):
            raise ValidationError(f"config key {path!r} must be finite, got {val!r}")
    if isinstance(rule, tuple) and val not in rule:
        raise ValidationError(f"config key {path!r} must be one of {rule}, got {val!r}")
    if isinstance(rule, int) and val < rule:
        raise ValidationError(f"config key {path!r} must be >= {rule}, got {val}")
    return copy.deepcopy(val) if isinstance(val, (list, dict)) else val


class RunConfig:
    """Validated run configuration with canonical dict form."""

    def __init__(self, data):
        self.data = data

    @classmethod
    def from_dict(cls, raw):
        d = _walk(raw, SCHEMA)
        if not 0 <= d["seed"] < 2**64:
            raise ValidationError("seed must be a nonnegative 64-bit integer")
        for path in ("slack", "code.window_half_width_fraction",
                     "dynamics.sigma_omega", "dynamics.wavepacket_sigma_fraction"):
            node, key = _locate(d, path)
            if node[key] <= 0:
                raise ValidationError(f"config key {path!r} must be > 0, got {node[key]!r}")
        center = d["code"]["window_center"]
        if center != "dos_peak":
            if isinstance(center, bool) or not isinstance(center, (int, float)):
                raise ValidationError("code.window_center must be 'dos_peak' or a number")
            d["code"]["window_center"] = _value("code.window_center", center, 0.0, float)
        betas = d["thermal"]["betas"] = [_value(f"thermal.betas.{i}", x, 0.0, float, 0)
                                         for i, x in enumerate(d["thermal"]["betas"])]
        if not betas:
            raise ValidationError("thermal.betas must be nonempty")
        for i, beta in enumerate(betas):
            if beta in betas[:i]:
                raise ValidationError(f"config key 'thermal.betas.{i}' repeats {beta!r}")
        for block in ("extract", "dynamics"):
            window = d[block]["fit_window"]
            if window is not None:
                if len(window) != 2:
                    raise ValidationError(f"{block}.fit_window must be [lo, hi]")
                d[block]["fit_window"] = [_value(f"{block}.fit_window.{i}", x, 0.0, float)
                                          for i, x in enumerate(window)]
        if d["dynamics"]["fit_window"] is not None and d["dynamics"]["otoc_points"] == 0:
            raise ValidationError("dynamics.fit_window needs an OTOC to fit: "
                                  "dynamics.otoc_points must be >= 1")
        if d["sweep"] is not None:
            if not d["sweep"]["grid"]:
                raise ValidationError("sweep.grid must be a nonempty mapping")
            for path, values in d["sweep"]["grid"].items():
                if isinstance(_locate(d, path)[0], list):
                    raise ValidationError(f"config path {path!r} does not exist "
                                          "as a sweep key: it indexes a list")
                if not isinstance(values, list) or not values:
                    raise ValidationError(f"sweep.grid[{path!r}] must be a nonempty list")
                for i, v in enumerate(values):
                    if not isinstance(v, (int, float, str)):
                        raise ValidationError(f"sweep.grid[{path!r}][{i}] must be a number "
                                              f"or a string, got {type(v).__name__}")
        envelope = d["model"].get("envelope")    # None for an Ising model
        if envelope and (envelope["form"] == "table" or envelope["table"] is not None):
            try:
                EnvelopeSpec(form="table", table=envelope["table"])
            except ValidationError as exc:
                raise ValidationError(f"config key 'model.envelope.table': {exc}") from None
        if (d["model"]["kind"] == "synthetic" and d["observable"]
                != {key: spec[0] for key, spec in SCHEMA["observable"].items()}):
            raise ValidationError(
                "observable applies to Ising models only; a synthetic model "
                "takes its operator from model.envelope and model.diagonal")
        return cls(d)

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

    def value_at(self, path):
        """The value at the dotted ``path``; a number indexes a list."""
        node, key = _locate(self.data, path)
        return node[key]

    def with_path_value(self, path, value):
        """Copy with the field at the dotted ``path`` replaced, validated again.

        When the target is a list and the value a scalar, the whole list is
        replaced by [value], so sweeping e.g. thermal.betas over scalars
        works naturally.
        """
        d = self.to_dict()
        node, leaf = _locate(d, path)
        if isinstance(node[leaf], list) and not isinstance(value, list):
            value = [value]
        node[leaf] = value
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
