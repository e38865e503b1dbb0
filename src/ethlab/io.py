"""Fixture and report serialization.

Binary array container (extension ``.ethb``), little-endian throughout:

    offset  size  field
    0       4     magic  b"ETHB"
    4       2     format version, uint16 (currently 1)
    6       1     kind: 1 = matrix, 2 = vector
    7       1     dtype: 1 = float64, 2 = complex128
    8       8     nrows, uint64
    16      8     ncols, uint64 (1 for vectors)
    24      ...   payload, row-major

The format is bit-exact across platforms; synthetic fixtures additionally
pin the random-stream scheme documented in :mod:`ethlab.synth`.

CSV files use 17 significant digits, '.' decimal separator and '\\n' line
endings so golden files compare byte for byte. JSON reports are written
with sorted keys and a fixed separator/indent style for the same reason.
:func:`dump_json` is the one codec for stage reports: a dataclass is written
as its fields and a numpy array as its nested list, except that a complex
array under key ``x`` is written as ``x_re`` and ``x_im``, its real and
imaginary parts. :func:`load_record` is its inverse for a dataclass: each
field is read from its key, a complex one from ``_re`` and ``_im``, an
ndarray field becomes an array and a tuple field a tuple, and keys that are
no field are ignored. So no report carries hand-written ``to_dict`` or
``from_dict`` methods.
"""

import dataclasses
import hashlib
import json
import struct

import numpy as np

from .errors import ValidationError

MAGIC = b"ETHB"
FORMAT_VERSION = 1
_KIND = {"matrix": 1, "vector": 2}
_KIND_BACK = {v: k for k, v in _KIND.items()}
_DTYPE = {np.dtype(np.float64): 1, np.dtype(np.complex128): 2}
_DTYPE_BACK = {1: np.dtype(np.float64), 2: np.dtype(np.complex128)}


def write_array(path, arr):
    """Write a float64/complex128 vector or square matrix to the container."""
    arr = np.asarray(arr)
    if arr.dtype not in _DTYPE:
        if np.iscomplexobj(arr):
            arr = arr.astype(np.complex128)
        else:
            arr = arr.astype(np.float64)
    if arr.ndim == 1:
        kind, nrows, ncols = _KIND["vector"], arr.shape[0], 1
    elif arr.ndim == 2:
        kind, (nrows, ncols) = _KIND["matrix"], arr.shape
    else:
        raise ValidationError("only vectors and matrices are supported")
    header = MAGIC + struct.pack("<HBBQQ", FORMAT_VERSION, kind,
                                 _DTYPE[arr.dtype], nrows, ncols)
    # a no-op for a C-ordered little-endian array; one copy otherwise
    payload = np.ascontiguousarray(arr, dtype=arr.dtype.newbyteorder("<"))
    with open(path, "wb") as fh:
        fh.write(header)
        payload.tofile(fh)


def read_array(path):
    """Read a container file back into a numpy array."""
    with open(path, "rb") as fh:
        head = fh.read(24)
        if len(head) != 24 or head[:4] != MAGIC:
            raise ValidationError(f"{path}: not an array container")
        version, kind, dtype_code, nrows, ncols = struct.unpack("<HBBQQ", head[4:])
        if version != FORMAT_VERSION:
            raise ValidationError(f"{path}: unsupported format version {version}")
        if kind not in _KIND_BACK or dtype_code not in _DTYPE_BACK:
            raise ValidationError(f"{path}: corrupt header")
        dtype = _DTYPE_BACK[dtype_code]
        count = nrows * ncols
        data = np.fromfile(fh, dtype=dtype.newbyteorder("<"), count=count)
        if data.size != count:
            raise ValidationError(f"{path}: truncated payload")
    data = data.astype(dtype, copy=False)
    if _KIND_BACK[kind] == "vector":
        return data
    return data.reshape(nrows, ncols)


def format_number(x):
    """Canonical numeric formatting: 17 significant digits; a str passes."""
    if isinstance(x, str):
        return x
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    return f"{float(x):.17g}"


def write_csv(path, header, columns):
    """Write columns (sequences of equal length) under a header row."""
    columns = [np.asarray(c) for c in columns]
    if len(columns) != len(header):
        raise ValidationError("one header entry per column required")
    n = columns[0].shape[0] if columns else 0
    if any(c.shape[0] != n for c in columns):
        raise ValidationError("columns must have equal length")
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        for i in range(n):
            fh.write(",".join(format_number(c[i]) for c in columns) + "\n")


def read_csv(path):
    """Read a CSV written by :func:`write_csv` into (header, column arrays)."""
    with open(path, "r", newline="") as fh:
        lines = [ln.rstrip("\n") for ln in fh if ln.strip()]
    header = lines[0].split(",")
    rows = [ln.split(",") for ln in lines[1:]]
    cols = [np.array([float(r[j]) for r in rows]) for j in range(len(header))]
    return header, cols


def _sanitize(obj):
    """Map non-finite floats to None so emitted JSON stays standard.

    A dataclass instance becomes a dict of its fields (read with getattr,
    not deep-copied) and an ndarray ``.tolist()``, a complex one under key
    ``x`` as ``x_re`` and ``x_im``; all are then sanitized recursively.
    """
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        obj = {f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return _sanitize(obj.tolist())
    if isinstance(obj, dict):
        out = {}
        for k, v in obj.items():
            if isinstance(v, np.ndarray) and np.iscomplexobj(v):
                out[k + "_re"], out[k + "_im"] = _sanitize(v.real), _sanitize(v.imag)
            else:
                out[k] = _sanitize(v)
        return out
    if isinstance(obj, (list, tuple)):
        return [_sanitize(v) for v in obj]
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return x if np.isfinite(x) else None
    if isinstance(obj, (np.integer, np.bool_)):
        return obj.item()
    return obj


def dump_json(path, obj):
    """Deterministic JSON: sorted keys, fixed indent, trailing newline.

    Dataclasses are written as their fields and ndarrays as nested lists.
    Non-finite floats become null; readers treat null as "unavailable".
    """
    text = json.dumps(_sanitize(obj), sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


_FIELD_TYPES = {np.ndarray: np.array, tuple: tuple}


def load_record(cls, data):
    """The dataclass ``cls`` from ``data``, a dict that :func:`dump_json`
    wrote: the inverse of the codec (module docstring)."""
    def value(name):
        if name in data:
            return data[name]
        return np.array(data[name + "_re"]) + 1j * np.array(data[name + "_im"])

    return cls(**{f.name: _FIELD_TYPES.get(f.type, lambda v: v)(value(f.name))
                  for f in dataclasses.fields(cls)})


def file_sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()
