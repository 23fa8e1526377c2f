"""Scenario files and canonical JSON output.

A scenario is a JSON object with keys ``dims``, ``state``, ``x_pvm`` and
``z_pvm``; complex matrices are nested lists of ``[re, im]`` pairs.  Floats
are always written with 17 significant digits so that serialization round
trips bit-exactly.
"""

from __future__ import annotations

import json
import math

import numpy as np

from .states import DensityOperator, InvalidStateError, Pvm, _measured_position


def encode_matrix(m: np.ndarray) -> list:
    m = np.asarray(m, dtype=complex)
    return [[[float(v.real), float(v.imag)] for v in row] for row in m]


def decode_matrix(data) -> np.ndarray:
    """Rows of ``[re, im]`` entries, each a list of exactly two numbers."""
    try:
        rows = [[_decode_entry(entry) for entry in row] for row in data]
    except TypeError as exc:
        raise InvalidStateError(f"malformed complex matrix: {exc}") from exc
    return np.array(rows, dtype=complex)


def _decode_entry(entry) -> complex:
    if type(entry) is list and len(entry) == 2 and {type(v) for v in entry} <= {int, float}:
        return complex(entry[0], entry[1])
    raise InvalidStateError(f"malformed complex matrix: entry {entry!r} is not [re, im]")


def _default_labels(n: int) -> tuple[str, ...]:
    if n == 1:
        return ("A",)
    if n == 2:
        return ("A", "B")
    return ("A",) + tuple(f"B{i}" for i in range(n - 1))


def scenario_to_dict(rho: DensityOperator, x_pvm: Pvm, z_pvm: Pvm) -> dict:
    return {
        "dims": list(rho.dims),
        "state": encode_matrix(rho.matrix),
        "x_pvm": [encode_matrix(p) for p in x_pvm.projectors],
        "z_pvm": [encode_matrix(p) for p in z_pvm.projectors],
    }


def scenario_from_dict(data: dict) -> tuple[DensityOperator, Pvm, Pvm]:
    """Decode and validate a scenario; subsystem 0 is the measured one."""
    for key in ("dims", "state", "x_pvm", "z_pvm"):
        if key not in data:
            raise InvalidStateError(f"scenario is missing required key {key!r}")
    dims = data["dims"]
    if not (isinstance(dims, list) and dims and all(type(d) is int and d > 0 for d in dims)):
        raise InvalidStateError(f"scenario dims must be a list of positive integers, got {dims!r}")
    for key in ("x_pvm", "z_pvm"):
        if not isinstance(data[key], list):
            raise InvalidStateError(f"scenario {key} must be a list of projector matrices")
    rho = DensityOperator(decode_matrix(data["state"]), dims, _default_labels(len(dims)))
    x_pvm = Pvm(tuple(decode_matrix(p) for p in data["x_pvm"]))
    z_pvm = Pvm(tuple(decode_matrix(p) for p in data["z_pvm"]))
    _measured_position(rho, rho.labels[0], x_pvm, z_pvm)
    return rho, x_pvm, z_pvm


def save_scenario(path, rho: DensityOperator, x_pvm: Pvm, z_pvm: Pvm) -> None:
    with open(path, "w") as fh:
        fh.write(canonical_json(scenario_to_dict(rho, x_pvm, z_pvm)))
        fh.write("\n")


def load_scenario(path) -> tuple[DensityOperator, Pvm, Pvm]:
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict):
        raise InvalidStateError("scenario file must contain a JSON object")
    return scenario_from_dict(data)


def _format_float(x: float) -> str:
    if math.isnan(x):
        return '"nan"'
    if math.isinf(x):
        return '"inf"' if x > 0 else '"-inf"'
    s = format(x, ".17g")
    # keep a decimal point so json.load returns a float ("-0" would parse
    # as int and drop the sign of zero)
    if "." not in s and "e" not in s and "E" not in s:
        s += ".0"
    return s


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, 17-significant-digit floats, two-space indent."""
    pieces: list[str] = []
    _write_json(obj, pieces, 0)
    return "".join(pieces)


def _write_json(obj, out: list[str], level: int) -> None:
    pad, pad_in = "  " * level, "  " * (level + 1)
    if obj is None or isinstance(obj, bool):
        out.append(json.dumps(obj))
    elif isinstance(obj, (int, np.integer)) and not isinstance(obj, bool):
        out.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        out.append(_format_float(float(obj)))
    elif isinstance(obj, str):
        out.append(json.dumps(obj))
    elif isinstance(obj, dict):
        for k in obj:
            if not isinstance(k, str):
                raise TypeError(f"cannot serialize the key {k!r}: keys must be str")
        keys = sorted(obj)
        if not keys:
            out.append("{}")
            return
        out.append("{\n")
        for i, k in enumerate(keys):
            out.append(f"{pad_in}{json.dumps(k)}: ")
            _write_json(obj[k], out, level + 1)
            out.append(",\n" if i < len(keys) - 1 else "\n")
        out.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        items = list(obj)
        if not items:
            out.append("[]")
            return
        # short numeric rows stay on one line for readability
        if all(isinstance(v, (int, float, np.integer, np.floating)) and
               not isinstance(v, bool) for v in items) and len(items) <= 8:
            out.append("[")
            for i, v in enumerate(items):
                _write_json(v, out, 0)
                if i < len(items) - 1:
                    out.append(", ")
            out.append("]")
            return
        out.append("[\n")
        for i, v in enumerate(items):
            out.append(pad_in)
            _write_json(v, out, level + 1)
            out.append(",\n" if i < len(items) - 1 else "\n")
        out.append(pad + "]")
    else:
        raise TypeError(f"cannot serialize {type(obj).__name__}")
