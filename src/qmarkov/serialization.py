"""JSON file formats for states, channels, and block specs.

Matrices are stored as separate real and imaginary parts in row-major nested
lists.  All writers emit sorted keys and a trailing newline so identical
objects produce byte-identical files.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .channels import Channel
from .errors import ValidationError
from .states import DensityOperator, PositiveOperator
from .structured import (
    MarkovBlock,
    MarkovBlockSpec,
    SufficiencyBlock,
    SufficiencyBlockSpec,
)

FORMAT_VERSION = 1


def _matrix_to_obj(matrix: np.ndarray) -> dict:
    m = np.asarray(matrix, dtype=complex)
    return {"re": m.real.tolist(), "im": m.imag.tolist()}


def _matrix_from_obj(obj, what: str) -> np.ndarray:
    try:
        re = np.asarray(obj["re"], dtype=float)
        im = np.asarray(obj["im"], dtype=float)
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError("bad-spec", f"{what}: malformed matrix object") from exc
    if re.shape != im.shape or re.ndim != 2:
        raise ValidationError("bad-spec", f"{what}: re/im shapes disagree or not 2-d")
    if not (np.all(np.isfinite(re)) and np.all(np.isfinite(im))):
        raise ValidationError("not-finite", f"{what}: matrix entries must be finite")
    return re + 1j * im


def _load_json(path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError("bad-spec", f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValidationError("bad-spec", f"{path}: expected a JSON object")
    return obj


def _dump_json(path, obj: dict):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(obj, handle, sort_keys=True)
        handle.write("\n")


def _int_field(value, what: str, path) -> int:
    try:
        return int(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValidationError("bad-spec", f"{path}: {what} must be an integer") from exc


def _expect_kind(obj: dict, kind: str, path):
    if obj.get("kind") != kind:
        raise ValidationError(
            "bad-spec", f"{path}: expected kind {kind!r}, got {obj.get('kind')!r}"
        )


def state_to_dict(state) -> dict:
    out = _matrix_to_obj(state.matrix)
    out.update({"version": FORMAT_VERSION, "kind": "state", "dims": list(state.dims)})
    return out


def save_state(path, state):
    _dump_json(path, state_to_dict(state))


def load_state(path, normalized: bool = True):
    """Load a state file as a DensityOperator (or PositiveOperator).

    ``normalized=False`` skips the unit-trace requirement, which is how
    reference operators (sigma files) are read back.
    """
    obj = _load_json(path)
    _expect_kind(obj, "state", path)
    matrix = _matrix_from_obj(obj, str(path))
    dims = obj.get("dims", [matrix.shape[0]])
    if not isinstance(dims, list):
        raise ValidationError("bad-spec", f"{path}: dims must be a list of integers")
    dims = tuple(_int_field(d, "dims", path) for d in dims)
    if normalized:
        return DensityOperator(matrix, dims)
    return PositiveOperator(matrix, dims)


def channel_to_dict(channel: Channel) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "channel",
        "dim_in": channel.dim_in,
        "dim_out": channel.dim_out,
        "kraus": [_matrix_to_obj(k) for k in channel.kraus],
    }


def save_channel(path, channel: Channel):
    _dump_json(path, channel_to_dict(channel))


def load_channel(path) -> Channel:
    obj = _load_json(path)
    _expect_kind(obj, "channel", path)
    kraus_objs = obj.get("kraus")
    if not isinstance(kraus_objs, list) or not kraus_objs:
        raise ValidationError("bad-spec", f"{path}: channel needs a kraus list")
    ops = tuple(_matrix_from_obj(k, str(path)) for k in kraus_objs)
    return Channel(
        ops,
        dim_in=_int_field(obj.get("dim_in", 0), "dim_in", path),
        dim_out=_int_field(obj.get("dim_out", 0), "dim_out", path),
    )


def markov_spec_to_dict(spec: MarkovBlockSpec) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "markov-spec",
        "dim_a": spec.dim_a,
        "dim_b": spec.dim_b,
        "blocks": [
            {
                "weight": b.weight,
                "dim_cl": b.dim_cl,
                "dim_cr": b.dim_cr,
                "rho_left": _matrix_to_obj(b.rho_left),
                "rho_right": _matrix_to_obj(b.rho_right),
            }
            for b in spec.blocks
        ],
    }


def save_markov_spec(path, spec: MarkovBlockSpec):
    _dump_json(path, markov_spec_to_dict(spec))


def load_markov_spec(path) -> MarkovBlockSpec:
    obj = _load_json(path)
    _expect_kind(obj, "markov-spec", path)
    try:
        blocks = tuple(
            MarkovBlock(
                weight=float(b["weight"]),
                dim_cl=int(b["dim_cl"]),
                dim_cr=int(b["dim_cr"]),
                rho_left=_matrix_from_obj(b["rho_left"], str(path)),
                rho_right=_matrix_from_obj(b["rho_right"], str(path)),
            )
            for b in obj["blocks"]
        )
        return MarkovBlockSpec(
            dim_a=int(obj["dim_a"]), dim_b=int(obj["dim_b"]), blocks=blocks
        )
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-spec", f"{path}: malformed block spec") from exc


def sufficiency_spec_to_dict(spec: SufficiencyBlockSpec) -> dict:
    return {
        "version": FORMAT_VERSION,
        "kind": "sufficiency-spec",
        "blocks": [
            {
                "prob": b.prob,
                "weight": b.weight,
                "rho_left": _matrix_to_obj(b.rho_left),
                "sigma_left": _matrix_to_obj(b.sigma_left),
                "tau_right": _matrix_to_obj(b.tau_right),
                "unitary": _matrix_to_obj(b.unitary),
                "channel_right": channel_to_dict(b.channel_right),
            }
            for b in spec.blocks
        ],
    }


def save_sufficiency_spec(path, spec: SufficiencyBlockSpec):
    _dump_json(path, sufficiency_spec_to_dict(spec))


def load_sufficiency_spec(path) -> SufficiencyBlockSpec:
    obj = _load_json(path)
    _expect_kind(obj, "sufficiency-spec", path)
    try:
        blocks = []
        for b in obj["blocks"]:
            channel_obj = b["channel_right"]
            ops = tuple(
                _matrix_from_obj(k, str(path)) for k in channel_obj["kraus"]
            )
            blocks.append(
                SufficiencyBlock(
                    prob=float(b["prob"]),
                    weight=float(b["weight"]),
                    rho_left=_matrix_from_obj(b["rho_left"], str(path)),
                    sigma_left=_matrix_from_obj(b["sigma_left"], str(path)),
                    tau_right=_matrix_from_obj(b["tau_right"], str(path)),
                    unitary=_matrix_from_obj(b["unitary"], str(path)),
                    channel_right=Channel(ops),
                )
            )
        return SufficiencyBlockSpec(blocks=tuple(blocks))
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-spec", f"{path}: malformed block spec") from exc
