"""JSON file formats for states, channels, and block specs.

Every file is one JSON object with a ``kind`` and a ``version``; the writers
emit version 3.  A matrix part is base64 of row-major little-endian IEEE-754
float64 bytes, so a file holds the exact bits of the matrix and is decoded
without parsing decimal text.  A matrix has one of two layouts:

* Hermitian, ``{"shape": [n, n], "upper_re": b64, "upper_im": b64}``:
  ``upper_re`` holds the n(n+1)/2 real parts of the upper triangle, row by
  row, diagonal included, and ``upper_im`` the n(n-1)/2 imaginary parts of
  the strict upper triangle.  The reader sets the lower triangle to
  (re, 0.0 - im) transposed and the diagonal's imaginary parts to +0.0.
* General, ``{"shape": [rows, cols], "re": b64, "im": b64}``, where ``im``
  is left out when every imaginary part is +0.0 bit for bit, and a missing
  ``im`` reads as +0.0.

The writer encodes the upper triangle, decodes it with the reader's own
function, and keeps the Hermitian layout only if that gives back the exact
bits of the matrix (so -0.0 entries and near-Hermitian matrices are never
rounded into it); otherwise it writes the general layout.  Files of versions
1 and 2 still load, to the same bits as before: a version-2 file holds every
matrix in the general layout with both parts, and a version-1 file, like a
hand-written one, gives ``re`` and ``im`` as row-major nested lists of
numbers; the reader picks the decoding from the keys and types of each
matrix object.  All writers emit sorted keys and a trailing newline so
identical objects produce byte-identical files.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path

import numpy as np

from .channels import Channel
from .errors import DimensionMismatchError, ValidationError
from .linalg import _is_integral
from .states import DensityOperator, PositiveOperator
from .structured import (
    MarkovBlock,
    MarkovBlockSpec,
    SufficiencyBlock,
    SufficiencyBlockSpec,
)

FORMAT_VERSION = 3
READ_VERSIONS = (1, 2, 3)  # a file without a version is read as version 1


def _b64(part: np.ndarray) -> str:
    raw = np.ascontiguousarray(part, dtype="<f8").tobytes()
    return base64.b64encode(raw).decode("ascii")


def _bits(matrix: np.ndarray) -> np.ndarray:
    return np.ascontiguousarray(matrix, dtype=complex).view(np.uint64)


def _hermitian_from_triangle(upper_re: np.ndarray, upper_im: np.ndarray, n: int) -> np.ndarray:
    """The n x n matrix whose upper triangle holds ``upper_re`` (row-major,
    diagonal included) and ``upper_im`` (strict upper triangle): the lower
    triangle is (re, 0.0 - im) transposed, and the diagonal is real (+0.0)."""
    lower = np.tri(n, k=-1, dtype=bool)
    re = np.empty((n, n))
    re[~lower] = upper_re
    im = np.zeros((n, n))
    im[~np.tri(n, dtype=bool)] = upper_im
    matrix = np.empty((n, n), dtype=complex)
    matrix.real = re
    matrix.imag = im
    # masked copies of the transposes, several times faster than a 2-d index scatter
    np.copyto(matrix.real, re.T, where=lower)
    np.subtract(0.0, im.T, out=matrix.imag, where=lower)
    return matrix


def _matrix_to_obj(matrix: np.ndarray) -> dict:
    """The Hermitian layout if it reads back to the exact bits of ``matrix``,
    else the general layout, whose ``im`` is left out when every imaginary
    part is +0.0."""
    m = np.asarray(matrix, dtype=complex)
    if m.ndim == 2 and m.shape[0] == m.shape[1]:
        n = m.shape[0]
        upper_re = m.real[~np.tri(n, k=-1, dtype=bool)]
        upper_im = m.imag[~np.tri(n, dtype=bool)]
        if np.array_equal(_bits(_hermitian_from_triangle(upper_re, upper_im, n)), _bits(m)):
            return {"shape": [n, n], "upper_re": _b64(upper_re), "upper_im": _b64(upper_im)}
    obj = {"shape": list(m.shape), "re": _b64(m.real)}
    if m.imag.view(np.uint64).any():
        obj["im"] = _b64(m.imag)
    return obj


def _payload(value, count: int, what: str) -> np.ndarray:
    """The ``count`` float64 values of a base64 payload, as a 1-d array."""
    if not isinstance(value, str):
        raise ValidationError("bad-spec", f"{what}: matrix payload is not a base64 string")
    try:
        raw = base64.b64decode(value, validate=True)
    except ValueError as exc:
        raise ValidationError("bad-spec", f"{what}: matrix payload is not base64") from exc
    if len(raw) != 8 * count:
        raise ValidationError(
            "bad-spec", f"{what}: {len(raw)} payload bytes do not hold {count} float64 values"
        )
    return np.frombuffer(raw, dtype="<f8")


def _matrix_part(value, shape, what: str) -> np.ndarray:
    if not isinstance(value, str):  # a version-1 nested list
        try:
            return np.asarray(value, dtype=float)
        except (TypeError, ValueError) as exc:
            raise ValidationError("bad-spec", f"{what}: malformed matrix object") from exc
    if shape is None:
        raise ValidationError("bad-spec", f"{what}: a base64 matrix needs a shape")
    return _payload(value, shape[0] * shape[1], what).reshape(shape)


def _check_finite(what: str, *parts: np.ndarray):
    if not all(np.isfinite(part).all() for part in parts):
        raise ValidationError("not-finite", f"{what}: matrix entries must be finite")


def _hermitian_from_obj(obj: dict, shape, what: str) -> np.ndarray:
    if "re" in obj or "im" in obj or "upper_re" not in obj or "upper_im" not in obj:
        raise ValidationError(
            "bad-spec", f"{what}: a Hermitian matrix object holds upper_re and upper_im, "
            "and no re or im"
        )
    if shape is None or shape[0] != shape[1]:
        raise ValidationError(
            "bad-spec", f"{what}: the upper-triangle layout needs a square shape, got {shape}"
        )
    n = shape[0]
    upper_re = _payload(obj["upper_re"], n * (n + 1) // 2, what)
    upper_im = _payload(obj["upper_im"], n * (n - 1) // 2, what)
    _check_finite(what, upper_re, upper_im)
    return _hermitian_from_triangle(upper_re, upper_im, n)


def _matrix_from_obj(obj, what: str) -> np.ndarray:
    if not isinstance(obj, dict):
        raise ValidationError("bad-spec", f"{what}: malformed matrix object")
    shape = obj.get("shape")
    if shape is not None:
        if not isinstance(shape, list) or len(shape) != 2:
            raise ValidationError("bad-spec", f"{what}: shape must be [rows, cols]")
        shape = tuple(_int_field(n, "shape", what) for n in shape)
        if min(shape) < 0:
            raise ValidationError("bad-spec", f"{what}: shape {shape} is negative")
    if "upper_re" in obj or "upper_im" in obj:
        return _hermitian_from_obj(obj, shape, what)
    if "re" not in obj:
        raise ValidationError("bad-spec", f"{what}: malformed matrix object")
    re = _matrix_part(obj["re"], shape, what)
    im = _matrix_part(obj["im"], shape, what) if "im" in obj else np.zeros(re.shape)
    if re.shape != im.shape or re.ndim != 2 or shape not in (None, re.shape):
        raise ValidationError("bad-spec", f"{what}: re/im shapes disagree or not 2-d")
    _check_finite(what, re, im)
    # assigned, not re + 1j * im, which would turn a -0.0 part into +0.0
    matrix = np.empty(re.shape, dtype=complex)
    matrix.real = re
    matrix.imag = im
    return matrix


def _load_json(path, kind: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as handle:
            obj = json.load(handle)
    except json.JSONDecodeError as exc:
        raise ValidationError("bad-spec", f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValidationError("bad-spec", f"{path}: expected a JSON object")
    if obj.get("kind") != kind:
        raise ValidationError(
            "bad-spec", f"{path}: expected kind {kind!r}, got {obj.get('kind')!r}"
        )
    version = obj.get("version", 1)
    if isinstance(version, bool) or version not in READ_VERSIONS:
        raise ValidationError("bad-spec", f"{path}: unsupported format version {version!r}")
    return obj


def _dump_json(path, obj: dict):
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8", newline="\n") as handle:
        json.dump(obj, handle, sort_keys=True)
        handle.write("\n")


def _int_field(value, what: str, path) -> int:
    """A JSON integer, by the one integer test (``linalg._is_integral``): an
    integral float such as 2.0 also counts, a bool does not."""
    if not _is_integral(value):
        raise ValidationError("bad-spec", f"{path}: {what} must be an integer, got {value!r}")
    return int(value)


def _float_field(value, what: str, path) -> float:
    """A JSON number, not a bool; its range is left to the block checks."""
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            pass
    raise ValidationError("bad-spec", f"{path}: {what} must be a number, got {value!r}")


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
    obj = _load_json(path, "state")
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


def _channel_from_obj(obj, path) -> Channel:
    kraus_objs = obj.get("kraus") if isinstance(obj, dict) else None
    if not isinstance(kraus_objs, list) or not kraus_objs:
        raise ValidationError("bad-spec", f"{path}: channel needs a kraus list")
    channel = Channel(tuple(_matrix_from_obj(k, str(path)) for k in kraus_objs))
    for name in ("dim_in", "dim_out"):  # optional, but a declared one must match
        if name in obj and _int_field(obj[name], name, path) != getattr(channel, name):
            raise DimensionMismatchError(f"{path}: declared {name} {obj[name]!r} but the "
                                         f"Kraus operators give {getattr(channel, name)}")
    return channel


def load_channel(path) -> Channel:
    return _channel_from_obj(_load_json(path, "channel"), path)


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
    obj = _load_json(path, "markov-spec")
    # KeyError/TypeError mean a missing field or a wrong container; the
    # ValidationErrors of the field parsers and block checks pass through
    try:
        blocks = tuple(
            MarkovBlock(
                weight=_float_field(b["weight"], "weight", path),
                dim_cl=_int_field(b["dim_cl"], "dim_cl", path),
                dim_cr=_int_field(b["dim_cr"], "dim_cr", path),
                rho_left=_matrix_from_obj(b["rho_left"], str(path)),
                rho_right=_matrix_from_obj(b["rho_right"], str(path)),
            )
            for b in obj["blocks"]
        )
        return MarkovBlockSpec(
            dim_a=_int_field(obj["dim_a"], "dim_a", path),
            dim_b=_int_field(obj["dim_b"], "dim_b", path),
            blocks=blocks,
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
    obj = _load_json(path, "sufficiency-spec")
    # as in load_markov_spec, only KeyError/TypeError are re-raised as bad-spec
    try:
        blocks = tuple(
            SufficiencyBlock(
                prob=_float_field(b["prob"], "prob", path),
                weight=_float_field(b["weight"], "weight", path),
                rho_left=_matrix_from_obj(b["rho_left"], str(path)),
                sigma_left=_matrix_from_obj(b["sigma_left"], str(path)),
                tau_right=_matrix_from_obj(b["tau_right"], str(path)),
                unitary=_matrix_from_obj(b["unitary"], str(path)),
                channel_right=_channel_from_obj(b["channel_right"], path),
            )
            for b in obj["blocks"]
        )
        return SufficiencyBlockSpec(blocks=blocks)
    except (KeyError, TypeError) as exc:
        raise ValidationError("bad-spec", f"{path}: malformed block spec") from exc
