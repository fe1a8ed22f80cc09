import base64
import contextlib
import io
import json
import math
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from qmarkov.channels import random_strict_channel, random_unitary
from qmarkov.cli import MAX_GRID_ORDERS, _format_value, _parse_grid, build_parser, main
from qmarkov.linalg import kron
from qmarkov.measures import (
    TripartiteState,
    cmi_as_triple,
    renyi_cmi,
    renyi_rel_ent_diff,
    sandwiched_rel_ent_diff,
)
from qmarkov.serialization import (
    load_channel,
    load_state,
    save_channel,
    save_markov_spec,
    save_state,
    save_sufficiency_spec,
)
from qmarkov.states import DensityOperator, PositiveOperator, perturb_positive, random_density
from qmarkov.structured import (
    ChannelTriple,
    is_markov_petz,
    is_sufficient_petz,
    random_markov_spec,
    random_sufficiency_spec,
)
from simple_channels import amplitude_damping_triple


@pytest.fixture
def correlated_state_file(tmp_path):
    ab = np.zeros((4, 4))
    ab[0, 0] = ab[3, 3] = 0.5
    rho = DensityOperator(kron(ab, np.diag([1.0, 0.0])), (2, 2, 2))
    path = tmp_path / "corr.json"
    save_state(path, rho)
    return str(path)


@pytest.fixture
def product_state_file(tmp_path):
    parts = [random_density((2,), seed=k).matrix for k in range(3)]
    rho = DensityOperator(kron(kron(parts[0], parts[1]), parts[2]), (2, 2, 2))
    path = tmp_path / "prod.json"
    save_state(path, rho)
    return str(path)


@pytest.fixture
def identity_triple_files(tmp_path):
    rho = random_density((3,), seed=1)
    save_state(tmp_path / "rho.json", rho)
    save_state(tmp_path / "sigma.json", random_density((3,), seed=2))
    from qmarkov.serialization import save_channel
    from simple_channels import identity_channel

    save_channel(tmp_path / "chan.json", identity_channel(3))
    return {
        "rho": str(tmp_path / "rho.json"),
        "sigma": str(tmp_path / "sigma.json"),
        "channel": str(tmp_path / "chan.json"),
    }


class TestCompute:
    def test_cmi_correlated(self, correlated_state_file, capsys):
        code = main(["compute", "--measure", "cmi", "--state", correlated_state_file])
        assert code == 0
        assert capsys.readouterr().out == "1.000000000000\n"

    def test_renyi_cmi_product(self, product_state_file, capsys):
        code = main(
            ["compute", "--measure", "renyi-cmi", "--alpha", "1.5",
             "--state", product_state_file]
        )
        assert code == 0
        assert capsys.readouterr().out == "0.000000000000\n"

    def test_delta_identity(self, identity_triple_files, capsys):
        code = main(
            ["compute", "--measure", "delta", "--alpha", "1.5",
             "--rho", identity_triple_files["rho"],
             "--sigma", identity_triple_files["sigma"],
             "--channel", identity_triple_files["channel"]]
        )
        assert code == 0
        assert capsys.readouterr().out == "0.000000000000\n"

    def test_value_matches_library(self, correlated_state_file, capsys):
        main(["compute", "--measure", "renyi-cmi", "--alpha", "0.75",
              "--state", correlated_state_file])
        printed = capsys.readouterr().out.strip()
        state = TripartiteState(load_state(correlated_state_file))
        assert printed == f"{renyi_cmi(state, 0.75, strict=False):.12f}"

    def test_nats_rescale(self, correlated_state_file, capsys):
        main(["compute", "--measure", "cmi", "--state", correlated_state_file, "--nats"])
        assert capsys.readouterr().out.strip() == f"{np.log(2.0):.12f}"

    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.json"
        path.write_text("{")
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 2

    def test_missing_file(self):
        assert main(["compute", "--measure", "cmi", "--state", "/nonexistent.json"]) == 2

    def test_uncertified_alpha(self, identity_triple_files):
        args = ["compute", "--measure", "delta", "--alpha", "3.0",
                "--rho", identity_triple_files["rho"],
                "--sigma", identity_triple_files["sigma"],
                "--channel", identity_triple_files["channel"]]
        assert main(args) == 2
        assert main(args + ["--allow-uncertified"]) == 0

    def test_alpha_one_rejected(self, correlated_state_file):
        assert main(["compute", "--measure", "renyi-cmi", "--alpha", "1.0",
                     "--state", correlated_state_file]) == 2

    def test_missing_alpha(self, correlated_state_file):
        assert main(["compute", "--measure", "renyi-cmi",
                     "--state", correlated_state_file]) == 2

    def test_wrong_dims_for_cmi(self, tmp_path):
        save_state(tmp_path / "flat.json", random_density((4,), seed=0))
        assert main(["compute", "--measure", "cmi",
                     "--state", str(tmp_path / "flat.json")]) == 2


def _triple_args(prefix):
    return ["--rho", f"{prefix}.rho.json", "--sigma", f"{prefix}.sigma.json",
            "--channel", f"{prefix}.channel.json"]


def _save_triple(prefix, triple):
    save_state(f"{prefix}.rho.json", triple.rho)
    save_state(f"{prefix}.sigma.json", triple.sigma)
    save_channel(f"{prefix}.channel.json", triple.channel)


# compute output on fixed inputs, pinned so that refactoring cannot move a
# printed digit: "state" is random_density((2,2,2), seed=7), "cmi" its
# cmi_as_triple files, "4to3" a seeded triple through a 4 -> 3 channel
GOLDEN = [
    ("state", "cmi", None, 0.341575478449),
    ("state", "renyi-cmi", "0.5", 0.195147899467),
    ("state", "renyi-cmi", "1.5", 0.482126627935),
    ("state", "sand-cmi", "0.75", 0.265764233942),
    ("state", "sand-cmi", "2.0", 0.548162669539),
    ("state", "imax", None, 1.296416876225),
    ("state", "imin", None, 0.173830770929),
    ("cmi", "red", None, 0.341575478449),
    ("cmi", "delta", "0.5", 0.195147899467),
    ("cmi", "delta", "1.5", 0.482126627935),
    ("cmi", "delta-tilde", "0.75", 0.265764233942),
    ("cmi", "delta-tilde", "2.0", 0.548162669539),
    ("cmi", "delta-min", None, 0.173830770929),
    ("cmi", "delta-max", None, 1.296416876225),
    ("4to3", "red", None, 3.023040576509),
    ("4to3", "delta", "0.5", 1.322561930686),
    ("4to3", "delta", "1.5", 4.772553958783),
    ("4to3", "delta-tilde", "0.75", 2.056898548491),
    ("4to3", "delta-tilde", "2.0", 5.285996439217),
    ("4to3", "delta-min", None, 1.089989768801),
    ("4to3", "delta-max", None, 6.436139751767),
]


@pytest.fixture(scope="module")
def golden_inputs(tmp_path_factory):
    d = tmp_path_factory.mktemp("golden")
    state = random_density((2, 2, 2), seed=7)
    save_state(d / "state.json", state)
    _save_triple(d / "cmi", cmi_as_triple(TripartiteState(state)))
    _save_triple(d / "4to3", ChannelTriple(
        rho=random_density((4,), seed=11),
        sigma=random_density((4,), seed=12),
        channel=random_strict_channel(4, 3, seed=13),
    ))
    return {
        "state": ["--state", str(d / "state.json")],
        "cmi": _triple_args(d / "cmi"),
        "4to3": _triple_args(d / "4to3"),
    }


@pytest.mark.parametrize("inputs,measure,alpha,expected", GOLDEN)
def test_golden_value(golden_inputs, capsys, inputs, measure, alpha, expected):
    argv = ["compute", "--measure", measure] + golden_inputs[inputs]
    if alpha is not None:
        argv += ["--alpha", alpha]
    assert main(argv) == 0
    assert float(capsys.readouterr().out) == pytest.approx(expected, abs=1e-12)


class TestMarkovChain:
    """The CMI triple of a rank-deficient Markov chain (rho_AC has a 1e-7
    eigenvalue): its Renyi differences are zero, and a dense bracket made
    them -0.0200 at alpha = 3 and -2.8e-11 at alpha = 1.75."""

    @pytest.fixture
    def chain_files(self, tmp_path):
        u = random_unitary(2, seed=1)
        rho_a = u @ np.diag([1.0 - 1e-7, 1e-7]) @ u.conj().T
        rho_c = random_density((2,), seed=3).matrix
        state = TripartiteState(DensityOperator(
            kron(kron(rho_a, np.diag([1.0, 0.0])), rho_c), (2, 2, 2)))
        save_state(tmp_path / "state.json", state.rho)
        _save_triple(tmp_path / "t", cmi_as_triple(state))
        return {"state": ["--state", str(tmp_path / "state.json")],
                "triple": _triple_args(tmp_path / "t")}

    def test_uncertified_order_is_zero(self, chain_files, capsys):
        argv = ["compute", "--measure", "delta", "--alpha", "3", "--allow-uncertified"]
        assert main(argv + chain_files["triple"]) == 0
        assert abs(float(capsys.readouterr().out)) <= 1e-9

    @pytest.mark.parametrize("measure, inputs", [("delta", "triple"), ("renyi-cmi", "state")])
    def test_certified_order_prints_zero(self, chain_files, capsys, measure, inputs):
        argv = ["compute", "--measure", measure, "--alpha", "1.75"] + chain_files[inputs]
        assert main(argv) == 0
        assert capsys.readouterr().out == "0.000000000000\n"


class TestEdgeInputs:
    def test_validated_round_off_is_evaluable(self, tmp_path, capsys):
        # load_state accepts the eigenvalue -5e-11; every measure treats it as
        # zero, so the values match those of the state with the zero restored
        u = random_unitary(8, seed=1)
        for name, tail in (("neg", -5e-11), ("zero", 0.0)):
            m = u @ np.diag([0.5, 0.3, 0.2, 0.0, 0.0, 0.0, 0.0, tail]) @ u.conj().T
            save_state(tmp_path / f"{name}.json", DensityOperator(m, (2, 2, 2)))
        for args in (["cmi"], ["imax"], ["renyi-cmi", "--alpha", "0.5"],
                     ["sand-cmi", "--alpha", "0.75"]):
            values = []
            for name in ("neg", "zero"):
                code = main(["compute", "--state", str(tmp_path / f"{name}.json"),
                             "--measure"] + args)
                assert code == 0
                values.append(float(capsys.readouterr().out))
            assert values[0] == pytest.approx(values[1], abs=1e-8)

    # compute output on amplitude_damping_triple(3e-12), where the support
    # cutoff keeps sigma's small eigenvalue and its image in N(sigma)
    KEPT_TAIL = [
        (["red"], "23.409084139258\n"),
        (["delta", "--alpha", "0.5"], "2.643850383045\n"),
        (["delta", "--alpha", "1.5"], "37.541211624534\n"),
        (["delta-tilde", "--alpha", "0.75"], "3.964994628064\n"),
        (["delta-tilde", "--alpha", "2.0"], "37.541211624534\n"),
        (["delta-min"], "1.321928094883\n"),
        (["delta-max"], "1.321928094883\n"),
    ]

    @pytest.mark.parametrize("args", [args for args, _ in KEPT_TAIL],
                             ids=[" ".join(args) for args, _ in KEPT_TAIL])
    def test_output_support_dropped_by_the_cutoff_exits_two(self, tmp_path, capsys, args):
        # at 2e-12 the cutoff keeps sigma's small eigenvalue but drops its
        # image in N(sigma), where N(rho) has weight 0.4
        _save_triple(tmp_path / "t", amplitude_damping_triple(2e-12))
        assert main(["compute", "--measure"] + args + _triple_args(tmp_path / "t")) == 2
        captured = capsys.readouterr()
        lines = captured.err.splitlines()
        assert captured.out == "" and len(lines) == 1
        assert lines[0].startswith("error:") and "SUPPORT_CUTOFF" in lines[0]

    @pytest.mark.parametrize("args, expected", KEPT_TAIL,
                             ids=[" ".join(args) for args, _ in KEPT_TAIL])
    def test_output_support_kept_by_the_cutoff_prints(self, tmp_path, capsys, args, expected):
        _save_triple(tmp_path / "t", amplitude_damping_triple(3e-12))
        assert main(["compute", "--measure"] + args + _triple_args(tmp_path / "t")) == 0
        assert capsys.readouterr().out == expected

    @pytest.mark.parametrize("measure", ["imax", "delta-max"])
    def test_numerically_singular_recovered_operator_exits_two(self, tmp_path, capsys, measure):
        state = TripartiteState(
            perturb_positive(random_density((2, 2, 2), rank=1, seed=0), 1e-8)
        )
        if measure == "imax":
            save_state(tmp_path / "state.json", state.rho)
            args = ["--state", str(tmp_path / "state.json")]
        else:
            _save_triple(tmp_path / "t", cmi_as_triple(state))
            args = _triple_args(tmp_path / "t")
        assert main(["compute", "--measure", measure] + args) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "numerically singular" in captured.err

    @pytest.mark.parametrize("measure", ["delta", "delta-tilde"])
    def test_difference_off_the_support_exits_two(self, tmp_path, capsys, measure):
        _save_triple(tmp_path / "t", ChannelTriple(
            rho=random_density((4,), seed=1),
            sigma=PositiveOperator(np.diag([1.0, 1.0, 0.0, 0.0])),
            channel=random_strict_channel(4, 3, seed=2),
        ))
        argv = ["compute", "--measure", measure, "--alpha", "1.5"] + _triple_args(tmp_path / "t")
        assert main(argv) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("entry", [(0, 1), (7, 7)])
    def test_nan_entry_exits_two(self, tmp_path, capsys, entry):
        path = tmp_path / "nan.json"
        m = np.eye(8) / 8
        m[entry] = np.nan
        path.write_text(json.dumps({
            "version": 1, "kind": "state", "dims": [2, 2, 2],
            "re": m.tolist(), "im": np.zeros((8, 8)).tolist(),
        }))
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err

    @pytest.mark.parametrize("alpha", ["1e3", "1e6"])
    def test_large_alpha_is_finite(self, golden_inputs, capsys, alpha):
        # the sandwiched values tend to the max-CMI as alpha grows
        # (arXiv:1306.3142), and the sum of singular-value powers would overflow
        values = []
        for inputs, measure in (("state", "sand-cmi"), ("cmi", "delta-tilde")):
            argv = ["compute", "--measure", measure, "--alpha", alpha] + golden_inputs[inputs]
            assert main(argv) == 0
            values.append(float(capsys.readouterr().out))
        imax = 1.296416876225
        assert all(math.isfinite(v) and v <= imax + 1e-9 for v in values)
        if alpha == "1e6":
            assert values == pytest.approx([imax, imax], abs=1e-5)

    def test_nan_spec_weight_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        spec = json.loads(spec_path.read_text())
        spec["blocks"][0]["weight"] = float("nan")
        spec_path.write_text(json.dumps(spec))
        assert main(["generate", "--kind", "markov", "--spec", str(spec_path),
                     "--out", str(tmp_path / "markov.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("alpha", ["300", "500"])
    @pytest.mark.parametrize("inputs, measure", [("state", "renyi-cmi"), ("cmi", "delta")])
    def test_overflowing_trace_exits_two(self, golden_inputs, capsys, inputs, measure, alpha):
        # the powers are finite but their products overflow; this printed nan
        argv = ["compute", "--measure", measure, "--alpha", alpha,
                "--allow-uncertified"] + golden_inputs[inputs]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error:") and "overflows float64" in captured.err

    def test_overflowing_power_exits_two(self, tmp_path, capsys):
        path = tmp_path / "state.json"
        save_state(path, random_density((2, 2, 2), seed=7))
        assert main(["compute", "--measure", "renyi-cmi", "--alpha", "1000",
                     "--allow-uncertified", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "overflows float64" in err

    @pytest.mark.parametrize("dims", [5, ["a", 2, 2], None, "222", [2, 2, float("inf")],
                                      [2.5, 2, 2], [True, 8, 1], ["2", 2, 2]])
    def test_malformed_dims_exit_two(self, tmp_path, capsys, dims):
        path = tmp_path / "state.json"
        save_state(path, random_density((2, 2, 2), seed=1))
        obj = json.loads(path.read_text())
        obj["dims"] = dims
        path.write_text(json.dumps(obj))
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "dims" in err

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    @pytest.mark.parametrize("value", ["a", None, [3], 3.9, True])
    def test_malformed_channel_dims_exit_two(self, identity_triple_files, capsys, field, value):
        path = identity_triple_files["channel"]
        with open(path) as handle:
            obj = json.load(handle)
        obj[field] = value
        with open(path, "w") as handle:
            json.dump(obj, handle)
        argv = ["compute", "--measure", "red", "--rho", identity_triple_files["rho"],
                "--sigma", identity_triple_files["sigma"], "--channel", path]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and field in err

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    def test_channel_dims_disagreeing_with_kraus_exit_two(self, identity_triple_files, capsys,
                                                          field):
        # before, Channel named the declared and the Kraus dims but not the file
        path = identity_triple_files["channel"]
        with open(path) as handle:
            obj = json.load(handle)
        obj[field] += 1
        with open(path, "w") as handle:
            json.dump(obj, handle)
        argv = ["compute", "--measure", "red", "--rho", identity_triple_files["rho"],
                "--sigma", identity_triple_files["sigma"], "--channel", path]
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {path}: declared {field}")

    def test_infinite_alpha_exits_two(self, correlated_state_file, capsys):
        assert main(["compute", "--measure", "sand-cmi", "--alpha", "inf",
                     "--state", correlated_state_file]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and "finite" in err


def _b64_doubles(values) -> str:
    return base64.b64encode(np.asarray(values, dtype="<f8").tobytes()).decode("ascii")


def _doubles(payload: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(payload, validate=True), dtype="<f8")


# each edit turns the file of an 8x8 state into one that compute refuses; it
# is called with the matrix object and the keys of its two parts, "upper_re"
# and "upper_im" in the Hermitian layout, "re" and "im" in version 2
BAD_MATRIX_EDITS = {
    "non-alphabet character": lambda obj, re, im: obj.update({re: "*" + obj[re][1:]}),
    "non-ascii character": lambda obj, re, im: obj.update({re: "\u00e9" + obj[re][1:]}),
    "payload too short": lambda obj, re, im: obj.update({re: obj[re][:-4]}),
    "payload too long": lambda obj, re, im: obj.update({im: _b64_doubles(np.zeros(65))}),
    "missing shape": lambda obj, re, im: obj.pop("shape"),
    "negative shape": lambda obj, re, im: obj.update(shape=[-8, -8]),
    "one negative dimension": lambda obj, re, im: obj.update(shape=[8, -8]),
    "shape not a pair": lambda obj, re, im: obj.update(shape=[64]),
    "fractional shape": lambda obj, re, im: obj.update(shape=[8.5, 8]),
    "re and im lists of different shapes": lambda obj, re, im: obj.update(
        {re: np.zeros((8, 8)).tolist(), im: np.zeros((7, 8)).tolist()}),
    "im list against an 8x8 payload": lambda obj, re, im: obj.update(
        {im: np.zeros((8, 7)).tolist()}),
    "nan in payload": lambda obj, re, im: obj.update(
        {re: _b64_doubles(np.r_[np.nan, _doubles(obj[re])[1:]])}),
    "inf in payload": lambda obj, re, im: obj.update(
        {im: _b64_doubles(np.full(len(_doubles(obj[im])), np.inf))}),
    "version 4": lambda obj, re, im: obj.update(version=4),
    "boolean version": lambda obj, re, im: obj.update(version=True),
}

# each edit breaks the Hermitian layout of a version-3 file of an 8x8 state
BAD_HERMITIAN_EDITS = {
    "upper_re too short": lambda obj: obj.update(
        upper_re=_b64_doubles(_doubles(obj["upper_re"])[:-1])),
    "upper_re too long": lambda obj: obj.update(
        upper_re=_b64_doubles(np.r_[_doubles(obj["upper_re"]), 0.0])),
    "upper_im too short": lambda obj: obj.update(
        upper_im=_b64_doubles(_doubles(obj["upper_im"])[:-1])),
    "upper_im too long": lambda obj: obj.update(
        upper_im=_b64_doubles(np.r_[_doubles(obj["upper_im"]), 0.0])),
    "non-square shape": lambda obj: obj.update(shape=[8, 9]),
    "upper_re without upper_im": lambda obj: obj.pop("upper_im"),
    "upper_im without upper_re": lambda obj: obj.pop("upper_re"),
    "both re and upper_re": lambda obj: obj.update(re=_b64_doubles(np.eye(8) / 8)),
    "both im and upper_im": lambda obj: obj.update(im=_b64_doubles(np.zeros((8, 8)))),
    "upper_re as a list": lambda obj: obj.update(upper_re=_doubles(obj["upper_re"]).tolist()),
    "nan in upper_im": lambda obj: obj.update(
        upper_im=_b64_doubles(np.r_[np.nan, _doubles(obj["upper_im"])[1:]])),
}


def _version_two_obj(state) -> dict:
    """The file object the version-2 writer wrote for ``state``."""
    m = state.matrix
    return {"version": 2, "kind": "state", "dims": list(state.dims), "shape": list(m.shape),
            "re": _b64_doubles(m.real), "im": _b64_doubles(m.imag)}


class TestFileEncoding:
    @staticmethod
    def _assert_refused(path, obj, capsys, edit):
        path.write_text(json.dumps(obj))
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        if "nan in" in edit or "inf in" in edit:
            assert "finite" in err
        if "version" in edit:
            assert "version" in err

    @pytest.mark.parametrize("edit", list(BAD_MATRIX_EDITS))
    def test_bad_matrix_exits_two(self, tmp_path, capsys, edit):
        path = tmp_path / "state.json"
        save_state(path, random_density((2, 2, 2), seed=1))
        obj = json.loads(path.read_text())
        assert obj["version"] == 3 and "upper_re" in obj
        BAD_MATRIX_EDITS[edit](obj, "upper_re", "upper_im")
        self._assert_refused(path, obj, capsys, edit)

    @pytest.mark.parametrize("edit", list(BAD_MATRIX_EDITS))
    def test_bad_version_two_matrix_exits_two(self, tmp_path, capsys, edit):
        path = tmp_path / "state.json"
        obj = _version_two_obj(random_density((2, 2, 2), seed=1))
        path.write_text(json.dumps(obj))
        assert main(["compute", "--measure", "cmi", "--state", str(path)]) == 0
        capsys.readouterr()
        BAD_MATRIX_EDITS[edit](obj, "re", "im")
        self._assert_refused(path, obj, capsys, edit)

    @pytest.mark.parametrize("edit", list(BAD_HERMITIAN_EDITS))
    def test_bad_hermitian_matrix_exits_two(self, tmp_path, capsys, edit):
        path = tmp_path / "state.json"
        save_state(path, random_density((2, 2, 2), seed=1))
        obj = json.loads(path.read_text())
        BAD_HERMITIAN_EDITS[edit](obj)
        self._assert_refused(path, obj, capsys, edit)

    @pytest.mark.parametrize(
        "inputs,measure,alpha,expected",
        [g for g in GOLDEN if g[0] in ("state", "4to3")],
    )
    def test_version_one_file_prints_as_its_rewrite(
        self, tmp_path, capsys, inputs, measure, alpha, expected
    ):
        # tests/golden holds the golden state and the golden 4 -> 3 channel
        # as the version-1 writer wrote them (decimal nested lists)
        golden = Path(__file__).parent / "golden"
        new = tmp_path / "v3.json"
        if inputs == "state":
            old = golden / "state_222_seed7_v1.json"
            save_state(new, load_state(old))
            flag, others = "--state", []
        else:
            old = golden / "channel_4to3_seed13_v1.json"
            save_channel(new, load_channel(old))
            save_state(tmp_path / "rho.json", random_density((4,), seed=11))
            save_state(tmp_path / "sigma.json", random_density((4,), seed=12))
            flag = "--channel"
            others = ["--rho", str(tmp_path / "rho.json"),
                      "--sigma", str(tmp_path / "sigma.json")]
        outputs = []
        for path in (old, new):
            argv = ["compute", "--measure", measure, flag, str(path)] + others
            if alpha is not None:
                argv += ["--alpha", alpha]
            assert main(argv) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        assert float(outputs[0]) == pytest.approx(expected, abs=1e-12)


def _assert_one_error_line(capsys):
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and "seed" in lines[0]


class TestGenerate:
    def test_negative_seed_exits_two(self, tmp_path, capsys):
        out = tmp_path / "s.json"
        assert main(["generate", "--kind", "random-state", "--dims", "2,2,2",
                     "--seed", "-1", "--out", str(out)]) == 2
        _assert_one_error_line(capsys)
        assert not out.exists()

    def test_random_state_deterministic(self, tmp_path):
        one, two = str(tmp_path / "a.json"), str(tmp_path / "b.json")
        assert main(["generate", "--kind", "random-state", "--dims", "2,2,2",
                     "--seed", "7", "--out", one]) == 0
        assert main(["generate", "--kind", "random-state", "--dims", "2,2,2",
                     "--seed", "7", "--out", two]) == 0
        assert open(one, "rb").read() == open(two, "rb").read()

    def test_markov_output_passes_certifier(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        out = str(tmp_path / "markov.json")
        assert main(["generate", "--kind", "markov", "--spec", str(spec_path),
                     "--out", out]) == 0
        ok, _ = is_markov_petz(TripartiteState(load_state(out)))
        assert ok

    def test_sufficiency_output_passes_certifier(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_sufficiency_spec(
            spec_path, random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=4)
        )
        prefix = str(tmp_path / "suff")
        assert main(["generate", "--kind", "sufficiency", "--spec", str(spec_path),
                     "--out", prefix]) == 0
        triple = ChannelTriple(
            rho=load_state(prefix + ".rho.json"),
            sigma=load_state(prefix + ".sigma.json", normalized=False),
            channel=load_channel(prefix + ".channel.json"),
        )
        ok, _, _ = is_sufficient_petz(triple)
        assert ok

    def test_bad_spec_exits_two(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("not json at all")
        assert main(["generate", "--kind", "markov", "--spec", str(path),
                     "--out", str(tmp_path / "x.json")]) == 2

    @pytest.mark.parametrize("edit", [
        {"dim_a": 2.7}, {"dim_b": True}, {"dim_a": "2"},
        {"block": {"dim_cl": "a"}}, {"block": {"dim_cr": 1.5}},
        {"block": {"weight": "x"}}, {"block": {"weight": None}},
        {"block": {"rho_left": [[1.0]]}},
    ])
    def test_bad_markov_spec_field_exits_two(self, tmp_path, capsys, edit):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        spec = json.loads(spec_path.read_text())
        for key, value in edit.items():
            if key == "block":
                spec["blocks"][0].update(value)
            else:
                spec[key] = value
        spec_path.write_text(json.dumps(spec))
        assert main(["generate", "--kind", "markov", "--spec", str(spec_path),
                     "--out", str(tmp_path / "markov.json")]) == 2
        assert capsys.readouterr().err.startswith("error:")

    @pytest.mark.parametrize("edit", [
        {"prob": "x"}, {"weight": "x"}, {"prob": True}, {"unitary": "oops"},
        {"channel_right": {"dim_in": 1.5}}, {"channel_right": "oops"},
    ])
    def test_bad_sufficiency_spec_field_exits_two(self, tmp_path, capsys, edit):
        spec_path = tmp_path / "spec.json"
        save_sufficiency_spec(
            spec_path, random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=4)
        )
        spec = json.loads(spec_path.read_text())
        block = spec["blocks"][0]
        for key, value in edit.items():
            if isinstance(value, dict):
                block[key].update(value)
            else:
                block[key] = value
        spec_path.write_text(json.dumps(spec))
        assert main(["generate", "--kind", "sufficiency", "--spec", str(spec_path),
                     "--out", str(tmp_path / "suff")]) == 2
        assert capsys.readouterr().err.startswith("error:")


class TestVerify:
    def test_small_run_passes(self, tmp_path, capsys):
        out = str(tmp_path / "report.json")
        code = main(["verify", "--suite", "limits", "--trials", "2",
                     "--seed", "5", "--json", out])
        assert code == 0
        table = capsys.readouterr().out
        assert "suite limits" in table and "PASS" in table
        payload = json.loads(open(out).read())
        assert payload["reports"][0]["all_pass"] is True

    def test_rerun_byte_identical(self, tmp_path, capsys):
        args = ["verify", "--suite", "inequalities", "--trials", "2", "--seed", "3"]
        main(args)
        first = capsys.readouterr().out
        main(args)
        second = capsys.readouterr().out
        assert first == second

    def test_absurd_tolerance_fails_with_one(self, capsys):
        code = main(["verify", "--suite", "characterization", "--trials", "1",
                     "--seed", "0", "--tol", "1e-18"])
        assert code == 1
        assert "FAIL" in capsys.readouterr().out

    def test_negative_seed_exits_two(self, capsys):
        assert main(["verify", "--suite", "limits", "--trials", "1", "--seed", "-1"]) == 2
        _assert_one_error_line(capsys)

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tolerance_exits_two(self, tol, capsys):
        code = main(["verify", "--suite", "characterization", "--trials", "1",
                     "--seed", "0", "--tol", tol])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error:") and "finite" in captured.err
        assert captured.out == ""

    def test_corrupt_state_exits_two(self, tmp_path):
        path = tmp_path / "nonpsd.json"
        m = np.diag([0.8, 0.4, -0.2])
        path.write_text(json.dumps({
            "version": 1, "kind": "state", "dims": [3],
            "re": m.tolist(), "im": np.zeros((3, 3)).tolist(),
        }))
        assert main(["verify", "--trials", "1", "--state", str(path)]) == 2

    def test_valid_extra_state_included(self, tmp_path, capsys):
        path = tmp_path / "extra.json"
        save_state(path, random_density((2, 2, 2), seed=8))
        code = main(["verify", "--suite", "trace", "--trials", "1",
                     "--seed", "0", "--state", str(path)])
        assert code == 0


class TestSweep:
    def test_markov_sweep_near_zero(self, tmp_path):
        spec_path = tmp_path / "spec.json"
        save_markov_spec(spec_path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        state_path = str(tmp_path / "markov.json")
        main(["generate", "--kind", "markov", "--spec", str(spec_path),
              "--out", state_path])
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--measure", "renyi-cmi", "--state", state_path,
                     "--alpha-grid", "0.25:1.75:0.25", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert lines[0] == "alpha,value_bits"
        assert len(lines) == 8  # header + 7 grid points
        for line in lines[1:]:
            assert abs(float(line.split(",")[1])) <= 1e-8

    def test_constant_column_on_correlated_state(self, correlated_state_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        assert main(["sweep", "--measure", "renyi-cmi", "--state", correlated_state_file,
                     "--alpha-grid", "0.5:2.0:0.5", "--out", out]) == 0
        lines = open(out).read().splitlines()
        assert len(lines) == 5
        alpha_one_row = [l for l in lines if l.startswith("1.0,")]
        assert alpha_one_row == ["1.0,1.000000000000"]
        for line in lines[1:]:
            assert line.split(",")[1] == "1.000000000000"

    def test_unix_line_endings(self, correlated_state_file, tmp_path):
        out = str(tmp_path / "sweep.csv")
        main(["sweep", "--measure", "renyi-cmi", "--state", correlated_state_file,
              "--alpha-grid", "0.5:0.75:0.25", "--out", out])
        raw = open(out, "rb").read()
        assert b"\r" not in raw and raw.endswith(b"\n")

    @pytest.mark.parametrize("measure,library", [
        ("delta", renyi_rel_ent_diff),
        ("delta-tilde", sandwiched_rel_ent_diff),
    ])
    def test_triple_rows_are_the_library_values(self, golden_inputs, tmp_path, capsys,
                                                measure, library):
        # alpha = 1/2 is outside delta-tilde's certified range: sweep evaluates it anyway
        files = golden_inputs["cmi"]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--measure", measure, "--alpha-grid", "0.5:1.5:0.5",
                     "--out", str(out)] + files) == 0
        assert main(["compute", "--measure", "red"] + files) == 0
        red = capsys.readouterr().out.strip()
        triple = ChannelTriple(
            rho=load_state(files[1]),
            sigma=load_state(files[3], normalized=False),
            channel=load_channel(files[5]),
        )
        expected = [f"{a!r},{_format_value(library(triple, a, strict=False), False)}"
                    for a in (0.5, 1.5)]
        lines = out.read_text().splitlines()
        assert lines == ["alpha,value_bits", expected[0], f"1.0,{red}", expected[1]]

    def test_order_failing_part_way_exits_two(self, tmp_path, capsys):
        # the plain trace overflows from alpha = 200 on, and the orders below
        # it evaluate: the sweep reports the first failing order as compute
        # does, and writes nothing
        path = str(tmp_path / "state.json")
        save_state(path, random_density((2, 2, 2), seed=7))
        grid = (100.0, 150.0, 200.0, 250.0, 300.0)
        codes, errors = [], []
        for alpha in grid:
            codes.append(main(["compute", "--measure", "renyi-cmi", "--state", path,
                               "--alpha", repr(alpha), "--allow-uncertified"]))
            errors.append(capsys.readouterr().err)
        assert codes == [0, 0, 2, 2, 2]
        out = tmp_path / "sweep.csv"
        assert main(["sweep", "--measure", "renyi-cmi", "--state", path,
                     "--alpha-grid", "100:300:50", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err == errors[2]
        assert captured.err.startswith("error:") and "alpha 200.0" in captured.err
        assert captured.out == ""
        assert not out.exists()

    def test_unknown_measure_exits_two(self, correlated_state_file, tmp_path, capsys):
        out = tmp_path / "x.csv"
        assert main(["sweep", "--measure", "nope", "--state", correlated_state_file,
                     "--alpha-grid", "0.5:1.5:0.5", "--out", str(out)]) == 2
        assert "nope" in capsys.readouterr().err
        assert not out.exists()

    def test_alpha_free_measure_rejected(self, correlated_state_file, tmp_path):
        assert main(["sweep", "--measure", "cmi", "--state", correlated_state_file,
                     "--alpha-grid", "0.5:1.5:0.5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    def test_empty_grid_rejected(self, correlated_state_file, tmp_path):
        assert main(["sweep", "--measure", "renyi-cmi", "--state", correlated_state_file,
                     "--alpha-grid", "2.0:1.0:0.5",
                     "--out", str(tmp_path / "x.csv")]) == 2

    @pytest.mark.parametrize("grid", ["0.5:1.5:nan", "0.5:inf:0.5", "nan:1.5:0.5"])
    def test_non_finite_grid_exits_two(self, correlated_state_file, tmp_path, src_env, grid):
        # a grid with no last point would grow without end, so the sweep runs
        # in a subprocess with a deadline and a capped address space
        out = tmp_path / "x.csv"
        result = subprocess.run(
            [sys.executable, "-m", "qmarkov.cli", "sweep", "--measure", "renyi-cmi",
             "--state", correlated_state_file, "--alpha-grid", grid, "--out", str(out)],
            capture_output=True, text=True, timeout=20, preexec_fn=_cap_address_space,
            env=dict(src_env, OPENBLAS_NUM_THREADS="1"),
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr.startswith("error:") and "finite" in result.stderr
        assert not out.exists()

    @pytest.mark.parametrize("grid", ["0.5:1e9:1e-9", "0:1e308:1e-300", "0:10000:1"])
    def test_oversized_grid_exits_two(self, correlated_state_file, tmp_path, src_env, grid):
        # about 1e18, an overflowing span and 10001 points: each is refused
        # before a point is built, so the deadline and the capped address
        # space only stop a regression
        out = tmp_path / "x.csv"
        result = subprocess.run(
            [sys.executable, "-m", "qmarkov.cli", "sweep", "--measure", "renyi-cmi",
             "--state", correlated_state_file, "--alpha-grid", grid, "--out", str(out)],
            capture_output=True, text=True, timeout=20, preexec_fn=_cap_address_space,
            env=dict(src_env, OPENBLAS_NUM_THREADS="1"),
        )
        assert result.returncode == 2, result.stderr
        assert result.stderr == f"error: --alpha-grid {grid!r} has more than 10000 orders\n"
        assert not out.exists()

    def test_largest_grid_is_built(self):
        grid = _parse_grid("0:9999:1")
        assert grid == [float(k) for k in range(MAX_GRID_ORDERS)]


def _cap_address_space():
    cap = 512 * 2**20
    resource.setrlimit(resource.RLIMIT_AS, (cap, cap))


def _parsed_by(parser, argv):
    """What ``parser`` prints to stdout and stderr on ``argv``, and its exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            parser.parse_args(argv)
            code = None
        except SystemExit as exc:
            code = exc.code
    return out.getvalue(), err.getvalue(), code


class TestParser:
    """What ``main`` prints on a usage error or a help request equals the
    bytes ``build_parser()`` prints, and its exit code is argparse's."""

    @pytest.mark.parametrize("argv", [
        ["--help"], ["bogus"], [],
        ["compute", "--help"], ["compute"],
        ["generate", "--help"], ["generate", "--kind", "nope", "--out", "x"],
        ["verify", "--help"], ["verify", "--trials", "x"],
        ["sweep", "--help"], ["sweep", "--measure", "cmi"],
    ])
    def test_output_equals_the_full_parser(self, argv, capsys):
        out, err, code = _parsed_by(build_parser(), argv)
        assert code in (0, 2)
        assert main(argv) == code
        assert capsys.readouterr() == (out, err)


class TestUsage:
    def test_no_command(self):
        assert main([]) == 2

    def test_unknown_measure(self, correlated_state_file):
        assert main(["compute", "--measure", "nope",
                     "--state", correlated_state_file]) == 2
