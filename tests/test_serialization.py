import base64
import json
from pathlib import Path

import numpy as np
import pytest

from qmarkov.channels import Channel, partial_trace_channel, random_strict_channel
from qmarkov.cli import main
from qmarkov.errors import DimensionMismatchError, ValidationError
from qmarkov.measures import TripartiteState, cmi_as_triple
from qmarkov.serialization import (
    FORMAT_VERSION,
    _matrix_from_obj,
    _matrix_to_obj,
    load_channel,
    load_markov_spec,
    load_state,
    load_sufficiency_spec,
    save_channel,
    save_markov_spec,
    save_state,
    save_sufficiency_spec,
)
from qmarkov.states import PositiveOperator, random_density
from qmarkov.structured import (
    MarkovBlock,
    MarkovBlockSpec,
    SufficiencyBlock,
    SufficiencyBlockSpec,
    build_markov_chain,
    build_sufficiency_triple,
    random_markov_spec,
    random_sufficiency_spec,
)

GOLDEN_DIR = Path(__file__).parent / "golden"
TINY = 5e-324  # the smallest subnormal float64


def _complex(re, im):
    # assigned part by part: re + 1j * im would turn a -0.0 into +0.0
    m = np.empty(np.shape(re), dtype=complex)
    m.real = re
    m.imag = im
    return m


def _bits(matrix) -> bytes:
    return np.ascontiguousarray(np.asarray(matrix, dtype=complex)).tobytes()


def _doubles(payload: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(payload, validate=True), dtype="<f8")


# a rank-one state whose entries include -0.0 and a subnormal
SPECIAL_STATE = _complex([[1.0, TINY], [TINY, -0.0]], [[-0.0, -0.0], [0.0, -0.0]])


class TestStateFiles:
    def test_round_trip(self, tmp_path):
        rho = random_density((2, 2), seed=3)
        path = tmp_path / "state.json"
        save_state(path, rho)
        loaded = load_state(path)
        np.testing.assert_allclose(loaded.matrix, rho.matrix, atol=1e-15)
        assert loaded.dims == rho.dims

    def test_schema_fields(self, tmp_path):
        # the Hermitian layout: the upper triangle, row-major
        rho = random_density((3,), seed=0)
        path = tmp_path / "state.json"
        save_state(path, rho)
        obj = json.loads(path.read_text())
        assert sorted(obj) == ["dims", "kind", "shape", "upper_im", "upper_re", "version"]
        assert obj["version"] == 3
        assert obj["kind"] == "state"
        assert obj["dims"] == [3]
        assert obj["shape"] == [3, 3]
        m = rho.matrix
        upper = [(0, 0), (0, 1), (0, 2), (1, 1), (1, 2), (2, 2)]
        strict = [(0, 1), (0, 2), (1, 2)]
        assert _doubles(obj["upper_re"]).tobytes() == np.array([m[ij].real for ij in upper]).tobytes()
        assert _doubles(obj["upper_im"]).tobytes() == np.array([m[ij].imag for ij in strict]).tobytes()

    def test_unnormalized_reference(self, tmp_path):
        sigma = PositiveOperator(np.diag([0.6, 0.6]))
        path = tmp_path / "sigma.json"
        save_state(path, sigma)
        with pytest.raises(ValidationError):
            load_state(path)  # trace is not 1
        loaded = load_state(path, normalized=False)
        np.testing.assert_allclose(loaded.matrix, sigma.matrix)

    def test_byte_identical_writes(self, tmp_path):
        rho = random_density((3,), seed=5)
        one, two = tmp_path / "a.json", tmp_path / "b.json"
        save_state(one, rho)
        save_state(two, rho)
        assert one.read_bytes() == two.read_bytes()

    def test_integral_float_dims_accepted(self, tmp_path):
        save_state(tmp_path / "state.json", random_density((2, 2), seed=1))
        obj = json.loads((tmp_path / "state.json").read_text())
        obj["dims"] = [2.0, 2]
        (tmp_path / "state.json").write_text(json.dumps(obj))
        assert load_state(tmp_path / "state.json").dims == (2, 2)

    def test_malformed_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"kind": "state"')
        with pytest.raises(ValidationError):
            load_state(path)

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "wrong.json"
        path.write_text('{"kind": "channel", "re": [[1]], "im": [[0]]}')
        with pytest.raises(ValidationError):
            load_state(path)

    @pytest.mark.parametrize("text", [
        '[{"kind": "state"}]',
        '{"kind": "state", "im": [[0.0]]}',
        '{"kind": "state", "re": [[1.0, 0.0], [0.0]], "im": [[0.0, 0.0], [0.0]]}',
    ], ids=["array", "no-re", "ragged"])
    def test_malformed_file_is_a_bad_spec(self, tmp_path, text):
        path = tmp_path / "state.json"
        path.write_text(text)
        with pytest.raises(ValidationError) as err:
            load_state(path)
        assert err.value.reason == "bad-spec" and str(path) in str(err.value)


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        chan = random_strict_channel(3, 2, seed=1)
        path = tmp_path / "chan.json"
        save_channel(path, chan)
        loaded = load_channel(path)
        assert loaded.dim_in == 3 and loaded.dim_out == 2
        for original, restored in zip(chan.kraus, loaded.kraus):
            np.testing.assert_allclose(original, restored, atol=1e-15)

    def test_schema_fields(self, tmp_path):
        # the general layout, whose im is left out when every imaginary part is +0.0
        for chan, keys in ((random_strict_channel(3, 2, seed=1), ["im", "re", "shape"]),
                           (partial_trace_channel((2, 3), [0]), ["re", "shape"])):
            save_channel(tmp_path / "chan.json", chan)
            obj = json.loads((tmp_path / "chan.json").read_text())
            assert sorted(obj) == ["dim_in", "dim_out", "kind", "kraus", "version"]
            assert obj["version"] == 3
            assert len(obj["kraus"]) == len(chan.kraus)
            for k, saved in zip(chan.kraus, obj["kraus"]):
                assert sorted(saved) == keys
                assert saved["shape"] == list(k.shape)
                assert _doubles(saved["re"]).tobytes() == np.ascontiguousarray(k.real).tobytes()
                imag = _doubles(saved["im"]) if "im" in saved else np.zeros(k.size)
                assert imag.tobytes() == np.ascontiguousarray(k.imag).tobytes()

    @pytest.mark.parametrize("field", ["dim_in", "dim_out"])
    def test_declared_dims_must_match_the_kraus_operators(self, tmp_path, field):
        path = tmp_path / "chan.json"
        save_channel(path, random_strict_channel(3, 2, seed=1))
        obj = json.loads(path.read_text())
        obj[field] = 5
        path.write_text(json.dumps(obj))
        with pytest.raises(DimensionMismatchError, match=f"{path}: declared {field} 5"):
            load_channel(path)
        del obj[field]  # an undeclared dim is read from the Kraus operators
        path.write_text(json.dumps(obj))
        assert (load_channel(path).dim_in, load_channel(path).dim_out) == (3, 2)

    def test_non_cptp_rejected_on_load(self, tmp_path):
        path = tmp_path / "bad.json"
        obj = {
            "version": 1,
            "kind": "channel",
            "dim_in": 2,
            "dim_out": 2,
            "kraus": [{"re": [[0.5, 0.0], [0.0, 0.5]], "im": [[0.0] * 2] * 2}],
        }
        path.write_text(json.dumps(obj))
        with pytest.raises(ValidationError):
            load_channel(path)


class TestSpecFiles:
    def test_markov_round_trip(self, tmp_path):
        spec = random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=11)
        path = tmp_path / "markov.json"
        save_markov_spec(path, spec)
        loaded = load_markov_spec(path)
        original = build_markov_chain(spec)
        rebuilt = build_markov_chain(loaded)
        np.testing.assert_allclose(rebuilt.matrix, original.matrix, atol=1e-15)

    def test_sufficiency_round_trip(self, tmp_path):
        spec = random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=12)
        path = tmp_path / "suff.json"
        save_sufficiency_spec(path, spec)
        loaded = load_sufficiency_spec(path)
        original = build_sufficiency_triple(spec)
        rebuilt = build_sufficiency_triple(loaded)
        np.testing.assert_allclose(rebuilt.rho.matrix, original.rho.matrix, atol=1e-15)
        np.testing.assert_allclose(rebuilt.sigma.matrix, original.sigma.matrix, atol=1e-15)

    def test_malformed_spec(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"kind": "markov-spec", "blocks": "oops"}')
        with pytest.raises(ValidationError):
            load_markov_spec(path)

    @pytest.mark.parametrize("kind", ["markov", "sufficiency"])
    def test_bad_block_field_is_a_bad_spec(self, tmp_path, kind):
        # a sufficiency block without its sigma_left, and a weight written
        # as the JSON integer 10**400, which no float holds
        path = tmp_path / "spec.json"
        if kind == "markov":
            save_markov_spec(path, random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=3))
        else:
            save_sufficiency_spec(path, random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=4))
        obj = json.loads(path.read_text())
        if kind == "markov":
            obj["blocks"][0]["weight"] = 10**400
        else:
            del obj["blocks"][0]["sigma_left"]
        path.write_text(json.dumps(obj))
        load = load_markov_spec if kind == "markov" else load_sufficiency_spec
        with pytest.raises(ValidationError) as err:
            load(path)
        assert err.value.reason == "bad-spec" and str(path) in str(err.value)


class TestExactEncoding:
    def test_extreme_entries_survive_json(self):
        re = [[-0.0, TINY, 1e308], [-1e308, 2.2250738585072014e-308, 0.1]]
        im = [[1e308, -0.0, -TINY], [0.0, -1e-300, -1e308]]
        m = _complex(re, im)
        obj = json.loads(json.dumps(_matrix_to_obj(m)))
        assert obj["shape"] == [2, 3]
        assert _bits(_matrix_from_obj(obj, "m")) == _bits(m)

    def test_state(self, tmp_path):
        for state in (
            random_density((2, 3, 2), seed=4),
            PositiveOperator(SPECIAL_STATE),
            PositiveOperator(np.diag([1e300, TINY])),
        ):
            save_state(tmp_path / "state.json", state)
            loaded = load_state(tmp_path / "state.json", normalized=False)
            assert _bits(loaded.matrix) == _bits(state.matrix)
            assert loaded.dims == state.dims

    def test_channel(self, tmp_path):
        kraus = _complex([[1.0, TINY], [-0.0, 1.0]], [[-0.0, 0.0], [0.0, -0.0]])
        for chan in (random_strict_channel(3, 2, seed=1), Channel((kraus,))):
            save_channel(tmp_path / "chan.json", chan)
            loaded = load_channel(tmp_path / "chan.json")
            assert (loaded.dim_in, loaded.dim_out) == (chan.dim_in, chan.dim_out)
            assert [_bits(k) for k in loaded.kraus] == [_bits(k) for k in chan.kraus]

    @staticmethod
    def _markov_fields(spec):
        return (spec.dim_a, spec.dim_b) + tuple(
            (b.weight, b.dim_cl, b.dim_cr, _bits(b.rho_left), _bits(b.rho_right))
            for b in spec.blocks
        )

    def test_markov_spec(self, tmp_path):
        special = MarkovBlockSpec(dim_a=2, dim_b=1, blocks=(
            MarkovBlock(weight=1.0, dim_cl=1, dim_cr=1,
                        rho_left=SPECIAL_STATE, rho_right=np.eye(1)),
        ))
        for spec in (random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=11), special):
            save_markov_spec(tmp_path / "markov.json", spec)
            loaded = load_markov_spec(tmp_path / "markov.json")
            assert self._markov_fields(loaded) == self._markov_fields(spec)

    @staticmethod
    def _sufficiency_fields(spec):
        return tuple(
            (b.prob, b.weight, _bits(b.rho_left), _bits(b.sigma_left),
             _bits(b.tau_right), _bits(b.unitary),
             tuple(_bits(k) for k in b.channel_right.kraus))
            for b in spec.blocks
        )

    def test_sufficiency_spec(self, tmp_path):
        special = SufficiencyBlockSpec(blocks=(
            SufficiencyBlock(
                prob=1.0,
                weight=1e308,
                rho_left=SPECIAL_STATE,
                sigma_left=_complex([[1.0, TINY], [TINY, 1.0]], [[-0.0, 0.0], [-0.0, -0.0]]),
                tau_right=np.eye(1),
                unitary=_complex([[1.0, -0.0], [-0.0, 1.0]], [[-0.0, 0.0], [0.0, -0.0]]),
                channel_right=Channel((np.eye(1),)),
            ),
        ))
        for spec in (random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=12), special):
            save_sufficiency_spec(tmp_path / "suff.json", spec)
            loaded = load_sufficiency_spec(tmp_path / "suff.json")
            assert self._sufficiency_fields(loaded) == self._sufficiency_fields(spec)


class TestVersionOneFiles:
    """Files written by the version-1 writer (decimal nested lists) in
    tests/golden load to the bits of their rewrite in the current version."""

    def test_state(self, tmp_path):
        path = GOLDEN_DIR / "state_222_seed7_v1.json"
        assert json.loads(path.read_text())["version"] == 1
        old = load_state(path)
        save_state(tmp_path / "v3.json", old)
        assert json.loads((tmp_path / "v3.json").read_text())["version"] == FORMAT_VERSION == 3
        new = load_state(tmp_path / "v3.json")
        assert _bits(old.matrix) == _bits(new.matrix)
        assert old.dims == new.dims == (2, 2, 2)
        assert _bits(old.matrix) == _bits(random_density((2, 2, 2), seed=7).matrix)

    def test_channel(self, tmp_path):
        path = GOLDEN_DIR / "channel_4to3_seed13_v1.json"
        assert json.loads(path.read_text())["version"] == 1
        old = load_channel(path)
        save_channel(tmp_path / "v3.json", old)
        new = load_channel(tmp_path / "v3.json")
        assert (old.dim_in, old.dim_out) == (new.dim_in, new.dim_out) == (4, 3)
        assert [_bits(k) for k in old.kraus] == [_bits(k) for k in new.kraus]
        assert [_bits(k) for k in old.kraus] == [
            _bits(k) for k in random_strict_channel(4, 3, seed=13).kraus
        ]

    def test_file_without_version(self, tmp_path):
        obj = json.loads((GOLDEN_DIR / "state_222_seed7_v1.json").read_text())
        del obj["version"]
        (tmp_path / "state.json").write_text(json.dumps(obj))
        loaded = load_state(tmp_path / "state.json")
        assert _bits(loaded.matrix) == _bits(load_state(GOLDEN_DIR / "state_222_seed7_v1.json").matrix)


class TestVersionTwoFiles:
    """Files written by the version-2 writer (base64 of both full parts) in
    tests/golden load to the bits they were written from, and so does their
    rewrite in the current version."""

    def test_state(self, tmp_path):
        path = GOLDEN_DIR / "state_222_seed7_v2.json"
        assert sorted(json.loads(path.read_text())) == [
            "dims", "im", "kind", "re", "shape", "version"]
        old = load_state(path)
        assert _bits(old.matrix) == _bits(random_density((2, 2, 2), seed=7).matrix)
        save_state(tmp_path / "v3.json", old)
        assert _bits(load_state(tmp_path / "v3.json").matrix) == _bits(old.matrix)
        assert old.dims == (2, 2, 2)

    def test_channel(self, tmp_path):
        path = GOLDEN_DIR / "channel_4to3_seed13_v2.json"
        assert json.loads(path.read_text())["version"] == 2
        old = load_channel(path)
        assert [_bits(k) for k in old.kraus] == [
            _bits(k) for k in random_strict_channel(4, 3, seed=13).kraus
        ]
        save_channel(tmp_path / "v3.json", old)
        assert [_bits(k) for k in load_channel(tmp_path / "v3.json").kraus] == [
            _bits(k) for k in old.kraus
        ]


def _hermitian(n: int, seed: int) -> np.ndarray:
    """A complex matrix whose lower triangle is its upper one, conjugated as
    the reader does it: (re, 0.0 - im) transposed, with a real diagonal."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n)), 1)
    m = upper + upper.conj().T + np.diag(rng.standard_normal(n))
    m.imag[np.tril_indices(n, -1)] = 0.0 - m.imag.T[np.tril_indices(n, -1)]
    return m


def _nudged(m: np.ndarray, part: str, ij) -> np.ndarray:
    """``m`` with one part of one entry moved by one ulp."""
    out = m.copy()
    view = getattr(out, part)
    view[ij] = np.nextafter(view[ij], np.inf)
    return out


HERMITIAN_KEYS = ["shape", "upper_im", "upper_re"]
# each case: a matrix, and the keys of the layout the writer picks for it
ROUND_TRIP_CASES = {
    "exactly hermitian": (_hermitian(5, 0), HERMITIAN_KEYS),
    "real symmetric": (_hermitian(4, 1).real + 0j, HERMITIAN_KEYS),
    "one ulp off in re": (_nudged(_hermitian(5, 0), "real", (3, 1)), ["im", "re", "shape"]),
    "one ulp off in im": (_nudged(_hermitian(5, 0), "imag", (1, 3)), ["im", "re", "shape"]),
    "imaginary diagonal": (_nudged(_hermitian(3, 2), "imag", (2, 2)), ["im", "re", "shape"]),
    "-0.0 in a hermitian layout": (
        _complex([[-0.0, -0.0], [-0.0, 1.0]], [[0.0, -0.0], [0.0, 0.0]]), HERMITIAN_KEYS),
    "-0.0 in the lower imaginary part": (
        _complex([[1.0, 0.5], [0.5, 1.0]], [[0.0, 0.0], [-0.0, 0.0]]), ["im", "re", "shape"]),
    "-0.0 on the imaginary diagonal": (SPECIAL_STATE, ["im", "re", "shape"]),
    "real non-square": (np.arange(6.0).reshape(2, 3) - 2.0, ["re", "shape"]),
    "complex non-square": (_complex(np.ones((3, 2)), [[0, 1], [-0.0, 2], [0, 0]]),
                           ["im", "re", "shape"]),
    "-0.0 imaginary non-square": (_complex(np.ones((1, 2)), [[-0.0, -0.0]]),
                                  ["im", "re", "shape"]),
    "0x0": (np.zeros((0, 0)), HERMITIAN_KEYS),
    "0x3": (np.zeros((0, 3)), ["re", "shape"]),
    "1x1": (np.array([[2.5]]), HERMITIAN_KEYS),
    "1x1 complex": (np.array([[2.5 - 1e-300j]]), ["im", "re", "shape"]),
}


@pytest.mark.parametrize("case", list(ROUND_TRIP_CASES))
def test_layout_round_trip(case):
    m, keys = ROUND_TRIP_CASES[case]
    obj = json.loads(json.dumps(_matrix_to_obj(m)))
    assert sorted(obj) == keys
    assert obj["shape"] == list(m.shape)
    loaded = _matrix_from_obj(obj, case)
    assert loaded.shape == m.shape
    assert _bits(loaded) == _bits(m)


class TestWritersKeepTheCompactLayouts:
    """The files the package writes use the Hermitian layout for every
    operator and drop an all-zero imaginary part, and they reload to the
    exact bits: a writer that fell back to the general layout would double
    every file without failing any other test."""

    @staticmethod
    def _assert_hermitian_file(path, matrix):
        obj = json.loads(Path(path).read_text())
        assert obj["version"] == 3
        assert sorted(k for k in obj if k in ("im", "re", "upper_im", "upper_re")) == [
            "upper_im", "upper_re"]
        assert _bits(load_state(path, normalized=False).matrix) == _bits(matrix)

    def test_generate_random_state(self, tmp_path):
        out = tmp_path / "state.json"
        assert main(["generate", "--kind", "random-state", "--dims", "2,3,2",
                     "--seed", "5", "--out", str(out)]) == 0
        self._assert_hermitian_file(out, random_density((2, 3, 2), seed=5).matrix)

    def test_generate_markov(self, tmp_path):
        spec = random_markov_spec(2, 2, ((2, 1), (1, 2)), seed=11)
        save_markov_spec(tmp_path / "spec.json", spec)
        out = tmp_path / "chain.json"
        assert main(["generate", "--kind", "markov", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 0
        self._assert_hermitian_file(out, build_markov_chain(spec).rho.matrix)
        obj = json.loads((tmp_path / "spec.json").read_text())
        for block in obj["blocks"]:
            assert "upper_re" in block["rho_left"] and "upper_re" in block["rho_right"]

    def test_generate_sufficiency(self, tmp_path):
        spec = random_sufficiency_spec(((2, 2, 2), (1, 2, 2)), seed=12)
        save_sufficiency_spec(tmp_path / "spec.json", spec)
        out = tmp_path / "suff"
        assert main(["generate", "--kind", "sufficiency", "--spec", str(tmp_path / "spec.json"),
                     "--out", str(out)]) == 0
        triple = build_sufficiency_triple(spec)
        self._assert_hermitian_file(f"{out}.rho.json", triple.rho.matrix)
        self._assert_hermitian_file(f"{out}.sigma.json", triple.sigma.matrix)

    def test_cmi_triple(self, tmp_path):
        triple = cmi_as_triple(TripartiteState(random_density((3, 2, 2), seed=9)))
        save_state(tmp_path / "rho.json", triple.rho)
        save_state(tmp_path / "sigma.json", triple.sigma)
        self._assert_hermitian_file(tmp_path / "rho.json", triple.rho.matrix)
        self._assert_hermitian_file(tmp_path / "sigma.json", triple.sigma.matrix)

    @pytest.mark.parametrize("dims,traced", [((3, 2, 2), {0}), ((2, 3), {1}), ((2, 2, 2), {0, 1})])
    def test_partial_trace_kraus_carry_no_im(self, tmp_path, dims, traced):
        chan = partial_trace_channel(dims, traced)
        save_channel(tmp_path / "chan.json", chan)
        obj = json.loads((tmp_path / "chan.json").read_text())
        assert all(sorted(k) == ["re", "shape"] for k in obj["kraus"])
        loaded = load_channel(tmp_path / "chan.json")
        assert [_bits(k) for k in loaded.kraus] == [_bits(k) for k in chan.kraus]
