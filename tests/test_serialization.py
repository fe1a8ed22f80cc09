import base64
import json
from pathlib import Path

import numpy as np
import pytest

from qmarkov.channels import Channel, random_strict_channel
from qmarkov.errors import ValidationError
from qmarkov.serialization import (
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
        rho = random_density((2,), seed=0)
        path = tmp_path / "state.json"
        save_state(path, rho)
        obj = json.loads(path.read_text())
        assert sorted(obj) == ["dims", "im", "kind", "re", "shape", "version"]
        assert obj["version"] == 2
        assert obj["kind"] == "state"
        assert obj["dims"] == [2]
        assert obj["shape"] == [2, 2]
        re = np.frombuffer(base64.b64decode(obj["re"], validate=True), dtype="<f8")
        im = np.frombuffer(base64.b64decode(obj["im"], validate=True), dtype="<f8")
        assert re.tobytes() == np.ascontiguousarray(rho.matrix.real).tobytes()
        assert im.tobytes() == np.ascontiguousarray(rho.matrix.imag).tobytes()

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


class TestChannelFiles:
    def test_round_trip(self, tmp_path):
        chan = random_strict_channel(3, 2, seed=1)
        path = tmp_path / "chan.json"
        save_channel(path, chan)
        loaded = load_channel(path)
        assert loaded.dim_in == 3 and loaded.dim_out == 2
        for original, restored in zip(chan.kraus, loaded.kraus):
            np.testing.assert_allclose(original, restored, atol=1e-15)

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
    tests/golden load to the bits of their version-2 rewrite."""

    def test_state(self, tmp_path):
        path = GOLDEN_DIR / "state_222_seed7_v1.json"
        assert json.loads(path.read_text())["version"] == 1
        old = load_state(path)
        save_state(tmp_path / "v2.json", old)
        assert json.loads((tmp_path / "v2.json").read_text())["version"] == 2
        new = load_state(tmp_path / "v2.json")
        assert _bits(old.matrix) == _bits(new.matrix)
        assert old.dims == new.dims == (2, 2, 2)
        assert _bits(old.matrix) == _bits(random_density((2, 2, 2), seed=7).matrix)

    def test_channel(self, tmp_path):
        path = GOLDEN_DIR / "channel_4to3_seed13_v1.json"
        assert json.loads(path.read_text())["version"] == 1
        old = load_channel(path)
        save_channel(tmp_path / "v2.json", old)
        new = load_channel(tmp_path / "v2.json")
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
