import contextlib
import dataclasses
import hashlib
import io
import json
import math
import os
import weakref

import numpy as np
import pytest

import qmarkov.states
import qmarkov.suites
from qmarkov.cli import main
from qmarkov.errors import DimensionMismatchError, ValidationError
from qmarkov.measures import PETZ_ALPHA_GRID, SANDWICHED_ALPHA_GRID, TripartiteState
from qmarkov.states import random_density
from qmarkov.structured import is_sufficient_petz
from qmarkov.suites import (
    SCREEN_DISTANCE,
    SUITE_NAMES,
    SuiteConfig,
    _screened_nonsufficient_triple,
    characterization_suite,
    inequality_suite,
    limit_suite,
    run_suite,
    run_suites,
    trace_inequality_suite,
)

from conftest import BAD_DIMS

SMALL = SuiteConfig(trials=4, dims=(2, 2, 2), seed=7)


GOLDEN_REPORT = os.path.join(
    os.path.dirname(__file__), "golden", "verify_all_222_trials3_seed42.json"
)

# checks evaluated at every order of a grid, by family
PLAIN_GRID_CHECKS = {
    "cmi-trace-plain", "channel-trace-plain", "markov-trace-equality",
    "sufficiency-trace-equality", "sufficiency-renyi-diff-zero",
    "sufficiency-output-fixed-point", "sufficiency-recovery-fixed-point",
    "dpi-renyi", "nonneg-renyi-cmi", "nonneg-renyi-diff",
}
SANDWICHED_GRID_CHECKS = {
    "cmi-trace-sandwiched", "channel-trace-sandwiched",
    "markov-trace-equality-sandwiched", "sufficiency-trace-equality-sandwiched",
    "sufficiency-sandwiched-diff-zero", "sufficiency-sandwiched-fixed-point",
    "dpi-sandwiched", "nonneg-sandwiched-cmi", "nonneg-sandwiched-diff",
}


class TestSuiteConfig:
    def test_dims_are_not_coerced(self):
        for dims in BAD_DIMS:
            with pytest.raises(DimensionMismatchError, match="must be integers"):
                SuiteConfig(dims=dims)
        with pytest.raises(DimensionMismatchError, match=">= 1"):
            SuiteConfig(dims=(2, 0, 2))
        assert SuiteConfig(dims=(2.0, 2, 2)).dims == (2, 2, 2)

    def test_only_the_run_values_are_settable(self):
        names = [f.name for f in dataclasses.fields(SuiteConfig)]
        assert names == ["trials", "dims", "seed", "tol"]

    def test_defaults(self):
        """Every grid check runs at exactly the fixed grid of its family."""
        reports = run_suites(SUITE_NAMES, SuiteConfig(trials=2, seed=7))
        orders = {}
        for r in (r for report in reports for r in report.records):
            orders.setdefault((r.check, r.trial), []).append(r.alpha)
        checks = {check for check, _ in orders}
        assert PLAIN_GRID_CHECKS | SANDWICHED_GRID_CHECKS <= checks
        for (check, _), alphas in orders.items():
            if check in PLAIN_GRID_CHECKS:
                assert tuple(alphas) == PETZ_ALPHA_GRID, check
            if check in SANDWICHED_GRID_CHECKS:
                assert tuple(alphas) == SANDWICHED_ALPHA_GRID, check

    def test_validation(self):
        with pytest.raises(ValidationError):
            SuiteConfig(trials=0)
        with pytest.raises(ValidationError):
            SuiteConfig(tol=0.0)
        with pytest.raises(ValidationError) as info:
            SuiteConfig(seed=-1)
        assert info.value.reason == "bad-spec"

    @pytest.mark.parametrize("field", ["trials", "seed"])
    def test_non_integral_count(self, field):
        with pytest.raises(ValidationError) as info:
            SuiteConfig(**{field: 1.5})
        assert info.value.reason == "bad-spec"

    @pytest.mark.parametrize("tol", [math.nan, math.inf, -math.inf])
    def test_non_finite_tol(self, tol):
        with pytest.raises(ValidationError) as info:
            SuiteConfig(tol=tol)
        assert info.value.reason == "bad-spec"


class TestGoldenReport:
    def test_report_matches_recorded(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        assert main(["verify", "--suite", "all", "--dims", "2,2,2", "--trials", "3",
                     "--seed", "42", "--json", str(out)]) == 0
        got = json.loads(out.read_text())["reports"]
        with open(GOLDEN_REPORT, encoding="utf-8") as handle:
            want = json.load(handle)["reports"]
        assert [r["suite"] for r in got] == [r["suite"] for r in want]
        for mine, theirs in zip(got, want):
            assert mine["config"] == theirs["config"]
            assert mine["all_pass"] == theirs["all_pass"]
            assert len(mine["records"]) == len(theirs["records"])
            for a, b in zip(mine["records"], theirs["records"]):
                for key in ("check", "trial", "seed", "alpha", "passed"):
                    assert a[key] == b[key], (key, b)
                for key in ("value", "bound", "slack"):
                    assert abs(a[key] - b[key]) <= 1e-12, (key, b)


class TestTrivialSubsystem:
    """With A, B or C one-dimensional the product formula is exact."""

    @pytest.mark.parametrize("dims", [(1, 2, 2), (2, 1, 2), (2, 2, 1)])
    def test_limits_pass(self, dims):
        report = limit_suite(SuiteConfig(trials=10, dims=dims, seed=0))
        assert report.all_pass, report.failures[:3]
        monotone = [r for r in report.records if r.check == "lie-trotter-monotone"]
        assert len(monotone) == 20
        assert all(r.bound == 1e-10 and r.value <= 1e-10 for r in monotone)

    @pytest.mark.parametrize("dims", ["1,2,2", "2,1,2", "2,2,1"])
    def test_one_trial_makes_152_checks(self, dims, capsys):
        assert main(["verify", "--suite", "all", "--dims", dims, "--trials", "1",
                     "--seed", "0"]) == 0
        out = capsys.readouterr().out
        counts = [line for line in out.splitlines() if ": PASS (" in line]
        assert sum(int(line.split("(")[1].split()[0]) for line in counts) == 152


def test_output_fixed_point_of_seed_872(capsys):
    """A one-trial verify on seed 872 failed sufficiency-output-fixed-point
    (worst slack -3.33e-08): the operator closed through its formed product
    dropped an eigenvalue that its factor keeps."""
    assert main(["verify", "--suite", "all", "--dims", "2,2,2", "--trials", "1",
                 "--seed", "872"]) == 0
    assert "FAIL" not in capsys.readouterr().out


@pytest.mark.parametrize(
    "suite_fn",
    [trace_inequality_suite, characterization_suite, limit_suite, inequality_suite],
)
class TestSuitesPass:
    def test_all_pass(self, suite_fn):
        report = suite_fn(SMALL)
        assert report.all_pass, report.failures[:3]
        assert report.records

    def test_deterministic(self, suite_fn):
        first = suite_fn(SMALL)
        second = suite_fn(SMALL)
        assert first.to_json() == second.to_json()


class TestReport:
    def test_worst_slack_is_minimum(self):
        report = limit_suite(SMALL)
        assert report.worst_slack == min(r.slack for r in report.records)

    def test_table_mentions_every_check(self):
        report = trace_inequality_suite(SMALL)
        table = report.to_table()
        for name in {r.check for r in report.records}:
            assert name in table
        assert "PASS" in table

    def test_json_round_trip(self):
        import json

        report = inequality_suite(SMALL)
        payload = json.loads(report.to_json())
        assert payload["all_pass"] is True
        assert len(payload["records"]) == len(report.records)

    def test_seed_changes_records(self):
        a = limit_suite(SuiteConfig(trials=2, seed=0))
        b = limit_suite(SuiteConfig(trials=2, seed=999))
        assert a.to_json() != b.to_json()


class TestScreening:
    def test_screened_triples_are_far_from_recoverable(self):
        for trial in range(5):
            triple = _screened_nonsufficient_triple(SMALL, trial)
            _, d_rho, _ = is_sufficient_petz(triple)
            assert d_rho >= SCREEN_DISTANCE

    @pytest.mark.parametrize("seed", [42, 7])
    @pytest.mark.parametrize("trial", [0, 1, 2])
    def test_screened_stream_is_not_the_trial_stream(self, monkeypatch, seed, trial):
        # SeedSequence((s, 0, 0)) gives default_rng(s)'s stream, so an untagged
        # first attempt of trial 0 would redraw the inequality suite's triple
        starts = []
        draw = qmarkov.suites._random_triple

        def spy(rng):
            starts.append(rng.bit_generator.state["state"])
            return draw(rng)

        monkeypatch.setattr(qmarkov.suites, "_random_triple", spy)
        _screened_nonsufficient_triple(SuiteConfig(trials=3, seed=seed), trial)
        assert starts[0] != np.random.default_rng(seed + trial).bit_generator.state["state"]


def _eigh_inputs(monkeypatch):
    """Digests of every np.linalg.eigh input, in call order."""
    digests = []
    eigh = np.linalg.eigh

    def spy(a, *args, **kwargs):
        arr = np.ascontiguousarray(a)
        digests.append((arr.shape, arr.dtype.str, hashlib.sha256(arr.tobytes()).hexdigest()))
        return eigh(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "eigh", spy)
    return digests


class TestSharedDraws:
    """``run_suites`` makes each shared draw once and decomposes it once."""

    @pytest.mark.parametrize("seed", [42, 43, 44])
    def test_no_input_is_decomposed_twice(self, monkeypatch, seed):
        digests = _eigh_inputs(monkeypatch)
        run_suites(SUITE_NAMES, SuiteConfig(trials=1, seed=seed))
        assert digests and len(digests) == len(set(digests))

    def test_nothing_is_shared_between_calls(self, monkeypatch):
        digests = _eigh_inputs(monkeypatch)
        run_suites(SUITE_NAMES, SuiteConfig(trials=1, seed=42))
        first = list(digests)
        run_suites(SUITE_NAMES, SuiteConfig(trials=1, seed=42))
        assert digests[len(first):] == first

    def test_reports_do_not_depend_on_order_or_company(self):
        cfg = SuiteConfig(trials=2, seed=42)
        forward = {r.suite: r.to_json() for r in run_suites(SUITE_NAMES, cfg)}
        backward = {r.suite: r.to_json() for r in run_suites(SUITE_NAMES[::-1], cfg)}
        alone = {name: run_suite(name, cfg).to_json() for name in SUITE_NAMES}
        direct = {r.suite: r.to_json() for r in (
            trace_inequality_suite(cfg), characterization_suite(cfg),
            limit_suite(cfg), inequality_suite(cfg))}
        assert list(forward) == list(SUITE_NAMES)
        assert forward == backward == alone == direct

    def test_each_drawn_operator_is_validated_once(self, monkeypatch):
        """A random draw is validated where it becomes an operator, and only
        there: the block draws of a spec by the spec, the concavity mixtures
        not at all, so a one-trial verify validates 32 operators.  The
        inequality suite's triple is a draw of its own, apart from every
        screened triple, so its rho and sigma count too."""
        validated = qmarkov.states._validated_eigs
        calls = []

        def counting(matrix):
            calls.append(matrix.shape)
            return validated(matrix)

        monkeypatch.setattr(qmarkov.states, "_validated_eigs", counting)
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["verify", "--suite", "all", "--dims", "2,2,2",
                         "--trials", "1", "--seed", "42"]) == 0
        assert len(calls) == 32

    def test_draws_die_with_their_trial(self, monkeypatch):
        """When a trial opens with its random state, the state and triple
        that opened the trial before are gone."""
        cfg = SuiteConfig(trials=3, seed=42)
        openings = {repr(np.random.default_rng(cfg.seed + t).bit_generator.state)
                    for t in range(cfg.trials)}
        held = []  # weak references to every opening state and triple so far
        alive = []  # how many of them were alive as each trial opened
        pending = []  # an opening state whose triple is still to come
        draw_state, draw_triple = qmarkov.suites._random_state, qmarkov.suites._random_triple

        def state(config, rng):
            opening = repr(rng.bit_generator.state) in openings
            if opening:
                alive.append(sum(ref() is not None for ref in held))
            made = draw_state(config, rng)
            if opening:
                held.append(weakref.ref(made))
                pending.append(True)
            return made

        def triple(rng):
            made = draw_triple(rng)
            if pending:
                held.append(weakref.ref(made))
                pending.clear()
            return made

        monkeypatch.setattr(qmarkov.suites, "_random_state", state)
        monkeypatch.setattr(qmarkov.suites, "_random_triple", triple)
        run_suites(SUITE_NAMES, cfg)
        assert len(held) == 2 * cfg.trials
        assert alive == [0] * cfg.trials

    def test_unknown_name_runs_nothing(self, monkeypatch):
        digests = _eigh_inputs(monkeypatch)
        with pytest.raises(ValidationError):
            run_suites(("trace", "nope"), SMALL)
        assert digests == []


class TestRunners:
    def test_unknown_suite(self):
        with pytest.raises(ValidationError):
            run_suite("nope", SMALL)

    def test_run_all(self):
        reports = run_suites(("trace", "limits"), SMALL)
        assert [r.suite for r in reports] == ["trace", "limits"]

    def test_extra_state_records(self):
        state = TripartiteState(random_density((2, 2, 2), seed=3))
        with_extra = trace_inequality_suite(SMALL, extra_state=state)
        without = trace_inequality_suite(SMALL)
        assert len(with_extra.records) > len(without.records)
        assert any(r.trial == -1 for r in with_extra.records)
        assert with_extra.all_pass
