"""Batch verification suites over random and constructed instances.

Each suite draws seeded instances, evaluates a family of inequalities or
identities, and returns a report of per-check records.  Reports are
deterministic functions of (config, suite name).  ``run_suites`` runs trial
by trial, and each named suite's part of a trial in turn.  Trial t draws
from ``default_rng(seed + t)``: the trace and limits suites open it with the
same two draws, a random state and then a random triple, which are made once
and handed to both, and each continues its own copy of the generator after
them; the characterization and inequality suites each start a fresh one.
Attempt a of trial t's screened non-sufficient triple draws from
``default_rng(SeedSequence((seed, t, a, 1)))``.  Nothing drawn outlives its
trial.

The protocol is fixed apart from the four ``SuiteConfig`` values: the plain
Renyi families are checked at PETZ_ALPHA_GRID, the sandwiched ones at
SANDWICHED_ALPHA_GRID, random triples map C^4 to C^3 (CHANNEL_DIMS), exact
inequalities may fail by at most SLACK_FLOOR, and the order-1 limits at
alpha = 1 +- 1e-4 must hold within LIMIT_TOL.

Each check group evaluates an order grid with one grid call per family and
object (``renyi_rel_ent_diff_grid`` and the like), which equals the loop over
orders bit for bit; a state is read as its CMI triple, so the Renyi and
sandwiched CMI are the difference grids evaluated on the state.

Slack semantics: every record stores the signed margin by which its check is
satisfied (bound minus value for upper bounds, value minus bound for lower
bounds), so a negative slack beyond the check's floor is a failure.
"""

from __future__ import annotations

import copy
import json
from dataclasses import asdict, dataclass, field
from typing import Callable, Iterable

import numpy as np

from .channels import random_strict_channel
from .divergences import min_rel_entropy
from .errors import ValidationError
from .functionals import (
    channel_trace_value_grid,
    exp_trace_channel_value,
    lie_trotter_deviation_grid,
    output_fixed_point_residual_grid,
    recovery_fixed_point_residual_grid,
    sandwiched_fixed_point_residual_grid,
)
from .linalg import (
    check_count,
    check_real,
    hermitian_eig,
    hermitian_part,
    real_traces,
    subsystem_dims,
)
from .measures import (
    PETZ_ALPHA_GRID,
    SANDWICHED_ALPHA_GRID,
    ChannelTriple,
    TripartiteState,
    minmax_cmi,
    minmax_rel_ent_diff,
    rel_ent_diff,
    renyi_rel_ent_diff_grid,
    renyi_rel_entropy_grid,
    sandwiched_rel_ent_diff_grid,
    sandwiched_rel_entropy,
    sandwiched_rel_entropy_grid,
    von_neumann_cmi,
)
from .states import Decomposed, DensityOperator, _random_density_matrix, random_density
from .structured import (
    build_markov_chain,
    build_sufficiency_triple,
    is_sufficient_petz,
    random_markov_spec,
    random_sufficiency_spec,
)

CONVERSE_FLOOR = 1e-6  # empirical positivity threshold for non-sufficient instances
SCREEN_DISTANCE = 1e-3  # random triples closer than this to recoverable are redrawn
CHANNEL_DIMS = (4, 3)  # input and output dimension of the random triples
SLACK_FLOOR = 1e-9  # allowed negative margin on exact inequalities
LIMIT_TOL = 1e-3  # distance to the von Neumann quantities at alpha = 1 +- 1e-4
LIMIT_ORDERS = (1.0 - 1e-4, 1.0 + 1e-4)
EXACT_TROTTER_BOUND = 1e-10  # product-formula deviation counted as exact
MONOTONE_FLOOR = 1e-12  # allowed growth of a shrinking product-formula deviation


@dataclass(frozen=True)
class SuiteConfig:
    """The four settable values of a run; ``tol`` bounds structural-identity
    residuals."""

    trials: int = 25
    dims: tuple[int, ...] = (2, 2, 2)
    seed: int = 0
    tol: float = 1e-8

    def __post_init__(self):
        check_count(self.trials, "trials")
        check_count(self.seed, "seed", low=0)
        if not 0.0 < check_real(self.tol, "tol"):
            raise ValidationError("bad-spec", f"tol must be positive, got {self.tol}")
        object.__setattr__(self, "dims", subsystem_dims(self.dims))


@dataclass(frozen=True)
class CheckRecord:
    check: str
    trial: int
    seed: int
    alpha: float | None
    value: float
    bound: float
    slack: float
    passed: bool


@dataclass
class VerificationReport:
    suite: str
    config: SuiteConfig
    records: list[CheckRecord] = field(default_factory=list)

    @property
    def worst_slack(self) -> float:
        return min((r.slack for r in self.records), default=float("inf"))

    @property
    def all_pass(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def failures(self) -> list[CheckRecord]:
        return [r for r in self.records if not r.passed]

    def to_dict(self) -> dict:
        # the report also states the fixed protocol: a null alpha_grid means
        # the two default grids, eps_regularize 0 that states are unmixed
        config = {
            **asdict(self.config),
            "dims": list(self.config.dims),
            "alpha_grid": None,
            "eps_regularize": 0.0,
            "channel_dims": list(CHANNEL_DIMS),
            "slack_floor": SLACK_FLOOR,
            "limit_tol": LIMIT_TOL,
        }
        return {
            "suite": self.suite,
            "config": config,
            "records": [asdict(r) for r in self.records],
            "worst_slack": self.worst_slack,
            "all_pass": self.all_pass,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True)

    def to_table(self) -> str:
        groups: dict[str, list[CheckRecord]] = {}
        for r in self.records:
            groups.setdefault(r.check, []).append(r)
        lines = [
            f"suite {self.suite}: trials={self.config.trials} "
            f"dims={'x'.join(str(d) for d in self.config.dims)} seed={self.config.seed}",
            f"{'check':<42} {'n':>6} {'fail':>5} {'worst_slack':>14}",
        ]
        for name, recs in groups.items():
            fails = sum(1 for r in recs if not r.passed)
            worst = min(r.slack for r in recs)
            lines.append(f"{name:<42} {len(recs):>6} {fails:>5} {worst:>+14.5e}")
        verdict = "PASS" if self.all_pass else "FAIL"
        lines.append(
            f"suite {self.suite}: {verdict} "
            f"({len(self.records)} checks, worst slack {self.worst_slack:+.5e})"
        )
        return "\n".join(lines)


class _Recorder:
    def __init__(self, suite: str, cfg: SuiteConfig):
        self.report = VerificationReport(suite=suite, config=cfg)

    def upper(self, check, trial, seed, alpha, value, bound, floor):
        """Record a check of the form value <= bound (+ floor)."""
        slack = bound - value
        self.report.records.append(
            CheckRecord(check, trial, seed, alpha, float(value), float(bound),
                        float(slack), bool(slack >= -floor))
        )

    def lower(self, check, trial, seed, alpha, value, bound, floor):
        """Record a check of the form value >= bound (- floor)."""
        slack = value - bound
        self.report.records.append(
            CheckRecord(check, trial, seed, alpha, float(value), float(bound),
                        float(slack), bool(slack >= -floor))
        )


def _random_state(cfg: SuiteConfig, rng) -> TripartiteState:
    return TripartiteState(random_density(cfg.dims, seed=rng))


def _random_triple(rng) -> ChannelTriple:
    d_in, d_out = CHANNEL_DIMS
    rho = random_density((d_in,), seed=rng)
    sigma = random_density((d_in,), seed=rng)
    channel = random_strict_channel(d_in, d_out, seed=int(rng.integers(2**63)))
    return ChannelTriple(rho=rho, sigma=sigma, channel=channel)


def _markov_block_menu(rng) -> tuple[tuple[int, int], ...]:
    choices = (((2, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1), (2, 1)), ((1, 1), (1, 1)))
    return choices[int(rng.integers(len(choices)))]


def _sufficiency_block_menu(rng) -> tuple[tuple[int, int, int], ...]:
    choices = (
        ((2, 2, 2), (1, 2, 2)),
        ((1, 2, 2), (2, 2, 2)),
        ((2, 2, 1), (1, 2, 2)),
        ((1, 2, 3), (2, 2, 2)),
    )
    return choices[int(rng.integers(len(choices)))]


def _screened_nonsufficient_triple(cfg: SuiteConfig, trial: int) -> ChannelTriple:
    """Random triple whose Petz round trip fails by at least SCREEN_DISTANCE.

    Triples that happen to be (nearly) recoverable are discarded and redrawn
    from a deterministic per-attempt stream.
    """
    for attempt in range(64):
        # the tag 1 sets these streams apart: SeedSequence((s, 0, 0)) is default_rng(s)'s
        rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, trial, attempt, 1)))
        triple = _random_triple(rng)
        _, d_rho, _ = is_sufficient_petz(triple)
        if d_rho >= SCREEN_DISTANCE:
            return triple
    raise ValidationError("bad-spec", "could not draw a non-sufficient triple")


def trace_inequality_suite(
    cfg: SuiteConfig, extra_state: TripartiteState | None = None
) -> VerificationReport:
    """Certify the four trace bounds and their exponential limits.

    On random states and triples the recovered-chain traces stay at or below
    one; on constructed Markov chains and sufficiency triples they equal one.
    """
    return run_suite("trace", cfg, extra_state)


def trace_trial(rec, cfg, trial, rng, state, triple):
    """One trial of ``trace_inequality_suite``, on the trial's opening draws."""
    seed_t = cfg.seed + trial
    _trace_bounds(rec, state, "cmi", trial, seed_t)
    _trace_bounds(rec, triple, "channel", trial, seed_t)
    # equality cases: constructed recoverable instances sit exactly at 1
    markov = build_markov_chain(random_markov_spec(2, 2, _markov_block_menu(rng), seed=rng))
    _trace_equalities(rec, cfg, markov, "markov", trial, seed_t)
    suff = build_sufficiency_triple(
        random_sufficiency_spec(_sufficiency_block_menu(rng), seed=rng)
    )
    _trace_equalities(rec, cfg, suff, "sufficiency", trial, seed_t)


def _trace_bounds(rec, x, kind, trial, seed_t):
    """Trace bounds of a triple, or of a state read as its CMI triple."""
    plain = channel_trace_value_grid(x, PETZ_ALPHA_GRID, sandwiched=False)
    for a, value in zip(PETZ_ALPHA_GRID, plain):
        rec.upper(f"{kind}-trace-plain", trial, seed_t, a, value, 1.0, SLACK_FLOOR)
    sandwiched = channel_trace_value_grid(x, SANDWICHED_ALPHA_GRID, sandwiched=True)
    for a, value in zip(SANDWICHED_ALPHA_GRID, sandwiched):
        rec.upper(f"{kind}-trace-sandwiched", trial, seed_t, a, value, 1.0, SLACK_FLOOR)
    rec.upper(f"exp-trace-{kind}", trial, seed_t, None,
              exp_trace_channel_value(x), 1.0, SLACK_FLOOR)


def _trace_equalities(rec, cfg, x, kind, trial, seed_t):
    """The traces of a recoverable triple or Markov chain equal one."""
    plain = channel_trace_value_grid(x, PETZ_ALPHA_GRID, sandwiched=False)
    for a, value in zip(PETZ_ALPHA_GRID, plain):
        rec.upper(f"{kind}-trace-equality", trial, seed_t, a,
                  abs(value - 1.0), cfg.tol, 0.0)
    sandwiched = channel_trace_value_grid(x, SANDWICHED_ALPHA_GRID, sandwiched=True)
    for a, value in zip(SANDWICHED_ALPHA_GRID, sandwiched):
        rec.upper(f"{kind}-trace-equality-sandwiched", trial, seed_t, a,
                  abs(value - 1.0), cfg.tol, 0.0)


def characterization_suite(cfg: SuiteConfig) -> VerificationReport:
    """Certify the zero-iff-recoverable characterizations in both directions.

    Constructed sufficiency triples must drive every difference measure and
    every fixed-point residual to zero; screened random triples must keep all
    of them strictly positive.
    """
    return run_suite("characterization", cfg)


def characterization_trial(rec, cfg, trial, rng):
    """One trial of ``characterization_suite``."""
    seed_t = cfg.seed + trial
    suff = build_sufficiency_triple(
        random_sufficiency_spec(_sufficiency_block_menu(rng), seed=rng)
    )
    # the plain difference is checked on its certified grid only: beyond
    # alpha = 2 its exponents amplify round-off past any useful tolerance
    rows = zip(PETZ_ALPHA_GRID, renyi_rel_ent_diff_grid(suff, PETZ_ALPHA_GRID),
               output_fixed_point_residual_grid(suff, PETZ_ALPHA_GRID))
    for a, diff, residual in rows:
        rec.upper("sufficiency-renyi-diff-zero", trial, seed_t, a,
                  abs(diff), cfg.tol, 0.0)
        rec.upper("sufficiency-output-fixed-point", trial, seed_t, a,
                  residual, cfg.tol, 0.0)
    rows = zip(SANDWICHED_ALPHA_GRID,
               sandwiched_rel_ent_diff_grid(suff, SANDWICHED_ALPHA_GRID),
               sandwiched_fixed_point_residual_grid(suff, SANDWICHED_ALPHA_GRID))
    for a, diff, residual in rows:
        rec.upper("sufficiency-sandwiched-diff-zero", trial, seed_t, a,
                  abs(diff), cfg.tol, 0.0)
        rec.upper("sufficiency-sandwiched-fixed-point", trial, seed_t, a,
                  residual, cfg.tol, 0.0)
    residuals = recovery_fixed_point_residual_grid(suff, PETZ_ALPHA_GRID)
    for a, residual in zip(PETZ_ALPHA_GRID, residuals):
        rec.upper("sufficiency-recovery-fixed-point", trial, seed_t, a,
                  residual, cfg.tol, 0.0)
    for kind in ("min", "max"):
        rec.upper(f"sufficiency-{kind}-diff-zero", trial, seed_t, None,
                  abs(minmax_rel_ent_diff(suff, kind)), cfg.tol, 0.0)

    hard = _screened_nonsufficient_triple(cfg, trial)
    rec.lower("nonsufficient-renyi-diff-positive", trial, seed_t, None,
              max(renyi_rel_ent_diff_grid(hard, PETZ_ALPHA_GRID)),
              CONVERSE_FLOOR, 0.0)
    rec.lower("nonsufficient-sandwiched-diff-positive", trial, seed_t, None,
              max(sandwiched_rel_ent_diff_grid(hard, SANDWICHED_ALPHA_GRID)),
              CONVERSE_FLOOR, 0.0)
    rec.lower("nonsufficient-fixed-point-positive", trial, seed_t, None,
              max(recovery_fixed_point_residual_grid(hard, PETZ_ALPHA_GRID)),
              CONVERSE_FLOOR, 0.0)


def limit_suite(cfg: SuiteConfig) -> VerificationReport:
    """Certify alpha -> 1 limits and the product-formula convergence."""
    return run_suite("limits", cfg)


def limits_trial(rec, cfg, trial, rng, state, triple):
    """One trial of ``limit_suite``, on the trial's opening draws."""
    seed_t = cfg.seed + trial
    vn = von_neumann_cmi(state)
    rows = zip(LIMIT_ORDERS, renyi_rel_ent_diff_grid(state, LIMIT_ORDERS),
               sandwiched_rel_ent_diff_grid(state, LIMIT_ORDERS))
    for a, renyi, sandwiched in rows:
        rec.upper("renyi-cmi-limit", trial, seed_t, a,
                  abs(renyi - vn), LIMIT_TOL, 0.0)
        rec.upper("sandwiched-cmi-limit", trial, seed_t, a,
                  abs(sandwiched - vn), LIMIT_TOL, 0.0)

    diff = rel_ent_diff(triple)
    for a, renyi in zip(LIMIT_ORDERS, renyi_rel_ent_diff_grid(triple, LIMIT_ORDERS)):
        rec.upper("renyi-diff-limit", trial, seed_t, a,
                  abs(renyi - diff), LIMIT_TOL, 0.0)

    # 1 -+ 10^-k for k = 1..4, below 1 first
    trotter_orders = [1.0 + sign * 10.0**-k for sign in (-1.0, 1.0) for k in range(1, 5)]
    trotter = lie_trotter_deviation_grid(state, trotter_orders)
    for sign, deviations in ((-1.0, trotter[:4]), (1.0, trotter[4:])):
        if deviations[0] <= EXACT_TROTTER_BOUND:
            # sigma and N†(...) commute (e.g. a trivial subsystem), so the
            # formula is exact and the deviations are round-off
            rec.upper("lie-trotter-monotone", trial, seed_t, 1.0 + sign * 0.1,
                      max(deviations), EXACT_TROTTER_BOUND, 0.0)
            continue
        margin = min(
            deviations[k] - deviations[k + 1] for k in range(len(deviations) - 1)
        )
        rec.lower("lie-trotter-monotone", trial, seed_t, 1.0 + sign * 0.1,
                  margin, 0.0, MONOTONE_FLOOR)

    # commuting case: the product formula is exact at any order
    diag_state = TripartiteState(
        DensityOperator(np.diag(rng.dirichlet(np.ones(int(np.prod(cfg.dims))))),
                        cfg.dims)
    )
    for a, deviation in zip((0.5, 2.0), lie_trotter_deviation_grid(diag_state, (0.5, 2.0))):
        rec.upper("diagonal-lie-trotter-exact", trial, seed_t, a,
                  deviation, EXACT_TROTTER_BOUND, 0.0)

    pair_rho = random_density((CHANNEL_DIMS[0],), seed=rng)
    pair_sigma = random_density((CHANNEL_DIMS[0],), seed=rng)
    rec.upper("sandwiched-half-is-min", trial, seed_t, 0.5,
              abs(sandwiched_rel_entropy(pair_rho, pair_sigma, 0.5)
                  - min_rel_entropy(pair_rho, pair_sigma)),
              1e-9, 0.0)


def inequality_suite(cfg: SuiteConfig) -> VerificationReport:
    """Certify data processing, concavity, the order relation between the two
    Renyi difference families, and non-negativity of all eight measures."""
    return run_suite("inequalities", cfg)


def inequality_trial(rec, cfg, trial, rng):
    """One trial of ``inequality_suite``."""
    seed_t = cfg.seed + trial
    triple = _random_triple(rng)
    rho, sigma = triple.rho, triple.sigma
    # the triple's own decompositions, so each output is decomposed once
    out_rho = Decomposed(triple.out_rho, triple.out_rho_spectrum)
    out_sigma = Decomposed(triple.out_sigma, triple.out_sigma_spectrum)
    rows = zip(PETZ_ALPHA_GRID, renyi_rel_entropy_grid(rho, sigma, PETZ_ALPHA_GRID),
               renyi_rel_entropy_grid(out_rho, out_sigma, PETZ_ALPHA_GRID))
    for a, before, after in rows:
        rec.lower("dpi-renyi", trial, seed_t, a, before - after, 0.0, SLACK_FLOOR)
    rows = zip(SANDWICHED_ALPHA_GRID,
               sandwiched_rel_entropy_grid(rho, sigma, SANDWICHED_ALPHA_GRID),
               sandwiched_rel_entropy_grid(out_rho, out_sigma, SANDWICHED_ALPHA_GRID))
    for a, before, after in rows:
        rec.lower("dpi-sandwiched", trial, seed_t, a, before - after, 0.0, SLACK_FLOOR)

    # concavity of B -> Tr{(A B^p A†)^(1/p)} on two-point mixtures
    dim = CHANNEL_DIMS[0]
    a_mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    b_one = _random_density_matrix((dim,), seed=rng)
    b_two = _random_density_matrix((dim,), seed=rng)
    lam = float(rng.uniform(0.2, 0.8))
    mixed, one, two = (hermitian_eig(b) for b in
                       (lam * b_one + (1.0 - lam) * b_two, b_one, b_two))
    powers = (0.3, 0.7, -0.3, -0.7)

    def functional(b):
        cores = hermitian_part(a_mat @ b.powers(powers) @ a_mat.conj().T)
        return real_traces(np.stack([hermitian_eig(core).power(1.0 / p)
                                     for core, p in zip(cores, powers)]))

    rows = zip(powers, functional(mixed), functional(one), functional(two))
    for p, at_mixed, at_one, at_two in rows:
        gap = float(at_mixed) - lam * float(at_one) - (1.0 - lam) * float(at_two)
        rec.lower("power-trace-concavity", trial, seed_t, p, gap, 0.0, SLACK_FLOOR)

    # the dominance check reads the sandwiched values at 1.5, 2 and 3 from
    # the grid the non-negativity check records below
    sandwiched_diff = dict(zip(
        SANDWICHED_ALPHA_GRID, sandwiched_rel_ent_diff_grid(triple, SANDWICHED_ALPHA_GRID)
    ))
    dominated = (1.5, 2.0, 3.0)
    gammas = [(2.0 * a - 1.0) / a for a in dominated]
    for a, substituted in zip(dominated, renyi_rel_ent_diff_grid(triple, gammas)):
        rec.lower("sandwiched-dominates-substituted", trial, seed_t, a,
                  sandwiched_diff[a] - substituted, 0.0, SLACK_FLOOR)

    state = _random_state(cfg, rng)
    rows = zip(PETZ_ALPHA_GRID, renyi_rel_ent_diff_grid(state, PETZ_ALPHA_GRID),
               renyi_rel_ent_diff_grid(triple, PETZ_ALPHA_GRID))
    for a, cmi, diff in rows:
        rec.lower("nonneg-renyi-cmi", trial, seed_t, a, cmi, 0.0, SLACK_FLOOR)
        rec.lower("nonneg-renyi-diff", trial, seed_t, a, diff, 0.0, SLACK_FLOOR)
    cmis = sandwiched_rel_ent_diff_grid(state, SANDWICHED_ALPHA_GRID)
    for a, cmi in zip(SANDWICHED_ALPHA_GRID, cmis):
        rec.lower("nonneg-sandwiched-cmi", trial, seed_t, a, cmi, 0.0, SLACK_FLOOR)
        rec.lower("nonneg-sandwiched-diff", trial, seed_t, a,
                  sandwiched_diff[a], 0.0, SLACK_FLOOR)
    for kind in ("min", "max"):
        rec.lower(f"nonneg-{kind}-cmi", trial, seed_t, None,
                  minmax_cmi(state, kind), 0.0, SLACK_FLOOR)
        rec.lower(f"nonneg-{kind}-diff", trial, seed_t, None,
                  minmax_rel_ent_diff(triple, kind), 0.0, SLACK_FLOOR)


_SUITES: dict[str, Callable[..., None]] = {
    "trace": trace_trial,
    "characterization": characterization_trial,
    "limits": limits_trial,
    "inequalities": inequality_trial,
}
SUITE_NAMES = tuple(_SUITES)
_OPENED = ("trace", "limits")  # the suites that open each trial with a state and a triple


def run_suite(name: str, cfg: SuiteConfig, extra_state=None) -> VerificationReport:
    """Run one suite; ``extra_state`` is a fixed instance the trace suite adds."""
    return run_suites((name,), cfg, extra_state)[0]


def run_suites(names: Iterable[str], cfg: SuiteConfig, extra_state=None) -> list[VerificationReport]:
    """Run the named suites trial by trial (see the module docstring); the
    reports come in the order of ``names`` and equal those of each suite run
    alone."""
    names = list(names)
    for name in names:
        if name not in _SUITES:
            raise ValidationError("bad-spec", f"unknown suite {name!r}")
    recs = [_Recorder(name, cfg) for name in names]
    for name, rec in zip(names, recs):
        if name == "trace" and extra_state is not None:
            _trace_bounds(rec, extra_state, "cmi", -1, cfg.seed)
    for trial in range(cfg.trials):
        _run_trial(names, recs, cfg, trial)
    return [rec.report for rec in recs]


def _run_trial(names, recs, cfg, trial):
    """Trial ``trial`` of each named suite; its draws die when this returns."""
    rng = np.random.default_rng(cfg.seed + trial)
    opening = ()
    if any(name in _OPENED for name in names):
        opening = (_random_state(cfg, rng), _random_triple(rng))
    for name, rec in zip(names, recs):
        if name in _OPENED:
            _SUITES[name](rec, cfg, trial, copy.deepcopy(rng), *opening)
        else:
            _SUITES[name](rec, cfg, trial, np.random.default_rng(cfg.seed + trial))
