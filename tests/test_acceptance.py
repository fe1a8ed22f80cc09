"""Acceptance criteria, one test per criterion.

Each test evaluates its criterion at the stated tolerance over the stated
number of seeded instances and prints a single pass/fail line (run with -s
to see them).  Tolerances are pinned here and nowhere else.
"""

import subprocess
import sys
import time

import numpy as np

import classical_oracles as co
import qmarkov as qm
from qmarkov.functionals import (
    channel_trace_value,
    exp_trace_channel_value,
    lie_trotter_deviation,
    output_fixed_point_residual,
    recovery_fixed_point_residual,
    sandwiched_fixed_point_residual,
)

PETZ_GRID = qm.PETZ_ALPHA_GRID
SAND_GRID = qm.SANDWICHED_ALPHA_GRID


def _criterion(number, description, ok, detail=""):
    tag = "PASS" if ok else "FAIL"
    print(f"[{tag}] criterion {number:2d}: {description} {detail}".rstrip())
    assert ok, f"criterion {number} failed: {description} {detail}"


def _random_state(seed):
    return qm.TripartiteState(qm.random_density((2, 2, 2), seed=seed))


def _random_triple(seed):
    return qm.ChannelTriple(
        rho=qm.random_density((4,), seed=seed),
        sigma=qm.PositiveOperator(qm.random_density((4,), seed=seed + 10_000).matrix),
        channel=qm.random_strict_channel(4, 3, seed=seed),
    )


def _classical_instance(seed, d_in=4, d_out=3):
    rng = np.random.default_rng(seed)
    p = rng.dirichlet(np.ones(d_in))
    q = rng.dirichlet(np.ones(d_in))
    t = rng.dirichlet(np.ones(d_out), size=d_in).T
    kraus = tuple(
        np.sqrt(t[y, x]) * np.outer(np.eye(d_out)[y], np.eye(d_in)[x])
        for y in range(d_out)
        for x in range(d_in)
    )
    triple = qm.ChannelTriple(
        rho=qm.DensityOperator(np.diag(p)),
        sigma=qm.PositiveOperator(np.diag(q)),
        channel=qm.Channel(kraus),
    )
    return triple, p, q, t


def test_criterion_1_trace_inequalities():
    start = time.time()
    worst = -np.inf
    for seed in range(100):
        state = _random_state(seed)
        for a in PETZ_GRID:
            worst = max(worst, channel_trace_value(state, a, sandwiched=False) - 1.0)
        for a in SAND_GRID:
            worst = max(worst, channel_trace_value(state, a, sandwiched=True) - 1.0)
    for seed in range(100):
        triple = _random_triple(seed)
        for a in PETZ_GRID:
            worst = max(worst, channel_trace_value(triple, a, sandwiched=False) - 1.0)
        for a in SAND_GRID:
            worst = max(worst, channel_trace_value(triple, a, sandwiched=True) - 1.0)
    elapsed = time.time() - start
    _criterion(
        1,
        "trace inequalities bounded by 1 on 100 states and 100 channel triples",
        worst <= 1e-9 and elapsed <= 60.0,
        f"(worst excess {worst:+.2e}, {elapsed:.1f}s)",
    )


def test_criterion_2_exp_trace_corollaries():
    worst = -np.inf
    for seed in range(100):
        worst = max(worst, exp_trace_channel_value(_random_state(seed)) - 1.0)
    for seed in range(100):
        worst = max(worst, exp_trace_channel_value(_random_triple(seed)) - 1.0)
    _criterion(
        2,
        "exponential trace corollaries bounded by 1 on the same instance sets",
        worst <= 1e-9,
        f"(worst excess {worst:+.2e})",
    )


def test_criterion_3_markov_chain_zeroing():
    menu = (((2, 1), (1, 2)), ((1, 2), (2, 1)), ((1, 1), (2, 1)), ((2, 1), (1, 1)))
    worst_measure = 0.0
    worst_roundtrip = 0.0
    for seed in range(20):
        spec = qm.random_markov_spec(2, 2, menu[seed % len(menu)], seed=seed)
        chain = qm.build_markov_chain(spec)
        values = [abs(qm.von_neumann_cmi(chain))]
        values += [abs(qm.renyi_cmi(chain, a)) for a in PETZ_GRID]
        values += [abs(qm.sandwiched_cmi(chain, a)) for a in SAND_GRID]
        values += [abs(qm.minmax_cmi(chain, kind)) for kind in ("min", "max")]
        worst_measure = max(worst_measure, max(values))
        _, distance = qm.is_markov_petz(chain)
        worst_roundtrip = max(worst_roundtrip, distance)
    _criterion(
        3,
        "all five conditional-information measures vanish on 20 Markov chains",
        worst_measure <= 1e-8 and worst_roundtrip <= 1e-9,
        f"(worst measure {worst_measure:.2e}, worst round trip {worst_roundtrip:.2e})",
    )


def test_criterion_4_sufficiency_zeroing():
    menu = (((2, 2, 2), (1, 2, 2)), ((1, 2, 2), (2, 2, 2)), ((2, 2, 1), (1, 2, 2)))
    worst_measure = 0.0
    worst_fixed = 0.0
    for seed in range(20):
        spec = qm.random_sufficiency_spec(menu[seed % len(menu)], seed=seed)
        triple = qm.build_sufficiency_triple(spec)
        values = [abs(qm.renyi_rel_ent_diff(triple, a)) for a in PETZ_GRID]
        values += [abs(qm.sandwiched_rel_ent_diff(triple, a)) for a in SAND_GRID]
        values += [abs(qm.minmax_rel_ent_diff(triple, kind)) for kind in ("min", "max")]
        worst_measure = max(worst_measure, max(values))
        residuals = [recovery_fixed_point_residual(triple, a) for a in PETZ_GRID]
        residuals += [sandwiched_fixed_point_residual(triple, a) for a in SAND_GRID]
        residuals += [output_fixed_point_residual(triple, a) for a in PETZ_GRID]
        worst_fixed = max(worst_fixed, max(residuals))
    _criterion(
        4,
        "all four difference measures and fixed points vanish on 20 sufficiency triples",
        worst_measure <= 1e-8 and worst_fixed <= 1e-8,
        f"(worst measure {worst_measure:.2e}, worst fixed point {worst_fixed:.2e})",
    )


def test_criterion_5_converse_consistency():
    count = 0
    seed_stream = 0
    worst_plain = np.inf
    worst_sand = np.inf
    while count < 50:
        triple = _random_triple(seed_stream + 50_000)
        seed_stream += 1
        _, d_rho, _ = qm.is_sufficient_petz(triple)
        if d_rho < 0.05:
            continue
        count += 1
        worst_plain = min(
            worst_plain, max(qm.renyi_rel_ent_diff(triple, a) for a in PETZ_GRID)
        )
        worst_sand = min(
            worst_sand,
            max(qm.sandwiched_rel_ent_diff(triple, a) for a in SAND_GRID),
        )
    _criterion(
        5,
        "difference measures stay above 1e-6 on 50 screened non-sufficient triples",
        worst_plain >= 1e-6 and worst_sand >= 1e-6,
        f"(plain min {worst_plain:.2e}, sandwiched min {worst_sand:.2e})",
    )


def test_criterion_6_reduction_identity():
    worst = 0.0
    for seed in range(100):
        state = _random_state(seed)
        triple = qm.cmi_as_triple(state)
        for a in PETZ_GRID:
            worst = max(
                worst,
                abs(qm.renyi_cmi(state, a) - qm.renyi_rel_ent_diff(triple, a)),
            )
        for a in SAND_GRID:
            worst = max(
                worst,
                abs(
                    qm.sandwiched_cmi(state, a)
                    - qm.sandwiched_rel_ent_diff(triple, a)
                ),
            )
    _criterion(
        6,
        "CMI equals its difference representation on 100 states over all grid orders",
        worst <= 1e-9,
        f"(worst gap {worst:.2e})",
    )


def test_criterion_7_limits():
    worst_cmi = 0.0
    worst_diff = 0.0
    monotone = True
    for seed in range(20):
        state = _random_state(seed)
        vn = qm.von_neumann_cmi(state)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            worst_cmi = max(worst_cmi, abs(qm.renyi_cmi(state, a) - vn))
        triple = _random_triple(seed)
        diff = qm.rel_ent_diff(triple)
        for a in (1.0 - 1e-4, 1.0 + 1e-4):
            worst_diff = max(worst_diff, abs(qm.renyi_rel_ent_diff(triple, a) - diff))
        for sign in (-1.0, 1.0):
            devs = [lie_trotter_deviation(state, 1.0 + sign * 10.0**-k) for k in (1, 2, 3, 4)]
            monotone = monotone and all(
                devs[i + 1] <= devs[i] + 1e-12 for i in range(3)
            )
    _criterion(
        7,
        "limits at alpha = 1 +- 1e-4 within 1e-3 and product-formula decay monotone",
        worst_cmi <= 1e-3 and worst_diff <= 1e-3 and monotone,
        f"(cmi gap {worst_cmi:.2e}, diff gap {worst_diff:.2e})",
    )


def _fidelity_oracle(rho, sigma):
    # eigenvalues of rho sigma are the squared singular values of
    # sqrt(rho) sqrt(sigma); no fractional powers needed
    eigs = np.linalg.eigvals(rho.matrix @ sigma.matrix)
    eigs = np.clip(eigs.real, 0.0, None)
    return float(np.sum(np.sqrt(eigs)) ** 2)


def test_criterion_8_divergence_identities():
    worst_min = 0.0
    worst_half = 0.0
    certified = True
    for seed in range(100):
        rho = qm.random_density((4,), seed=seed)
        sigma = qm.random_density((4,), seed=seed + 777)
        d_min = qm.min_rel_entropy(rho, sigma)
        worst_min = max(worst_min, abs(d_min + np.log2(_fidelity_oracle(rho, sigma))))
        worst_half = max(
            worst_half, abs(d_min - qm.sandwiched_rel_entropy(rho, sigma, 0.5))
        )
        d_max = qm.max_rel_entropy(rho, sigma)
        gap = 2.0**d_max * sigma.matrix - rho.matrix
        certified = certified and np.min(np.linalg.eigvalsh(gap)) >= -1e-10
        short = 2.0 ** (d_max - 0.01) * sigma.matrix - rho.matrix
        certified = certified and np.min(np.linalg.eigvalsh(short)) < 0.0
    _criterion(
        8,
        "min-relative entropy identities and max-relative entropy certificates",
        worst_min <= 1e-10 and worst_half <= 1e-9 and certified,
        f"(fidelity gap {worst_min:.2e}, order-half gap {worst_half:.2e})",
    )


def test_criterion_9_dpi_and_appendix_bound():
    worst_dpi = np.inf
    worst_bound = np.inf
    for seed in range(100):
        rho = qm.random_density((4,), seed=seed)
        sigma = qm.random_density((4,), seed=seed + 321)
        chan = qm.random_strict_channel(4, 3, seed=seed)
        out_rho = qm.apply_channel(chan, rho.matrix)
        out_sigma = qm.apply_channel(chan, sigma.matrix)
        for a in PETZ_GRID:
            worst_dpi = min(
                worst_dpi,
                qm.renyi_rel_entropy(rho, sigma, a)
                - qm.renyi_rel_entropy(out_rho, out_sigma, a),
            )
        for a in SAND_GRID:
            worst_dpi = min(
                worst_dpi,
                qm.sandwiched_rel_entropy(rho, sigma, a)
                - qm.sandwiched_rel_entropy(out_rho, out_sigma, a),
            )
        triple = qm.ChannelTriple(
            rho=rho, sigma=qm.PositiveOperator(sigma.matrix), channel=chan
        )
        for a in (1.5, 2.0, 3.0):
            gamma = (2.0 * a - 1.0) / a
            worst_bound = min(
                worst_bound,
                qm.sandwiched_rel_ent_diff(triple, a)
                - qm.renyi_rel_ent_diff(triple, gamma),
            )
    _criterion(
        9,
        "data processing under 100 channels and the order-substitution bound",
        worst_dpi >= -1e-9 and worst_bound >= -1e-9,
        f"(dpi slack {worst_dpi:+.2e}, bound slack {worst_bound:+.2e})",
    )


def test_criterion_10_classical_equivalence():
    worst = 0.0

    def track(lhs, rhs):
        nonlocal worst
        worst = max(worst, abs(lhs - rhs))

    for seed in range(25):
        rng = np.random.default_rng(seed + 1)
        p = rng.dirichlet(np.ones(8)).reshape(2, 2, 2)
        state = qm.TripartiteState(qm.DensityOperator(np.diag(p.ravel()), (2, 2, 2)))
        track(qm.von_neumann_cmi(state), co.cmi(p))
        for a in PETZ_GRID:
            track(qm.renyi_cmi(state, a), co.renyi_cmi(p, a))
        for a in SAND_GRID:
            track(qm.sandwiched_cmi(state, a), co.sandwiched_cmi(p, a))
        for kind in ("min", "max"):
            track(qm.minmax_cmi(state, kind), co.minmax_cmi(p, kind))
    for seed in range(25):
        triple, p, q, t = _classical_instance(seed + 900)
        track(qm.rel_entropy(triple.rho, triple.sigma), co.kl(p, q))
        track(qm.min_rel_entropy(triple.rho, triple.sigma), co.dmin(p, q))
        track(qm.max_rel_entropy(triple.rho, triple.sigma), co.dmax(p, q))
        track(qm.rel_ent_diff(triple), co.rel_ent_diff(p, q, t))
        for a in PETZ_GRID:
            track(qm.renyi_rel_entropy(triple.rho, triple.sigma, a), co.renyi(p, q, a))
            track(qm.renyi_rel_ent_diff(triple, a), co.renyi_diff(p, q, t, a))
        for a in SAND_GRID:
            track(
                qm.sandwiched_rel_entropy(triple.rho, triple.sigma, a),
                co.renyi(p, q, a),
            )
            track(qm.sandwiched_rel_ent_diff(triple, a), co.sandwiched_diff(p, q, t, a))
        for kind in ("min", "max"):
            track(qm.minmax_rel_ent_diff(triple, kind), co.minmax_diff(p, q, t, kind))
    _criterion(
        10,
        "every measure matches its probability-vector oracle on 50 diagonal instances",
        worst <= 1e-10,
        f"(worst gap {worst:.2e})",
    )


def test_criterion_11_cli_contract(tmp_path, src_env):
    args = [
        sys.executable, "-m", "qmarkov.cli",
        "verify", "--suite", "all", "--dims", "2,2,2",
        "--trials", "50", "--seed", "42",
    ]
    start = time.time()
    first = subprocess.run(args, capture_output=True, text=True, env=src_env)
    elapsed = time.time() - start
    second = subprocess.run(args, capture_output=True, text=True, env=src_env)
    ok = (
        first.returncode == 0
        and elapsed <= 60.0
        and first.stdout == second.stdout
        and second.returncode == 0
    )
    _criterion(
        11,
        "verify --suite all exits 0 in under a minute with byte-identical reruns",
        ok,
        f"(exit {first.returncode}, {elapsed:.1f}s)",
    )
