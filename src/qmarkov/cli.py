"""Command-line front end.

Subcommands: ``compute`` evaluates one measure on files, ``generate`` writes
state/channel/triple files, ``verify`` runs the verification suites, and
``sweep`` tabulates a measure over a grid of Renyi orders as CSV.

Exit codes: 0 on success, 1 when a verification check fails, 2 on usage or
input errors.  All numeric output is in bits unless ``--nats`` is given, and
identical invocations produce byte-identical output.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Callable, NamedTuple

from .divergences import AlphaParameter
from .errors import QmarkovError
from .functionals import LN2
from .measures import (
    ChannelTriple,
    TripartiteState,
    minmax_cmi,
    minmax_rel_ent_diff,
    rel_ent_diff,
    renyi_rel_ent_diff_grid,
    sandwiched_rel_ent_diff_grid,
    von_neumann_cmi,
)
from .serialization import (
    load_channel,
    load_markov_spec,
    load_state,
    load_sufficiency_spec,
    save_channel,
    save_state,
)
from .states import random_density
from .structured import build_markov_chain, build_sufficiency_triple
from .suites import SUITE_NAMES, SuiteConfig, run_suites

MAX_GRID_ORDERS = 10_000  # points a sweep's --alpha-grid may hold


class Measure(NamedTuple):
    """What one ``--measure`` name reads and which library call it makes."""

    on_state: bool  # a tripartite --state, else the --rho/--sigma/--channel triple
    certified: str | None  # the AlphaParameter property naming its certified orders
    # (target, orders) -> bits at each order; an order-free measure is given
    # one order, which it ignores
    evaluate: Callable[..., list[float]]


# The CLI evaluates on the support rather than refusing rank-deficient inputs;
# the verify command is where the certified claims are checked.
MEASURES = {
    "cmi": Measure(True, None, lambda t, alphas: [von_neumann_cmi(t)]),
    "renyi-cmi": Measure(True, "petz_ok",
                         lambda t, alphas: renyi_rel_ent_diff_grid(t, alphas, strict=False)),
    "sand-cmi": Measure(True, "sandwiched_ok",
                        lambda t, alphas: sandwiched_rel_ent_diff_grid(t, alphas, strict=False)),
    "imax": Measure(True, None, lambda t, alphas: [minmax_cmi(t, "max", strict=False)]),
    "imin": Measure(True, None, lambda t, alphas: [minmax_cmi(t, "min", strict=False)]),
    "red": Measure(False, None, lambda t, alphas: [rel_ent_diff(t)]),
    "delta": Measure(False, "petz_ok",
                     lambda t, alphas: renyi_rel_ent_diff_grid(t, alphas, strict=False)),
    "delta-tilde": Measure(False, "sandwiched_ok",
                           lambda t, alphas: sandwiched_rel_ent_diff_grid(t, alphas, strict=False)),
    "delta-min": Measure(False, None,
                         lambda t, alphas: [minmax_rel_ent_diff(t, "min", strict=False)]),
    "delta-max": Measure(False, None,
                         lambda t, alphas: [minmax_rel_ent_diff(t, "max", strict=False)]),
}


class UsageError(Exception):
    pass


def _parse_dims(text: str) -> tuple[int, ...]:
    try:
        dims = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise UsageError(f"bad --dims value {text!r}") from exc
    if not dims or any(d < 1 for d in dims):
        raise UsageError(f"bad --dims value {text!r}")
    return dims


def _load_inputs(args):
    if MEASURES[args.measure].on_state:
        if not args.state:
            raise UsageError(f"--measure {args.measure} needs --state FILE")
        state = load_state(args.state)
        if len(state.dims) != 3:
            raise UsageError(
                f"{args.state}: measure {args.measure} needs a tripartite state "
                f"(three dims), got {state.dims}"
            )
        return TripartiteState(state)
    if not (args.rho and args.sigma and args.channel):
        raise UsageError(f"--measure {args.measure} needs --rho, --sigma, --channel")
    return ChannelTriple(
        rho=load_state(args.rho),
        sigma=load_state(args.sigma, normalized=False),
        channel=load_channel(args.channel),
    )


def _alpha_for(args) -> AlphaParameter | None:
    certified = MEASURES[args.measure].certified
    if certified is None:
        return None
    if args.alpha is None:
        raise UsageError(f"--measure {args.measure} needs --alpha")
    alpha = AlphaParameter(args.alpha)
    if not args.allow_uncertified and not getattr(alpha, certified):
        raise UsageError(
            f"alpha {alpha.alpha} is outside the certified range of "
            f"{args.measure}; pass --allow-uncertified to evaluate anyway"
        )
    return alpha


def _format_value(value: float, nats: bool) -> str:
    if nats:
        value *= LN2
    if math.isinf(value):
        return "inf"
    value = round(value, 12) + 0.0  # normalize -0.0
    return f"{value:.12f}"


def cmd_compute(args) -> int:
    target = _load_inputs(args)
    alpha = _alpha_for(args)
    (value,) = MEASURES[args.measure].evaluate(target, (alpha,))
    print(_format_value(value, args.nats))
    return 0


def cmd_generate(args) -> int:
    if args.kind == "random-state":
        if not args.dims:
            raise UsageError("generate random-state needs --dims")
        dims = _parse_dims(args.dims)
        state = random_density(dims, rank=args.rank, seed=args.seed)
        save_state(args.out, state)
        return 0
    if not args.spec:
        raise UsageError(f"generate {args.kind} needs --spec FILE")
    if args.kind == "markov":
        spec = load_markov_spec(args.spec)
        save_state(args.out, build_markov_chain(spec).rho)
        return 0
    # sufficiency: --out is used as a prefix for the three files
    spec = load_sufficiency_spec(args.spec)
    triple = build_sufficiency_triple(spec)
    save_state(f"{args.out}.rho.json", triple.rho)
    save_state(f"{args.out}.sigma.json", triple.sigma)
    save_channel(f"{args.out}.channel.json", triple.channel)
    return 0


def cmd_verify(args) -> int:
    cfg = SuiteConfig(
        trials=args.trials,
        dims=_parse_dims(args.dims),
        seed=args.seed,
        tol=args.tol,
    )
    extra_state = None
    if args.state:
        loaded = load_state(args.state)
        if len(loaded.dims) != 3:
            raise UsageError(f"{args.state}: verify needs a tripartite state file")
        extra_state = TripartiteState(loaded)
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    reports = run_suites(names, cfg, extra_state=extra_state)
    for report in reports:
        print(report.to_table())
    if args.json:
        payload = {"reports": [r.to_dict() for r in reports]}
        with open(args.json, "w", encoding="utf-8", newline="\n") as handle:
            json.dump(payload, handle, sort_keys=True)
            handle.write("\n")
    return 0 if all(r.all_pass for r in reports) else 1


def _parse_grid(text: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise UsageError(f"--alpha-grid must be start:stop:step, got {text!r}")
    try:
        start, stop, step = (float(p) for p in parts)
    except ValueError as exc:
        raise UsageError(f"bad --alpha-grid value {text!r}") from exc
    if not all(math.isfinite(v) for v in (start, stop, step)):
        raise UsageError(f"--alpha-grid start, stop and step must be finite, got {text!r}")
    if step <= 0:
        raise UsageError("--alpha-grid step must be positive")
    # the grid has floor(span) + 1 points; an overflowing span is +inf
    span = (stop + 1e-12 - start) / step
    if span >= MAX_GRID_ORDERS:
        raise UsageError(f"--alpha-grid {text!r} has more than {MAX_GRID_ORDERS} orders")
    grid = []
    k = 0
    while True:
        value = start + k * step
        if value > stop + 1e-12:
            break
        grid.append(round(value, 12))
        k += 1
    if not grid:
        raise UsageError("--alpha-grid is empty")
    return grid


def cmd_sweep(args) -> int:
    measure = MEASURES[args.measure]
    if measure.certified is None:
        raise UsageError(f"sweep needs a measure with a Renyi order, got {args.measure!r}")
    target = _load_inputs(args)
    grid = _parse_grid(args.alpha_grid)
    # the Renyi family is undefined at 1; that row reports the von Neumann value
    orders = [AlphaParameter(a) for a in grid if abs(a - 1.0) >= 1e-9]
    values = iter(measure.evaluate(target, orders))
    von_neumann = MEASURES["cmi" if measure.on_state else "red"]
    rows = ["alpha,value_nats" if args.nats else "alpha,value_bits"]
    for alpha in grid:
        if abs(alpha - 1.0) < 1e-9:
            (value,) = von_neumann.evaluate(target, (None,))
            rows.append(f"1.0,{_format_value(value, args.nats)}")
        else:
            rows.append(f"{alpha!r},{_format_value(next(values), args.nats)}")
    with open(args.out, "w", encoding="utf-8", newline="\n") as handle:
        handle.write("\n".join(rows) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qmarkov",
        description="Renyi information measures, recovery maps, and their verification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # compute and sweep read the same measure names and input files
    inputs = argparse.ArgumentParser(add_help=False)
    inputs.add_argument("--measure", required=True, choices=tuple(MEASURES))
    inputs.add_argument("--state", help="tripartite state file (CMI measures)")
    inputs.add_argument("--rho", help="state file (difference measures)")
    inputs.add_argument("--sigma", help="reference operator file")
    inputs.add_argument("--channel", help="channel file")
    inputs.add_argument("--nats", action="store_true", help="output in nats")

    compute = sub.add_parser("compute", parents=[inputs],
                             help="evaluate one measure on input files")
    compute.add_argument("--alpha", type=float, help="Renyi order")
    compute.add_argument("--allow-uncertified", action="store_true",
                         help="evaluate outside the certified alpha range")
    compute.set_defaults(func=cmd_compute)

    generate = sub.add_parser("generate", help="write state/channel/triple files")
    generate.add_argument("--kind", required=True,
                          choices=("random-state", "markov", "sufficiency"))
    generate.add_argument("--spec", help="block spec file for structured kinds")
    generate.add_argument("--dims", help="comma-separated dims for random-state")
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--rank", type=int, default=None)
    generate.add_argument("--out", required=True,
                          help="output file (prefix for sufficiency triples)")
    generate.set_defaults(func=cmd_generate)

    verify = sub.add_parser("verify", help="run verification suites")
    verify.add_argument("--suite", default="all", choices=SUITE_NAMES + ("all",))
    verify.add_argument("--trials", type=int, default=25)
    verify.add_argument("--dims", default="2,2,2")
    verify.add_argument("--seed", type=int, default=0)
    verify.add_argument("--tol", type=float, default=1e-8)
    verify.add_argument("--json", help="also write the full report as JSON")
    verify.add_argument("--state", help="tripartite state file to include as a fixed instance")
    verify.set_defaults(func=cmd_verify)

    sweep = sub.add_parser("sweep", parents=[inputs],
                           help="tabulate a measure over a Renyi-order grid")
    sweep.add_argument("--alpha-grid", required=True, help="start:stop:step")
    sweep.add_argument("--out", required=True)
    sweep.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 for --help and 2 for usage errors; normalize
        return 0 if exc.code in (0, None) else 2
    try:
        return args.func(args)
    except (UsageError, QmarkovError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
