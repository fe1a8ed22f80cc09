#!/usr/bin/env python3
"""Benchmark of the qmarkov command line, end to end and layer by layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload verify-222 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                     # every workload, each in its own process

A run sets up its workload, then loops one closed-loop client over the
workload's ops for ``--seconds`` (finishing the current cycle of distinct
ops), checking every op's output.  ``--trace 0`` reports the end-to-end
metrics.  ``--trace 1`` runs the same ops twice, first untraced for half the
time and then traced, and reports the per-layer metrics together with the
tracing overhead.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

# Pinned before numpy is first imported, so that BLAS honours it.
BLAS_THREADS = 1
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import numpy as np  # noqa: E402
from calibration import REFERENCE_S, Calibration  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("verify-222", "compute-512", "triple-216")
SETUP_REPEATS = 3
TAIL_BEYOND = 10  # samples the tail percentile must have beyond it
CAL_NEIGHBOURS = 2  # an op is scaled by the calibrations of the ops this close
SETUP_CALIBRATIONS = 5  # calibrations timed before and after each set-up
MAX_REPORTED_ERRORS = 5

IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import qmarkov.cli; print(time.perf_counter() - t)"
)

MEASURES = (
    "von_neumann_cmi",
    "renyi_cmi",
    "sandwiched_cmi",
    "minmax_cmi",
    "rel_ent_diff",
    "renyi_rel_ent_diff",
    "sandwiched_rel_ent_diff",
    "minmax_rel_ent_diff",
)
SCREENER = "suites._screened_nonsufficient_triple"
WAIT_NOTE = "time waited: not applicable (single-threaded, no queues)"


def import_seconds() -> float:
    """Import time of qmarkov in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(done.stdout.strip().splitlines()[-1])


def tail_index(n: int) -> int:
    """Index into n sorted samples of the highest one with TAIL_BEYOND beyond it.

    Below 2 * TAIL_BEYOND + 1 samples no such percentile lies above the median,
    and the median is used.
    """
    return max(n - 1 - TAIL_BEYOND, (n - 1) // 2)


class Phase:
    """The ops of one loop: latencies, calibrations, failures, wall time, traces."""

    def __init__(self):
        self.latencies: list[float] = []
        self.calibrations: list[float] = []  # timed just before each op
        self.failed = 0
        self.wall_s = 0.0
        self.traces: list = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled(self) -> list[float]:
        """Latencies in reference seconds (see calibration.py)."""
        cal = self.calibrations
        out = []
        for i, lat in enumerate(self.latencies):
            near = cal[max(i - CAL_NEIGHBOURS, 0):i + CAL_NEIGHBOURS + 1]
            out.append(lat * REFERENCE_S / statistics.median(near))
        return out


def run_phase(workload, cli, calibration, seconds=None, count=None, tracer=None) -> Phase:
    """Run ops for ``seconds`` (ending on a whole cycle) or exactly ``count`` ops."""
    phase = Phase()
    start = perf_counter()
    i = 0

    def more() -> bool:
        if count is not None:
            return i < count
        return i % workload.cycle != 0 or perf_counter() - start < seconds

    while more():
        argv = workload.op(i)
        buf = io.StringIO()
        phase.calibrations.append(calibration.seconds())
        if tracer is not None:
            tracer.begin_op()
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(buf):
                rc = cli.main(argv)
        except Exception:
            traceback.print_exc()
            rc = None
        phase.latencies.append(perf_counter() - t0)
        if tracer is not None:
            phase.traces.append(tracer.end_op())
        error = workload.check(argv, rc, buf.getvalue())
        if error is not None:
            phase.failed += 1
            if phase.failed <= MAX_REPORTED_ERRORS:
                print(f"op {i} ({' '.join(argv)}) failed: {error}", file=sys.stderr)
        i += 1
    phase.wall_s = perf_counter() - start
    return phase


def end_to_end(phase: Phase, setups: list[tuple[float, float]]) -> tuple[dict, list[str]]:
    """Times in reference seconds; ``setups`` holds (scaled, wall) pairs."""
    lat = sorted(phase.scaled())
    wall = sorted(phase.latencies)
    n = len(lat)
    k = tail_index(n)
    tail_pct = 100.0 * k / (n - 1) if n > 1 else 100.0
    ok = n - phase.failed
    metrics = {
        "latency_p50_s": (statistics.median(lat), "s"),
        "latency_tail_s": (lat[k], "s"),
        "ops_per_s": (ok / sum(lat), "1/s"),
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    notes = [
        f"latency_tail_s is p{tail_pct:.1f}: sample {k + 1} of {n} sorted, "
        f"{n - 1 - k} beyond it",
        f"setup_s is the median of {len(setups)} set-ups: "
        + ", ".join(f"{s:.4f}" for s, _ in setups),
        f"fail_ratio {phase.failed / n:.6g} ratio ({phase.failed} of {n} ops failed)",
        f"times are reference seconds; calibration median "
        f"{statistics.median(phase.calibrations) * 1e3:.3f} ms against {REFERENCE_S * 1e3:.1f} ms",
        f"wall clock: latency_p50 {statistics.median(wall):.6g} s, latency_tail "
        f"{wall[k]:.6g} s, ops_per_s {ok / phase.wall_s:.6g} 1/s, setup "
        f"{statistics.median(w for _, w in setups):.6g} s",
    ]
    return metrics, notes


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def per_layer(traced: Phase, untraced: Phase) -> tuple[dict, list[str]]:
    """Means per op over the traced ops, and ratios pooled over them."""
    ops = traced.traces
    n = len(ops)

    def total(attr, key):
        return sum(getattr(op, attr)[key] for op in ops)

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (total("layer_calls", layer) / n, "count")
        metrics[f"{layer}.self_s"] = (total("layer_self_s", layer) / n, "s")
    eigh_calls = total("decompositions", "eigh")
    eigh_distinct = sum(len(op.eigh_digests) for op in ops)
    for name in ("eigh", "eigvalsh", "svd"):
        metrics[f"linalg.{name}_calls"] = (total("decompositions", name) / n, "count")
    metrics["linalg.eigh_distinct_ratio"] = (_ratio(eigh_distinct, eigh_calls), "ratio")
    metrics["linalg.eigh_repeats_max"] = (
        max(op.decompositions["eigh"] - len(op.eigh_digests) for op in ops), "count")
    for name in ("herm_pow", "embed_operator", "partial_trace"):
        metrics[f"linalg.{name}_s"] = (total("inclusive_s", f"linalg.{name}") / n, "s")
    for name in MEASURES:
        metrics[f"measures.{name}_s"] = (total("inclusive_s", f"measures.{name}") / n, "s")
    load_s = sum(t for op in ops for name, t in op.inclusive_s.items()
                 if name.startswith("serialization.load_"))
    metrics["serialization.load_s"] = (load_s / n, "s")
    metrics["serialization.bytes_read"] = (sum(op.bytes_read for op in ops) / n, "B")
    metrics["states.validate_s"] = (total("inclusive_s", "states.validate") / n, "s")
    for metric, name in (("apply_s", "apply_channel"), ("adjoint_s", "adjoint_apply"),
                         ("petz_recovery_s", "petz_recovery")):
        metrics[f"channels.{metric}"] = (total("inclusive_s", f"channels.{name}") / n, "s")
    screens = total("parent_calls", (SCREENER, "structured.is_sufficient_petz"))
    accepted = total("ok_calls", SCREENER)
    draws = total("parent_calls", ("channels.random_strict_channel", "channels.random_channel"))
    strict = total("ok_calls", "channels.random_strict_channel")
    metrics["suites.screen_calls"] = (screens / n, "count")
    metrics["suites.screen_accept_ratio"] = (_ratio(accepted, screens), "ratio")
    metrics["channels.random_channel_draws"] = (draws / n, "count")
    metrics["channels.strict_draw_ratio"] = (_ratio(strict, draws), "ratio")
    traced_s, untraced_s = sum(traced.scaled()), sum(untraced.scaled())
    metrics["trace.overhead_ratio"] = (_ratio(traced_s, untraced_s), "ratio")
    notes = [
        f"per-layer values are means per op over {n} traced ops, ratios pooled over them",
        f"linalg.eigh_distinct_ratio base: {eigh_distinct} distinct of {eigh_calls} eigh calls",
        f"suites.screen_accept_ratio base: {accepted} accepted of {screens} screening calls",
        f"channels.strict_draw_ratio base: {strict} strict of {draws} random_channel draws",
        f"trace.overhead_ratio base: traced {traced_s:.4f} / untraced {untraced_s:.4f} "
        f"reference seconds over the same {n} ops",
        WAIT_NOTE,
    ]
    return metrics, notes


def environment() -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": BLAS_THREADS,
        "loop": "closed, 1 client",
    }


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> int:
    if not (SRC / "qmarkov" / "__init__.py").is_file():
        print(f"error: no qmarkov sources at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import qmarkov.cli as cli
    from workloads import WORKLOADS

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        print(f"error: qmarkov was imported from {cli.__file__}, not {SRC}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORKDIR))
    try:
        workload = WORKLOADS[name](seed, workdir)
        calibration = Calibration()
        setups = []
        for _ in range(SETUP_REPEATS):
            cal = [calibration.seconds() for _ in range(SETUP_CALIBRATIONS)]
            imported = import_seconds()
            t0 = perf_counter()
            workload.setup()
            wall = imported + perf_counter() - t0
            cal += [calibration.seconds() for _ in range(SETUP_CALIBRATIONS)]
            setups.append((wall * REFERENCE_S / statistics.median(cal), wall))
        workload.references()
        if trace:
            untraced = run_phase(workload, cli, calibration, seconds=seconds / 2.0)
            tracer = Tracer()
            tracer.install()
            try:
                traced = run_phase(workload, cli, calibration, count=untraced.attempted,
                                   tracer=tracer)
            finally:
                tracer.uninstall()
            metrics, notes = per_layer(traced, untraced)
            attempted = untraced.attempted + traced.attempted
            failed = untraced.failed + traced.failed
        else:
            phase = run_phase(workload, cli, calibration, seconds=seconds)
            metrics, notes = end_to_end(phase, setups)
            notes.append(WAIT_NOTE)
            attempted, failed = phase.attempted, phase.failed
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print(f"workload {name}: seed {seed}, {attempted} ops, {failed} failed, "
          f"trace {int(trace)}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<36} {value:>16.6g} {unit}")
    for note in notes:
        print(f"  # {note}")
    print(f"  # env {json.dumps(environment(), sort_keys=True)}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(seed: int, seconds: float, trace: bool) -> int:
    """Each workload in a fresh process, so set-up and peak RSS belong to it."""
    results = {}
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, __file__, "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(int(trace))],
            stdout=subprocess.PIPE, text=True,
        )
        sys.stdout.write(done.stdout)
        if done.returncode != 0:
            print(f"error: workload {name} exited {done.returncode}", file=sys.stderr)
            return done.returncode
        results[name] = json.loads(done.stdout.strip().splitlines()[-1])
    print(json.dumps({"workloads": results}))
    return 0 if all(r["correct"] for r in results.values()) else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, bool(args.trace))
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
