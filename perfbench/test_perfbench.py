"""Checks of the benchmark itself.  Run from the repository root:

    python3 -m pytest perfbench
"""

import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import pytest  # noqa: E402

from run import WORKDIR, per_layer, run_phase, tail_index  # noqa: E402  (pins BLAS threads)
from calibration import Calibration  # noqa: E402
import qmarkov.cli  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# a few ops of each workload; two whole cycles of triple-216, so repeats are checked too
TRACED_OPS = {"verify-222": 3, "compute-512": 2, "triple-216": 10}


def _ready(name, seed, workdir):
    workload = WORKLOADS[name](seed, workdir)
    workload.setup()
    workload.references()
    return workload


def _traced_counts(name, seed):
    WORKDIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=WORKDIR) as workdir:
        workload = _ready(name, seed, workdir)
        tracer = Tracer()
        tracer.install()
        try:
            phase = run_phase(workload, qmarkov.cli, Calibration(), count=TRACED_OPS[name],
                              tracer=tracer)
        finally:
            tracer.uninstall()
    assert phase.failed == 0
    return phase, [op.counts() for op in phase.traces]


@pytest.mark.parametrize("name", sorted(TRACED_OPS))
def test_traced_counts_repeat_exactly(name):
    first, first_counts = _traced_counts(name, seed=3)
    _, second_counts = _traced_counts(name, seed=3)
    assert first_counts == second_counts
    assert sum(op["decompositions"].get("eigh", 0) for op in first_counts) > 0
    metrics, _ = per_layer(first, first)
    if name == "verify-222":
        assert metrics["linalg.eigh_distinct_ratio"][0] < 0.25
    if name == "compute-512":
        assert metrics["linalg.eigh_repeats_max"][0] <= 1


def test_tracer_restores_every_binding():
    import qmarkov.linalg
    import qmarkov.measures
    import numpy as np

    before = (qmarkov.measures.herm_pow, qmarkov.suites._SUITES["limits"], np.linalg.eigh,
              qmarkov.states.DensityOperator.__dict__["__post_init__"])
    tracer = Tracer()
    tracer.install()
    assert qmarkov.measures.herm_pow is qmarkov.linalg.herm_pow is not before[0]
    assert qmarkov.suites._SUITES["limits"] is not before[1]
    tracer.uninstall()
    after = (qmarkov.measures.herm_pow, qmarkov.suites._SUITES["limits"], np.linalg.eigh,
             qmarkov.states.DensityOperator.__dict__["__post_init__"])
    assert after == before


def test_checks_reject_wrong_outputs(tmp_path):
    verify = WORKLOADS["verify-222"](0, tmp_path)
    argv = verify.op(0)
    good = "".join(f"suite {s}: PASS ({n} checks, worst slack +1e-3)\n"
                   for s, n in (("trace", 54), ("characterization", 37),
                                ("limits", 11), ("inequalities", 50)))
    assert verify.check(argv, 0, good) is None
    assert verify.check(argv, 1, good) is not None
    assert verify.check(argv, 0, good.replace("limits: PASS", "limits: FAIL")) is not None

    triple = _ready("triple-216", 0, tmp_path)
    argv = triple.op(2)  # compute red
    value = triple.expected["red"]
    assert triple.check(argv, 0, f"{value:.12f}\n") is None
    # a later run of the same op must repeat the first output byte for byte
    assert triple.check(argv, 0, f"{value:.12f}\n\n") is not None
    fresh = WORKLOADS["triple-216"](0, tmp_path)
    fresh.expected = triple.expected
    assert fresh.check(argv, 0, f"{value + 1e-8:.12f}\n") is not None


def test_tail_has_ten_samples_beyond_it():
    assert tail_index(21) == 10
    assert tail_index(100) == 89
    assert tail_index(15) == 7  # too few samples: the median
