"""The names the benchmark under ``perfbench/`` reads from qmarkov still exist.

``perfbench`` is not collected with these tests, so a deleted or renamed
name would otherwise show only when the benchmark runs.  This module reads
the benchmark's sources as text and imports nothing from them.
"""

import ast
import inspect
import re
from pathlib import Path

import pytest

import qmarkov
import qmarkov.cli  # workloads.py imports it, and reads it as qmarkov.cli
import qmarkov.suites
from qmarkov.channels import Channel
from qmarkov.states import DensityOperator, PositiveOperator

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# the spans run.py times besides its MEASURES, as "module.function"
TIMED_SPANS = (
    "linalg.herm_pow",
    "linalg.embed_operator",
    "linalg.partial_trace",
    "channels.apply_channel",
    "channels.adjoint_apply",
    "channels.random_strict_channel",
    "channels.random_channel",
    "structured.is_sufficient_petz",
    "suites._screened_nonsufficient_triple",
)


def _literal(body, name, where):
    for node in body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{where} assigns no {name}")


def _module(filename):
    return ast.parse((PERFBENCH / filename).read_text(encoding="utf-8"))


def _run_py_constant(name):
    return _literal(_module("run.py").body, name, "perfbench/run.py")


def _workload_constant(cls, name):
    for node in _module("workloads.py").body:
        if isinstance(node, ast.ClassDef) and node.name == cls:
            return _literal(node.body, name, f"perfbench/workloads.py {cls}")
    raise AssertionError(f"perfbench/workloads.py defines no class {cls}")


def _function(dotted):
    module, name = dotted.split(".")
    return getattr(getattr(qmarkov, module), name, None)


def test_workload_names_resolve():
    text = (PERFBENCH / "workloads.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\bqmarkov\.(\w+)", text)))
    assert names
    missing = [name for name in names if not hasattr(qmarkov, name)]
    assert missing == []


def test_traced_herm_pow_is_bound_in_measures():
    assert qmarkov.measures.herm_pow is qmarkov.linalg.herm_pow


@pytest.mark.parametrize("cls", [PositiveOperator, DensityOperator, Channel],
                         ids=lambda cls: cls.__name__)
def test_validation_hook_is_the_class_own(cls):
    assert "__post_init__" in cls.__dict__


def test_suite_table_holds_public_suite_functions():
    # the tracer wraps the public functions it finds in qmarkov.suites, and
    # every run calls the suites through this table
    table = qmarkov.suites._SUITES
    assert tuple(table) == qmarkov.suites.SUITE_NAMES
    for fn in table.values():
        assert inspect.isfunction(fn) and not fn.__name__.startswith("_")
        assert fn.__module__ == "qmarkov.suites"
        assert getattr(qmarkov.suites, fn.__name__) is fn


def test_timed_spans_are_functions():
    measures = _run_py_constant("MEASURES")
    assert len(measures) == 8
    assert _run_py_constant("SCREENER") in TIMED_SPANS
    spans = [f"measures.{name}" for name in measures] + list(TIMED_SPANS)
    missing = [span for span in spans if not callable(_function(span))]
    assert missing == []


def _workload_measures():
    """(subcommand, --measure) of every op the compute-512 and triple-216 workloads run."""
    compute_512 = [measure for measure, _ in _workload_constant("Compute512", "CONFIGS")]
    computes = compute_512 + list(_workload_constant("Triple216", "COMPUTES"))
    sweeps = list(_workload_constant("Triple216", "SWEEPS"))
    return [("compute", m) for m in dict.fromkeys(computes)] + [("sweep", m) for m in sweeps]


@pytest.mark.parametrize("command,measure", _workload_measures())
def test_workload_measures_are_accepted(command, measure):
    argv = [command, "--measure", measure]
    if command == "sweep":
        argv += ["--alpha-grid", "0.5:1.5:0.1", "--out", "sweep.csv"]
    # argparse exits on a name outside the subcommand's choices
    args = qmarkov.cli.build_parser().parse_args(argv)
    assert (args.command, args.measure) == (command, measure)
