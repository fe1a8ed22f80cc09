"""The names the benchmark under ``perfbench/`` reads from qmarkov still exist.

``perfbench`` is not collected with these tests, so a deleted or renamed
name would otherwise show only when the benchmark runs.  This module reads
the benchmark's sources as text and imports nothing from them.
"""

import ast
import re
from pathlib import Path

import pytest

import qmarkov
import qmarkov.cli  # noqa: F401  workloads.py imports it, and reads it as qmarkov.cli
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


def _run_py_constant(name):
    tree = ast.parse((PERFBENCH / "run.py").read_text(encoding="utf-8"))
    for node in tree.body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", ())]
        if targets == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"perfbench/run.py assigns no {name}")


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


def test_timed_spans_are_functions():
    measures = _run_py_constant("MEASURES")
    assert len(measures) == 8
    assert _run_py_constant("SCREENER") in TIMED_SPANS
    spans = [f"measures.{name}" for name in measures] + list(TIMED_SPANS)
    missing = [span for span in spans if not callable(_function(span))]
    assert missing == []
