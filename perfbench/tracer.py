"""Spans and counters recorded around the calls into qmarkov's modules.

The tracer works from outside the program.  It replaces every public function
of each layer module with a timing wrapper, in *every* qmarkov namespace that
binds it, because the modules import each other by name
(``from .linalg import herm_pow``).  It also wraps the validation hooks of the
operator classes and ``numpy.linalg.eigh/eigvalsh/svd``, whose calls it
counts; ``eigh`` inputs are also told apart by a digest of their bytes.

Spans nest strictly, since the program is single-threaded.  A span's self time
is its duration minus the durations of its child spans.  Spans are folded into
one ``OpTrace`` per op as they close, so memory stays flat over a long run.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import os
import sys
from collections import Counter
from time import perf_counter

import numpy as np

LAYERS = (
    "cli",
    "serialization",
    "states",
    "linalg",
    "channels",
    "divergences",
    "measures",
    "functionals",
    "structured",
    "suites",
)

# Private functions that are wrapped as well: the screening loop whose
# accept/attempt ratio is a wasted-work measure.
PRIVATE_SPANS = {"suites": ("_screened_nonsufficient_triple",)}

# Class hooks that validate their input on construction.
VALIDATION_HOOKS = (
    ("states", "PositiveOperator", "states.validate"),
    ("states", "DensityOperator", "states.validate"),
    ("channels", "Channel", "channels.validate"),
)

DECOMPOSITIONS = ("eigh", "eigvalsh", "svd")


class OpTrace:
    """Everything recorded during one op."""

    def __init__(self):
        self.calls = Counter()  # span name -> calls
        self.ok_calls = Counter()  # span name -> calls that returned
        self.inclusive_s = Counter()  # span name -> time in outermost spans
        self.parent_calls = Counter()  # (parent name, name) -> calls
        self.layer_calls = Counter()
        self.layer_self_s = Counter()
        self.decompositions = Counter()
        self.eigh_digests: set = set()
        self.bytes_read = 0

    def counts(self) -> dict:
        """The machine-independent part: equal on every run of the same op."""
        return {
            "calls": dict(self.calls),
            "ok_calls": dict(self.ok_calls),
            "parent_calls": dict(self.parent_calls),
            "decompositions": dict(self.decompositions),
            "eigh_distinct": len(self.eigh_digests),
            "bytes_read": self.bytes_read,
        }


class Tracer:
    def __init__(self):
        self.op: OpTrace | None = None
        self._stack: list[list] = []  # open spans: [name, child seconds]
        self._active = Counter()  # open span names, to find outermost spans
        self._patches: list[tuple[object, str, object, bool]] = []

    # -- recording -------------------------------------------------------
    def begin_op(self):
        self.op = OpTrace()

    def end_op(self) -> OpTrace:
        op, self.op = self.op, None
        return op

    def _span(self, name: str, layer: str, fn):
        stack, active = self._stack, self._active
        # the loaders take a file path first; its size counts as bytes read
        counts_bytes = name.startswith("serialization.load_")

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            op = self.op
            if op is None:
                return fn(*args, **kwargs)
            if counts_bytes:
                op.bytes_read += os.path.getsize(args[0])
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            outermost = active[name] == 0
            stack.append(frame)
            active[name] += 1
            ok = False
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
                ok = True
                return result
            finally:
                duration = perf_counter() - start
                stack.pop()
                active[name] -= 1
                if stack:
                    stack[-1][1] += duration
                op.calls[name] += 1
                op.ok_calls[name] += ok
                op.parent_calls[(parent, name)] += 1
                op.layer_calls[layer] += 1
                op.layer_self_s[layer] += duration - frame[1]
                if outermost:
                    op.inclusive_s[name] += duration

        return wrapper

    def _decomposition(self, name: str, fn):
        @functools.wraps(fn)
        def wrapper(a, *args, **kwargs):
            op = self.op
            if op is not None:
                op.decompositions[name] += 1
                if name == "eigh":
                    arr = np.ascontiguousarray(a)
                    digest = hashlib.blake2b(arr, digest_size=16).digest()
                    op.eigh_digests.add((arr.shape, arr.dtype.str, digest))
            return fn(a, *args, **kwargs)

        return wrapper

    # -- patching --------------------------------------------------------
    def _patch(self, owner, attr: str, value, in_dict: bool = False):
        original = owner[attr] if in_dict else getattr(owner, attr)
        self._patches.append((owner, attr, original, in_dict))
        if in_dict:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def install(self, package: str = "qmarkov"):
        modules = [
            module
            for name, module in sorted(sys.modules.items())
            if module is not None and (name == package or name.startswith(package + "."))
        ]
        wrappers = {}
        for layer in LAYERS:
            module = sys.modules[f"{package}.{layer}"]
            extra = PRIVATE_SPANS.get(layer, ())
            for attr, value in vars(module).items():
                if (
                    inspect.isfunction(value)
                    and value.__module__ == module.__name__
                    and (not attr.startswith("_") or attr in extra)
                ):
                    wrappers[value] = self._span(f"{layer}.{attr}", layer, value)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if inspect.isfunction(value) and value in wrappers:
                    self._patch(module, attr, wrappers[value])
                elif isinstance(value, dict):
                    # dispatch tables bind functions at import time
                    for key, item in list(value.items()):
                        if inspect.isfunction(item) and item in wrappers:
                            self._patch(value, key, wrappers[item], in_dict=True)
        for layer, cls_name, span_name in VALIDATION_HOOKS:
            cls = getattr(sys.modules[f"{package}.{layer}"], cls_name)
            hook = cls.__dict__["__post_init__"]
            self._patch(cls, "__post_init__", self._span(span_name, layer, hook))
        for name in DECOMPOSITIONS:
            self._patch(np.linalg, name, self._decomposition(name, getattr(np.linalg, name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original, in_dict = self._patches.pop()
            if in_dict:
                owner[attr] = original
            else:
                setattr(owner, attr, original)
