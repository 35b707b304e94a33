"""Spans and counts around the public functions of each triortho module.

A traced pass replaces every listed function, in every ``triortho.*`` module
namespace that bound it, by a wrapper that records one span (name, start,
end, parent) per call.  A ``from .fplinalg import min_weight`` import copies
the reference, so patching ``fplinalg`` alone would miss the callers in
``triortho_css`` and ``reed_solomon``.  Spans stay in memory, in flat typed
arrays, until the traced pass ends; the per-layer metrics are computed from
them and they are written to disk at the end of the run.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from array import array
from collections import Counter

import numpy as np

# Layers are the modules.  Each listed function gets a span per call.
SPANNED = {
    "fplinalg": (
        "min_weight",
        "weight_distribution",
        "matmul_mod",
        "rref",
        "rref_with_transform",
        "kernel_basis",
        "in_rowspan",
    ),
    "starproduct": ("check_triorthogonal", "power_weight"),
    "reed_solomon": ("prs_min_distance", "audit_distance_formula"),
    "triortho_css": (
        "build_code",
        "to_descriptor",
        "validate_code",
        "from_descriptor",
        "code_from_matrix",
        "encoded_state_support",
    ),
    "gates": ("cubic_phase_sum", "p3_phase_sum", "find_p3_code"),
    "qudit_sim": ("encode", "apply_transversal_diagonal", "verify_transversal_action"),
    "overhead": ("search_best_gamma",),
    "cli": ("main",),
}
# Called millions of times per pass (every FpVector re-validates its
# modulus); a count is all the metrics need, and a span each would dominate
# the traced pass.
COUNTED = {"fplinalg": ("is_prime",)}

ENUMERATORS = ("min_weight", "weight_distribution")
CLI_EXIT_CODES = (0, 1, 2, 3, 4)


def self_times(names, starts, ends, parents, n_names: int) -> np.ndarray:
    """Per-name self time: each span's duration minus its direct children's.

    ``parents[i]`` is the index of span i's parent, or -1 for a root.  The
    program is single-threaded, so children never overlap each other and lie
    inside their parent's interval.
    """
    names = np.asarray(names, dtype=np.int64)
    parents = np.asarray(parents, dtype=np.int64)
    duration = np.asarray(ends, dtype=np.float64) - np.asarray(starts, dtype=np.float64)
    nested = parents >= 0
    covered = np.bincount(parents[nested], weights=duration[nested], minlength=len(duration))
    return np.bincount(names, weights=duration - covered, minlength=n_names)


class Tracer:
    """Install wrappers on the loaded triortho modules; record spans and counts."""

    def __init__(self):
        self.names: list = []  # qualified "module.function"; a span stores the index
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.counts: Counter = Counter()
        self.originals: dict = {}  # qualified name -> unwrapped function
        self._stack: list = []
        self._patched: list = []  # (namespace, attribute, original)

    # installation

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def install(self) -> None:
        if self._patched:
            raise RuntimeError("tracer already installed")
        loaded = {
            name: mod
            for name, mod in sys.modules.items()
            if mod is not None and (name == "triortho" or name.startswith("triortho."))
        }
        wrappers = {}  # id of the original function -> its wrapper
        for layer, functions in SPANNED.items():
            for fname in functions:
                original = getattr(loaded[f"triortho.{layer}"], fname)
                wrappers[id(original)] = self._spanned(f"{layer}.{fname}", original)
        for layer, functions in COUNTED.items():
            for fname in functions:
                original = getattr(loaded[f"triortho.{layer}"], fname)
                wrappers[id(original)] = self._counted(f"{layer}.{fname}.calls", original)
        for mod in loaded.values():
            for attr, value in list(vars(mod).items()):
                wrapper = wrappers.get(id(value))
                if wrapper is not None:
                    self._patched.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        while self._patched:
            mod, attr, original = self._patched.pop()
            setattr(mod, attr, original)

    # wrappers

    def _spanned(self, qualname: str, fn):
        name_id = len(self.names)
        self.names.append(qualname)
        self.originals[qualname] = fn
        before, after = _HOOKS.get(qualname, (None, None))
        names, starts, ends, parents = self.span_name, self.span_start, self.span_end, self.span_parent
        stack, clock = self._stack, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(self, args, kwargs)
            i = len(starts)
            names.append(name_id)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if after is not None:
                after(self, result)
            return result

        return wrapper

    def _counted(self, key: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # results

    def layer_metrics(self) -> dict:
        """Calls and self time per wrapped function, self time per module, and counts."""
        span_name = np.asarray(self.span_name, dtype=np.int64)
        calls = np.bincount(span_name, minlength=len(self.names))
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        inclusive = np.bincount(span_name, weights=duration, minlength=len(self.names))
        own = self_times(self.span_name, self.span_start, self.span_end, self.span_parent, len(self.names))
        out = {f"{layer}.self_s": 0.0 for layer in SPANNED}
        for i, qualname in enumerate(self.names):
            out[f"{qualname}.calls"] = int(calls[i])
            out[f"{qualname}.self_s"] = float(own[i])
            out[qualname.split(".")[0] + ".self_s"] += float(own[i])
        counts = self.counts
        # Enumeration time includes the matmul_mod calls made inside it; neither
        # enumerator calls the other, so their spans never nest.
        enum_s = sum(float(inclusive[self.names.index(f"fplinalg.{f}")]) for f in ENUMERATORS)
        out["fplinalg.enum.span_s"] = enum_s
        out["fplinalg.enum.words"] = counts["fplinalg.enum.words"]
        out["fplinalg.enum.words_per_s"] = counts["fplinalg.enum.words"] / enum_s if enum_s else 0.0
        out["fplinalg.is_prime.calls"] = counts["fplinalg.is_prime.calls"]
        attempted = counts["reed_solomon.audit.attempted"]
        out["reed_solomon.audit.enumerated_ratio"] = (
            counts["reed_solomon.audit.enumerated"] / attempted if attempted else 0.0
        )
        out["triortho_css.encoded_state_support.labels"] = counts["triortho_css.encoded_state_support.labels"]
        out["qudit_sim.amplitudes"] = counts["qudit_sim.amplitudes"]
        for code in CLI_EXIT_CODES:
            out[f"cli.exit.{code}"] = counts[f"cli.exit.{code}"]
        return out

    def save(self, path) -> None:
        """Write every span (name index, start, end, parent) and the name table."""
        np.savez(
            path,
            names=np.array(self.names),
            span_name=np.frombuffer(self.span_name, dtype=np.int32),
            span_start=np.frombuffer(self.span_start, dtype=np.float64),
            span_end=np.frombuffer(self.span_end, dtype=np.float64),
            span_parent=np.frombuffer(self.span_parent, dtype=np.int32),
        )


# Counts measured at the span boundaries, computed by the benchmark from the
# arguments or the result of the wrapped call, outside the span's interval.


def _min_weight_words(tracer, args, kwargs) -> None:
    # min_weight walks min(p^rank, budget) coefficient vectors of rowspan(M)
    bound = inspect.signature(tracer.originals["fplinalg.min_weight"]).bind(*args, **kwargs)
    bound.apply_defaults()
    M, budget = bound.arguments["M"], bound.arguments["budget"]
    primes = tracer.counts["fplinalg.is_prime.calls"]
    _, rank, _ = tracer.originals["fplinalg.rref"](M)
    tracer.counts["fplinalg.is_prime.calls"] = primes  # the benchmark's rank is not program work
    tracer.counts["fplinalg.enum.words"] += min(M.p**rank, budget)


def _distribution_words(tracer, result) -> None:
    tracer.counts["fplinalg.enum.words"] += sum(result)


def _support_labels(tracer, result) -> None:
    tracer.counts["triortho_css.encoded_state_support.labels"] += len(result)


def _amplitudes(tracer, state) -> None:
    tracer.counts["qudit_sim.amplitudes"] += state.p**state.n


def _audit_entries(tracer, entries) -> None:
    tracer.counts["reed_solomon.audit.attempted"] += len(entries)
    tracer.counts["reed_solomon.audit.enumerated"] += sum(e["computed"] is not None for e in entries)


def _exit_code(tracer, code) -> None:
    tracer.counts[f"cli.exit.{code}"] += 1


_HOOKS = {
    "fplinalg.min_weight": (_min_weight_words, None),
    "fplinalg.weight_distribution": (None, _distribution_words),
    "triortho_css.encoded_state_support": (None, _support_labels),
    "qudit_sim.encode": (None, _amplitudes),
    "qudit_sim.apply_transversal_diagonal": (None, _amplitudes),
    "reed_solomon.audit_distance_formula": (None, _audit_entries),
    "cli.main": (None, _exit_code),
}
