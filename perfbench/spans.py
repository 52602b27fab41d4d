"""In-memory span tracer that wraps semishot's public functions from outside.

Each target is a name bound in a calling module, such as
``solvers.solve_transport``: replacing that binding intercepts every call
the module makes without touching the package source. A wrapper records
one span (name, start, end, parent, op id) per call; span stacks are per
thread, and a span that opens on a thread with an empty stack is
adopted by the innermost open span that hands work to other threads
(``run_benchmark``) or else by the op's root span.

Self time is a span's duration minus the union of the intervals its
children cover. A target that cannot be resolved, for instance after a
module or function rename, is listed as missing and skipped, so a
rename degrades the traced run.only.

Inspectors read cheap facts off a call's arguments or result (plan
residual, score span, file sizes). They run after the call returns; the
time they take is covered for the parent, so it lands in no layer's
self time, only in the tracing overhead.
"""

from __future__ import annotations

import importlib
import itertools
import json
import threading
import time
from collections import defaultdict
from pathlib import Path

import numpy as np

# exp() of a float64 underflows to zero below about -745 and overflows
# above about 709; a kernel-domain transport is exact only while the
# score span stays inside that range.
EXP_SAFE_SPAN = 700.0
# A plan counts as balanced when its L1 row-marginal gap is at most this.
BALANCED_RESIDUAL = 0.1

ROOT = "bench.op"
# Spans that own work started on other threads with an empty stack.
ADOPTERS = (ROOT, "experiment.harness")


def _transport_info(args, kwargs, result):
    scores = np.asarray(args[0] if args else kwargs["similarities"])
    return {"rounds": int(result.iterations),
            "over": bool(np.ptp(scores) > EXP_SAFE_SPAN),
            "balanced": bool(result.residual <= BALANCED_RESIDUAL)}


def _manifest_bytes(manifest_path, blob_keys) -> int:
    path = Path(manifest_path)
    manifest = json.loads(path.read_text())
    total = path.stat().st_size
    for key in blob_keys:
        if key in manifest:
            total += (path.parent / manifest[key]).stat().st_size
    return total


_DATASET_BLOBS = ("embeddings", "labels", "prototypes", "unlabeled", "templates")
_PROTOTYPE_BLOBS = ("prototypes",)


def _load_dataset_info(args, kwargs, result):
    return {"bytes": _manifest_bytes(args[0], _DATASET_BLOBS)}


def _load_prototypes_info(args, kwargs, result):
    return {"bytes": _manifest_bytes(args[0], _PROTOTYPE_BLOBS)}


def _save_dataset_info(args, kwargs, result):
    return {"bytes": _manifest_bytes(args[1], _DATASET_BLOBS)}


def _save_prototypes_info(args, kwargs, result):
    return {"bytes": _manifest_bytes(args[1], _PROTOTYPE_BLOBS)}


def _harness_info(args, kwargs, result):
    return {"threads": kwargs.get("threads")}


def _exit_info(args, kwargs, result):
    return {"exit": result}


# (binding module, attribute, span name, inspector). A dotted attribute
# wraps a constructor method of a class bound in that module; "()" wraps
# the class call itself.
TARGETS = (
    ("semishot", "fit_sstextu", "solvers.fit", None),
    ("semishot.solvers", "similarity_matrix", "sinkhorn.similarity", None),
    ("semishot.solvers", "solve_transport", "sinkhorn.transport", _transport_info),
    ("semishot.solvers", "extract_pseudolabels", "sinkhorn.codes", None),
    ("semishot.solvers", "eval_semi_objective", "objectives.eval", None),
    ("semishot.solvers", "eval_fewshot_objective", "objectives.eval", None),
    ("semishot.solvers", "update_prototypes", "solvers.update", None),
    ("semishot.experiment", "fit_simpleshot", "solvers.fit", None),
    ("semishot.experiment", "fit_sstext", "solvers.fit", None),
    ("semishot.experiment", "fit_sstextu", "solvers.fit", None),
    ("semishot.experiment", "predict_probs", "zeroshot.predict", None),
    ("semishot.experiment", "predict_labels", "zeroshot.predict", None),
    ("semishot.experiment", "split_indices", "experiment.split", None),
    ("semishot.experiment", "evaluate_prototypes", "experiment.evaluate", None),
    ("semishot.experiment", "_run_cell", "experiment.cell", None),
    ("semishot.experiment", "SupportSet.from_indices", "data.construct", None),
    ("semishot.experiment", "UnlabeledSet.from_embeddings", "data.construct", None),
    ("semishot.experiment", "UnlabeledSet.empty", "data.construct", None),
    ("semishot.experiment", "EvalSet()", "data.construct", None),
    ("semishot.experiment", "Dataset.create", "data.construct", None),
    ("semishot.cli", "main", "cli.main", _exit_info),
    ("semishot.cli", "run_benchmark", "experiment.harness", _harness_info),
    ("semishot.cli", "split_indices", "experiment.split", None),
    ("semishot.cli", "evaluate_prototypes", "experiment.evaluate", None),
    ("semishot.cli", "silhouette_score", "experiment.silhouette", None),
    ("semishot.cli", "synthetic_dataset", "experiment.generate", None),
    ("semishot.cli", "load_dataset", "data.load", _load_dataset_info),
    ("semishot.cli", "load_prototypes", "data.load", _load_prototypes_info),
    ("semishot.cli", "save_dataset", "data.save", _save_dataset_info),
    ("semishot.cli", "save_prototypes", "data.save", _save_prototypes_info),
    ("semishot.cli", "SupportSet.from_indices", "data.construct", None),
    ("semishot.cli", "UnlabeledSet.from_embeddings", "data.construct", None),
    ("semishot.cli", "UnlabeledSet.empty", "data.construct", None),
)


class _ClassProxy:
    """Stands in for a class bound in a module: selected constructors are
    wrapped, every other attribute comes from the real class."""

    def __init__(self, cls):
        self._cls = cls
        self._wrapped = {}
        self._call = cls

    def __getattr__(self, name):
        wrapped = self.__dict__["_wrapped"]
        return wrapped[name] if name in wrapped else getattr(self._cls, name)

    def __call__(self, *args, **kwargs):
        return self._call(*args, **kwargs)


class Tracer:
    """Records spans for the calls made while it is installed.

    Spans are kept as tuples in one list (appends are atomic under the
    interpreter lock): (id, name, start, end, cover_end, parent, op,
    error, info). ``cover_end`` extends past ``end`` by the inspector's
    time so the parent does not count it as its own work.
    """

    def __init__(self):
        self.spans: list[tuple] = []
        self.missing: list[str] = []
        self.inspect_errors: list[str] = []
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._adopters: list[int] = []
        self._op = None
        self._patches: list[tuple] = []  # (owner, attribute, original)

    # -- spans -----------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, fn, name, inspect):
        tracer = self
        adopts = name in ADOPTERS

        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else (
                tracer._adopters[-1] if tracer._adopters else None)
            sid = next(tracer._ids)
            stack.append(sid)
            if adopts:
                tracer._adopters.append(sid)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                end = time.perf_counter()
                tracer._close(stack, adopts)
                tracer.spans.append((sid, name, start, end, end, parent,
                                     tracer._op, True, None))
                raise
            end = time.perf_counter()
            tracer._close(stack, adopts)
            info = tracer._inspect(inspect, name, args, kwargs, result)
            tracer.spans.append((sid, name, start, end, time.perf_counter(),
                                 parent, tracer._op, False, info))
            return result

        return traced

    def _inspect(self, inspect, name, args, kwargs, result):
        if inspect is None:
            return None
        try:
            return inspect(args, kwargs, result)
        except Exception as exc:  # a broken probe must not fail the op
            self.inspect_errors.append(f"{name}: {type(exc).__name__}: {exc}")
            return None

    def _close(self, stack, adopts):
        stack.pop()
        if adopts:
            self._adopters.pop()

    def op(self, op_id, fn):
        """Run one op under a root span so every layer span has an owner."""
        self._op = op_id
        return self._wrap(fn, ROOT, None)()

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Replace every resolvable target binding; record the rest."""
        self.missing = []
        proxies = {}
        for module_name, attr, name, inspect in TARGETS:
            label = f"{module_name.rsplit('.', 1)[-1]}.{attr}"
            try:
                module = importlib.import_module(module_name)
                if "." in attr or attr.endswith("()"):
                    cls_name, _, member = attr.partition(".")
                    cls_name = cls_name.removesuffix("()")
                    key = (module_name, cls_name)
                    if key not in proxies:
                        proxies[key] = _ClassProxy(getattr(module, cls_name))
                        self._patch(module, cls_name, proxies[key])
                    proxy = proxies[key]
                    if member:
                        proxy._wrapped[member] = self._wrap(
                            getattr(proxy._cls, member), name, inspect)
                    else:
                        proxy._call = self._wrap(proxy._cls, name, inspect)
                else:
                    self._patch(module, attr,
                                self._wrap(getattr(module, attr), name, inspect))
            except (ImportError, AttributeError):
                self.missing.append(label)

    def _patch(self, owner, attr, value):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)


# -- aggregation -------------------------------------------------------------


def _covered(intervals) -> float:
    total, cur_lo, cur_hi = 0.0, None, None
    for lo, hi in sorted(intervals):
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> duration minus the union of its children's cover."""
    children = defaultdict(list)
    for sid, _, start, _, cover_end, parent, *_ in spans:
        if parent is not None:
            children[parent].append((start, cover_end))
    out = {}
    for sid, _, start, end, *_ in spans:
        kids = [(max(lo, start), min(hi, end)) for lo, hi in children.get(sid, ())]
        out[sid] = (end - start) - _covered([k for k in kids if k[1] > k[0]])
    return out


def layer_metrics(spans, traced_ops: int, overhead_ms: float,
                  missing: list[str]) -> dict[str, float]:
    """Per-op layer numbers from the spans of ``traced_ops`` ops."""
    ops = max(traced_ops, 1)
    own = self_times(spans)
    by_name = defaultdict(list)
    for span in spans:
        by_name[span[1]].append(span)

    def self_ms(*names):
        return sum(own[s[0]] for n in names for s in by_name[n]) * 1e3 / ops

    def calls(name):
        return len(by_name[name]) / ops

    def share(name, key):
        spans_ = by_name[name]
        hits = sum(1 for s in spans_ if s[8] and s[8][key])
        return hits / len(spans_) if spans_ else 0.0

    def info_sum(name, key):
        return sum(s[8][key] for s in by_name[name] if s[8]) / ops

    harness = by_name["experiment.harness"]
    harness_ids = {s[0] for s in harness}
    busy = sum(s[3] - s[2] for s in spans if s[5] in harness_ids)
    capacity = sum((s[3] - s[2]) * ((s[8] or {}).get("threads") or 1)
                   for s in harness)
    return {
        "sinkhorn.similarity_ms": self_ms("sinkhorn.similarity"),
        "sinkhorn.transport_ms": self_ms("sinkhorn.transport"),
        "sinkhorn.codes_ms": self_ms("sinkhorn.codes"),
        "sinkhorn.transport_calls": calls("sinkhorn.transport"),
        "sinkhorn.scaling_rounds": info_sum("sinkhorn.transport", "rounds"),
        "sinkhorn.span_over_exp_frac": share("sinkhorn.transport", "over"),
        "sinkhorn.balanced_frac": share("sinkhorn.transport", "balanced"),
        "objectives.eval_ms": self_ms("objectives.eval"),
        "objectives.eval_calls": calls("objectives.eval"),
        "solvers.update_ms": self_ms("solvers.update"),
        "solvers.fit_self_ms": self_ms("solvers.fit"),
        "solvers.fit_calls": calls("solvers.fit"),
        "solvers.errors": sum(1 for s in spans if s[7] and s[1].startswith("solvers."))
        / ops,
        "zeroshot.predict_ms": self_ms("zeroshot.predict"),
        "experiment.split_ms": self_ms("experiment.split"),
        "experiment.evaluate_self_ms": self_ms("experiment.evaluate"),
        "experiment.harness_self_ms": self_ms("experiment.harness", "experiment.cell"),
        "experiment.busy_frac": busy / capacity if capacity > 0 else 0.0,
        "experiment.silhouette_ms": self_ms("experiment.silhouette"),
        "experiment.generate_ms": self_ms("experiment.generate"),
        "data.load_ms": self_ms("data.load"),
        "data.bytes_read": info_sum("data.load", "bytes"),
        "data.save_ms": self_ms("data.save"),
        "data.bytes_written": info_sum("data.save", "bytes"),
        "data.construct_ms": self_ms("data.construct"),
        "cli.self_ms": self_ms("cli.main"),
        "cli.nonzero_exits": sum(1 for s in by_name["cli.main"]
                                 if s[7] or (s[8] and s[8]["exit"] != 0)) / ops,
        "trace.overhead_ms": overhead_ms,
        "trace.missing_spans": float(len(missing)),
    }


def largest_self_times(spans, traced_ops: int, top: int = 5):
    """The span names with the most self time per op, largest first."""
    own = self_times(spans)
    totals = defaultdict(float)
    for span in spans:
        if span[1] != ROOT:
            totals[span[1]] += own[span[0]]
    ranked = sorted(totals.items(), key=lambda kv: -kv[1])[:top]
    return [(name, ms * 1e3 / max(traced_ops, 1)) for name, ms in ranked]
