"""Span tracer for one benchmark pass.

The tracer wraps werm's public functions by attribute replacement: every
module attribute that is bound to a traced function (including by-name
imports such as ``experiment.read_csv`` or ``train.classification_metrics``)
gets its own wrapper, and a traced method is replaced on its class.
``uninstall`` puts every original object back and reports any binding it
could not restore.  Nothing under ``src/`` knows about it.

A span is ``(span_id, parent_id, key, start, end)`` with ``perf_counter``
times; all spans of a pass carry the pass's run id.  Spans stay in memory
and are written out after the pass.  werm is single-threaded, so no layer
waits on a queue: the trace records busy time and counts only.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import json
import time

LAYERS = (
    "train", "core", "biasgen", "weights", "synthetic",
    "analytic", "bounds", "experiment", "cli",
)


def _rows_of_result(args, kwargs, result):
    return result.n


def _rows_of_first_arg(args, kwargs, result):
    return args[0].n


def _len_of_self(args, kwargs, result):
    return len(args[0])


def _reps_of_result(args, kwargs, result):
    return result.reps


# (layer, owner, attribute, counter fed by the call, how many it adds).
# ``owner`` is a werm module, or a module plus a class name for methods.
TARGETS = (
    ("core", "core", "read_csv", "core.rows_read", _rows_of_result),
    ("core", "core", "write_csv", "core.rows_written", _rows_of_first_arg),
    ("core", "core.WeightVector", "to_csv", "core.rows_written", _len_of_self),
    ("core", "core", "classification_metrics", None, None),
    ("core", "core.Dataset", "__post_init__", None, None),
    ("core", "core.Dataset", "take", None, None),
    ("weights", "weights", "class_shift_weights", None, None),
    ("weights", "weights", "stratum_shift_weights", None, None),
    ("weights", "weights", "pu_weights", None, None),
    ("weights", "weights", "oracle_class_shift_weights", None, None),
    ("weights", "weights", "oracle_stratum_shift_weights", None, None),
    ("weights", "weights", "oracle_pu_weights", None, None),
    ("weights", "weights", "km_fit", None, None),
    ("weights", "weights", "ipcw_weights", None, None),
    ("weights", "weights.KmCurve", "to_csv", None, None),
    ("synthetic", "synthetic", "gaussian_strata_sample", "synthetic.rows_generated", _rows_of_result),
    ("synthetic", "synthetic.StratifiedThresholdModel", "sample", "synthetic.rows_generated", _rows_of_result),
    ("analytic", "analytic", "sample", None, None),
    ("analytic", "analytic", "sample_pu", None, None),
    ("analytic", "analytic", "risk_curve", None, None),
    ("analytic", "analytic", "excess_curve", None, None),
    ("biasgen", "biasgen", "power_law_distribution", None, None),
    ("biasgen", "biasgen", "subsample_to_distribution", "biasgen.rows_drawn", _rows_of_result),
    ("biasgen", "biasgen", "apply_bias", None, None),
    ("bounds", "bounds", "coverage_check", "bounds.coverage_reps", _reps_of_result),
    ("bounds", "bounds", "rademacher_mc", None, None),
    ("train", "train", "fit", None, None),
    ("train", "train", "init_params", None, None),
    ("train", "train", "logits_batch", None, None),
    ("train", "train", "weighted_objective", None, None),
    ("train", "train", "gradient", None, None),
    ("train", "train", "momentum_step", None, None),
    ("experiment", "experiment", "run_experiment", None, None),
    ("experiment", "experiment", "emit_results", None, None),
    ("experiment", "experiment", "ingest_csv", None, None),
    ("cli", "cli", "main", None, None),
)

WERM_MODULES = ("werm",) + tuple(f"werm.{m}" for m in LAYERS)

ESTIMATORS = (
    "weights.class_shift_weights", "weights.stratum_shift_weights",
    "weights.pu_weights", "weights.oracle_class_shift_weights",
    "weights.oracle_stratum_shift_weights", "weights.oracle_pu_weights",
)

# Counters that must repeat exactly across two passes of one seed.
EXACT_COUNTS = (
    "train.batches", "train.evals", "core.dataset_builds", "core.rows_read",
    "core.rows_written", "biasgen.rows_drawn", "bounds.coverage_reps",
)


def _short(module_name: str) -> str:
    return module_name.split(".", 1)[1] if "." in module_name else module_name


class Tracer:
    """Collects spans, per-binding hit counts, counters and error counts."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[tuple[int, int, str, float, float]] = []
        self.hits: dict[str, int] = {}
        self.counters: dict[str, int] = {}
        self.errors = {layer: 0 for layer in LAYERS}
        self._stack = [0]
        self._next_id = 1
        self._patched: list[tuple[object, str, object]] = []

    # -- installation --------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(name) for name in WERM_MODULES]
        for layer, owner, attr, counter, count in TARGETS:
            module_name, _, class_name = owner.partition(".")
            home = importlib.import_module(f"werm.{module_name}")
            key = f"{owner}.{attr}"
            if class_name:
                cls = getattr(home, class_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, original,
                            self._wrap(original, layer, key, key, counter, count))
                continue
            original = getattr(home, attr)
            for module in modules:
                for name, value in list(vars(module).items()):
                    if value is original:
                        binding = f"{_short(module.__name__)}.{name}"
                        self._patch(module, name, original,
                                    self._wrap(original, layer, key, binding, counter, count))

    def _patch(self, obj, name, original, wrapper) -> None:
        self.hits[wrapper.perfbench_binding] = 0
        self._patched.append((obj, name, original))
        setattr(obj, name, wrapper)

    def uninstall(self) -> list[str]:
        """Restore every binding; return the ones still not original."""
        for obj, name, original in reversed(self._patched):
            setattr(obj, name, original)
        leftovers = [
            f"{getattr(obj, '__name__', obj)}.{name}"
            for obj, name, original in self._patched
            if (obj.__dict__[name] if isinstance(obj, type) else getattr(obj, name))
            is not original
        ]
        for module_name in WERM_MODULES:
            module = importlib.import_module(module_name)
            for name, value in vars(module).items():
                if hasattr(value, "perfbench_binding"):
                    leftovers.append(f"{module_name}.{name}")
        self._patched.clear()
        return leftovers

    def _wrap(self, fn, layer, key, binding, counter, count):
        spans = self.spans
        stack = self._stack
        hits = self.hits
        counters = self.counters
        errors = self.errors
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = self._next_id
            self._next_id = span_id + 1
            parent = stack[-1]
            stack.append(span_id)
            hits[binding] += 1
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[layer] += 1
                raise
            finally:
                end = clock()
                stack.pop()
                spans.append((span_id, parent, key, start, end))
            if counter is not None:
                counters[counter] = counters.get(counter, 0) + count(args, kwargs, result)
            return result

        wrapper.perfbench_binding = binding
        return wrapper

    # -- reduction -------------------------------------------------------------

    def layer_metrics(self, useful_evals: int) -> dict[str, float]:
        """Per-layer busy time, self time and counts for this pass."""
        total: dict[str, float] = {}
        self_time: dict[str, float] = {}
        calls: dict[str, int] = {}
        child_time: dict[int, float] = {}
        for span_id, parent, key, start, end in self.spans:
            duration = end - start
            child_time[parent] = child_time.get(parent, 0.0) + duration
        for span_id, parent, key, start, end in self.spans:
            duration = end - start
            total[key] = total.get(key, 0.0) + duration
            self_time[key] = self_time.get(key, 0.0) + duration - child_time.get(span_id, 0.0)
            calls[key] = calls.get(key, 0) + 1

        def busy(*keys):
            return sum(total.get(k, 0.0) for k in keys)

        def ncalls(*keys):
            return sum(calls.get(k, 0) for k in keys)

        evals = self.hits.get("train.classification_metrics", 0)
        m = {
            "train.fit_self_s": self_time.get("train.fit", 0.0),
            "train.objective_s": busy("train.weighted_objective"),
            "train.gradient_s": busy("train.gradient"),
            "train.step_s": busy("train.momentum_step"),
            "train.forward_calls": ncalls("train.logits_batch"),
            "train.batches": ncalls("train.momentum_step"),
            "train.evals": evals,
            "train.eval_useful_ratio": useful_evals / evals if evals else 0.0,
            "core.dataset_builds": ncalls("core.Dataset.__post_init__"),
            "core.take_s": busy("core.Dataset.take"),
            "core.metrics_s": busy("core.classification_metrics"),
            "core.metrics_calls": ncalls("core.classification_metrics"),
            "core.read_csv_s": busy("core.read_csv"),
            "core.write_csv_s": busy("core.write_csv", "core.WeightVector.to_csv"),
            "biasgen.subsample_s": busy("biasgen.subsample_to_distribution"),
            "weights.estimate_s": busy(*ESTIMATORS),
            "weights.calls": ncalls(*ESTIMATORS),
            "weights.km_fit_s": busy("weights.km_fit"),
            "weights.ipcw_s": busy("weights.ipcw_weights"),
            "synthetic.sample_s": busy(
                "synthetic.gaussian_strata_sample", "synthetic.StratifiedThresholdModel.sample"
            ),
            "analytic.sample_s": busy("analytic.sample", "analytic.sample_pu"),
            "analytic.curve_s": busy("analytic.risk_curve", "analytic.excess_curve"),
            "bounds.coverage_s": busy("bounds.coverage_check"),
            "bounds.rademacher_s": busy("bounds.rademacher_mc"),
            "experiment.run_self_s": self_time.get("experiment.run_experiment", 0.0),
            "experiment.emit_s": busy("experiment.emit_results"),
            "cli.main_self_s": self_time.get("cli.main", 0.0),
        }
        for name in ("core.rows_read", "core.rows_written", "biasgen.rows_drawn",
                     "synthetic.rows_generated", "bounds.coverage_reps"):
            m[name] = self.counters.get(name, 0)
        for layer in LAYERS:
            if layer != "cli":  # only cli.main is wrapped: cli.main_self_s
                m[f"{layer}.self_s"] = sum(
                    v for k, v in self_time.items() if k.split(".", 1)[0] == layer
                )
            m[f"{layer}.errors"] = self.errors[layer]
        m["trace.spans"] = len(self.spans)
        return m

    def write_spans(self, path) -> None:
        """Write the pass's spans as gzipped JSON lines."""
        with gzip.open(path, "wt") as fh:
            for span_id, parent, key, start, end in self.spans:
                fh.write(json.dumps({
                    "run": self.run_id, "id": span_id, "parent": parent,
                    "name": key, "start": start, "end": end,
                }) + "\n")
