"""End-to-end experiment plumbing: ingest or generate data, inject bias,
compute weights, train, evaluate, and emit machine-readable results.

An :class:`ExperimentSpec` is a plain JSON-serializable document; the
runner echoes the fully resolved spec (including derived per-replicate
seeds) next to its results so any bundle can be reproduced byte for byte
from its own echo.  All randomness flows through seeds derived from
``base_seed``; the test set is drawn (or its CSV read, along with the
training source CSV) once per experiment, training draws vary per
replicate.  A replicate's modes share one training set and one config,
so they train as one stacked fit (``train.fit`` over their weight
vectors), which gives each mode the bytes of a fit of its own.  Only
replicate 0's learning curves are emitted, so only its fit evaluates the
test set every epoch.

Reweighting modes (:data:`MODE_WEIGHTS`)
----------------------------------------
uniform   all-ones weights (for censored data: the event indicator, i.e.
          complete-case analysis, since censored records carry no label).
class     label-based plug-in weights toward the test class distribution.
strata    stratum-based plug-in weights toward prior.pk.
pu        positive-unlabeled plug-in weights.
ipcw      inverse-probability-of-censoring weights via Kaplan-Meier.
oracle    exact likelihood-ratio weights from the known generator, to
          separate estimation error from the effect of reweighting.

:data:`SCENARIO_MODES` lists the modes each scenario can run; a spec that
asks for any other is rejected when it is built.
"""

from __future__ import annotations

import dataclasses
import json
import os
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from . import analytic, biasgen, synthetic, train as train_mod, weights as weights_mod
from .core import (
    Dataset,
    SchemaError,
    ValidationError,
    WeightVector,
    WermError,
    _check_count,
    _check_distribution,
    _check_rate,
    _check_seed,
    _check_top_k,
    classification_metrics,
    mean_cross_entropy,
    read_csv,
    write_rows,
)


# The reweighting modes each scenario can run; analytic_excess trains nothing.
SCENARIO_MODES = {
    "analytic_excess": ("uniform",),
    "class_shift": ("uniform", "class", "pu", "oracle"),
    "strata_shift": ("uniform", "class", "strata", "oracle"),
    "pu": ("uniform", "class", "pu", "oracle"),
    "censored": ("uniform", "ipcw", "oracle"),
}

ANALYTIC_PAIRS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0))


@dataclass
class ExperimentSpec:
    scenario: str
    modes: tuple[str, ...] = ("uniform",)
    replicates: int = 1
    base_seed: int = 0
    out_dir: str | None = None
    model_kind: str = "linear"
    top_k: int = 1
    n_train: int = 2000
    n_test: int = 2000
    train: dict = field(default_factory=dict)  # TrainConfig overrides
    bias: dict | None = None  # BiasSpec fields
    synthetic: dict = field(default_factory=dict)  # generator parameters
    prior: dict = field(default_factory=dict)  # {"p": ..., "pk": [...]}
    train_csv: str | None = None
    test_csv: str | None = None
    replicate_seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIO_MODES:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        for name in ("train", "synthetic", "prior", "bias"):
            value = getattr(self, name)
            if not (isinstance(value, dict) or (name == "bias" and value is None)):
                raise ValidationError(f"spec field {name!r} must be a JSON object")
        self.modes = tuple(self.modes)
        allowed = SCENARIO_MODES[self.scenario]
        for m in self.modes:
            if m not in allowed:
                raise ValidationError(
                    f"scenario {self.scenario!r} cannot run reweighting mode {m!r}; "
                    f"it runs {', '.join(allowed)}"
                )
        for name in ("top_k", "replicates", "n_train", "n_test"):
            _check_count(getattr(self, name), name, 1)
        csvs = [p for p in (self.train_csv, self.test_csv) if p is not None]
        if csvs and (len(csvs) < 2 or self.scenario != "strata_shift"
                     or not all(isinstance(p, str) for p in csvs)):
            raise ValidationError("train_csv and test_csv: both paths or neither, strata_shift only")
        if self.model_kind not in train_mod.MODEL_KINDS:
            raise ValidationError(f"unknown model kind {self.model_kind!r}")
        _check_seed(self.base_seed, "base_seed")
        if self.replicate_seeds is not None:
            _check_seed(self.replicate_seeds, "replicate_seeds")
            self.replicate_seeds = tuple(int(s) for s in self.replicate_seeds)
            if len(self.replicate_seeds) != self.replicates:
                raise ValidationError("replicate_seeds length must equal replicates")
        # built once here so a bad override fails before any data is drawn
        generator = self.generator()
        if self.scenario == "strata_shift" and self.prior.get("pk") is not None:
            pk = _check_distribution(self.prior["pk"], "prior.pk", 1e-12)
            K = generator.n_strata
            if self.train_csv is None and pk.size != K:
                raise ValidationError(f"prior.pk needs {K} entries, one per stratum")
        self.bias_spec()
        self.train_config(seed=0)

    def resolved(self) -> dict:
        out = dataclasses.asdict(self)
        out["replicate_seeds"] = list(self.seeds())
        return out

    def seeds(self) -> tuple[int, ...]:
        if self.replicate_seeds is not None:
            return self.replicate_seeds
        state = np.random.SeedSequence(self.base_seed).generate_state(self.replicates)
        return tuple(int(s) for s in state)

    def train_config(self, seed: int) -> train_mod.TrainConfig:
        return _build(train_mod.TrainConfig, "train", self.train, seed=seed)

    def bias_spec(self) -> biasgen.BiasSpec | None:
        return None if self.bias is None else _build(biasgen.BiasSpec, "bias", self.bias)

    def generator(self):
        """The scenario's generator built from ``synthetic``, less the
        training rate or source size it also holds: an AnalyticModel
        (alpha and beta default to 1), a GaussianStrataSpec, a
        CensoredSpec, or for analytic_excess the AnalyticModel of each of
        its pairs at its p.  A bad key or value raises ValidationError."""
        syn = dict(self.synthetic)
        if self.scenario == "strata_shift":
            if "n_source" in syn:
                _check_count(syn.pop("n_source"), "synthetic.n_source", 1)
            return _build(synthetic.GaussianStrataSpec, "synthetic", syn)
        if self.scenario == "censored":
            return _build(synthetic.CensoredSpec, "synthetic", syn)
        if self.scenario == "analytic_excess":
            if set(syn) - {"p", "pairs"}:
                raise ValidationError(f"spec field 'synthetic': {self.scenario!r} takes p, pairs")
            pairs, seq = syn.get("pairs", ANALYTIC_PAIRS), (list, tuple)
            if not (isinstance(pairs, seq) and all(isinstance(v, seq) for v in pairs)):
                raise ValidationError("synthetic.pairs must be a list of [alpha, beta] pairs")
            p = syn.get("p", 0.3)
            _check_rate(p, "synthetic.p")
            return [_build(analytic.AnalyticModel, "synthetic", {"p": p}, *pr) for pr in pairs]
        rate = weights_mod.setting(self.scenario).rate
        if rate not in syn:
            raise ValidationError(f"scenario {self.scenario!r} needs synthetic.{rate}")
        _check_rate(syn.pop(rate), f"synthetic.{rate}")
        return _build(analytic.AnalyticModel, "synthetic", {"alpha": 1.0, "beta": 1.0, **syn})

    @staticmethod
    def from_json(doc: dict) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(ExperimentSpec)}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
        try:
            return ExperimentSpec(**doc)
        except TypeError as exc:  # a missing scenario, or a value of the wrong type
            raise ValidationError(f"spec: {exc}") from exc


def _build(cls, what: str, fields: dict, *args, **fixed):
    """``cls(*args, **fields, **fixed)``; an unknown, missing or repeated
    field, or a value of the wrong type, raises ValidationError naming the
    spec field ``what``."""
    try:
        return cls(*args, **fields, **fixed)
    except TypeError as exc:
        raise ValidationError(f"spec field {what!r}: {exc}") from exc


def ingest_csv(path) -> tuple[Dataset, dict]:
    """Parse a dataset CSV and report row count and inferred (d, J, K)."""
    data = read_csv(path)
    report = {
        "path": str(path),
        "rows": data.n,
        "d": data.d,
        "J": data.n_classes,
        "K": data.n_strata,
        "has_labels": data.labels is not None,
        "has_strata": data.strata is not None,
        "has_survival": data.times is not None,
    }
    return data, report


# ---------------------------------------------------------------------------
# Reweighting modes
# ---------------------------------------------------------------------------


def _need(ctx: dict, key: str, mode: str):
    if ctx.get(key) is None:
        raise ValidationError(f"reweighting mode {mode!r} needs {key}")
    return ctx[key]


def _uniform_weights(data: Dataset, ctx: dict) -> WeightVector:
    if data.events is not None:
        return WeightVector(data.events.astype(float))
    return WeightVector.ones(data.n)


def _class_weights(data: Dataset, ctx: dict) -> WeightVector:
    if "class_pk" not in ctx:
        prior = weights_mod.TargetPrior(p=_need(ctx, "p", "class"))
        return weights_mod.class_shift_weights(data, prior)
    labels_as_strata = dataclasses.replace(data, strata=data.labels, n_strata=data.n_classes)
    return weights_mod.stratum_shift_weights(
        labels_as_strata, weights_mod.TargetPrior(pk=ctx["class_pk"])
    )


def _strata_weights(data: Dataset, ctx: dict) -> WeightVector:
    prior = weights_mod.TargetPrior(pk=_need(ctx, "pk", "strata"))
    return weights_mod.stratum_shift_weights(data, prior)


def _pu_weights(data: Dataset, ctx: dict) -> WeightVector:
    prior = weights_mod.TargetPrior(p=_need(ctx, "p", "pu"))
    return weights_mod.pu_weights(data, prior)


def _ipcw_weights(data: Dataset, ctx: dict) -> WeightVector:
    if data.times is None:
        raise SchemaError("reweighting mode 'ipcw' needs survival times and events (t, e)")
    ctx["km"] = weights_mod.km_fit(data.times, ~data.events)
    return weights_mod.ipcw_weights(data, ctx["km"])


def _oracle_weights(data: Dataset, ctx: dict) -> WeightVector:
    return _need(ctx, "oracle", "oracle")(data)


# mode name -> fn(train_data, context) -> WeightVector.  The context holds
# the known test-side facts: "p" (positive rate), "pk" (stratum
# probabilities), "class_pk" (target class distribution, multi-class) and
# "oracle" (the scenario's exact-ratio weights).  "ipcw" leaves its fitted
# censoring curve in the context under "km".
MODE_WEIGHTS: dict[str, Callable[[Dataset, dict], WeightVector]] = {
    "uniform": _uniform_weights,
    "class": _class_weights,
    "strata": _strata_weights,
    "pu": _pu_weights,
    "ipcw": _ipcw_weights,
    "oracle": _oracle_weights,
}


# ---------------------------------------------------------------------------
# Per-scenario data
# ---------------------------------------------------------------------------


def _align_classes(a: Dataset, b: Dataset) -> None:
    J = max(a.n_classes or 2, b.n_classes or 2)
    a.n_classes = J
    b.n_classes = J


def _shared_data(spec: ExperimentSpec) -> tuple[Dataset, dict, Callable[[int], Dataset]]:
    """Ingest or draw the test set once and set up the scenario.

    Returns the test set, the weight context every replicate shares, and
    ``draw_train(rep_seed)``, which draws one replicate's training set.
    """
    syn = spec.synthetic
    test_seed = [spec.base_seed, 999]
    if spec.scenario in ("class_shift", "pu"):
        m = spec.generator()
        test = analytic.sample(m, spec.n_test, m.p, test_seed)
        _, rate_name, sampler, _, oracle = weights_mod.setting(spec.scenario)
        rate = syn[rate_name]
        ctx = {"p": m.p, "oracle": lambda d: oracle(d, m.p, rate)}

        def draw_train(seed):
            return sampler(m, spec.n_train, rate, [seed, 0])

    elif spec.scenario == "strata_shift":
        if spec.train_csv is not None:
            source, _ = ingest_csv(spec.train_csv)
            test, _ = ingest_csv(spec.test_csv)
            _align_classes(source, test)
            pk = np.asarray(
                spec.prior.get("pk")
                or source.stratum_counts() / source.n
            )
            draw_source = lambda seed: source  # noqa: E731 - subsampled as it is
        else:
            generator = spec.generator()
            K = generator.n_strata
            pk = np.asarray(spec.prior.get("pk") or [1.0 / K] * K)
            test = synthetic.gaussian_strata_sample(generator, spec.n_test, pk, test_seed)
            n_source = syn.get("n_source", 4 * spec.n_train)
            draw_source = lambda seed: synthetic.gaussian_strata_sample(  # noqa: E731
                generator, n_source, pk, [seed, 0]
            )
        bias = spec.bias_spec() or biasgen.BiasSpec(gamma=1.0)
        if bias.target_pk is None:
            bias = dataclasses.replace(bias, target_pk=tuple(float(v) for v in pk))
        p_prime = biasgen.power_law_distribution(bias, len(pk))
        J = test.n_classes
        ctx = {
            "pk": pk,
            "p_prime": p_prime,
            "class_pk": tuple([1.0 / J] * J),
            "oracle": lambda d: weights_mod.oracle_stratum_shift_weights(d, pk, p_prime),
        }

        def draw_train(seed):
            return biasgen.subsample_to_distribution(
                draw_source(seed), p_prime, [seed, 1], max_size=spec.n_train
            )

    else:  # censored
        cspec = spec.generator()
        test = synthetic.censored_test_sample(cspec, spec.n_test, test_seed)
        ctx = {"oracle": lambda d: synthetic.oracle_censoring_weights(cspec, d)}

        def draw_train(seed):
            trainset = synthetic.censored_train_sample(cspec, spec.n_train, [seed, 0])
            _align_classes(trainset, test)
            return trainset

    _check_top_k(spec.top_k, test.n_classes)  # checked before any training
    return test, ctx, draw_train


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _analytic_excess_bundle(spec: ExperimentSpec) -> dict:
    curves = {}
    for m in spec.generator():
        thetas, risks = analytic.risk_curve(m)
        p_grid, excess = analytic.excess_curve(m)
        curves[f"a{m.alpha:g}_b{m.beta:g}"] = {
            "alpha": m.alpha,
            "beta": m.beta,
            "theta": thetas.tolist(),
            "risk": risks.tolist(),
            "p_prime": p_grid.tolist(),
            "excess": excess.tolist(),
        }
    return {"p": spec.synthetic.get("p", 0.3), "curves": curves}


def _fit_and_score(
    trainset: Dataset, weights: list[WeightVector], test: Dataset, model_kind: str,
    cfg: train_mod.TrainConfig, top_k: int, curve: bool,
) -> list[tuple[dict, train_mod.TrainingLog]]:
    """Train one model per weight vector in one stacked fit, then score the
    test set with each; returns each model's test metrics and training log,
    whose per-epoch test scores are taken only when ``curve`` is set."""
    fits = train_mod.fit(
        trainset, weights, model_kind, cfg, eval_data=test if curve else None, top_k=top_k
    )
    scored = []
    for params, log in fits:
        logits = train_mod.logits_batch(params, test.features)
        metrics = classification_metrics(test, logits, k=top_k)
        scored.append(({**metrics, "sce": mean_cross_entropy(test, logits)}, log))
    return scored


def _failure(replicate: int, mode: str, exc: Exception) -> dict:
    return {"replicate": replicate, "mode": mode, "error": f"{type(exc).__name__}: {exc}"}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute generate/ingest -> bias -> weights -> fit -> evaluate per
    replicate; fully deterministic per base seed.

    A replicate computes every mode's weights, then fits the modes whose
    weights it got in one stacked fit.  If that fit raises a ``WermError``
    (say, one mode's logits blow up), the replicate refits those modes one
    at a time, so a failure belongs to its own mode.  A ``WermError`` is
    recorded in ``failures``, in replicate and mode order, and the run goes
    on; any other exception is a bug and propagates."""
    bundle: dict = {
        "scenario": spec.scenario,
        "replicates": spec.replicates,
        "top_k": spec.top_k,
        "resolved_spec": spec.resolved(),
        "failures": [],
    }
    if spec.scenario == "analytic_excess":
        bundle["analytic"] = _analytic_excess_bundle(spec)
        return bundle

    seeds = spec.seeds()
    per_mode: dict[str, dict[str, list[float]]] = {
        m: {"miss_rate": [], "top_k_error": [], "sce": []} for m in spec.modes
    }
    curves: dict[str, list] = {}
    realized_p_prime = None
    try:
        test, ctx, draw_train = _shared_data(spec)
    except WermError as exc:  # every replicate reports it
        bundle["failures"] = [_failure(r, "*", exc) for r in range(len(seeds))]
        seeds = ()

    for r, rep_seed in enumerate(seeds):
        try:
            trainset = draw_train(rep_seed)
        except WermError as exc:  # partial completion is reported
            bundle["failures"].append(_failure(r, "*", exc))
            continue
        if "p_prime" in ctx:
            realized_p_prime = [float(v) for v in ctx["p_prime"]]
        cfg = spec.train_config(seed=rep_seed)
        outcome: dict = {}  # mode -> its weights, then its (metrics, log); or its WermError
        for mode in spec.modes:
            try:
                outcome[mode] = MODE_WEIGHTS[mode](trainset, ctx)
            except WermError as exc:  # replicate failure is data
                outcome[mode] = exc
        ready = [m for m in spec.modes if not isinstance(outcome[m], WermError)]

        def fit_and_score(modes):  # only replicate 0's learning curves are kept
            return _fit_and_score(trainset, [outcome[m] for m in modes], test,
                                  spec.model_kind, cfg, spec.top_k, curve=r == 0)

        try:
            outcome.update(zip(ready, fit_and_score(ready)) if ready else ())
        except WermError:  # refit alone, so only the failing modes fail
            for mode in ready:
                try:
                    (outcome[mode],) = fit_and_score([mode])
                except WermError as exc:
                    outcome[mode] = exc
        for mode in spec.modes:
            if isinstance(outcome[mode], WermError):
                bundle["failures"].append(_failure(r, mode, outcome[mode]))
                continue
            metrics, log = outcome[mode]
            for metric, values in per_mode[mode].items():
                values.append(metrics[metric])
            if r == 0:
                curves[mode] = list(log.rows())

    bundle["realized_p_prime"] = realized_p_prime
    bundle["modes"] = {
        mode: {
            metric: {
                "mean": float(np.mean(vals)) if vals else None,
                "std": float(np.std(vals, ddof=1)) if len(vals) > 1 else 0.0,
                "values": [float(v) for v in vals],
            }
            for metric, vals in metrics_by.items()
        }
        for mode, metrics_by in per_mode.items()
    }
    bundle["curves"] = curves
    return bundle


# ---------------------------------------------------------------------------
# Emission
# ---------------------------------------------------------------------------


def write_curve(path, rows) -> None:
    """Write (epoch, objective, miss_rate, top_k_error) rows as a
    learning-curve CSV."""
    write_rows(path, ["epoch", "objective", "miss_rate", "top_k_error"], zip(*rows))


def _write_json(path: str, doc: dict) -> None:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")


def emit_results(bundle: dict, out_dir) -> list[str]:
    """Write results.json, the resolved-spec echo, and curve CSVs.

    Refuses empty bundles; rerunning the same spec produces byte-identical
    files.  Returns the written paths.
    """
    if not bundle or "resolved_spec" not in bundle:
        raise ValidationError("refusing to emit an empty result bundle")
    out_dir = str(out_dir)
    os.makedirs(out_dir, exist_ok=True)
    written = []

    results = {k: v for k, v in bundle.items() if k not in ("curves", "resolved_spec")}
    results_path = os.path.join(out_dir, "results.json")
    _write_json(results_path, results)
    written.append(results_path)

    spec_path = os.path.join(out_dir, "spec_resolved.json")
    _write_json(spec_path, bundle["resolved_spec"])
    written.append(spec_path)

    curves_dir = os.path.join(out_dir, "curves")
    if bundle.get("curves"):
        os.makedirs(curves_dir, exist_ok=True)
        for mode, rows in bundle["curves"].items():
            path = os.path.join(curves_dir, f"{mode}.csv")
            write_curve(path, rows)
            written.append(path)
    if "analytic" in bundle:
        os.makedirs(curves_dir, exist_ok=True)
        for name, curve in bundle["analytic"]["curves"].items():
            for kind, x, y in (("risk", "theta", "risk"), ("excess", "p_prime", "excess")):
                path = os.path.join(curves_dir, f"{kind}_{name}.csv")
                write_rows(path, [x, y], [curve[x], curve[y]])
                written.append(path)
    return written
