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

Each scenario is one record of :data:`SCENARIOS`, which names the
reweighting modes, ``prior`` keys and CSVs it takes; a spec that asks for
any other is rejected when it is built.

Reweighting modes
-----------------
uniform   all-ones weights (for censored data: the event indicator, i.e.
          complete-case analysis, since censored records carry no label).
class     label-based plug-in weights toward the test class distribution.
strata    stratum-based plug-in weights toward prior.pk.
pu        positive-unlabeled plug-in weights.
ipcw      inverse-probability-of-censoring weights via Kaplan-Meier.
oracle    exact likelihood-ratio weights from the known generator, to
          separate estimation error from the effect of reweighting.
"""

from __future__ import annotations

import dataclasses
import json
import os
from collections import namedtuple
from dataclasses import dataclass, field

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
    _check_real,
    _check_seed,
    _check_top_k,
    _scaled,
    classification_metrics,
    mean_cross_entropy,
    read_csv,
    write_rows,
)


ANALYTIC_PAIRS = ((0.0, 0.0), (0.5, 0.5), (1.0, 1.0), (2.0, 2.0))
_CURVE_NAME = "a{0.alpha:g}_b{0.beta:g}"  # an analytic_excess curve's key, from its model


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
    prior: dict = field(default_factory=dict)  # {"pk": [...]}, strata_shift only
    train_csv: str | None = None
    test_csv: str | None = None
    replicate_seeds: tuple[int, ...] | None = None

    def __post_init__(self):
        if not isinstance(self.scenario, str) or self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        scenario = SCENARIOS[self.scenario]
        for name in ("train", "synthetic", "prior", "bias"):
            value = getattr(self, name)
            if not (isinstance(value, dict) or (name == "bias" and value is None)):
                raise ValidationError(f"spec field {name!r} must be a JSON object")
        if not isinstance(self.modes, (list, tuple)) or not self.modes:
            raise ValidationError("modes must be a nonempty list of reweighting mode names")
        self.modes = tuple(self.modes)
        for m in self.modes:
            if m not in scenario.weights:
                raise ValidationError(
                    f"scenario {self.scenario!r} cannot run reweighting mode {m!r}; "
                    f"it runs {', '.join(scenario.weights)}"
                )
        if len(set(self.modes)) != len(self.modes):
            raise ValidationError(f"modes repeat a mode: {list(self.modes)}")
        for name in ("top_k", "replicates", "n_train", "n_test"):
            _check_count(getattr(self, name), name, 1)
        csvs = [p for p in (self.train_csv, self.test_csv) if p is not None]
        if csvs and (len(csvs) < 2 or not scenario.csv
                     or not all(isinstance(p, str) for p in csvs)):
            raise ValidationError("train_csv and test_csv: both paths or neither, strata_shift only")
        for key in [k for k in self.prior if k not in scenario.priors]:
            hint = "a test positive rate is synthetic.p" if key == "p" else "it reads " + (
                ", ".join(scenario.priors) or "none")
            raise ValidationError(f"scenario {self.scenario!r} does not read prior.{key}; {hint}")
        if self.model_kind not in train_mod.MODEL_KINDS:
            raise ValidationError(f"unknown model kind {self.model_kind!r}")
        _check_seed(self.base_seed, "base_seed")
        if self.replicate_seeds is not None:
            _check_seed(self.replicate_seeds, "replicate_seeds")
            self.replicate_seeds = tuple(int(s) for s in self.replicate_seeds)
            if len(self.replicate_seeds) != self.replicates:
                raise ValidationError("replicate_seeds length must equal replicates")
        # built once here so a bad override fails before any data is drawn
        self.generator()
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
        """The scenario's generator, built by its record from ``synthetic``
        less the training rate or source size it also holds; a bad key or
        value, there or in ``prior``, raises ValidationError."""
        return SCENARIOS[self.scenario].generator(self)

    @staticmethod
    def from_json(doc: dict, **overrides) -> "ExperimentSpec":
        """The spec of a parsed JSON document, with ``overrides`` set over
        its fields; a document that is not an object raises ValidationError."""
        if not isinstance(doc, dict):
            raise ValidationError("a spec document must be a JSON object")
        doc = {**doc, **overrides}
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
    field raises ValidationError, and a refused value ``cls``'s own
    ValidationError, each naming the spec field ``what``."""
    try:
        return cls(*args, **fields, **fixed)
    except TypeError as exc:
        raise ValidationError(f"spec field {what!r}: {exc}") from exc
    except ValidationError as exc:  # its class kept, its message naming the field
        exc.args = (f"spec field {what!r}: {exc}",)
        raise


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
# Scenarios
# ---------------------------------------------------------------------------

# What a scenario's replicates share, built once before any of them: the
# test set, draw_train(rep_seed) -> a training set, and the test-side facts:
# the exact-ratio oracle(data), the plug-ins' prior, and p_prime as emitted.
_SharedData = namedtuple("SharedData", "test draw_train oracle prior p_prime",
                         defaults=(None, None))

# A scenario: generator(spec) builds it from spec.synthetic and checks the
# ``priors`` keys it reads; ``csv`` says if it takes train_csv/test_csv;
# shared(spec, test_seed) draws or ingests its _SharedData; ``weights`` maps
# each mode to weigh(trainset, shared).  curves(spec), for ``shared``, gives
# the closed-form results of a scenario that trains nothing.
_Scenario = namedtuple("Scenario", "generator weights shared curves priors csv",
                       defaults=(None, None, (), False))


def _uniform_weights(data: Dataset, shared: _SharedData) -> WeightVector:
    if data.events is not None:
        return WeightVector(data.events.astype(float))
    return WeightVector.ones(data.n)


def _ipcw_weights(data: Dataset) -> tuple[WeightVector, weights_mod.KmCurve]:
    """The IPCW weights and the Kaplan-Meier censoring curve they divide by."""
    if data.times is None:
        raise SchemaError("reweighting mode 'ipcw' needs survival times and events (t, e)")
    km = weights_mod.km_fit(data.times, ~data.events)
    return weights_mod.ipcw_weights(data, km), km


def _oracle_weights(data: Dataset, shared: _SharedData) -> WeightVector:
    return shared.oracle(data)


def _read_train_test(train_csv, test_csv) -> tuple[Dataset, Dataset]:
    """The two CSVs' datasets, sharing one class count; a CSV with no ``y``
    column raises SchemaError before any training, which needs labels, as
    do the test metrics."""
    pair = []
    for path in (train_csv, test_csv):
        data, _ = ingest_csv(path)
        if data.labels is None:
            raise SchemaError(f"{path}: no y column; training and its metrics need labels")
        pair.append(data)
    pair[0].n_classes = pair[1].n_classes = max(d.n_classes for d in pair)
    return pair[0], pair[1]


def _analytic_model(spec: ExperimentSpec) -> analytic.AnalyticModel:
    syn = dict(spec.synthetic)
    rate = weights_mod.setting(spec.scenario).rate
    if rate not in syn:
        raise ValidationError(f"scenario {spec.scenario!r} needs synthetic.{rate}")
    _check_real(syn.pop(rate), f"synthetic.{rate}", "(0, 1)")
    return _build(analytic.AnalyticModel, "synthetic", {"alpha": 1.0, "beta": 1.0, **syn})


def _analytic_shared(spec: ExperimentSpec, test_seed) -> _SharedData:
    m = spec.generator()
    row = weights_mod.setting(spec.scenario)
    rate = spec.synthetic[row.rate]
    return _SharedData(
        analytic.sample(m, spec.n_test, m.p, test_seed),
        lambda seed: row.sampler(m, spec.n_train, rate, [seed, 0]),
        lambda d: row.oracle(d, m.p, rate),
        weights_mod.TargetPrior(p=m.p),
    )


def _excess_models(spec: ExperimentSpec) -> list[analytic.AnalyticModel]:
    syn = spec.synthetic
    if set(syn) - {"p", "pairs"}:
        raise ValidationError(f"spec field 'synthetic': {spec.scenario!r} takes p, pairs")
    pairs, seq = syn.get("pairs", ANALYTIC_PAIRS), (list, tuple)
    if not (isinstance(pairs, seq) and all(isinstance(v, seq) for v in pairs)):
        raise ValidationError("synthetic.pairs must be a list of [alpha, beta] pairs")
    p = syn.get("p", 0.3)
    _check_real(p, "synthetic.p", "(0, 1)")
    models = [_build(analytic.AnalyticModel, "synthetic", {"p": p}, *pr) for pr in pairs]
    names = [_CURVE_NAME.format(m) for m in models]
    if len(set(names)) < len(names):
        raise ValidationError(f"synthetic.pairs name a curve twice: {names}")
    return models


def _excess_curves(spec: ExperimentSpec) -> dict:
    curves = {}
    for m in spec.generator():
        thetas, risks = analytic.risk_curve(m)
        p_grid, excess = analytic.excess_curve(m)
        curves[_CURVE_NAME.format(m)] = {
            "alpha": m.alpha,
            "beta": m.beta,
            "theta": thetas.tolist(),
            "risk": risks.tolist(),
            "p_prime": p_grid.tolist(),
            "excess": excess.tolist(),
        }
    return {"p": spec.synthetic.get("p", 0.3), "curves": curves}


def _strata_generator(spec: ExperimentSpec) -> synthetic.GaussianStrataSpec:
    syn = {k: v for k, v in spec.synthetic.items() if k != "n_source"}
    if "n_source" in spec.synthetic or spec.train_csv is None:  # drawn when no CSV is given
        _check_count(_n_source(spec), "synthetic.n_source", 1)
    generator = _build(synthetic.GaussianStrataSpec, "synthetic", syn)
    if spec.prior.get("pk") is not None:
        pk = _check_distribution(spec.prior["pk"], "prior.pk", 1e-12)
        if spec.train_csv is None and pk.size != generator.n_strata:
            raise ValidationError(f"prior.pk needs {generator.n_strata} entries, one per stratum")
    return generator


def _n_source(spec: ExperimentSpec) -> int:  # records in each drawn strata source
    return spec.synthetic.get("n_source", 4 * spec.n_train)


def _strata_shared(spec: ExperimentSpec, test_seed) -> _SharedData:
    if spec.train_csv is not None:
        source, test = _read_train_test(spec.train_csv, spec.test_csv)
        counts = source.stratum_counts()
        pk = np.asarray(spec.prior.get("pk") or counts / source.n)
        if pk.size != counts.size:
            raise ValidationError(f"prior.pk has {pk.size} entries, train_csv {counts.size} strata")
        draw_source = lambda seed: source  # noqa: E731 - subsampled as it is
    else:
        generator = spec.generator()
        K = generator.n_strata
        pk = np.asarray(spec.prior.get("pk") or [1.0 / K] * K)
        test = synthetic.gaussian_strata_sample(generator, spec.n_test, pk, test_seed)
        draw_source = lambda seed: synthetic.gaussian_strata_sample(  # noqa: E731
            generator, _n_source(spec), pk, [seed, 0]
        )
    bias = spec.bias_spec() or biasgen.BiasSpec(gamma=1.0)
    if bias.target_pk is None:
        bias = dataclasses.replace(bias, target_pk=tuple(float(v) for v in pk))
    p_prime = biasgen.power_law_distribution(bias, len(pk))
    return _SharedData(
        test,
        lambda seed: biasgen.subsample_to_distribution(draw_source(seed), p_prime, [seed, 1],
                                                       max_size=spec.n_train),
        lambda d: weights_mod.oracle_stratum_shift_weights(d, pk, p_prime),
        weights_mod.TargetPrior(pk=pk),
        [float(v) for v in p_prime],
    )


def _uniform_class_weights(data: Dataset, shared: _SharedData) -> WeightVector:
    """Class weights toward uniform test classes, the labels taken as strata."""
    J = shared.test.n_classes
    labels_as_strata = dataclasses.replace(data, strata=data.labels, n_strata=data.n_classes)
    uniform = weights_mod.TargetPrior(pk=(1.0 / J,) * J)
    return weights_mod.stratum_shift_weights(labels_as_strata, uniform)


def _censored_shared(spec: ExperimentSpec, test_seed) -> _SharedData:
    cspec = spec.generator()  # both samplers fix n_classes = 2
    return _SharedData(
        synthetic.censored_test_sample(cspec, spec.n_test, test_seed),
        lambda seed: synthetic.censored_train_sample(cspec, spec.n_train, [seed, 0]),
        lambda d: weights_mod.ipcw_weights(d, cspec),
    )


# class_shift and pu differ only in the weights.setting they name
_ANALYTIC = _Scenario(_analytic_model, {
    "uniform": _uniform_weights,
    "class": lambda data, shared: weights_mod.class_shift_weights(data, shared.prior),
    "pu": lambda data, shared: weights_mod.pu_weights(data, shared.prior),
    "oracle": _oracle_weights,
}, _analytic_shared)

SCENARIOS: dict[str, _Scenario] = {
    "analytic_excess": _Scenario(_excess_models, {"uniform": _uniform_weights},
                                curves=_excess_curves),
    "class_shift": _ANALYTIC,
    "strata_shift": _Scenario(_strata_generator, {
        "uniform": _uniform_weights,
        "class": _uniform_class_weights,
        "strata": lambda data, shared: weights_mod.stratum_shift_weights(data, shared.prior),
        "oracle": _oracle_weights,
    }, _strata_shared, priors=("pk",), csv=True),
    "pu": _ANALYTIC,
    "censored": _Scenario(
        lambda spec: _build(synthetic.CensoredSpec, "synthetic", spec.synthetic), {
            "uniform": _uniform_weights,
            "ipcw": lambda data, shared: _ipcw_weights(data)[0],
            "oracle": _oracle_weights,
        }, _censored_shared),
}


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


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


def _summary(vals: list[float]) -> dict:
    """Mean, sample sd and values of one metric, the statistics taken over
    the values scaled by ``core._scaled``, so that none overflows."""
    scaled, e = _scaled(vals)
    return {
        "mean": float(np.ldexp(np.mean(scaled), e)) if vals else None,
        "std": float(np.ldexp(np.std(scaled, ddof=1), e)) if len(vals) > 1 else 0.0,
        "values": [float(v) for v in vals],
    }


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
    scenario = SCENARIOS[spec.scenario]
    if scenario.curves is not None:
        bundle["analytic"] = scenario.curves(spec)
        return bundle

    seeds = spec.seeds()
    per_mode: dict[str, dict[str, list[float]]] = {
        m: {"miss_rate": [], "top_k_error": [], "sce": []} for m in spec.modes
    }
    curves: dict[str, list] = {}
    bundle["realized_p_prime"] = None
    try:
        shared = scenario.shared(spec, [spec.base_seed, 999])
        _check_top_k(spec.top_k, shared.test.n_classes)  # checked before any training
    except WermError as exc:  # every replicate reports it
        bundle["failures"] = [_failure(r, "*", exc) for r in range(len(seeds))]
        seeds = ()

    for r, rep_seed in enumerate(seeds):
        try:
            trainset = shared.draw_train(rep_seed)
        except WermError as exc:  # partial completion is reported
            bundle["failures"].append(_failure(r, "*", exc))
            continue
        bundle["realized_p_prime"] = shared.p_prime
        cfg = spec.train_config(seed=rep_seed)
        outcome: dict = {}  # mode -> its weights, then its (metrics, log); or its WermError
        for mode in spec.modes:
            try:
                outcome[mode] = scenario.weights[mode](trainset, shared)
            except WermError as exc:  # replicate failure is data
                outcome[mode] = exc
        ready = [m for m in spec.modes if not isinstance(outcome[m], WermError)]

        def fit_and_score(modes):  # only replicate 0's learning curves are kept
            return _fit_and_score(trainset, [outcome[m] for m in modes], shared.test,
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

    bundle["modes"] = {
        mode: {metric: _summary(vals) for metric, vals in metrics_by.items()}
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


def _dump_json(doc: dict, fh) -> None:
    """The one JSON format the package writes, to a file or to stdout; NaN
    and +-inf, which JSON has no token for, raise ValueError."""
    json.dump(doc, fh, indent=2, sort_keys=True, allow_nan=False)
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
    for name, doc in (("results.json", results), ("spec_resolved.json", bundle["resolved_spec"])):
        written.append(os.path.join(out_dir, name))
        with open(written[-1], "w") as fh:
            _dump_json(doc, fh)

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
