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
replicate 0's learning curves are emitted, so only its fit gets eval data:
it alone logs its objective and evaluates the test set every epoch.

Each replicate yields one record (:func:`_replicate`): each mode maps to
its (metrics, log), or to the ``"Type: message"`` text of the ``WermError``
that failed it, and a replicate with no training set is ``{"*": text}``.
Records hold no exception, so they pickle and keep no traceback alive;
:func:`run_experiment` builds the bundle from them in replicate order.

Each scenario is one record of :data:`SCENARIOS`, which names the
``weights.modes`` rows it runs and the ``prior`` keys and CSVs it takes.
A scenario that trains also runs ``oracle``, its exact likelihood ratio.
A spec that asks for any other mode is rejected when it is built.
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
        runs = _modes(self.scenario)
        for m in [m for m in self.modes if m not in runs]:
            raise ValidationError(f"scenario {self.scenario!r} cannot run reweighting mode "
                                  f"{m!r}; it runs {', '.join(runs)}")
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
        if self.out_dir is not None and not (isinstance(self.out_dir, str) and self.out_dir):
            raise ValidationError("out_dir must be a nonempty path")
        _check_seed(self.base_seed, "base_seed")
        if self.replicate_seeds is not None:
            _check_seed(self.replicate_seeds, "replicate_seeds")
            self.replicate_seeds = tuple(int(s) for s in self.replicate_seeds)
            if len(self.replicate_seeds) != self.replicates:
                raise ValidationError("replicate_seeds length must equal replicates")
        # built once here so a bad override fails before any data is drawn
        generator = self.generator()
        if scenario.curves is None and self.train_csv is None:  # a CSV pair's J is read later
            _check_top_k(self.top_k, getattr(generator, "n_classes", 2))  # analytic, censored: 2
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
# test set, draw_train(rep_seed) -> a training set, the exact-ratio
# oracle(data), the TargetPrior of each mode that reads one, and p_prime.
_SharedData = namedtuple("SharedData", "test draw_train oracle priors p_prime",
                         defaults=(None,))

# A scenario: generator(spec) builds it from spec.synthetic and checks the
# ``priors`` keys it reads; ``modes`` names the weights.modes rows it runs,
# in that table's order; ``csv`` says if it takes train_csv/test_csv;
# shared(spec, test_seed) draws or ingests its _SharedData; curves(spec),
# for it, gives the closed-form results of a scenario that trains nothing.
_Scenario = namedtuple("Scenario", "generator modes shared curves priors csv",
                       defaults=(None, None, (), False))


def _modes(scenario: str) -> tuple[str, ...]:
    """The modes ``scenario`` runs: its ``weights.modes`` rows, then oracle if it trains."""
    record = SCENARIOS[scenario]
    return record.modes if record.curves else (*record.modes, "oracle")


def _weigh(mode: str, data: Dataset, shared: _SharedData) -> WeightVector:
    """``mode``'s weights on ``data``: its ``weights.modes`` estimator, or the exact ratio."""
    if mode == "oracle":
        return shared.oracle(data)
    return weights_mod.modes()[mode].estimator(data, shared.priors.get(mode))


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
        dict.fromkeys(SCENARIOS[spec.scenario].modes, weights_mod.TargetPrior(p=m.p)),
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
    if spec.train_csv is None:  # a CSV pair's strata are counted once it is read
        _biased_law(spec, [1.0 / generator.n_strata] * generator.n_strata)
    return generator


def _biased_law(spec: ExperimentSpec, pk) -> np.ndarray:
    """p', ``spec.bias``'s power law over ``pk`` or its own ``target_pk``; a
    permutation or ``target_pk`` that does not fit the strata raises ValidationError."""
    bias = spec.bias_spec() or biasgen.BiasSpec(gamma=1.0)
    if bias.target_pk is None:
        bias = dataclasses.replace(bias, target_pk=tuple(float(v) for v in pk))
    return biasgen.power_law_distribution(bias, len(pk))


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
    p_prime = _biased_law(spec, pk)
    J = test.n_classes
    _check_top_k(spec.top_k, J)  # a CSV pair's J is read here, before any training
    return _SharedData(
        test,
        lambda seed: biasgen.subsample_to_distribution(draw_source(seed), p_prime, [seed, 1],
                                                       max_size=spec.n_train),
        lambda d: weights_mod.oracle_stratum_shift_weights(d, pk, p_prime),
        {"class": weights_mod.TargetPrior(pk=(1.0 / J,) * J),  # uniform test classes
         "strata": weights_mod.TargetPrior(pk=pk)},
        [float(v) for v in p_prime],
    )


def _censored_shared(spec: ExperimentSpec, test_seed) -> _SharedData:
    cspec = spec.generator()  # both samplers fix n_classes = 2
    return _SharedData(
        synthetic.censored_test_sample(cspec, spec.n_test, test_seed),
        lambda seed: synthetic.censored_train_sample(cspec, spec.n_train, [seed, 0]),
        lambda d: weights_mod.ipcw_weights(d, cspec),
        {},
    )


SCENARIOS: dict[str, _Scenario] = {
    "analytic_excess": _Scenario(_excess_models, ("uniform",), curves=_excess_curves),
    "class_shift": _Scenario(_analytic_model, ("uniform", "class"), _analytic_shared),
    "strata_shift": _Scenario(_strata_generator, ("uniform", "class", "strata"), _strata_shared,
                              priors=("pk",), csv=True),
    "pu": _Scenario(_analytic_model, ("uniform", "class", "pu"), _analytic_shared),
    "censored": _Scenario(
        lambda spec: _build(synthetic.CensoredSpec, "synthetic", spec.synthetic),
        ("uniform", "ipcw"), _censored_shared),
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
    which is filled (objective and test scores per epoch) only when
    ``curve`` is set."""
    fits = train_mod.fit(
        trainset, weights, model_kind, cfg, eval_data=test if curve else None, top_k=top_k
    )
    scored = []
    for params, log in fits:
        logits = train_mod.logits_batch(params, test.features)
        metrics = classification_metrics(test, logits, k=top_k)
        scored.append(({**metrics, "sce": mean_cross_entropy(test, logits)}, log))
    return scored


def _attempt(call, *args):
    """``call(*args)``, or the ``WermError`` it raised."""
    try:
        return call(*args)
    except WermError as exc:
        return exc


def _text(exc: WermError) -> str:
    return f"{type(exc).__name__}: {exc}"


def _summary(vals: list[float]) -> dict:
    """Mean, sample sd and values of one metric, the statistics taken over
    the values scaled by ``core._scaled``, so that none overflows."""
    scaled, e = _scaled(vals)
    return {
        "mean": float(np.ldexp(np.mean(scaled), e)) if vals else None,
        "std": float(np.ldexp(np.std(scaled, ddof=1), e)) if len(vals) > 1 else 0.0,
        "values": [float(v) for v in vals],
    }


def _replicate(spec: ExperimentSpec, shared, r: int, seed: int) -> dict:
    """Replicate ``r``'s record, given the shared data or the ``WermError``
    that building them raised.  Every mode's weights come first; the modes
    that got theirs train in one stacked fit, and if that fit raises a
    ``WermError`` (say, one mode's logits blow up), each is refitted alone,
    so a failure belongs to its own mode."""
    trainset = shared if isinstance(shared, WermError) else _attempt(shared.draw_train, seed)
    if isinstance(trainset, WermError):
        return {"*": _text(trainset)}
    cfg = spec.train_config(seed=seed)
    record = {mode: _attempt(_weigh, mode, trainset, shared) for mode in spec.modes}
    ready = [m for m in spec.modes if not isinstance(record[m], WermError)]

    def fit_and_score(*modes):  # only replicate 0's learning curves are kept
        return _fit_and_score(trainset, [record[m] for m in modes], shared.test,
                              spec.model_kind, cfg, spec.top_k, curve=r == 0)

    fits = _attempt(fit_and_score, *ready) if ready else []
    if isinstance(fits, WermError):  # refit alone, so only the failing modes fail
        fits = [_attempt(lambda m: fit_and_score(m)[0], m) for m in ready]
    record.update(zip(ready, fits))
    return {m: _text(v) if isinstance(v, WermError) else v for m, v in record.items()}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute generate/ingest -> bias -> weights -> fit -> evaluate per
    replicate; fully deterministic per base seed.  ``failures`` lists each
    record's failures in replicate and mode order, and the run goes on; a
    ``WermError`` raised while building the shared data fails every
    replicate as ``"*"``.  Any other exception is a bug and propagates."""
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

    shared = _attempt(scenario.shared, spec, [spec.base_seed, 999])
    records = [_replicate(spec, shared, r, seed) for r, seed in enumerate(spec.seeds())]
    bundle["failures"] = [{"replicate": r, "mode": m, "error": v}
                          for r, record in enumerate(records)
                          for m, v in record.items() if isinstance(v, str)]
    bundle["realized_p_prime"] = (shared.p_prime if any("*" not in rec for rec in records)
                                  else None)
    bundle["modes"] = {
        mode: {metric: _summary([rec[mode][0][metric] for rec in records
                                 if isinstance(rec.get(mode), tuple)])
               for metric in ("miss_rate", "top_k_error", "sce")}
        for mode in spec.modes
    }
    bundle["curves"] = {m: list(v[1].rows()) for m, v in records[0].items()
                        if isinstance(v, tuple)}
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
