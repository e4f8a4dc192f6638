"""End-to-end experiment plumbing: ingest or generate data, inject bias,
compute weights, train, evaluate, and emit machine-readable results.

An :class:`ExperimentSpec` is a plain JSON-serializable document; the
runner echoes the fully resolved spec (including derived per-replicate
seeds) next to its results so any bundle can be reproduced byte for byte
from its own echo.  All randomness flows through seeds derived from
``base_seed``; the test set is drawn (or its CSV read, along with the
training source CSV) once per experiment, training draws vary per
replicate.  Only replicate 0's learning curves are emitted, so only its
fits evaluate the test set every epoch.

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

import csv
import dataclasses
import json
import os
from dataclasses import dataclass, field

import numpy as np

from . import analytic, biasgen, synthetic, train as train_mod, weights as weights_mod
from .core import (
    Dataset,
    SchemaError,
    ValidationError,
    WeightVector,
    classification_metrics,
    read_csv,
)

__all__ = ["ExperimentSpec", "ingest_csv", "run_experiment", "emit_results"]

SCENARIOS = ("analytic_excess", "class_shift", "strata_shift", "pu", "censored")
MODES = ("uniform", "strata", "class", "pu", "ipcw", "oracle")

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
        if self.scenario not in SCENARIOS:
            raise ValidationError(f"unknown scenario {self.scenario!r}")
        self.modes = tuple(self.modes)
        for m in self.modes:
            if m not in MODES:
                raise ValidationError(f"unknown reweighting mode {m!r}")
        if self.replicates < 1:
            raise ValidationError("replicates must be >= 1")
        if self.replicate_seeds is not None:
            self.replicate_seeds = tuple(int(s) for s in self.replicate_seeds)
            if len(self.replicate_seeds) != self.replicates:
                raise ValidationError("replicate_seeds length must equal replicates")
        required = {"class_shift": ("p", "p_train"), "pu": ("p", "q")}
        for name in required.get(self.scenario, ()):
            if name not in self.synthetic:
                raise ValidationError(
                    f"scenario {self.scenario!r} needs synthetic.{name}"
                )

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
        return train_mod.TrainConfig(seed=seed, **self.train)

    def bias_spec(self) -> biasgen.BiasSpec | None:
        if self.bias is None:
            return None
        kwargs = dict(self.bias)
        if "permutation" in kwargs and isinstance(kwargs["permutation"], list):
            kwargs["permutation"] = tuple(kwargs["permutation"])
        if "target_pk" in kwargs and kwargs["target_pk"] is not None:
            kwargs["target_pk"] = tuple(kwargs["target_pk"])
        return biasgen.BiasSpec(**kwargs)

    @staticmethod
    def from_json(doc: dict) -> "ExperimentSpec":
        known = {f.name for f in dataclasses.fields(ExperimentSpec)}
        unknown = set(doc) - known
        if unknown:
            raise ValidationError(f"unknown spec fields: {sorted(unknown)}")
        doc = dict(doc)
        if "modes" in doc:
            doc["modes"] = tuple(doc["modes"])
        return ExperimentSpec(**doc)


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
# Per-scenario data preparation
# ---------------------------------------------------------------------------


def _align_classes(a: Dataset, b: Dataset) -> None:
    J = max(a.n_classes or 2, b.n_classes or 2)
    a.n_classes = J
    b.n_classes = J


@dataclass
class _Shared:
    """What every replicate of a run shares, built once before the loop."""

    test: Dataset
    generator: object  # the scenario's model or spec, or the ingested source Dataset
    context: dict  # the replicate-independent scenario facts


@dataclass
class _ReplicateData:
    train: Dataset
    test: Dataset
    context: dict  # scenario facts needed by weight modes


def _shared_data(spec: ExperimentSpec) -> _Shared:
    """Ingest or draw the test set and set up the scenario's generator."""
    syn = spec.synthetic
    test_seed = [spec.base_seed, 999]
    if spec.scenario in ("class_shift", "pu"):
        m = analytic.AnalyticModel(
            alpha=syn.get("alpha", 1.0), beta=syn.get("beta", 1.0), p=syn["p"]
        )
        test = analytic.sample(m, spec.n_test, m.p, test_seed)
        if spec.scenario == "pu":
            return _Shared(test, m, {"p": m.p, "q": syn["q"]})
        ctx = {"p": m.p, "p_train": syn["p_train"], "class_pk": (1.0 - m.p, m.p)}
        return _Shared(test, m, ctx)

    if spec.scenario == "strata_shift":
        if spec.train_csv is not None:
            source, _ = ingest_csv(spec.train_csv)
            test, _ = ingest_csv(spec.test_csv)
            _align_classes(source, test)
            pk = np.asarray(
                spec.prior.get("pk")
                or source.stratum_counts() / source.n
            )
            generator = source
        else:
            generator = synthetic.GaussianStrataSpec(
                **{k: v for k, v in syn.items() if k != "n_source"}
            )
            K = generator.n_strata
            pk = np.asarray(spec.prior.get("pk") or [1.0 / K] * K)
            test = synthetic.gaussian_strata_sample(generator, spec.n_test, pk, test_seed)
        bias = spec.bias_spec()
        if bias is None:
            bias = biasgen.BiasSpec(gamma=1.0)
        if bias.target_pk is None:
            bias = dataclasses.replace(bias, target_pk=tuple(float(v) for v in pk))
        p_prime = biasgen.power_law_distribution(bias, len(pk))
        return _Shared(test, generator, {"pk": pk, "p_prime": p_prime})

    if spec.scenario == "censored":
        cspec = synthetic.CensoredSpec(**syn)
        test = synthetic.censored_test_sample(cspec, spec.n_test, test_seed)
        return _Shared(test, cspec, {"censored_spec": cspec})

    raise ValidationError(f"scenario {spec.scenario!r} does not train models")


def _prepare(spec: ExperimentSpec, rep_seed: int, shared: _Shared) -> _ReplicateData:
    """Draw one replicate's training set."""
    gen, ctx, test = shared.generator, dict(shared.context), shared.test
    if spec.scenario == "class_shift":
        trainset = analytic.sample(gen, spec.n_train, ctx["p_train"], [rep_seed, 0])
    elif spec.scenario == "pu":
        trainset = analytic.sample_pu(gen, spec.n_train, ctx["q"], [rep_seed, 0])
    elif spec.scenario == "strata_shift":
        source = gen  # an ingested train_csv is subsampled as it is
        if not isinstance(gen, Dataset):
            n_source = spec.synthetic.get("n_source", 4 * spec.n_train)
            source = synthetic.gaussian_strata_sample(gen, n_source, ctx["pk"], [rep_seed, 0])
        trainset = biasgen.subsample_to_distribution(
            source, ctx["p_prime"], [rep_seed, 1], max_size=spec.n_train
        )
        J = trainset.n_classes
        ctx["class_pk"] = tuple([1.0 / J] * J)
    else:  # censored
        trainset = synthetic.censored_train_sample(gen, spec.n_train, [rep_seed, 0])
        _align_classes(trainset, test)
    return _ReplicateData(trainset, test, ctx)


def _mode_weights(mode: str, data: Dataset, spec: ExperimentSpec, ctx: dict) -> WeightVector:
    if mode == "uniform":
        if data.events is not None:
            return WeightVector(data.events.astype(float))
        return WeightVector.ones(data.n)
    if mode == "class":
        class_pk = ctx.get("class_pk")
        if data.n_classes == 2 and "p" in ctx:
            return weights_mod.class_shift_weights(
                data, weights_mod.TargetPrior(p=ctx["p"])
            )
        labels_as_strata = Dataset(
            features=data.features,
            labels=data.labels,
            strata=data.labels,
            n_classes=data.n_classes,
            n_strata=data.n_classes,
        )
        return weights_mod.stratum_shift_weights(
            labels_as_strata, weights_mod.TargetPrior(pk=tuple(class_pk))
        )
    if mode == "strata":
        return weights_mod.stratum_shift_weights(
            data, weights_mod.TargetPrior(pk=tuple(float(v) for v in ctx["pk"]))
        )
    if mode == "pu":
        return weights_mod.pu_weights(data, weights_mod.TargetPrior(p=ctx["p"]))
    if mode == "ipcw":
        km = weights_mod.km_fit(data.times, ~data.events)
        return weights_mod.ipcw_weights(data, km)
    if mode == "oracle":
        if "p_prime" in ctx:
            return weights_mod.oracle_stratum_shift_weights(
                data, ctx["pk"], ctx["p_prime"]
            )
        if "q" in ctx:
            return weights_mod.oracle_pu_weights(data, ctx["p"], ctx["q"])
        if "p_train" in ctx:
            return weights_mod.oracle_class_shift_weights(
                data, ctx["p"], ctx["p_train"]
            )
        if "censored_spec" in ctx:
            return synthetic.oracle_censoring_weights(ctx["censored_spec"], data)
        raise ValidationError("oracle weights undefined for this scenario")
    raise ValidationError(f"unknown reweighting mode {mode!r}")


# ---------------------------------------------------------------------------
# The runner
# ---------------------------------------------------------------------------


def _analytic_excess_bundle(spec: ExperimentSpec) -> dict:
    p = spec.synthetic.get("p", 0.3)
    pairs = [tuple(pr) for pr in spec.synthetic.get("pairs", ANALYTIC_PAIRS)]
    curves = {}
    for alpha, beta in pairs:
        m = analytic.AnalyticModel(alpha=alpha, beta=beta, p=p)
        thetas, risks = analytic.risk_curve(m)
        p_grid, excess = analytic.excess_curve(m)
        curves[f"a{alpha:g}_b{beta:g}"] = {
            "alpha": alpha,
            "beta": beta,
            "theta": thetas.tolist(),
            "risk": risks.tolist(),
            "p_prime": p_grid.tolist(),
            "excess": excess.tolist(),
        }
    return {"p": p, "curves": curves}


def _failure(replicate: int, mode: str, exc: Exception) -> dict:
    return {"replicate": replicate, "mode": mode, "error": f"{type(exc).__name__}: {exc}"}


def run_experiment(spec: ExperimentSpec) -> dict:
    """Execute generate/ingest -> bias -> weights -> fit -> evaluate per
    replicate; fully deterministic per base seed."""
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
        shared = _shared_data(spec)
    except Exception as exc:  # noqa: BLE001 - every replicate reports it
        bundle["failures"] = [_failure(r, "*", exc) for r in range(len(seeds))]
        seeds = ()

    for r, rep_seed in enumerate(seeds):
        try:
            rep = _prepare(spec, rep_seed, shared)
        except Exception as exc:  # noqa: BLE001 - partial completion is reported
            bundle["failures"].append(_failure(r, "*", exc))
            continue
        if "p_prime" in rep.context:
            realized_p_prime = [float(v) for v in rep.context["p_prime"]]
        for mode in spec.modes:
            try:
                w = _mode_weights(mode, rep.train, spec, rep.context)
                cfg = spec.train_config(seed=rep_seed)
                # only replicate 0's learning curves are kept
                params, log = train_mod.fit(
                    rep.train, w, spec.model_kind, cfg,
                    eval_data=rep.test if r == 0 else None, top_k=spec.top_k,
                )
                metrics = classification_metrics(
                    rep.test, train_mod.logits_batch(params, rep.test.features),
                    k=spec.top_k,
                )
            except Exception as exc:  # noqa: BLE001 - replicate failure is data
                bundle["failures"].append(_failure(r, mode, exc))
                continue
            per_mode[mode]["miss_rate"].append(metrics["miss_rate"])
            per_mode[mode]["top_k_error"].append(metrics["top_k_error"])
            per_mode[mode]["sce"].append(metrics["mean_sce"])
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
            with open(path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["epoch", "objective", "miss_rate", "top_k_error"])
                for epoch, obj, miss, topk in rows:
                    writer.writerow([epoch, repr(obj), repr(miss), repr(topk)])
            written.append(path)
    if "analytic" in bundle:
        os.makedirs(curves_dir, exist_ok=True)
        for name, curve in bundle["analytic"]["curves"].items():
            risk_path = os.path.join(curves_dir, f"risk_{name}.csv")
            with open(risk_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["theta", "risk"])
                for t, rv in zip(curve["theta"], curve["risk"]):
                    writer.writerow([repr(t), repr(rv)])
            written.append(risk_path)
            excess_path = os.path.join(curves_dir, f"excess_{name}.csv")
            with open(excess_path, "w", newline="") as fh:
                writer = csv.writer(fh)
                writer.writerow(["p_prime", "excess"])
                for pp, ev in zip(curve["p_prime"], curve["excess"]):
                    writer.writerow([repr(pp), repr(ev)])
            written.append(excess_path)
    return written
