"""Command-line interface.

Subcommands: ``biasgen``, ``weights``, ``train``, ``bounds``,
``experiment``; the closed-form curves are the ``analytic_excess``
scenario of ``experiment``.  Exit codes: 0 success, 2 validation error,
3 numeric error, 4 IO error, 5 an experiment ran but some replicate x mode
runs failed (its outputs are still written; the failures are listed in
the summary and in ``results.json``).
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from . import biasgen, bounds as bounds_mod, experiment, train as train_mod
from .core import (
    Dataset,
    NumericError,
    ValidationError,
    WermError,
    WeightVector,
    _check_top_k,
    write_csv,
)


def _load_pk(path) -> list:
    """The parsed JSON list; ``TargetPrior`` checks its entries."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, list):
        raise ValidationError("pk file must hold a JSON list of probabilities")
    return doc


def _emit(doc: dict) -> None:
    json.dump(doc, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")


def _weights_from_flags(data: Dataset, mode: str, args) -> tuple[WeightVector, dict]:
    """Weights of a mode of :data:`experiment.MODE_WEIGHTS`, with ``--p`` and
    ``--pk-file`` as its context; mode ``none`` is all-ones.  Returns the
    weights and the context, which then holds what the mode fitted."""
    if mode == "none":
        return WeightVector.ones(data.n), {}
    ctx = {"p": args.p, "pk": None if args.pk_file is None else _load_pk(args.pk_file)}
    return experiment.MODE_WEIGHTS[mode](data, ctx), ctx


# ---------------------------------------------------------------------------
# Handlers
# ---------------------------------------------------------------------------


def _cmd_biasgen(args) -> None:
    data, _ = experiment.ingest_csv(args.infile)
    spec = biasgen.BiasSpec(
        gamma=args.gamma,
        permutation="identity" if args.identity or args.perm_seed is None else "random",
        perm_seed=args.perm_seed,
    )
    out, p_prime = biasgen.apply_bias(
        data, spec, seed=args.seed, max_size=args.max_size
    )
    write_csv(out, args.outfile)
    _emit(
        {
            "p_prime": [float(v) for v in p_prime],
            "output_size": out.n,
            "input_size": data.n,
            "outfile": args.outfile,
        }
    )


def _cmd_weights(args) -> None:
    data, report = experiment.ingest_csv(args.infile)
    w, ctx = _weights_from_flags(data, args.mode, args)
    w.to_csv(args.outfile)
    if "km" in ctx and args.km_out:
        ctx["km"].to_csv(args.km_out)
    _emit({"mode": args.mode, "n": data.n, "mean_weight": w.mean, "load": report})


def _cmd_train(args) -> None:
    train_data, _ = experiment.ingest_csv(args.train)
    test_data, _ = experiment.ingest_csv(args.test)
    experiment._align_classes(train_data, test_data)
    J = train_data.n_classes
    w, _ = _weights_from_flags(train_data, args.weights, args)
    cfg = train_mod.TrainConfig(
        lr=args.lr,
        momentum=args.momentum,
        weight_decay=args.wd,
        batch_size=args.batch,
        epochs=args.epochs,
        seed=args.seed,
    )
    top_k = args.top_k if args.top_k is not None else min(5, J)
    _check_top_k(top_k, J)  # checked before training, not after it
    [(metrics, log)] = experiment._fit_and_score(
        train_data, [w], test_data, args.model, cfg, top_k, curve=bool(args.curve)
    )
    if args.curve:
        experiment.write_curve(args.curve, log.rows())
    _emit(
        {
            "miss_rate": metrics["miss_rate"],
            "top_k_error": metrics["top_k_error"],
            "sce": metrics["sce"],
            "top_k": top_k,
            "curve": args.curve,
        }
    )


def _cmd_bounds(args) -> None:
    inputs = bounds_mod.BoundInputs(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(bounds_mod.BoundInputs)}
    )
    result = bounds_mod.evaluate_bound(args.kind, inputs)
    _emit({"kind": args.kind, **dataclasses.asdict(result)})


def _cmd_experiment(args) -> int:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    if args.seed is not None:
        doc["base_seed"] = args.seed
    if args.out is not None:
        doc["out_dir"] = args.out
    spec = experiment.ExperimentSpec.from_json(doc)
    bundle = experiment.run_experiment(spec)
    if spec.out_dir:
        written = experiment.emit_results(bundle, spec.out_dir)
    else:
        written = []
    summary = {
        "scenario": bundle["scenario"],
        "replicates": bundle["replicates"],
        "failures": bundle["failures"],
        "written": written,
    }
    if "modes" in bundle:
        summary["modes"] = {
            mode: {metric: vals["mean"] for metric, vals in by_metric.items()}
            for mode, by_metric in bundle["modes"].items()
        }
    _emit(summary)
    if bundle["failures"]:
        print(f"error: {len(bundle['failures'])} replicate x mode runs failed", file=sys.stderr)
        return 5
    return 0


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="werm",
        description="Weighted empirical risk minimization with plug-in importance weights.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pb = sub.add_parser("biasgen", help="inject power-law strata bias into a CSV")
    pb.add_argument("--in", dest="infile", required=True)
    pb.add_argument("--out", dest="outfile", required=True)
    pb.add_argument("--gamma", type=float, required=True)
    group = pb.add_mutually_exclusive_group()
    group.add_argument("--identity", action="store_true", help="identity permutation")
    group.add_argument("--perm-seed", type=int, help="seed for a random permutation")
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--max-size", type=int, default=None)
    pb.set_defaults(func=_cmd_biasgen)

    pw = sub.add_parser("weights", help="compute an importance-weight vector")
    pw.add_argument("--in", dest="infile", required=True)
    pw.add_argument("--out", dest="outfile", required=True)
    pw.add_argument("--mode", choices=("class", "strata", "pu", "ipcw"), required=True)
    pw.add_argument("--p", type=float)
    pw.add_argument("--pk-file", help="JSON list of test stratum probabilities")
    pw.add_argument("--km-out", help="also write the censoring survival curve CSV")
    pw.set_defaults(func=_cmd_weights)

    pt = sub.add_parser("train", help="weighted training and test evaluation")
    pt.add_argument("--train", required=True)
    pt.add_argument("--test", required=True)
    pt.add_argument("--model", choices=train_mod.MODEL_KINDS, default="linear")
    pt.add_argument(
        "--weights", choices=("none", "class", "strata", "pu", "ipcw"), default="none"
    )
    pt.add_argument("--p", type=float)
    pt.add_argument("--pk-file")
    pt.add_argument("--lr", type=float, default=0.001)
    pt.add_argument("--momentum", type=float, default=0.9)
    pt.add_argument("--wd", type=float, default=0.0)
    pt.add_argument("--batch", type=int, default=1000)
    pt.add_argument("--epochs", type=int, default=10)
    pt.add_argument("--seed", type=int, default=0)
    pt.add_argument("--top-k", type=int, default=None)
    pt.add_argument("--curve", help="write the per-epoch learning curve CSV here")
    pt.set_defaults(func=_cmd_train)

    pd = sub.add_parser("bounds", help="evaluate a generalization or deviation bound")
    pd.add_argument(
        "--kind",
        required=True,
        choices=bounds_mod.EXCESS_BOUND_KINDS + bounds_mod.DEVIATION_BOUND_KINDS,
    )
    pd.add_argument("--n", type=int, required=True)
    pd.add_argument("--delta", type=float, required=True)
    pd.add_argument("--epsilon", type=float)
    pd.add_argument("--L", type=float, default=1.0)
    pd.add_argument("--p", type=float)
    pd.add_argument("--K", type=int)
    pd.add_argument("--max-pk", dest="max_pk", type=float)
    pd.add_argument("--phi-sup", dest="phi_sup", type=float)
    pd.add_argument("--rademacher", type=float, default=0.0)
    pd.set_defaults(func=_cmd_bounds)

    pe = sub.add_parser("experiment", help="run an experiment spec end to end")
    pe.add_argument("--config", help="JSON ExperimentSpec document")
    pe.add_argument("--seed", type=int, default=None, help="override base_seed")
    pe.add_argument("--out", default=None, help="override out_dir")
    pe.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args) or 0
    except NumericError as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return 3
    except json.JSONDecodeError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except WermError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
