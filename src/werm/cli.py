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
import math
import sys

from . import biasgen, bounds as bounds_mod, experiment, train as train_mod, weights as weights_mod
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


def _check_prior_flags(mode: str, args) -> None:
    """Refuse, before any input is read, a missing prior flag that ``mode``
    reads and a given one that it does not (``none`` and ``ipcw`` read neither)."""
    reads = {"class": "--p", "pu": "--p", "strata": "--pk-file"}.get(mode)
    for flag, value in (("--p", args.p), ("--pk-file", args.pk_file)):
        if (value is None) == (flag == reads):
            verb = "needs" if value is None else "does not read"
            raise ValidationError(f"reweighting mode {mode!r} {verb} {flag}")


def _weights_from_flags(
    data: Dataset, mode: str, args
) -> tuple[WeightVector, weights_mod.KmCurve | None]:
    """A mode's weights, by the runner's estimator toward ``--p`` or ``--pk-file``,
    and for ``ipcw`` its censoring curve (else None); ``none`` is all-ones."""
    if mode == "none":
        return WeightVector.ones(data.n), None
    if mode == "ipcw":
        return experiment._ipcw_weights(data)
    pk = None if args.pk_file is None else _load_pk(args.pk_file)
    weigh = {"class": weights_mod.class_shift_weights, "pu": weights_mod.pu_weights,
             "strata": weights_mod.stratum_shift_weights}[mode]
    return weigh(data, weights_mod.TargetPrior(p=args.p, pk=pk)), None


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
    experiment._dump_json({"p_prime": [float(v) for v in p_prime], "output_size": out.n,
                           "input_size": data.n, "outfile": args.outfile}, sys.stdout)


def _cmd_weights(args) -> None:
    if args.km_out and args.mode != "ipcw":
        raise ValidationError("--km-out writes the censoring curve of --mode ipcw only")
    _check_prior_flags(args.mode, args)
    data, report = experiment.ingest_csv(args.infile)
    w, km = _weights_from_flags(data, args.mode, args)
    w.to_csv(args.outfile)
    if args.km_out:
        km.to_csv(args.km_out)
    experiment._dump_json({"mode": args.mode, "n": data.n, "mean_weight": w.mean, "load": report},
                          sys.stdout)


def _cmd_train(args) -> None:
    _check_prior_flags(args.weights, args)
    cfg = train_mod.TrainConfig(lr=args.lr, momentum=args.momentum, weight_decay=args.wd,
                                batch_size=args.batch, epochs=args.epochs, seed=args.seed)
    train_data, test_data = experiment._read_train_test(args.train, args.test)
    J = train_data.n_classes
    w, _ = _weights_from_flags(train_data, args.weights, args)
    top_k = args.top_k if args.top_k is not None else min(5, J)
    _check_top_k(top_k, J)  # checked before training, not after it
    [(metrics, log)] = experiment._fit_and_score(
        train_data, [w], test_data, args.model, cfg, top_k, curve=bool(args.curve)
    )
    if args.curve:
        experiment.write_curve(args.curve, log.rows())
    experiment._dump_json({**{k: metrics[k] for k in ("miss_rate", "top_k_error", "sce")},
                           "top_k": top_k, "curve": args.curve}, sys.stdout)


def _cmd_bounds(args) -> None:
    inputs = bounds_mod.BoundInputs(
        **{f.name: getattr(args, f.name) for f in dataclasses.fields(bounds_mod.BoundInputs)}
    )
    result = bounds_mod.evaluate_bound(args.kind, inputs)
    if not all(map(math.isfinite, [result.value, result.required_n, *result.terms.values()])):
        raise NumericError(f"bound {args.kind!r} is not finite at these inputs")
    experiment._dump_json({"kind": args.kind, **dataclasses.asdict(result)}, sys.stdout)


def _cmd_experiment(args) -> int:
    doc = {}
    if args.config:
        with open(args.config) as fh:
            doc = json.load(fh)
    overrides = {"base_seed": args.seed, "out_dir": args.out}
    spec = experiment.ExperimentSpec.from_json(
        doc, **{k: v for k, v in overrides.items() if v is not None}
    )
    bundle = experiment.run_experiment(spec)
    written = experiment.emit_results(bundle, spec.out_dir) if spec.out_dir else []
    summary = {k: bundle[k] for k in ("scenario", "replicates", "failures")}
    summary["written"] = written
    if "modes" in bundle:
        summary["modes"] = {
            mode: {metric: vals["mean"] for metric, vals in by_metric.items()}
            for mode, by_metric in bundle["modes"].items()
        }
    experiment._dump_json(summary, sys.stdout)
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
    pt.add_argument("--lr", type=float, default=train_mod.TrainConfig.lr)
    pt.add_argument("--momentum", type=float, default=train_mod.TrainConfig.momentum)
    pt.add_argument("--wd", type=float, default=train_mod.TrainConfig.weight_decay)
    pt.add_argument("--batch", type=int, default=train_mod.TrainConfig.batch_size)
    pt.add_argument("--epochs", type=int, default=train_mod.TrainConfig.epochs)
    pt.add_argument("--seed", type=int, default=train_mod.TrainConfig.seed)
    pt.add_argument("--top-k", type=int, default=None)
    pt.add_argument("--curve", help="write the per-epoch learning curve CSV here")
    pt.set_defaults(func=_cmd_train)

    pd = sub.add_parser("bounds", help="evaluate a generalization or deviation bound")
    pd.add_argument(
        "--kind",
        required=True,
        choices=bounds_mod.EXCESS_BOUND_KINDS + bounds_mod.DEVIATION_BOUND_KINDS,
    )
    for f in dataclasses.fields(bounds_mod.BoundInputs):  # one flag per field
        required = f.default is dataclasses.MISSING
        pd.add_argument("--" + f.name.replace("_", "-"), dest=f.name, required=required,
                        type=int if f.type.startswith("int") else float,
                        default=None if required else f.default)
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
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:  # a --config or --pk-file
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
