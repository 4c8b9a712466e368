"""Command line entry point.

Subcommands:
  simulate    sample a logged dataset from an MDP and policy, written as JSONL
  evaluate    run estimators on a logged dataset and emit a JSON report
  experiment  run a Monte Carlo MSE study from a JSON config
  bound       exact bandit efficiency bound for a horizon-0 MDP
  rmse        relative-RMSE and its simulation standard error from a cells file

Exit codes: 0 success, 1 validation/usage error, 2 runtime error. All reports
are emitted as stably sorted JSON so identical inputs give identical bytes.
"""
from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from .estimators import cb_efficiency_bound
from .mdp import ValidationError, load_mdp, sample_dataset
from .nuisance import NuisanceConfig
from .experiments import (
    cell_from_dict,
    check_estimator_names,
    evaluate_dataset,
    experiment_config_from_dict,
    ingest_jsonl,
    load_policy,
    relative_rmse,
    relative_rmse_se,
    run_mse_experiment,
    write_jsonl,
)


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


def _emit(obj: dict, output: str | None) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def _build_parser() -> _Parser:
    parser = _Parser(prog="dml-ope", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Parser)

    p = sub.add_parser("simulate", help="sample a logged dataset as JSONL")
    p.add_argument("--mdp", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output", required=True)

    p = sub.add_parser("evaluate", help="run estimators on a logged dataset")
    p.add_argument("--data", required=True)
    p.add_argument("--eval-policy", required=True)
    p.add_argument("--behavior-policy", help="known behavior policy; omitted means estimated")
    p.add_argument("--discount", type=float, required=True)
    p.add_argument("--estimator", action="append", default=None)
    p.add_argument("--folds", type=int, default=2)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--alpha", type=float, default=0.5, help="behavior-count smoothing")
    p.add_argument("--level", type=float, default=0.95)
    p.add_argument("--output")

    p = sub.add_parser("experiment", help="run a Monte Carlo MSE study")
    p.add_argument("--config", required=True)
    p.add_argument("--output")

    p = sub.add_parser("bound", help="bandit efficiency bound (horizon 0)")
    p.add_argument("--mdp", required=True)
    p.add_argument("--behavior-policy", required=True)
    p.add_argument("--eval-policy", required=True)
    p.add_argument("--output")

    p = sub.add_parser("rmse", help="relative-RMSE of a cells file")
    p.add_argument("--cells", required=True)
    p.add_argument("--sims", type=int, default=100_000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    return parser


def _cmd_simulate(args) -> None:
    mdp = load_mdp(args.mdp)
    policy = load_policy(args.policy)
    data = sample_dataset(mdp, policy, args.n, np.random.default_rng(args.seed))
    write_jsonl(data, args.output)


def _cmd_evaluate(args) -> None:
    if not 0.0 <= args.discount <= 1.0:
        raise ValidationError(f"--discount {args.discount} must lie in [0, 1]")
    data = ingest_jsonl(args.data)
    eval_policy = load_policy(args.eval_policy)
    behavior = load_policy(args.behavior_policy) if args.behavior_policy else None
    names = tuple(args.estimator) if args.estimator else ("dml",)
    check_estimator_names(names, "--estimator")
    results = evaluate_dataset(
        data,
        eval_policy,
        args.discount,
        names,
        np.random.default_rng(args.seed),
        known_behavior=behavior,
        k_folds=args.folds,
        config=NuisanceConfig(smoothing_alpha=args.alpha),
        level=args.level,
    )
    reports = []
    for name in sorted(results):
        report = results[name].to_dict()
        report["k_folds"] = args.folds
        report["seed"] = args.seed
        report["config_echo"] = {
            "alpha": args.alpha,
            "behavior_policy": "known" if behavior is not None else "estimated",
            "discount": args.discount,
        }
        reports.append(report)
    _emit({"reports": reports}, args.output)


def _cmd_experiment(args) -> None:
    path = Path(args.config)
    with open(path) as fh:
        config = experiment_config_from_dict(json.load(fh), base_dir=path.parent)
    report = run_mse_experiment(config)
    _emit(report.to_dict(), args.output)


def _cmd_bound(args) -> None:
    mdp = load_mdp(args.mdp)
    behavior = load_policy(args.behavior_policy)
    eval_policy = load_policy(args.eval_policy)
    bound = cb_efficiency_bound(mdp, behavior, eval_policy)
    _emit({"efficiency_bound": bound}, args.output)


def _cmd_rmse(args) -> None:
    with open(args.cells) as fh:
        raw = json.load(fh)
    if not isinstance(raw, list):
        raise ValidationError("cells file must be a JSON array")
    cells = [cell_from_dict(obj) for obj in raw]
    value = relative_rmse(cells)
    report = {"relative_rmse": value, "sims": args.sims}
    if all(c.ope_variance is not None and c.n_ope is not None for c in cells):
        report["standard_error"] = relative_rmse_se(
            cells, np.random.default_rng(args.seed), sims=args.sims
        )
    _emit(report, args.output)


_COMMANDS = {
    "simulate": _cmd_simulate,
    "evaluate": _cmd_evaluate,
    "experiment": _cmd_experiment,
    "bound": _cmd_bound,
    "rmse": _cmd_rmse,
}


def cli_main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.command](args)
    except (ValidationError, FileNotFoundError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
