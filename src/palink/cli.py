"""Command-line interface.

Commands: synth, train, validate-theory, delta-compare, fairness-sweep.
Each takes --config <path> (JSON) plus the overrides --seed and --out
<dir>; every command but synth also takes --filter {sym,rw}, --layers N
and --lambda-fair X.
"""
from __future__ import annotations

import argparse
import json
import sys
from dataclasses import replace

from .pipelines import (
    FILTER_ALIASES,
    _check,
    _read_fields,
    hidden_dims_for_layers,
    load_config,
    run_delta_comparison,
    run_fairness_sweep,
    run_train,
    run_validate_theory,
)
from .synth import SynthConfig, synth_generate


def _add_common(parser: argparse.ArgumentParser, seed_help: str) -> None:
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, default=None, help=seed_help)
    parser.add_argument("--out", default=None, help="output directory")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, "replace the seed list with a single seed")
    parser.add_argument("--filter", choices=("sym", "rw"), default=None)
    parser.add_argument("--layers", type=int, default=None,
                        help="number of layers; hidden dims become "
                             "128 x (N-1) then 64")
    parser.add_argument("--lambda-fair", type=float, default=None,
                        dest="lambda_fair")


def _apply_overrides(config, args):
    if args.seed is not None:
        config = replace(config, seeds=(args.seed,))
    if args.filter is not None:
        config = replace(config, filter_kind=FILTER_ALIASES[args.filter])
    if args.layers is not None:
        if args.layers < 1:
            raise ValueError("--layers must be >= 1")
        config = replace(config, hidden_dims=hidden_dims_for_layers(args.layers))
    if args.lambda_fair is not None:
        config = replace(config, lambda_fair=(args.lambda_fair,))
    if args.out is not None:
        config = replace(config, out=args.out)
    return config


def _cmd_synth(args) -> int:
    with open(args.config) as fh:
        raw = json.load(fh)
    if not isinstance(raw, dict):
        raise ValueError("synth config must be a JSON object")
    out_dir = _check("out", raw.pop("out", "synth_data"), str)
    if args.out is not None:
        out_dir = args.out
    if args.seed is not None:
        raw["seed"] = args.seed
    config = SynthConfig(**_read_fields(SynthConfig, raw, "synth config"))
    paths = synth_generate(config, out_dir)
    print(json.dumps(paths, indent=2, sort_keys=True))
    return 0


def _run_pipeline(args, runner) -> int:
    config = _apply_overrides(load_config(args.config), args)
    payload = runner(config)
    paths = payload.get("paths", {})
    print(json.dumps(paths, indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="palink",
        description="GCN link prediction with degree-bias diagnostics and "
                    "subgroup-fairness training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p_synth, "replace the generator seed")

    for name, runner, help_text in (
        ("train", run_train, "train a single model"),
        ("validate-theory", run_validate_theory,
         "compare fitted theoretic scores against trained scores"),
        ("delta-compare", run_delta_comparison,
         "compare subgroup gaps with their theoretic estimates"),
        ("fairness-sweep", run_fairness_sweep,
         "sweep the fairness penalty weight"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_overrides(p)
        p.set_defaults(runner=runner)

    args = parser.parse_args(argv)
    try:
        if args.command == "synth":
            return _cmd_synth(args)
        return _run_pipeline(args, args.runner)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
