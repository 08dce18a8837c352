"""Command-line interface.

Commands: synth, train, validate-theory, delta-compare, fairness-sweep.
Each takes --config <path> (JSON) plus the overrides --seed and --out
<dir>; every command but synth also takes --filter {sym,rw}, --layers N
and --lambda-fair X.  A flag replaces its config key before the config is
checked.
"""
from __future__ import annotations

import argparse
import json
import sys

from .pipelines import (
    FILTER_ABBREV,
    _check,
    _read_fields,
    config_from_dict,
    run_delta_comparison,
    run_fairness_sweep,
    run_train,
    run_validate_theory,
)
from .synth import SynthConfig, synth_generate

# The config keys the flags write, as their argparse dests.
_FLAG_KEYS = ("seed", "seeds", "out", "filter", "layers", "lambda_fair")


def _add_common(parser: argparse.ArgumentParser, seed_key: str,
                seed_help: str) -> None:
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--seed", type=int, dest=seed_key, help=seed_help)
    parser.add_argument("--out", help="output directory")


def _add_overrides(parser: argparse.ArgumentParser) -> None:
    _add_common(parser, "seeds", "replace the seed list with a single seed")
    parser.add_argument("--filter", choices=tuple(FILTER_ABBREV.values()))
    parser.add_argument("--layers", type=int,
                        help="number of layers; hidden dims become "
                             "128 x (N-1) then 64")
    parser.add_argument("--lambda-fair", type=float, dest="lambda_fair")


def _read_config(args, what: str) -> dict:
    """The JSON object at ``--config`` with each flag given written over
    its key; ``--layers N`` writes ``hidden_dims``."""
    with open(args.config, encoding="utf-8") as fh:
        try:
            raw = json.load(fh)
        except ValueError as exc:  # not JSON, or not UTF-8
            raise ValueError(f"{args.config}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"{what} must be a JSON object")
    flags = {key: getattr(args, key) for key in _FLAG_KEYS
             if getattr(args, key, None) is not None}
    if "layers" in flags:
        n_layers = flags.pop("layers")
        if n_layers < 1:
            raise ValueError("flag --layers must be >= 1")
        flags["hidden_dims"] = [128] * (n_layers - 1) + [64]
    return {**raw, **flags}


def _cmd_synth(args) -> int:
    raw = _read_config(args, "synth config")
    out_dir = _check("out", raw.pop("out", "synth_data"), str)
    config = SynthConfig(**_read_fields(SynthConfig, raw, "synth config"))
    paths = synth_generate(config, out_dir)
    print(json.dumps(paths, indent=2, sort_keys=True))
    return 0


def _run_pipeline(args, runner) -> int:
    payload = runner(config_from_dict(_read_config(args, "config")))
    print(json.dumps(payload["paths"], indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="palink",
        description="GCN link prediction with degree-bias diagnostics and "
                    "subgroup-fairness training",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_synth = sub.add_parser("synth", help="generate a synthetic dataset")
    _add_common(p_synth, "seed", "replace the generator seed")

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
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
