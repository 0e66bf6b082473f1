"""Command-line entry points: generate-data, train, evaluate, compare, sweep.

Exit codes: 0 success, 2 configuration error, 3 runtime abort.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import (
    ConfigError,
    RunConfig,
    config_to_dict,
    load_config,
    parse_int_list,
    parse_set_args,
    save_config,
)
from .core import SeededRng, STREAMS
from .data import save_csv
from .errors import EngineError
from .training import (
    ablation_variants,
    build_dataset,
    check_eval_ks,
    evaluate_checkpoint,
    run_comparison,
    sweep_variants,
    train,
)


def _add_config_args(p, out_dir=True):
    p.add_argument("--config", help="JSON config document")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any dotted config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    if out_dir:
        p.add_argument("--out-dir", help="shorthand for --set out_dir=PATH")


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    parse_set_args(cfg, args.set)
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out_dir:
        cfg.out_dir = args.out_dir
    return cfg


def _cmd_generate_data(args) -> int:
    cfg = _build_config(args)
    dataset = build_dataset(cfg, SeededRng(cfg.seed, STREAMS["data"]))
    save_csv(dataset, args.out)
    print(
        f"wrote {dataset.n_points} points, {dataset.n_classes} classes "
        f"(dim {dataset.input_dim}) to {args.out}"
    )
    return 0


def _cmd_train(args) -> int:
    cfg = _build_config(args)
    result = train(cfg)
    report = result.final_report.to_json_dict(cfg.steps)
    print(json.dumps(report))
    if cfg.out_dir:
        print(f"run artifacts in {cfg.out_dir}", file=sys.stderr)
    return 0


def _cmd_evaluate(args) -> int:
    cfg = _build_config(args).validate()
    dataset = build_dataset(cfg, SeededRng(cfg.seed, STREAMS["data"]))
    check_eval_ks(cfg.eval_ks, dataset)
    report = evaluate_checkpoint(args.checkpoint, dataset, cfg.eval_ks)
    print(json.dumps(report.to_json_dict()))
    return 0


def _variants_from_args(args):
    if args.variants == "ablation":
        return ablation_variants()
    path = args.variants
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read variants file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"variants file {path} is not valid JSON: {exc}") from exc
    if not isinstance(doc, list):
        raise ConfigError(f"variants file {path} must hold a JSON list of {{name, set}} entries")
    for i, entry in enumerate(doc):
        if not (isinstance(entry, dict) and "name" in entry
                and isinstance(entry.get("set", {}), dict)):
            raise ConfigError(
                f"variants file {path}: entry {i} needs a \"name\" and an optional "
                f"\"set\" object, got {entry!r}"
            )
    return [(entry["name"], entry.get("set", {})) for entry in doc]


def _cmd_compare(args) -> int:
    cfg = _build_config(args)
    seeds = parse_int_list(args.seeds, "--seeds")
    if args.command == "sweep":
        variants = sweep_variants(args.param, args.values.split(","))
    else:
        variants = _variants_from_args(args)
    table = run_comparison(
        cfg, variants, seeds, out_dir=cfg.out_dir,
        progress=lambda c: print(
            f"[{c.variant} seed={c.seed}] {c.status}"
            + (f" R@1={c.recall1:.4f}" if c.status == "ok" else f" ({c.error})"),
            file=sys.stderr,
        ),
    )
    print(table.format_table())
    if cfg.out_dir:
        print(f"report.csv written under {cfg.out_dir}", file=sys.stderr)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densedml",
        description="Desk-scale deep metric learning with anchor-densified sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write the config's dataset (data.*) as a CSV")
    g.add_argument("--out", required=True)
    _add_config_args(g, out_dir=False)
    g.set_defaults(fn=_cmd_generate_data, out_dir=None)

    t = sub.add_parser("train", help="train an encoder per the config")
    _add_config_args(t)
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("evaluate", help="score a checkpoint on a dataset's test split")
    _add_config_args(e)
    e.add_argument("--checkpoint", required=True)
    e.set_defaults(fn=_cmd_evaluate)

    c = sub.add_parser("compare", help="train variant x seed cells and tabulate")
    _add_config_args(c)
    c.add_argument(
        "--variants", default="ablation",
        help="'ablation' or a JSON file of {name, set} entries",
    )
    c.add_argument("--seeds", default="0,1,2")
    c.set_defaults(fn=_cmd_compare)

    s = sub.add_parser("sweep", help="grid over one config key")
    _add_config_args(s)
    s.add_argument("--param", required=True, help="dotted config key, e.g. das.K")
    s.add_argument("--values", required=True, help="comma-separated values")
    s.add_argument("--seeds", default="0,1,2")
    s.set_defaults(fn=_cmd_compare)

    x = sub.add_parser("write-config", help="print or save the default config")
    x.add_argument("--out", help="write to this path instead of stdout")
    _add_config_args(x)
    x.set_defaults(fn=_cmd_write_config)

    return parser


def _cmd_write_config(args) -> int:
    cfg = _build_config(args)
    if args.out:
        save_config(cfg, args.out)
        print(f"wrote {args.out}")
    else:
        print(json.dumps(config_to_dict(cfg), indent=2, sort_keys=True))
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except EngineError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
