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
    load_config,
    parse_int_list,
    parse_set_args,
    save_config,
)
from .core import SeededRng, STREAMS
from .data import generate_gaussian_clusters, load_csv, save_csv
from .errors import EngineError
from .training import (
    ablation_variants,
    evaluate_checkpoint,
    run_comparison,
    sweep_variants,
    train,
)


def _add_config_args(p):
    p.add_argument("--config", help="JSON config document")
    p.add_argument(
        "--set",
        action="append",
        metavar="KEY=VALUE",
        help="override any dotted config key (repeatable)",
    )
    p.add_argument("--seed", type=int, help="shorthand for --set seed=N")
    p.add_argument("--out-dir", help="shorthand for --set out_dir=PATH")


def _build_config(args) -> RunConfig:
    cfg = load_config(args.config) if args.config else RunConfig()
    parse_set_args(cfg, args.set)
    if getattr(args, "seed", None) is not None:
        cfg.seed = args.seed
    if getattr(args, "out_dir", None):
        cfg.out_dir = args.out_dir
    return cfg


def _cmd_generate_data(args) -> int:
    rng = SeededRng(args.seed, STREAMS["data"])
    dataset = generate_gaussian_clusters(
        args.classes, args.per_class, args.input_dim, args.center_scale,
        args.noise_sigma, rng,
    )
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
    ks = parse_int_list(args.ks, "--ks")
    if args.csv:
        dataset = load_csv(args.csv, args.label_col, header=args.header)
    else:
        cfg = _build_config(args)
        from .training import build_dataset

        dataset = build_dataset(cfg, SeededRng(cfg.seed, STREAMS["data"]))
    report = evaluate_checkpoint(args.checkpoint, dataset, ks)
    print(json.dumps(report.to_json_dict()))
    return 0


def _variants_from_args(args):
    if args.variants == "ablation":
        return ablation_variants()
    path = args.variants
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
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


def _cmd_sweep(args) -> int:
    cfg = _build_config(args)
    seeds = parse_int_list(args.seeds, "--seeds")
    values = args.values.split(",")
    table = run_comparison(
        cfg, sweep_variants(args.param, values), seeds, out_dir=cfg.out_dir
    )
    print(table.format_table())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densedml",
        description="Desk-scale deep metric learning with anchor-densified sampling",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("generate-data", help="write a synthetic Gaussian-cluster CSV")
    g.add_argument("--out", required=True)
    g.add_argument("--classes", type=int, default=16)
    g.add_argument("--per-class", type=int, default=64)
    g.add_argument("--input-dim", type=int, default=32)
    g.add_argument("--center-scale", type=float, default=1.0)
    g.add_argument("--noise-sigma", type=float, default=0.6)
    g.add_argument("--seed", type=int, default=7)
    g.set_defaults(fn=_cmd_generate_data)

    t = sub.add_parser("train", help="train an encoder per the config")
    _add_config_args(t)
    t.set_defaults(fn=_cmd_train)

    e = sub.add_parser("evaluate", help="score a checkpoint on a dataset's test split")
    _add_config_args(e)
    e.add_argument("--checkpoint", required=True)
    e.add_argument("--csv", help="dataset CSV (otherwise the config's data section)")
    e.add_argument(
        "--label-col", type=int, default=-1,
        help="0-based label column; negative counts from the end (default last)",
    )
    e.add_argument("--header", action="store_true", help="skip the first non-blank CSV line")
    e.add_argument("--ks", default="1,2,4,8")
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
    s.set_defaults(fn=_cmd_sweep)

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
        from .config import config_to_dict

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
