"""Command-line entry points: generate / train / eval / ablate / gradcheck."""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys

from .config import RunConfig, load_config, read_json_file, upgrade_config
from .data import GeneratorConfig, generate, load_dataset, save_dataset, write_manifest
from .container import atomic_open
from .errors import CheckpointError, ContractError, NumericError
from .fusion import FusionConfig
from .harness import ablate, ablation_csv, evaluate_checkpoint, train, write_eval_artifacts

SEED_ENV = "INVGATE_SEED"


def _load_generator_config(path: str) -> GeneratorConfig:
    """A bare generator config, or the generator of a run config (whose
    unknown keys raise ContractError)."""
    data = read_json_file(path)
    generator_keys = {f.name for f in dataclasses.fields(GeneratorConfig)}
    if isinstance(data, dict) and set(data) <= generator_keys:
        return GeneratorConfig(**data)
    return RunConfig.from_dict(upgrade_config(data)).generator


def _apply_overrides(cfg: RunConfig, args) -> tuple[RunConfig, dict]:
    overrides = {name: getattr(args, name) for name in _OVERRIDES
                 if getattr(args, name) is not None}
    manifest_extra = {"seed_env_override": False}
    env_seed = os.environ.get(SEED_ENV)
    if env_seed is not None:
        try:
            seed = int(env_seed)
        except ValueError:
            raise ContractError(f"{SEED_ENV} must be an integer, got {env_seed!r}") from None
        overrides["seed"] = seed
        manifest_extra = {"seed_env_override": True, "seed_env_value": seed}
    if overrides:
        cfg = cfg.replace(**overrides)
    manifest_extra["effective_seed"] = cfg.seed
    return cfg, manifest_extra


def _add_train_flags(p: argparse.ArgumentParser) -> argparse.ArgumentParser:
    p.add_argument("--lambda", dest="irm_lambda", type=float, help="IRMv1 penalty weight")
    p.add_argument("--alpha", dest="align_alpha", type=float, help="alignment loss weight")
    p.add_argument("--phi", dest="fusion_phi", type=float, help="2D fusion temperature")
    p.add_argument("--rho", dest="mining_rho", type=float, help="mining target fraction")
    for step, what in (("step1", "hard-sample mining"), ("step2", "invariance learning"),
                       ("align", "cross-modality alignment")):
        p.add_argument(f"--no-{step}", dest=f"enable_{step}", action="store_false",
                       default=None, help=f"disable {what}")
    p.add_argument("--fusion", dest="fusion_mode", choices=["mul", "add"])
    p.add_argument("--seed", type=int)
    return p


# the dest of each train flag, which is the RunConfig field it sets
_OVERRIDES = tuple(action.dest for action in
                   _add_train_flags(argparse.ArgumentParser(add_help=False))._actions)


def cmd_generate(args) -> int:
    cfg = _load_generator_config(args.config)
    dataset = generate(cfg)
    save_dataset(dataset, args.out, mode="text" if args.text else "binary")
    write_manifest(dataset, args.manifest or args.out + ".manifest")
    n_train, n_test = (len(dataset.arrays(name)[2]) for name in ("train", "test"))
    print(f"wrote {args.out} ({n_train} train / {n_test} test)")
    return 0


def cmd_train(args) -> int:
    cfg, manifest_extra = _apply_overrides(load_config(args.config), args)
    dataset = load_dataset(args.data) if args.data else None
    manifest_extra["dataset"] = args.data or "generated"
    result = train(cfg, dataset=dataset, out_dir=args.out, manifest_extra=manifest_extra)
    last = result.metrics[-1]
    print(f"done: acc2={last['acc2']:.4f} acc3={last['acc3']:.4f} "
          f"acc_joint={last['acc_joint']:.4f} c_err={last['c_err']:.4f}")
    print(f"artifacts in {args.out}")
    return 0


def cmd_eval(args) -> int:
    dataset = load_dataset(args.data)
    fusion = FusionConfig(phi=args.phi, mode=args.fusion)
    rec = evaluate_checkpoint(args.checkpoint, dataset, fusion)
    if args.out:
        write_eval_artifacts(rec, args.out)
    print(json.dumps({k: v for k, v in rec.aggregates().items()
                      if not k.startswith("confusion")}, indent=2, sort_keys=True))
    return 0


def cmd_ablate(args) -> int:
    cfg, _ = _apply_overrides(load_config(args.config), args)
    grid = read_json_file(args.grid, "grid")
    cells = grid.get("cells") if isinstance(grid, dict) and set(grid) == {"cells"} else grid
    if not isinstance(cells, list) or not all(isinstance(c, dict) for c in cells):
        raise ContractError(f"grid {args.grid} must be a list of override objects "
                            f'or {{"cells": [...]}}')
    dataset = load_dataset(args.data) if args.data else None
    rows = ablate(cfg, cells, dataset=dataset,
                  progress=lambda row: print(
                      f"  step1={row['enable_step1']} step2={row['enable_step2']} "
                      f"fusion={row['fusion_mode']}: acc_joint={row['acc_joint']:.4f} "
                      f"c_err={row['c_err']:.4f}"))
    csv = ablation_csv(rows)
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        with atomic_open(os.path.join(args.out, "results.csv")) as fh:
            fh.write(csv)
        print(f"wrote {os.path.join(args.out, 'results.csv')}")
    else:
        print(csv, end="")
    return 0


def cmd_gradcheck(_args) -> int:
    from .gradcheck_suite import run_suite

    results = run_suite()
    failed = 0
    for name, ok, err in results:
        print(f"{'PASS' if ok else 'FAIL'}  {name}  (max rel err {err:.2e})")
        failed += not ok
    print(f"{len(results) - failed}/{len(results)} gradient checks passed")
    return 1 if failed else 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="invgate",
        description="Invariance-gated two-modality ensemble training testbed",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None)
    p.add_argument("--text", action="store_true", help="text container instead of binary")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("train", help="run the full training loop")
    p.add_argument("--config", required=True)
    p.add_argument("--data", default=None, help="dataset file (default: generate from config)")
    p.add_argument("--out", required=True, help="output directory")
    _add_train_flags(p)
    p.set_defaults(fn=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint on a dataset")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--phi", type=float, default=1.0)
    p.add_argument("--fusion", choices=["mul", "add"], default="mul")
    p.add_argument("--out", default=None, help="directory for CSV artifacts")
    p.set_defaults(fn=cmd_eval)

    p = sub.add_parser("ablate", help="run an ablation grid")
    p.add_argument("--config", required=True)
    p.add_argument("--grid", required=True, help="JSON list of config overrides")
    p.add_argument("--data", default=None)
    p.add_argument("--out", default=None)
    _add_train_flags(p)
    p.set_defaults(fn=cmd_ablate)

    p = sub.add_parser("gradcheck", help="finite-difference gradient suite")
    p.set_defaults(fn=cmd_gradcheck)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (ContractError, CheckpointError, NumericError, OSError) as exc:
        print(f"invgate: error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
