"""Command-line interface.

Verbs: run, compare, verify-theorem1, export-features. Every config key from
the flat file format is mirrored as a flag (same dotted name) and overrides
the file value. Exit codes: 0 success, 2 config/argument or file-system
error, 3 numeric abort, 4 verification-gate failure.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

from . import analysis as A
from . import conditioning as C
from . import networks as N
from .config import KEYS, ExperimentConfig, load_config
from .errors import ConfigError, NumericAbort
from .runner import VARIANTS, compare, run_experiment, verify_theorem1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERIC = 3
EXIT_GATE = 4


def _add_config_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", help="flat key = value config file")
    for key in KEYS:
        parser.add_argument(f"--{key}", dest=f"cfgkey::{key}", metavar="VALUE", help=argparse.SUPPRESS)


def _bind_config_values(argv: list[str]) -> list[str]:
    """``--key value`` -> ``--key=value`` for every config key, so that a value
    starting with ``-`` (``--dataset.translation -2,0``) is not read as a flag."""
    bound: list[str] = []
    for token in argv:
        if bound and bound[-1].startswith("--") and bound[-1][2:] in KEYS and not token.startswith("--"):
            bound[-1] += f"={token}"
        else:
            bound.append(token)
    return bound


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    flags = {key: getattr(args, f"cfgkey::{key}", None) for key in KEYS}
    return load_config(args.config, {key: value for key, value in flags.items() if value is not None})


def _cmd_run(args) -> int:
    cfg = _resolve_config(args)
    record = run_experiment(cfg, args.seed, args.out)
    final = record.epochs[-1]
    print(f"run complete: {len(record.epochs)} epochs, acc_src={final.acc_src:.4f} "
          f"acc_tgt={final.acc_tgt:.4f} dist_A={record.a_distance:.4f}")
    print(f"outputs in {args.out}: metrics.csv, model.txt, features.csv")
    return EXIT_OK


def _cmd_compare(args) -> int:
    cfg = _resolve_config(args)
    variants = [v.strip() for v in args.variants.split(",") if v.strip()]
    rows = compare(cfg, variants, list(cfg.seeds), args.out)
    for variant in variants:
        accs = [r.acc_tgt for r in rows if r.variant == variant]
        print(f"{variant}: mean acc_tgt = {sum(accs) / len(accs):.4f} over {len(accs)} seed(s)")
    print(f"summary written to {os.path.join(args.out, 'summary.csv')}")
    return EXIT_OK


def _cmd_verify_theorem1(args) -> int:
    dims = [d.strip() for d in args.dims.split(",")]
    if not all(d.isdecimal() and int(d) >= 1 for d in dims):
        raise ConfigError(f"--dims: expected a comma list of integers >= 1, got {args.dims!r}")
    d_list = [int(d) for d in dims]
    samplers = [s.strip() for s in args.samplers.split(",")]
    if not set(samplers) <= set(C.SAMPLERS):
        raise ConfigError(f"--samplers: expected a comma list from {C.SAMPLERS}, got {args.samplers!r}")
    for flag, value, low in (("--resamples", args.resamples, A.MIN_RESAMPLES), ("--df", args.df, 1), ("--dg", args.dg, 1)):
        if value < low:
            raise ConfigError(f"{flag}: must be >= {low}, got {value}")
    results, ok = verify_theorem1(d_list, args.resamples, samplers, args.seed,
                                  d_f=args.df, d_g=args.dg)
    print(f"{'sampler':>9} {'d':>6} {'exact':>12} {'mc_mean':>12} {'|err|/SE':>9} {'mc_var':>12} gate")
    for r in results:
        gate = "PASS" if r.unbiased_within() else "FAIL"
        print(f"{r.sampler:>9} {r.d:>6} {r.exact:>12.6f} {r.mc_mean:>12.6f} "
              f"{r.err_in_se:>9.3f} {r.mc_var:>12.6e} {gate}")
    if not ok:
        print("unbiasedness gate FAILED", file=sys.stderr)
        return EXIT_GATE
    return EXIT_OK


def _cmd_export_features(args) -> int:
    cfg = _resolve_config(args)
    model_path = args.model or os.path.join(args.out, "model.txt")
    if not os.path.exists(model_path):
        raise ConfigError(f"model file does not exist: {model_path}")
    bundle, _, _ = N.load_model(model_path)
    src, tgt = cfg.make_dataset(args.seed)
    for tag, saved, wanted in zip("FGD", bundle.specs(), cfg.model_specs(src.dim)):
        if saved != wanted:
            raise ConfigError(f"{model_path}: network {tag} has widths {saved.widths}, "
                              f"the config gives {wanted.widths}")
    out_path = args.output or os.path.join(args.out, "features.csv")
    A.export_features(bundle, [src, tgt], out_path)
    print(f"features written to {out_path}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="condada", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="train one configuration end to end")
    _add_config_flags(p_run)
    p_run.add_argument("--seed", type=int, required=True)
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="run several method variants over several seeds")
    _add_config_flags(p_cmp)  # its --seeds is the seeds key's flag
    p_cmp.add_argument("--variants", required=True,
                       help=f"comma list from: {','.join(VARIANTS)} (optional @gaussian/@uniform)")
    p_cmp.add_argument("--out", required=True)
    p_cmp.set_defaults(func=_cmd_compare)

    p_ver = sub.add_parser("verify-theorem1", help="Monte Carlo unbiasedness sweep for the randomized map")
    p_ver.add_argument("--dims", default="64,128,256", help="comma list of randomized dimensions")
    p_ver.add_argument("--resamples", type=int, default=20000)
    p_ver.add_argument("--samplers", default="gaussian,uniform")
    p_ver.add_argument("--seed", type=int, default=0)
    widths = inspect.signature(verify_theorem1).parameters
    p_ver.add_argument("--df", type=int, default=widths["d_f"].default, help="feature-row width of the test quadruple")
    p_ver.add_argument("--dg", type=int, default=widths["d_g"].default, help="prediction-row width of the test quadruple")
    p_ver.set_defaults(func=_cmd_verify_theorem1)

    p_exp = sub.add_parser("export-features", help="re-export features from a saved model without retraining")
    _add_config_flags(p_exp)
    p_exp.add_argument("--seed", type=int, required=True)
    p_exp.add_argument("--out", required=True, help="run directory holding model.txt")
    p_exp.add_argument("--model", help="explicit model file (default: OUT/model.txt)")
    p_exp.add_argument("--output", help="explicit output csv (default: OUT/features.csv)")
    p_exp.set_defaults(func=_cmd_export_features)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_bind_config_values(sys.argv[1:] if argv is None else argv))
    try:
        if getattr(args, "seed", 0) < 0:
            raise ConfigError(f"--seed: must be >= 0, got {args.seed}")
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericAbort as exc:
        print(f"numeric abort: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
