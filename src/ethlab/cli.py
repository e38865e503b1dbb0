"""Command-line front end.

Subcommands map one-to-one onto pipeline stages plus sweep and demo:

    ethlab generate   --config CFG [--out DIR] [--seed N]
    ethlab extract    --config CFG [--out DIR]
    ethlab code-error --config CFG [--out DIR]
    ethlab dynamics   --config CFG [--out DIR]
    ethlab bounds     --config CFG [--out DIR] [--slack X]
    ethlab sweep      --config CFG [--out DIR] [--workers N]
    ethlab demo       [--config CFG] [--out DIR]

Exit codes: 0 all checks within slack, 2 a bound check exceeded the slack
factor (for a sweep: at any point), 1 execution error.
"""

import argparse
import sys

from .config import RunConfig, demo_config
from .errors import EthLabError
from .pipeline import STAGES, run, sweep


def _add_common(p, need_config=True):
    p.add_argument("--config", required=need_config, help="path to a JSON run config")
    p.add_argument("--out", default=None, help="output directory (overrides config)")
    p.add_argument("--seed", type=int, default=None, help="seed override")
    p.add_argument("--slack", type=float, default=None, help="slack factor override")
    p.add_argument("--workers", type=int, default=None,
                   help="sweep worker count (the config needs a sweep block)")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ethlab",
        description="chaotic eigenstate code laboratory: generation, "
                    "extraction, code errors, dynamics, bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for stage in STAGES:
        p = sub.add_parser(stage, help=f"run the {stage} stage")
        _add_common(p)
    p = sub.add_parser("sweep", help="run the configured parameter sweep")
    _add_common(p)
    p = sub.add_parser("demo", help="run the bundled end-to-end demonstration")
    _add_common(p, need_config=False)
    return parser


def _load_config(args):
    cfg = RunConfig.from_file(args.config) if args.config else demo_config()
    for path, flag in (("seed", args.seed), ("slack", args.slack),
                       ("out_dir", args.out), ("sweep.workers", args.workers)):
        if flag is not None:
            cfg = cfg.with_path_value(path, flag)
    return cfg


def _exit_code_from_manifest(manifest, stages):
    """2 when this run's bounds stage found a violation; the merged manifest
    keeps the verdict of an earlier bounds run, which does not count."""
    if "bounds" in stages and manifest["all_within_slack"] is False:
        return 2
    return 0


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _load_config(args)
        if args.command == "sweep":
            manifests, rows, any_error = sweep(cfg)
            print(f"sweep: {len({r['point'] for r in rows})} points, "
                  f"{sum(r['status'] != 'ok' for r in rows)} errors")
            if any_error:
                return 1
            return 2 if any(m["all_within_slack"] is False
                            for m in manifests.values()) else 0
        if args.command == "demo":
            manifest = run(cfg)
            print(f"demo complete in {cfg.data['out_dir']}; "
                  f"all_within_slack={manifest.get('all_within_slack')}")
            return _exit_code_from_manifest(manifest, STAGES)
        stages = (args.command,)
        manifest = run(cfg, stages=stages)
        for stage in stages:
            print(f"{stage}: wrote {', '.join(manifest['stages'][stage])}")
        return _exit_code_from_manifest(manifest, stages)
    except EthLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
