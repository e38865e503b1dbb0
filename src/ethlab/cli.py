"""Command-line front end.

Subcommands map one-to-one onto pipeline stages plus sweep and demo, and
each takes --config CFG (optional for demo alone), --out DIR, --seed N,
--slack X and --workers N (sets sweep.workers, so needs a sweep block):

    ethlab {generate,extract,code-error,dynamics,bounds,sweep,demo} [FLAGS]

Exit codes: 0 all checks within slack (and --help), 2 a bound check
exceeded the slack factor (for a sweep: at any point), 1 an execution
error or a usage error (a missing --config, an unknown subcommand or flag).
"""

import argparse
import sys

from .config import RunConfig, demo_config
from .errors import EthLabError
from .pipeline import STAGES, run, sweep


def build_parser():
    parser = argparse.ArgumentParser(
        prog="ethlab",
        description="chaotic eigenstate code laboratory: generation, "
                    "extraction, code errors, dynamics, bound checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = {**{stage: f"run the {stage} stage" for stage in STAGES},
                "sweep": "run the configured parameter sweep",
                "demo": "run the bundled end-to-end demonstration"}
    for command, text in commands.items():
        p = sub.add_parser(command, help=text)
        p.add_argument("--config", required=command != "demo", help="path to a JSON run config")
        p.add_argument("--out", default=None, help="output directory (overrides config)")
        p.add_argument("--seed", type=int, default=None, help="seed override")
        p.add_argument("--slack", type=float, default=None, help="slack factor override")
        p.add_argument("--workers", type=int, default=None,
                       help="sweep worker count (the config needs a sweep block)")
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
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:    # argparse exits 2 on a usage error, 0 on --help
        return 1 if exc.code else 0
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
        manifest = run(cfg, stages=(args.command,))
        print(f"{args.command}: wrote {', '.join(manifest['stages'][args.command])}")
        return _exit_code_from_manifest(manifest, (args.command,))
    except EthLabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
