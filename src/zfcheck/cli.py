"""Command-line front end.

Two subcommands:

  zfcheck verify [--config F] [--suite NAME]... [--seed U64] [--tol X]
                 [--report F] [--format text|json]
  zfcheck default-config [--out F]

Exit codes: 0 all executed checks passed, 1 at least one check failed,
2 the configuration (file, flags, grid, reflection table) was unusable.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .errors import ConfigError, ZfcheckError
from .harness import (
    SUITE_ORDER,
    RunConfig,
    config_from_dict,
    emit_report,
    load_config,
    resolve_suites,
    run_suites,
)


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="zfcheck",
        description=(
            "Measure exchange-algebra, reflection, and conserved-charge "
            "identities on a truncated Fock space over a discrete momentum grid."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser(
        "verify", help="run check suites and report residuals"
    )
    verify.add_argument(
        "--config", metavar="FILE", default=None, help="JSON run configuration"
    )
    verify.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        default=None,
        help=f"suite to run: one of {', '.join(SUITE_ORDER)}, or 'all'; "
        "repeatable (default: the config's selection)",
    )
    verify.add_argument(
        "--seed", type=int, default=None, help="override the sampling seed"
    )
    verify.add_argument(
        "--tol", type=float, default=None, help="override the pass tolerance"
    )
    verify.add_argument(
        "--report", metavar="FILE", default=None, help="write the report here"
    )
    verify.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="report rendering (default: text)",
    )

    defaults = sub.add_parser(
        "default-config", help="print the default configuration as JSON"
    )
    defaults.add_argument(
        "--out", metavar="FILE", default=None, help="write instead of printing"
    )
    return parser


def _verify(args: argparse.Namespace) -> int:
    cfg = load_config(args.config) if args.config else RunConfig()
    overrides = {"seed": args.seed, "tolerance": args.tol}
    overrides = {key: value for key, value in overrides.items() if value is not None}
    if overrides:
        cfg = config_from_dict({**cfg.to_dict(), **overrides})
    suites = resolve_suites(args.suite) if args.suite else None

    report = run_suites(cfg, suites=suites)
    rendered = emit_report(report, path=args.report, fmt=args.format)
    if args.report is None:
        sys.stdout.write(rendered)
    else:
        counts = report.counts
        sys.stdout.write(
            f"wrote {args.report}: checks={counts['checks']} "
            f"pass={counts['pass']} fail={counts['fail']} skip={counts['skip']} "
            f"max_residual={report.max_residual:.3e}\n"
        )
    return 1 if report.failed else 0


def _default_config(args: argparse.Namespace) -> int:
    text = json.dumps(RunConfig().to_dict(), sort_keys=True, indent=2) + "\n"
    if args.out:
        try:
            Path(args.out).write_text(text)
        except OSError as e:
            raise ConfigError(f"cannot write config {args.out}: {e}") from None
    else:
        sys.stdout.write(text)
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "verify":
            return _verify(args)
        if args.command == "default-config":
            return _default_config(args)
        parser.error(f"unknown command {args.command!r}")
    except ZfcheckError as e:
        print(f"zfcheck: error: {e}", file=sys.stderr)
        return 2
    return 2


def main_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    main_entry()
