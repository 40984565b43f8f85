"""Command line interface.

    spindetect <kind> (--config cfg.json | --preset figure1) [--out DIR]
    spindetect sweep --config cfg.json [--out DIR] [--jobs N]
    spindetect validate (--config cfg.json | --preset figure1)

Every option of a run lives in its config; the flags only pick the config,
the output directory and, for a sweep, the number of worker processes.

Exit codes: 0 success, 1 runtime failure (including partially failed
sweeps), 2 configuration or usage error (an output directory that cannot
be created is one).
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from .config import RUN_KINDS, config_from_file, load_preset, resolve_config
from .errors import ConfigurationError, SpindetectError

__all__ = ["main", "build_parser"]


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spindetect",
        description="Arrival-time statistics of matter waves at a spin-flip "
                    "detector: discrete-bath scattering, complex-potential "
                    "propagation, rates, fluorescence analog, sweeps.")
    sub = parser.add_subparsers(dest="command", required=True)
    for kind in RUN_KINDS + ("validate",):
        p = sub.add_parser(kind, help=f"{kind} run" if kind != "validate"
                           else "validate a config without running it")
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("--config", type=Path, metavar="PATH",
                         help="JSON config file (a manifest.json works too)")
        src.add_argument("--preset", metavar="NAME",
                         help="bundled preset name (e.g. figure1)")
        if kind != "validate":
            p.add_argument("--out", type=Path, default=Path("spindetect-out"),
                           metavar="DIR", help="output directory "
                           "(default: ./spindetect-out)")
        if kind == "sweep":
            p.add_argument("--jobs", type=_positive_int, default=os.cpu_count() or 1,
                           metavar="N", help="sweep worker processes (at least 1)")
    return parser


def _load_config(args) -> dict:
    """The raw config the flags pick; a file that cannot be read is a
    configuration error."""
    if args.preset is not None:
        return load_preset(args.preset)
    try:
        return config_from_file(args.config)
    except OSError as exc:
        raise ConfigurationError(str(exc)) from exc


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        raw = _load_config(args)
        if args.command == "validate":
            cfg = resolve_config(raw, require_kind=False)
            label = cfg.get("label")
            print(f"config OK: kind={cfg.get('kind', 'unspecified')}"
                  + (f" label={label}" if label else ""))
            return 0
        cfg = resolve_config(raw, kind=args.command)
        try:
            args.out.mkdir(parents=True, exist_ok=True)
        except OSError as exc:
            raise ConfigurationError(f"cannot create --out {args.out}: {exc}") from exc
        from .runner import run_config
        manifest = run_config(cfg, args.out, jobs=getattr(args, "jobs", 1))
    except SpindetectError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ConfigurationError) else 1

    for fname in manifest["outputs"].values():
        print(f"wrote {Path(args.out) / fname}")
    print(f"wrote {Path(args.out) / 'manifest.json'}")
    for w in manifest["warnings"]:
        print(f"warning: {w}", file=sys.stderr)
    if manifest["failed_sub_runs"]:
        print(f"error: {manifest['failed_sub_runs']} sweep sub-run(s) failed "
              "(see manifest.json)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
