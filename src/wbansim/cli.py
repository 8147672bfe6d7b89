"""Command line front end.

Subcommands:
    simulate        one run, write curve CSVs and a summary CSV
    sweep           combination matrix with repetitions, write summaries
    gen-traces      write the synthetic source traces simulate and sweep read
    overlay-traces  build an interference trace from a base and a donor

Exit codes: 0 on success, 1 for configuration errors, 2 for runtime errors
such as a missing or malformed trace CSV. Usage errors (an unknown flag, or
a flag value that fails its check, such as ``--distance-m 0``) also exit 2,
with a message that names the flag. Outputs are pure functions of the inputs.
"""

from __future__ import annotations

import argparse
import math
import sys
from pathlib import Path

from . import engine, metrics
from .channel import LinkId, TraceError, extract_shadowing, load_trace, overlay, save_trace
from .config import load_config
from .engine import ConfigError
from .metrics import MetricsError


def trace_filename(link: LinkId) -> str:
    return (f"{link.tx_subject}_{link.tx_location}__"
            f"{link.rx_subject}_{link.rx_location}.csv")


def _write_curves(result: engine.RunResult, out_dir: Path) -> None:
    """One curve CSV per scheme and curve kind of a run."""
    out_dir.mkdir(parents=True, exist_ok=True)
    for scheme in engine.SCHEMES:
        for kind in ("outage", "lcr"):
            metrics.write_curve_csv(result.curves[scheme][kind],
                                    out_dir / f"{kind}_{scheme}.csv",
                                    scheme, result.victim_subject)


def _cmd_simulate(args) -> int:
    config = load_config(args.config, args.seed)
    results = engine.run(config)
    out_dir = Path(args.out)
    _write_curves(results.runs[0], out_dir)
    engine.write_summary_csv(results.summary, out_dir / "summary.csv")
    if not args.quiet:
        for row in zip(*(results.summary[k] for k in ("scheme", *engine.QUANTITIES))):
            print("{}: thr@1%={:.2f} dB  thr@10%={:.2f} dB  gain@10%={:.2f} dB  "
                  "lcr@ref={:.3f} Hz".format(*row))
        print(f"wrote {out_dir}")
    return 0


def _cmd_sweep(args) -> int:
    config = load_config(args.config, args.seed)
    results = engine.sweep(config)
    out_dir = Path(args.out)
    for run_result in results.runs:
        _write_curves(run_result, out_dir / "runs" / run_result.combination
                      / f"rep{run_result.rep}")
    engine.write_summary_csv(results.summary, out_dir / "summary.csv")
    engine.write_aggregate_csv(results.aggregate, out_dir / "aggregate.csv")
    if not args.quiet:
        columns = ("combination", "scheme", "mean_thr_at_10pct_db", "std_thr_at_10pct_db",
                   "mean_gain_at_10pct_db")
        for row in zip(*(results.aggregate[k] for k in columns)):
            print("{} {}: thr@10%={:.2f}±{:.2f} dB  gain@10%={:.2f} dB".format(*row))
        print(f"wrote {out_dir}")
    return 0


def _cmd_gen_traces(args) -> int:
    config = load_config(args.config, args.seed)
    if not isinstance(config.channels, engine.SyntheticChannelSource):
        raise ConfigError("channels: gen-traces needs a synthetic channel source")
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    seed = engine.channel_seed(config)
    links = engine.source_links(config)
    for link in links:
        save_trace(config.channels.trace(link, seed), out_dir / trace_filename(link))
    if not args.quiet:
        print(f"wrote {len(links)} traces to {out_dir}")
    return 0


def _positive(text: str) -> float:
    """A flag value that must be a positive finite number."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive finite number, got {text!r}")
    return value


def _seed(text: str) -> int:
    """A flag value that must be an integer in [0, 2**64)."""
    try:
        value = int(text)
    except ValueError:
        value = -1
    if not 0 <= value < 2**64:
        raise argparse.ArgumentTypeError(f"expected an integer in [0, 2**64), got {text!r}")
    return value


def _link(text: str) -> LinkId:
    try:
        return LinkId.parse(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _cmd_overlay_traces(args) -> int:
    base = load_trace(args.part1)
    donor = load_trace(args.shadowing_from)
    shadowing = extract_shadowing(donor, args.distance_m, args.frequency_hz)
    result = overlay(base, shadowing, args.link or base.link)
    save_trace(result, args.out_file)
    if not args.quiet:
        print(f"wrote {result.n_samples} samples for {result.link} to {args.out_file}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wbansim",
        description="Coexistence simulator for body area networks with "
                    "opportunistic relaying")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, summary in [
            ("simulate", _cmd_simulate, "run one experiment"),
            ("sweep", _cmd_sweep, "run the combination matrix with repetitions"),
            ("gen-traces", _cmd_gen_traces, "write the synthetic source traces")]:
        p = sub.add_parser(name, help=summary)
        p.add_argument("--config", required=True, help="experiment YAML file")
        p.add_argument("--seed", type=_seed, default=None,
                       help="override the config master seed")
        p.add_argument("--quiet", action="store_true", help="suppress console output")
        p.add_argument("--out", required=True, help="output directory")
        p.set_defaults(func=func)

    p = sub.add_parser("overlay-traces",
                       help="overlay extracted shadowing onto a base trace")
    p.add_argument("--quiet", action="store_true", help="suppress console output")
    p.add_argument("--part1", required=True, help="base trace CSV")
    p.add_argument("--shadowing-from", required=True,
                   help="trace CSV donating the shadowing")
    p.add_argument("--distance-m", type=_positive, required=True,
                   help="donor link distance for path loss removal")
    p.add_argument("--frequency-hz", type=_positive, default=engine.RadioConfig.frequency_hz,
                   help="carrier frequency in Hz (default %(default)s)")
    p.add_argument("--link", type=_link, default=None,
                   help="output link label, like 2:LH->1:C")
    p.add_argument("--out-file", required=True, help="output trace CSV")
    p.set_defaults(func=_cmd_overlay_traces)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 1
    except (TraceError, MetricsError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
