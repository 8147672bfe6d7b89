"""Paired benchmark runs of two checkouts on one workload, and the gain rule.

    python3 tools/bench_pairs.py --base <checkout> --change <checkout> --workload W --seeds A..B

For each seed from A to B, runs ``perfbench/run.py --workload W --seed S
--trace 0`` of both checkouts, each run its own process with the
``run_seconds`` their ``BENCHMARK.json`` declares, four times in the order
X Y Y X: each side runs once in an outer and once in an inner position, and
the side X that opens the pair alternates from seed to seed. A side's value
in a pair is the mean of its two runs. It prints every pair's end-to-end
values, then each side's median and quartiles per metric, the number of
pairs the change wins (ties count for neither side), and whether the gain
rule holds for that metric: the change wins at least nine tenths of the
pairs, its median is better than the base's by more than the distance
between the base's quartiles, and no more of its operations fail. Beside it
stands the no-regression verdict under the metric's ``bound``: "worse" when
the change's median is worse than the base's by more than that fraction of
the base median, else "unresolved" when the base's quartile spread exceeds
that much and not every change value beats every base value, else "no
worse". Each side compiles its bytecode into its own fresh
``PYTHONPYCACHEPREFIX``, a directory that the session creates outside both
checkouts and removes at its end, so whatever ``__pycache__`` a checkout
holds warms neither side's cold starts. Before the first pair each side
runs once at the first seed as a warm-up that compiles every module it
imports; the warm-up is printed and its result discarded, so every
recorded run reads its bytecode back. SIGTERM ends the running
``perfbench/run.py`` process before the script exits.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from bench_record import end_children_on_sigterm, run_perfbench  # noqa: E402

SIDES = ("base", "change")


def parse_seeds(text: str) -> list[int]:
    first, sep, last = text.partition("..")
    try:
        seeds = list(range(int(first), int(last) + 1)) if sep else [int(text)]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected seeds like 101..110, got {text!r}")
    if not seeds:
        raise argparse.ArgumentTypeError(f"empty seed range {text!r}")
    return seeds


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def verdict(base: list[float], change: list[float], better: str,
            failed: dict[str, int]) -> tuple[int, bool]:
    """The change's win count and whether the gain rule holds."""
    sign = -1.0 if better == "lower" else 1.0
    wins = sum(sign * (c - b) > 0 for b, c in zip(base, change))
    q1, base_median, q3 = quartiles(base)
    margin = sign * (quartiles(change)[1] - base_median)
    holds = (wins >= 0.9 * len(base) and margin > q3 - q1
             and failed["change"] <= failed["base"])
    return wins, holds


def regression(base: list[float], change: list[float], better: str, bound: float) -> str:
    """The no-regression verdict: "no worse", "worse" or "unresolved"."""
    sign = -1.0 if better == "lower" else 1.0
    q1, base_median, q3 = quartiles(base)
    allowed = bound * abs(base_median)
    if sign * (quartiles(change)[1] - base_median) < -allowed:
        return "worse"
    if q3 - q1 > allowed and not all(sign * (c - b) > 0 for b in base for c in change):
        return "unresolved"
    return "no worse"


def run_order(k: int) -> tuple[str, str, str, str]:
    """The sides of pair ``k`` in running order: X Y Y X, with X base in even pairs."""
    first, second = SIDES if k % 2 == 0 else SIDES[::-1]
    return first, second, second, first


def pair_values(runs: list[dict], metrics: list[dict]) -> dict[str, float]:
    """Each metric's mean over one side's runs of a pair."""
    return {m["name"]: statistics.fmean(r["metrics"][m["name"]]["value"] for r in runs)
            for m in metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", type=Path, required=True, help="parent checkout")
    parser.add_argument("--change", type=Path, required=True, help="checkout of the change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help="inclusive seed range A..B, one pair per seed")
    args = parser.parse_args(argv)
    end_children_on_sigterm()
    roots = {"base": args.base.resolve(), "change": args.change.resolve()}
    specs = {side: json.loads((root / "BENCHMARK.json").read_text())
             for side, root in roots.items()}
    if specs["base"]["end_to_end"] != specs["change"]["end_to_end"]:
        parser.error("the checkouts declare different end-to-end metrics")
    if specs["base"]["run_seconds"] != specs["change"]["run_seconds"]:
        parser.error("the checkouts declare different run_seconds")
    metrics = specs["change"]["end_to_end"]
    seconds = float(specs["change"]["run_seconds"])

    values = {side: {m["name"]: [] for m in metrics} for side in SIDES}
    failed = {side: 0 for side in SIDES}
    correct = {side: True for side in SIDES}
    print("pair seed first " + " ".join(f"{m['name']}(base,change)" for m in metrics))
    with tempfile.TemporaryDirectory(prefix="bench-pairs-") as scratch:
        # Not yet created: each side's warm-up compiles everything it imports.
        prefixes = {side: str(Path(scratch) / side) for side in SIDES}
        for side in SIDES:
            print(f"warm-up {side} seed {args.seeds[0]}: result discarded", flush=True)
            run_perfbench(roots[side], args.workload, args.seeds[0], seconds, trace=0,
                          pycache_prefix=prefixes[side])
        for k, seed in enumerate(args.seeds):
            order = run_order(k)
            runs = {side: [] for side in SIDES}
            for side in order:
                result = run_perfbench(roots[side], args.workload, seed, seconds, trace=0,
                                       pycache_prefix=prefixes[side])
                failed[side] += result["failed"]
                correct[side] = correct[side] and result["correct"]
                runs[side].append(result)
            for side in SIDES:
                for name, value in pair_values(runs[side], metrics).items():
                    values[side][name].append(value)
            print(f"{k + 1:4d} {seed:4d} {order[0]:6s}" + "".join(
                f" {values['base'][m['name']][-1]:.4g},{values['change'][m['name']][-1]:.4g}"
                for m in metrics), flush=True)

    seeds = f"{args.seeds[0]}..{args.seeds[-1]}"
    print(f"\n{args.workload}: {len(args.seeds)} pairs, seeds {seeds}, "
          f"{seconds:g} s per run, 2 per side and pair; failed operations base {failed['base']}, change "
          f"{failed['change']}; every run correct: base {correct['base']}, "
          f"change {correct['change']}")
    print(f"{'metric':14s} {'unit':5s} {'base median [q1, q3]':28s} "
          f"{'change median [q1, q3]':28s} {'wins':>6s}  {'gain rule':13s}  no-regression")
    for m in metrics:
        base, change = values["base"][m["name"]], values["change"][m["name"]]
        wins, holds = verdict(base, change, m["better"], failed)
        cells = []
        for side_values in (base, change):
            q1, median, q3 = quartiles(side_values)
            cells.append(f"{median:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{m['name']:14s} {m['unit']:5s} {cells[0]:28s} {cells[1]:28s} "
              f"{wins:3d}/{len(base):<2d}  {'holds' if holds else 'does not hold':13s}  "
              f"{regression(base, change, m['better'], m['bound'])} "
              f"(bound {m['bound']:g})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
