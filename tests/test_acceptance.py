"""End-to-end acceptance checks against the shipped default experiment.

Every test prints one pass/fail line with the measured quantities before
asserting, so a verbose pytest run documents each outcome even when a
check fails.
"""

import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from helpers import with_on_body_coherence
from oracle import (closed_form_quantile, compute_sinr, outage_coop_closed_form,
                    outage_single_closed_form, select_relay)
from wbansim.channel import (LinkId, SyntheticChannelParams, extract_shadowing,
                             fspl_db, generate_synthetic, overlay)
from wbansim.config import load_config
from wbansim.engine import assemble_channels, channel_seed, run, sweep
from wbansim.metrics import SinrSeries, level_crossing_rate
from wbansim.relaying import NoiseModel
from wbansim.seeding import substream
from wbansim.cli import main

DEFAULT_CONFIG = Path(__file__).resolve().parent.parent / "configs" / "default.yaml"


def report(ok: bool, label: str, detail: str) -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] {label}: {detail}")


def test_relay_selection_matches_bruteforce_oracle():
    rng = substream(2024, "acceptance", "selection")
    tuples = rng.lognormal(mean=0.0, sigma=2.0, size=(10_000, 4))
    tuples[::50, 2] = tuples[::50, 0]  # exact ties every 50th case
    tuples[::50, 3] = tuples[::50, 1]
    start = time.perf_counter()
    mismatches = 0
    for v in tuples:
        relay, nu = select_relay(v[0], v[1], v[2], v[3])
        mins = (min(v[0], v[1]), min(v[2], v[3]))
        expected = 1 if mins[0] >= mins[1] else 2
        if relay != expected or nu != mins[expected - 1]:
            mismatches += 1
    elapsed = time.perf_counter() - start
    ok = mismatches == 0 and elapsed < 1.0
    report(ok, "relay selection oracle",
           f"{10_000 - mismatches}/10000 matches in {elapsed:.3f} s")
    assert mismatches == 0
    assert elapsed < 1.0


def test_cooperation_dominates_single_link_everywhere():
    config = load_config(DEFAULT_CONFIG)
    result = run(config).runs[0]
    packet_ok = bool(np.all(result.sinr_db["coop"] >= result.sinr_db["single"]))
    curve_ok = np.all(result.curves["coop"]["outage"].values
                      <= result.curves["single"]["outage"].values)
    ok = packet_ok and curve_ok
    report(ok, "cooperative dominance",
           f"{config.epochs} epochs, per-packet {packet_ok}, per-threshold {curve_ok}")
    assert packet_ok and curve_ok


def test_sinr_arithmetic_fixture():
    value = compute_sinr(0.0, -60.0, NoiseModel(-100.0), [(0.0, -80.0, 1.0)])
    expected = 1e-6 / (1e-10 + 1e-8)
    error = abs(value - expected) / expected
    ok = error < 1e-9
    report(ok, "sinr fixture", f"value {value!r}, relative error {error:.2e}")
    assert ok


def test_lcr_fixture_and_degenerate_series():
    fixture = SinrSeries(np.array([10.0, 2.0, 10.0, 2.0, 10.0]), 120.0, 0)
    rate = level_crossing_rate(fixture, 5.0)
    expected = 2.0 / 0.24
    error = abs(rate - expected) / expected
    flat = level_crossing_rate(SinrSeries(np.full(5, 7.0), 120.0, 0), 5.0)
    ok = error < 1e-9 and flat == 0.0
    report(ok, "lcr fixture", f"rate {rate:.6f} Hz (error {error:.2e}), flat {flat}")
    assert error < 1e-9
    assert flat == 0.0


def test_channel_composition_identities():
    rng = substream(2024, "acceptance", "composition")
    link = LinkId.parse("1:LH->1:C")
    measured = generate_synthetic(
        SyntheticChannelParams(-60.0, 6.0, 240.0), link, 120.0 * 256, 120.0, 7)
    loss = fspl_db(0.40, 2.36e9)
    shadowing = extract_shadowing(measured, 0.40, 2.36e9)
    max_err = float(np.max(np.abs((shadowing.samples - loss) - measured.samples)))

    zero = replace(measured, samples=np.zeros(measured.n_samples))
    identity = overlay(measured, zero, link)
    identity_exact = np.array_equal(identity.samples, measured.samples)

    config = load_config(DEFAULT_CONFIG)
    channels = assemble_channels(config, config.victim_subject, config.interferer_subjects)
    source = config.channels.trace(LinkId.parse("2:LH->1:LH"), channel_seed(config))
    # Relay 1 sits at the anchor, LH: receivers are ordered hub, relay 1, relay 2. The
    # gains are in mW, by the expression that assembly converts with.
    passthrough = np.array_equal(channels.foes[2][1], 10.0 ** (source.samples / 10.0))

    ok = max_err <= 1e-12 and identity_exact and passthrough
    report(ok, "channel composition",
           f"extract residual {max_err:.2e}, zero-overlay {identity_exact}, "
           f"anchor pass-through {passthrough}")
    assert max_err <= 1e-12
    assert identity_exact
    assert passthrough


def test_offset_draws_are_uniform():
    config = load_config(DEFAULT_CONFIG)
    cycle = config.mac.cycle_ms
    draws = substream(config.master_seed, "offsets", 1).uniform(0.0, cycle, 100_000)
    mean = float(draws.mean())
    counts, _ = np.histogram(draws, bins=20, range=(0.0, cycle))
    expected = draws.size / 20
    stat = float(((counts - expected) ** 2 / expected).sum())
    crit = float(chi2.ppf(0.999, 19))
    ok = abs(mean - 60.0) <= 0.5 and stat < crit
    report(ok, "offset uniformity",
           f"mean {mean:.3f} ms, chi-square {stat:.2f} < {crit:.2f}")
    assert abs(mean - 60.0) <= 0.5
    assert stat < crit


def test_coherence_time_trend():
    config = load_config(DEFAULT_CONFIG)
    start = time.perf_counter()
    fast = sweep(config)
    slow = sweep(with_on_body_coherence(config, 5000.0))
    elapsed = time.perf_counter() - start

    def coop_gain(result):
        (gain,) = result.aggregate["mean_gain_at_10pct_db"][result.aggregate["scheme"] == "coop"]
        return gain

    g_fast, g_slow = coop_gain(fast), coop_gain(slow)
    in_band = 2.0 <= g_fast <= 10.0
    ordered = g_fast > g_slow
    report(in_band and ordered, "coherence trend",
           f"gain@10% {g_fast:.3f} dB (240 ms) vs {g_slow:.3f} dB (5000 ms), "
           f"band [2, 10] {'ok' if in_band else 'violated'}, "
           f"ordering {'ok' if ordered else 'violated'}, {elapsed:.1f} s")
    assert in_band, f"240 ms gain {g_fast:.3f} dB outside [2, 10] dB"
    assert ordered, (f"240 ms gain {g_fast:.3f} dB does not exceed "
                     f"5000 ms gain {g_slow:.3f} dB")


# The bound below is fixed from theory before the run, not fitted to it.
# An empirical p-quantile of n samples of a stationary sequence spreads with
# sd ~ sqrt(p (1 - p) tau / n) / f(x_p): f is the density at the quantile and
# tau the sum over all lags of the outage indicator's autocorrelation. Every
# on-body gain is a Gaussian AR(1) with lag-k correlation rho^k, rho =
# exp(-epoch / coherence). The maximal correlation of a bivariate normal is
# its |correlation|, and that of independent pairs the largest of theirs, so
# any function of one epoch's five links, single's or coop's indicator
# included, has |lag-k correlation| <= rho^k, and tau <= (1 + rho) / (1 - rho).
# On the default config, rho = exp(-0.5) = 0.607, tau <= 4.08 and n = 20000:
# sd <= 0.147 dB for single (f = 0.0293 per dB) and 0.090 dB for coop (f =
# 0.0477 per dB). The gain's sd is at most their sum, 0.237 dB, whatever
# their correlation. threshold_at_outage interpolates the curve linearly on
# the 0.5 dB grid, which moves a smooth quantile by at most h^2/8 max|f'|/f,
# under 0.02 dB here. Each check allows 3 sd plus 0.02 dB per quantile.
_SD_MULTIPLE = 3.0
_GRID_ALLOWANCE_DB = 0.02


def test_interference_free_outage_matches_the_closed_form():
    config = replace(load_config(DEFAULT_CONFIG), interferer_subjects=())
    (sensor,) = config.wban(config.victim_subject).sensors
    on_body = config.channels.on_body
    mean = sensor.tx_power_dbm + on_body.mean_gain_db - config.noise.noise_floor_dbm
    sigma = on_body.shadow_sigma_db
    rho = math.exp(-config.epoch_period_ms / on_body.coherence_time_ms)
    p, n = 0.10, config.epochs
    spread = math.sqrt(p * (1.0 - p) * (1.0 + rho) / (1.0 - rho) / n)
    want, sd = {}, {}
    for scheme, outage in (("single", outage_single_closed_form),
                           ("coop", outage_coop_closed_form)):
        def cdf(x, outage=outage):
            return outage(x, mean, sigma)
        want[scheme] = closed_form_quantile(cdf, p, mean - 10 * sigma, mean + 10 * sigma)
        density = (cdf(want[scheme] + 1e-4) - cdf(want[scheme] - 1e-4)) / 2e-4
        sd[scheme] = spread / density
    want["gain"], sd["gain"] = want["coop"] - want["single"], sd["single"] + sd["coop"]
    bound = {"single": _SD_MULTIPLE * sd["single"] + _GRID_ALLOWANCE_DB,
             "coop": _SD_MULTIPLE * sd["coop"] + _GRID_ALLOWANCE_DB,
             "gain": _SD_MULTIPLE * sd["gain"] + 2 * _GRID_ALLOWANCE_DB}
    table = run(config).summary
    (single, coop), (_, gain) = table["thr_at_10pct_db"], table["gain_at_10pct_db"]
    got = {"single": single, "coop": coop, "gain": gain}
    ok = all(abs(got[q] - want[q]) <= bound[q] for q in want)
    report(ok, "interference-free closed form", ", ".join(
        f"{q} {got[q]:.3f} dB vs {want[q]:.3f} ± {bound[q]:.3f} dB" for q in want))
    assert round(want["single"], 3) == 37.311 and round(want["coop"], 3) == 42.356
    assert round(want["gain"], 3) == 5.045
    for q in want:
        assert abs(got[q] - want[q]) <= bound[q], q


def test_cli_runs_are_byte_deterministic(tmp_path):
    def tree(root):
        return {str(p.relative_to(root)): p.read_bytes()
                for p in sorted(Path(root).rglob("*.csv"))}

    outputs = []
    for name in ("sim_a", "sim_b"):
        rc = main(["simulate", "--config", str(DEFAULT_CONFIG),
                   "--out", str(tmp_path / name), "--quiet"])
        assert rc == 0
        outputs.append(tree(tmp_path / name))
    simulate_ok = outputs[0] == outputs[1]

    outputs = []
    for name in ("sweep_a", "sweep_b"):
        rc = main(["sweep", "--config", str(DEFAULT_CONFIG),
                   "--out", str(tmp_path / name), "--quiet"])
        assert rc == 0
        outputs.append(tree(tmp_path / name))
    sweep_ok = outputs[0] == outputs[1]

    ok = simulate_ok and sweep_ok
    report(ok, "cli determinism", f"simulate {simulate_ok}, sweep {sweep_ok}")
    assert simulate_ok and sweep_ok


def test_synthetic_generator_moments():
    params = SyntheticChannelParams(-55.0, 6.0, 500.0)
    samples = generate_synthetic(params, LinkId.parse("1:HD->1:C"),
                                 120.0 * 100_000, 120.0, 1).samples
    std = float(samples.std())
    lag1 = float(np.corrcoef(samples[:-1], samples[1:])[0, 1])
    target = math.exp(-120.0 / 500.0)
    ok = abs(std - 6.0) <= 0.3 and abs(lag1 - 0.787) <= 0.02
    report(ok, "ar1 moments",
           f"std {std:.4f} dB (6±0.3), lag-1 {lag1:.4f} (target {target:.4f}±0.02)")
    assert abs(std - 6.0) <= 0.3
    assert abs(lag1 - 0.787) <= 0.02
