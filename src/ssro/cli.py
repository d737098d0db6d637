"""Command-line entry point tying the modules into reproducible runs.

Every subcommand reads a config (file or built-in profile), writes its
outputs under --out and finishes by writing a manifest with SHA-256
digests of everything it produced, so a run can be verified byte for
byte.  Exit codes: 0 success, 1 usage error, 2 config validation error,
3 runtime or convergence failure.
"""
from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import sys
import time

import numpy as np

from . import __version__, rng
from .analysis import (AnalysisError, ClassifierConfig, CountHistogram,
                       FitTargets, JointHistogram, REFERENCE_TARGETS,
                       estimate_peak_separation, exact_count_pmf,
                       fidelity_report, fit_flip_rate, fit_shot_model,
                       optimize_threshold, scenario)
from .config import ConfigError, RunConfig, load_config
from .model import Nuclear, PhysicalParams, default_diagram, odmr_spectrum
from .optics import (PumpFitError, PumpTarget, calibrate_collection,
                     expected_cycle_photons, fit_pump_rates, propagate)
from .trajectory import BatchResult, simulate_batch

__all__ = ["main"]

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sha256(path) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(65536), b""):
            h.update(block)
    return h.hexdigest()


class Manifest:
    """Collects outputs and summary numbers; written atomically at the end."""

    def __init__(self, out_dir, command, config: RunConfig):
        self.out_dir = out_dir
        self.data = {
            "artifact_version": __version__,
            "command": command,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": config.to_dict(),
            "outputs": {},
            "summary": {},
        }

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def register(self, name):
        self.data["outputs"][name] = _sha256(self.path(name))

    def add_summary(self, **kwargs):
        self.data["summary"].update(kwargs)

    def write(self):
        self.data["finished_utc"] = time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                  time.gmtime())
        target = self.path("manifest.json")
        tmp = target + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(self.data, fh, indent=2, sort_keys=True)
            fh.write("\n")
        os.replace(tmp, target)


def _write_json(path, payload):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True, default=str)
        fh.write("\n")


def _prepare_out(cfg: RunConfig, override=None) -> str:
    out = override or cfg.run.out
    os.makedirs(out, exist_ok=True)
    return out


# One fixed label per batch stream: each batch's master seed is
# rng.shot_seed(seed, label), so the batches of neighbouring seeds, and of
# one run, draw from unrelated shot streams.
_STREAMS = {"up": 0, "down": 1, "decay": 2, "dual_up": 3, "dual_down": 4}


def _simulate_pair(cfg: RunConfig, protocol, shots, seed, prepared="both"):
    batches = {}
    worklist = {"up": Nuclear.UP, "down": Nuclear.DOWN}
    if prepared != "both":
        worklist = {prepared: worklist[prepared]}
    for name, state in worklist.items():
        batches[name] = simulate_batch(
            cfg.shot_model, protocol, state, shots,
            rng.shot_seed(seed, _STREAMS[name]),
            keep_cycles=cfg.run.full_cycles,
            n_workers=cfg.run.workers)
    return batches


# --- subcommands -------------------------------------------------------------


def cmd_simulate(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "simulate", cfg)
    protocol = cfg.protocol.build()
    batches = _simulate_pair(cfg, protocol, args.shots or cfg.run.shots,
                             args.seed if args.seed is not None else cfg.run.seed,
                             args.prepared)
    for name, batch in batches.items():
        fname = f"batch_{name}.jsonl"
        batch.save_jsonl(manifest.path(fname), full_cycles=cfg.run.full_cycles)
        manifest.register(fname)
        manifest.add_summary(**{f"mean_total1_{name}": float(batch.total1.mean())})
    manifest.write()
    print(f"wrote {len(batches)} batch file(s) to {out}")
    return EXIT_OK


def _load_batches(in_dir, names=("up", "down")):
    """The batch_<name>.jsonl files of in_dir, one per name, in order."""
    paths = [os.path.join(in_dir, f"batch_{name}.jsonl") for name in names]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"missing batch file(s): {missing}")
    return [BatchResult.load_jsonl(p) for p in paths]


def cmd_analyze(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "analyze", cfg)
    batch_up, batch_dn = _load_batches(args.in_dir or out)
    mode = args.mode.replace("-", "_")
    if mode == "dual_step" and batch_up.reads_per_cycle != 2:
        raise ConfigError("dual-step analysis requested but the batches "
                          "carry a single read per cycle")
    report = fidelity_report(batch_up, batch_dn, cfg.classifier, mode=mode)
    _write_json(manifest.path(f"report_{mode}.json"), report.to_dict())
    manifest.register(f"report_{mode}.json")
    hist = CountHistogram.from_batches(batch_up, batch_dn)
    hist.to_csv(manifest.path("histogram.csv"))
    manifest.register("histogram.csv")
    if batch_up.reads_per_cycle == 2:
        joint = JointHistogram.from_batches(batch_up, batch_dn)
        joint.to_csv(manifest.path("joint_histogram.csv"))
        manifest.register("joint_histogram.csv")
    manifest.add_summary(average_fidelity=report.average_fidelity,
                         misread_bright_as_dark=report.misread_bright_as_dark,
                         misread_dark_as_bright=report.misread_dark_as_bright,
                         success_efficiency=report.success_efficiency)
    manifest.write()
    print(f"{mode}: fidelity {report.average_fidelity:.4f} "
          f"(rates {report.misread_bright_as_dark:.4f} / "
          f"{report.misread_dark_as_bright:.4f}, "
          f"efficiency {report.success_efficiency:.4f})")
    return EXIT_OK


def cmd_fit_flip(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "fit-flip", cfg)
    batch_up, = _load_batches(args.in_dir or out, ("up",))
    fit = fit_flip_rate(batch_up.detect1, batch_up.n_shots)
    payload = dataclasses.asdict(fit)
    _write_json(manifest.path("flip_fit.json"), payload)
    manifest.register("flip_fit.json")
    manifest.add_summary(flip_rate=fit.flip_rate, ci68=list(fit.ci68))
    manifest.write()
    print(f"flip rate {fit.flip_rate:.3e} (68 % CI "
          f"[{fit.ci68[0]:.3e}, {fit.ci68[1]:.3e}])")
    return EXIT_OK


def cmd_fit_model(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "fit-model", cfg)
    if args.targets:
        with open(args.targets, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
        allowed = {f.name for f in dataclasses.fields(FitTargets)}
        bad = set(raw) - allowed
        if bad:
            raise ConfigError(f"unknown target key(s): {sorted(bad)}")
        targets = FitTargets(**raw)
    else:
        targets = REFERENCE_TARGETS
    model = fit_shot_model(targets, cycles=cfg.protocol.cycles,
                           config=cfg.classifier)
    _write_json(manifest.path("shot_model.json"), model.to_dict())
    manifest.register("shot_model.json")
    manifest.add_summary(**model.to_dict())
    manifest.write()
    print(json.dumps(model.to_dict(), indent=2, sort_keys=True))
    return EXIT_OK


def cmd_odmr(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "odmr", cfg)
    populations = tuple(float(x) for x in args.populations.split(","))
    if len(populations) != 2:
        raise UsageError("--populations needs two comma-separated numbers")
    span = 1.5 * cfg.physical.hyperfine_splitting
    grid = np.arange(-span, span + args.step / 2, args.step)
    spectrum = odmr_spectrum(cfg.physical, default_diagram(), populations, grid)
    data = np.column_stack([grid, spectrum])
    np.savetxt(manifest.path("odmr_spectrum.csv"), data, delimiter=",",
               header="frequency_mhz,intensity", comments="")
    manifest.register("odmr_spectrum.csv")
    separation = estimate_peak_separation(grid, spectrum) \
        if min(populations) > 0 else None
    manifest.add_summary(peak_separation_mhz=separation)
    manifest.write()
    if separation is not None:
        print(f"peak separation {separation:.3f} MHz")
    return EXIT_OK


def cmd_pump(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "pump", cfg)
    optical = cfg.optical
    if args.refit:
        optical = fit_pump_rates(PumpTarget(time_us=1.5, min_fidelity=0.985))
        optical = calibrate_collection(optical, target_photons=0.028,
                                       laser_window_us=1.5)
    curve = propagate(optical, args.duration, start=None)
    curve.to_csv(manifest.path("pump_curve.csv"))
    manifest.register("pump_curve.csv")
    _write_json(manifest.path("optical_model.json"), optical.to_dict())
    manifest.register("optical_model.json")
    fid = curve.pump_fidelity(min(1.5, args.duration))
    photons = expected_cycle_photons(optical, cfg.protocol.laser_window_us)
    manifest.add_summary(pump_fidelity_at_1p5us=fid,
                         expected_cycle_photons=photons)
    manifest.write()
    print(f"pump fidelity at 1.5 us: {fid:.4f}; "
          f"expected photons per window: {photons:.4f}")
    return EXIT_OK


def cmd_optimize_threshold(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "optimize-threshold", cfg)
    pmf_up = exact_count_pmf(cfg.shot_model, cfg.protocol.cycles, Nuclear.UP)
    pmf_dn = exact_count_pmf(cfg.shot_model, cfg.protocol.cycles, Nuclear.DOWN)
    best_n, best_fid = optimize_threshold(pmf_up, pmf_dn)
    payload = dict(best_cutoff=best_n, fidelity=best_fid)
    _write_json(manifest.path("threshold.json"), payload)
    manifest.register("threshold.json")
    manifest.add_summary(**payload)
    manifest.write()
    print(f"optimal cutoff N = {best_n} (fidelity {best_fid:.4f})")
    return EXIT_OK


def cmd_scenario(cfg: RunConfig, args) -> int:
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "scenario", cfg)
    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise UsageError(f"--override needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        overrides[key.strip()] = json.loads(value)
    protocol = cfg.protocol.build()
    report = scenario(cfg.shot_model, protocol, overrides=overrides,
                      duration_budget_ms=args.budget_ms,
                      config=cfg.classifier)
    _write_json(manifest.path("scenario.json"), report.to_dict())
    manifest.register("scenario.json")
    manifest.add_summary(
        optimized_fidelity=report.optimized_fidelity,
        conditional_fidelity=report.conditional_fidelity,
        cycles=report.cycles,
        readout_duration_us=report.readout_duration_us)
    manifest.write()
    print(f"cycles {report.cycles} (readout {report.readout_duration_us:.0f} us): "
          f"threshold-optimized fidelity {report.optimized_fidelity:.4f}, "
          f"conditional fidelity {report.conditional_fidelity:.4f}")
    return EXIT_OK


_REFERENCE_SUMMARY = {
    "mean_bright": 6.24,
    "mean_dark": 0.40,
    "raw_fidelity": 0.8805,
    "raw_bright_as_dark": 0.191,
    "raw_dark_as_bright": 0.048,
    "conditional_fidelity": 0.9815,
    "conditional_bright_as_dark": 0.028,
    "conditional_dark_as_bright": 0.009,
    "dual_fidelity": 0.995,
    "dual_success_efficiency": 0.898,
    "flip_rate": 7.7e-4,
    "pump_fidelity": 0.985,
    "expected_cycle_photons": 0.028,
    "odmr_ratio": 0.0753,
    "odmr_separation_mhz": 8.0,
}


def cmd_reproduce_paper(cfg: RunConfig, args) -> int:
    """Full offline pipeline against the reference summary statistics."""
    out = _prepare_out(cfg, args.out)
    manifest = Manifest(out, "reproduce-paper", cfg)
    shots = args.shots or cfg.run.shots
    seed = args.seed if args.seed is not None else cfg.run.seed
    got = {}

    # 1. optical pumping
    optical = fit_pump_rates(PumpTarget(time_us=1.5, min_fidelity=0.985))
    optical = calibrate_collection(optical, target_photons=0.028,
                                   laser_window_us=1.5)
    curve = propagate(optical, 5.0)
    curve.to_csv(manifest.path("pump_curve.csv"))
    manifest.register("pump_curve.csv")
    got["pump_fidelity"] = curve.pump_fidelity(1.5)
    got["expected_cycle_photons"] = expected_cycle_photons(optical, 1.5)

    # 2. shot-model calibration
    model = fit_shot_model(REFERENCE_TARGETS, cycles=cfg.protocol.cycles,
                           config=cfg.classifier)
    _write_json(manifest.path("shot_model.json"), model.to_dict())
    manifest.register("shot_model.json")
    cfg = dataclasses.replace(cfg, shot_model=model, optical=optical)

    # 3. spectra
    diagram = default_diagram()
    pops = (cfg.physical.nuclear_init_fidelity,
            1 - cfg.physical.nuclear_init_fidelity)
    grid = np.arange(-6.0, 6.0 + 0.05, 0.1)
    spec = odmr_spectrum(cfg.physical, diagram, pops, grid)
    np.savetxt(manifest.path("odmr_spectrum.csv"),
               np.column_stack([grid, spec]), delimiter=",",
               header="frequency_mhz,intensity", comments="")
    manifest.register("odmr_spectrum.csv")
    got["odmr_separation_mhz"] = estimate_peak_separation(grid, spec)
    half = len(grid) // 2
    got["odmr_ratio"] = float(spec[:half].max() / spec[half:].max()) \
        if spec[:half].max() < spec[half:].max() else \
        float(spec[half:].max() / spec[:half].max())

    # 4. flip decay over 1000 cycles: over 500 the baseline and the rate
    # are confounded and the fit is about 5x less precise
    decay_protocol = dataclasses.replace(cfg.protocol, cycles=1000).build()
    decay_batch = simulate_batch(model, decay_protocol, Nuclear.UP,
                                 shots, rng.shot_seed(seed, _STREAMS["decay"]),
                                 n_workers=cfg.run.workers)
    p = decay_batch.detect1 / shots
    np.savetxt(manifest.path("detection_curve.csv"),
               np.column_stack([np.arange(1, decay_protocol.cycles + 1), p]),
               delimiter=",",
               header="cycle,detection_probability", comments="")
    manifest.register("detection_curve.csv")
    flip_fit = fit_flip_rate(decay_batch.detect1, shots)
    got["flip_rate"] = flip_fit.flip_rate

    # 5. single-read batches + reports
    protocol = cfg.protocol.build()
    batches = _simulate_pair(cfg, protocol, shots, seed)
    for name, batch in batches.items():
        fname = f"batch_{name}.jsonl"
        batch.save_jsonl(manifest.path(fname))
        manifest.register(fname)
    got["mean_bright"] = float(batches["up"].total1.mean())
    got["mean_dark"] = float(batches["down"].total1.mean())
    hist = CountHistogram.from_batches(batches["up"], batches["down"])
    hist.to_csv(manifest.path("histogram_raw.csv"))
    manifest.register("histogram_raw.csv")

    raw = fidelity_report(batches["up"], batches["down"], cfg.classifier, "raw")
    cond = fidelity_report(batches["up"], batches["down"], cfg.classifier,
                           "conditional")
    got["raw_fidelity"] = raw.average_fidelity
    got["raw_bright_as_dark"] = raw.misread_bright_as_dark
    got["raw_dark_as_bright"] = raw.misread_dark_as_bright
    got["conditional_fidelity"] = cond.average_fidelity
    got["conditional_bright_as_dark"] = cond.misread_bright_as_dark
    got["conditional_dark_as_bright"] = cond.misread_dark_as_bright
    for mode, rep in (("raw", raw), ("conditional", cond)):
        _write_json(manifest.path(f"report_{mode}.json"), rep.to_dict())
        manifest.register(f"report_{mode}.json")

    # conditional histogram of kept shots
    keep_up = batches["up"].head1 >= 1
    keep_dn = batches["down"].head1 == 0
    top = int(max(batches["up"].total1.max(), batches["down"].total1.max())) + 1
    np.savetxt(
        manifest.path("histogram_conditional.csv"),
        np.column_stack([
            np.arange(top),
            np.bincount(batches["up"].total1[keep_up], minlength=top),
            np.bincount(batches["down"].total1[keep_dn], minlength=top)]),
        fmt="%d", delimiter=",",
        header="bin,count_up_prepared,count_dn_prepared", comments="")
    manifest.register("histogram_conditional.csv")

    # 6. dual-step batches + report
    dual_cfg = dataclasses.replace(cfg.protocol, kind="dual")
    dual_protocol = dual_cfg.build()
    dual_up = simulate_batch(model, dual_protocol, Nuclear.UP, shots,
                             rng.shot_seed(seed, _STREAMS["dual_up"]),
                             n_workers=cfg.run.workers)
    dual_dn = simulate_batch(model, dual_protocol, Nuclear.DOWN, shots,
                             rng.shot_seed(seed, _STREAMS["dual_down"]),
                             n_workers=cfg.run.workers)
    joint = JointHistogram.from_batches(dual_up, dual_dn)
    joint.to_csv(manifest.path("joint_histogram.csv"))
    manifest.register("joint_histogram.csv")
    dual = fidelity_report(dual_up, dual_dn, cfg.classifier, "dual_step")
    _write_json(manifest.path("report_dual.json"), dual.to_dict())
    manifest.register("report_dual.json")
    got["dual_fidelity"] = dual.average_fidelity
    got["dual_success_efficiency"] = dual.success_efficiency

    # 7. summary table
    rows = []
    for key, ref in _REFERENCE_SUMMARY.items():
        val = got.get(key)
        rows.append((key, ref, val))
    summary = {k: dict(reference=r, simulated=v) for k, r, v in rows}
    _write_json(manifest.path("summary.json"), summary)
    manifest.register("summary.json")
    manifest.add_summary(**{k: v for k, _, v in rows})
    manifest.write()

    width = max(len(k) for k in _REFERENCE_SUMMARY)
    print(f"{'statistic':<{width}}  {'reference':>10}  {'simulated':>10}")
    for key, ref, val in rows:
        val_s = "-" if val is None else f"{val:10.4g}"
        print(f"{key:<{width}}  {ref:>10.4g}  {val_s:>10}")
    return EXIT_OK


# --- argument parsing ---------------------------------------------------------


def build_parser() -> _Parser:
    parser = _Parser(prog="ssro",
                     description="Nuclear-spin single-shot readout simulator")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, shots=True):
        p.add_argument("--config", default=None,
                       help="config file path or built-in profile name "
                            "(default: built-in 'default')")
        p.add_argument("--out", default=None, help="output directory")
        p.add_argument("--seed", type=int, default=None)
        if shots:
            p.add_argument("--shots", type=int, default=None)

    p = sub.add_parser("simulate", help="write shot batches as JSON lines")
    common(p)
    p.add_argument("--prepared", choices=("up", "down", "both"), default="both")
    p.add_argument("--full-cycles", action="store_true",
                   help="keep per-cycle count arrays in the output")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("analyze", help="classify batches and report fidelities")
    common(p, shots=False)
    p.add_argument("--in", dest="in_dir", default=None,
                   help="directory with batch_up/batch_down files")
    p.add_argument("--mode", choices=("raw", "conditional", "dual-step"),
                   default="raw")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("fit-flip", help="fit the per-cycle flip rate from a "
                                        "batch's detection curve")
    common(p, shots=False)
    p.add_argument("--in", dest="in_dir", default=None)
    p.set_defaults(func=cmd_fit_flip)

    p = sub.add_parser("fit-model", help="calibrate the effective shot model")
    common(p, shots=False)
    p.add_argument("--targets", default=None,
                   help="JSON file with summary-statistic targets")
    p.set_defaults(func=cmd_fit_model)

    p = sub.add_parser("odmr", help="synthesize an ODMR spectrum")
    common(p, shots=False)
    p.add_argument("--populations", default="0.93,0.07")
    p.add_argument("--step", type=float, default=0.1, help="grid step (MHz)")
    p.set_defaults(func=cmd_odmr)

    p = sub.add_parser("pump", help="propagate the optical pumping model")
    common(p, shots=False)
    p.add_argument("--duration", type=float, default=5.0, help="us")
    p.add_argument("--refit", action="store_true",
                   help="re-fit the pump rates before propagating")
    p.set_defaults(func=cmd_pump)

    p = sub.add_parser("optimize-threshold",
                       help="scan integer cutoffs on the exact distributions")
    common(p, shots=False)
    p.set_defaults(func=cmd_optimize_threshold)

    p = sub.add_parser("scenario", help="predict performance under overrides")
    common(p, shots=False)
    p.add_argument("--override", action="append", metavar="KEY=VALUE",
                   help="model field, *_scale factor, or cycles")
    p.add_argument("--budget-ms", type=float, default=None,
                   help="derive the cycle count from a readout time budget")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("reproduce-paper",
                       help="run the full calibrated pipeline and compare "
                            "against the reference summary statistics")
    common(p)
    p.set_defaults(func=cmd_reproduce_paper)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        cfg = load_config(args.config)
        if getattr(args, "full_cycles", False):
            cfg = dataclasses.replace(
                cfg, run=dataclasses.replace(cfg.run, full_cycles=True))
        return args.func(cfg, args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (AnalysisError, PumpFitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


if __name__ == "__main__":
    sys.exit(main())
