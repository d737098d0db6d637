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
import math
import os
import sys
import time

import numpy as np

from . import __version__, rng
from .analysis import (AnalysisError, ClassifierConfig, CountHistogram,
                       FitTargets, JointHistogram, REFERENCE_TARGETS,
                       estimate_peak_separation, exact_count_pmf,
                       fidelity_report, fit_flip_rate, fit_shot_model,
                       scenario, separating_threshold)
from .config import ConfigError, RunConfig, load_config
from .model import (ModelError, Nuclear, PhysicalParams, default_diagram,
                    odmr_spectrum)
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

    def __init__(self, cfg: RunConfig, args):
        self.out_dir = args.out or cfg.run.out
        os.makedirs(self.out_dir, exist_ok=True)
        self.data = {
            "artifact_version": __version__,
            "command": args.command,
            "started_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
            "config": cfg.to_dict(),
            "outputs": {},
            "summary": {},
        }

    def path(self, name):
        return os.path.join(self.out_dir, name)

    def add(self, name, write, *args, **kwargs):
        """Write output ``name`` with ``write(path, *args, **kwargs)`` and
        record its SHA-256."""
        write(self.path(name), *args, **kwargs)
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


def _write_columns(path, columns, header, **kwargs):
    np.savetxt(path, np.column_stack(columns), delimiter=",", header=header,
               comments="", **kwargs)


def _shots_and_seed(cfg: RunConfig, args):
    return (cfg.run.shots if args.shots is None else args.shots,
            cfg.run.seed if args.seed is None else args.seed)


# One fixed label per batch stream, with its prepared state: each batch's
# master seed is rng.shot_seed(seed, stream), so the batches of
# neighbouring seeds, and of one run, draw from unrelated shot streams.
_STREAMS = {"up": (Nuclear.UP, 0), "down": (Nuclear.DOWN, 1),
            "decay": (Nuclear.UP, 2), "dual_up": (Nuclear.UP, 3),
            "dual_down": (Nuclear.DOWN, 4)}


def _simulate(cfg: RunConfig, protocol, label, shots, seed,
              keep_cycles=False) -> BatchResult:
    """The batch of stream ``label``; the only place a config becomes a
    batch."""
    prepared, stream = _STREAMS[label]
    return simulate_batch(
        cfg.shot_model, protocol, prepared, shots, rng.shot_seed(seed, stream),
        keep_cycles=keep_cycles,
        head_window=min(cfg.classifier.window, protocol.cycles),
        n_workers=cfg.run.workers, params=cfg.physical, optical=cfg.optical)


def _simulate_pair(cfg: RunConfig, protocol, shots, seed, prepared="both",
                   prefix="", keep_cycles=False):
    names = ("up", "down") if prepared == "both" else (prepared,)
    return {name: _simulate(cfg, protocol, prefix + name, shots, seed,
                            keep_cycles)
            for name in names}


def _save_batches(manifest: Manifest, batches, full_cycles=False):
    for name, batch in batches.items():
        manifest.add(f"batch_{name}.jsonl", batch.save_jsonl,
                     full_cycles=full_cycles)


def _refit_optical():
    """Pump rates refitted for >= 98.5 % pumping within the 1.5 us window,
    collection scaled to 0.028 detected photons per window."""
    optical = fit_pump_rates(PumpTarget(time_us=1.5, min_fidelity=0.985))
    return calibrate_collection(optical, target_photons=0.028,
                                laser_window_us=1.5)


def _odmr(manifest: Manifest, cfg: RunConfig, populations, grid):
    spectrum = odmr_spectrum(cfg.physical, default_diagram(), populations,
                             grid)
    manifest.add("odmr_spectrum.csv", _write_columns, [grid, spectrum],
                 "frequency_mhz,intensity")
    return spectrum


# --- subcommands -------------------------------------------------------------
#
# Each takes the config, the parsed arguments and the run's manifest, which
# main writes once the command returns.


def cmd_simulate(cfg: RunConfig, args, manifest: Manifest):
    batches = _simulate_pair(cfg, cfg.protocol.build(),
                             *_shots_and_seed(cfg, args), args.prepared,
                             keep_cycles=cfg.run.full_cycles)
    _save_batches(manifest, batches, cfg.run.full_cycles)
    manifest.add_summary(**{f"mean_total1_{name}": float(batch.total1.mean())
                            for name, batch in batches.items()})
    print(f"wrote {len(batches)} batch file(s) to {manifest.out_dir}")


def _load_batches(in_dir, names=("up", "down")):
    """The batch_<name>.jsonl files of in_dir, one per name, in order."""
    paths = [os.path.join(in_dir, f"batch_{name}.jsonl") for name in names]
    missing = [p for p in paths if not os.path.exists(p)]
    if missing:
        raise ConfigError(f"missing batch file(s): {missing}")
    return [BatchResult.load_jsonl(p) for p in paths]


def cmd_analyze(cfg: RunConfig, args, manifest: Manifest):
    batch_up, batch_dn = _load_batches(args.in_dir or manifest.out_dir)
    mode = args.mode.replace("-", "_")
    if mode == "dual_step" and batch_up.reads_per_cycle != 2:
        raise ConfigError("dual-step analysis requested but the batches "
                          "carry a single read per cycle")
    report = fidelity_report(batch_up, batch_dn, cfg.classifier, mode=mode)
    manifest.add(f"report_{mode}.json", _write_json, report.to_dict())
    manifest.add("histogram.csv",
                 CountHistogram.from_batches(batch_up, batch_dn).to_csv)
    if batch_up.reads_per_cycle == 2:
        manifest.add("joint_histogram.csv",
                     JointHistogram.from_batches(batch_up, batch_dn).to_csv)
    manifest.add_summary(average_fidelity=report.average_fidelity,
                         misread_bright_as_dark=report.misread_bright_as_dark,
                         misread_dark_as_bright=report.misread_dark_as_bright,
                         success_efficiency=report.success_efficiency)
    print(f"{mode}: fidelity {report.average_fidelity:.4f} "
          f"(rates {report.misread_bright_as_dark:.4f} / "
          f"{report.misread_dark_as_bright:.4f}, "
          f"efficiency {report.success_efficiency:.4f})")


def cmd_fit_flip(cfg: RunConfig, args, manifest: Manifest):
    batch_up, = _load_batches(args.in_dir or manifest.out_dir, ("up",))
    fit = fit_flip_rate(batch_up.detect1, batch_up.n_shots)
    manifest.add("flip_fit.json", _write_json, dataclasses.asdict(fit))
    manifest.add_summary(flip_rate=fit.flip_rate, ci68=list(fit.ci68))
    print(f"flip rate {fit.flip_rate:.3e} (68 % CI "
          f"[{fit.ci68[0]:.3e}, {fit.ci68[1]:.3e}])")


def cmd_fit_model(cfg: RunConfig, args, manifest: Manifest):
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
    manifest.add("shot_model.json", _write_json, model.to_dict())
    manifest.add_summary(**model.to_dict())
    print(json.dumps(model.to_dict(), indent=2, sort_keys=True))


def cmd_odmr(cfg: RunConfig, args, manifest: Manifest):
    span = 1.5 * cfg.physical.hyperfine_splitting
    grid = np.arange(-span, span + args.step / 2, args.step)
    try:
        spectrum = _odmr(manifest, cfg, args.populations, grid)
    except ModelError as exc:
        raise UsageError(f"argument --populations: {exc}") from exc
    separation = estimate_peak_separation(grid, spectrum) \
        if min(args.populations) > 0 else None
    manifest.add_summary(peak_separation_mhz=separation)
    if separation is not None:
        print(f"peak separation {separation:.3f} MHz")


def cmd_pump(cfg: RunConfig, args, manifest: Manifest):
    optical = _refit_optical() if args.refit else cfg.optical
    curve = propagate(optical, args.duration, start=None)
    manifest.add("pump_curve.csv", curve.to_csv)
    manifest.add("optical_model.json", _write_json, optical.to_dict())
    fid = curve.pump_fidelity(min(1.5, args.duration))
    photons = expected_cycle_photons(optical, cfg.protocol.laser_window_us)
    manifest.add_summary(pump_fidelity_at_1p5us=fid,
                         expected_cycle_photons=photons)
    print(f"pump fidelity at 1.5 us: {fid:.4f}; "
          f"expected photons per window: {photons:.4f}")


def cmd_optimize_threshold(cfg: RunConfig, args, manifest: Manifest):
    pmf_up = exact_count_pmf(cfg.shot_model, cfg.protocol.cycles, Nuclear.UP)
    pmf_dn = exact_count_pmf(cfg.shot_model, cfg.protocol.cycles, Nuclear.DOWN)
    best_n, best_fid = separating_threshold(pmf_up, pmf_dn)
    payload = dict(best_cutoff=best_n, fidelity=best_fid)
    manifest.add("threshold.json", _write_json, payload)
    manifest.add_summary(**payload)
    print(f"optimal cutoff N = {best_n} (fidelity {best_fid:.4f})")


def cmd_scenario(cfg: RunConfig, args, manifest: Manifest):
    overrides = {}
    for item in args.override or []:
        if "=" not in item:
            raise UsageError(f"--override needs key=value, got {item!r}")
        key, _, value = item.partition("=")
        try:
            overrides[key.strip()] = json.loads(value)
        except json.JSONDecodeError:
            raise UsageError(f"--override value is not a number: {item!r}")
    report = scenario(cfg.shot_model, cfg.protocol.build(),
                      overrides=overrides, duration_budget_ms=args.budget_ms,
                      config=cfg.classifier)
    manifest.add("scenario.json", _write_json, report.to_dict())
    manifest.add_summary(
        optimized_fidelity=report.optimized_fidelity,
        conditional_fidelity=report.conditional_fidelity,
        cycles=report.cycles,
        readout_duration_us=report.readout_duration_us)
    print(f"cycles {report.cycles} (readout {report.readout_duration_us:.0f} us): "
          f"threshold-optimized fidelity {report.optimized_fidelity:.4f}, "
          f"conditional fidelity {report.conditional_fidelity:.4f}")


_REFERENCE_SUMMARY = {
    "mean_bright": REFERENCE_TARGETS.mean_bright,
    "mean_dark": REFERENCE_TARGETS.mean_dark,
    "raw_fidelity": 0.8805,
    "raw_bright_as_dark": REFERENCE_TARGETS.rate_bright_as_dark,
    "raw_dark_as_bright": REFERENCE_TARGETS.rate_dark_as_bright,
    "conditional_fidelity": 0.9815,
    "conditional_bright_as_dark": REFERENCE_TARGETS.cond_bright_as_dark,
    "conditional_dark_as_bright": REFERENCE_TARGETS.cond_dark_as_bright,
    "dual_fidelity": 0.995,
    "dual_success_efficiency": 0.898,
    "flip_rate": 7.7e-4,
    "pump_fidelity": 0.985,
    "expected_cycle_photons": 0.028,
    "odmr_ratio": 0.0753,
    "odmr_separation_mhz": 8.0,
}


def cmd_reproduce_paper(cfg: RunConfig, args, manifest: Manifest):
    """Full offline pipeline against the reference summary statistics."""
    shots, seed = _shots_and_seed(cfg, args)
    got = {}

    # 1. optical pumping
    optical = _refit_optical()
    curve = propagate(optical, 5.0)
    manifest.add("pump_curve.csv", curve.to_csv)
    got["pump_fidelity"] = curve.pump_fidelity(1.5)
    got["expected_cycle_photons"] = expected_cycle_photons(optical, 1.5)

    # 2. shot-model calibration
    model = fit_shot_model(REFERENCE_TARGETS, cycles=cfg.protocol.cycles,
                           config=cfg.classifier)
    manifest.add("shot_model.json", _write_json, model.to_dict())
    cfg = dataclasses.replace(cfg, shot_model=model, optical=optical)

    # 3. spectra
    pops = (cfg.physical.nuclear_init_fidelity,
            1 - cfg.physical.nuclear_init_fidelity)
    grid = np.arange(-6.0, 6.0 + 0.05, 0.1)
    spec = _odmr(manifest, cfg, pops, grid)
    got["odmr_separation_mhz"] = estimate_peak_separation(grid, spec)
    half = len(grid) // 2
    got["odmr_ratio"] = float(spec[:half].max() / spec[half:].max()) \
        if spec[:half].max() < spec[half:].max() else \
        float(spec[half:].max() / spec[:half].max())

    # 4. flip decay over 1000 cycles: over 500 the baseline and the rate
    # are confounded and the fit is about 5x less precise
    decay_protocol = dataclasses.replace(cfg.protocol, cycles=1000).build()
    decay_batch = _simulate(cfg, decay_protocol, "decay", shots, seed)
    manifest.add("detection_curve.csv", _write_columns,
                 [np.arange(1, decay_protocol.cycles + 1),
                  decay_batch.detect1 / shots],
                 "cycle,detection_probability")
    got["flip_rate"] = fit_flip_rate(decay_batch.detect1, shots).flip_rate

    # 5. single-read batches + reports
    batches = _simulate_pair(cfg, cfg.protocol.build(), shots, seed)
    _save_batches(manifest, batches)
    up, dn = batches["up"], batches["down"]
    got["mean_bright"] = float(up.total1.mean())
    got["mean_dark"] = float(dn.total1.mean())
    manifest.add("histogram_raw.csv",
                 CountHistogram.from_batches(up, dn).to_csv)
    for mode in ("raw", "conditional"):
        rep = fidelity_report(up, dn, cfg.classifier, mode)
        manifest.add(f"report_{mode}.json", _write_json, rep.to_dict())
        got[f"{mode}_fidelity"] = rep.average_fidelity
        got[f"{mode}_bright_as_dark"] = rep.misread_bright_as_dark
        got[f"{mode}_dark_as_bright"] = rep.misread_dark_as_bright

    # conditional histogram of kept shots
    top = int(max(up.total1.max(), dn.total1.max())) + 1
    manifest.add("histogram_conditional.csv", _write_columns,
                 [np.arange(top),
                  np.bincount(up.total1[up.head1 >= 1], minlength=top),
                  np.bincount(dn.total1[dn.head1 == 0], minlength=top)],
                 "bin,count_up_prepared,count_dn_prepared", fmt="%d")

    # 6. dual-step batches + report
    dual = _simulate_pair(
        cfg, dataclasses.replace(cfg.protocol, kind="dual").build(), shots,
        seed, prefix="dual_")
    manifest.add("joint_histogram.csv",
                 JointHistogram.from_batches(dual["up"], dual["down"]).to_csv)
    rep = fidelity_report(dual["up"], dual["down"], cfg.classifier,
                          "dual_step")
    manifest.add("report_dual.json", _write_json, rep.to_dict())
    got["dual_fidelity"] = rep.average_fidelity
    got["dual_success_efficiency"] = rep.success_efficiency

    # 7. summary table
    summary = {k: dict(reference=r, simulated=got.get(k))
               for k, r in _REFERENCE_SUMMARY.items()}
    manifest.add("summary.json", _write_json, summary)
    manifest.add_summary(**{k: got.get(k) for k in _REFERENCE_SUMMARY})

    width = max(len(k) for k in _REFERENCE_SUMMARY)
    print(f"{'statistic':<{width}}  {'reference':>10}  {'simulated':>10}")
    for key, ref in _REFERENCE_SUMMARY.items():
        val = got.get(key)
        val_s = "-" if val is None else f"{val:10.4g}"
        print(f"{key:<{width}}  {ref:>10.4g}  {val_s:>10}")


# --- argument parsing ---------------------------------------------------------


def _positive(kind):
    """argparse type: a finite number of ``kind`` (int or float) above 0."""
    def parse(text):
        try:
            value = kind(text)
            if math.isfinite(value) and value > 0:
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(
            f"must be a positive {kind.__name__}, got {text!r}")
    return parse


def _populations(text):
    """argparse type: two comma-separated numbers."""
    try:
        p_first, p_second = (float(x) for x in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"needs two comma-separated numbers, got {text!r}") from None
    return p_first, p_second


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
            p.add_argument("--shots", type=_positive(int), default=None)

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
    p.add_argument("--populations", type=_populations, default="0.93,0.07")
    p.add_argument("--step", type=_positive(float), default=0.1,
                   help="grid step (MHz)")
    p.set_defaults(func=cmd_odmr)

    p = sub.add_parser("pump", help="propagate the optical pumping model")
    common(p, shots=False)
    p.add_argument("--duration", type=_positive(float), default=5.0,
                   help="us")
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
    p.add_argument("--budget-ms", type=_positive(float), default=None,
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
        manifest = Manifest(cfg, args)
        args.func(cfg, args, manifest)
        manifest.write()
        return EXIT_OK
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
