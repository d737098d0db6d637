"""The four workloads of the ssro benchmark.

Each workload runs fixed-size public calls ("operations") once per
iteration.  ``run`` is the timed body; ``check`` validates one iteration's
outputs afterwards, untimed.  Inputs come only from the workload seed:
master seeds of the Monte Carlo batches are mixed from (seed, iteration,
stream label), so every iteration samples fresh shots at the same cost.

Why these four (each stresses different modules):

- mc_readout: in-memory sampling, rng + trajectory, no disk and no fits.
- calibrate: exact DPs and fits, analysis + optics, no sampling.
- cli_roundtrip: the on-disk user path; the sampler of mc_readout plus
  JSON-lines save/load and manifest hashing.
- microscopic: the only path through protocol.gate_action and the
  per-shot propagate.
"""
from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import math
import os
import shutil
import time
import traceback

import numpy as np
from scipy.stats import binom

import ssro
import ssro.cli
import ssro.config
from ssro.model import Nuclear

import checks
import speed

# Input sizes.  They set each iteration's cost, which the seed never changes.
MC_SHOTS = 20_000            # per batch; more than one sampler chunk
MC_LONG_CYCLES = 500
CLI_SHOTS = 20_000           # per preparation
MICRO_SHOTS = 16             # per preparation
MICRO_REPLAYS = 2            # records replayed per batch
SCENARIO_CYCLES = (100, 250, 500, 1000)
PUMP_TIME_US = 1.5
PUMP_MIN_FIDELITY = 0.985
TARGET_PHOTONS = 0.028
# tier-1 compares the refitted shot model with the shipped one at this
# relative tolerance, and the exact statistics with the targets at 5 %
SHOT_MODEL_REL = 1e-6
TARGET_REL = 0.05


# --- set-up -------------------------------------------------------------------

@dataclasses.dataclass
class Setup:
    cfg: object
    standard: object              # 250-cycle single-read protocol
    dual: object                  # 250-cycle dual-read protocol
    long: object                  # 500-cycle single-read protocol


def configure() -> Setup:
    """Load the shipped configuration and build the protocols."""
    cfg = ssro.config.load_config()
    proto = cfg.protocol
    return Setup(
        cfg=cfg,
        standard=proto.build(),
        dual=dataclasses.replace(proto, kind="dual").build(),
        long=dataclasses.replace(proto, cycles=MC_LONG_CYCLES).build(),
    )


def subseed(seed: int, *labels: int) -> int:
    """A 63-bit master seed mixed from the workload seed and labels."""
    words = np.random.SeedSequence([seed, *labels]).generate_state(2)
    return (int(words[0]) << 31) ^ int(words[1])


# --- timed operations ---------------------------------------------------------

class Body:
    """Times each operation of one iteration and keeps its error, if any.

    The reference kernel runs between operations; ``scaled`` holds each
    operation's time at the reference speed (see speed.py).
    """

    def __init__(self):
        self.times: dict[str, float] = {}
        self.scaled: dict[str, float] = {}
        self.errors: dict[str, str] = {}
        self._kernel = speed.kernel_seconds()

    def call(self, op: str, fn, *args, **kwargs):
        before = self._kernel
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception:
            self.errors[op] = traceback.format_exc()
            return None
        finally:
            self.times[op] = time.perf_counter() - start
            self._kernel = speed.kernel_seconds()
            self.scaled[op] = speed.scaled(self.times[op], before,
                                           self._kernel)


class Workload:
    name = ""
    ops: tuple[str, ...] = ()
    shots = 0                     # shots simulated per iteration
    # per-layer metrics this workload must reach in a traced run
    layers: tuple[str, ...] = ()

    def __init__(self, setup: Setup, seed: int, workdir: str):
        self.setup = setup
        self.cfg = setup.cfg
        self.seed = seed
        self.workdir = workdir
        self.notes: dict = {}

    def prepare(self) -> None:
        """Untimed reference values for the checks."""

    def run(self, body: Body, it: int):
        raise NotImplementedError

    def check(self, out, it: int) -> dict[str, list[str]]:
        raise NotImplementedError

    def finish(self) -> dict[str, list[str]]:
        """Checks run once after the last iteration, as extra operations."""
        return {}


# --- mc_readout -----------------------------------------------------------------

class McReadout(Workload):
    name = "mc_readout"
    shots = 5 * MC_SHOTS
    ops = ("simulate_batch[standard,up]", "simulate_batch[standard,down]",
           "simulate_batch[dual,up]", "simulate_batch[dual,down]",
           "simulate_batch[500,up]", "fidelity_report[raw]",
           "fidelity_report[conditional]", "fidelity_report[dual_step]",
           "fit_flip_rate")
    layers = ("rng.uniforms_s", "rng.uniforms_draws", "rng.poisson_s",
              "rng.poisson_draws", "rng.geometric_s",
              "trajectory.simulate_batch_self_s",
              "trajectory.simulate_batch_shots",
              "analysis.fidelity_report_s", "analysis.fit_flip_rate_s")

    def prepare(self):
        an = ssro.analysis
        up, dn = Nuclear.UP, Nuclear.DOWN
        m, cycles = self.cfg.shot_model, self.setup.standard.cycles
        dual_up = an.exact_dual_pmf(m, cycles, up)
        dual_dn = an.exact_dual_pmf(m, cycles, dn)
        # reference PMFs per batch: (read 1, read 2 or None)
        self.pmfs = {
            "standard,up": (an.exact_count_pmf(m, cycles, up), None),
            "standard,down": (an.exact_count_pmf(m, cycles, dn), None),
            "dual,up": (dual_up.sum(axis=1), dual_up.sum(axis=0)),
            "dual,down": (dual_dn.sum(axis=1), dual_dn.sum(axis=0)),
            "500,up": (an.exact_count_pmf(m, MC_LONG_CYCLES, up), None),
        }
        self.exact = {mode: an.exact_fidelity_report(m, cycles,
                                                     self.cfg.classifier, mode)
                      for mode in ("raw", "conditional", "dual_step")}
        self.notes["flip_rate_estimates"] = []
        self.notes["flip_cap"] = flip_cap_note(self.cfg.shot_model,
                                               MC_LONG_CYCLES)

    def run(self, body, it):
        up, dn = Nuclear.UP, Nuclear.DOWN
        m, s = self.cfg.shot_model, self.setup
        batches = {}
        for label, protocol, prep, stream in (
                ("standard,up", s.standard, up, 1),
                ("standard,down", s.standard, dn, 2),
                ("dual,up", s.dual, up, 3),
                ("dual,down", s.dual, dn, 4),
                ("500,up", s.long, up, 5)):
            batches[label] = body.call(
                f"simulate_batch[{label}]", ssro.trajectory.simulate_batch,
                m, protocol, prep, MC_SHOTS, subseed(self.seed, it, stream),
                n_workers=self.cfg.run.workers)
        reports = {}
        for mode, pair in (("raw", "standard"), ("conditional", "standard"),
                           ("dual_step", "dual")):
            reports[mode] = body.call(
                f"fidelity_report[{mode}]", ssro.analysis.fidelity_report,
                batches[f"{pair},up"], batches[f"{pair},down"],
                self.cfg.classifier, mode)
        long = batches["500,up"]
        fit = body.call("fit_flip_rate", ssro.analysis.fit_flip_rate,
                        long.detect1 if long is not None else None, MC_SHOTS)
        return batches, reports, fit

    def check(self, out, it):
        batches, reports, fit = out
        result = {}
        for label, (pmf1, pmf2) in self.pmfs.items():
            batch = batches[label]
            op = f"simulate_batch[{label}]"
            if batch is None:
                continue
            cycles = (MC_LONG_CYCLES if label.startswith("500")
                      else self.setup.standard.cycles)
            problems = checks.batch_sane(op, batch, MC_SHOTS, cycles,
                                         pmf2 is not None)
            if not problems:
                problems += checks.counts_match(op + " total1", batch.total1,
                                                pmf1)
                if pmf2 is not None:
                    problems += checks.counts_match(op + " total2",
                                                    batch.total2, pmf2)
            result[op] = problems
        for mode, rep in reports.items():
            if rep is not None:
                pair = "dual" if mode == "dual_step" else "standard"
                result[f"fidelity_report[{mode}]"] = report_matches_exact(
                    mode, rep, batches[f"{pair},up"], batches[f"{pair},down"],
                    self.exact[mode])
        if fit is not None:
            result["fit_flip_rate"] = flip_fit_sane(fit.flip_rate, fit.ci68)
            self.notes["flip_rate_estimates"].append(fit.flip_rate)
        return result

    def finish(self):
        """Sampling is identical for one and two workers on a 2-chunk batch."""
        traj = ssro.trajectory
        n = getattr(traj, "_CHUNK", 16384) + 1000
        args = (self.cfg.shot_model, self.setup.standard, Nuclear.UP,
                n, subseed(self.seed, 99))
        problems = []
        try:
            one = traj.simulate_batch(*args, n_workers=1)
            two = traj.simulate_batch(*args, n_workers=2)
            for name in ("total1", "head1", "detect1"):
                if not np.array_equal(getattr(one, name), getattr(two, name)):
                    problems.append(f"determinism: {name} differs between "
                                    f"1 and 2 workers")
        except Exception:
            problems.append(traceback.format_exc())
        return {"determinism[n_workers 1 vs 2]": problems}


def flip_cap_note(model, cycles: int) -> dict:
    """Chance that a shot needs more flips than the sampler's cap allows.

    Recorded, not gated: at the calibrated point the expected number of
    capped shots per batch is far below one, so the workloads do not
    exercise the cap.  Each cycle flips at most once, with probability at
    most the larger flip rate, so a binomial tail bounds the chance.
    """
    cap = getattr(ssro.trajectory, "_MAX_FLIPS", None)
    if cap is None:
        return {"max_flips": None}
    p = float(binom.sf(cap, cycles, max(model.flip_bd, model.flip_db)))
    return {"max_flips": cap, "cycles": cycles,
            "p_more_flips_than_cap_upper_bound": p,
            "expected_capped_shots_per_batch_upper_bound": p * MC_SHOTS}


def flip_fit_sane(rate, ci) -> list[str]:
    """Structural sanity only: the estimate's bias is a known open defect,
    so its value is recorded, never gated."""
    if math.isfinite(rate) and 0 <= rate < 1 and ci[0] <= rate <= ci[1]:
        return []
    return [f"fit_flip_rate: estimate {rate!r} with CI {ci!r} is not a "
            f"finite rate inside its interval"]


def report_matches_exact(mode, rep, batch_up, batch_dn, exact) -> list[str]:
    """MC misread rates and efficiencies agree with the exact report."""
    n = batch_up.n_shots
    if mode == "raw":
        n_up = n_dn = n
    elif mode == "conditional":
        n_up = int((batch_up.head1 >= 1).sum())
        n_dn = int((batch_dn.head1 == 0).sum())
    else:
        per = rep.per_preparation
        n_up = int(round(per["up"]["success_efficiency"] * n))
        n_dn = int(round(per["down"]["success_efficiency"] * batch_dn.n_shots))
    if n_up < 1 or n_dn < 1:
        return [f"{mode}: post-selection kept no shots"]
    problems = checks.rate_matches(f"{mode} p(up|dn)",
                                    rep.misread_bright_as_dark, n_up,
                                    exact["misread_bright_as_dark"])
    problems += checks.rate_matches(f"{mode} p(dn|up)",
                                    rep.misread_dark_as_bright, n_dn,
                                    exact["misread_dark_as_bright"])
    if mode == "conditional":
        problems += checks.rate_matches(
            f"{mode} efficiency", rep.success_efficiency,
            n + batch_dn.n_shots, exact["success_efficiency"])
    if mode == "dual_step":
        for prep, shots in (("up", n), ("down", batch_dn.n_shots)):
            problems += checks.rate_matches(
                f"{mode} efficiency[{prep}]",
                rep.per_preparation[prep]["success_efficiency"], shots,
                exact["per_preparation"][prep])
    return problems


# --- calibrate --------------------------------------------------------------------

class Calibrate(Workload):
    name = "calibrate"
    ops = ("fit_pump_rates", "calibrate_collection", "fit_shot_model",
           "exact_fidelity_report[raw]", "exact_fidelity_report[conditional]",
           "exact_fidelity_report[dual_step]", "exact_count_pmf[up]",
           "exact_count_pmf[down]", "optimize_threshold",
           *(f"scenario[cycles={c}]" for c in SCENARIO_CYCLES),
           "scenario[lambda_bright_scale]")
    layers = ("analysis.exact_count_pmf_s", "analysis.exact_count_pmf_calls",
              "analysis.exact_head_tail_pmf_s",
              "analysis.exact_head_tail_pmf_calls",
              "analysis.exact_dual_pmf_s", "analysis.exact_dual_pmf_calls",
              "analysis.fit_shot_model_s", "analysis.fit_shot_model_evals",
              "analysis.scenario_s", "analysis.optimize_threshold_s",
              "optics.propagate_s", "optics.propagate_calls",
              "optics.propagate_steps", "optics.fit_pump_rates_s")

    def prepare(self):
        # The fits take the paper's fixed targets; the seed only picks the
        # bright-rate scale of the last scenario.
        u = np.random.default_rng([self.seed, 7]).random()
        self.scale = 1.5 + u
        self.notes["lambda_bright_scale"] = self.scale

    def run(self, body, it):
        an, op = ssro.analysis, ssro.optics
        up, dn = Nuclear.UP, Nuclear.DOWN
        m, cycles, clf = (self.cfg.shot_model, self.setup.standard.cycles,
                          self.cfg.classifier)
        out = {}
        out["fit_pump_rates"] = body.call(
            "fit_pump_rates", op.fit_pump_rates,
            op.PumpTarget(time_us=PUMP_TIME_US,
                          min_fidelity=PUMP_MIN_FIDELITY))
        out["calibrate_collection"] = body.call(
            "calibrate_collection", op.calibrate_collection,
            out["fit_pump_rates"], target_photons=TARGET_PHOTONS,
            laser_window_us=PUMP_TIME_US)
        out["fit_shot_model"] = body.call(
            "fit_shot_model", an.fit_shot_model, an.REFERENCE_TARGETS,
            cycles=cycles, config=clf)
        for mode in ("raw", "conditional", "dual_step"):
            out[f"exact_fidelity_report[{mode}]"] = body.call(
                f"exact_fidelity_report[{mode}]", an.exact_fidelity_report,
                m, cycles, clf, mode)
        pmf_up = out["exact_count_pmf[up]"] = body.call(
            "exact_count_pmf[up]", an.exact_count_pmf, m, cycles, up)
        pmf_dn = out["exact_count_pmf[down]"] = body.call(
            "exact_count_pmf[down]", an.exact_count_pmf, m, cycles, dn)
        out["optimize_threshold"] = body.call(
            "optimize_threshold", an.optimize_threshold, pmf_up, pmf_dn)
        for c in SCENARIO_CYCLES:
            out[f"scenario[cycles={c}]"] = body.call(
                f"scenario[cycles={c}]", an.scenario, m, self.setup.standard,
                overrides={"cycles": c}, config=clf)
        out["scenario[lambda_bright_scale]"] = body.call(
            "scenario[lambda_bright_scale]", an.scenario, m,
            self.setup.standard,
            overrides={"lambda_bright_scale": self.scale}, config=clf)
        return out

    def check(self, out, it):
        an, op = ssro.analysis, ssro.optics
        result = {}
        optical = out["fit_pump_rates"]
        if optical is not None:
            fid = op.propagate(optical, PUMP_TIME_US).pump_fidelity(PUMP_TIME_US)
            result["fit_pump_rates"] = [] if fid >= PUMP_MIN_FIDELITY else [
                f"fit_pump_rates: pump fidelity {fid:.5f} at {PUMP_TIME_US} us "
                f"is below {PUMP_MIN_FIDELITY}"]
        optical = out["calibrate_collection"]
        if optical is not None:
            photons = op.expected_cycle_photons(optical, PUMP_TIME_US)
            result["calibrate_collection"] = [] if math.isclose(
                photons, TARGET_PHOTONS, rel_tol=1e-6) else [
                f"calibrate_collection: {photons:.6f} photons per window, "
                f"expected {TARGET_PHOTONS}"]
        model = out["fit_shot_model"]
        if model is not None:
            result["fit_shot_model"] = shot_model_matches(
                model, ssro.trajectory.calibrated_shot_model())
        targets = an.REFERENCE_TARGETS
        for mode, want in (
                ("raw", (targets.rate_bright_as_dark,
                         targets.rate_dark_as_bright)),
                ("conditional", (targets.cond_bright_as_dark,
                                 targets.cond_dark_as_bright)),
                ("dual_step", None)):
            rep = out[f"exact_fidelity_report[{mode}]"]
            if rep is not None:
                result[f"exact_fidelity_report[{mode}]"] = \
                    exact_report_sane(mode, rep, want)
        for prep, mean in (("up", targets.mean_bright),
                           ("down", targets.mean_dark)):
            pmf = out[f"exact_count_pmf[{prep}]"]
            if pmf is not None:
                got = float((np.arange(len(pmf)) * pmf).sum())
                problems = [] if abs(pmf.sum() - 1) < 1e-9 and pmf.min() >= 0 \
                    else [f"exact_count_pmf[{prep}]: not a normalized PMF"]
                if not math.isclose(got, mean, rel_tol=TARGET_REL):
                    problems.append(f"exact_count_pmf[{prep}]: mean {got:.4f}, "
                                    f"target {mean}")
                result[f"exact_count_pmf[{prep}]"] = problems
        best = out["optimize_threshold"]
        if best is not None:
            result["optimize_threshold"] = checks.threshold_optimal(
                out["exact_count_pmf[up]"], out["exact_count_pmf[down]"], *best)
        per_cycle = (self.setup.standard.readout_duration_us()
                     / self.setup.standard.cycles)
        for c in (*SCENARIO_CYCLES, None):
            key = ("scenario[lambda_bright_scale]" if c is None
                   else f"scenario[cycles={c}]")
            rep = out[key]
            if rep is not None:
                result[key] = scenario_sane(key, rep, c or 250, per_cycle)
        return result


def shot_model_matches(model, reference) -> list[str]:
    return checks.fields_match(
        "fit_shot_model", model, reference,
        ("lambda_bright", "lambda_dark", "flip_db", "nuclear_init_error",
         "charge_error"), SHOT_MODEL_REL)


def exact_report_sane(mode, rep, want) -> list[str]:
    r_up, r_dn = rep["misread_bright_as_dark"], rep["misread_dark_as_bright"]
    problems = []
    if not (0 <= r_up <= 1 and 0 <= r_dn <= 1
            and 0 < rep["success_efficiency"] <= 1
            and abs(rep["average_fidelity"] - (1 - (r_up + r_dn) / 2)) < 1e-12):
        problems.append(f"exact_fidelity_report[{mode}]: inconsistent {rep}")
    if want is not None:
        for got, goal in zip((r_up, r_dn), want):
            if not math.isclose(got, goal, rel_tol=TARGET_REL):
                problems.append(f"exact_fidelity_report[{mode}]: rate {got:.5f}"
                                f", target {goal}")
    return problems


def scenario_sane(label, rep, cycles, per_cycle_us) -> list[str]:
    ok = (rep.cycles == cycles
          and 0.5 <= rep.optimized_fidelity <= 1
          and 0.5 <= rep.conditional_fidelity <= 1
          and rep.best_cutoff >= 0
          and math.isclose(rep.readout_duration_us, per_cycle_us * cycles,
                           rel_tol=1e-9))
    return [] if ok else [f"{label}: inconsistent report {rep.to_dict()}"]


# --- cli_roundtrip ------------------------------------------------------------------

class CliRoundtrip(Workload):
    name = "cli_roundtrip"
    shots = 2 * CLI_SHOTS
    ops = ("simulate", "analyze[raw]", "analyze[conditional]", "fit-flip")
    layers = ("rng.uniforms_s", "rng.uniforms_draws", "rng.poisson_s",
              "rng.poisson_draws", "rng.geometric_s", "rng.shot_seed_calls",
              "rng.shot_seed_s", "trajectory.simulate_batch_self_s",
              "trajectory.simulate_batch_shots", "trajectory.save_jsonl_s",
              "trajectory.save_bytes", "trajectory.load_jsonl_s",
              "trajectory.load_bytes", "analysis.fidelity_report_s",
              "analysis.fit_flip_rate_s", "cli.cmd_simulate_self_s",
              "cli.cmd_analyze_self_s", "cli.cmd_fit_flip_self_s")

    def prepare(self):
        an = ssro.analysis
        up, dn = Nuclear.UP, Nuclear.DOWN
        m, cycles = self.cfg.shot_model, self.setup.standard.cycles
        self.pmfs = {"up": an.exact_count_pmf(m, cycles, up),
                     "down": an.exact_count_pmf(m, cycles, dn)}
        self.exact = {mode: an.exact_fidelity_report(m, cycles,
                                                     self.cfg.classifier, mode)
                      for mode in ("raw", "conditional")}
        self.notes["flip_rate_estimates"] = []
        self.notes["output_bytes_per_iteration"] = []

    def _dirs(self, it):
        root = os.path.join(self.workdir, f"it{it}")
        return {op: os.path.join(root, op.replace("[", "_").strip("]"))
                for op in self.ops}

    def run(self, body, it):
        main = ssro.cli.main
        dirs = self._dirs(it)
        sim = dirs["simulate"]
        commands = {
            "simulate": ["simulate", "--shots", str(CLI_SHOTS),
                         "--seed", str(subseed(self.seed, it)), "--out", sim],
            "analyze[raw]": ["analyze", "--mode", "raw", "--in", sim,
                             "--out", dirs["analyze[raw]"]],
            "analyze[conditional]": ["analyze", "--mode", "conditional",
                                     "--in", sim,
                                     "--out", dirs["analyze[conditional]"]],
            "fit-flip": ["fit-flip", "--in", sim, "--out", dirs["fit-flip"]],
        }
        codes = {}
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            for op, argv in commands.items():
                codes[op] = body.call(op, main, argv)
        return dirs, codes, sink.getvalue()

    def check(self, out, it):
        dirs, codes, log = out
        result = {}
        for op, code in codes.items():
            if code is None:
                continue
            problems = [] if code == 0 else [
                f"{op}: exit code {code}; output:\n{log}"]
            if not problems:
                problems += checks.manifest_verifies(dirs[op])
            result[op] = problems
        batches = None
        if result.get("simulate") == []:
            result["simulate"], batches = self._check_batches(dirs["simulate"])
        for mode in ("raw", "conditional"):
            op = f"analyze[{mode}]"
            if result.get(op) == [] and batches:
                result[op] = self._check_report(dirs[op], mode, batches)
        if result.get("fit-flip") == []:
            with open(os.path.join(dirs["fit-flip"], "flip_fit.json")) as fh:
                fit = json.load(fh)
            result["fit-flip"] = flip_fit_sane(fit["flip_rate"], fit["ci68"])
            self.notes["flip_rate_estimates"].append(fit["flip_rate"])
        self.notes["output_bytes_per_iteration"].append(sum(
            os.path.getsize(os.path.join(d, f))
            for d in dirs.values() if os.path.isdir(d) for f in os.listdir(d)))
        shutil.rmtree(os.path.dirname(dirs["simulate"]), ignore_errors=True)
        return result

    def _check_batches(self, sim_dir):
        """Problems with the simulated batch files, and the loaded batches
        when there are none."""
        problems, loaded = [], {}
        with open(os.path.join(sim_dir, "manifest.json")) as fh:
            summary = json.load(fh)["summary"]
        for prep in ("up", "down"):
            path = os.path.join(sim_dir, f"batch_{prep}.jsonl")
            problems += checks.batch_file_complete(path, CLI_SHOTS)
            if problems:
                return problems, None
            batch = ssro.trajectory.BatchResult.load_jsonl(path)
            loaded[prep] = batch
            label = f"simulate[{prep}]"
            problems += checks.batch_sane(label, batch, CLI_SHOTS,
                                          self.setup.standard.cycles, False)
            problems += checks.counts_match(label, batch.total1,
                                            self.pmfs[prep])
            mean = summary.get(f"mean_total1_{prep}")
            if mean is None or not math.isclose(mean, batch.total1.mean(),
                                                rel_tol=1e-12):
                problems.append(f"{label}: manifest mean {mean} does not "
                                f"match the loaded batch")
        return problems, (None if problems else loaded)

    def _check_report(self, out_dir, mode, batches) -> list[str]:
        with open(os.path.join(out_dir, f"report_{mode}.json")) as fh:
            raw = json.load(fh)
        rep = ssro.analysis.FidelityReport(
            mode=raw["mode"],
            misread_bright_as_dark=raw["misread_bright_as_dark"],
            misread_dark_as_bright=raw["misread_dark_as_bright"],
            average_fidelity=raw["average_fidelity"],
            success_efficiency=raw["success_efficiency"],
            shots_used=raw["shots_used"],
            shots_discarded=raw["shots_discarded"])
        return report_matches_exact(mode, rep, batches["up"], batches["down"],
                                    self.exact[mode])


# --- microscopic ---------------------------------------------------------------------

class Microscopic(Workload):
    name = "microscopic"
    shots = 2 * MICRO_SHOTS
    ops = ("simulate_batch[microscopic,up]", "simulate_batch[microscopic,down]")
    layers = ("rng.uniforms_s", "rng.uniforms_draws", "rng.poisson_s",
              "rng.poisson_draws", "rng.shot_seed_calls", "rng.shot_seed_s",
              "trajectory.simulate_batch_shots",
              "trajectory.simulate_shot_calls",
              "trajectory.simulate_shot_p50_ms",
              "trajectory.simulate_shot_p90_ms", "optics.propagate_s",
              "optics.propagate_calls", "optics.propagate_steps",
              "protocol.gate_action_s", "protocol.gate_action_calls")

    def prepare(self):
        self.model = dataclasses.replace(self.cfg.shot_model,
                                         mode="microscopic")

    def run(self, body, it):
        out = {}
        for prep, stream in ((Nuclear.UP, 1), (Nuclear.DOWN, 2)):
            op = f"simulate_batch[microscopic,{prep.name.lower()}]"
            out[op] = (prep, body.call(
                op, ssro.trajectory.simulate_batch, self.model,
                self.setup.standard, prep, MICRO_SHOTS,
                subseed(self.seed, it, stream),
                n_workers=self.cfg.run.workers,
                params=self.cfg.physical, optical=self.cfg.optical))
        return out

    def check(self, out, it):
        traj = ssro.trajectory
        pick = np.random.default_rng([self.seed, it, 3])
        result = {}
        for op, (prep, batch) in out.items():
            if batch is None:
                continue
            problems = checks.batch_sane(op, batch, MICRO_SHOTS,
                                         self.setup.standard.cycles, False)
            for i in pick.choice(MICRO_SHOTS, MICRO_REPLAYS, replace=False):
                rec = batch.record(int(i))
                again = traj.simulate_shot(
                    self.model, self.setup.standard, prep, seed=rec.seed,
                    params=self.cfg.physical, optical=self.cfg.optical,
                    head_window=batch.head_window)
                if (again.total1, again.head1) != (rec.total1, rec.head1):
                    problems.append(f"{op}: shot {i} replays to "
                                    f"({again.total1}, {again.head1}), batch "
                                    f"holds ({rec.total1}, {rec.head1})")
            result[op] = problems
        return result


WORKLOADS = {w.name: w for w in (McReadout, Calibrate, CliRoundtrip,
                                 Microscopic)}
