"""Single-shot readout simulator for a nuclear spin coupled to a
color-center electron spin: Monte Carlo trajectories, exact count
statistics, threshold classification and post-selection analysis."""

from .model import (Electron, Nuclear, PhysicalParams, LevelDiagram,
                    RegisterState, default_diagram, transition_frequencies,
                    odmr_spectrum)
from .optics import (OpticalModel, PumpCurve, PumpTarget, propagate,
                     fit_pump_rates, calibrate_collection,
                     expected_cycle_photons, default_optical_model)
from .protocol import (Pulse, Repeat, Sequence, ProtocolSpec,
                       build_standard_readout, build_dual_step_readout,
                       parse_sequence, print_sequence, gate_action)
from .trajectory import (ShotModel, ShotRecord, BatchResult, simulate_shot,
                         simulate_batch, cycle_detection_curve,
                         calibrated_shot_model)
from .analysis import (CountHistogram, JointHistogram, ClassifierConfig,
                       FidelityReport, FitTargets, REFERENCE_TARGETS,
                       exact_count_pmf, exact_head_tail_pmf, exact_dual_pmf,
                       fidelity_report, exact_fidelity_report, fit_flip_rate,
                       fit_shot_model, optimize_threshold, scenario,
                       wilson_interval, estimate_peak_separation)

__version__ = "0.1.0"
