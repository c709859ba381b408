"""Virtual air-to-ground massive-MIMO channel sounder and analysis toolkit."""

from .array_geometry import build_cylindrical_array
from .calibration import Reference, calibrate, stability_stats
from .capture_sim import CaptureRecord, simulate_snapshot
from .channel_synth import synthesize_paths, synthesize_slots
from .config import parse_scenario
from .pipeline import (analyze_records, calibrate_records, first_reference, run_b2b,
                       run_synthesis, summarize)
from .processing import (GatedCIR, RawCIR, Workspace, cir_from_tf, column_power_profile,
                         correlation_and_eigen, rms_delay_spread,
                         snapshot_metrics, threshold_and_gate)
from .waveform import (SPEED_OF_LIGHT, TimingPlan, TonePlan,
                       snapshot_timestamps)

__version__ = "0.1.0"
