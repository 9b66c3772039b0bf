"""Circuit-analysis toolkit: depth metrics, runtime estimation, and
metric-accuracy evaluation for compiled quantum circuits."""

__version__ = "0.1.0"

from .calibration import (ArchitectureMismatchError, DurationTable,
                          DurationTableError, GateStats, configure_weights,
                          duration_table_from_dict, load_duration_table,
                          summarize)
from .compare import (DistributionSummary, IdentificationResult,
                      PairComparison, SweepResult, VersionRecord, all_pairs,
                      identification_accuracy, identify_optimal,
                      percent_relative_error, relative_difference,
                      summarize_distribution, sweep_single_qubit_weight)
from .ir import Circuit, Gate, Violation, is_multi_qubit, validate
from .metrics import (MissingWeightError, WeightMap, gate_aware_depth,
                      multiqubit_depth, traditional_depth)
from .qasm import (ParseDiagnostic, ParseResult, QasmParseError, parse,
                   parse_file, parse_program, unparse)
from .runtime import UnresolvedDurationError, estimate_runtime

__all__ = [
    "Circuit", "Gate", "Violation", "is_multi_qubit", "validate",
    "ParseDiagnostic", "ParseResult", "QasmParseError", "parse", "parse_file",
    "parse_program", "unparse",
    "WeightMap", "MissingWeightError", "traditional_depth", "multiqubit_depth",
    "gate_aware_depth",
    "DurationTable", "DurationTableError", "ArchitectureMismatchError",
    "GateStats", "load_duration_table", "duration_table_from_dict",
    "summarize", "configure_weights",
    "UnresolvedDurationError", "estimate_runtime",
    "VersionRecord", "PairComparison", "IdentificationResult",
    "DistributionSummary", "SweepResult", "relative_difference",
    "percent_relative_error", "all_pairs", "identify_optimal",
    "identification_accuracy", "summarize_distribution",
    "sweep_single_qubit_weight",
]
