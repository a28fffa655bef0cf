"""Exact-arithmetic analysis of the halved Collatz map.

Stopping times and parity words, the closed-form walk evaluator, residue
classes and families of starters, cycle-number candidates and bounds,
record ratios approaching log3(2), and parallel checkpointed range scans.
All number theory is exact (big integers and rationals); irrational
quantities run in fixed-point decimals of a fixed working precision.
"""

from .bounds import (CycleCandidate, RatioFlags, RatioRecord,
                     check_ratio_constraints, cycle_candidate,
                     cycle_lower_bound, cycle_upper_bound,
                     enumerate_cycle_candidates, log3_2, matveev_constant,
                     matveev_constant_value, matveev_log10_gap_bound,
                     ratio_records, stopping_number_bounds, unique_s_for_r)
from .core import (DEFAULT_STEP_CAP, CappedWalk, StoppingRecord, is_parity_prefix,
                   shortcut_step, stopping_record, trajectory)
from .errors import (CheckpointError, CollatzStopError, CycleDetectedError,
                     DomainError, LimitError, ParseError, StepLimitError)
from .residues import (ClassLabel, ResidueFamily, class_transition, classify,
                       enumerate_minimal, family_member, table2_rows,
                       two_step_reduce)
from .scan import (ScanConfig, ScanStats, checkpoint_resume, checkpoint_save,
                   empirical_alpha, scan_collect, scan_range)
from .sequences import (ExactOutcome, ParitySequence, apply_closed_form,
                        lower_unit_numerator, parse_sequence, sigma,
                        weighted_sum)

__version__ = "0.1.0"

__all__ = [
    "CappedWalk", "CheckpointError", "ClassLabel", "CollatzStopError",
    "CycleCandidate", "CycleDetectedError", "DEFAULT_STEP_CAP", "DomainError",
    "ExactOutcome", "LimitError", "ParitySequence",
    "ParseError", "RatioFlags", "RatioRecord", "ResidueFamily", "ScanConfig",
    "ScanStats", "StepLimitError", "StoppingRecord", "apply_closed_form",
    "check_ratio_constraints", "checkpoint_resume", "checkpoint_save",
    "class_transition", "classify", "cycle_candidate", "cycle_lower_bound",
    "cycle_upper_bound", "empirical_alpha",
    "enumerate_cycle_candidates", "enumerate_minimal", "family_member",
    "is_parity_prefix", "log3_2", "lower_unit_numerator", "matveev_constant",
    "matveev_constant_value", "matveev_log10_gap_bound", "parse_sequence",
    "ratio_records", "scan_collect", "scan_range", "shortcut_step", "sigma",
    "stopping_number_bounds", "stopping_record", "table2_rows", "trajectory",
    "two_step_reduce", "unique_s_for_r", "weighted_sum",
]
