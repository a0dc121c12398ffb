"""Seeded discrete-time simulator and metrics for learning-based scheduling
in Bernoulli queueing systems."""

__version__ = "0.1.0"

from .model import (
    ArrivalModel,
    EnumerationCapExceeded,
    NetworkInstance,
    ScheduleSet,
    ScheduleTable,
    SingleQueueInstance,
    SlacknessResult,
    StructureConstants,
    as_network,
    instance_from_dict,
    instance_to_dict,
    load_instance,
    net_rate_matrix,
    save_instance,
    single_to_network,
    slackness_of,
    slackness_single,
    structure_constants,
    traffic_slackness,
    validate_instance,
)
from .policies import (
    PolicyError,
    PolicyHandle,
    PolicyState,
    feasible_schedules,
)
from .engine import (
    RandomSource,
    Trace,
    replay_csv_error,
    replay_error,
    run,
    run_network,
    run_single,
    trace_csv_lines,
    trace_to_csv,
)
from .metrics import (
    CheckResult,
    EmptyInput,
    GridMismatch,
    LyapunovReport,
    MetricSeries,
    TheoremBounds,
    clq_details,
    clq_estimate,
    delta_series,
    fold_series,
    lyapunov_report,
    sar_multi,
    sar_single,
    render_series_block,
    series_blocks,
    series_row,
    series_to_csv,
    theorem_bounds,
    time_averaged_series,
)
from .instances import (
    GenerationFailed,
    ParameterError,
    figure1_instance,
    lower_bound_family,
    random_with_slackness,
    tandem_instance,
)

__all__ = [name for name in dir() if not name.startswith("_")]
