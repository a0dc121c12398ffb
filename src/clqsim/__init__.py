"""Seeded discrete-time simulator and metrics for learning-based scheduling
in Bernoulli queueing systems."""

__version__ = "0.1.0"

from .model import (
    ArrivalModel,
    DistributionError,
    EnumerationCapExceeded,
    NetworkInstance,
    ScheduleSet,
    SingleQueueInstance,
    SlacknessResult,
    StructureConstants,
    as_network,
    effective_service_rate,
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
    ObservationMismatch,
    PolicyError,
    PolicyHandle,
    PolicyState,
    Runner,
    backpressure_select,
    feasible_schedules,
    lcb_transition,
    maxweight_select,
    observe,
    ucb_index,
    ucb_select,
)
from .engine import (
    CoupledPair,
    RandomSource,
    Snapshots,
    Trace,
    replay_csv_error,
    replay_error,
    run,
    run_coupled_single,
    run_network,
    run_single,
    trace_to_csv,
    ucb_queue_paths,
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
    delta_loss,
    delta_series,
    lyapunov_report,
    sar,
    sar_multi,
    sar_single,
    sar_ucb_ceiling,
    schedule_weight,
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
