"""flipsense: change-sensitivity based regression test selection.

Builds a decayed file-by-test sensitivity matrix from version-control
change sets and test-verdict history, selects the tests most likely to
flip for a given change set, evaluates selection methods by replaying the
history, and schedules the stable remainder under a staleness budget.
"""

from .baselines import RandomPolicy, dissimilarity_order, hbtp_scores
from .errors import (
    ConfigError,
    FlipsenseError,
    HistoryParseError,
    UndefinedMetricError,
    ValidationError,
)
from .evaluate import (
    EvalReport,
    MethodConfig,
    f_measure,
    figure_csv,
    figure_data,
    improvement_summary,
    precision,
    recall,
    replay,
    replay_sizes,
    sweep_alpha,
)
from .history import (
    BuildRecord,
    FlipLedger,
    extract_flips,
    ingest_history,
    read_history,
    summarise,
    write_history,
)
from .schedule import (
    ScheduleState,
    cost,
    day_tick,
    office_hours_tick,
    select_stable,
    state_from_history,
)
from .sensitivity import (
    PendingChanges,
    ScoreVector,
    SensitivityMatrix,
    advance,
    build_delta,
    empty_matrix,
    export_heatmap,
    incremental_apply,
    incremental_observe,
    select_top_n,
    slice_scores,
)
from .synth import SynthConfig, generate

__version__ = "0.1.0"
