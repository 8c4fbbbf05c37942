"""tapkit: declarative index maps from sensorimotor recordings to supervised
training sets, plus the models and analyses that consume them."""

from .analysis import MIResult, effective_tapping, lag_scan, mutual_information
from .engine import (
    Dataset,
    DropoutConfig,
    apply,
    apply_blocking,
    dropout_augment,
    load_dataset_csv,
    save_dataset_csv,
    stream_open,
    stream_push,
)
from .errors import ParseError, TapkitError
from .models import (
    LinearModel,
    best_of_n,
    fit,
    invert_direct,
    lms_step,
    load_model,
    predict,
    save_model,
)
from .render import DiagramOptions, to_dot
from .rlbridge import (
    ChainEnv,
    ValueTable,
    bellman_v,
    q_update,
    sarsa_update,
    tapped_td_run,
    td0_update,
    value_iteration,
)
from .sim import PlantConfig, arm_hand_position, generate, planted_lag_series, plant_matrix
from .smcore import (
    ChannelRef,
    SensorimotorMatrix,
    SensorimotorSpace,
    append_measurement,
    define_space,
    infer_space_from_csv,
    load_csv,
    save_csv,
)
from .tapdsl import (
    CausalityReport,
    Tap,
    Tapping,
    parse,
    parse_file,
    format_space,
    format_tapping,
    to_text,
    validate,
)

__version__ = "0.1.0"
