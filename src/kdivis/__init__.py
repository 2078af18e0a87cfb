"""k-divisibility classification, phase diagrams and non-Markovianity measures
for qubit open-system dynamics.
"""

from .config import DEFAULT, Tolerances
from .divisibility import (
    DivisibilityClass,
    DivisibilityVerdict,
    classify,
    constant_pauli_class,
    is_cp,
    is_positive,
)
from .errors import (
    AllStepsSingular,
    IntegrationUnstable,
    KdivisError,
    NotHermitian,
    QuadratureFailure,
)
from .measures import (
    BlpResult,
    RhpResult,
    blp_detects,
    blp_measure,
    rhp_detects,
    rhp_measure,
)
from .models import (
    AmplitudeDampingModel,
    CnotControlModel,
    PauliChannelModel,
    RateFn,
    SuperradianceModel,
    propagator_grid,
)
from .sweep import (
    CellResult,
    GridSpec,
    ParamRange,
    PhaseDiagramGrid,
    encode_csv,
    encode_svg,
    parse_csv,
    run_sweep,
)

__version__ = "0.1.0"
