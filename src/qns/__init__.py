"""Teacher-student quadratic networks: Gram flows, Stiefel SGD, scaling laws."""

from .analysis import FitResult, extract_transitions, fit_power_law
from .finetune import FineTuneBatch, FineTuneResult, collect_batch, finetune, risk_decomposition
from .flow import (
    EffectiveScales,
    FlowParams,
    align_curves,
    closed_form_align_gram,
    closed_form_weight_gram,
    effective_scales,
    gram_rhs_align,
    gram_rhs_weight,
    integrate_rk4,
    theory_limit_risk,
    theory_risk_curve,
    weight_risk_curve,
)
from .linalg import (
    EigenPair,
    inv_sqrt_gram,
    loewner_slack,
    psd_project,
    psd_sqrt,
    rng_stream,
    sample_gaussian_mat,
    sample_stiefel,
    sym_eigen,
)
from .model import (
    PowerLawSpectrum,
    StudentState,
    TeacherModel,
    alignment_gram,
    draw_samples,
    instantaneous_loss,
    opt_risk,
    population_risk,
    student_output,
    teacher_output,
)
from .riccati import (
    BoundingConfig,
    BoundingState,
    RiccatiBlocks,
    antisym_blocks,
    bounding_run,
    closed_form_discrete_gram,
    euler_update,
    init_bounding,
    monotone_update,
    riccati_blocks,
    v_update,
)
from .trainer import (
    TrainResult,
    euclidean_grad,
    run_training,
    schedule_eta,
    sgd_step,
    stiefel_grad,
)

__version__ = "0.1.0"
