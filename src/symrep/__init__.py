"""symrep: symmetry-structured latent representations of interactive environments.

Observations are encoded onto a unit hypersphere, actions become learnable
special-orthogonal matrices built from products of planar rotations, and an
entanglement penalty drives every action towards rotating a single latent
plane. Trained on interaction trajectories alone, the latent space exposes
the environment's group structure and supports long multi-step prediction
by pure latent rollout.
"""

from .tensor import (
    Tensor,
    add,
    as_tensor,
    bce_with_logits,
    concat,
    finite_diff_check,
    gather_rows,
    matmul,
    mul,
    no_grad,
    normalize_to_sphere,
    relu,
    sigmoid,
    transpose,
)
from .optim import Adam, AdamState, adam_step
from .rotations import (
    canonical_angles,
    compose_representation,
    entanglement_penalty,
    plane_count,
    plane_indices,
    plane_rotation,
    rotate_vectors,
    rotation_matrices,
)
from .environments import (
    FactorState,
    FactorWorld,
    SphereWorld,
    TorusState,
    TorusWorld,
    Trajectory,
    load_trajectories,
    sample_trajectory,
    save_trajectories,
    trajectory_rng,
)
from .models import (
    ActionTable,
    ContinuousActionNet,
    Decoder,
    DirectPredictor,
    Encoder,
    SymmetryModel,
    WeightsFormatError,
    load_weights,
    save_weights,
)
from .training import (
    AngleCurriculum,
    ConstantSchedule,
    DivergenceError,
    EnvironmentSpec,
    LinearRampSchedule,
    StepSchedule,
    TrainConfig,
    TrainReport,
    batch_entanglement,
    build_model,
    curriculum_range,
    direct_prediction_loss,
    lambda_at,
    rollout_loss,
    total_loss,
    train,
)
from .config import ConfigError, ExperimentConfig, load_experiment_config, parse_experiment_config

__version__ = "0.1.0"
