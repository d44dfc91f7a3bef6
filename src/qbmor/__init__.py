"""Model reduction for quadratic-bilinear ODE and index-2 descriptor systems."""

from .dae_transform import (
    HomogenizedDae,
    OutputRealization,
    ProjectorRealization,
    build_projectors,
    explicit_ode,
    homogenize_b2,
    homogenized_output_realization,
    output_realization,
    recover_pressure,
)
from .dense_solvers import (
    ResidualError,
    SolverError,
    SpectralFactorization,
    pencil_eig,
    record_residuals,
    solve_lyapunov,
    solve_saddle,
    solve_saddle_adjoint,
    solve_shifted,
)
from .gramians_norms import (
    GramianPair,
    error_system_norm,
    linear_gramians,
    truncated_gramians,
    truncated_h2_norm,
)
from .problems import (
    gen_burgers,
    gen_synthetic_dae,
    load_system,
    save_system,
    steady_state_shift,
)
from .simulate import InputSignal, Trajectory, compare, simulate_dae, simulate_ode
from .system_model import (
    QbDaeSystem,
    QbOdeSystem,
    ReducedQbSystem,
    project_dae_outputs,
    project_ode,
)
from .tensor_kron import (
    HessianTensor,
    apply_hessian,
    hessian_congruence,
    quadratic_jacobian,
    symmetrize,
)
from .tqb_irka import (
    IrkaConfig,
    IrkaTrace,
    tqb_irka_dae_saddle,
    tqb_irka_ode,
)

__version__ = "0.1.0"
