"""Quantum fingerprinting simulation laboratory.

Code-based fingerprint states, exact and sampled comparison tests, the
three-party equality protocols they power, and the random-vector
construction of near-orthogonal fingerprint sets.
"""

__version__ = "0.1.0"

from .codes import (
    BinaryCode,
    DistanceCertificate,
    agreement_fraction,
    bit_at,
    certify_distance,
    code_from_json,
    declared_code,
    encode,
    hadamard_code,
    linear_code,
    random_linear_code,
)
from .errors import (
    CapabilityError,
    ConfigError,
    DomainError,
    InputShapeError,
    QfpError,
)
from .nearset import (
    GramCheck,
    OverlapAudit,
    VectorSet,
    audit_overlaps,
    chernoff_pair_bound,
    gram_dominance_check,
    qubit_lower_bound_from_delta,
    required_dimension,
    sample_pair_audit,
    sample_vector_set,
)
from .permtest import (
    build_hard_instance,
    distinguisher_lower_bound,
    helstrom_error,
    overlap_qubit_pair,
    p_eq_asymptotic,
    p_eq_closed_form,
    p_eq_projection,
    p_eq_upper_bound,
    sample_rate,
)
from .protocols import (
    ExperimentReport,
    message_costs,
    quantum_accept_probability,
    run_experiment,
)
from .qstate import (
    Fingerprint,
    PureState,
    basis_state,
    fingerprint_overlap,
    inner_product,
    make_fingerprint,
    qubits_required,
    random_state,
    tensor,
    tensor_power,
)
from .swaptest import (
    SwapTestResult,
    p_one_for_overlap,
    repetitions_for_error,
    swap_test_analytic,
    swap_test_circuit,
    swap_test_circuit_state,
)

__all__ = [name for name in dir() if not name.startswith("_")]
