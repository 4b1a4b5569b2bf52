"""Classical benchmarking of decoded quantum interferometry on paint shop instances."""

from .bench import (
    compare_decoders,
    enumerate_optima,
    export_lp,
    instance_digest,
    run_pipeline,
    sweep_degree,
    validate_approximation,
)
from .decoder import (
    ConstraintGraph,
    DecodeOutcome,
    GateCost,
    GateList,
    PathList,
    build_graph,
    build_path_list,
    code_distance,
    emit_circuit,
    format_circuit,
    gate_cost,
    greedy_decode,
    min_length_decode,
    simulate_circuit,
    simulate_circuit_batch,
    write_circuit,
)
from .dqi import (
    DickeWeights,
    DqiEstimate,
    FailureProfile,
    default_degree,
    dicke_weights,
    failure_profile_exact,
    failure_profile_mc,
    p_approx,
    p_exact,
    p_opt_approx,
    p_opt_exact,
    shell_sum_A,
)
from .encoding import (
    ReductionRecord,
    XorsatInstance,
    encode_icc,
    encode_non_icc,
    lift_solution,
    non_icc_distance_bound,
    read_xorsat,
    reduce_instance,
    satisfied_count,
    syndrome,
    write_xorsat,
)
from .errors import CapacityError, ParseError, ValidationError
from .instances import (
    BpspInstance,
    Coloring,
    generate_instance,
    paint_swaps,
    read_instance,
    write_instance,
)

__version__ = "0.1.0"
