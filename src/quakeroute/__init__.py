"""Earthquake evacuation routing lab.

Simulates quake-perturbed city graphs, labels them with node-wise Dijkstra,
trains a hybrid classical/quantum FiLM next-node classifier on a built-in
statevector simulator, and runs circuit diagnostics (Fourier expressivity,
Fisher information, OpenQASM 3 export).
"""

from .dyngraph import (
    CityGraph, DynamicState, GraphError, Scenario, advance, damage_radius,
    exit_radius, initial_state, load_graph, load_scenario, pick_exits,
    random_scenario, random_scenarios, save_graph, save_scenario, synth_city,
)
from .oracle import (
    NoPathError, Path, arrival_rate, better_or_equal_rate, dijkstra,
    edge_betweenness, nodewise_dijkstra, path_accuracy,
)
from .features import (
    Dataset, build_feature_vector, generate_dataset, load_sample,
)
from .qsim import (
    BindingError, Circuit, CircuitError, CNot, ModelConfig, ModelKernel, Rot,
    build_model_circuit, expectation_z, export_qasm3, param_shift_grad,
    prob_grad, probabilities, run, sample_bitstrings,
)
from .neural import (
    AdamState, ClassicalFilmNet, adam_step, cross_entropy, lr_schedule,
)
from .hybrid import (
    EvalReport, HybridModel, PathRecord, TrainConfig, evaluate, hybrid_forward,
    quantum_share, rollout, train,
)
from .analysis import (
    FisherResult, FourierSamples, MiniConfig, SpectrumReport, block_ratio,
    build_mini_circuit, fisher_matrix, fisher_spectrum, sample_fourier,
    write_spectrum_csv, write_violin_csv,
)

__version__ = "0.1.0"
