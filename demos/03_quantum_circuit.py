#!/usr/bin/env python3
"""Poke at the seven-qubit circuit: forward pass, gradients, QASM export.

The circuit splits into a two-qubit section that re-uploads the epicenter
coordinates five times and a five-qubit section that encodes the remaining 34
features in seven Z-rotation subvectors, joined by a CNOT bridge and a final
entangler before Z measurements.
"""
import pathlib

import numpy as np

import quakeroute.qsim as qs

out = pathlib.Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)

config = qs.ModelConfig()
print(f"{config.n_qubits} qubits, {config.n_params} trainable angles "
      f"({config.n_film_params} epicenter section + {config.n_main_params} "
      f"main + {config.n_final_params} final entangler)")

rng = np.random.default_rng(0)
params = rng.uniform(-np.pi, np.pi, config.n_params)
features = rng.uniform(0, 1, 34)
epi = rng.uniform(0, 1, 2)

# the batched training kernel, derived from the circuit's gate list
kernel = qs.ModelKernel()
expectations = kernel.expectations(params, features, epi)[0]
print("Z expectations of the five main qubits:", expectations.round(4))

# exact two-term parameter-shift gradient of one angle
circuit = qs.build_model_circuit(config)
bound = np.concatenate([features, epi])
g0 = qs.param_shift_grad(circuit, params, bound, index=0)
print("d<Z>/d(theta_0) by parameter shift:", g0.round(5))

h = 1e-4
pp, pm = params.copy(), params.copy()
pp[0] += h
pm[0] -= h
fd = (kernel.expectations(pp, features, epi) - kernel.expectations(pm, features, epi))[0] / (2 * h)
print("same by central differences:      ", fd.round(5))

# shot-sampled estimates converge to the analytic values
state = qs.run(circuit, params, bound)
bits = qs.sample_bitstrings(state, 100_000, rng, qubits=circuit.measured)
print("100k-shot estimates:              ",
      (1 - 2 * bits.mean(axis=0)).round(3))

# the generic per-gate engine on the whole circuit gives the same numbers
generic = qs.measured_expectations(circuit, state)
print("generic-engine forward agrees to", np.abs(generic - expectations).max())

text = qs.export_qasm3(circuit, params, bound)
(out / "circuit.qasm").write_text(text)
census = circuit.census()
print(f"exported OpenQASM 3: {census} -> {out / 'circuit.qasm'} "
      f"({len(text.splitlines())} lines)")
