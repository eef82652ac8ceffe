#!/usr/bin/env python3
"""Build a synthetic city and watch the quake and exit traffic reshape it.

Walks through the environment layer: a random grid-with-diagonals city in the
unit square, an earthquake epicenter with an initial static hit (a world is
made already hit), and the two ongoing growth mechanisms (damage circle, exit
traffic circles). Dumps the weight trajectory to out/weights.csv.
"""
import pathlib

import numpy as np

import quakeroute as qr

out = pathlib.Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)

# --- a city ----------------------------------------------------------------
graph = qr.synth_city(8, 8, seed=7)
print(f"city: {graph.n_nodes} nodes, {graph.n_edges} edges")
print(f"exits picked near the map border: {qr.pick_exits(graph)}")
qr.save_graph(graph, out / "city.json")

# --- one scenario ----------------------------------------------------------
rng = np.random.default_rng(0)
scenario = qr.random_scenario(graph, rng)
print(f"epicenter {np.round(scenario.epicenter, 3)}, start {scenario.start}, "
      f"chosen exit {scenario.chosen_exit}")
qr.save_scenario(scenario, out / "scenario.json")

# the hit alone: a noise-free world against the nominal travel times
calm = qr.initial_state(graph, [scenario], sigma_frac=0.0)
hit = calm.weights[0] / graph.nominal_minutes()
print(f"initial hit: {np.sum(hit > 1)} of {graph.n_edges} edges slowed, "
      f"max factor x{hit.max():.1f}")

# a world of one scenario row; state.weights[0] is that row's edge weights
state = qr.initial_state(graph, [scenario], sigma_frac=0.1)
base = state.weights[0].copy()

# --- evolve and dump -------------------------------------------------------
rows = ["t,u,v,weight"]
for _ in range(40):
    qr.advance(state)
    for (u, v), w in zip(graph.edges, state.weights[0]):
        rows.append(f"{state.t},{u},{v},{w!r}")
(out / "weights.csv").write_text("\n".join(rows) + "\n")

growth = state.weights[0] / base
print(f"after {state.t} steps: median slowdown since the hit x{np.median(growth):.2f}, "
      f"max x{growth.max():.2f}")
print(f"damage radius grew to {qr.damage_radius(state.t):.3f}, "
      f"traffic circles to {qr.exit_radius(state.t):.3f}")
print(f"wrote {out / 'weights.csv'}")
