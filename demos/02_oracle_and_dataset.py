#!/usr/bin/env python3
"""Label scenarios with the node-wise shortest-path oracle.

Shows oracle rollouts (the oracle replans its shortest path at every node as
the map shifts under it; a list of scenarios steps together in one world),
then generates a training corpus and inspects it.
"""
import pathlib

import numpy as np

import quakeroute as qr

out = pathlib.Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)

graph = qr.synth_city(8, 8, seed=7)
rng = np.random.default_rng(1)
scenarios = [qr.random_scenario(graph, rng) for _ in range(4)]
scenario = scenarios[0]

# --- oracle rollouts, all scenarios in one world ------------------------------
paths = qr.nodewise_dijkstra(graph, scenarios, sigma_frac=0.1)
path = paths[0]
print(f"oracle path {scenario.start} -> {scenario.chosen_exit}: "
      f"{path.nodes} ({path.total_cost:.2f} min, reached={path.reached})")
print(f"steps of all {len(paths)} rollouts: {[len(p) - 1 for p in paths]}")

# what a static planner (frozen initial weights) would have done
state = qr.initial_state(graph, [scenario], sigma_frac=0.1)
frozen = qr.dijkstra(graph, state.weights[0], scenario.start, scenario.chosen_exit)
print(f"static plan on the post-quake snapshot: {frozen.nodes} "
      f"({frozen.total_cost:.2f} min before any traffic builds)")

# --- a labeled corpus --------------------------------------------------------
dataset = qr.generate_dataset(graph, 50, seed=11)
dataset.save_jsonl(out / "dataset.jsonl")
labels = dataset.labels()
print(f"dataset: {len(dataset)} samples, label histogram "
      f"{np.bincount(labels, minlength=5).tolist()}")

vec = dataset.feature_matrix()[0]
print("first sample head: epicenter", vec[:2].round(3),
      "current", vec[2:4].round(3), "dest", vec[4:6].round(3))
train, val = dataset.split(val_fraction=0.1, seed=0)
print(f"split by scenario: {len(train)} train / {len(val)} val samples")
print(f"wrote {out / 'dataset.jsonl'}")
