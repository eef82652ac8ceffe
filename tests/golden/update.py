"""Golden outputs of a fixed-seed CLI pipeline on a 6x6 city and a lattice.

``pipeline(workdir)`` runs graph synth, env simulate, dataset generate,
train, eval and analyze fourier|fisher through ``quakeroute.cli.run`` and
returns what ``tests/golden/smoke.json`` holds: the sha256 of every file
they write, and for the checkpoint a summary per parameter group (sum, norm
and the first values), because the kernel's arithmetic may move it in the
last bits. ``tests/test_golden.py`` compares a fresh run against the file.

Run ``PYTHONPATH=src python tests/golden/update.py`` to rewrite the file,
only when a change is meant to alter outputs, and say why in CHANGES.md.
With ``--check`` it writes nothing: it prints each entry of the file that a
fresh run does not reproduce (a digest by its file name, a checkpoint value
beyond ``RTOL`` with its old and new values and their relative difference),
counts on one line the checkpoint values that moved within ``RTOL``, and
exits 1 if an entry is not reproduced. The test holds a run to the same rule.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import sys
import tempfile
from pathlib import Path

import numpy as np

from quakeroute.cli import run

GOLDEN = Path(__file__).with_name("smoke.json")
FIRST_VALUES = 3
# a checkpoint value may move this far, relative: the BLAS thread count moves its last bits
RTOL = 1e-9
# env simulate runs past this scenario's budget of 32 steps
SCENARIO = {"epicenter": [0.4, 0.6], "start": 14, "exits": [0, 35],
            "chosen_exit": 35, "rng_seed": 1, "max_steps": 32}
# a 5x5 lattice of equal edges, so that equal-cost routes tie without noise
LATTICE = {"nodes": [{"id": 5 * r + c, "x": r / 4, "y": c / 4}
                     for r in range(5) for c in range(5)],
           "edges": [{"u": u, "v": v, "length_m": 500.0, "speed_kmh": 40.0}
                     for r in range(5) for c in range(5) for u, v in
                     ((5 * r + c, 5 * r + c + 1), (5 * r + c, 5 * r + c + 5))
                     if v < 25 and (v == u + 5 or c < 4)]}
FILES = ("city.json", "weights.csv", "data.jsonl", "ties.jsonl", "report.json",
         "report.paths.csv", "fourier.csv", "fisher.csv")


def pipeline(workdir: str | Path) -> dict:
    """Run the pipeline in ``workdir``; digests of its files and a checkpoint summary."""
    w = Path(workdir)
    (w / "scenario.json").write_text(json.dumps(SCENARIO))
    (w / "lattice.json").write_text(json.dumps(LATTICE))
    commands = [
        "graph synth --rows 6 --cols 6 --seed 7 --out {w}/city.json",
        "env simulate --graph {w}/city.json --scenario {w}/scenario.json "
        "--steps 40 --out {w}/weights.csv",
        "dataset generate --graph {w}/city.json --n 30 --seed 11 --out {w}/data.jsonl",
        "dataset generate --graph {w}/lattice.json --n 20 --seed 5 --sigma-frac 0 "
        "--out {w}/ties.jsonl",
        "train --data {w}/data.jsonl --epochs 2 --batch-size 64 --seed 0 "
        "--out {w}/ckpt.json",
        "eval --ckpt {w}/ckpt.json --graph {w}/city.json --scenarios 10 --seed 123 "
        "--out {w}/report.json",
        "analyze fourier --N 1 --K 2 --samples 20 --seed 3 --out {w}/fourier.csv",
        "analyze fisher --N 1 --K 1 --nx 5 --ntheta 4 --full --seed 3 "
        "--out {w}/fisher.csv",
    ]
    for command in commands:
        if run([arg.format(w=w) for arg in command.split()]) != 0:
            raise RuntimeError(f"quakeroute {command} failed")
    params = json.loads((w / "ckpt.json").read_text())["params"]
    checkpoint = {}
    for key, entry in params.items():
        data = np.asarray(entry["data"])
        checkpoint[key] = {"sum": float(data.sum()), "norm": float(np.linalg.norm(data)),
                           "first": data[:FIRST_VALUES].tolist()}
    return {"sha256": {name: hashlib.sha256((w / name).read_bytes()).hexdigest()
                       for name in FILES},
            "checkpoint": checkpoint}


def differences(old: dict, new: dict) -> tuple[list[str], int]:
    """One line per entry of ``old`` that ``new`` does not reproduce (a checkpoint
    value to within ``RTOL``), and the number of checkpoint values that moved within it."""
    lines = [f"sha256 {name}" for name, digest in old["sha256"].items()
             if new["sha256"].get(name) != digest]
    moved = 0
    for key, summary in old["checkpoint"].items():
        for field, value in summary.items():
            got = new["checkpoint"].get(key, {}).get(field)
            entries = ([(f"{field}[{i}]", a, b) for i, (a, b)
                        in enumerate(itertools.zip_longest(value, got or []))]
                       if isinstance(value, list) else [(field, value, got)])
            for name, a, b in entries:
                if a != b:
                    rel = abs(b - a) / abs(a) if a and b is not None else math.inf
                    if rel <= RTOL:
                        moved += 1
                    else:
                        lines.append(f"checkpoint {key}.{name}: {a!r} -> {b!r} "
                                     f"(relative {rel:.3g})")
    return lines, moved


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--check", action="store_true",
                        help="print what a fresh run changes; write nothing")
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory() as workdir:
        doc = pipeline(workdir)
    if args.check:
        failures, moved = differences(json.loads(GOLDEN.read_text()), doc)
        within = [f"{moved} checkpoint values moved within relative {RTOL:g}"] if moved else []
        print("\n".join(failures + within) or "golden outputs reproduced exactly")
        return 1 if failures else 0
    GOLDEN.write_text(json.dumps(doc, indent=1) + "\n")
    print(f"golden outputs -> {GOLDEN}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
