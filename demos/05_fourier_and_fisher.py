#!/usr/bin/env python3
"""Diagnostics on the three-qubit mini circuit: Fourier spectrum and Fisher
information. The Fourier tables read only qubit 0, which no gate on the main
qubit reaches, so they simulate the two-qubit epicenter section alone. The
Fisher study splits the circuit at its bridge CNOTs, where the distribution
factorizes: the two-qubit section once, and the main qubit alone at each
parity of the section's outcome.

Each coordinate reupload adds one harmonic to the circuit output, so K
reuploads give a degree-K spectrum. The Fisher information of the basis-state
distribution shows how many parameter directions actually carry signal, and
how that degrades as entangler sublayers stack.
"""
import pathlib

import numpy as np

import quakeroute.analysis as an

out = pathlib.Path(__file__).resolve().parent / "out"
out.mkdir(exist_ok=True)
rng = np.random.default_rng(0)

# --- Fourier expressivity ----------------------------------------------------
config = an.MiniConfig(sublayers=1, reuploads=2)
samples = an.sample_fourier(config, 300, rng)
an.write_violin_csv(samples, out / "violin.csv")
mag = np.abs(samples.coeffs)
print("mean |c| per frequency pair (rows omega_x, cols omega_y):")
print(np.array2string(mag.mean(axis=0), precision=3, suppress_small=True))
k = config.reuploads
print(f"c00 spans [{samples.coeffs[:, k, k].real.min():+.2f}, "
      f"{samples.coeffs[:, k, k].real.max():+.2f}]")

# --- Fisher information ------------------------------------------------------
print("\nrank of the averaged Fisher matrix vs parameter count:")
fractions = []
for n in (1, 2):
    for kk in (1, 2, 3):
        cfg = an.MiniConfig(sublayers=n, reuploads=kk)
        result = an.fisher_matrix(cfg, n_x=20, n_theta=20, rng=rng)
        report = an.fisher_spectrum(result.matrix)
        fractions.append(report.near_zero_fraction)
        print(f"  N={n} K={kk}: rank {report.rank:2d} of {cfg.n_film_params:2d}, "
              f"near-zero fraction {report.near_zero_fraction:.2f}")
print("stacked sublayers (N=2) leave dead parameter directions; "
      "single sublayers stay full rank")

# block coupling between the two sections of the circuit: zero, as the
# distribution factorizes at the bridge, P(a, b) q_{a xor b}(c), and each q sums to 1
cfg = an.MiniConfig(sublayers=1, reuploads=3)
full = an.fisher_matrix(cfg, n_x=20, n_theta=20, rng=rng, include_main=True)
ratio = an.block_ratio(full.matrix, cfg.n_film_params)
print(f"\ncross-block coupling of the full mini circuit: {ratio:.4f} "
      "(0: the distribution factorizes at the bridge, so the sections decouple)")
report = an.fisher_spectrum(full.matrix)
an.write_spectrum_csv(report, out / "fisher.csv")
print(f"wrote {out / 'violin.csv'} and {out / 'fisher.csv'}")
