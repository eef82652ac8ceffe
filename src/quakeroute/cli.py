"""Command-line entry point for the whole pipeline.

Subcommands: graph synth, env simulate, dataset generate, train, eval,
analyze fourier|fisher, export-qasm. Exit codes: 0 success, 1 domain error,
2 usage error. The QRL_SEED environment variable overrides any configured
seed; a JSON --config file may set every option of the subcommand, required
ones included, and the command line wins over it. Required options are
checked after the file is merged.
"""
from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from pathlib import Path as FilePath

import numpy as np

from . import analysis, dyngraph, features, hybrid, qsim

# every bad-input error of the package is a ValueError; anything else is a bug
_DOMAIN_ERRORS = (ValueError, OSError)


def _config_defaults(args: argparse.Namespace, doc) -> dict:
    """The subcommand's option values in ``doc``, the JSON of config file ``args.config``.

    A flag takes a JSON boolean. Any other value goes through its option's
    argparse type, as if it had been typed on the command line; one that does
    not convert raises ValueError. A key may name an option of another
    subcommand, since one file may serve several, but a key that no
    subcommand defines raises ValueError.
    """
    if not isinstance(doc, dict):
        raise ValueError(f"a config file holds one JSON object, not a {type(doc).__name__}")
    actions = {action.dest: action for action in args.parser._actions}
    values = {}
    for key, value in doc.items():
        attr = key.replace("-", "_")
        if attr not in args.options:
            raise ValueError(f"{key} is not an option of any subcommand")
        action = actions.get(attr)
        if action is None or value is None:
            continue
        flag = action.nargs == 0
        convert = bool if flag else action.type or str
        try:
            if type(value) not in ((bool,) if flag else (str, int, float)):
                raise ValueError(type(value).__name__)
            values[attr] = value if flag else convert(str(value))
        except ValueError:
            raise ValueError(f"{key} = {json.dumps(value)} is not a valid "
                             f"{convert.__name__} option value") from None
    return values


def _resolve_seed(args: argparse.Namespace) -> int:
    """QRL_SEED if it is set, else --seed: a non-negative integer, or a ValueError
    that names where the bad value came from."""
    env = os.environ.get("QRL_SEED")
    source, value = ("--seed", args.seed) if env is None else ("QRL_SEED", env)
    if value is None:
        raise ValueError("a seed is required (pass --seed, set it in --config, "
                         "or export QRL_SEED)")
    if not str(value).strip().isdecimal():
        raise ValueError(f"{source} is {value!r}, not a non-negative integer")
    return int(value)


# ---------------------------------------------------------------------------
# Handlers


def _cmd_graph_synth(args) -> int:
    graph = dyngraph.synth_city(args.rows, args.cols, args.seed,
                                span_m=args.span_m, delete_frac=args.delete_frac)
    dyngraph.save_graph(graph, args.out)
    print(f"graph: {graph.n_nodes} nodes, {graph.n_edges} edges -> {args.out}")
    return 0


def _cmd_env_simulate(args) -> int:
    graph = dyngraph.load_graph(args.graph)
    scenario = dyngraph.load_scenario(args.scenario, graph)
    if args.steps < 0:
        raise ValueError(f"--steps must be at least 0, got {args.steps}")
    state = dyngraph.initial_state(graph, [scenario], sigma_frac=args.sigma_frac)
    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t", "u", "v", "weight"])

        def snapshot():
            for (u, v), w in zip(graph.edges, state.weights[0]):
                writer.writerow([state.t, int(u), int(v), repr(float(w))])

        snapshot()
        for _ in range(args.steps):
            dyngraph.advance(state)
            snapshot()
    print(f"env: {args.steps} steps over {graph.n_edges} edges -> {args.out}")
    return 0


def _cmd_dataset_generate(args) -> int:
    graph = dyngraph.load_graph(args.graph)
    dataset = features.generate_dataset(graph, args.n, args.seed, sigma_frac=args.sigma_frac)
    dataset.save_jsonl(args.out)
    n_scen = len(np.unique(dataset.scenario_ids()))
    print(f"dataset: {len(dataset)} samples from {n_scen} scenarios -> {args.out}")
    return 0


def _cmd_train(args) -> int:
    dataset = features.Dataset.load_jsonl(args.data)
    config = hybrid.TrainConfig(epochs=args.epochs, batch_size=args.batch_size,
                                seed=args.seed, classical_only=args.classical_only)
    model, history = hybrid.train(dataset, config)
    model.save(args.out)
    if args.history_out:
        FilePath(args.history_out).write_text(json.dumps(history, indent=1) + "\n")
    last = history[-1]
    print(f"train: {config.epochs} epochs, final train loss "
          f"{last['train_loss']:.4f}, val agreement "
          f"{last.get('val_agreement', float('nan')):.3f} -> {args.out}")
    return 0


def _cmd_eval(args) -> int:
    model = hybrid.HybridModel.load(args.ckpt)
    graph = dyngraph.load_graph(args.graph)
    report = hybrid.evaluate(model, graph, args.scenarios, args.seed,
                             sigma_frac=args.sigma_frac)
    report.save_json(args.out)
    csv_path = args.csv or str(FilePath(args.out).with_suffix(".paths.csv"))
    report.save_csv(csv_path)
    print(f"eval: arrival {report.arrival_rate:.3f}, accuracy "
          f"{report.mean_accuracy:.3f}, better-or-equal "
          f"{report.better_or_equal_rate:.3f}, quantum share "
          f"{report.quantum_share:.3f} -> {args.out}")
    return 0


def _cmd_analyze_fourier(args) -> int:
    config = analysis.MiniConfig(sublayers=args.N, reuploads=args.K)
    samples = analysis.sample_fourier(config, args.samples, np.random.default_rng(args.seed),
                                      grid_points=args.grid)
    analysis.write_violin_csv(samples, args.out)
    print(f"fourier: {args.samples} draws, degree {config.reuploads} "
          f"spectrum -> {args.out}")
    return 0


def _cmd_analyze_fisher(args) -> int:
    config = analysis.MiniConfig(sublayers=args.N, reuploads=args.K)
    result = analysis.fisher_matrix(config, n_x=args.nx, n_theta=args.ntheta,
                                    rng=np.random.default_rng(args.seed), include_main=args.full)
    report = analysis.fisher_spectrum(result.matrix)
    analysis.write_spectrum_csv(report, args.out)
    line = (f"fisher: rank {report.rank} of {result.n_params}, near-zero "
            f"fraction {report.near_zero_fraction:.3f}, probability-floor clamps "
            f"{result.clamped}")
    if args.full:
        ratio = analysis.block_ratio(result.matrix, config.n_film_params)
        line += f", block coupling {ratio:.4f}"
    print(line + f" -> {args.out}")
    return 0


def _cmd_export_qasm(args) -> int:
    model = hybrid.HybridModel.load(args.params)
    if model.classical_only:
        raise ValueError(f"{args.params}: a classical-only checkpoint, whose quantum "
                         "parameters were never trained")
    main, epi = hybrid.HybridModel.split_inputs(features.load_sample(args.input))
    circuit = qsim.build_model_circuit(model.model_config)
    text = qsim.export_qasm3(circuit, model.quantum_params, np.concatenate([main[0], epi[0]]))
    FilePath(args.out).write_text(text)
    census = circuit.census()
    print(f"qasm: {sum(census.values())} gate statements "
          f"({census}) in {len(text.splitlines())} lines -> {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quakeroute",
        description="Earthquake evacuation routing lab: graphs, oracle "
                    "datasets, hybrid training and circuit diagnostics.")
    sub = parser.add_subparsers(dest="command", required=True)

    leaves = []

    def common(p, seeded: bool):
        p.add_argument("--config", help="JSON file of option values")
        if seeded:
            p.add_argument("--seed", type=int, default=None)
        p.set_defaults(parser=p)  # the config file reads the option types from it
        leaves.append(p)

    g = sub.add_parser("graph", help="synthetic city graphs")
    gsub = g.add_subparsers(dest="action", required=True)
    gs = gsub.add_parser("synth", help="generate a random city")
    common(gs, seeded=True)
    gs.add_argument("--rows", type=int, required=True)
    gs.add_argument("--cols", type=int, required=True)
    gs.add_argument("--out", required=True)
    gs.add_argument("--span-m", type=float, default=2000.0)
    gs.add_argument("--delete-frac", type=float, default=0.15)
    gs.set_defaults(func=_cmd_graph_synth)

    e = sub.add_parser("env", help="environment simulation")
    esub = e.add_subparsers(dest="action", required=True)
    es = esub.add_parser("simulate", help="dump a weight trajectory as CSV")
    common(es, seeded=False)
    es.add_argument("--graph", required=True)
    es.add_argument("--scenario", required=True)
    es.add_argument("--steps", type=int, required=True)
    es.add_argument("--out", required=True)
    es.add_argument("--sigma-frac", type=float, default=0.1)
    es.set_defaults(func=_cmd_env_simulate)

    d = sub.add_parser("dataset", help="oracle-labeled datasets")
    dsub = d.add_subparsers(dest="action", required=True)
    dg = dsub.add_parser("generate")
    common(dg, seeded=True)
    dg.add_argument("--graph", required=True)
    dg.add_argument("--n", type=int, required=True)
    dg.add_argument("--out", required=True)
    dg.add_argument("--sigma-frac", type=float, default=0.1)
    dg.set_defaults(func=_cmd_dataset_generate)

    t = sub.add_parser("train", help="train the hybrid (or classical-only) model")
    common(t, seeded=True)
    t.add_argument("--data", required=True)
    t.add_argument("--out", required=True)
    t.add_argument("--epochs", type=int, default=hybrid.TrainConfig.epochs)
    t.add_argument("--batch-size", type=int, default=hybrid.TrainConfig.batch_size)
    t.add_argument("--classical-only", action="store_true")
    t.add_argument("--history-out", default=None)
    t.set_defaults(func=_cmd_train)

    ev = sub.add_parser("eval", help="rollout evaluation against the oracle")
    common(ev, seeded=True)
    ev.add_argument("--ckpt", required=True)
    ev.add_argument("--graph", required=True)
    ev.add_argument("--scenarios", type=int, required=True)
    ev.add_argument("--out", required=True)
    ev.add_argument("--csv", default=None,
                    help="per-path records CSV (default: <out>.paths.csv)")
    ev.add_argument("--sigma-frac", type=float, default=0.1)
    ev.set_defaults(func=_cmd_eval)

    a = sub.add_parser("analyze", help="mini-circuit diagnostics")
    asub = a.add_subparsers(dest="action", required=True)
    af = asub.add_parser("fourier")
    common(af, seeded=True)
    af.add_argument("--N", type=int, required=True, help="entangler sublayers")
    af.add_argument("--K", type=int, required=True, help="coordinate reuploads")
    af.add_argument("--samples", type=int, default=1000)
    af.add_argument("--grid", type=int, default=None)
    af.add_argument("--out", required=True)
    af.set_defaults(func=_cmd_analyze_fourier)
    afi = asub.add_parser("fisher")
    common(afi, seeded=True)
    afi.add_argument("--N", type=int, required=True)
    afi.add_argument("--K", type=int, required=True)
    afi.add_argument("--nx", type=int, default=20)
    afi.add_argument("--ntheta", type=int, default=20)
    afi.add_argument("--full", action="store_true",
                     help="include the main-qubit parameters")
    afi.add_argument("--out", required=True)
    afi.set_defaults(func=_cmd_analyze_fisher)

    x = sub.add_parser("export-qasm", help="bind a sample and emit OpenQASM 3")
    common(x, seeded=False)
    x.add_argument("--params", required=True, help="checkpoint JSON")
    x.add_argument("--input", required=True, help="sample JSON to bind")
    x.add_argument("--out", required=True)
    x.set_defaults(func=_cmd_export_qasm)

    # every subcommand's option names, which a config file may use
    parser.set_defaults(options={a.dest for p in leaves for a in p._actions} - {"help"})
    # a config file may set required options too, so run() checks them after
    # merging it; usage lines show them in brackets, as optional on the command line
    for p in leaves:
        p.set_defaults(required=[a for a in p._actions if a.required])
        for action in p._actions:
            action.required = False
    return parser


def _check_required(args: argparse.Namespace) -> None:
    """Exit 2 with argparse's message if a required option is still unset."""
    missing = [a for a in args.required if getattr(args, a.dest) is None]
    if missing:
        args.parser.error("the following arguments are required: "
                          + ", ".join("/".join(a.option_strings) for a in missing))


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if args.config:
            args.parser.set_defaults(**dyngraph.read_json(
                args.config, None, lambda doc: _config_defaults(args, doc)))
            args = parser.parse_args(argv)
        _check_required(args)
        if "seed" in args:  # the seeded subcommands, before any input file is read
            args.seed = _resolve_seed(args)
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    except FileNotFoundError as exc:
        print(f"error: missing file: {exc.filename or exc}", file=sys.stderr)
        return 1
    except _DOMAIN_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def console() -> None:
    sys.exit(run())
