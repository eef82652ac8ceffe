import json

import numpy as np
import pytest

import quakeroute.dyngraph as dg
import quakeroute.features as ft
import quakeroute.hybrid as hy
import quakeroute.qsim as qs
from quakeroute.cli import run
from helpers import sorted_adjacency


def test_no_arguments_is_usage_error(capsys):
    assert run([]) == 2
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error():
    assert run(["graph", "synth", "--bogus", "1"]) == 2
    # no subcommand takes --jobs
    assert run(["dataset", "generate", "--graph", "g.json", "--n", "2", "--seed", "0",
                "--out", "d.jsonl", "--jobs", "2"]) == 2
    assert run(["train", "--data", "d.jsonl", "--seed", "0", "--out", "m.json",
                "--jobs", "2"]) == 2
    assert run(["eval", "--ckpt", "m.json", "--graph", "g.json", "--scenarios",
                "2", "--seed", "0", "--out", "r.json", "--jobs", "2"]) == 2
    # only the subcommands that draw random numbers take --seed
    assert run(["env", "simulate", "--graph", "g.json", "--scenario", "s.json",
                "--steps", "2", "--out", "w.csv", "--seed", "1"]) == 2
    assert run(["export-qasm", "--params", "m.json", "--input", "x.json",
                "--out", "q.qasm", "--seed", "1"]) == 2


def test_graph_synth_roundtrip(tmp_path):
    out = tmp_path / "g.json"
    assert run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "7",
                "--out", str(out)]) == 0
    g = dg.load_graph(out)
    assert g.n_nodes == 16
    assert max(g.degree(i) for i in range(g.n_nodes)) <= 5
    doc = json.loads(out.read_text())
    assert set(doc) == {"nodes", "edges"}
    assert set(doc["nodes"][0]) == {"id", "x", "y"}
    assert set(doc["edges"][0]) == {"u", "v", "length_m", "speed_kmh"}


def test_graph_synth_requires_seed(tmp_path):
    code = run(["graph", "synth", "--rows", "4", "--cols", "4",
                "--out", str(tmp_path / "g.json")])
    assert code == 1


@pytest.mark.parametrize("env, seed, message", [
    ("abc", "1", "QRL_SEED is 'abc'"),
    ("-3", "1", "QRL_SEED is '-3'"),
    ("1.5", "1", "QRL_SEED is '1.5'"),
    (None, "-1", "--seed is -1"),
])
def test_bad_seed_names_its_source(tmp_path, capsys, monkeypatch, env, seed, message):
    if env is None:
        monkeypatch.delenv("QRL_SEED", raising=False)
    else:
        monkeypatch.setenv("QRL_SEED", env)
    out = tmp_path / "g.json"
    assert run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", seed,
                "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: {message}, not a non-negative integer\n"
    assert not out.exists()


@pytest.mark.parametrize("frac", ["nan", "-0.5", "2"])
def test_graph_synth_rejects_delete_frac_outside_unit_interval(tmp_path, capsys, frac):
    out = tmp_path / "g.json"
    assert run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
                "--delete-frac", frac, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: delete_frac must be in [0, 1]")
    assert not out.exists()


@pytest.mark.parametrize("span", ["0", "-5", "nan", "inf"])
def test_graph_synth_rejects_a_span_that_is_not_finite_and_positive(tmp_path, capsys, span):
    out = tmp_path / "g.json"
    assert run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
                "--span-m", span, "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith("error: span_m must be finite and positive")
    assert not out.exists()


def test_qrl_seed_env_override(tmp_path, monkeypatch):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    monkeypatch.setenv("QRL_SEED", "7")
    assert run(["graph", "synth", "--rows", "4", "--cols", "4",
                "--seed", "999", "--out", str(a)]) == 0
    monkeypatch.delenv("QRL_SEED")
    assert run(["graph", "synth", "--rows", "4", "--cols", "4",
                "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_config_file_fills_options(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 7}))
    out = tmp_path / "g.json"
    assert run(["graph", "synth", "--rows", "3", "--cols", "3",
                "--config", str(cfg), "--out", str(out)]) == 0
    assert out.exists()


def test_config_values_take_the_option_types(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
         "--out", str(gpath)])
    data = tmp_path / "d.jsonl"
    run(["dataset", "generate", "--graph", str(gpath), "--n", "2", "--seed", "1",
         "--out", str(data)])
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"epochs": "2", "batch-size": 64, "seed": "0",
                               "classical-only": True}))
    history = tmp_path / "h.json"
    assert run(["train", "--data", str(data), "--config", str(cfg),
                "--out", str(tmp_path / "m.json"), "--history-out", str(history)]) == 0
    assert len(json.loads(history.read_text())) == 2
    assert json.loads((tmp_path / "m.json").read_text())["classical_only"] is True
    capsys.readouterr()
    for doc, message in (({"epochs": "two"}, "epochs"), ({"epochs": 2.5}, "epochs"),
                         ({"epochs": True}, "epochs"), ([{"epochs": 2}], "list"),
                         ({"classical-only": "true"}, "classical-only")):
        cfg.write_text(json.dumps(doc))
        code = run(["train", "--data", str(data), "--config", str(cfg), "--seed", "0",
                    "--out", str(tmp_path / "m.json")])
        assert code == 1
        assert message in capsys.readouterr().err


def test_config_sets_options_that_have_a_default(tmp_path):
    gpath, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3", "--out", str(gpath)])
    cfg.write_text(json.dumps({"sigma-frac": 5.0}))
    data = {}
    for name, extra in (("flag", ["--sigma-frac", "5.0"]), ("config", ["--config", str(cfg)]),
                        ("default", []),
                        ("both", ["--config", str(cfg), "--sigma-frac", "0.1"])):
        out = tmp_path / f"{name}.jsonl"
        assert run(["dataset", "generate", "--graph", str(gpath), "--n", "5", "--seed", "11",
                    "--out", str(out), *extra]) == 0
        data[name] = out.read_bytes()
    assert data["config"] == data["flag"] != data["default"]
    assert data["both"] == data["default"]  # the command line wins over the file


def test_config_sets_required_options(tmp_path):
    gpath, cfg = tmp_path / "g.json", tmp_path / "cfg.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3", "--out", str(gpath)])
    flag, config, wins = (tmp_path / f"{name}.jsonl" for name in ("flag", "config", "wins"))
    assert run(["dataset", "generate", "--graph", str(gpath), "--n", "5", "--seed", "11",
                "--out", str(flag)]) == 0
    cfg.write_text(json.dumps({"graph": str(gpath), "n": 5, "seed": 11, "out": str(config)}))
    assert run(["dataset", "generate", "--config", str(cfg)]) == 0
    assert config.read_bytes() == flag.read_bytes()
    config.unlink()
    # the command line wins over the file for required options too
    assert run(["dataset", "generate", "--config", str(cfg), "--out", str(wins)]) == 0
    assert wins.read_bytes() == flag.read_bytes() and not config.exists()


def test_required_option_missing_from_command_line_and_config(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"graph": "g.json", "seed": 11}))
    assert run(["dataset", "generate", "--config", str(cfg), "--n", "5"]) == 2
    err = capsys.readouterr().err
    assert "the following arguments are required: --out" in err
    assert "usage: quakeroute dataset generate" in err
    assert run(["dataset", "generate", "--graph", "g.json", "--seed", "11"]) == 2
    assert "the following arguments are required: --n, --out" in capsys.readouterr().err


def test_config_rejects_keys_that_no_subcommand_defines(tmp_path, capsys):
    cfg = tmp_path / "c.json"
    out = tmp_path / "g.json"
    synth = ["graph", "synth", "--rows", "3", "--cols", "3", "--config", str(cfg),
             "--out", str(out)]
    for doc, key in (({"sed": 7, "delete_fraction": 0.9}, "sed"),
                     ({"seed": 1, "jobs": 2}, "jobs")):
        cfg.write_text(json.dumps(doc))
        assert run(synth) == 1
        assert f"{key} is not an option of any subcommand" in capsys.readouterr().err
        assert not out.exists()
    # a key of another subcommand is allowed, since one file may serve several
    cfg.write_text(json.dumps({"seed": 1, "epochs": 3, "sigma-frac": 0.2}))
    assert run(synth) == 0 and out.exists()


def test_env_simulate(tmp_path):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3",
         "--out", str(gpath)])
    g = dg.load_graph(gpath)
    sc = dg.random_scenario(g, np.random.default_rng(0))
    spath = tmp_path / "s.json"
    dg.save_scenario(sc, spath)
    wpath = tmp_path / "weights.csv"
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"seed": 3}))  # a shared file may set other subcommands' seed
    assert run(["env", "simulate", "--graph", str(gpath), "--scenario",
                str(spath), "--steps", "5", "--out", str(wpath), "--config", str(cfg)]) == 0
    lines = wpath.read_text().strip().splitlines()
    assert lines[0] == "t,u,v,weight"
    assert len(lines) == 1 + 6 * g.n_edges  # snapshot at t=0 plus 5 steps


@pytest.mark.parametrize("exit_", [99, -1])
def test_env_simulate_rejects_exit_outside_graph(tmp_path, capsys, exit_):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3",
         "--out", str(gpath)])
    spath = tmp_path / "s.json"
    dg.save_scenario(dg.Scenario(epicenter=(0.5, 0.5), start=0, exits=(exit_,),
                                 chosen_exit=exit_, rng_seed=0, max_steps=10), spath)
    wpath = tmp_path / "weights.csv"
    assert run(["env", "simulate", "--graph", str(gpath), "--scenario",
                str(spath), "--steps", "5", "--out", str(wpath)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {spath}: ") and err.count(str(spath)) == 1
    assert "node indices 0-15" in err and str(gpath) not in err


@pytest.mark.parametrize("name, at, value, key", [
    ("graph", (), None, "is not a JSON object"),  # the graph document inside a JSON list
    ("graph", ("nodes", 1, "id"), 1.6, "nodes[1].id"),
    ("graph", ("edges", 0, "u"), 1.2, "edges[0].u"),
    ("graph", ("edges", 0, "speed_kmh"), None, "edges[0]"),  # None: the key is left out
    ("scenario", ("start",), 3.7, "start"),
    ("scenario", ("exits", 0), 0.9, "exits[0]"),
    ("scenario", ("rng_seed",), 1.5, "rng_seed"),
    ("scenario", ("rng_seed",), -1, "rng_seed"),
    ("scenario", ("max_steps",), 32.9, "max_steps"),
    ("scenario", ("max_steps",), 1e400, "max_steps"),
    ("graph", ("edges", 0, "v"), 0, "self-loops are not allowed"),  # edge 0 is (0, 4)
    ("scenario", ("chosen_exit",), 3, "chosen exit must be one of the exits"),
])
def test_env_simulate_rejects_malformed_files(tmp_path, capsys, name, at, value, key):
    """Graph and scenario files are checked at load: a value of the wrong kind,
    a wrong layout or a graph or scenario that its class rejects exits 1 naming
    the file once and the key, never runs on a truncated value and never shows
    a traceback."""
    paths = {"graph": tmp_path / "g.json", "scenario": tmp_path / "s.json"}
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3",
         "--out", str(paths["graph"])])
    dg.save_scenario(dg.Scenario(epicenter=(0.5, 0.5), start=5, exits=(0, 15), chosen_exit=15,
                                 rng_seed=1, max_steps=32), paths["scenario"])
    doc = json.loads(paths[name].read_text())
    if at:
        *outer, last = at
        record = doc
        for k in outer:
            record = record[k]
        if value is None:
            del record[last]
        else:
            record[last] = value
    else:
        doc = [doc]
    paths[name].write_text(json.dumps(doc))
    wpath = tmp_path / "w.csv"
    assert run(["env", "simulate", "--graph", str(paths["graph"]), "--scenario",
                str(paths["scenario"]), "--steps", "2", "--out", str(wpath)]) == 1
    err = capsys.readouterr().err
    assert err.count(str(paths[name])) == 1 and key in err
    assert not wpath.exists()


@pytest.mark.parametrize("name", ["graph", "scenario", "ckpt", "data", "sample", "config"])
def test_truncated_input_file_is_named(tmp_path, capsys, name):
    """Every input file goes through one reader: a JSON syntax error exits 1 and
    names the file (and, in a JSON-lines file, the line)."""
    paths = {key: tmp_path / f"{key}.json" for key in
             ("graph", "scenario", "ckpt", "data", "sample", "config")}
    graph = dg.synth_city(3, 3, seed=1)
    dg.save_graph(graph, paths["graph"])
    dg.save_scenario(dg.random_scenario(graph, np.random.default_rng(0)), paths["scenario"])
    hy.HybridModel(seed=0).save(paths["ckpt"])
    ft.generate_dataset(graph, 1, seed=0).save_jsonl(paths["data"])
    good_line = paths["data"].read_text().splitlines()[0]
    paths["sample"].write_text(good_line)
    paths["config"].write_text(json.dumps({"seed": 1}))
    truncated = '{"nodes": ['
    paths[name].write_text(good_line + "\n" + truncated if name == "data" else truncated)
    out = str(tmp_path / "out")
    argv = {"graph": ["env", "simulate", "--graph", paths["graph"], "--scenario",
                      paths["scenario"], "--steps", "1"],
            "scenario": ["env", "simulate", "--graph", paths["graph"], "--scenario",
                         paths["scenario"], "--steps", "1"],
            "ckpt": ["eval", "--ckpt", paths["ckpt"], "--graph", paths["graph"],
                     "--scenarios", "1", "--seed", "0"],
            "data": ["train", "--data", paths["data"], "--seed", "0"],
            "sample": ["export-qasm", "--params", paths["ckpt"], "--input", paths["sample"]],
            "config": ["graph", "synth", "--rows", "3", "--cols", "3",
                       "--config", paths["config"]]}[name]
    assert run([str(a) for a in argv] + ["--out", out]) == 1
    err = capsys.readouterr().err
    where = f"{paths[name]}, line 2: " if name == "data" else f"{paths[name]}: "
    assert err == f"error: {where}Expecting value: line 1 column 12 (char 11)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("name", ["graph", "data"])
def test_deeply_nested_input_file_is_named(tmp_path, capsys, name):
    """JSON nested too deeply to parse is a bad input like a syntax error: exit 1
    naming the file (and the line of a JSON-lines file), no traceback."""
    graph = dg.synth_city(3, 3, seed=1)
    paths = {"graph": tmp_path / "graph.json", "scenario": tmp_path / "scenario.json",
             "data": tmp_path / "data.jsonl"}
    dg.save_graph(graph, paths["graph"])
    dg.save_scenario(dg.random_scenario(graph, np.random.default_rng(0)), paths["scenario"])
    ft.generate_dataset(graph, 1, seed=0).save_jsonl(paths["data"])
    deep = "[" * 100_000
    good_line = paths["data"].read_text().splitlines()[0]
    paths[name].write_text(good_line + "\n" + deep if name == "data" else deep)
    argv = {"graph": ["env", "simulate", "--graph", paths["graph"], "--scenario",
                      paths["scenario"], "--steps", "1"],
            "data": ["train", "--data", paths["data"], "--seed", "0"]}[name]
    out = tmp_path / "out"
    assert run([str(a) for a in argv] + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    where = f"{paths[name]}, line 2: " if name == "data" else f"{paths[name]}: "
    assert err.startswith(f"error: {where}") and "recursion" in err
    assert err.count("\n") == 1 and not out.exists()


def test_model_rejects_a_graph_of_degree_over_five_on_every_seed(tmp_path, capsys):
    """The feature vector holds five neighbor blocks, so a graph with a node of
    degree 7 fails at the first decision whatever node a scenario visits;
    env simulate, which builds no feature vector, still runs on it."""
    g = dg.synth_city(5, 5, seed=3)
    far = [v for v in np.argsort(np.linalg.norm(g.xy - g.xy[3], axis=1))
           if v != 3 and v not in [w for w, _ in sorted_adjacency(g)[3]]][:7 - g.degree(3)]
    edges = np.vstack([g.edges, [sorted((3, int(v))) for v in far]])
    length = np.linalg.norm(g.xy[edges[:, 0]] - g.xy[edges[:, 1]], axis=1) * 2000.0
    order = np.lexsort((edges[:, 1], edges[:, 0]))
    dense = dg.CityGraph(xy=g.xy, edges=edges[order], length_m=length[order],
                         speed_kmh=np.append(g.speed_kmh, [30.0] * len(far))[order])
    assert dense.degree(3) == 7
    gpath, spath = tmp_path / "g.json", tmp_path / "s.json"
    dg.save_graph(dense, gpath)
    for seed in range(6):
        assert run(["dataset", "generate", "--graph", str(gpath), "--n", "3",
                    "--seed", str(seed), "--out", str(tmp_path / "d.jsonl")]) == 1
        assert "node 3 has degree 7 > 5" in capsys.readouterr().err
    dg.save_scenario(dg.random_scenario(dense, np.random.default_rng(0)), spath)
    assert run(["env", "simulate", "--graph", str(gpath), "--scenario", str(spath),
                "--steps", "3", "--out", str(tmp_path / "w.csv")]) == 0


@pytest.mark.parametrize("sigma", ["nan", "inf", "-0.5"])
def test_bad_sigma_frac_is_a_domain_error(tmp_path, capsys, sigma):
    gpath, spath, ckpt = tmp_path / "g.json", tmp_path / "s.json", tmp_path / "m.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1", "--out", str(gpath)])
    dg.save_scenario(dg.random_scenario(dg.load_graph(gpath), np.random.default_rng(0)), spath)
    hy.HybridModel(seed=0).save(ckpt)
    out = str(tmp_path / "out")
    for argv in (["dataset", "generate", "--graph", str(gpath), "--n", "2", "--seed", "1"],
                 ["env", "simulate", "--graph", str(gpath), "--scenario", str(spath),
                  "--steps", "2"],
                 ["eval", "--ckpt", str(ckpt), "--graph", str(gpath), "--scenarios", "2",
                  "--seed", "0"]):
        assert run(argv + ["--sigma-frac", sigma, "--out", out]) == 1
        # a bad option names no input file
        assert capsys.readouterr().err.startswith(
            "error: sigma_frac must be finite and non-negative")


def test_env_simulate_rejects_negative_steps(tmp_path, capsys):
    gpath, spath = tmp_path / "g.json", tmp_path / "s.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1", "--out", str(gpath)])
    dg.save_scenario(dg.random_scenario(dg.load_graph(gpath), np.random.default_rng(0)), spath)
    wpath = tmp_path / "w.csv"
    assert run(["env", "simulate", "--graph", str(gpath), "--scenario", str(spath),
                "--steps", "-2", "--out", str(wpath)]) == 1
    assert "--steps must be at least 0" in capsys.readouterr().err
    assert not wpath.exists()


def test_dataset_generate_deterministic(tmp_path):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3",
         "--out", str(gpath)])
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    for out in (a, b):
        assert run(["dataset", "generate", "--graph", str(gpath), "--n", "5",
                    "--seed", "11", "--out", str(out)]) == 0
    assert a.read_bytes() == b.read_bytes()
    ds = ft.Dataset.load_jsonl(a)
    assert len(ds) > 0


def test_train_eval_export_pipeline(tmp_path):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3",
         "--out", str(gpath)])
    data = tmp_path / "data.jsonl"
    run(["dataset", "generate", "--graph", str(gpath), "--n", "6",
         "--seed", "2", "--out", str(data)])
    ckpt = tmp_path / "ckpt.json"
    hist = tmp_path / "history.json"
    assert run(["train", "--data", str(data), "--out", str(ckpt),
                "--epochs", "2", "--batch-size", "64", "--seed", "0",
                "--history-out", str(hist)]) == 0
    assert ckpt.exists()
    assert len(json.loads(hist.read_text())) == 2

    report = tmp_path / "report.json"
    pcsv = tmp_path / "paths.csv"
    assert run(["eval", "--ckpt", str(ckpt), "--graph", str(gpath),
                "--scenarios", "4", "--seed", "5", "--out", str(report),
                "--csv", str(pcsv)]) == 0
    doc = json.loads(report.read_text())
    assert {"arrival_rate", "mean_accuracy", "better_or_equal_rate",
            "n_scenarios", "quantum_share", "records"} <= set(doc)
    assert len(doc["records"]) == 4
    assert pcsv.read_text().startswith("scenario_id,")

    sample = tmp_path / "sample.json"
    with open(data) as fh:
        sample.write_text(fh.readline())
    qasm = tmp_path / "circuit.qasm"
    assert run(["export-qasm", "--params", str(ckpt), "--input", str(sample),
                "--out", str(qasm)]) == 0
    lines = qasm.read_text().splitlines()
    census = qs.build_model_circuit().census()
    for kind, count in census.items():
        assert sum(1 for l in lines if l.startswith(f"{kind}(")
                   or l.startswith(f"{kind} ")) == count


def test_export_qasm_refuses_a_classical_only_checkpoint(tmp_path, capsys):
    """Its quantum parameters are the untrained initial draw; ``eval`` still scores it."""
    gpath, data, ckpt = tmp_path / "g.json", tmp_path / "data.jsonl", tmp_path / "ckpt.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3", "--out", str(gpath)])
    run(["dataset", "generate", "--graph", str(gpath), "--n", "6", "--seed", "2",
         "--out", str(data)])
    assert run(["train", "--data", str(data), "--out", str(ckpt), "--epochs", "1",
                "--seed", "0", "--classical-only"]) == 0
    sample, qasm = tmp_path / "sample.json", tmp_path / "circuit.qasm"
    with open(data) as fh:
        sample.write_text(fh.readline())
    capsys.readouterr()
    assert run(["export-qasm", "--params", str(ckpt), "--input", str(sample),
                "--out", str(qasm)]) == 1
    err = capsys.readouterr().err
    assert str(ckpt) in err and "quantum parameters were never trained" in err
    assert not qasm.exists()
    assert run(["eval", "--ckpt", str(ckpt), "--graph", str(gpath), "--scenarios", "2",
                "--seed", "5", "--out", str(tmp_path / "report.json")]) == 0


def test_export_qasm_rejects_non_finite_input(tmp_path, capsys):
    """The sample's features obey the dataset's rule: 36 finite JSON numbers."""
    ckpt = tmp_path / "ckpt.json"
    hy.HybridModel(seed=0).save(ckpt)
    sample = tmp_path / "sample.json"
    with_nan = [0.5] * ft.N_FEATURES
    with_nan[7] = float("nan")  # json writes a NaN literal
    qasm = tmp_path / "circuit.qasm"
    for features, message in ((with_nan, "features[7] is nan, not a finite number"),
                              ([True] * ft.N_FEATURES, "features[0] is True"),
                              (["0.5"] * ft.N_FEATURES, "features[0] is '0.5'")):
        sample.write_text(json.dumps({"features": features}))
        assert run(["export-qasm", "--params", str(ckpt), "--input", str(sample),
                    "--out", str(qasm)]) == 1
        err = capsys.readouterr().err
        assert str(sample) in err and message in err
        assert not qasm.exists()


def test_export_qasm_rejects_a_sample_that_the_dataset_reader_rejects(tmp_path, capsys):
    """A dataset line whose block 3 travel time is -0.5 fails ``train`` and
    ``export-qasm`` alike, naming the file."""
    gpath, data, ckpt = tmp_path / "g.json", tmp_path / "data.jsonl", tmp_path / "ckpt.json"
    run(["graph", "synth", "--rows", "4", "--cols", "4", "--seed", "3", "--out", str(gpath)])
    run(["dataset", "generate", "--graph", str(gpath), "--n", "6", "--seed", "2",
         "--out", str(data)])
    hy.HybridModel(seed=0).save(ckpt)
    doc = json.loads(data.read_text().splitlines()[0])
    doc["features"][ft.HEAD_SIZE + 3 * ft.BLOCK_SIZE + 2] = -0.5
    sample, qasm = tmp_path / "sample.json", tmp_path / "circuit.qasm"
    sample.write_text(json.dumps(doc) + "\n")
    capsys.readouterr()
    for argv in (["train", "--data", str(sample), "--seed", "0", "--out", str(tmp_path / "m.json")],
                 ["export-qasm", "--params", str(ckpt), "--input", str(sample),
                  "--out", str(qasm)]):
        assert run(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {sample}") and "block 3 is neither" in err
    assert not qasm.exists()


def test_a_bad_seed_fails_before_any_input_file_is_read(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QRL_SEED", "x")
    missing, out = str(tmp_path / "missing.json"), str(tmp_path / "out")
    for argv in (["dataset", "generate", "--graph", missing, "--n", "2", "--out", out],
                 ["train", "--data", missing, "--out", out],
                 ["eval", "--ckpt", missing, "--graph", missing, "--scenarios", "2",
                  "--out", out]):
        assert run(argv) == 1
        assert capsys.readouterr().err == "error: QRL_SEED is 'x', not a non-negative integer\n"
    assert not (tmp_path / "out").exists()


def test_export_qasm_takes_only_a_features_document(tmp_path, capsys):
    ckpt = tmp_path / "ckpt.json"
    hy.HybridModel(seed=0).save(ckpt)
    sample = tmp_path / "sample.json"
    sample.write_text(json.dumps({"main": [0.5] * 34, "epi": [0.5, 0.5]}))
    qasm = tmp_path / "circuit.qasm"
    assert run(["export-qasm", "--params", str(ckpt), "--input", str(sample),
                "--out", str(qasm)]) == 1
    assert "features" in capsys.readouterr().err
    assert not qasm.exists()


def test_eval_missing_checkpoint(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
         "--out", str(gpath)])
    code = run(["eval", "--ckpt", str(tmp_path / "nope.json"), "--graph",
                str(gpath), "--scenarios", "2", "--seed", "0",
                "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "missing file" in capsys.readouterr().err


def test_eval_rejects_partial_checkpoint(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
         "--out", str(gpath)])
    ckpt = tmp_path / "ckpt.json"
    hy.HybridModel(seed=0).save(ckpt)
    doc = json.loads(ckpt.read_text())
    del doc["params"]["quantum"]
    ckpt.write_text(json.dumps(doc))
    code = run(["eval", "--ckpt", str(ckpt), "--graph", str(gpath),
                "--scenarios", "2", "--seed", "0", "--out", str(tmp_path / "r.json")])
    assert code == 1
    assert "quantum" in capsys.readouterr().err


def test_dataset_generate_rejects_bad_edge_speed(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
         "--out", str(gpath)])
    for speed in (0, -30):
        doc = json.loads(gpath.read_text())
        doc["edges"][0]["speed_kmh"] = speed
        gpath.write_text(json.dumps(doc))
        code = run(["dataset", "generate", "--graph", str(gpath), "--n", "2",
                    "--seed", "1", "--out", str(tmp_path / "d.jsonl")])
        assert code == 1
        assert "speed_kmh" in capsys.readouterr().err


def test_dataset_generate_rejects_non_finite_node_coordinate(tmp_path, capsys):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
         "--out", str(gpath)])
    doc = json.loads(gpath.read_text())
    doc["nodes"][4]["x"] = float("nan")
    gpath.write_text(json.dumps(doc))
    out = tmp_path / "d.jsonl"
    assert run(["dataset", "generate", "--graph", str(gpath), "--n", "2",
                "--seed", "1", "--out", str(out)]) == 1
    assert "finite" in capsys.readouterr().err
    assert not out.exists()


def test_dataset_generate_on_a_graph_of_exits_only(tmp_path, capsys):
    """Each of three nodes is nearest to one exit anchor, so no start is left."""
    gpath, out = tmp_path / "tri.json", tmp_path / "d.jsonl"
    dg.save_graph(dg.CityGraph(xy=[(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)],
                               edges=[(0, 1), (0, 2), (1, 2)], length_m=[1000.0] * 3,
                               speed_kmh=[50.0] * 3), gpath)
    assert run(["dataset", "generate", "--graph", str(gpath), "--n", "3",
                "--seed", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == ("error: no scenario start: every node of the "
                                       "graph is an exit [0, 1, 2]\n")
    assert not out.exists()


def test_analyze_fourier_and_fisher(tmp_path, capsys):
    violin = tmp_path / "violin.csv"
    assert run(["analyze", "fourier", "--N", "1", "--K", "2", "--samples",
                "20", "--seed", "3", "--out", str(violin)]) == 0
    lines = violin.read_text().strip().splitlines()
    assert lines[0] == "sample,omega_x,omega_y,real,imag"
    assert len(lines) == 1 + 20 * 25

    fisher = tmp_path / "fisher.csv"
    assert run(["analyze", "fisher", "--N", "1", "--K", "1", "--nx", "5",
                "--ntheta", "3", "--seed", "3", "--out", str(fisher)]) == 0
    assert fisher.read_text().startswith("index,eigenvalue")
    assert ", probability-floor clamps 0 ->" in capsys.readouterr().out
    full = tmp_path / "fisher_full.csv"
    assert run(["analyze", "fisher", "--N", "1", "--K", "1", "--nx", "4",
                "--ntheta", "2", "--seed", "3", "--full",
                "--out", str(full)]) == 0


def test_train_rejects_malformed_dataset(tmp_path, capsys):
    data = tmp_path / "bad.jsonl"
    data.write_text(json.dumps({"features": [0.5] * 35, "label": 0,
                                "scenario_id": 0, "t": 0}) + "\n")
    code = run(["train", "--data", str(data), "--seed", "0",
                "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("option, name", [("--epochs", "epochs"),
                                          ("--batch-size", "batch_size")])
def test_train_rejects_zero_epochs_or_batch_size(tmp_path, capsys, option, name):
    gpath = tmp_path / "g.json"
    run(["graph", "synth", "--rows", "3", "--cols", "3", "--seed", "1",
         "--out", str(gpath)])
    data = tmp_path / "d.jsonl"
    run(["dataset", "generate", "--graph", str(gpath), "--n", "2", "--seed", "1",
         "--out", str(data)])
    code = run(["train", "--data", str(data), "--seed", "0", option, "0",
                "--out", str(tmp_path / "m.json")])
    assert code == 1
    assert f"{name} must be at least 1" in capsys.readouterr().err
