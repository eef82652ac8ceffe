import dataclasses
import json
import logging
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings

import quakeroute.dyngraph as dg
import quakeroute.features as ft
import quakeroute.hybrid as hy
import quakeroute.oracle as oc
from conftest import make_graph, random_connected_graph, scenario_for, weighted_graphs
from helpers import (brute_force_edge_betweenness, feature_row, heap_distances, next_slot,
                     sorted_adjacency)


def _rows_at(coords, edges, exit_, here):
    """The builder's rows at the nodes ``here`` of a world heading to ``exit_``,
    with one row per node, and the scalar reference's rows of the same world."""
    g = make_graph(coords, edges, lengths=[500.0] * len(edges))
    start = next(u for u in range(g.n_nodes) if u != exit_)
    sc = scenario_for(g, start=start, exit_=exit_, epicenter=(0.5, 0.5))
    world = dg.initial_state(g, [sc] * len(here), sigma_frac=0.0)
    return (ft.build_feature_vector(world, here),
            np.array([feature_row(world, k, u) for k, u in enumerate(here)]))


def test_euclid():
    """Distance ahead: from each neighbor to the destination."""
    # node 0 heads to the exit 1 at (0, 0) past (1, 1) and (0.3, 0.4)
    x, ref = _rows_at([(0.6, 0.1), (0.0, 0.0), (1.0, 1.0), (0.3, 0.4)],
                      [(0, 1), (0, 2), (0, 3)], exit_=1, here=[0])
    assert x.tobytes() == ref.tobytes()
    distance = x[0, ft.HEAD_SIZE + 4::ft.BLOCK_SIZE]
    assert distance[0] == 0.0
    assert distance[1] == pytest.approx(math.sqrt(2))
    assert distance[2] == pytest.approx(0.5)
    assert distance[3:].tolist() == [0.0, 0.0]


def test_direction_cosine():
    """Heading cosine: the step against the direction to the destination; a
    step to a node at the same point, or a row at its destination, scores 0."""
    coords = [(0.0, 0.0), (0.5, 0.0), (1.0, 0.0), (0.0, 0.5), (0.2, 0.2), (0.2, 0.2)]
    x, ref = _rows_at(coords, [(0, 1), (1, 2), (0, 3), (0, 4), (4, 5)], exit_=2,
                      here=[0, 1, 5, 2])
    assert x.tobytes() == ref.tobytes()
    cos = x[:, ft.HEAD_SIZE + 5::ft.BLOCK_SIZE]
    assert cos[0, :3] == pytest.approx([1.0, 0.0, 2 ** -0.5])
    assert cos[1, :2] == pytest.approx([-1.0, 1.0])
    assert cos[2, 0] == 0.0 and math.copysign(1.0, cos[2, 0]) == 1.0  # node 4 is at node 5
    assert cos[3, 0] == 0.0  # node 2 is the destination
    assert (cos[:, 3:] == 0.0).all()


def test_edge_betweenness_path3(line3):
    btw = ft.edge_betweenness(line3)
    # ordered pairs through each edge: (0,1),(1,0),(0,2),(2,0) -> 4 of 6
    assert np.allclose(btw, [4 / 6, 4 / 6])


def test_edge_betweenness_triangle_symmetry():
    g = make_graph([(0.0, 0.0), (0.5, 1.0), (1.0, 0.0)],
                   [(0, 1), (0, 2), (1, 2)],
                   lengths=[1000.0] * 3, speeds=[60.0] * 3)
    btw = ft.edge_betweenness(g)
    assert np.allclose(btw, btw[0])


def test_edge_betweenness_star_matches_enumeration():
    g = make_graph([(0.5, 0.5), (0.0, 0.5), (1.0, 0.5), (0.5, 1.0)],
                   [(0, 1), (0, 2), (0, 3)],
                   lengths=[1000.0] * 3, speeds=[60.0] * 3)
    btw = ft.edge_betweenness(g)
    want = brute_force_edge_betweenness(g, g.nominal_minutes())
    assert np.allclose(btw, want)
    # per spoke: (c,l),(l,c) plus (l,m),(m,l) for the two other leaves = 6/12
    assert np.allclose(btw, 0.5)


def _lattice(k: int, rng) -> dg.CityGraph:
    """k x k rook lattice plus a random diagonal in every other cell."""
    coords = [(r / (k - 1), c / (k - 1)) for r in range(k) for c in range(k)]
    edges = [(u, u + 1) for u in range(k * k) if u % k < k - 1]
    edges += [(u, u + k) for u in range(k * (k - 1))]
    edges += [(u, u + k + 1) for u in range(k * (k - 1))
              if u % k < k - 1 and rng.random() < 0.5]
    return make_graph(coords, edges)


def test_edge_betweenness_random_graphs_match_enumeration():
    rng = np.random.default_rng(7)
    cases = []
    for _ in range(6):
        g = random_connected_graph(rng, int(rng.integers(4, 7)))
        cases.append((g, rng.uniform(0.5, 3.0, g.n_edges)))
    for k in (3, 4):  # equal weights, and near-ties such as 0.1 + 0.2 against 0.3
        for values in ([1.0], [0.1, 0.2, 0.3]):
            g = _lattice(k, rng)
            cases.append((g, rng.choice(values, g.n_edges)))
    # two components and an isolated node
    g = make_graph([(0, 0), (0.3, 0.3), (0.7, 0.7), (1.0, 1.0), (0.5, 0.1), (0.9, 0.2)],
                   [(0, 1), (1, 2), (0, 2), (3, 4)])
    cases.append((g, np.array([1.0, 1.0, 2.0, 0.5])))
    for g, w in cases:
        assert np.allclose(ft.edge_betweenness(g, w),
                           brute_force_edge_betweenness(g, w), atol=1e-9)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(weighted_graphs(max_nodes=6, max_rows=1))
def test_edge_betweenness_matches_enumeration_on_random_graphs(case):
    g, weights, _ = case
    assert np.allclose(ft.edge_betweenness(g, weights[0]),
                       brute_force_edge_betweenness(g, weights[0]), atol=1e-9)


@pytest.mark.parametrize("value", [-0.5, 0.0, np.nan, np.inf])
def test_edge_betweenness_rejects_weights_that_are_not_finite_and_positive(value):
    """Around a negative edge the distance sweeps would lower distances forever."""
    g = dg.synth_city(3, 3, seed=0)
    weights = g.nominal_minutes()
    weights[4] = value
    with pytest.raises(ValueError, match="finite, positive values, one per edge"):
        ft.edge_betweenness(g, weights)
    with pytest.raises(ValueError, match="one per edge"):
        ft.edge_betweenness(g, g.nominal_minutes()[:-1])


def test_edge_betweenness_disconnected():
    g = make_graph([(0, 0), (0.3, 0.3), (0.7, 0.7), (1.0, 1.0)],
                   [(0, 1), (2, 3)])
    btw = ft.edge_betweenness(g)
    # only the 2 within-component ordered pairs cross each edge, out of 12
    assert np.allclose(btw, 2 / 12)


def _fixture_state():
    g = make_graph([(0.5, 0.5), (0.5, 0.25), (1.0, 0.5)], [(0, 1), (0, 2)],
                   lengths=[500.0, 1000.0], speeds=[60.0, 60.0])
    sc = scenario_for(g, start=1, exit_=2, epicenter=(0.1, 0.2), max_steps=10)
    state = dg.initial_state(g, [sc], sigma_frac=0.0)
    return g, sc, state


def test_features_reach_the_shared_rules_through_their_owners():
    assert ft.edge_betweenness is oc.edge_betweenness
    assert ft.N_BLOCKS == dg.MAX_DEGREE
    g = dg.synth_city(4, 4, seed=2)
    with pytest.raises(ValueError, match="^n_scenarios must be at least 1$"):
        ft.generate_dataset(g, 0, seed=1)
    with pytest.raises(ValueError, match="^n_scenarios must be at least 1$"):
        hy.evaluate(hy.HybridModel(seed=0), g, 0, seed=1)


def test_build_feature_vector_hand_computed():
    g, sc, state = _fixture_state()
    btw = ft.edge_betweenness(g)
    assert np.array_equal(g.betweenness, btw)
    [vec] = ft.build_feature_vector(state, [0])
    assert vec.shape == (36,)
    assert g.arcs[:, :, 0].T.tolist() == [[1, 0], [2, 1]]  # block j is the arc in slot j
    assert ft.block_mask(vec).tolist() == [True, True, False, False, False]
    assert np.allclose(vec[0:2], [0.1, 0.2])    # epicenter
    assert np.allclose(vec[2:4], [0.5, 0.5])    # current node
    assert np.allclose(vec[4:6], [1.0, 0.5])    # destination
    # block for neighbor 1 at (0.5, 0.25): w=0.5min x1.3/5 (the edge's center
    # lies in the initial hit's outer band), betweenness, distance from the
    # neighbor to the exit, and the heading cosine (orthogonal -> 0)
    assert np.allclose(vec[6:12], [0.5, 0.25, 0.5 * 1.3 / 5.0, btw[0],
                                   math.hypot(0.5, 0.25), 0.0])
    # block for neighbor 2 at the exit itself: distance 0, heading cosine 1
    assert np.allclose(vec[12:18], [1.0, 0.5, 1.0 / 5.0, btw[1], 0.0, 1.0])
    assert np.all(vec[18:] == 0.0)


def test_build_feature_vector_rejects_degree_over_five():
    coords = [(0.5, 0.5)] + [(i / 6.0, 0.0) for i in range(6)]
    g = make_graph(coords, [(0, i) for i in range(1, 7)])
    sc = scenario_for(g, start=1, exit_=2, max_steps=5)
    state = dg.initial_state(g, [sc, sc], sigma_frac=0.0)
    for here in ([0, 1], [1, 2]):  # at the degree-6 node or not, every time
        with pytest.raises(dg.GraphError, match="node 0 has degree 6 > 5"):
            ft.build_feature_vector(state, here)
    assert g.feature_tables == {}


def test_block_mask_roundtrip():
    """The mask read back from each node's vector marks one block per arc."""
    g = dg.synth_city(5, 5, seed=2)
    sc = dg.random_scenario(g, np.random.default_rng(1))
    state = dg.initial_state(g, [sc] * g.n_nodes)
    masks = ft.block_mask(ft.build_feature_vector(state, range(g.n_nodes)))
    for u, mask in enumerate(masks):
        assert mask.tolist() == [j < g.degree(u) for j in range(ft.N_BLOCKS)]


def test_feature_blocks_follow_node_relabeling():
    """Relabeling nodes permutes the blocks and the oracle label coherently."""
    g, sc, state = _fixture_state()
    [vec] = ft.build_feature_vector(state, [0])
    # same geometry with the two neighbor ids swapped (1 <-> 2)
    g2 = make_graph([(0.5, 0.5), (1.0, 0.5), (0.5, 0.25)], [(0, 2), (0, 1)],
                    lengths=[500.0, 1000.0], speeds=[60.0, 60.0])
    sc2 = scenario_for(g2, start=2, exit_=1, epicenter=(0.1, 0.2), max_steps=10)
    state2 = dg.initial_state(g2, [sc2], sigma_frac=0.0)
    [vec2] = ft.build_feature_vector(state2, [0])
    assert g2.arcs[0, :, 0].tolist() == [1, 2]
    assert np.allclose(vec2[6:12], vec[12:18])   # old neighbor 2 is now first
    assert np.allclose(vec2[12:18], vec[6:12])


def _feature_cities():
    """Cities of 5 to 12 nodes a side, with nodes of every degree 1-5 among them."""
    cities = [dg.synth_city(k, k, seed=k, delete_frac=frac)
              for k, frac in ((5, 0.4), (8, 0.15), (12, 0.3))]
    assert {g.degree(u) for g in cities for u in range(g.n_nodes)} == {1, 2, 3, 4, 5}
    return cities


def test_feature_rows_match_the_scalar_reference_bit_for_bit():
    """Every row of every world step, in worlds whose rows head to different
    exits and in one-row worlds, equals the scalar reference byte for byte
    (so a -0.0 for a 0.0 fails too)."""
    steps = []

    def compare(world, rows, here):
        x = ft.build_feature_vector(world, here)
        ref = np.array([feature_row(world, k, u) for k, u in enumerate(here)])
        assert x.shape == (len(here), ft.N_FEATURES)
        assert x.tobytes() == ref.tobytes()
        steps.append({sc.chosen_exit for sc in world.scenarios})
        return oc.oracle_next(world, rows, here)

    for g in _feature_cities():
        scenarios = dg.random_scenarios(g, 40, seed=5)
        oc.lockstep(g, scenarios, 0.1, compare)
        for sc in scenarios[:4]:
            oc.lockstep(g, [sc], 0.1, compare)
        assert set(g.feature_tables) == {sc.chosen_exit for sc in scenarios}
    assert max(map(len, steps)) == 3 and min(map(len, steps)) == 1
    # a graph without edges has rows of the head alone
    x, ref = _rows_at([(0.2, 0.2), (0.8, 0.8)], [], exit_=1, here=[0, 1])
    assert x.tobytes() == ref.tobytes()
    assert x[:, 2:6].tolist() == [[0.2, 0.2, 0.8, 0.8], [0.8, 0.8, 0.8, 0.8]]


def test_feature_row_of_a_start_next_to_its_exit():
    g = dg.synth_city(6, 6, seed=3)
    exit_ = dg.pick_exits(g)[0]
    for start, e in sorted_adjacency(g)[exit_]:
        sc = dataclasses.replace(dg.random_scenarios(g, 1, seed=1)[0], start=start,
                                 chosen_exit=exit_)
        world = dg.initial_state(g, [sc])
        [x] = ft.build_feature_vector(world, [start])
        assert x.tobytes() == feature_row(world, 0, start).tobytes()
        j = [v for v, _ in sorted_adjacency(g)[start]].index(exit_)
        block = x[ft.HEAD_SIZE + j * ft.BLOCK_SIZE:][:ft.BLOCK_SIZE]
        assert block.tolist()[:5] == [*g.xy[exit_], world.weights[0, e] / ft.WEIGHT_SCALE,
                                      g.betweenness[e], 0.0]
        assert block[5] == pytest.approx(1.0)  # heading straight for the exit
        [path] = oc.nodewise_dijkstra(g, [sc])
        assert path.nodes == [start, exit_]


def test_one_feature_matrix_per_world_step(monkeypatch):
    """Dataset generation and model rollouts build each world step's rows in
    one call; each destination's table is built once and kept on the graph."""
    g = dg.synth_city(6, 6, seed=4)
    scenarios = dg.random_scenarios(g, 30, seed=2)
    calls, steps, built = [], [], []
    build, advance, table = ft.build_feature_vector, dg.advance, ft._destination_table

    def counted_build(world, here):
        calls.append((len(world.scenarios), len(here)))
        return build(world, here)

    def counted_table(graph, dest):
        if dest not in graph.feature_tables:
            built.append(dest)
        return table(graph, dest)

    monkeypatch.setattr(ft, "build_feature_vector", counted_build)
    monkeypatch.setattr(ft, "_destination_table", counted_table)
    monkeypatch.setattr(dg, "advance", lambda world: steps.append(world.t) or advance(world))
    ft.generate_dataset(g, len(scenarios), seed=2)
    hy.rollout(hy.HybridModel(seed=0), g, scenarios)
    assert len(calls) == len(steps)
    assert all(rows == n for rows, n in calls)
    assert calls[0] == (len(scenarios), len(scenarios))
    assert sorted(built) == sorted({sc.chosen_exit for sc in scenarios})
    tables = dict(g.feature_tables)
    hy.rollout(hy.HybridModel(seed=0), g, scenarios[:3])
    assert len(built) == len(tables)
    assert all(g.feature_tables[d] is t for d, t in tables.items())


def test_generate_dataset_counts_and_labels():
    g = dg.synth_city(6, 6, seed=4)
    ds = ft.generate_dataset(g, 20, seed=9)
    assert len(ds) > 0
    masks = ft.block_mask(ds.features)
    labels = ds.labels()
    assert ((labels >= 0) & (labels < 5)).all()
    assert masks[np.arange(len(ds)), labels].all()  # never a padded block
    # one sample per traversed edge of each successful scenario
    scenarios = dg.random_scenarios(g, 20, seed=9)
    for sid in np.unique(ds.scenario_ids()):
        rows = ds[ds.scenario_ids() == sid]
        sc = scenarios[sid]
        [path] = oc.nodewise_dijkstra(g, [sc], sigma_frac=0.1)
        assert path.reached
        assert len(rows) == len(path.nodes) - 1
        # the labeled block's coordinates are the oracle's next node
        assert np.array_equal(rows.t, np.sort(rows.t))
        for vec, label, nxt in zip(rows.features, rows.labels(), path.nodes[1:]):
            base = 6 + label * 6
            assert np.allclose(vec[base:base + 2], g.xy[nxt])


def test_generate_dataset_deterministic_bytes(tmp_path):
    g = dg.synth_city(5, 5, seed=2)
    a = ft.generate_dataset(g, 10, seed=3)
    b = ft.generate_dataset(g, 10, seed=3)
    pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
    a.save_jsonl(pa)
    b.save_jsonl(pb)
    assert pa.read_bytes() == pb.read_bytes()
    reloaded = ft.Dataset.load_jsonl(pa)
    assert np.array_equal(reloaded.feature_matrix(), a.feature_matrix())
    assert np.array_equal(reloaded.labels(), a.labels())


def test_split_by_scenario_no_leakage():
    g = dg.synth_city(5, 5, seed=2)
    ds = ft.generate_dataset(g, 20, seed=3)
    train, val = ds.split(val_fraction=0.2, seed=1)
    train_ids = set(train.scenario_ids().tolist())
    val_ids = set(val.scenario_ids().tolist())
    assert train_ids.isdisjoint(val_ids)
    assert len(train) + len(val) == len(ds)
    train2, val2 = ds.split(val_fraction=0.2, seed=1)
    assert set(val2.scenario_ids().tolist()) == val_ids
    everything, nothing = ds.split(val_fraction=0.0, seed=1)
    assert len(everything) == len(ds) and len(nothing) == 0


def test_dataset_columns_and_row_selection():
    g = dg.synth_city(5, 5, seed=2)
    ds = ft.generate_dataset(g, 8, seed=3)
    n = len(ds)
    assert ds.feature_matrix().shape == (n, ft.N_FEATURES)
    for column in (ds.labels(), ds.scenario_ids(), ds.t):
        assert column.shape == (n,) and column.dtype.kind == "i"
    assert ds.feature_matrix() is ds.feature_matrix()
    with pytest.raises(ValueError):  # the columns are read-only
        ds.feature_matrix()[0, 0] = 1.0
    pick = np.array([3, 0, n - 1])
    assert np.array_equal(ds[pick].feature_matrix(), ds.feature_matrix()[pick])
    assert np.array_equal(ds[ds.t == 0].scenario_ids(),
                          ds.scenario_ids()[ds.t == 0])
    assert np.array_equal(ds[:0].feature_matrix(), np.empty((0, ft.N_FEATURES)))
    # a split keeps each side's rows in dataset order
    train, val = ds.split(val_fraction=0.25, seed=1)
    in_val = np.isin(ds.scenario_ids(), val.scenario_ids())
    assert np.array_equal(val.feature_matrix(), ds.feature_matrix()[in_val])
    assert np.array_equal(train.t, ds.t[~in_val])
    with pytest.raises(ValueError, match="t has shape"):
        ft.Dataset(ds.feature_matrix(), ds.labels(), ds.scenario_ids(), ds.t[1:])


def test_generate_dataset_argument_error():
    g = dg.synth_city(3, 3, seed=0)
    with pytest.raises(ValueError):
        ft.generate_dataset(g, 0, seed=1)


def _replayed_dataset(graph, scenarios, sigma_frac):
    """One scenario at a time: advance its own world, then move by the scalar
    rule on heap distances of the current weights; failed scenarios drop out."""
    rows = []
    for i, sc in enumerate(scenarios):
        state = dg.initial_state(graph, [sc], sigma_frac)
        u, mine = sc.start, []
        while u != sc.chosen_exit and state.t < sc.max_steps:
            dg.advance(state)
            dist = heap_distances(graph, state.weights[0], sc.chosen_exit)
            j = next_slot(graph, state.weights[0], dist, u)
            if j < 0:
                break
            mine.append((feature_row(state, 0, u), j, i, state.t))
            u = sorted_adjacency(graph)[u][j][0]
        if u == sc.chosen_exit:
            rows += mine
    return ft.Dataset.from_rows(rows)


def _skipping_case(monkeypatch):
    """A city with an unreachable island and six scenarios, of which scenario 2
    spends its budget and scenario 4 starts where no exit can be reached;
    generate_dataset draws these scenarios."""
    city = dg.synth_city(5, 5, seed=2)
    # the city plus a two-node island that no exit can be reached from
    g = make_graph(np.vstack([city.xy, [(0.45, 0.55), (0.55, 0.55)]]),
                   [*city.edges.tolist(), (25, 26)],
                   [*city.length_m, 300.0], [*city.speed_kmh, 40.0])
    rng = np.random.default_rng(6)
    scenarios = [dg.random_scenario(city, rng) for _ in range(6)]
    far = scenarios[0].exits[0]
    start = int(np.argmax(np.linalg.norm(city.xy - city.xy[far], axis=1)))
    scenarios[2] = dataclasses.replace(scenarios[2], start=start, chosen_exit=far,
                                       max_steps=2)
    scenarios[4] = dataclasses.replace(scenarios[4], start=25)
    monkeypatch.setattr(dg, "random_scenarios", lambda graph, n, seed: scenarios[:n])
    return g, scenarios


def test_generate_dataset_matches_per_scenario_replay(monkeypatch, caplog):
    g, scenarios = _skipping_case(monkeypatch)
    with caplog.at_level(logging.WARNING, logger=ft.__name__):
        got = ft.generate_dataset(g, len(scenarios), seed=0)
    want = _replayed_dataset(g, scenarios, 0.1)
    for key in ft.COLUMNS:
        assert np.array_equal(getattr(got, key), getattr(want, key))
    assert set(got.scenario_ids().tolist()) == {0, 1, 3, 5}
    assert caplog.messages == [
        "scenario 2 skipped: budget exhausted after 2 steps",
        f"scenario 4 skipped: exit {scenarios[4].chosen_exit} unreachable from 25"]


def test_generate_dataset_worlds_do_not_change_the_output(monkeypatch, caplog):
    g, scenarios = _skipping_case(monkeypatch)
    with caplog.at_level(logging.WARNING, logger=ft.__name__):
        one_world = ft.generate_dataset(g, len(scenarios), seed=0)
        messages = list(caplog.messages)
        caplog.clear()
        monkeypatch.setattr(oc, "WORLD_ROWS", 3)  # scenarios 0-2, then 3-5
        worlds = []
        initial_state = dg.initial_state
        monkeypatch.setattr(dg, "initial_state", lambda graph, part, *rest:
                            worlds.append(len(part)) or initial_state(graph, part, *rest))
        two_worlds = ft.generate_dataset(g, len(scenarios), seed=0)
    assert worlds == [3, 3]
    for key in ft.COLUMNS:
        assert np.array_equal(getattr(two_worlds, key), getattr(one_world, key))
    assert caplog.messages == messages and len(messages) == 2


def _edit_padding_label(doc):
    # a zero travel time marks block 4 as padding
    doc["features"][ft.HEAD_SIZE + 4 * ft.BLOCK_SIZE + 2] = 0.0
    doc["label"] = 4


def _set_block_1(values):
    """An edit of block 1 of the line's four real blocks; its label is 2."""
    def edit(doc):
        for k, value in values.items():
            doc["features"][ft.HEAD_SIZE + ft.BLOCK_SIZE + k] = value
    return edit


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["features"].pop(), "length-36 JSON list"),
    (lambda doc: doc["features"].append(0.5), "length-36 JSON list"),
    (lambda doc: doc.update(features=[str(x) for x in doc["features"]]), "features[0] is '"),
    (lambda doc: doc["features"].__setitem__(3, float("nan")), "features[3] is nan"),
    (lambda doc: doc["features"].__setitem__(0, float("inf")), "features[0] is inf"),
    (lambda doc: doc["features"].__setitem__(0, 10**400), "features[0] is 1000"),
    (lambda doc: doc.update(label=5), "label"),
    (lambda doc: doc.update(label=-1), "label"),
    (lambda doc: doc.update(label=1.0), "label"),
    (_edit_padding_label, "padding"),
    # a negative travel time, a zero one under a neighbor's coordinates, real after padding
    (_set_block_1({2: -0.5}), "block 1 is neither"),
    (_set_block_1({2: 0.0}), "block 1 is neither"),
    (_set_block_1(dict.fromkeys(range(ft.BLOCK_SIZE), 0.0)), "block 1 is neither"),
    (lambda doc: doc.update(scenario_id="3"), "scenario_id"),
    (lambda doc: doc.update(scenario_id=-1), "scenario_id is -1"),
    (lambda doc: doc.update(t=2.5), "t"),
    (lambda doc: doc.update(t=-1), "t is -1"),
    (lambda doc: doc.pop("t"), "keys"),
])
def test_load_jsonl_rejects_malformed_sample(tmp_path, edit, message):
    g = dg.synth_city(4, 4, seed=1)
    path = tmp_path / "d.jsonl"
    ft.generate_dataset(g, 2, seed=5).save_jsonl(path)
    lines = path.read_text().splitlines()
    doc = json.loads(lines[1])
    edit(doc)
    lines[1] = json.dumps(doc)
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=re.escape(message)) as info:
        ft.Dataset.load_jsonl(path)
    assert f"{path}, line 2" in str(info.value)


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["features"].pop(), "features is not a length-36 JSON list"),
    (lambda doc: doc["features"].__setitem__(3, float("nan")), "features[3] is nan"),
    (_set_block_1({2: -0.5}), "block 1 is neither"),
    (_set_block_1(dict.fromkeys(range(ft.BLOCK_SIZE), 0.0)), "block 1 is neither"),
    (lambda doc: doc.pop("features"), "features is not a length-36"),
])
def test_load_sample_holds_features_to_the_dataset_rule(tmp_path, edit, message):
    """A sample is any JSON object whose features pass the dataset's layout and
    block rule; the label checks are the dataset's alone."""
    data, path = tmp_path / "d.jsonl", tmp_path / "sample.json"
    ft.generate_dataset(dg.synth_city(4, 4, seed=1), 2, seed=5).save_jsonl(data)
    doc = json.loads(data.read_text().splitlines()[1])
    path.write_text(json.dumps({**doc, "label": 99, "note": "not a dataset line"}))
    got = ft.load_sample(path)
    assert got.tobytes() == ft.Dataset.load_jsonl(data).features[1].tobytes()
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ValueError, match=re.escape(f"{path}: {message}")):
        ft.load_sample(path)


@pytest.mark.parametrize("size", [3, 4, 5, 6, 8])
def test_dataset_labels_do_not_depend_on_the_city_span(size):
    """Spans of 2**-10 and 2**-40 m scale every travel time by a power of two,
    exactly, and stay far below every band cap; so the oracle takes the same
    moves, and the tie slack, relative to the distance, must not let it wander
    where every time is tiny."""
    small, tiny = (ft.generate_dataset(dg.synth_city(size, size, seed=1, span_m=span), 20, seed=1)
                   for span in (2.0 ** -10, 2.0 ** -40))
    assert len(small) > 20
    for key in ("label", "scenario_id", "t"):
        assert np.array_equal(getattr(small, key), getattr(tiny, key))
