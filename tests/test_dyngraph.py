import dataclasses
import json
import math

import numpy as np
import pytest

import quakeroute.dyngraph as dg
from hypothesis import example, given, settings
from hypothesis import strategies as st

from conftest import make_graph, scenario_for
from helpers import reference_synth_city, replay_trajectory, sorted_adjacency


def test_radius_formulas():
    assert dg.damage_radius(0) == 0.5
    assert dg.exit_radius(0) == 0.0
    assert dg.damage_radius(100) == pytest.approx(0.5 + math.sqrt(0.02))
    assert dg.exit_radius(100) == pytest.approx(math.sqrt(0.075))
    ts = np.arange(0, 300)
    assert all(np.diff([dg.damage_radius(t) for t in ts]) >= 0)
    assert all(np.diff([dg.exit_radius(t) for t in ts]) >= 0)


def test_edge_center():
    g = make_graph([(0.0, 0.0), (1.0, 1.0), (0.1, 0.0), (0.3, 0.0)],
                   [(0, 1), (2, 3)])
    centers = dg.edge_centers(g)
    assert centers.shape == (2, 2)
    assert tuple(centers[0]) == (0.5, 0.5)  # edge 0 joins nodes 0 and 1
    assert centers[1] == pytest.approx((0.2, 0.0))


def test_arc_table_pads_to_a_dummy_node_over_a_phantom_edge():
    # edges 0: (0, 1), 1: (0, 2), 2: (2, 3); node 4 has no edge
    g = make_graph([(0.0, 0.0), (1.0, 1.0), (0.1, 0.0), (0.3, 0.0), (0.5, 0.5)],
                   [(0, 1), (0, 2), (2, 3)])
    heads, edges = g.arcs  # slot j of node u is column u of row j
    assert heads.tolist() == [[1, 0, 0, 2, 5], [2, 5, 3, 5, 5]]
    assert edges.tolist() == [[0, 0, 1, 2, 3], [1, 3, 2, 3, 3]]
    assert [g.degree(u) for u in range(5)] == [2, 1, 2, 1, 0]


@st.composite
def _edge_sets(draw):
    """1-12 nodes and any set of edges among them, so isolated nodes too."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    return n, sorted(draw(st.sets(st.sampled_from(pairs), max_size=3 * n)) if pairs else [])


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_edge_sets())
@example((1, []))
@example((6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)]))  # degree 5
@example((7, [(1, 3), (2, 6)]))
def test_arc_table_matches_the_sorted_adjacency(case):
    """Column u lists u's arcs as the edge-built adjacency does, by ascending
    head, then pads to the dummy node over the phantom edge."""
    n, edges = case
    g = make_graph([(i / 12, 1 - i / 12) for i in range(n)], edges,
                   lengths=[1.0] * len(edges))
    adjacency = sorted_adjacency(g)
    assert g.arcs.shape == (2, max(map(len, adjacency), default=0), n)
    for u, arcs in enumerate(adjacency):
        padding = [(n, len(edges))] * (g.arcs.shape[1] - len(arcs))
        assert g.arcs[:, :, u].T.tolist() == [list(a) for a in arcs + padding]
        assert g.degree(u) == len(arcs)


@pytest.mark.parametrize("edges", [[(-1, 1)], [(0, 3)], [(-2, 5)]])
def test_graph_rejects_an_edge_end_that_is_not_a_node(edges):
    """A negative end would wrap around to the last node."""
    with pytest.raises(dg.GraphError, match="is not a node 0-2"):
        dg.CityGraph(xy=[(0.0, 0.0), (0.5, 0.5), (1.0, 1.0)], edges=edges,
                     length_m=[1000.0], speed_kmh=[50.0])


def test_graph_invariants_rejected():
    with pytest.raises(dg.GraphError):
        make_graph([(0.2, 0.4), (0.5, 0.5)], [(0, 0)])  # self loop
    with pytest.raises(dg.GraphError):
        make_graph([(0, 0), (1, 1)], [(0, 1), (1, 0)])  # duplicate edge
    with pytest.raises(dg.GraphError):
        make_graph([(0, 0), (2.0, 0.5)], [(0, 1)])  # outside unit square


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_graph_rejects_non_finite_coordinates(value):
    with pytest.raises(dg.GraphError, match="finite"):
        make_graph([(0.2, 0.4), (value, 0.5)], [(0, 1)])


def _banded_graph():
    """Disjoint edges whose centers sit in each initial-quake band relative to
    an epicenter at the origin (r = 0.5), two of them exactly on the inner band
    edges 0.3 r and 0.75 r, and an isolated node 10 that serves as an exit no
    traffic circle reaches before t = 333."""
    coords = [
        (0.05, 0.0), (0.15, 0.0),    # center (0.10, 0) -> d = 0.10 <= 0.15
        (0.125, 0.0), (0.375, 0.0),  # center (0.25, 0) -> 0.15 < d <= 0.375
        (0.25, 0.0), (0.75, 0.0),    # center (0.50, 0) -> d = 0.5 = r exactly
        (0.75, 0.75), (1.0, 1.0),    # center far outside
        (0.0, 0.0), (0.3, 0.0),      # center (0.15, 0) -> d = 0.3 r exactly
        (1.0, 0.0),
    ]
    edges = [(0, 1), (2, 3), (4, 5), (6, 7), (8, 9), (8, 5)]  # (8, 5): d = 0.75 r
    return make_graph(coords, edges, lengths=[2000.0] * 6, speeds=[60.0] * 6)


def _state(graph, epicenter=(0.0, 0.0), exit_=10, max_steps=1000):
    """A world of one scenario row."""
    sc = scenario_for(graph, start=0, exit_=exit_, epicenter=epicenter,
                      max_steps=max_steps)
    return dg.initial_state(graph, [sc], sigma_frac=0.0)


def test_initial_quake_bands():
    g = _banded_graph()
    assert np.allclose(g.nominal_minutes(), 2.0)  # 2000 m at 60 km/h = 2 minutes
    assert dg.edge_centers(g)[4:, 0].tolist() == [0.3 * 0.5, 0.75 * 0.5]
    st = _state(g)
    assert st.weights.shape == (1, 6) and st.t == 0
    w = st.weights[0]
    assert w[0] == pytest.approx(10.0)   # x5
    assert w[1] == pytest.approx(4.0)    # x2
    assert w[2] == pytest.approx(2.6)    # x1.3 at d = r inclusive
    assert w[3] == pytest.approx(2.0)    # outside the damage circle
    assert w[4] == pytest.approx(10.0)   # x5 at d = 0.3 r inclusive
    assert w[5] == pytest.approx(4.0)    # x2 at d = 0.75 r inclusive


def test_step_quake_t0_is_identity_even_above_cap():
    st = _state(_banded_graph())
    before = st.weights.copy()
    dg.advance(st)  # t = 0: every factor is sqrt(1); above-cap stays put
    assert np.array_equal(st.weights, before)
    assert st.weights[0, 0] == 10.0


def test_step_quake_growth_and_caps():
    st = _state(_banded_graph())
    w = st.weights[0]
    w[:] = [4.9, 2.0, 2.0, 2.0, 2.0, 2.0]
    st.t = 100
    dg.advance(st)  # the exit's traffic circle reaches no edge yet
    assert w[0] == pytest.approx(5.0)  # innermost band capped at 5
    inner = 4.9  # check the uncapped value would exceed the cap
    assert inner * math.sqrt(0.003 * 100 + 1) > 5.0
    # at t=100 the damage radius is ~0.641: d=0.25 is band 2, d=0.5 band 3
    assert w[1] == pytest.approx(2.0 * math.sqrt(0.002 * 100 + 1))
    assert w[2] == pytest.approx(2.0 * math.sqrt(0.001 * 100 + 1))
    assert w[3] == 2.0
    assert w[4] == pytest.approx(2.0 * math.sqrt(0.003 * 100 + 1))
    assert w[5] == pytest.approx(2.0 * math.sqrt(0.002 * 100 + 1))


def test_step_quake_never_lowers_above_cap_weights():
    st = _state(_banded_graph())
    assert st.weights[0, 0] == 10.0  # above every cap from the initial x5
    st.t = 50
    dg.advance(st)
    assert st.weights[0, 0] == 10.0


def test_growth_on_the_band_edges_matches_the_replay():
    """Edges centered exactly on 0.3 r and 0.75 r of the damage circle at
    t = 50 grow by their inner band's factor, as the pure-Python replay says."""
    x = np.multiply((0.3, 0.75), dg.damage_radius(50))
    coords = [(0.0, 0.0), (2 * x[0], 0.0), (2 * x[1], 0.0), (1.0, 1.0)]
    g = make_graph(coords, [(0, 1), (0, 2)], lengths=[1000.0, 1000.0],
                   speeds=[60.0, 60.0])
    assert dg.edge_centers(g)[:, 0].tolist() == x.tolist()
    sc = scenario_for(g, start=0, exit_=3, epicenter=(0.0, 0.0), max_steps=100)
    st = dg.initial_state(g, [sc], sigma_frac=0.0)
    for _ in range(51):
        before = st.weights[0].copy()
        dg.advance(st)
    assert st.weights[0].tolist() == [before[0] * math.sqrt(0.003 * 50 + 1),
                                      before[1] * math.sqrt(0.002 * 50 + 1)]
    want = replay_trajectory(g, sc.epicenter, sc.exits, g.nominal_minutes(), 51)
    assert st.weights[0].tolist() == want[-1]


def test_step_traffic_zero_radius_then_growth():
    # exit node at (0.5, 0.5); one edge centered 0.4 * r_exit(3) away; the
    # damage circle around (0.99, 0.99) reaches neither edge by t = 3
    r3 = math.sqrt(0.00075 * 3)
    d = 0.4 * r3
    coords = [(0.5, 0.5), (0.5 + d, 0.25), (0.5 + d, 0.75), (0.0, 0.0)]
    g = make_graph(coords, [(1, 2), (0, 3)], lengths=[2000.0, 2000.0],
                   speeds=[60.0, 60.0])
    sc = scenario_for(g, start=3, exit_=0, epicenter=(0.99, 0.99), max_steps=99)
    st = dg.initial_state(g, [sc], sigma_frac=0.0)
    assert np.array_equal(st.weights[0], g.nominal_minutes())  # no edge hit
    dg.advance(st)  # t = 0: radius zero, nothing happens
    assert np.array_equal(st.weights[0], g.nominal_minutes())
    st.t = 3
    dg.advance(st)
    assert st.weights[0, 0] == pytest.approx(2.0 * math.sqrt(0.03 * 3 + 1))
    assert st.weights[0, 1] == 2.0


def test_step_traffic_mid_band_cap():
    # exit node at (0.05, 0.05); the edge centered 0.6 r away lies outside
    # the damage circle around (0.99, 0.99) even at t = 1000
    r = math.sqrt(0.00075 * 1000)
    d = 0.6 * r  # second band: 0.5 r < d <= 0.75 r
    coords = [(0.05, 0.05), (0.05 + d, 0.0), (0.05 + d, 0.1), (0.05, 0.3)]
    g = make_graph(coords, [(1, 2), (0, 3)])
    sc = scenario_for(g, start=3, exit_=0, epicenter=(0.99, 0.99), max_steps=9999)
    st = dg.initial_state(g, [sc], sigma_frac=0.0)
    assert dg.damage_radius(1000) < np.linalg.norm(dg.edge_centers(g) - 0.99, axis=1).min()
    st.weights[:] = [4.0, 1.0]
    st.t = 1000
    dg.advance(st)
    assert st.weights[0, 0] == 4.0  # already at the band cap
    assert st.weights[0, 1] == 5.0  # first band, capped at 5


def test_advance_monotone_weights():
    g = dg.synth_city(5, 5, seed=3)
    rng = np.random.default_rng(0)
    sc = dg.random_scenario(g, rng)
    st = dg.initial_state(g, [sc], sigma_frac=0.1)
    prev = st.weights.copy()
    for _ in range(30):
        dg.advance(st)
        assert (st.weights >= prev - 1e-15).all()
        prev = st.weights.copy()


def test_two_advances_match_pure_python_replay():
    g = dg.synth_city(4, 4, seed=9)
    rng = np.random.default_rng(1)
    sc = dg.random_scenario(g, rng)
    st = dg.initial_state(g, [sc], sigma_frac=0.0)
    traj = [st.weights[0].copy()]
    for _ in range(2):
        dg.advance(st)
        traj.append(st.weights[0].copy())
    expected = replay_trajectory(g, sc.epicenter, sc.exits, g.nominal_minutes(), 2)
    for got, want in zip(traj, expected):
        assert np.allclose(got, want, atol=1e-12, rtol=0)


def test_locality_far_edges_untouched():
    g = dg.synth_city(6, 6, seed=5)
    sc = dg.Scenario(epicenter=(0.1, 0.1), start=14, exits=(0,),
                     chosen_exit=0, rng_seed=0, max_steps=100)
    st = dg.initial_state(g, [sc], sigma_frac=0.0)
    for _ in range(20):
        dg.advance(st)
    centers = dg.edge_centers(g)
    reach = max(dg.damage_radius(st.t), dg.exit_radius(st.t))
    d_epi = np.linalg.norm(centers - np.array(sc.epicenter), axis=1)
    d_exit = np.linalg.norm(centers - g.xy[0], axis=1)
    far = (d_epi > reach) & (d_exit > reach)
    assert far.any()
    assert np.array_equal(st.weights[0, far], g.nominal_minutes()[far])


def test_trajectory_determinism():
    g = dg.synth_city(5, 5, seed=2)
    sc = dg.random_scenario(g, np.random.default_rng(8))
    runs = []
    for _ in range(2):
        st = dg.initial_state(g, [sc], sigma_frac=0.1)
        for _ in range(10):
            dg.advance(st)
        runs.append(st.weights.copy())
    assert np.array_equal(runs[0], runs[1])


def test_synth_city_determinism_and_invariants():
    for n_rows, n_cols, seed in ((8, 8, 7), (3, 17, 2), (20, 20, 1), (30, 30, 0)):
        a = dg.synth_city(n_rows, n_cols, seed=seed)
        b = dg.synth_city(n_rows, n_cols, seed=seed)
        for name in ("xy", "edges", "length_m", "speed_kmh"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert (a.edges[:, 0] < a.edges[:, 1]).all()
        assert (np.diff(a.edges[:, 0] * a.n_nodes + a.edges[:, 1]) > 0).all()
        degrees = [a.degree(i) for i in range(a.n_nodes)]
        assert max(degrees) <= 5 and min(degrees) >= 1
        assert set(np.unique(a.speed_kmh)) <= {30.0, 40.0, 50.0}
        # connectivity by traversal
        seen = {0}
        stack = [0]
        adjacency = sorted_adjacency(a)
        while stack:
            u = stack.pop()
            for v, _ in adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    stack.append(v)
        assert len(seen) == a.n_nodes


@pytest.mark.parametrize("delete_frac", [0.0, 0.15, 1.0])
@pytest.mark.parametrize("shape", [(2, 2), (2, 5), (2, 12), (5, 2), (12, 2), (3, 7),
                                   (7, 3), (4, 11), (9, 6), (12, 10), (12, 12)])
def test_synth_city_matches_the_list_based_generator(shape, delete_frac):
    for seed in range(4):
        fast = dg.synth_city(*shape, seed, delete_frac=delete_frac)
        slow = reference_synth_city(*shape, seed, delete_frac=delete_frac)
        for name in ("xy", "edges", "length_m", "speed_kmh"):
            a, b = getattr(fast, name), getattr(slow, name)
            assert a.dtype == b.dtype and a.tobytes() == b.tobytes(), (seed, name)


def test_synth_city_minimal_and_errors():
    g = dg.synth_city(2, 2, seed=0)
    assert g.n_nodes == 4
    with pytest.raises(dg.GraphError):
        dg.synth_city(1, 5, seed=0)


def test_random_scenario_needs_a_node_that_is_not_an_exit():
    # each node is nearest to one exit anchor
    g = make_graph([(0.0, 0.0), (1.0, 0.0), (0.5, 1.0)], [(0, 1), (0, 2), (1, 2)])
    assert dg.pick_exits(g) == (0, 1, 2)
    with pytest.raises(dg.GraphError, match=r"every node of the graph is an exit \[0, 1, 2\]"):
        dg.random_scenario(g, np.random.default_rng(1))
    sc = dg.random_scenario(make_graph([*g.xy, (0.5, 0.5)], [(0, 3)]),
                            np.random.default_rng(1))
    assert (sc.start, sc.exits) == (3, (0, 1, 2))


def test_random_scenarios_draws_scenario_i_from_seed_and_i():
    g = dg.synth_city(4, 4, seed=1)
    scenarios = dg.random_scenarios(g, 5, seed=7)
    assert scenarios == [dg.random_scenario(g, np.random.default_rng(
        np.random.SeedSequence([7, i]))) for i in range(5)]
    assert dg.random_scenarios(g, 2, seed=7) == scenarios[:2]
    assert dg.random_scenarios(g, 1, seed=8) != scenarios[:1]
    for n in (0, -1):
        with pytest.raises(ValueError, match="^n_scenarios must be at least 1$"):
            dg.random_scenarios(g, n, seed=7)


def test_synth_city_clamps_degrees_to_the_feature_blocks():
    assert dg.MAX_DEGREE == 5
    for seed in range(3):
        g = dg.synth_city(6, 6, seed=seed, delete_frac=0.0)
        assert max(map(g.degree, range(g.n_nodes))) == dg.MAX_DEGREE


@pytest.mark.parametrize("frac", [float("nan"), -0.1, 1.5, float("inf")])
def test_synth_city_rejects_delete_frac_outside_unit_interval(frac):
    with pytest.raises(dg.GraphError, match="delete_frac must be in"):
        dg.synth_city(3, 3, seed=1, delete_frac=frac)


@pytest.mark.parametrize("span_m", [0.0, -5.0, float("nan"), float("inf")])
def test_synth_city_rejects_a_span_that_is_not_finite_and_positive(span_m):
    with pytest.raises(dg.GraphError, match="span_m must be finite and positive"):
        dg.synth_city(3, 3, seed=1, span_m=span_m)


def test_synth_city_delete_frac_ends():
    # 1 thins the grid down to a spanning tree; 0 deletes nothing
    assert dg.synth_city(3, 3, seed=1, delete_frac=1.0).n_edges == 8
    assert dg.synth_city(3, 3, seed=1, delete_frac=0.0).n_edges > 8


def test_base_travel_time():
    # a 1000-edge path of one-minute edges: 1000 m at 60 km/h
    n = 1001
    g = make_graph([(i / (n - 1), 0.5) for i in range(n)],
                   [(i, i + 1) for i in range(n - 1)],
                   lengths=[1000.0] * (n - 1), speeds=[60.0] * (n - 1))
    assert np.allclose(g.nominal_minutes(), 1.0)
    # every edge center lies beyond r = 0.5 of the epicenter (0, 0): no edge is hit
    sc = scenario_for(g, start=0, exit_=n - 1)
    assert np.array_equal(dg.initial_state(g, [sc], sigma_frac=0.0).weights[0],
                          g.nominal_minutes())
    draws = dg.initial_state(g, [scenario_for(g, start=0, seed=s) for s in range(10)],
                             sigma_frac=0.1).weights
    assert draws.shape == (10, n - 1)
    assert np.mean(draws) == pytest.approx(1.0, rel=0.02)
    assert draws.min() >= 0.1
    # a wide spread reaches the floor at 10% of nominal and stops there
    floor = 0.1 * g.nominal_minutes()
    wide = dg.initial_state(g, [sc], sigma_frac=1.0).weights[0]
    assert (wide >= floor).all()
    assert (wide == floor).any()


@pytest.mark.parametrize("field,value", [
    ("length_m", 0.0), ("length_m", -1.0), ("length_m", np.inf),
    ("speed_kmh", 0.0), ("speed_kmh", -30.0), ("speed_kmh", np.nan),
])
def test_graph_rejects_bad_edge_data(tmp_path, field, value):
    g = dg.synth_city(3, 3, seed=2)
    path = tmp_path / "g.json"
    dg.save_graph(g, path)
    doc = json.loads(path.read_text())
    doc["edges"][1][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(dg.GraphError):
        dg.load_graph(path)


def test_graph_rejects_edge_data_of_wrong_length():
    with pytest.raises(dg.GraphError):
        make_graph([(0, 0), (1, 1), (0, 1)], [(0, 1), (1, 2)], lengths=[100.0])


def test_scenario_validation():
    with pytest.raises(dg.GraphError):
        dg.Scenario(epicenter=(1.5, 0.5), start=0, exits=(1,), chosen_exit=1,
                    rng_seed=0, max_steps=10)
    with pytest.raises(dg.GraphError):
        dg.Scenario(epicenter=(0.5, 0.5), start=1, exits=(1,), chosen_exit=1,
                    rng_seed=0, max_steps=10)
    with pytest.raises(dg.GraphError):
        dg.Scenario(epicenter=(0.5, 0.5), start=0, exits=(1,), chosen_exit=2,
                    rng_seed=0, max_steps=10)
    with pytest.raises(dg.GraphError, match="repeat"):
        dg.Scenario(epicenter=(0.5, 0.5), start=0, exits=(1, 2, 2), chosen_exit=2,
                    rng_seed=0, max_steps=10)


@pytest.mark.parametrize("start, exit_", [(0, 3), (0, -1), (3, 2), (-1, 2)])
def test_scenario_nodes_must_be_graph_nodes(line3, start, exit_):
    sc = scenario_for(line3, start=start, exit_=exit_)
    with pytest.raises(dg.GraphError, match="node indices 0-2"):
        dg.initial_state(line3, [scenario_for(line3), sc])


def test_graph_and_scenario_files_roundtrip(tmp_path):
    g = dg.synth_city(4, 5, seed=1)
    path = tmp_path / "g.json"
    dg.save_graph(g, path)
    g2 = dg.load_graph(path)
    assert np.array_equal(g.xy, g2.xy)
    assert np.array_equal(g.edges, g2.edges)
    assert np.array_equal(g.length_m, g2.length_m)
    assert np.array_equal(g.speed_kmh, g2.speed_kmh)
    sc = dg.random_scenario(g, np.random.default_rng(4))
    spath = tmp_path / "s.json"
    dg.save_scenario(sc, spath)
    assert dg.load_scenario(spath, g) == sc


@pytest.mark.parametrize("sigma_frac", [np.nan, np.inf, -0.5])
def test_initial_state_rejects_bad_sigma_frac(line3, sigma_frac):
    with pytest.raises(dg.GraphError, match="sigma_frac"):
        dg.initial_state(line3, [scenario_for(line3)], sigma_frac=sigma_frac)


def test_world_rows_evolve_as_worlds_of_their_own():
    """One advance steps every row of a world exactly as a one-row world steps
    its scenario, with rows of different exit counts and after rows are dropped."""
    g = dg.synth_city(6, 6, seed=4)
    rng = np.random.default_rng(2)
    scenarios = [dg.random_scenario(g, rng) for _ in range(5)]
    scenarios[1] = dg.Scenario(epicenter=(0.2, 0.7), start=14, exits=(3,),
                               chosen_exit=3, rng_seed=5, max_steps=40)
    world = dg.initial_state(g, scenarios, sigma_frac=0.1)
    alone = [dg.initial_state(g, [sc], sigma_frac=0.1) for sc in scenarios]
    rows = np.arange(len(scenarios))
    for step in range(12):
        dg.advance(world)
        for st in alone:
            dg.advance(st)
        for k, i in enumerate(rows):
            assert np.array_equal(world.weights[k], alone[i].weights[0])
        if step in (3, 7):  # drop a row each time
            keep = np.arange(len(rows)) != 1
            world.keep(keep)
            rows = rows[keep]
    assert [scenarios[i] for i in rows] == list(world.scenarios)
    assert world.weights.shape == (3, g.n_edges) and world.t == 12


def test_advance_past_the_budget_equals_a_world_with_a_larger_one():
    """advance ignores max_steps (lockstep ends rollouts on it): rows past
    their budgets evolve bit for bit as the same rows with a larger one."""
    g = dg.synth_city(5, 5, seed=3)
    sc = dataclasses.replace(dg.random_scenario(g, np.random.default_rng(0)), max_steps=3)
    spent = dg.initial_state(g, [sc, dataclasses.replace(sc, max_steps=1)])
    roomy = dg.initial_state(g, [dataclasses.replace(sc, max_steps=100)] * 2)
    for _ in range(20):
        dg.advance(spent)
        dg.advance(roomy)
    assert spent.t == roomy.t == 20
    assert np.array_equal(spent.weights, roomy.weights)


def _shift_node_ids(doc):
    for node in doc["nodes"]:
        node["id"] += 100
    for edge in doc["edges"]:
        edge["u"] += 100
        edge["v"] += 100


@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc["edges"][2].update(v=999), "edge end 999 is not a node 0-8"),
    (lambda doc: doc["nodes"][4].update(id=1), r"nodes\[4\]\.id is 1, not its position 4"),
    (_shift_node_ids, r"nodes\[0\]\.id is 100, not its position 0"),
], ids=["unknown", "repeated", "shifted"])
def test_graph_rejects_unknown_or_repeated_node_ids(tmp_path, edit, message):
    """A node id is the node's position in ``nodes``; edges name those positions."""
    path = tmp_path / "g.json"
    dg.save_graph(dg.synth_city(3, 3, seed=2), path)
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(dg.GraphError, match=message) as info:
        dg.load_graph(path)
    assert str(info.value).count(str(path)) == 1


def test_graph_file_that_is_not_utf8_names_the_file(tmp_path):
    path = tmp_path / "g.json"
    path.write_bytes(b'{"nodes": [], "edges": []\xff}')
    with pytest.raises(dg.GraphError, match="can't decode byte 0xff") as info:
        dg.load_graph(path)
    assert str(info.value).startswith(f"{path}: ")
