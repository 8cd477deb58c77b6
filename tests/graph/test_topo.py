"""Tests for topological sorting and cycle detection."""

import pytest

from repro.graph import CycleError, DiGraph, find_cycle, is_acyclic, topological_sort


def _assert_valid_topo(graph, order):
    position = {node: i for i, node in enumerate(order)}
    assert sorted(map(str, order)) == sorted(map(str, graph.nodes()))
    for src, dst in graph.edges():
        assert position[src] < position[dst]


def test_empty():
    assert topological_sort(DiGraph()) == []


def test_chain():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 3)])
    assert topological_sort(g) == [1, 2, 3]


def test_diamond_valid():
    g = DiGraph()
    g.add_edges([("a", "b"), ("a", "c"), ("b", "d"), ("c", "d")])
    _assert_valid_topo(g, topological_sort(g))


def test_cycle_raises():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 1)])
    with pytest.raises(CycleError):
        topological_sort(g)


def test_self_loop_raises():
    g = DiGraph()
    g.add_edge("a", "a")
    with pytest.raises(CycleError):
        topological_sort(g)


def test_is_acyclic():
    g = DiGraph()
    g.add_edges([(1, 2), (2, 3)])
    assert is_acyclic(g)
    g.add_edge(3, 1)
    assert not is_acyclic(g)


def test_deterministic_order():
    def build():
        g = DiGraph()
        g.add_edges([("a", "x"), ("a", "y"), ("a", "z")])
        return g

    assert topological_sort(build()) == topological_sort(build())


class TestFindCycle:
    def test_acyclic_returns_none(self):
        g = DiGraph()
        g.add_edges([(1, 2), (2, 3), (1, 3)])
        assert find_cycle(g) is None

    def test_finds_simple_cycle(self):
        g = DiGraph()
        g.add_edges([(1, 2), (2, 3), (3, 1)])
        cycle = find_cycle(g)
        assert cycle is not None
        assert cycle[0] == cycle[-1]
        for a, b in zip(cycle, cycle[1:]):
            assert g.has_edge(a, b)

    def test_finds_self_loop(self):
        g = DiGraph()
        g.add_edge("s", "s")
        cycle = find_cycle(g)
        assert cycle == ["s", "s"]

    def test_cycle_reachable_only_from_tail(self):
        g = DiGraph()
        g.add_edges([("start", "a"), ("a", "b"), ("b", "c"), ("c", "a")])
        cycle = find_cycle(g)
        assert cycle is not None
        assert set(cycle) <= {"a", "b", "c"}


class _CountingGraph(DiGraph):
    """Counts ``nodes()`` calls, each of which is a full node walk."""

    def __init__(self):
        super().__init__()
        self.node_walks = 0

    def nodes(self):
        self.node_walks += 1
        return super().nodes()


def _chain_of(n):
    graph = _CountingGraph()
    for i in range(n - 1):
        graph.add_edge(i, i + 1)
    return graph


def test_node_walks_do_not_grow_with_size():
    """The tie-break positions are computed once per sort, not once per
    popped node (which made the sort quadratic)."""
    walks = []
    for n in (10, 1000):
        graph = _chain_of(n)
        topological_sort(graph)
        walks.append(graph.node_walks)
    assert walks[0] == walks[1]


def _reference_topological_sort(graph):
    """The sort as first written: positions rebuilt per popped node."""
    from collections import deque

    def stable_key(graph):
        positions = {node: i for i, node in enumerate(graph.nodes())}
        return positions.__getitem__

    in_deg = {node: graph.in_degree(node) for node in graph.nodes()}
    queue = deque(node for node in graph.nodes() if in_deg[node] == 0)
    order = []
    while queue:
        node = queue.popleft()
        order.append(node)
        for succ in sorted(graph.successors(node), key=stable_key(graph)):
            in_deg[succ] -= 1
            if in_deg[succ] == 0:
                queue.append(succ)
    return order


def test_order_matches_reference_on_random_dags():
    import random

    rng = random.Random(12)
    for _ in range(200):
        n = rng.randint(0, 30)
        labels = rng.sample(range(1000), n)  # insertion order != value order
        graph = DiGraph()
        graph.add_nodes(labels)
        for i in range(n):
            for j in range(i + 1, n):
                if rng.random() < 0.15:
                    graph.add_edge(labels[i], labels[j])
        assert topological_sort(graph) == _reference_topological_sort(graph)
