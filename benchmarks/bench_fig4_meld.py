"""E3 — Figure 4 / §IV-B: meld labelling as a standalone graph algorithm.

The paper bounds meld labelling at O(|E|·P).  This bench sweeps random
layered graphs (with back edges, so SCCs exist) of growing size and runs
the worklist fixpoint of :class:`MeldLabelling` with bitwise-or melding,
recording its cost and how few distinct labels the labelled nodes share.
"""

import random

import pytest

from repro.core.meld import MeldLabelling
from repro.datastructs.graph import DiGraph


def bitmask_labels(num_nodes: int, edges, prelabels):
    """Bit-mask labels of nodes ``0..num_nodes-1`` (ε = 0)."""
    graph = DiGraph()
    for node in range(num_nodes):
        graph.add_node(node)
    for src, dst in edges:
        graph.add_edge(src, dst)
    engine = MeldLabelling(graph, meld=int.__or__, identity=0)
    for node, mask in prelabels.items():
        engine.prelabel(node, mask)
    labels = engine.run()
    return [labels[node] for node in range(num_nodes)]


def _random_graph(num_nodes: int, fanout: int, back_edge_rate: float, seed: int):
    rng = random.Random(seed)
    edges = []
    for node in range(1, num_nodes):
        for __ in range(rng.randint(1, fanout)):
            edges.append((rng.randrange(node), node))  # forward edge
        if rng.random() < back_edge_rate:
            edges.append((node, rng.randrange(node)))  # back edge
    prelabels = {
        rng.randrange(num_nodes): 1 << i
        for i in range(max(2, num_nodes // 20))
    }
    return edges, prelabels


@pytest.mark.parametrize("num_nodes", [100, 1000, 5000, 20000])
def bench_meld_label_scaling(benchmark, num_nodes):
    edges, prelabels = _random_graph(num_nodes, fanout=3, back_edge_rate=0.1, seed=num_nodes)

    labels = benchmark.pedantic(
        lambda: bitmask_labels(num_nodes, edges, prelabels),
        rounds=1,
        iterations=1,
    )
    labelled = sum(1 for mask in labels if mask)
    distinct = len({mask for mask in labels if mask})
    benchmark.extra_info.update(
        nodes=num_nodes,
        edges=len(edges),
        prelabels=len(prelabels),
        labelled_nodes=labelled,
        distinct_labels=distinct,
    )
    # Figure 4's point: labelled nodes collapse into far fewer classes.
    assert distinct <= labelled


def bench_meld_figure4_example(benchmark):
    """The exact Figure 4 shape (pattern domain), timed for completeness."""
    edges = [(1, 3), (1, 4), (1, 6), (6, 7), (1, 5), (2, 5), (4, 8), (2, 8)]
    prelabels = {1: 0b01, 2: 0b10}

    labels = benchmark.pedantic(
        lambda: bitmask_labels(10, edges, prelabels), rounds=1, iterations=1
    )
    assert labels[4] == labels[7] == 0b01
    assert labels[5] == labels[8] == 0b11
    assert labels[9] == 0
