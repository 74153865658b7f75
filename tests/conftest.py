"""Shared corpora.

The main corpus is every connected simple graph on at most 7 vertices
(from the networkx atlas) plus 200 seeded loop-free multigraphs on 2..10
vertices. A small set of named graphs covers shapes the random corpus is
thin on, mainly high minimum degree at low density.
"""

import networkx as nx
import pytest

from arborkit import Graph, SplitMix64, derive_seed, fractional_arboricity, run_prooftrace

import helpers

MULTIGRAPH_BASE_SEED = 987654321


def _convert(nx_graph):
    nodes = sorted(nx_graph.nodes())
    index = {v: i for i, v in enumerate(nodes)}
    edges = sorted(tuple(sorted((index[u], index[v]))) for u, v in nx_graph.edges())
    return Graph(len(nodes), tuple(edges))


@pytest.fixture(scope="session")
def atlas_corpus():
    graphs = []
    for g in nx.graph_atlas_g():
        if g.number_of_nodes() == 0:
            continue
        if nx.is_connected(g):
            graphs.append(_convert(g))
    assert len(graphs) == 996
    return tuple(graphs)


def _random_multigraph(seed):
    rng = SplitMix64(seed)
    n = 2 + rng.below(9)
    m = 1 + rng.below(2 * n)
    edges = []
    for _ in range(m):
        u = rng.below(n)
        v = rng.below(n - 1)
        if v >= u:
            v += 1
        edges.append((u, v) if u < v else (v, u))
    return Graph(n, tuple(sorted(edges)))


@pytest.fixture(scope="session")
def multigraph_corpus():
    return tuple(
        _random_multigraph(derive_seed(MULTIGRAPH_BASE_SEED, i)) for i in range(200)
    )


@pytest.fixture(scope="session")
def corpus(atlas_corpus, multigraph_corpus):
    return atlas_corpus + multigraph_corpus


@pytest.fixture(scope="session")
def named_graphs():
    return {
        "k4": helpers.complete_graph(4),
        "k5": helpers.complete_graph(5),
        "k33": helpers.complete_bipartite(3, 3),
        "petersen": helpers.petersen(),
        "cube": helpers.cube(),
        "prism": helpers.prism(),
        "wheel5": helpers.wheel(5),
        "wheel6": helpers.wheel(6),
        "c6": helpers.cycle(6),
        "c7": helpers.cycle(7),
        "c8": helpers.cycle(8),
        "p8": helpers.path(8),
        "star5": helpers.star(5),
        "doubled_c4": helpers.doubled_cycle(4),
    }


class CorpusCache:
    """Lazily computed per-graph values shared across acceptance tests."""

    def __init__(self, graphs):
        self.graphs = graphs
        self._frac = {}
        self._prooftrace = {}

    def frac(self, idx):
        if idx not in self._frac:
            self._frac[idx] = fractional_arboricity(self.graphs[idx]).value
        return self._frac[idx]

    def prooftrace(self, idx, k):
        if (idx, k) not in self._prooftrace:
            self._prooftrace[idx, k] = run_prooftrace(self.graphs[idx], k)
        return self._prooftrace[idx, k]


@pytest.fixture(scope="session")
def corpus_cache(corpus):
    return CorpusCache(corpus)
