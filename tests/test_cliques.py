import random
from itertools import combinations

from hypothesis import given, settings
from hypothesis import strategies as st

from rinclose.chv import maximal_cliques


def adjacency(n, edges):
    """Neighbour bitmasks of the undirected graph on vertices 0..n-1."""
    adj = [0] * n
    for a, b in edges:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    return adj


def brute_force_cliques(n, edges):
    """Every maximal clique by subset enumeration; fine up to ~12 vertices."""
    eset = {frozenset(e) for e in edges}

    def is_clique(vs):
        return all(frozenset(p) in eset for p in combinations(vs, 2))

    cliques = [
        set(vs)
        for size in range(1, n + 1)
        for vs in combinations(range(n), size)
        if is_clique(vs)
    ]
    return sorted(
        tuple(sorted(c))
        for c in cliques
        if not any(c < d for d in cliques)
    )


def test_triangle():
    assert maximal_cliques(adjacency(3, [(0, 1), (1, 2), (0, 2)])) == [(0, 1, 2)]


def test_path_graph():
    assert maximal_cliques(adjacency(3, [(0, 1), (1, 2)])) == [(0, 1), (1, 2)]


def test_isolated_vertices_are_singletons():
    assert maximal_cliques(adjacency(4, [(1, 3)])) == [(0,), (1, 3), (2,)]


def test_empty_graph():
    assert maximal_cliques([]) == []
    assert maximal_cliques([0]) == [(0,)]


def test_two_triangles_sharing_a_vertex():
    adj = adjacency(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
    assert maximal_cliques(adj) == [(0, 1, 2), (2, 3, 4)]


def test_complete_graph_is_one_clique():
    n = 8
    assert maximal_cliques(adjacency(n, combinations(range(n), 2))) == [tuple(range(n))]


def test_a_clique_deeper_than_the_recursion_limit():
    # the search branches once per clique vertex, so a complete graph of
    # 1,100 vertices nests 1,100 calls, past Python's default limit of 1,000
    n = 1100
    full = (1 << n) - 1
    adj = [full ^ 1 << v for v in range(n)]
    assert maximal_cliques(adj) == [tuple(range(n))]


@st.composite
def graphs(draw, max_n):
    """Graphs of 1..max_n vertices, from empty to complete: each edge is kept
    with one drawn probability, so large graphs are not all sparse."""
    n = draw(st.integers(min_value=1, max_value=max_n))
    density = draw(st.floats(min_value=0.0, max_value=1.0))
    rnd = random.Random(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    return n, [e for e in combinations(range(n), 2) if rnd.random() < density]


@settings(max_examples=200, deadline=None)
@given(graphs(10))
def test_matches_brute_force(graph_spec):
    n, edges = graph_spec
    found = maximal_cliques(adjacency(n, edges))
    assert found == brute_force_cliques(n, edges)


@settings(max_examples=100, deadline=None)
@given(graphs(40))
def test_output_is_an_antichain_of_cliques_covering_all_vertices(graph_spec):
    # up to 40 vertices, beyond the brute force's reach; the chv extraction
    # builds graphs with one vertex per matrix column
    n, edges = graph_spec
    adj = adjacency(n, edges)
    out = maximal_cliques(adj)
    assert len(set(out)) == len(out)
    covered = set()
    for c in out:
        covered.update(c)
        for a, b in combinations(c, 2):
            assert adj[a] >> b & 1
        # maximal: no vertex outside c is adjacent to all of it
        mask = sum(1 << v for v in c)
        assert not any(adj[v] & mask == mask for v in range(n) if v not in c)
    assert covered == set(range(n))
    # no pairwise check is needed for the antichain: the cliques are
    # distinct and maximal, so if c were a proper subset of d, any vertex of
    # d outside c would be adjacent to all of c, which the check above rules out
