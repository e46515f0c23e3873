"""Set reachability by augmenting-path bipartite matching: the reference for
the subset recursion of ``reach._reachable_subsets``.

The closure of each vertex is a set, built from the digraph's edge set, and
``matchable`` pairs sources with reachable targets one augmenting path at a
time.
"""

import itertools


def reach_closure(g):
    """Vertex -> frozenset of the vertices it reaches, itself included."""
    closure = {}
    # edges increase the index: the heads of j's edges are resolved first
    for j in range(g.n, 0, -1):
        reached = {j}
        for a, i in g.edges:
            if a == j:
                reached |= closure[i]
        closure[j] = frozenset(reached)
    return closure


def matchable(closure, sources, targets):
    """True when the equal-size ``targets`` are reachable from ``sources``:
    a perfect matching of sources to targets they reach."""
    sources, targets = tuple(sources), tuple(targets)
    assert len(sources) == len(targets)
    adjacency = [[t for t, target in enumerate(targets) if target in closure[source]]
                 for source in sources]
    matched_target = [-1] * len(targets)

    def augment(s, seen):
        for t in adjacency[s]:
            if not seen[t]:
                seen[t] = True
                if matched_target[t] == -1 or augment(matched_target[t], seen):
                    matched_target[t] = s
                    return True
        return False

    return all(augment(s, [False] * len(targets)) for s in range(len(sources)))


def j_family(g, j):
    """Ascending j-tuples of vertices of ``g`` reachable from [j]."""
    closure = reach_closure(g)
    initial = tuple(range(1, j + 1))
    return {combo for combo in itertools.combinations(range(1, g.n + 1), j)
            if matchable(closure, initial, combo)}
