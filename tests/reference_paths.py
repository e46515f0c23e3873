"""Minimal paths by enumerating every path and filtering: the reference for
the pruned walk of ``cells.minimal_paths``."""


def paths(g, j, i):
    """All directed paths from j to i, each as the full vertex sequence, in
    depth-first order over ``g.successors``."""
    if j == i:
        return [(j,)]
    out = []
    for mid in g.successors(j):
        for tail in paths(g, mid, i):
            out.append((j,) + tail)
    return out


def is_minimal_path(g, path):
    """No edge of the digraph may join two non-consecutive path vertices."""
    for a in range(len(path)):
        for b in range(a + 2, len(path)):
            if (path[a], path[b]) in g.edges:
                return False
    return True


def minimal_paths(g, j, i):
    return [p for p in paths(g, j, i) if is_minimal_path(g, p)]
