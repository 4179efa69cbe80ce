"""Independent MSF checks built on ``scipy.sparse.csgraph``.

Nothing here imports the program: the reference forest, its weight and
the component count come from scipy on the same input edges, and the
forest properties are checked with plain numpy.
"""

from __future__ import annotations

import numpy as np
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components, minimum_spanning_tree


def canonical(n: int, u, v, w):
    """Sorted pair codes ``min*n + max`` and the lightest weight per pair.

    Self loops are dropped and parallel edges (including the two directed
    halves of a symmetric edge list) collapse to one undirected edge.
    """
    u = np.asarray(u, dtype=np.int64)
    v = np.asarray(v, dtype=np.int64)
    w = np.asarray(w, dtype=np.int64)
    keep = u != v
    lo = np.minimum(u, v)[keep]
    hi = np.maximum(u, v)[keep]
    codes = lo * n + hi
    order = np.lexsort((w[keep], codes))
    codes, weights = codes[order], w[keep][order]
    first = np.ones(len(codes), dtype=bool)
    first[1:] = codes[1:] != codes[:-1]
    return codes[first], weights[first]


class Reference:
    """scipy's MSF of an undirected graph given as pair codes + weights."""

    def __init__(self, n: int, codes: np.ndarray, weights: np.ndarray):
        self.n = n
        self.codes = codes
        self.weights = weights
        graph = coo_matrix((weights.astype(np.float64),
                            (codes // n, codes % n)), shape=(n, n)).tocsr()
        tree = minimum_spanning_tree(graph).tocoo()
        self.n_components = int(connected_components(graph,
                                                     directed=False)[0])
        lo = np.minimum(tree.row, tree.col).astype(np.int64)
        hi = np.maximum(tree.row, tree.col).astype(np.int64)
        self.forest_codes = np.sort(lo * n + hi)
        self.weight = int(self._weight_of(self.forest_codes).sum())

    def _weight_of(self, codes: np.ndarray) -> np.ndarray:
        return self.weights[np.searchsorted(self.codes, codes)]

    def has(self, codes) -> np.ndarray:
        """Whether each pair code is an edge of the graph."""
        return _member(self.codes, codes)

    def in_msf(self, codes) -> np.ndarray:
        """Whether each pair code is an edge of scipy's forest."""
        return _member(self.forest_codes, codes)

    def answer_errors(self, u: int, v: int, present, in_msf) -> list:
        """Errors in one served ``edge_in_msf`` answer for pair {u, v}."""
        code = min(u, v) * self.n + max(u, v)
        errors = []
        if present is not bool(self.has([code])[0]):
            errors.append(f"present={present} for ({u}, {v})")
        if in_msf is not bool(self.in_msf([code])[0]):
            errors.append(f"in_msf={in_msf} for ({u}, {v})")
        return errors

    def forest_errors(self, fu, fv, fw) -> list:
        """Every way forest ``(fu, fv, fw)`` is not a minimum spanning forest.

        An empty list means: it has ``n - c`` edges, is acyclic, uses only
        input edges with their input weights, and weighs what scipy's
        forest weighs.
        """
        fu = np.asarray(fu, dtype=np.int64)
        fv = np.asarray(fv, dtype=np.int64)
        fw = np.asarray(fw, dtype=np.int64)
        errors = []
        expected = self.n - self.n_components
        if len(fu) != expected:
            errors.append(f"forest has {len(fu)} edges, expected "
                          f"n - c = {expected}")
        lo, hi = np.minimum(fu, fv), np.maximum(fu, fv)
        codes = lo * self.n + hi
        known = self.has(codes)
        if not known.all():
            errors.append(f"{int((~known).sum())} forest edges are not "
                          f"input edges")
        elif not np.array_equal(self._weight_of(codes), fw):
            errors.append("forest edge weights differ from the input's")
        if len(fu):
            forest = coo_matrix((np.ones(len(fu)), (lo, hi)),
                                shape=(self.n, self.n))
            parts = int(connected_components(forest, directed=False)[0])
            if self.n - parts != len(fu):
                errors.append("forest contains a cycle")
        if int(fw.sum()) != self.weight:
            errors.append(f"forest weight {int(fw.sum())} != scipy MSF "
                          f"weight {self.weight}")
        return errors


def _member(sorted_codes: np.ndarray, codes) -> np.ndarray:
    codes = np.asarray(codes, dtype=np.int64)
    pos = np.searchsorted(sorted_codes, codes)
    pos = np.minimum(pos, max(len(sorted_codes) - 1, 0))
    if not len(sorted_codes):
        return np.zeros(len(codes), dtype=bool)
    return sorted_codes[pos] == codes
