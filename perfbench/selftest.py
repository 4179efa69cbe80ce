"""Tiny negative self-tests: the checks must reject corrupted results.

Run with ``python3 perfbench/selftest.py``; every measuring run also runs
them first and reports a failure as an incorrect result.
"""

from __future__ import annotations

import sys

import numpy as np

from check import Reference, canonical

#: Two components: a weighted 5-cycle with a chord, and one edge.
N = 7
EDGES = [(0, 1, 4), (1, 2, 1), (2, 3, 6), (3, 4, 2), (4, 0, 3), (1, 3, 5),
         (5, 6, 7)]


def _reference() -> Reference:
    u, v, w = (np.array(col) for col in zip(*EDGES))
    # Both directed halves, as the program's edge lists store them.
    return Reference(N, *canonical(N, np.r_[u, v], np.r_[v, u],
                                   np.r_[w, w]))


def failures() -> list:
    """Descriptions of every self-test that did not behave; [] when fine."""
    ref = _reference()
    out = []
    # scipy's forest: (1,2,1) (3,4,2) (4,0,3) (0,1,4) (5,6,7) -> 17.
    msf = [(1, 2, 1), (3, 4, 2), (4, 0, 3), (0, 1, 4), (5, 6, 7)]
    if ref.weight != 17 or ref.n_components != 2:
        out.append(f"reference weight {ref.weight}, components "
                   f"{ref.n_components}; expected 17 and 2")
    if ref.forest_errors(*zip(*msf)):
        out.append(f"a correct forest was rejected: "
                   f"{ref.forest_errors(*zip(*msf))}")
    # Swap forest edge (0,1,4) for the heavier (1,3,5): still a spanning
    # tree of the component, but not minimum.
    swapped = [e for e in msf if e != (0, 1, 4)] + [(1, 3, 5)]
    if not ref.forest_errors(*zip(*swapped)):
        out.append("a forest with one edge swapped for a heavier one "
                   "passed")
    # A cycle plus a missing edge keeps the edge count right.
    cyclic = [e for e in msf if e != (5, 6, 7)] + [(2, 3, 6)]
    if not any("cycle" in e for e in ref.forest_errors(*zip(*cyclic))):
        out.append("a forest with a cycle passed")
    relabelled = [(1, 2, 1), (3, 4, 2), (4, 0, 3), (0, 1, 9), (5, 6, 7)]
    if not ref.forest_errors(*zip(*relabelled)):
        out.append("a forest edge with a wrong weight passed")
    if ref.answer_errors(0, 1, True, True):
        out.append("a correct edge_in_msf answer was rejected")
    if not ref.answer_errors(0, 1, True, False):
        out.append("a flipped in_msf answer passed")
    if not ref.answer_errors(0, 2, True, False):
        out.append("a wrong present answer passed")
    return out


if __name__ == "__main__":
    problems = failures()
    print("\n".join(problems) or "self-tests passed")
    sys.exit(1 if problems else 0)
