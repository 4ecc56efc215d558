"""Paper topologies and generators.

- :func:`fig1_line` — the three-core-node PolKA worked example (Fig. 1).
- :func:`global_p4_lab` — the emulated Global P4 Lab subset (Fig. 9) with
  the link capacities/delays of the Fig. 11/12 experiments.
- :func:`random_wan` — seeded connected WANs for stress/property tests.
- :func:`line_topology` / :func:`ring_topology` / :func:`fat_tree_topology`
  / :func:`random_geometric` — parametric families used by the scenario
  suite (:mod:`repro.scenarios`).
"""

from .paper import (
    FIG1_NODE_IDS,
    ROUTER_IPS,
    TUNNEL1,
    TUNNEL2,
    TUNNEL3,
    fig1_line,
    fig12_capacities,
    global_p4_lab,
)
from .generators import (
    fat_tree_topology,
    line_topology,
    random_geometric,
    random_wan,
    ring_topology,
)

__all__ = [
    "fig1_line",
    "FIG1_NODE_IDS",
    "global_p4_lab",
    "fig12_capacities",
    "ROUTER_IPS",
    "TUNNEL1",
    "TUNNEL2",
    "TUNNEL3",
    "line_topology",
    "ring_topology",
    "fat_tree_topology",
    "random_geometric",
    "random_wan",
]
