"""`numastat`-style per-node allocation statistics.

The real tool reports, per NUMA node, how many allocations were
satisfied locally vs. remotely and how interleaving distributed pages.
This emulation derives the same counters from a
:class:`~repro.numa.pages.PageTable` plus the task→node mapping, which
makes placement bugs (membind hotspots, first-touch-after-migrate)
visible exactly the way operators of the paper's systems saw them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, Mapping

if TYPE_CHECKING:
    from .pages import PageTable

__all__ = ["NodeStats", "numastat", "remote_fraction"]


@dataclass
class NodeStats:
    """Counters for one NUMA node (all units: pages)."""

    numa_hit: int = 0      # allocations that landed on the preferred node
    numa_miss: int = 0     # allocations forced onto this node from others
    local_node: int = 0    # pages used by tasks running on this node
    other_node: int = 0    # pages on this node used by remote tasks
    interleave_hit: int = 0

    @property
    def total_pages(self) -> int:
        return self.local_node + self.other_node


def numastat(table: PageTable,
             task_nodes: Mapping[int, int]) -> Dict[int, NodeStats]:
    """Per-node statistics for all regions in ``table``.

    ``task_nodes`` maps each task id to the node its CPU binding lives
    on (the "preferred" node of its allocations).  Tasks missing from
    the mapping raise — silent defaults would hide placement bugs.
    """
    stats: Dict[int, NodeStats] = {
        node: NodeStats() for node in range(table.num_nodes)
    }
    for region in table.regions:
        try:
            home = task_nodes[region.task]
        except KeyError:
            raise ValueError(
                f"task {region.task} has pages but no CPU node mapping"
            ) from None
        histogram = region.node_histogram()
        distinct = len(histogram)
        for node, pages in histogram.items():
            entry = stats[node]
            if node == home:
                entry.numa_hit += pages
                entry.local_node += pages
            else:
                entry.numa_miss += pages
                entry.other_node += pages
            if distinct > 1:
                entry.interleave_hit += pages
    return stats


def remote_fraction(stats: Mapping[int, NodeStats]) -> float:
    """Fraction of all resident pages that are remote to their task.

    The page-level analogue of the counter layer's DRAM
    remote-access ratio; the `repro-prof validate` table cross-checks
    the two against each other.
    """
    total = sum(entry.total_pages for entry in stats.values())
    remote = sum(entry.other_node for entry in stats.values())
    return remote / total if total else 0.0
