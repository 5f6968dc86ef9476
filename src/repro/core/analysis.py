"""The result of dependency inference: graph, anomalies, and evidence.

An :class:`Analysis` bundles the inferred direct serialization graph with
the non-cycle anomalies found along the way, plus *evidence*: for every edge
bit, the observation that justifies it.  Evidence is what turns a cycle into
a human-readable counterexample (Figure 2 of the paper).

Evidence storage is tiered for scale.  Value edges (ww/wr/rw) store one
record per ``(from, to, bit)`` — the justifying key and values genuinely
differ per edge.  Order edges (process/realtime/timestamp) would store
hundreds of thousands of identical records on a large history, so they are
*synthesized on demand* by :meth:`Analysis.edge_evidence`: the graph bit
plus the history already determine everything the record would say.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Tuple

from ..graph import EdgeLogGraph
from ..history import History, Transaction
from .anomalies import Anomaly
from .deps import ORDER_EDGES, PROCESS


class Evidence(NamedTuple):
    """Why an edge exists.

    ``kind`` is the dependency bit.  The remaining fields depend on the
    kind; for value edges ``key`` names the object and ``value`` the element
    or register value whose observation justified the edge.  ``via`` is the
    transaction whose read witnessed the relationship (for ww edges inferred
    from a third party's read).

    A ``NamedTuple`` rather than a dataclass: analyses carry one record per
    value edge, and durable service checkpoints pickle them, so cheap
    construction and fast pickling matter.
    """

    kind: int
    key: Any = None
    value: Any = None
    prev_value: Any = None
    via: Optional[int] = None
    process: Optional[int] = None


EdgeKey = Tuple[int, int, int]  # (from_txn, to_txn, dependency_bit)


@dataclass
class Analysis:
    """Everything inferred from one observation.

    ``graph`` is the inferred direct serialization graph over transaction
    ids.  ``anomalies`` holds the *non-cycle* anomalies found during
    inference; cycle anomalies are found later by
    :mod:`repro.core.cycle_search` on this graph.  ``evidence`` maps
    ``(from, to, bit)`` to the :class:`Evidence` justifying that bit (value
    edges only; order-edge evidence is synthesized by
    :meth:`edge_evidence`).
    """

    history: History
    workload: str
    graph: EdgeLogGraph = field(default_factory=EdgeLogGraph)
    anomalies: List[Anomaly] = field(default_factory=list)
    evidence: Dict[EdgeKey, Evidence] = field(default_factory=dict)

    def txn(self, txn_id: int) -> Transaction:
        return self.history[txn_id]

    def add_edge(self, u: int, v: int, evidence: Evidence) -> None:
        """Record a dependency edge with its justification.

        Self-edges are dropped: serialization graphs relate distinct
        transactions (the paper keeps Adya's definitions but assumes
        ``Ti != Tj``).
        """
        if u == v:
            return
        self.graph.add_edge(u, v, evidence.kind)
        self.evidence.setdefault((u, v, evidence.kind), evidence)

    def add_order_edges(
        self, pairs: Iterable[Tuple[int, int]], evidence: Evidence
    ) -> None:
        """Bulk-record order edges sharing one justification shape.

        Order-derived dependencies (process / realtime / timestamp) carry
        evidence fully determined by their kind and endpoints, so nothing is
        stored per pair — :meth:`edge_evidence` synthesizes the record on
        demand — and the graph edges go in through the bulk path.
        Self-edges are dropped as in :meth:`add_edge`.  Kinds outside
        :data:`~repro.core.deps.ORDER_EDGES` fall back to per-pair storage.
        """
        kind = evidence.kind
        us: List[int] = []
        vs: List[int] = []
        for u, v in pairs:
            if u != v:
                us.append(u)
                vs.append(v)
        self.graph.add_edge_arrays(us, vs, kind)
        if not kind & ORDER_EDGES:
            setdefault = self.evidence.setdefault
            for u, v in zip(us, vs):
                setdefault((u, v, kind), evidence)

    def add_order_edge_arrays(
        self, us: List[int], vs: List[int], kind: int
    ) -> None:
        """Bulk order edges as parallel endpoint arrays (no self-pairs).

        The columnar twin of :meth:`add_order_edges` for callers that
        already hold flat id arrays and guarantee ``us[i] != vs[i]``; the
        kind must be one of :data:`~repro.core.deps.ORDER_EDGES`, whose
        evidence is synthesized on demand.
        """
        self.graph.add_edge_arrays(us, vs, kind)

    def edge_evidence(self, u: int, v: int, bit: int) -> Optional[Evidence]:
        ev = self.evidence.get((u, v, bit))
        if ev is not None:
            return ev
        if bit & ORDER_EDGES and self.graph.has_edge(u, v, bit):
            if bit == PROCESS:
                return Evidence(kind=PROCESS, process=self.history[u].process)
            return Evidence(kind=bit)
        return None

    def merge(self, other: "Analysis") -> "Analysis":
        """Fold another analysis (same history) into this one."""
        self.graph.union(other.graph)
        self.anomalies.extend(other.anomalies)
        for key, value in other.evidence.items():
            self.evidence.setdefault(key, value)
        return self
