"""Common interface all KNN query protocols implement.

The experiment runner is protocol-agnostic: it installs a protocol on a
network, issues queries from arbitrary sink nodes, and consumes
:class:`~repro.core.query.QueryResult` objects via a completion callback.
DIKNN, KPT, Peer-tree and flooding all implement this interface.
"""

from __future__ import annotations

import abc
from typing import Callable, Dict, Optional, Set

from .query import KNNQuery, QueryResult
from ..net.network import Network
from ..net.node import SensorNode
from ..routing.base import Router

CompletionFn = Callable[[QueryResult], None]


class QueryProtocol(abc.ABC):
    """A KNN query processing protocol."""

    #: short name used in experiment tables
    name: str = "abstract"

    def __init__(self) -> None:
        self.network: Optional[Network] = None
        self.router: Optional[Router] = None
        self._pending: Dict[int, QueryResult] = {}
        self._callbacks: Dict[int, CompletionFn] = {}
        self._finalized: Set[int] = set()

    # -- lifecycle -------------------------------------------------------

    def install(self, network: Network, router: Router) -> None:
        """Attach to a network: register message handlers."""
        self.network = network
        self.router = router
        self._install_handlers()

    @abc.abstractmethod
    def _install_handlers(self) -> None:
        """Register protocol message kinds on the network/router."""

    def setup(self) -> None:
        """Build any long-lived structures (indexes, clusterheads).

        Called once after network warm-up; infrastructure-free protocols
        need not override.
        """

    # -- querying ----------------------------------------------------------

    @abc.abstractmethod
    def issue(self, sink: SensorNode, query: KNNQuery,
              on_complete: CompletionFn) -> None:
        """Issue ``query`` from ``sink``; ``on_complete`` fires at most once
        when the result returns to the sink."""

    # -- shared bookkeeping ---------------------------------------------------

    def _register_query(self, query: KNNQuery, sectors_total: int,
                        on_complete: CompletionFn) -> QueryResult:
        result = QueryResult(query=query, sectors_total=sectors_total)
        self._pending[query.query_id] = result
        self._callbacks[query.query_id] = on_complete
        return result

    def _result_of(self, query_id: int) -> Optional[QueryResult]:
        return self._pending.get(query_id)

    def _complete(self, query_id: int) -> None:
        result = self._pending.pop(query_id, None)
        callback = self._callbacks.pop(query_id, None)
        if result is None:
            return
        self._finalized.add(query_id)
        self._on_finalize(query_id)
        result.completed_at = self.network.sim.now
        for obs in self.network.sim.probe.protocol:
            obs.query_finalized(query_id, completed=True,
                                at=self.network.sim.now)
        if callback is not None:
            callback(result)

    def abandon(self, query_id: int) -> Optional[QueryResult]:
        """Give up on a query (runner timeout); returns the partial result.

        The query id is marked finalized: any protocol message still in
        flight for it (a late sector bundle, a watchdog retry) must be
        ignored on arrival rather than raise or mutate the delivered
        partial result.
        """
        self._callbacks.pop(query_id, None)
        result = self._pending.pop(query_id, None)
        if result is not None:
            self._finalized.add(query_id)
            self._on_finalize(query_id)
            for obs in self.network.sim.probe.protocol:
                obs.query_finalized(query_id, completed=False,
                                    at=self.network.sim.now)
        return result

    def _is_finalized(self, query_id: int) -> bool:
        """True once the query completed or was abandoned; late traffic
        for it must be dropped."""
        return query_id in self._finalized

    def _on_finalize(self, query_id: int) -> None:
        """Hook for protocols to cancel per-query timers/state when a
        query completes or is abandoned."""
