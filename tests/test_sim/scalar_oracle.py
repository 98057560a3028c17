"""Per-route scalar reference for the Step C timing kernel.

:class:`ScalarPhaseTimingModel` charges links and prices queueing one
route hop at a time, the historical Python-loop form of the model. It
shares classification, migration charging, the fixed point and the
replication penalty with :class:`~repro.sim.timing.PhaseTimingModel`
and overrides only the two kernel stages (:meth:`_build_loads` and
:meth:`_amat_at`), so the golden equivalence suite and the kernel
microbenchmark compare exactly the array kernel against this oracle.
"""

from typing import Optional

from repro.interconnect.loads import MESSAGE_HEADER_BYTES, LinkLoads
from repro.migration.records import MigrationBatch
from repro.sim.classification import PhaseClassification
from repro.sim.engine import Simulator
from repro.sim.timing import (
    BT_POOL_CONTENTION_FACTOR,
    TRACKER_BYTES_PER_ACCESS,
    PhaseTimingModel,
)
from repro.topology.model import POOL_LOCATION, AccessType, LinkKind
from repro.topology.routing import Route
from repro.trace.records import PhaseTrace


class ScalarPhaseTimingModel(PhaseTimingModel):
    """Step C with per-route loops in place of the array kernel."""

    def _build_loads(self, classification: PhaseClassification,
                     batch: Optional[MigrationBatch]) -> LinkLoads:
        loads = LinkLoads(self.topology, burstiness=self.settings.burstiness)
        n_sockets = classification.n_sockets

        for socket in range(n_sockets):
            for column in range(n_sockets + 1):
                count = classification.demand[socket, column]
                if count <= 0:
                    continue
                location = self._location_of_column(column)
                if location == POOL_LOCATION and not self.topology.has_pool:
                    raise ValueError("pool accesses on a pool-less system")
                writes = classification.demand_writes[socket, column]
                loads.add_access_traffic(
                    self.routes.route(socket, location),
                    accesses=count,
                    writeback_fraction=writes / count,
                )

            # Socket-homed block transfers: the dominant data hop runs
            # owner -> requester; we charge it along the requester<->home
            # route as a proxy for the averaged three-leg path.
            for home in range(n_sockets):
                count = classification.bt_socket[socket, home]
                if count <= 0 or home == socket:
                    continue
                loads.add_transfer_traffic(
                    self.routes.route(socket, home)[:-1],  # no DRAM hop
                    transfers=count,
                )

        if self.topology.has_pool:
            for socket in range(n_sockets):
                down = classification.bt_pool[socket]
                up = classification.bt_pool_owner[socket]
                if down <= 0 and up <= 0:
                    continue
                cxl = self.routes.route(socket, POOL_LOCATION)[0]
                # Data to the requester flows pool -> socket (reverse of
                # the request route); the owner's supply flows socket ->
                # pool (forward).
                loads.add(cxl.reversed(), down * (64 + MESSAGE_HEADER_BYTES))
                loads.add(cxl, up * (64 + MESSAGE_HEADER_BYTES))

            # Tracker-update traffic (StarNUMA's monitoring hardware).
            for socket in range(n_sockets):
                issued = float(classification.demand[socket].sum()
                               + classification.bt_socket[socket].sum()
                               + classification.bt_pool[socket])
                dram = self.routes.route(socket, socket)[0]
                loads.add(dram, issued * TRACKER_BYTES_PER_ACCESS)

        if batch is not None:
            self._charge_migrations(loads, batch)
        return loads

    def _route_delay_ns(self, route: Route, loads: LinkLoads,
                        window_ns: float) -> float:
        """Request+fill queueing along a route; DRAM queues counted once."""
        total = 0.0
        for hop in route:
            if hop.link.kind is LinkKind.DRAM:
                total += loads.delay_ns(hop, window_ns)
            else:
                total += loads.delay_ns(hop, window_ns)
                total += loads.delay_ns(hop.reversed(), window_ns)
        return total

    def _amat_at(self, ipc: float, trace: PhaseTrace,
                 classification: PhaseClassification, loads: LinkLoads,
                 stall_per_access: float, weights: tuple) -> tuple:
        """Per-route pricing; ignores the array kernel's ``weights``."""
        window = self._duration_ns(ipc, trace)
        latency = self.system.latency
        n_sockets = classification.n_sockets

        weighted_loaded = 0.0
        weighted_unloaded = 0.0

        for socket in range(n_sockets):
            for column in range(n_sockets + 1):
                count = classification.demand[socket, column]
                if count <= 0:
                    continue
                location = self._location_of_column(column)
                kind = self.topology.classify(socket, location)
                unloaded = (self.topology.unloaded_latency_ns(kind)
                            + self.routes.detour_penalty_ns(socket, location))
                route = self.routes.route(socket, location)
                loaded = unloaded + self._route_delay_ns(route, loads, window)
                weighted_loaded += count * loaded
                weighted_unloaded += count * unloaded

            for home in range(n_sockets):
                count = classification.bt_socket[socket, home]
                if count <= 0:
                    continue
                unloaded = self.topology.unloaded_latency_ns(
                    AccessType.BLOCK_TRANSFER_SOCKET
                )
                if home == socket:
                    contention = 0.0
                else:
                    contention = self._route_delay_ns(
                        self.routes.route(socket, home)[:-1], loads, window
                    )
                weighted_loaded += count * (unloaded + contention)
                weighted_unloaded += count * unloaded

            count = classification.bt_pool[socket]
            if count > 0:
                unloaded = self.topology.unloaded_latency_ns(
                    AccessType.BLOCK_TRANSFER_POOL
                )
                contention = BT_POOL_CONTENTION_FACTOR * self._route_delay_ns(
                    self.routes.route(socket, POOL_LOCATION), loads, window
                )
                weighted_loaded += count * (unloaded + contention)
                weighted_unloaded += count * unloaded

        total = classification.total_accesses
        if total == 0:
            local = latency.local_ns
            return local, local
        amat = weighted_loaded / total + stall_per_access
        unloaded_amat = weighted_unloaded / total
        return self._apply_replication_penalty(classification, total,
                                               amat, unloaded_amat)


class ScalarSimulator(Simulator):
    """A :class:`~repro.sim.engine.Simulator` whose Step C is the oracle."""

    timing_model = ScalarPhaseTimingModel
