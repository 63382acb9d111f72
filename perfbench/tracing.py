"""Per-layer exclusive time, measured from outside the program.

:class:`Tracer` wraps the public functions at each layer boundary of
``repro`` (class attributes and module functions, patched before any
simulation is built) and charges host time to the innermost open span:
entering a span stops the clock of the span below it, leaving it restarts
that clock. A layer's self time is therefore its span time minus the time
of the spans it called, and the self times of all layers plus the time
outside any layer span sum to the traced wall time exactly.

Kernel events are charged by ownership: every callback handed to
``Simulator.schedule_at`` runs inside a span of the layer whose module
defined it (a MAC delivery closure is ``mac``, a fault-injector crash is
``faults``, a ``QueryService`` timer is ``service``). Message handlers
registered through ``SensorNode.on`` (``Network.register_handler``) and
``GpsrRouter.on_deliver``/``on_hop``, and completion callbacks passed to
``DIKNNProtocol.issue``, are charged the same way. Callbacks defined by
the benchmark itself belong to no layer; their time is part of
``bench.unattributed_s``.

The wrappers only read the clock and count calls, so a traced run must
execute the same events and produce the same answers as an untraced one;
``run.py`` checks that by comparing the digests of untraced and traced runs.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
from collections import Counter
from time import perf_counter
from typing import Callable, Dict, List, Optional

#: layer name -> module prefixes it owns (the longest prefix wins)
LAYER_MODULES: Dict[str, tuple] = {
    "sim": ("repro.sim",),
    "beacons": ("repro.net.beacons", "repro.net.neighbor_store"),
    "mac": ("repro.net.mac", "repro.net.txindex", "repro.net.radio"),
    "network": ("repro.net",),
    "energy": ("repro.net.energy",),
    "gpsr": ("repro.routing",),
    "diknn": ("repro.core",),
    "service": ("repro.service",),
    "faults": ("repro.faults",),
    "obs": ("repro.obs",),
    "metrics": ("repro.metrics",),
    "setup": ("repro.experiments", "repro.deploy"),
}
LAYERS = tuple(LAYER_MODULES)

#: (module, class, methods, layer): the timed public boundaries
METHOD_BOUNDARIES = (
    ("repro.sim.engine", "Simulator", ("run", "step"), "sim"),
    ("repro.net.beacons", "BatchedBeaconEngine",
     ("flush", "sync_node_table", "sweep_evict"), "beacons"),
    ("repro.net.mac", "MacLayer", ("transmit",), "mac"),
    ("repro.net.network", "Network", ("send",), "network"),
    ("repro.net.node", "SensorNode", ("handle",), "network"),
    ("repro.net.energy", "EnergyLedger",
     ("charge_tx", "charge_rx", "charge_tx_repeated", "charge_rx_repeated",
      "charge_idle"), "energy"),
    ("repro.routing.gpsr", "GpsrRouter", ("send",), "gpsr"),
    ("repro.service.service", "QueryService", ("submit",), "service"),
    ("repro.experiments.config", "SimulationHandle", ("warm_up",), "setup"),
)

#: (module, function, layer): module-level boundaries, replaced in every
#: loaded ``repro`` module that imported them by name
FUNCTION_BOUNDARIES = (
    ("repro.metrics.oracle", "true_knn", "metrics"),
    ("repro.metrics.accuracy", "pre_accuracy", "metrics"),
    ("repro.metrics.accuracy", "post_accuracy", "metrics"),
    ("repro.experiments.config", "build_simulation", "setup"),
)

#: inclusive span durations kept under these names
INCLUSIVE = {"build_simulation": "setup.build_s",
             "warm_up": "setup.warmup_s"}


class Tracer:
    """Exclusive-time accountant over a stack of layer spans."""

    def __init__(self) -> None:
        self.self_s: Dict[Optional[str], float] = {None: 0.0}
        self.self_s.update((layer, 0.0) for layer in LAYERS)
        self.calls: Counter = Counter()
        self.inclusive: Dict[str, float] = {}
        self.home_offsets_m: List[float] = []
        self._stack: List[Optional[str]] = []
        self._mark = 0.0
        self._layer_cache: Dict[str, Optional[str]] = {}

    # -- the span stack -----------------------------------------------------

    def enter(self, layer: Optional[str]) -> None:
        now = perf_counter()
        stack = self._stack
        if stack:
            self.self_s[stack[-1]] += now - self._mark
        stack.append(layer)
        self._mark = now

    def leave(self) -> None:
        now = perf_counter()
        self.self_s[self._stack.pop()] += now - self._mark
        self._mark = now

    def span(self, fn: Callable, layer: Optional[str],
             count: Optional[str] = None) -> Callable:
        """``fn`` wrapped in a span of ``layer``; ``count`` names a call
        counter to bump."""
        enter, leave, calls = self.enter, self.leave, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if count is not None:
                calls[count] += 1
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        return traced

    def timed(self, fn: Callable, layer: str, name: str) -> Callable:
        """Like :meth:`span`, also summing the inclusive duration."""
        inner = self.span(fn, layer)
        inclusive = self.inclusive

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = perf_counter()
            try:
                return inner(*args, **kwargs)
            finally:
                inclusive[name] = inclusive.get(name, 0.0) \
                    + perf_counter() - t0
        return traced

    # -- ownership ------------------------------------------------------------

    @staticmethod
    def _module_of(fn) -> str:
        """The module that defined callback ``fn``, looking through
        partials and periodic tasks."""
        from repro.sim.engine import PeriodicTask
        while True:
            if isinstance(fn, functools.partial):
                fn = fn.func
            elif isinstance(getattr(fn, "__self__", None), PeriodicTask):
                fn = fn.__self__._callback
            else:
                return getattr(fn, "__module__", None) or ""

    def _layer_for(self, module: str) -> Optional[str]:
        """The layer that owns ``module`` (None outside ``repro``)."""
        cached = self._layer_cache.get(module, ...)
        if cached is not ...:
            return cached
        best, best_len = None, 0
        for layer, prefixes in LAYER_MODULES.items():
            for prefix in prefixes:
                if (module == prefix or module.startswith(prefix + ".")) \
                        and len(prefix) > best_len:
                    best, best_len = layer, len(prefix)
        self._layer_cache[module] = best
        return best

    def owned(self, fn: Callable) -> Callable:
        """``fn`` wrapped in a span of the layer that owns it. Kept
        lighter than :meth:`span`: it runs once per scheduled event."""
        module = self._module_of(fn)
        layer = self._layer_for(module)
        enter, leave = self.enter, self.leave

        def call(*args, **kwargs):
            enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                leave()
        call.__module__ = module
        return call

    # -- installation ---------------------------------------------------------

    def install(self) -> None:
        """Patch every boundary. Call before building a simulation."""
        for module, cls_name, methods, layer in METHOD_BOUNDARIES:
            cls = getattr(importlib.import_module(module), cls_name)
            for name in methods:
                orig = getattr(cls, name)
                key = INCLUSIVE.get(name)
                wrapped = (self.timed(orig, layer, key) if key
                           else self.span(orig, layer,
                                          count=f"{cls_name}.{name}"))
                setattr(cls, name, wrapped)
        for module, name, layer in FUNCTION_BOUNDARIES:
            orig = getattr(importlib.import_module(module), name)
            key = INCLUSIVE.get(name)
            wrapped = (self.timed(orig, layer, key) if key
                       else self.span(orig, layer, count=name))
            for mod_name, mod in list(sys.modules.items()):
                if (mod_name == "repro" or mod_name.startswith("repro.")) \
                        and getattr(mod, name, None) is orig:
                    setattr(mod, name, wrapped)
        self._install_ownership()
        self._install_obs()

    def _install_ownership(self) -> None:
        from repro.core.diknn import DIKNNProtocol
        from repro.net.node import SensorNode
        from repro.routing.gpsr import GpsrRouter
        from repro.sim.engine import Simulator
        tracer = self

        schedule_at = Simulator.schedule_at

        def traced_schedule_at(sim, time, callback):
            return schedule_at(sim, time, tracer.owned(callback))
        Simulator.schedule_at = traced_schedule_at

        node_on = SensorNode.on

        def traced_on(node, kind, handler):
            node_on(node, kind, tracer.owned(handler))
        SensorNode.on = traced_on

        on_hop = GpsrRouter.on_hop
        on_deliver = GpsrRouter.on_deliver

        def traced_on_hop(router, inner_kind, handler):
            on_hop(router, inner_kind, tracer.owned(handler))

        def traced_on_deliver(router, inner_kind, handler):
            handler = tracer.owned(handler)
            if inner_kind == DIKNNProtocol.KIND_QUERY:
                handler = tracer.note_home(handler)
            on_deliver(router, inner_kind, handler)
        GpsrRouter.on_hop = traced_on_hop
        GpsrRouter.on_deliver = traced_on_deliver

        issue = DIKNNProtocol.issue

        def traced_issue(protocol, sink, query, on_complete):
            return issue(protocol, sink, query, tracer.owned(on_complete))
        DIKNNProtocol.issue = self.span(traced_issue, "diknn",
                                        count="DIKNNProtocol.issue")

    def note_home(self, handler: Callable) -> Callable:
        """Record how far the node a query reached by location routing
        (its home node) lies from the query point."""
        from repro.geometry import Vec2
        offsets = self.home_offsets_m

        def delivered(node, inner):
            x, y = inner["point"]
            offsets.append(node.position().distance_to(Vec2(x, y)))
            return handler(node, inner)
        return delivered

    def _install_obs(self) -> None:
        """Every method of the telemetry hub is an ``obs`` span: it is
        what ``Telemetry.attach_handle`` hooks into the MAC, the energy
        ledger, the beacon kernel, the router and the protocol."""
        from repro.obs.telemetry import Telemetry
        for name, value in list(vars(Telemetry).items()):
            if inspect.isfunction(value) and not name.startswith("__"):
                setattr(Telemetry, name, self.span(value, "obs"))

    # -- results --------------------------------------------------------------

    def report(self) -> dict:
        return {"self_s": {layer: self.self_s[layer] for layer in LAYERS},
                "calls": dict(self.calls),
                "inclusive": dict(self.inclusive),
                "home_offsets_m": self.home_offsets_m}
