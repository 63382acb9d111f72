"""Figure 7 visualization: DIKNN execution rendered as SVG.

The paper visualizes itinerary traversals over a real-world (caribou)
distribution by post-processing modified ns-2 traces.  Here a subscriber
of the simulator probe's ``trace`` channel records Q-node hops during a
live query, and the renderer emits a standalone SVG: node dots, the KNN
boundary, per-sector traversal polylines, and the query point.  No
plotting library required.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from ..geometry import Rect, Vec2
from ..net.messages import Message
from ..net.network import Network

#: categorical palette for sector traversal polylines
_PALETTE = ["#3f6bd8", "#d8663f", "#3fae8a", "#b04fd8",
            "#d8b13f", "#4fb6d8", "#d84f78", "#7c8a3f"]


@dataclass
class TraversalTrace:
    """Recorded Q-node hops of one query, grouped by sector."""

    query_id: Optional[int] = None
    hops: Dict[int, List[Tuple[Vec2, Vec2]]] = field(default_factory=dict)
    boundary_center: Optional[Vec2] = None
    boundary_radius: float = 0.0

    def hop_count(self) -> int:
        return sum(len(v) for v in self.hops.values())


class TraversalRecorder:
    """Probe ``trace`` subscriber capturing DIKNN token hops."""

    def __init__(self, network: Network, query_id: Optional[int] = None):
        self.network = network
        self.trace = TraversalTrace(query_id=query_id)
        network.sim.probe.subscribe("trace", self._hook)

    def detach(self) -> None:
        """Stop recording (idempotent)."""
        self.network.sim.probe.unsubscribe("trace", self._hook)

    def _hook(self, event: str, message: Message, node_id: int) -> None:
        if event != "send" or message.kind != "diknn.token":
            return
        token = message.payload.get("token", {})
        if (self.trace.query_id is not None
                and token.get("query_id") != self.trace.query_id):
            return
        if self.trace.query_id is None:
            self.trace.query_id = token.get("query_id")
        src = self.network.nodes.get(node_id)
        dst = self.network.nodes.get(message.dst)
        if src is None or dst is None:
            return
        sector = token.get("sector", 0)
        segment = (src.position(), dst.position())
        self.trace.hops.setdefault(sector, []).append(segment)
        self.trace.boundary_center = Vec2(*token["point"])
        self.trace.boundary_radius = max(self.trace.boundary_radius,
                                         token["radii"][-1])


def render_svg(network: Network, field: Rect,
               trace: Optional[TraversalTrace] = None,
               width_px: int = 800,
               title: str = "DIKNN itinerary traversal") -> str:
    """Render the network (and optionally a traversal trace) as SVG text."""
    scale = width_px / field.width
    height_px = int(field.height * scale)
    margin = 20

    def sx(x: float) -> float:
        return margin + (x - field.x_min) * scale

    def sy(y: float) -> float:
        # SVG y grows downward; flip so the field reads like a map.
        return margin + (field.y_max - y) * scale

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" '
        f'width="{width_px + 2 * margin}" '
        f'height="{height_px + 2 * margin + 24}">',
        f'<rect width="100%" height="100%" fill="#fcfcf9"/>',
        f'<text x="{margin}" y="{14}" font-family="sans-serif" '
        f'font-size="13" fill="#333">{title}</text>',
        f'<rect x="{margin}" y="{margin}" width="{field.width * scale:.1f}" '
        f'height="{field.height * scale:.1f}" fill="none" '
        f'stroke="#bbb"/>',
    ]
    for node in network.nodes.values():
        p = node.position()
        parts.append(f'<circle cx="{sx(p.x):.1f}" cy="{sy(p.y):.1f}" '
                     f'r="1.6" fill="#8a8a8a"/>')
    if trace is not None and trace.boundary_center is not None:
        c = trace.boundary_center
        parts.append(
            f'<circle cx="{sx(c.x):.1f}" cy="{sy(c.y):.1f}" '
            f'r="{trace.boundary_radius * scale:.1f}" fill="none" '
            f'stroke="#c44" stroke-dasharray="6 4" stroke-width="1.2"/>')
        parts.append(f'<circle cx="{sx(c.x):.1f}" cy="{sy(c.y):.1f}" '
                     f'r="4" fill="#c44"/>')
        for sector, segments in sorted(trace.hops.items()):
            color = _PALETTE[sector % len(_PALETTE)]
            for a, b in segments:
                parts.append(
                    f'<line x1="{sx(a.x):.1f}" y1="{sy(a.y):.1f}" '
                    f'x2="{sx(b.x):.1f}" y2="{sy(b.y):.1f}" '
                    f'stroke="{color}" stroke-width="1.4"/>')
                parts.append(
                    f'<circle cx="{sx(b.x):.1f}" cy="{sy(b.y):.1f}" '
                    f'r="2.4" fill="{color}"/>')
    parts.append("</svg>")
    return "\n".join(parts)


def save_svg(path: str, svg_text: str) -> None:
    """Write SVG text to ``path``."""
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(svg_text)
