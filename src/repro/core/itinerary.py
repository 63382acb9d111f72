"""Concurrent itinerary structures (paper §3.3, Figures 3–4).

The KNN boundary (circle of radius R around the query point q) is split
into S equal sectors.  Each sector is traversed by a sub-itinerary of three
segment types:

* init-segment: a straight run from q along the sector bisector of length
  ``l_init = min(w / (2 sin(pi/S)), R)`` — while within ``l_init`` the
  bisector line is within w/2 of both sector borders, so one line covers
  the whole sector tip;
* peri-segments: arcs of concentric circles around q, radially spaced by
  the itinerary width w, traversed in alternating directions (zig-zag);
* adj-segments: the radial steps of length w along a sector border that
  connect consecutive arcs.

``w = sqrt(3)/2 * r`` gives full coverage with minimal itinerary length
([31], §3.3).  Waypoints are emitted every ``spacing`` meters along the
path; Q-node forwarding chases these waypoints.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List

from ..geometry import TWO_PI, Vec2, normalize_angle, segment_point_distance


def full_coverage_width(radio_range: float) -> float:
    """The w <= sqrt(3)r/2 bound giving full coverage at minimal length."""
    return math.sqrt(3.0) / 2.0 * radio_range


def init_segment_length(w: float, sectors: int, radius: float) -> float:
    """``l_init = min(w / (2 sin(pi/S)), R)`` (paper §3.3)."""
    if sectors < 1:
        raise ValueError("sector count must be >= 1")
    if sectors == 1:
        # Single-itinerary degenerate case: no borders to stay clear of.
        return min(w / 2.0, radius)
    s = math.sin(math.pi / sectors)
    if s <= 1e-12:
        return radius
    return min(w / (2.0 * s), radius)


def peri_segments_length(w: float, sectors: int, radius: float) -> float:
    """Total peri-segment length ``sum_i 2*pi*(i*w)/S`` (paper §3.3)."""
    l_init = init_segment_length(w, sectors, radius)
    n = int((radius - l_init) / w)
    return sum(TWO_PI * (i * w) / sectors for i in range(1, n + 1))


def adj_segments_length(w: float, sectors: int, radius: float) -> float:
    """Total adj-segment length ``floor((R - l_init)/w) * w`` (paper §3.3)."""
    l_init = init_segment_length(w, sectors, radius)
    return int((radius - l_init) / w) * w


@dataclass(frozen=True)
class SectorItinerary:
    """The planned traversal of one sector."""

    sector_index: int
    sectors_total: int
    center: Vec2
    radius: float
    width: float
    waypoints: List[Vec2]
    inverted: bool

    def length(self) -> float:
        """Polyline length of the waypoint path."""
        return sum(self.waypoints[i].distance_to(self.waypoints[i + 1])
                   for i in range(len(self.waypoints) - 1))

    def progress_fraction(self, waypoint_index: int) -> float:
        """Fraction of the waypoint plan consumed at ``waypoint_index``.

        Clamped to [0, 1]; a single-waypoint plan is complete the moment
        its only waypoint is targeted.  Pure accessor — used by the
        observability layer to report per-sector itinerary progress.
        """
        last = len(self.waypoints) - 1
        if last <= 0:
            return 1.0
        return max(0.0, min(1.0, waypoint_index / last))

    def covers(self, p: Vec2, tolerance: float = 1e-9) -> bool:
        """True when ``p`` is within w/2 of the waypoint polyline."""
        limit = self.width / 2.0 + tolerance
        pts = self.waypoints
        if len(pts) == 1:
            return p.distance_to(pts[0]) <= limit
        return any(segment_point_distance(pts[i], pts[i + 1], p) <= limit
                   for i in range(len(pts) - 1))


def _ring_radii(l_init: float, w: float, radius: float) -> List[float]:
    """Arc radii: one per w-band between l_init and R, capped at R."""
    radii = []
    rho = l_init + w / 2.0
    while rho - w / 2.0 < radius - 1e-9:
        radii.append(min(rho, radius))
        rho += w
    return radii


def build_sector_itinerary(center: Vec2, radius: float, sectors: int,
                           sector_index: int, width: float,
                           spacing: float,
                           invert: bool = False) -> SectorItinerary:
    """Waypoints of the sub-itinerary for one sector.

    Args:
        center: query point q.
        radius: KNN boundary radius R.
        sectors: number of sectors S.
        sector_index: which sector (0-based, CCW from angle 0).
        width: itinerary width w.
        spacing: distance between emitted waypoints (typically ~0.8 r so a
            Q-node can always reach the next waypoint's vicinity in one hop).
        invert: flip the zig-zag parity — used in every interseptal sector
            so rendezvous points form on shared borders (§4.3, Figure 6).

    Returns:
        The sector's :class:`SectorItinerary`.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")
    if not 0 <= sector_index < sectors:
        raise ValueError("sector_index out of range")
    if spacing <= 0:
        raise ValueError("spacing must be positive")

    sector_angle = TWO_PI / sectors
    a_start = normalize_angle(sector_index * sector_angle)
    bisect = a_start + sector_angle / 2.0
    l_init = init_segment_length(width, sectors, radius)

    waypoints: List[Vec2] = []

    def _emit(p: Vec2) -> None:
        if not waypoints or waypoints[-1].distance_to(p) > 1e-9:
            waypoints.append(p)

    # init-segment: straight along the bisector from (near) q out to l_init.
    steps = max(1, int(math.ceil(l_init / spacing)))
    for i in range(steps + 1):
        rho = (i / steps) * l_init
        _emit(center + Vec2.from_polar(rho, bisect))

    # peri/adj segments: zig-zag arcs.
    forward = not invert  # True: first arc runs CCW (start border -> end)
    for rho in _ring_radii(l_init, width, radius):
        # Angular margin keeping the path w/2 clear of the borders
        # (the neighbouring sector's path covers the border band).
        if sectors == 1:
            a_lo, a_hi = 0.0, TWO_PI
        else:
            phi = math.asin(min(1.0, (width / 2.0) / rho))
            half = sector_angle / 2.0
            margin = min(phi, half)
            a_lo = bisect - (half - margin)
            a_hi = bisect + (half - margin)
        arc = a_hi - a_lo
        n_pts = max(2, int(math.ceil(arc * rho / spacing)) + 1)
        angles = [a_lo + arc * i / (n_pts - 1) for i in range(n_pts)]
        if not forward:
            angles.reverse()
        for a in angles:
            _emit(center + Vec2.from_polar(rho, a))
        forward = not forward

    return SectorItinerary(sector_index=sector_index, sectors_total=sectors,
                           center=center, radius=radius, width=width,
                           waypoints=waypoints, inverted=invert)


def build_itineraries(center: Vec2, radius: float, sectors: int,
                      width: float, spacing: float,
                      rendezvous: bool = True) -> List[SectorItinerary]:
    """All S sub-itineraries; with ``rendezvous`` the zig-zag parity is
    inverted in every interseptal sector (§4.3)."""
    return [build_sector_itinerary(center, radius, sectors, j, width,
                                   spacing,
                                   invert=(rendezvous and j % 2 == 1))
            for j in range(sectors)]


def extend_sector_itinerary(it: SectorItinerary, new_radius: float,
                            spacing: float) -> SectorItinerary:
    """Grow an itinerary to a larger boundary radius, preserving the path
    walked so far and appending extra rings (dynamic adjustment, §4.3).

    New arcs continue outward from the old radius with the zig-zag parity
    the old path ended on, so the adj-step between old and new rings stays
    a short radial hop.
    """
    if new_radius <= it.radius:
        return it
    sectors = it.sectors_total
    sector_angle = TWO_PI / sectors
    bisect = (normalize_angle(it.sector_index * sector_angle)
              + sector_angle / 2.0)
    l_init = init_segment_length(it.width, sectors, it.radius)
    n_old_rings = len(_ring_radii(l_init, it.width, it.radius))
    forward = (not it.inverted) ^ (n_old_rings % 2 == 1)

    waypoints = list(it.waypoints)

    def _emit(p: Vec2) -> None:
        if not waypoints or waypoints[-1].distance_to(p) > 1e-9:
            waypoints.append(p)

    rho = it.radius + it.width / 2.0
    while rho - it.width / 2.0 < new_radius - 1e-9:
        ring_rho = min(rho, new_radius)
        if sectors == 1:
            a_lo, a_hi = 0.0, TWO_PI
        else:
            phi = math.asin(min(1.0, (it.width / 2.0) / ring_rho))
            half = sector_angle / 2.0
            margin = min(phi, half)
            a_lo = bisect - (half - margin)
            a_hi = bisect + (half - margin)
        arc = a_hi - a_lo
        n_pts = max(2, int(math.ceil(arc * ring_rho / spacing)) + 1)
        angles = [a_lo + arc * i / (n_pts - 1) for i in range(n_pts)]
        if not forward:
            angles.reverse()
        for a in angles:
            _emit(it.center + Vec2.from_polar(ring_rho, a))
        forward = not forward
        rho += it.width

    return SectorItinerary(sector_index=it.sector_index,
                           sectors_total=sectors, center=it.center,
                           radius=new_radius, width=it.width,
                           waypoints=waypoints, inverted=it.inverted)
