"""ASCII rendering of multistage networks and their circuit state.

A development and teaching aid: draws the network stage by stage —
processors, switchboxes with their current settings, resources —
marking occupied links.  The settings are the circuits' own, read off
their links by :meth:`MultistageNetwork.switch_settings`.  Used by the
CLI and the examples to visualise what the scheduler did; no other
module depends on it.

Output for a 4x4 Omega with one circuit::

    p0 ==> [0,0: 0-0   ] ==> [1,0: 0-0   ] ==> r0   *busy*
    p1 --> [     .     ] --> [     .     ] --> r1
    ...

Legend: ``==>`` occupied link, ``-->`` free link; inside a box,
``a-b`` is a connected input→output port pair, ``.`` no connections.
"""

from __future__ import annotations

from repro.networks.switchbox import Switchbox
from repro.networks.topology import Link, MultistageNetwork, PortRef

__all__ = ["render_network", "render_circuits"]


def _link_glyph(link: Link | None) -> str:
    if link is None:
        return "   "
    return "==>" if link.occupied else "-->"


def _box_glyph(box: Switchbox, conns: dict[int, int]) -> str:
    if not conns:
        body = "."
    else:
        body = " ".join(f"{i}-{o}" for i, o in sorted(conns.items()))
    label = f"{box.stage},{box.index}"
    return f"[{label}: {body:^7s}]"


def render_network(net: MultistageNetwork, busy_resources: set[int] | None = None) -> str:
    """Render the network as one text row per wire of the first rank.

    Each row follows processor ``p`` through the box its link enters;
    boxes are printed once per row they appear on (a 2x2 box spans two
    rows and is shown on both, which keeps rows independent and
    readable).
    """
    busy_resources = busy_resources or set()
    settings = net.switch_settings()
    rows: list[str] = []
    for p in range(net.n_processors):
        parts = [f"p{p:<2d}"]
        link: Link | None = net.processor_link(p)
        while link is not None:
            parts.append(_link_glyph(link))
            dst = link.dst
            if dst.kind == "res":
                suffix = "  *busy*" if dst.box in busy_resources else ""
                parts.append(f"r{dst.box}{suffix}")
                link = None
            else:
                box = net.box(dst.stage, dst.box)
                conns = settings.get(box, {})
                parts.append(_box_glyph(box, conns))
                # Follow the wire out of this box along the port the
                # current input is connected to, or port-aligned
                # straight-through for display when unconnected.
                out_port = conns.get(dst.port)
                if out_port is None:
                    out_port = min(dst.port, box.n_out - 1)
                link = net.link_from(PortRef.box_out(dst.stage, dst.box, out_port))
        rows.append(" ".join(parts))
    return "\n".join(rows)


def render_circuits(net: MultistageNetwork) -> str:
    """One line per established circuit: ``p -> [link ids] -> r``."""
    if not net.circuits:
        return "(no circuits established)"
    lines = []
    for c in net.circuits:
        hops = " ".join(str(l.index) for l in c.links)
        lines.append(f"p{c.processor} -> links[{hops}] -> r{c.resource}")
    return "\n".join(lines)
