"""References for the planner's shortcuts.

- `drop_idle_swaps_by_replay`: how `planner.plan_permutation` drops idle
  swaps. It replays the raw ops on the real occupancy and drops every swap
  between two vacant vertices (the hole stepping over another vacancy), which
  moves no agent.
- `core_by_replay`: the parked core as its six ops, each applied by the
  machine's `rot` and `swap`, against which `_Machine.core_consecutive`'s
  direct net effect is checked."""

from __future__ import annotations

from swapmotion.planner import VacancySwap, _apply_inplace
from swapmotion.swap_graph import VACANT, Occupancy, SwapGraph


def drop_idle_swaps_by_replay(start: Occupancy, g: SwapGraph, raw_ops) -> list:
    occ = dict(start.mapping)
    moving = []
    for op in raw_ops:
        if isinstance(op, VacancySwap) and occ[op.u] is VACANT and occ[op.v] is VACANT:
            continue
        _apply_inplace(occ, g, op)
        moving.append(op)
    return moving


def core_by_replay(m, li: int, u: int, w: int, p: int):
    """Swap the contents of loop li's slots (p, p+1) on machine `m`, the hole
    parked at w off the loop and (u, w) its portal, by replaying the ops."""
    cyc = m.g.loops[li]
    n = len(cyc)
    a0 = m.g.slot[li][u]
    d = (p - a0) % n
    m.rot(li, -d)
    m.swap(u, w)
    m.swap(u, cyc[(a0 + 1) % n])
    m.rot(li, -1)
    m.swap(u, w)
    m.rot(li, d + 1)
