"""Reference for how `planner.plan_permutation` drops idle swaps: replay the
raw ops on the real occupancy and drop every swap between two vacant
vertices (the hole stepping over another vacancy), which moves no agent."""

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
