"""The sampling verifier: an independent oracle for the exact certificate.

`sampled_verify` checks every agent on a fixed time grid of step `dt` and
reports minimum pairwise distance, minimum boundary clearance and all
violation intervals. Because ops are sequential, it cuts the grid into
chunks, samples only the agents whose records overlap a chunk, and checks
every other agent once at its fixed position. Its `samples` field counts
grid times. It can miss an event that falls between two grid times, which
`swapmotion.trajectory.verify_trajectories` cannot.
"""

import math

import numpy as np

from swapmotion.geometry import Workspace, boundary_distance_many
from swapmotion.trajectory import Track, TrajectorySet, VerificationReport, Violation


def sample_times(horizon: float, dt: float) -> np.ndarray:
    """The verification grid: every `dt` from 0, plus the horizon itself."""
    times = np.arange(0.0, horizon + 0.5 * dt, dt)
    if len(times) == 0 or times[-1] < horizon:
        times = np.append(times, horizon)
    return times


def _moving_mask(tracks: list[Track], first: np.ndarray, last: np.ndarray) -> np.ndarray:
    """(chunks, agents) mask of the agents with a record overlapping each
    chunk's closed time span [first, last]. Outside it, an agent's sampled
    position is constant over the chunk."""
    cover = np.zeros((len(first) + 1, len(tracks)), dtype=np.int32)
    for i, tr in enumerate(tracks):
        lo = np.searchsorted(last, tr.t0, side="left")
        hi = np.searchsorted(first, tr.t1, side="right")
        keep = lo < hi
        np.add.at(cover[:, i], lo[keep], 1)
        np.add.at(cover[:, i], hi[keep], -1)
    return np.cumsum(cover, axis=0)[:-1] > 0


class _Check:
    """One verification: its grid and chunks, its limits, and what it found."""

    def __init__(self, agents: list, w: Workspace, r: float, dt: float, horizon: float):
        self.agents = agents
        self.w = w
        tol = 1e-6 * r
        self.pair_lim2 = (2 * r - tol) ** 2
        self.clear_lim = r - tol
        self.times = sample_times(horizon, dt)
        self.chunk = max(16, int(round(10.0 / dt)))
        self.first = np.arange(0, len(self.times), self.chunk)  # first sample of each chunk
        self.stop = np.minimum(self.first + self.chunk, len(self.times))
        self.min_pair = math.inf
        self.min_clear = math.inf
        self.pair_bad: dict[tuple, list[int]] = {}
        self.pair_worst: dict[tuple, float] = {}
        self.bound_bad: dict[object, list[int]] = {}
        self.bound_worst: dict[object, float] = {}

    def pair(self, i: int, j: int, samples, d2: float):
        key = tuple(sorted((self.agents[i], self.agents[j]), key=repr))
        self.pair_bad.setdefault(key, []).extend(samples)
        self.pair_worst[key] = min(self.pair_worst.get(key, math.inf), math.sqrt(d2))

    def boundary(self, i: int, samples, d: float):
        a = self.agents[i]
        self.bound_bad.setdefault(a, []).extend(samples)
        self.bound_worst[a] = min(self.bound_worst.get(a, math.inf), d)

    def violations(self) -> list[Violation]:
        out = []
        for key, idxs in sorted(self.pair_bad.items(), key=lambda kv: repr(kv[0])):
            for t0, t1 in _merge_runs(sorted(set(idxs)), self.times):
                out.append(Violation("pair", key, t0, t1, self.pair_worst[key]))
        for a, idxs in sorted(self.bound_bad.items(), key=lambda kv: repr(kv[0])):
            for t0, t1 in _merge_runs(sorted(set(idxs)), self.times):
                out.append(Violation("boundary", (a,), t0, t1, self.bound_worst[a]))
        return out


def sampled_verify(ts: TrajectorySet, w: Workspace, r: float, dt: float) -> VerificationReport:
    """Independent sampling oracle for agent-agent and boundary safety.

    Positions are checked every `dt`; a pair violates when center distance
    drops below 2r - 1e-6 r, an agent violates the boundary when its disk
    leaves the free space by more than the same tolerance. Every pair under
    the limit is reported. The grid is cut into chunks of about 10 time
    units. In each chunk only the agents whose records overlap it are
    sampled, at every grid time, and checked against all agents; every other
    agent stands still over the chunk and is checked once, at the chunk's
    first sample, against the other still agents and the boundary.
    """
    if dt <= 0:
        raise ValueError("dt must be positive")
    agents = ts.agents()
    chk = _Check(agents, w, r, dt, ts.horizon)
    tracks = [ts.segments[a] for a in agents]
    first_t = chk.times[chk.first]
    moving = _moving_mask(tracks, first_t, chk.times[chk.stop - 1])
    fixed = np.stack([tr.sample(first_t) for tr in tracks], axis=1)
    _check_still(chk, fixed, ~moving)
    per_block = max(1, (1 << 18) // (chk.chunk * max(len(agents), 1)))
    for c0 in range(0, len(chk.first), per_block):
        _check_movers(chk, tracks, fixed, moving, c0, min(c0 + per_block, len(chk.first)))
    return VerificationReport(
        min_pairwise=chk.min_pair,
        min_clearance=chk.min_clear,
        violations=chk.violations(),
        samples=len(chk.times),
    )


def _check_still(chk: _Check, fixed: np.ndarray, still: np.ndarray):
    """Pairs of still agents and their boundary clearance, once per chunk."""
    n_chunks, n = still.shape
    cl = boundary_distance_many(fixed.reshape(-1, 2), chk.w).reshape(n_chunks, n)
    cl = np.where(still, cl, np.inf)
    if cl.size:
        chk.min_clear = min(chk.min_clear, float(cl.min()))
    for c, i in zip(*np.nonzero(cl < chk.clear_lim)):
        chk.boundary(i, range(chk.first[c], chk.stop[c]), float(cl[c, i]))
    if n < 2:
        return
    iu, ju = np.triu_indices(n, 1)
    per_block = max(1, (1 << 16) // len(iu))
    for c0 in range(0, n_chunks, per_block):
        F = fixed[c0 : c0 + per_block]
        dx = F[:, iu, 0] - F[:, ju, 0]
        dy = F[:, iu, 1] - F[:, ju, 1]
        S = still[c0 : c0 + per_block]
        d2 = np.where(S[:, iu] & S[:, ju], dx * dx + dy * dy, np.inf)
        chk.min_pair = min(chk.min_pair, math.sqrt(float(d2.min())))
        for c, k in zip(*np.nonzero(d2 < chk.pair_lim2)):
            span = range(chk.first[c0 + c], chk.stop[c0 + c])
            chk.pair(iu[k], ju[k], span, float(d2[c, k]))


def _check_movers(chk: _Check, tracks: list[Track], fixed, moving, c0: int, c1: int):
    """Chunks c0..c1-1: every moving agent at every sample, against the
    boundary and against all agents (still ones sit at `fixed`)."""
    first, stop, n = chk.first, chk.stop, len(tracks)
    lo = first[c0]
    P = np.repeat(fixed[c0:c1], stop[c0:c1] - first[c0:c1], axis=0)
    idx_of, pts_of = [], []
    for i in np.nonzero(moving[c0:c1].any(axis=0))[0]:
        cs = np.nonzero(moving[c0:c1, i])[0] + c0
        idx = (first[cs][:, None] + np.arange(chk.chunk)).ravel()
        idx = idx[idx < stop[cs[-1]]]
        pts = tracks[i].sample(chk.times[idx])
        P[idx - lo, i] = pts
        idx_of.append((i, idx))
        pts_of.append(pts)
    if not idx_of:
        return
    cl = boundary_distance_many(np.concatenate(pts_of), chk.w)
    chk.min_clear = min(chk.min_clear, float(cl.min()))
    k = 0
    for i, idx in idx_of:
        mine = cl[k : k + len(idx)]
        k += len(idx)
        bad = mine < chk.clear_lim
        if bad.any():
            chk.boundary(i, idx[bad].tolist(), float(mine[bad].min()))
    if n < 2:
        return
    for c in range(c0, c1):
        movers = np.nonzero(moving[c])[0]
        if not len(movers):
            continue
        Pc = P[first[c] - lo : stop[c] - lo]
        Q = Pc[:, movers]
        dx = Q[:, :, None, 0] - Pc[:, None, :, 0]
        dy = Q[:, :, None, 1] - Pc[:, None, :, 1]
        d2 = dx * dx + dy * dy
        d2[:, np.arange(len(movers)), movers] = np.inf
        low = float(d2.min())
        chk.min_pair = min(chk.min_pair, math.sqrt(low))
        if low < chk.pair_lim2:
            for t_, m_, j in zip(*np.nonzero(d2 < chk.pair_lim2)):
                chk.pair(movers[m_], j, [first[c] + int(t_)], float(d2[t_, m_, j]))


def _merge_runs(idxs: list[int], times: np.ndarray):
    out = []
    if not idxs:
        return out
    start = prev = idxs[0]
    for i in idxs[1:]:
        if i == prev + 1:
            prev = i
            continue
        out.append((float(times[start]), float(times[prev])))
        start = prev = i
    out.append((float(times[start]), float(times[prev])))
    return out
