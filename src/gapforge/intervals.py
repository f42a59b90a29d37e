"""Interval-set algebra, gap-spec validation and gap matching.

An :class:`IntervalSet` is an ordered tuple of disjoint open intervals on
[0, inf).  The same container doubles as a description of closed unions
(bands): operations that need the closed reading say so explicitly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import GapSpecError, IntervalError

# Absolute tolerance for endpoint dedup when merging closed unions.
ENDPOINT_TOL = 1e-12


@dataclass(frozen=True)
class IntervalSet:
    """Sorted disjoint intervals (lo_k, hi_k); hi of the final interval may
    be ``math.inf`` (unbounded tail)."""

    intervals: tuple[tuple[float, float], ...]

    def __post_init__(self):
        prev_hi = None
        n = len(self.intervals)
        for k, (lo, hi) in enumerate(self.intervals):
            if not (math.isfinite(lo) and lo >= 0.0):
                raise IntervalError(f"interval {k}: lower endpoint {lo!r} must be finite and >= 0")
            if math.isinf(hi) and k != n - 1:
                raise IntervalError(f"interval {k}: only the final interval may be unbounded")
            if not (hi > lo):
                raise IntervalError(f"interval {k}: need lo < hi, got ({lo}, {hi})")
            if prev_hi is not None and lo < prev_hi:
                raise IntervalError(f"interval {k}: overlaps previous (lo={lo} < prev hi={prev_hi})")
            prev_hi = hi

    def __len__(self) -> int:
        return len(self.intervals)

    def __iter__(self):
        return iter(self.intervals)

    def clipped(self, lo: float, hi: float) -> "IntervalSet":
        """Intersect every interval with [lo, hi]; drop the empty ones."""
        out = []
        for a, b in self.intervals:
            a2, b2 = max(a, lo), min(b, hi)
            if b2 > a2:
                out.append((a2, b2))
        return IntervalSet(tuple(out))

    def merged_closed(self) -> "IntervalSet":
        """Union of the closures; touching intervals (gap <= ENDPOINT_TOL)
        are coalesced."""
        return IntervalSet(_merge_closed(self.intervals))

    def to_json(self) -> list[list[float]]:
        return [[lo, hi] for lo, hi in self.intervals]


@dataclass(frozen=True)
class GapSpec:
    """Validated design target: open gaps (alpha_j, beta_j) in strictly
    increasing chain, ambient dimension n >= 2, edge tolerance delta and
    inspection horizon L."""

    targets: IntervalSet
    n: int
    delta: float
    horizon: float

    @property
    def m(self) -> int:
        return len(self.targets)

    @property
    def alphas(self) -> tuple[float, ...]:
        return tuple(lo for lo, _ in self.targets)

    @property
    def betas(self) -> tuple[float, ...]:
        return tuple(hi for _, hi in self.targets)


def validate_gap_spec(
    raw_intervals: Iterable[Sequence[float]],
    n: int,
    delta: float = 0.01,
    horizon: float | None = None,
) -> GapSpec:
    """Sort raw target intervals and check the strict chain
    0 < a_1 < b_1 < a_2 < ... < b_m.  Touching closures are rejected since
    the design formulas divide by a_i - a_j and b_i - a_j.
    """
    pairs = sorted((float(lo), float(hi)) for lo, hi in raw_intervals)
    if not pairs:
        raise GapSpecError("empty_interval", "at least one target interval required")
    for k, (lo, hi) in enumerate(pairs):
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise GapSpecError("empty_interval", f"intervals[{k}]: endpoints must be finite")
        if hi <= lo:
            raise GapSpecError("empty_interval", f"intervals[{k}]: ({lo}, {hi}) is empty")
    if pairs[0][0] <= 0.0:
        raise GapSpecError("nonpositive_edge", f"intervals[0]: lower edge {pairs[0][0]} must be > 0")
    for k in range(1, len(pairs)):
        if pairs[k][0] <= pairs[k - 1][1]:
            raise GapSpecError(
                "overlap",
                f"intervals[{k}] starts at {pairs[k][0]} <= previous end {pairs[k - 1][1]}"
                " (closures must be pairwise disjoint)",
            )
    if int(n) != n or n < 2:
        raise GapSpecError("bad_dimension", f"dimension n={n} must be an integer >= 2")
    if not (delta > 0.0):
        raise GapSpecError("bad_delta", f"delta={delta} must be > 0")
    if horizon is None:
        horizon = 10.0 * pairs[-1][1]
    if not (0.0 < horizon < math.inf):
        raise GapSpecError("bad_horizon", f"horizon L={horizon} must be finite and > 0")
    return GapSpec(IntervalSet(tuple(pairs)), int(n), float(delta), float(horizon))


def _merge_closed(pairs: Iterable[tuple[float, float]]) -> tuple[tuple[float, float], ...]:
    """Sorted union of closed intervals; pieces whose gap is at most
    ENDPOINT_TOL are coalesced."""
    out: list[list[float]] = []
    for lo, hi in sorted(pairs):
        if out and lo - out[-1][1] <= ENDPOINT_TOL:
            out[-1][1] = max(out[-1][1], hi)
        else:
            out.append([lo, hi])
    return tuple((lo, hi) for lo, hi in out)


def complement_on(bands: Iterable[Sequence[float]], L: float) -> IntervalSet:
    """Open complement of the closed union of ``bands`` inside [0, L].

    ``bands`` is any iterable of closed (lo, hi) pairs, an IntervalSet
    included; pairs may overlap, and a degenerate one (lo == hi) still
    splits a gap.  A first band edge within ENDPOINT_TOL * max(1, L) of 0
    is no gap: an eigenvalue that should be 0 computes to +-epsilon on the
    scale of the spectrum.  A gap that straddles L is truncated at L.
    """
    if not (L > 0.0):
        raise IntervalError(f"window length L={L} must be > 0")
    clipped = [(max(float(lo), 0.0), min(float(hi), L)) for lo, hi in bands]
    gaps: list[tuple[float, float]] = []
    cursor = 0.0
    tol = ENDPOINT_TOL * max(1.0, L)
    for lo, hi in _merge_closed(p for p in clipped if p[1] >= p[0]):
        if lo > cursor + tol:
            gaps.append((cursor, lo))
        cursor = hi
        tol = ENDPOINT_TOL
    if cursor < L:
        gaps.append((cursor, L))
    return IntervalSet(tuple(gaps))


def _dist_to_closed(x: float, intervals: Sequence[tuple[float, float]]) -> float:
    best = math.inf
    for lo, hi in intervals:
        if lo <= x <= hi:
            return 0.0
        best = min(best, abs(x - lo), abs(x - hi))
    return best


def _directed_hausdorff(a: Sequence[tuple[float, float]], b: Sequence[tuple[float, float]]) -> float:
    # sup over the closed union A of dist(., B): attained at an endpoint of A
    # or at a midpoint of a gap of B that lies inside A.
    candidates = [p for lo, hi in a for p in (lo, hi)]
    for k in range(len(b) - 1):
        mid = 0.5 * (b[k][1] + b[k + 1][0])
        if any(lo <= mid <= hi for lo, hi in a):
            candidates.append(mid)
    return max(_dist_to_closed(x, b) for x in candidates)


def hausdorff_distance(a: IntervalSet, b: IntervalSet, window: tuple[float, float]) -> float:
    """Hausdorff distance between the closed unions of ``a`` and ``b``
    intersected with the window; exact via endpoint analysis."""
    lo_w, hi_w = float(window[0]), float(window[1])
    if not (hi_w > lo_w >= 0.0):
        raise IntervalError(f"bad window {window}")
    ac = a.clipped(lo_w, hi_w).merged_closed()
    bc = b.clipped(lo_w, hi_w).merged_closed()
    if not ac.intervals:
        raise IntervalError("first set is empty inside the window")
    if not bc.intervals:
        raise IntervalError("second set is empty inside the window")
    return max(
        _directed_hausdorff(ac.intervals, bc.intervals),
        _directed_hausdorff(bc.intervals, ac.intervals),
    )


@dataclass(frozen=True)
class GapMatch:
    target: tuple[float, float]
    computed: tuple[float, float] | None
    edge_error: float
    ok: bool


@dataclass(frozen=True)
class MatchReport:
    passed: bool
    per_gap: tuple[GapMatch, ...]
    extra_gaps: tuple[tuple[float, float], ...]
    extra_ok: bool

    def to_json(self) -> dict:
        return {
            "pass": self.passed,
            "per_gap": [
                {
                    "target": list(g.target),
                    "computed": list(g.computed) if g.computed is not None else None,
                    "edge_error": g.edge_error,
                }
                for g in self.per_gap
            ],
            "extra_gaps": [list(g) for g in self.extra_gaps],
        }


def gap_match_report(computed_gaps: IntervalSet | Iterable[Sequence[float]], spec: GapSpec) -> MatchReport:
    """Pair the first m computed gaps with the targets in increasing order.

    Per-gap edge error is |a_c - a| + |b_c - b|; a gap matches when the
    error is < spec.delta.  Computed gaps beyond the first m must lie in
    (L, inf).  A shortfall of computed gaps is reported as a failure, not
    raised.
    """
    if isinstance(computed_gaps, IntervalSet):
        gaps = sorted(computed_gaps.intervals)
    else:
        gaps = sorted((float(lo), float(hi)) for lo, hi in computed_gaps)
    m = spec.m
    per: list[GapMatch] = []
    all_ok = True
    for j in range(m):
        tgt = spec.targets.intervals[j]
        if j < len(gaps):
            comp = gaps[j]
            err = abs(comp[0] - tgt[0]) + abs(comp[1] - tgt[1])
            ok = err < spec.delta
        else:
            comp, err, ok = None, math.inf, False
        per.append(GapMatch(tgt, comp, err, ok))
        all_ok = all_ok and ok
    extras = tuple(gaps[m:])
    extra_ok = all(lo > spec.horizon for lo, _ in extras)
    return MatchReport(all_ok and extra_ok, tuple(per), extras, extra_ok)
