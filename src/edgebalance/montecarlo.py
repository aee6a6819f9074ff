"""Monte Carlo centroid oracle for body-minus-cavity regions.

Uniform rejection sampling from the body's axis-aligned bounding box gives a
centroid estimate with quantified statistical error, fully independent of
the closed-form geometry it cross-checks.

Reproducibility contract: a run of ``n`` points seeded with ``s`` reads one
stream, numpy's ``PCG64(SeedSequence((s, 0)))``, as a ``(k, n)`` array:
coordinate ``j`` of point ``r`` is number ``j*n + r``, drawn by a generator
advanced to the start of coordinate ``j``'s block.  Runs of at most 1e6
points keep the numbers they drew when the stream was cut into batches of
1e6.  Points are taken in chunks of ``2 * CHUNK_ROWS`` coordinates, that is
``2 * CHUNK_ROWS // k`` points (32,768 in the plane, 6,553 at k = 10, 1,024
at k = 64), that read each block in order, so the chunk size changes only
how the sums round, never which points count.  The draws land in one of two
chunk buffers allocated once per call, one row per coordinate, the
membership kernels' fast layout; the points a membership test keeps are
gathered by index into the other, and the cavity tests only the points the
body kept.  Beside them the call allocates one work block, two floats per
coordinate of a chunk, and lends it to every membership test as scratch
(``contains(points, work)``), so the k-D kernels allocate nothing the size
of a chunk.  Working memory is those three blocks, at most
``64 * CHUNK_ROWS`` bytes (2 MiB) at every k, plus the kept points' index
and masks, whatever ``n``.  Sums and sums of squares are taken per chunk
about the centre of the box, which keeps the variance free of cancellation
far from the origin, and merged with exactly rounded summation; each
coordinate's chunk sums are folded, exactly, into a few floats whenever
they outnumber the coordinates, so they too stay bounded.  Where n squared
offsets along an axis could overflow (a side from about 1e154), that axis's
offsets are scaled by a power of two first, which is exact.

Rejection from the bounding box degrades with dimension (the ball fills
fewer than 0.25% of its box at k = 10), so treat k <= 10 as the practical
ceiling for the oracle.
"""

import math
import sys
from dataclasses import dataclass

import numpy as np

from .polynomials import _as_integer, _as_point
from .shapes import Shape

# points per chunk in the plane, half a chunk's coordinates: the fastest of
# 2^13..2^16 on the mc_oracle benchmark
CHUNK_ROWS = 1 << 15


def bounding_box(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned (lower, upper) corners enclosing the shape."""
    return shape.bbox()


def contains(shape: Shape, points: np.ndarray) -> np.ndarray:
    """Vectorized closed-region membership for an (n, dim) point array.

    Raises ValueError for an array that does not hold integers or floats (a
    string, a boolean, None or a nested list among its entries), and for
    points of another dimension: the body kernels read only the first
    ``dim`` columns and would not notice.  One dtype test reads the array;
    its entries are not read one by one.
    """
    pts = np.asarray(points)
    if pts.dtype.kind not in "iuf":
        raise ValueError(f"points must be an array of numbers, got an array of {pts.dtype}")
    pts = np.asarray(pts, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != shape.dim:
        got = f"dimension {pts.shape[-1]}" if pts.ndim == 2 else f"an array of shape {pts.shape}"
        k = shape.dim
        raise ValueError(f"a {k}-D {shape.kind} takes points of dimension {k}, got {got}")
    return shape.contains(pts)


def point_in_shape(shape: Shape, p) -> bool:
    """Exact membership of a single point (boundary counts as inside).

    The point is read by ``_as_point`` as the "point": ``shape.dim`` real
    numbers, else ValueError.
    """
    p = _as_point(p, "point", shape.dim)
    return bool(shape.contains(np.array([p]))[0])


@dataclass(frozen=True)
class McEstimate:
    """Sampled centroid of body minus cavity.

    ``std_error`` is the per-coordinate sample standard deviation divided by
    the square root of the accepted count; the acceptance fraction times
    ``box_volume`` estimates the region's area/volume.  A box whose volume
    binary64 does not hold (a 10-ball of radius 3.6e30 holds its measure,
    about 1e306, but not its box's) has ``box_volume`` and ``region_measure``
    inf; the centroid estimate is unaffected.
    """

    centroid_estimate: tuple[float, ...]
    samples_accepted: int
    samples_total: int
    std_error: tuple[float, ...]
    seed: int
    box_volume: float

    @property
    def acceptance_fraction(self) -> float:
        return self.samples_accepted / self.samples_total

    @property
    def region_measure(self) -> float:
        return self.acceptance_fraction * self.box_volume


def _coordinate_rngs(seed: int, dim: int, n: int) -> "list[np.random.Generator]":
    """One generator per coordinate, coordinate ``j``'s at number ``j * n`` of the stream."""
    # (seed, 0), as when runs were cut into batches of 1e6: runs of <= 1e6 points keep their bits
    entropy = np.random.SeedSequence((seed, 0))
    return [np.random.Generator(np.random.PCG64(entropy).advance(j * n)) for j in range(dim)]


def _compact(pts: np.ndarray, keep: np.ndarray, out: np.ndarray) -> np.ndarray:
    """The columns of ``pts`` that ``keep`` marks, gathered by index into the
    front of the flat buffer ``out``; ``pts`` itself when it keeps them all."""
    idx = np.flatnonzero(keep)
    if idx.size == keep.size:
        return pts
    kept = out[: pts.shape[0] * idx.size].reshape(pts.shape[0], idx.size)
    # a C-contiguous out and mode "clip" let take write in place, with no hidden copy
    return np.take(pts, idx, axis=1, out=kept, mode="clip")


def _fold(terms: list[float]) -> list[float]:
    """A few floats whose exact sum is that of ``terms``, so that ``math.fsum``
    rounds both lists alike: the rounded sum, then the rounded remainder, and
    so on, each at most half an ulp of the one before."""
    folded: list[float] = []
    while total := math.fsum(terms + [-x for x in folded]):
        folded.append(total)
    return folded


def sample_region_centroid(
    shape: Shape, cavity: Shape | None, n: int, seed: int
) -> McEstimate:
    """Estimate the centroid of ``shape`` minus ``cavity`` from ``n`` box samples.

    ``cavity`` may be None to sample the full shape.  Points are accepted
    when inside the shape and not inside the cavity.  ``n`` and ``seed`` are
    read by ``_as_integer``, so numpy integers count as integers: ValueError
    for an ``n`` that is not an integer of at least 1000 (fewer give no
    meaningful error bar) and at most ``sys.maxsize``, and for a seed that is
    not a non-negative integer.  Also ValueError for a cavity of another
    dimension, and when nothing is accepted (cavity covering the body, a
    degenerate box, or a body that fills too little of its box, as a 64-ball
    fills about 1.7e-39 of its box).
    """
    n = _as_integer(n, "sample count", 1000, sys.maxsize)
    seed = _as_integer(seed, "seed", 0, None)
    if cavity is not None and cavity.dim != shape.dim:
        raise ValueError(
            f"cavity dimension {cavity.dim} differs from the body's dimension {shape.dim}"
        )
    lo, hi = shape.bbox()
    span = hi - lo
    centre = 0.5 * (lo + hi)
    dim = lo.size
    box_volume = math.prod(span.tolist())  # inf, with no warning, beyond binary64
    # offsets from the centre reach half the span: on an axis where n of their
    # squares could overflow, sum them times 2**-e (exact) and scale its
    # results back; other axes keep e = 0
    half = 0.5 * span
    e = np.where(half < math.sqrt(0.5 * sys.float_info.max / n), 0, np.frexp(half)[1])

    # a chunk holds 2 * CHUNK_ROWS coordinates at every k; the points of a
    # chunk and the ones a test keeps, one row per coordinate, and the
    # membership kernels' scratch, two floats per coordinate: one block each,
    # reused by every chunk
    rows = min(2 * CHUNK_ROWS // dim, n)
    size = rows * dim
    cols, kept, work = np.empty(size), np.empty(size), np.empty(2 * size)
    lows, widths = lo[:, None], span[:, None]
    scale = np.ldexp(1.0, -e)[:, None] if e.any() else None
    accepted = 0
    sums: list[list[float]] = [[] for _ in range(dim)]
    sq_sums: list[list[float]] = [[] for _ in range(dim)]
    rngs = _coordinate_rngs(seed, dim, n)
    for offset in range(0, n, rows):
        m = min(rows, n - offset)
        pts = cols[: m * dim].reshape(dim, m)
        for rng, row in zip(rngs, pts):
            rng.random(out=row)  # the next m numbers of this coordinate's block
        pts *= widths
        pts += lows
        pts = _compact(pts, shape.contains(pts.T, work), kept)
        if cavity is not None:
            in_cavity = cavity.contains(pts.T, work)
            # gather into whichever buffer the body's points do not occupy
            spare = kept if np.may_share_memory(pts, cols) else cols
            pts = _compact(pts, np.logical_not(in_cavity, out=in_cavity), spare)
        accepted += pts.shape[1]
        pts -= centre[:, None]
        if scale is not None:
            pts *= scale
        # einsum, not np.dot: BLAS rounds as its thread count has it
        squares = np.einsum("ij,ij->i", pts, pts).tolist()
        for acc, acc_sq, s, q in zip(sums, sq_sums, pts.sum(axis=1).tolist(), squares):
            acc.append(s)
            acc_sq.append(q)
        if len(sums[0]) > dim:  # about 2 k^2 partial sums are kept, whatever n
            sums, sq_sums = [_fold(s) for s in sums], [_fold(s) for s in sq_sums]

    if accepted == 0:
        raise ValueError("no samples accepted; the cavity covers the body, the box is "
                         "degenerate, or the body fills too little of its box")
    # exactly rounded merge keeps the result independent of chunk order
    mean = np.array([math.fsum(s) for s in sums]) / accepted
    total_sq = np.array([math.fsum(s) for s in sq_sums])
    if accepted > 1:
        variance = np.maximum(total_sq - accepted * mean * mean, 0.0) / (accepted - 1)
        std_error = np.sqrt(variance / accepted)
    else:
        std_error = np.full(dim, math.inf)
    return McEstimate(
        centroid_estimate=tuple((centre + np.ldexp(mean, e)).tolist()),
        samples_accepted=accepted,
        samples_total=n,
        std_error=tuple(np.ldexp(std_error, e).tolist()),
        seed=seed,
        box_volume=box_volume,
    )
