"""Monte Carlo centroid oracle for body-minus-cavity regions.

Uniform rejection sampling from the body's axis-aligned bounding box gives a
centroid estimate with quantified statistical error, fully independent of
the closed-form geometry it cross-checks.

Reproducibility contract: the generator is numpy's PCG64; batch ``i`` of a
run seeded with ``s`` uses ``SeedSequence((s, i))`` and batches have a fixed
size, so estimates are bit-identical across runs and independent of how
batches might be distributed over workers.  Within a batch the draws are
taken in chunks of ``CHUNK_ROWS`` points; the generator fills rows in
order, so the chunks consume the same numbers as one whole-batch draw and
every accept/reject decision is the same.  Each chunk is laid out column by
column for the membership kernels, and working memory is a few chunks
(about ``16 * CHUNK_ROWS * k`` bytes), whatever ``n``.  Counts, sums and
sums of squares are taken per chunk about the centre of the box, which
keeps the variance free of cancellation far from the origin, and merged
with exactly rounded summation, which makes the merge order irrelevant.

Rejection from the bounding box degrades with dimension (the ball fills
fewer than 0.25% of its box at k = 10), so treat k <= 10 as the practical
ceiling for the oracle.
"""

import math
from dataclasses import dataclass

import numpy as np

from .shapes import Shape

BATCH_SIZE = 1_000_000
CHUNK_ROWS = 1 << 16  # points per chunk: a chunk's columns stay in cache


def bounding_box(shape: Shape) -> tuple[np.ndarray, np.ndarray]:
    """Axis-aligned (lower, upper) corners enclosing the shape."""
    return shape.bbox()


def contains(shape: Shape, points: np.ndarray) -> np.ndarray:
    """Vectorized closed-region membership for an (n, dim) point array."""
    return shape.contains(np.asarray(points, dtype=float))


def point_in_shape(shape: Shape, p) -> bool:
    """Exact membership of a single point (boundary counts as inside)."""
    return bool(contains(shape, np.asarray(p, dtype=float)[None, :])[0])


@dataclass(frozen=True)
class McEstimate:
    """Sampled centroid of body minus cavity.

    ``std_error`` is the per-coordinate sample standard deviation divided by
    the square root of the accepted count; the acceptance fraction times
    ``box_volume`` estimates the region's area/volume.
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


def _batch_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(np.random.SeedSequence((seed, index))))


def sample_region_centroid(
    shape: Shape, cavity: Shape | None, n: int, seed: int
) -> McEstimate:
    """Estimate the centroid of ``shape`` minus ``cavity`` from ``n`` box samples.

    ``cavity`` may be None to sample the full shape.  Points are accepted
    when inside the shape and not inside the cavity.  Raises ValueError for
    an ``n`` that is not an integer of at least 1000, a negative seed, a
    cavity of another dimension, and when nothing is accepted (cavity
    covering the body, or hopeless acceptance).
    """
    if isinstance(n, bool) or not isinstance(n, (int, np.integer)):
        raise ValueError(f"sample count must be an integer, got {n!r}")
    n = int(n)
    if n < 1000:
        raise ValueError(f"need at least 1000 samples for a meaningful error bar, got {n}")
    if not isinstance(seed, int) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be a non-negative integer, got {seed!r}")
    if cavity is not None and cavity.dim != shape.dim:
        raise ValueError(
            f"cavity dimension {cavity.dim} differs from the body's dimension {shape.dim}"
        )
    lo, hi = shape.bbox()
    span = hi - lo
    centre = 0.5 * (lo + hi)
    dim = lo.size
    box_volume = float(np.prod(span))

    accepted = 0
    sums: list[list[float]] = [[] for _ in range(dim)]
    sq_sums: list[list[float]] = [[] for _ in range(dim)]
    for index, start in enumerate(range(0, n, BATCH_SIZE)):
        rng = _batch_rng(seed, index)
        batch = min(BATCH_SIZE, n - start)
        for offset in range(0, batch, CHUNK_ROWS):
            # rows in generator order, stored column by column
            pts = np.asfortranarray(rng.random((min(CHUNK_ROWS, batch - offset), dim)))
            pts *= span
            pts += lo
            accept = shape.contains(pts)
            if cavity is not None:
                accept &= ~cavity.contains(pts)
            accepted += int(np.count_nonzero(accept))
            for j in range(dim):
                d = pts[:, j][accept] - centre[j]
                sums[j].append(float(d.sum()))
                sq_sums[j].append(float(np.dot(d, d)))

    if accepted == 0:
        raise ValueError("no samples accepted; cavity covers the body or box is degenerate")
    # exactly rounded merge keeps the result independent of chunk and batch order
    mean = np.array([math.fsum(s) for s in sums]) / accepted
    total_sq = np.array([math.fsum(s) for s in sq_sums])
    if accepted > 1:
        variance = np.maximum(total_sq - accepted * mean * mean, 0.0) / (accepted - 1)
        std_error = np.sqrt(variance / accepted)
    else:
        std_error = np.full(dim, math.inf)
    return McEstimate(
        centroid_estimate=tuple(float(x) for x in centre + mean),
        samples_accepted=accepted,
        samples_total=n,
        std_error=tuple(float(x) for x in std_error),
        seed=seed,
        box_volume=box_volume,
    )
