"""rBRIEF binary descriptors (rotation-steered BRIEF).

A descriptor is 256 intensity comparisons between pixel pairs sampled in
a patch around the keypoint; each comparison yields one bit.  For
rotation invariance the sampling pattern is rotated by the keypoint's
intensity-centroid orientation before the comparisons are made, as in
the original ORB paper.

Descriptors are stored packed as ``(32,)`` uint8 arrays; Hamming
distances popcount them as uint64 words where numpy has a native
popcount, and through a byte table where it has not.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .fast import Keypoint

DESCRIPTOR_BITS = 256
DESCRIPTOR_BYTES = DESCRIPTOR_BITS // 8
PATCH_RADIUS = 15
CENTROID_RADIUS = 7

_POPCOUNT = np.array([bin(i).count("1") for i in range(256)], dtype=np.uint8)

# Hamming word layout, chosen once for the platform: numpy >= 2 has a
# native popcount, so descriptor rows are viewed as uint64 words (8x
# fewer popcounts); numpy < 2 keeps uint8 bytes and the popcount table.
HAMMING_DTYPE = np.uint64 if hasattr(np, "bitwise_count") else np.uint8


def sampling_pattern(rng_seed: int = 0xB12F) -> np.ndarray:
    """The fixed (learned-offline stand-in) BRIEF test pattern.

    Returns an ``(256, 4)`` int array of ``(y1, x1, y2, x2)`` offsets
    drawn from a clipped Gaussian, the classic BRIEF-G II distribution.
    The pattern is deterministic: every extractor instance in every
    process uses the same tests, which is what makes descriptors
    comparable across clients and across the server processes.
    """
    rng = np.random.default_rng(rng_seed)
    sigma = PATCH_RADIUS / 2.5
    pattern = rng.normal(scale=sigma, size=(DESCRIPTOR_BITS, 4))
    return np.clip(np.round(pattern), -PATCH_RADIUS + 1, PATCH_RADIUS - 1).astype(np.int32)


_PATTERN = sampling_pattern()


def _centroid_angles(pixels: np.ndarray, ui: np.ndarray, vi: np.ndarray, radius: int) -> np.ndarray:
    """Intensity-centroid orientation of the full patches centred on ``(ui, vi)``.

    The moments are integer sums, exact in any order, so ``arctan2`` gets
    the very inputs a per-patch float sum would give it.
    """
    size = 2 * radius + 1
    patches = sliding_window_view(pixels, (size, size))[vi - radius, ui - radius]
    offsets = np.arange(-radius, radius + 1)
    m01 = patches.sum(axis=2, dtype=np.int64) @ offsets
    m10 = patches.sum(axis=1, dtype=np.int64) @ offsets
    return np.arctan2(m01.astype(np.float64), m10.astype(np.float64))


def describe(
    pixels: np.ndarray, u: np.ndarray, v: np.ndarray, angles: Optional[np.ndarray] = None
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Orient and describe all keypoints ``(u, v)`` of one image at once.

    Returns ``(inside, angles, descriptors)``: the mask of keypoints far
    enough from the border to be described and, for those, the patch
    orientation (computed unless given) and the packed ``(n, 32)``
    descriptors.
    """
    h, w = pixels.shape
    u, v = np.asarray(u, dtype=np.float64), np.asarray(v, dtype=np.float64)
    margin = PATCH_RADIUS + 2
    inside = (margin <= u) & (u < w - margin) & (margin <= v) & (v < h - margin)
    if not inside.any():  # also: an image too small to hold one patch
        return inside, np.zeros(0), np.zeros((0, DESCRIPTOR_BYTES), dtype=np.uint8)
    u, v = u[inside], v[inside]
    if angles is None:
        ui, vi = np.rint(u).astype(int), np.rint(v).astype(int)
        angles = _centroid_angles(pixels, ui, vi, CENTROID_RADIUS)
    else:
        angles = np.asarray(angles, dtype=np.float64)[inside]
    cos_a, sin_a = np.cos(angles)[:, None], np.sin(angles)[:, None]
    # Both work buffers are reused for every product: at (n, 256) a fresh
    # temporary costs more in page faults than the arithmetic on it.
    acc, tmp = np.empty((2, len(angles), DESCRIPTOR_BITS))

    def steered(on_cos, on_sin, base, limit):
        """``clip(round(base + on_cos * cos + on_sin * sin), 0, limit)``."""
        np.multiply(on_cos, cos_a, out=acc)
        np.multiply(on_sin, sin_a, out=tmp)
        np.add(acc, tmp, out=acc)
        np.add(base, acc, out=acc)
        np.rint(acc, out=acc)
        return np.clip(acc, 0, limit, out=acc).astype(np.intp)

    # Each test's two endpoints, rotated by the patch orientation.
    u, v, flat = u[:, None], v[:, None], pixels.reshape(-1)
    first, second = (
        flat.take(steered(dy, dx, v, h - 1) * w + steered(dx, -dy, u, w - 1))
        for dy, dx in (_PATTERN[:, :2].T, _PATTERN[:, 2:].T)
    )
    return inside, angles, np.packbits(first < second, axis=1)


def intensity_centroid_angle(pixels: np.ndarray, u: float, v: float,
                             radius: int = CENTROID_RADIUS) -> float:
    """Orientation of the patch by the intensity-centroid method (radians).

    A patch clipped by the image border has the moments of the same patch
    zero-padded, so padding lets the batch kernel serve one keypoint.
    """
    ui, vi = (np.array([int(round(c)) + radius]) for c in (u, v))
    return float(_centroid_angles(np.pad(pixels, radius), ui, vi, radius)[0])


def compute_descriptor(
    pixels: np.ndarray, keypoint: Keypoint, angle: Optional[float] = None
) -> Optional[np.ndarray]:
    """Compute one packed rBRIEF descriptor, or None near the border."""
    inside, _, descriptors = describe(
        pixels, [keypoint.u], [keypoint.v], None if angle is None else [angle]
    )
    return descriptors[0] if inside[0] else None


def descriptor_words(descriptors: np.ndarray) -> np.ndarray:
    """One descriptor block in its Hamming word layout.

    Under the uint64 layout the ``(n, 8k)`` uint8 rows are viewed as
    ``(n, k)`` uint64 words; otherwise, and for widths that are not a
    multiple of 8 bytes, they stay uint8.  The view is pure
    reinterpretation, so it copies nothing.
    """
    descriptors = np.ascontiguousarray(descriptors, dtype=np.uint8)
    if descriptors.ndim != 2:
        raise ValueError("descriptors must be 2-D")
    if HAMMING_DTYPE == np.uint64 and descriptors.shape[1] % 8 == 0:
        descriptors = descriptors.view(np.uint64)
    return descriptors


def hamming_distance_matrix_lut(set_a: np.ndarray, set_b: np.ndarray) -> np.ndarray:
    """Reference all-pairs Hamming via the byte popcount table.

    Materializes the full ``(m, n, bytes)`` xor tensor — kept as the
    correctness reference and as the fallback for descriptor widths that
    are not a multiple of 8 bytes.
    """
    set_a = np.atleast_2d(set_a)
    set_b = np.atleast_2d(set_b)
    xor = np.bitwise_xor(set_a[:, None, :], set_b[None, :, :])
    return _POPCOUNT[xor].sum(axis=2).astype(np.int32)


def _hamming_matrix_bitdot(set_a: np.ndarray, set_b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming as a bit-matrix product (no rank-3 tensor).

    With unpacked bit matrices ``A`` and ``B``, ``popcount(a ^ b) =
    |a| + |b| - 2 a.b``; the cross term is one BLAS matmul.
    """
    bits_a = np.unpackbits(set_a, axis=1).astype(np.float32)
    bits_b = np.unpackbits(set_b, axis=1).astype(np.float32)
    pop_a = bits_a.sum(axis=1).astype(np.int32)
    pop_b = bits_b.sum(axis=1).astype(np.int32)
    cross = (bits_a @ bits_b.T).astype(np.int32)
    return pop_a[:, None] + pop_b[None, :] - 2 * cross


def hamming_distance_matrix(set_a: np.ndarray, set_b: np.ndarray) -> np.ndarray:
    """All-pairs Hamming distances between two descriptor stacks.

    ``set_a`` is ``(m, 32)`` and ``set_b`` is ``(n, 32)``; the result is
    an ``(m, n)`` int32 matrix.  This is the data-parallel form used by
    the GPU matching kernel.  Under the uint64 layout each row is four
    words and the matrix is accumulated word by word, so the peak
    intermediate is one ``(m, n)`` matrix rather than the byte-LUT
    reference's rank-3 tensor; under the uint8 layout (numpy < 2) it is
    the bit-matrix product.  Unequal widths, or widths that are not a
    multiple of 8 bytes, take the byte-LUT reference.  Tests assert
    bit-exact equivalence with :func:`hamming_distance_matrix_lut`.
    """
    set_a = np.atleast_2d(set_a)
    set_b = np.atleast_2d(set_b)
    width = set_a.shape[1]
    if width != set_b.shape[1] or width % 8 != 0 or width == 0:
        return hamming_distance_matrix_lut(set_a, set_b)
    if HAMMING_DTYPE != np.uint64:
        return _hamming_matrix_bitdot(set_a, set_b)
    a64 = descriptor_words(set_a)
    b64 = descriptor_words(set_b)
    out = np.bitwise_count(a64[:, 0, None] ^ b64[None, :, 0]).astype(np.int32)
    for k in range(1, a64.shape[1]):
        out += np.bitwise_count(a64[:, k, None] ^ b64[None, :, k])
    return out


def hamming_distance_pairs(
    set_a: np.ndarray,
    set_b: np.ndarray,
    idx_a: np.ndarray,
    idx_b: np.ndarray,
    words_a: Optional[np.ndarray] = None,
    words_b: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Hamming distances for explicit index pairs ``(idx_a[i], idx_b[i])``.

    The sparse companion of :func:`hamming_distance_matrix`: after
    spatial pruning only the surviving candidate pairs pay for popcount
    work, so cost scales with pairs rather than ``m * n``.

    ``words_a`` / ``words_b`` are optional blocks already in the word
    layout (:func:`descriptor_words`), so repeated searches over the
    same blocks build the view once.
    """
    if len(idx_a) == 0:
        return np.zeros(0, dtype=np.int32)
    if words_a is None:
        words_a = descriptor_words(np.atleast_2d(set_a))
    if words_b is None:
        words_b = descriptor_words(np.atleast_2d(set_b))
    rows_a = np.asarray(idx_a, dtype=np.intp)
    rows_b = np.asarray(idx_b, dtype=np.intp)
    xor = words_a[rows_a] ^ words_b[rows_b]
    counts = np.bitwise_count(xor) if HAMMING_DTYPE == np.uint64 else _POPCOUNT[xor]
    return np.sum(counts, axis=1, dtype=np.int32)


def random_descriptor(rng: np.random.Generator) -> np.ndarray:
    """Draw a uniformly random packed descriptor (for synthetic features)."""
    return rng.integers(0, 256, size=DESCRIPTOR_BYTES, dtype=np.uint8)


def random_bit_subsets(
    rng: np.random.Generator, n_rows: int, k: int, n_bits: int = DESCRIPTOR_BITS
) -> np.ndarray:
    """``k`` distinct indices in ``[0, n_bits)`` for each of ``n_rows`` rows.

    Floyd's algorithm, one column for all rows at a time: column ``c``
    draws ``t`` uniform in ``[0, j]``, ``j = n_bits - k + c``, and keeps
    ``t`` unless its row already holds it, in which case it takes ``j``,
    which no earlier column can hold.  Each row is a uniform ``k``-subset,
    for ``k`` ``integers`` calls of size ``n_rows``.  ``k`` is clamped to
    ``[0, n_bits]``; the result is ``(n_rows, k)``.
    """
    k = max(0, min(k, n_bits))
    subsets = np.empty((n_rows, k), dtype=np.intp)
    for col, j in enumerate(range(n_bits - k, n_bits)):
        t = rng.integers(0, j + 1, size=n_rows)
        taken = (subsets[:, :col] == t[:, None]).any(axis=1)
        subsets[:, col] = np.where(taken, j, t)
    return subsets


def perturb_descriptor(
    descriptor: np.ndarray, rng: np.random.Generator, flip_bits: int
) -> np.ndarray:
    """Flip ``flip_bits`` random bits — models viewpoint/noise variation."""
    flipped = descriptor.copy()
    flip_packed_bits(flipped, random_bit_subsets(rng, 1, flip_bits, 8 * descriptor.size)[0])
    return flipped


def flip_packed_bits(packed: np.ndarray, bits: np.ndarray) -> None:
    """Flip bits ``bits`` of the packed byte array ``packed`` in place.

    Bit ``i`` is byte ``i >> 3`` (in C order, across rows) under mask
    ``0x80 >> (i & 7)``, the big-endian order of ``np.unpackbits``;
    ``bitwise_xor.at`` because two flipped bits can share a byte.
    """
    bits = np.asarray(bits, dtype=np.intp)
    byte = np.unravel_index(bits >> 3, packed.shape)
    np.bitwise_xor.at(packed, byte, (0x80 >> (bits & 7)).astype(np.uint8))
