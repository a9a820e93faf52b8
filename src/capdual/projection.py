"""Tensor-power projection norms, duality and prefactor reports, Laurent tools.

For a torus vector v with squared amplitudes q_w, the squared norm of the
weight-lambda component of v^{tensor k} is the coefficient of t^lambda in
(sum_w q_w t^w)^k. Every engine reads one object, the law of S_k, a sum of
k independent draws from a distribution p on integer weights, and steps it
with one convolution step, the row stream's (_RowStream): by k -> k + 1,
or in a duality report by k -> k + J, one product with the law of S_J
(_RowStream.jump), direct on a line where that costs less, else by FFT.
A step on one axis is one numpy.convolve call. On more axes, and in the
log domain on any, it copies the row once, padded on every axis but the
first to the output's extent, so that the shift by a weight is one flat
offset, and adds each weight's term as one contiguous product and one
contiguous sum (_RowStream._shift_add): every cell is the same sum, in the
same order, as per-term shifted slices would give.
Rows live in the integer chart w = w0 + B c of the weights
(capacity._chart): d axes for a d-dimensional face, one cell per lattice
point however far apart the weights are, on the axes of that lattice that
hold the fewest cells (_lll_axes).

- The exact table, the oracle the other engines are judged against, steps
  p = q / |v|^2 on the chart of the whole support and never crops. Every
  coefficient is a sum of nonnegative products, so shift and add in
  float64 keeps every cell within a relative k (|W| + 1) eps of exact, |W|
  weights, with no cancellation, as long as no cell underflows. The rows
  are therefore linear while every reachable cell stays a normal float,
  and log-domain steps on the same axes after that.
- The reports' rows carry a relative truncation floor, which keeps array
  extents O(sqrt(k log(1/floor))) per axis.
- The duality report reads one coefficient per k, at k theta, that is at
  k c_theta in the chart of the face record; a k with k c_theta off the
  lattice reads an exact 0. It tilts q by the capacity minimizer x*, p_w
  proportional to q_w e^{2<w, x*>} on the minimal face of theta, and uses
  the identity, exact for every x and k,

      |Pi_{k theta} v^{tensor k}|^2 = e^{k F(x)} P_p(S_k = k theta),

  where F(x*) = log cap_theta(v)^2. Under p the mean of S_k is k theta, so
  the floor only removes far tails. Only every P-th k can be nonzero, P
  the least period of both theta and c_theta. The rows come from a stream
  that crops lazily (_RowStream) and holds every J-th row, J a multiple of
  P near 32 whose laws K_P, K_2P, .., K_J fit in 1 MiB (_held_period). It
  reaches the next held row by J steps or by one product with K_J,
  whichever costs less: on a line a direct product with K_J where that
  costs less than an FFT, else an FFT product with K_J cropped once at
  the floor. It reads the rows between through the uncropped K_P .. K_J,
  on a line in one windowed product (_reads) where the laws' stack fits
  beside them, else one dot product each (_held_reads). Every read
  through a law is an exact convolution of the held row, so the mass the
  crops removed bounds its error in absolute terms; a P_p(S_k = k theta)
  below that bound has no relative accuracy, in these rows or in a stream
  stepped every k.
- The prefactor sequence k^{d/2} |Pi_k v^{tensor k}|^2 is the theta = 0,
  x* = 0 case, p = q, read at 0 (k c0 in the chart of the whole support).
  The first target is powered by binary squaring, each product a real FFT
  convolution on numpy.fft with every axis padded to a 5-smooth length
  (_row_conv), so k = 10^4 is cheap; later targets walk the same stream
  from that anchor and read one dot product. Walk or product: the report
  and the prefactor choose by one cost test (_fft_pays).

Laurent constant terms cst f^k, for every k <= k_max, come from one pass
over core.power_rows, the row stream rank-1 multiplicities also read.
Critical points are the companion-matrix roots of z f'(z); for nonnegative
f the infimum over the positive reals is read at the root on that axis.
"""

from __future__ import annotations

import cmath
import copy
import math
import numbers
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Iterator, Sequence

import numpy as np

from .capacity import _chart, _lattice_solve, moment_map, theta_capacity
from .core import (ConvergenceReport, LogValue, WeightedVector, power_rows,
                   rational_vector)

__all__ = [
    "ProjectionTable",
    "projection_norm_table",
    "duality_report",
    "prefactor_sequence",
    "difference_lattice",
    "LaurentPoly",
    "laurent_cst_powers",
    "CriticalValues",
    "critical_values",
]

MAX_DP_BYTES = 2 << 30  # 2 GiB guard for dense convolution tables

# Entries below max * _TRUNC_FLOOR are set to zero at every crop (_crop):
# after every FFT product (_row_conv), and each time a row of the stream
# (_RowStream) has doubled its cells since its last crop.
# - Stream rows: every row is the law of S_k and every step a convolution
#   with p, which sums to 1, so mass removed at one crop removes exactly
#   that much from all later rows. A jump (_RowStream.jump) is a product
#   with the law of S_J, which sums to 1. A direct one, with the uncropped
#   law, crops as a step does. An FFT one goes by the law cropped once:
#   the mass cropped from the law bounds what each such jump loses by it,
#   and counts at every one, and the product's own crop counts as a
#   step's does. A read goes through the uncropped law of S_j from a held
#   row (_reads, _held_reads), which sums to 1. The sum of the removed
#   masses, the report's metadata["dropped_mass"], is therefore an
#   absolute bound on the truncation error of every P_p(S_k = k theta)
#   read; the value read there, at the mean, is of order k^{-d/2}, but a
#   value below the bound (far from the mean, or a wide kernel at large k)
#   has only the bound and no relative accuracy. An FFT product also rounds
#   each cell by at most about eps log2(cells) times the row's largest, far
#   below the floor.
# - Prefactor anchors: mass lost per product is below (array size) * floor
#   relative to the total, around 1e-7 at the largest supported extents,
#   and the central values read sit at or near the array maximum, so their
#   relative bias stays under 1e-6.
_TRUNC_FLOOR = 1e-12


# The semirings of a step (_RowStream._shift_add): (times, plus, zero).
_LINEAR = (np.multiply, np.add, 0.0)
_LOG = (np.add, np.logaddexp, -math.inf)


def _step_log(row: _Row, stream: _RowStream, logq: Sequence[float]) -> _Row:
    """One exact convolution step in log domain: the stream's, log q_w for
    p_w, by the same flat shift and add (_RowStream._shift_add) with
    logaddexp for + and -inf for 0. The row is a new array, which carries
    the layout's one stride of tail past its last cell."""
    out = stream._shift_add(row.arr, logq, _LOG, np.empty)
    return _Row(out, row.offset + stream.kernel.offset)


def _linear_k(q: np.ndarray, k_max: int) -> int:
    """The last row built in linear arithmetic: the largest k <= k_max with
    p_min^k >= 2^-1000, p = q / sum(q). Every reachable cell of row k of
    (sum_w p_w t^w)^k is at least p_min^k and every cell at most 1, so up to
    there no cell leaves the normal range of float64 (down to 2^-1022)."""
    bits = -math.log2(float(q.min() / q.sum()))
    return k_max if bits <= 0 else min(k_max, int(1000 / bits))


def _log_rows(stream: _RowStream, q: np.ndarray, k_max: int) -> Iterator[_Row]:
    """Rows k = 1 .. k_max of the log coefficients of (sum_w q_w t^w)^k on
    the axes of the uncropped stream of p = q / |v|^2: its rows 1 ..
    _linear_k, stored as log(row) + k log |v|^2, then log steps (_step_log)
    from the last of them, or from the point mass at k = 0 when no row is
    linear. The stream is reset after its rows, which frees its row buffers;
    the log steps use only its padded-copy and term buffers."""
    k_lin = _linear_k(q, k_max)
    log_norm_sq = math.log(float(q.sum()))
    row = _Row(np.zeros(stream.row.arr.shape), stream.row.offset)
    for k in range(1, k_lin + 1):
        stream.step()
        with np.errstate(divide="ignore"):  # unreachable cells are exact zeros
            row = _Row(np.log(stream.row.arr), stream.row.offset)
        row.arr += k * log_norm_sq
        yield row
    stream.reset()
    logq = np.log(q).tolist()
    for _ in range(k_lin, k_max):
        row = _step_log(row, stream, logq)
        yield row


class ProjectionTable:
    """Exact squared projection norms for k = 1 .. k_max, held as logs on
    the chart of the support, w = w0 + B c, at the cells U c of axes U."""

    def __init__(self, n: int, norm_sq: float, w0: Sequence[int],
                 basis: Sequence[Sequence[int]], axes: np.ndarray, rows: list[_Row]):
        self.n = n
        self.norm_sq = norm_sq
        self._w0 = tuple(w0)
        self._hnf = [list(col) for col in zip(*basis)]  # the columns of B
        self._axes = axes.tolist()
        self._rows = rows

    @property
    def k_max(self) -> int:
        return len(self._rows)

    def _row(self, k: int) -> _Row:
        if not 1 <= k <= self.k_max:
            raise ValueError(f"k = {k} outside the tabulated range 1..{self.k_max}")
        return self._rows[k - 1]

    def get(self, k: int, lam) -> LogValue:
        """Squared norm of the weight-lam component of v^{tensor k}, at the
        cell U c for lam - k w0 = B c (capacity._lattice_solve): exact zero
        off the weights' affine span, at nonintegral c, or outside row k."""
        row = self._row(k)
        c = _lattice_solve(self._hnf, [int(x) - k * w for x, w in zip(lam, self._w0, strict=True)])
        if c is None or any(t.denominator != 1 for t in c):
            return LogValue.zero()
        val = row.cell([sum(u * int(t) for u, t in zip(axis, c)) for axis in self._axes], -math.inf)
        return LogValue.zero() if val == -math.inf else LogValue(1, val)

    def row_weights(self, k: int) -> tuple[np.ndarray, np.ndarray]:
        """Row k in bulk: (lam, logs), lam the int64 weights of the row's
        cells, one per row of a (cells, n) array, and logs their log squared
        norms, -inf where the norm is 0. Every other weight is an exact zero.
        The cell U c holds lam = k w0 + B c, so lam = k w0 + B U^{-1} cell."""
        row = self._row(k)
        d = len(self._hnf)
        if d:
            U = np.array(self._axes, dtype=np.int64)
            U_inv = np.rint(np.linalg.inv(U)).astype(np.int64)
            if not np.array_equal(U @ U_inv, np.eye(d, dtype=np.int64)):
                raise RuntimeError("chart axes failed their unimodularity check")
            lift = np.array(self._hnf, dtype=np.int64).T @ U_inv
        else:  # one cell on one axis, at k w0
            lift = np.zeros((self.n, 1), dtype=np.int64)
        cells = np.indices(row.arr.shape).reshape(row.arr.ndim, -1).T + row.offset
        return k * np.array(self._w0, dtype=np.int64) + cells @ lift.T, row.arr.ravel()

    def total(self, k: int) -> LogValue:
        """log of the sum over all weights; equals 2k log |v| exactly in math."""
        flat = self._row(k).arr.ravel()
        m = float(flat.max())
        if m == -math.inf:
            return LogValue.zero()
        return LogValue(1, m + math.log(float(np.exp(flat - m).sum())))


def _check_k_max(k_max) -> None:
    if not isinstance(k_max, numbers.Integral) or k_max < 1:
        raise ValueError(f"k_max must be an integer at least 1, got {k_max!r}")


def projection_norm_table(v: WeightedVector, k_max: int,
                          max_bytes: int = MAX_DP_BYTES) -> ProjectionTable:
    """Tabulate |Pi_{k,lam} v^{tensor k}|^2 for all k <= k_max, all lam, exactly.

    Rows are the uncropped rows of one stream (_RowStream, floor 0) of p =
    q / |v|^2 on the chart of the whole support, w = w0 + B c
    (capacity._chart): one cell per lattice point, however far apart the
    weights are. They are linear float64 while p_min^k >= 2^-1000, so that
    no reachable cell leaves the normal range, and log-domain steps after
    that (_log_rows). A linear row holds every cell within a relative
    k (|W| + 1) eps of exact, |W| weights; a log step adds an absolute
    rounding error of about eps times the magnitude of the log values.
    Unreachable cells and weights off the lattice k w0 + B Z^d are exact 0.

    Raises MemoryError naming the chart extent, before any row is built, if
    the rows (k width_u + 1 cells on each chart axis u, and a log row one
    stride of its first axis of tail) and the stream's four working buffers
    would exceed max_bytes in total. The buffers are sized exactly, once,
    before the first step (buffers that grow between the rows fragment the
    heap): on two axes or more the two row buffers take the last two linear
    rows with their tails, and the padded copy and the term buffer the last
    step's padded copy (_RowStream._shift_add); on one axis the linear
    steps are numpy.convolve calls and only the log steps use the latter two.
    """
    _check_k_max(k_max)
    v = v.pruned()
    if v.is_zero:
        return ProjectionTable(v.n, 0.0, (0,) * v.n, (), np.zeros((1, 0), dtype=np.int64), [])
    q = np.array([abs(c) ** 2 for _, c in v.terms])
    w0, basis, coords, _ = _chart([w.coords for w in v.support], v.support[0].coords)
    stream = _RowStream(np.array(coords, dtype=np.int64), q / q.sum(), floor=0.0)
    width = np.array(stream.kernel.arr.shape) - 1
    k_lin = _linear_k(q, k_max)
    multi = len(width) > 1

    def cells(k: int) -> tuple[int, int, int]:
        """A step to row k: the row's cells, its tail, the padded copy's cells."""
        shape = (k * width + 1).tolist()
        tail = math.prod(shape[1:])
        return shape[0] * tail, tail, ((k - 1) * int(width[0]) + 1) * tail

    sizes = [0] * 4
    for k in (k_lin - 1, k_lin) if multi else ():
        if k >= 1:
            sizes[k % 2] = sum(cells(k)[:2])
    if multi or k_max > k_lin:
        sizes[2] = sizes[3] = cells(k_max)[2]
    total = 8 * sum(sizes)
    for k in range(1, k_max + 1):
        row, tail, _ = cells(k)
        total += 8 * (row + tail if k > k_lin else row)
        if total > max_bytes:
            raise MemoryError(
                f"projection table would need more than {max_bytes} bytes at "
                f"k = {k}, chart extent {tuple(int(e) for e in (k * width + 1))}")
    stream._bufs = [np.empty(size) for size in sizes]
    return ProjectionTable(v.n, v.norm_sq, w0, basis, stream.axes,
                           list(_log_rows(stream, q, k_max)))


# The rows a duality report holds sit about _HELD steps apart, and the laws
# it reads them through take at most _LAW_CELLS float64 cells (1 MiB)
# (_held_period).
_HELD = 32
_LAW_CELLS = 1 << 17


def _tilted_law(v: WeightedVector, cap) -> tuple[np.ndarray, np.ndarray]:
    """The chart coordinates C of the minimal face of theta (cap's face
    record) and the tilted law on them, p_w proportional to q_w e^{2<w, x*>}."""
    chart = cap.certificate
    C = np.array(chart.face_coords, dtype=np.int64).reshape(len(chart.face), chart.dim)
    B = np.array(chart.basis, dtype=float).reshape(v.n, chart.dim)
    a = np.log([abs(v.terms[j][1]) ** 2 for j in chart.face]) + 2.0 * (C @ (B.T @ cap.minimizer_x))
    p = np.exp(a - a.max())
    p /= p.sum()
    return C, p


def _exact_laws(stream: _RowStream, steps: int) -> Iterator[_Row]:
    """The laws K_0 .. K_steps of S_0 .. S_steps, K_0 the point mass, on the
    stream's axes: the rows of a copy of it at floor 0, which never crops.
    On two axes or more a row lives in a working buffer of the copy, which
    the step after next overwrites."""
    exact = copy.copy(stream)
    exact.floor = 0.0
    exact.reset()
    yield exact.row
    for _ in range(steps):
        exact.step()
        yield exact.row


def _reads(row: _Row, flipped: np.ndarray, corners: np.ndarray, targets: np.ndarray) -> np.ndarray:
    """sum_x row[x] K_i[t_i - x] for each one-axis law K_i, held flipped in
    row i of flipped (zero-padded on the left to the widest) with lower
    corner corners[i], and its target cell t_i = targets[i]: a sum of
    nonnegative products each.

    One windowed product: the flipped K_i against the windows of the row
    that end where K_i's lower corner meets t_i, gathered from a copy of the
    row padded with L zeros on each side, L the width of flipped, so that a
    window cell outside the row reads 0.
    """
    n, L = row.arr.size, flipped.shape[1]
    padded = np.zeros(n + 2 * L)
    padded[L:L + n] = row.arr
    ends = targets - corners - int(row.offset[0])
    # the window of row cells ends - L + 1 .. ends starts at ends + 1 in the
    # padded copy; one wholly outside the row reads L padding zeros
    starts = np.clip(ends + 1, 0, n + L)
    return np.einsum("ji,ji->j", padded[starts[:, None] + np.arange(L)], flipped)


def _flipped_stack(laws: list[_Row]) -> tuple[np.ndarray, np.ndarray] | None:
    """The one-axis laws flipped and stacked once for _reads, each
    zero-padded on the left to the last, widest one, with their lower
    corners; None where that stack would not fit beside the laws in
    _LAW_CELLS cells, the budget _held_period fits the laws to. On a wide
    kernel the stack is about twice the laws: 32 x 6401 cells beside
    105,632 for the 201-cell line at J = 32."""
    width = laws[-1].arr.size
    if len(laws) * width + sum(K.arr.size for K in laws) > _LAW_CELLS:
        return None
    flipped = np.zeros((len(laws), width))
    for i, K in enumerate(laws):
        flipped[i, width - K.arr.size:] = K.arr[::-1]
    return flipped, np.array([int(K.offset[0]) for K in laws])


def _held_period(widths: np.ndarray, period: int, k_max: int) -> int:
    """J, the distance between the rows a duality report holds: the largest
    multiple of period up to a top whose read laws K_period, K_2period, ..,
    K_J fit in _LAW_CELLS cells (1 MiB); period if none fit. The top is
    max(period, min(_HELD, k_max)) on two axes or more. On one axis, where
    a read is one row of a windowed product (_reads) and a jump may be a
    direct product, rows held more densely than every _HELD-th cost more
    than the reads they save, so the top is min(_HELD, k_max) rounded up to
    a multiple of period. K_j spans j width_u + 1 cells on each axis u, so
    no law is built to count them."""
    top = min(_HELD, k_max)
    top = -(-top // period) * period if len(widths) == 1 else max(period, top)
    J, cells = period, 0
    for j in range(period, top + 1, period):
        cells += math.prod((j * widths + 1).tolist())
        if cells > _LAW_CELLS:
            break
        J = j
    return J


def _held_reads(stream: _RowStream, period: int, k_max: int, step: np.ndarray) -> np.ndarray:
    """P(S_k = (k / period) step) at k = period, 2 period, .. <= k_max, in
    that order, from a stream of p that holds every J-th row (_held_period).

    From the row R held at k0 the stream reaches k0 + J in one of two ways,
    whichever costs less by the test on J steps (_fft_pays), which counts
    the cells of the product the jump forms: R's box plus the cropped K_J's
    box minus one on each axis, or K_J's uncropped box before the laws are
    built:
    - a jump (_RowStream.jump) by K_J, the law of S_J, in one product: on
      one axis a direct one with K_J where that costs less than an FFT
      (_direct_pays), else an FFT product with a copy of K_J cropped once at
      the stream's floor. Each read at k = k0 + j, 0 < j <= J, is
      sum_x R[x] K_j[t - x] through the uncropped K_j, t the target of k, a
      sum of nonnegative products: on one axis one windowed product reads
      the whole block (_reads) where the laws' stack fits beside them
      (_flipped_stack), else, as on more axes, one dot product reads each k
      (_cst_of_product). The laws K_period .. K_J are the rows of a floor-0
      copy of the stream (_exact_laws), built at the first jump. From the
      point mass a read is a cell of K_j, and the row held at J is the
      cropped K_J.
    - J steps, reading the cell of every period-th row on the way.
    No jump follows the last read.
    """
    widths = np.array(stream.kernel.arr.shape) - 1
    J = _held_period(widths, period, k_max)
    last = k_max // period * period
    probs = np.zeros(last // period)
    laws = None
    for k0 in range(0, last, J):
        reach = min(J, last - k0)
        shape = np.array(stream.row.arr.shape) if k0 else J * widths + 1
        law = J * widths + 1 if laws is None else np.array(kernel.arr.shape)
        if _fft_pays(J, len(stream.terms), math.prod((shape + law - 1).tolist())):
            if laws is None:  # copied: on two axes the copy's step after next overwrites a row
                laws = [_Row(K.arr.copy(), K.offset) for j, K in enumerate(_exact_laws(stream, J))
                        if j and j % period == 0]
                # the FFT jumps go by a cropped copy; the reads stay uncropped
                arr, offset, cut = _crop(laws[-1].arr.copy(), laws[-1].offset,
                                         float(laws[-1].arr.max()) * stream.floor)
                kernel = _Row(arr, offset)
                stack = _flipped_stack(laws) if widths.size == 1 else None
            i0, n = k0 // period, reach // period
            targets = np.arange(i0 + 1, i0 + n + 1)[:, None] * step
            if stack is not None:
                flipped, corners = stack
                probs[i0:i0 + n] = _reads(stream.row, flipped[:n], corners[:n], targets[:, 0])
            else:
                for i, t in enumerate(targets):
                    probs[i0 + i] = _cst_of_product(stream.row, replace(laws[i], offset=laws[i].offset - t))
            if k0 + J < last:
                stream.jump(kernel, J, cut, laws[-1])
        else:
            for j in range(1, reach + 1):
                stream.step()
                if j % period == 0:
                    probs[(k0 + j) // period - 1] = stream.row.cell((k0 + j) // period * step)
    return probs


def duality_report(v: WeightedVector, theta, k_max: int) -> ConvergenceReport:
    """Per-k comparison of projection growth against the theta-capacity.

    Rows cover every k <= k_max with k theta integral. Columns:
    k, log_norm_sq (LogValue), rate (log_norm_sq / k), log_cap_sq, gap
    where gap = -(1/k) log P_p(S_k = k theta) >= 0 is log_cap_sq - rate,
    read from the tilted row stream (module docstring). Only every P-th k
    is read, P = lcm(ell, m), ell the period of theta and m that of its
    chart point c_theta; the other k of ell Z are exact zeros. The stream
    holds every J-th row, J a multiple of P whose laws K_P .. K_J take at
    most 1 MiB, and about 32 (_held_period). From a held row it either
    jumps to the next by one product with K_J, the law of S_J, and reads
    the rows between through the uncropped K_P .. K_J, or takes J steps,
    whichever costs less (_held_reads, _fft_pays). On one axis a jump is a
    direct product with K_J where that costs less than an FFT
    (_direct_pays), and otherwise an FFT product with K_J cropped once at
    the floor.
    metadata["dropped_mass"] is the probability mass the truncation floor
    removed over the held rows, at their crops and FFT products, and
    from K_J at each FFT jump: an absolute bound on the error of every
    P_p(S_k = k theta), since every held row and every read is an exact
    convolution with a law that sums to 1, or with the cropped K_J. A
    P_p(S_k = k theta) below it has only that bound, and no relative
    accuracy. metadata["crops"] and metadata["max_row_cells"] count the
    crops and the cells of the largest row over the rows the stream held:
    a direct jump is one row and crops as a step does, an FFT jump is one
    row and one crop (the cropped K_J from the point mass, else the FFT
    product). Outside the moment polytope every row is an exact zero with a
    NaN gap and the counts are 0.
    """
    _check_k_max(k_max)
    v = v.pruned()
    if v.is_zero:
        raise ValueError("duality report of the zero vector is undefined")
    th = rational_vector(theta, v.n)
    ell = math.lcm(*(t.denominator for t in th))
    cap = theta_capacity(v, th)
    metadata = {"theta": th, "period": ell, "capacity": cap, "dropped_mass": 0.0,
                "crops": 0, "max_row_cells": 0}
    columns = ("k", "log_norm_sq", "rate", "log_cap_sq", "gap")
    if not cap.log_cap.sign:
        rows = [(k, LogValue.zero(), -math.inf, -math.inf, math.nan)
                for k in range(ell, k_max + 1, ell)]
        return ConvergenceReport(columns=columns, rows=rows, metadata=metadata)

    log_cap_sq = 2.0 * cap.log_cap.log_mag
    chart = cap.certificate
    C, p = _tilted_law(v, cap)
    m = math.lcm(*(c.denominator for c in chart.theta_coords))  # k c_theta integral iff m | k
    P = math.lcm(ell, m)
    probs = np.zeros(k_max // ell)  # P_p(S_k = k theta) at k = ell, 2 ell, ..
    stream = _RowStream(C, p)
    step = stream.axes @ np.array([int(c * P) for c in chart.theta_coords], dtype=np.int64)
    probs[P // ell - 1::P // ell] = _held_reads(stream, P, k_max, step)
    rows, zero = [], LogValue.zero()
    for k, prob in zip(range(ell, k_max + 1, ell), probs.tolist()):
        if prob > 0:
            log_p = math.log(prob)
            norm_sq = LogValue(1, k * log_cap_sq + log_p)
        else:
            log_p, norm_sq = -math.inf, zero
        rows.append((k, norm_sq, norm_sq.log_mag / k, log_cap_sq, 0.0 - log_p / k))
    metadata.update(dropped_mass=stream.dropped, crops=stream.crops,
                    max_row_cells=stream.max_row_cells)
    return ConvergenceReport(columns=columns, rows=rows, metadata=metadata)


# ---------------------------------------------------------------------------
# Difference lattice: dimension d and the period m of the zero-weight
# subsemigroup, read from the integer chart of the support.

def _zero_chart(v: WeightedVector
                ) -> tuple[tuple[tuple[int, ...], ...], tuple[Fraction, ...], int]:
    """The chart of the support of a pruned v (capacity._chart): the integer
    coordinates of the weights, the coordinates c0 of the origin, B c0 =
    -w0, and the least m >= 1 with m c0 integral. k c0 is a lattice point
    exactly when m divides k."""
    if not v.support:
        raise ValueError("zero vector has no difference lattice")
    _, _, coords, c0 = _chart([w.coords for w in v.support], (0,) * v.n)
    if c0 is None:
        raise ValueError("no tensor power of v meets the zero weight space")
    return coords, c0, math.lcm(*(c.denominator for c in c0))


def difference_lattice(v: WeightedVector) -> tuple[int, int]:
    """(d, m): rank of the lattice spanned by weight differences, and the
    smallest m >= 1 with m * w0 inside it for a fixed support weight w0."""
    _, c0, m = _zero_chart(v.pruned())
    return len(c0), m


# ---------------------------------------------------------------------------
# Linear rows: the row stream of the table, the duality report and the
# prefactor walk, and the FFT powers of the prefactor anchors. Every row is
# a probability law (p sums to 1, the prefactor's q to |v|^2 = 1 within
# 1e-10), so no row can under- or overflow and none is ever rescaled.

@dataclass
class _Row:
    arr: np.ndarray          # values on the box: nonnegative, or logs in a table
    offset: np.ndarray       # integer lower corner of the bounding box

    def cell(self, lam: Sequence[int], outside: float = 0.0) -> float:
        """The entry of arr at the weight lam, `outside` outside the box."""
        idx = tuple(int(c - o) for c, o in zip(lam, self.offset.tolist(), strict=True))
        if any(i < 0 or i >= s for i, s in zip(idx, self.arr.shape)):
            return outside
        return float(self.arr[idx])


def _crop(arr: np.ndarray, offset: np.ndarray, floor: float
          ) -> tuple[np.ndarray, np.ndarray, float]:
    """Zero the entries of arr below floor, in place, and crop the zero
    margins: (cropped copy, its lower corner, the sum of the zeroed
    entries)."""
    keep = arr >= floor
    dropped = float(arr.sum(where=~keep))
    np.multiply(arr, keep, out=arr)  # exact: x 1 = x above the floor, x 0 = 0 below it
    lo, hi = [], []
    for ax in range(arr.ndim):
        others = tuple(i for i in range(arr.ndim) if i != ax)
        kept = np.flatnonzero(keep.any(axis=others))
        lo.append(int(kept[0]))
        hi.append(int(kept[-1]) + 1)
    return (np.ascontiguousarray(arr[tuple(map(slice, lo, hi))]), offset + lo, dropped)


def _lll_axes(C: np.ndarray, p: np.ndarray) -> np.ndarray:
    """A unimodular integer U: the axes U c on which the law of S_k, k draws
    from p on the points C, is held.

    Along an axis u, S_k spans at most k width_u + 1 cells, width_u the
    range of u c over C, and once cropped at a relative floor about
    sqrt(k u G u) times a constant, G the covariance of C under p. Rows
    LLL-reduced (delta 0.99) in the metric G keep the product of the latter
    within 2^{d(d-1)/4} of its least, sqrt(det G); at small k the widths
    bind instead. U is that reduced basis when neither its product of widths
    nor its product of variances exceeds the identity's, else the identity.
    For d = 0, U is a 1 x 0 zero matrix: every point maps to the single
    cell 0 on one axis.
    """
    d = C.shape[1]
    if d == 0:
        return np.zeros((1, 0), dtype=np.int64)
    if d == 1:  # the only unimodular 1 x 1 matrices are +-1
        return np.eye(1, dtype=np.int64)
    ident, U = np.eye(d, dtype=np.int64), np.eye(d, dtype=np.int64)
    X = C - p @ C
    G = X.T @ (X * p[:, None])
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError:  # p underflowed to 0 on too many points
        return ident
    # Gram-Schmidt of the rows of U L through (U L)^T = Q R: mu_ji =
    # R[i, j] / R[i, i] and |b*_j| = |R[j, j]|.
    j = 1
    while j < d:
        for i in range(j - 1, -1, -1):
            R = np.linalg.qr((U @ L).T, mode="r")
            U[j] -= round(R[i, j] / R[i, i]) * U[i]
        R = np.linalg.qr((U @ L).T, mode="r")
        if R[j, j] ** 2 >= (0.99 - (R[j - 1, j] / R[j - 1, j - 1]) ** 2) * R[j - 1, j - 1] ** 2:
            j += 1
        else:
            U[[j - 1, j]] = U[[j, j - 1]]
            j = max(j - 1, 1)

    def spans(V):
        return np.prod(np.ptp(C @ V.T, axis=0)), np.prod(np.einsum("ij,jk,ik->i", V, G, V))

    return U if all(a <= b for a, b in zip(spans(U), spans(ident))) else ident


class _RowStream:
    """The law of S_k, a sum of k independent draws from p on the integer
    points C: `row` after k calls of `step`, from the point mass at the
    origin at k = 0, held on the axes U c of `axes` = U (_lll_axes).

    Every caller passes C in chart coordinates c_w, w = w0 + B c_w, so a row
    has d axes, not n. S_k in weights is k w0 + B (S_k in the chart), so a
    target with nonintegral chart coordinates is off the lattice: exact 0.
    An integral target c is read at the cell U c.

    A step convolves the row with p: it shifts the row by every weight and
    adds it weighted by p, in one numpy.convolve call on a line, and on more
    axes by one flat shift and add (_shift_add). That takes four working
    buffers, kept across steps because fresh arrays each step would
    fragment the heap between a table's rows:
    - 0 and 1 take the rows in turn, row k in buffer k % 2, each with one
      stride of the first axis of tail past the row's last cell, where the
      last shifts write products of padding;
    - 2 holds the row copied flat and padded to the output's extent on
      every axis but the first, so that a shift is one flat offset;
    - 3 holds one term's product.
    The log step (_step_log) uses 2 and 3 too, and `reset` frees only 0
    and 1: 2 and 3 are rewritten whole by each step that uses them.
    A row is cropped at floor times its maximum (_crop) only once it holds
    twice the cells it kept at the last crop; floor 0, the exact table's,
    never crops. As every later step convolves with p, `dropped`, the mass
    all crops removed, bounds the absolute error of every row; `crops` and
    `max_row_cells` (the largest row) count work.
    """

    def __init__(self, C: np.ndarray, p: np.ndarray, floor: float = _TRUNC_FLOOR):
        self.floor = floor
        self.axes = _lll_axes(C, p)
        W = C @ self.axes.T
        lo = W.min(axis=0)
        self._shifts = W - lo
        self._p = p.tolist()
        self.terms = [(tuple(w), pw) for w, pw in zip(self._shifts.tolist(), self._p)]
        kernel = np.zeros(W.max(axis=0) - lo + 1)
        for w, pw in self.terms:
            kernel[w] = pw
        self.kernel = _Row(kernel, lo)  # p as a row: the law of S_1
        self._bufs = [np.empty(0)] * 4
        self.reset()

    def reset(self) -> None:
        """Go back to k = 0, the point mass at the origin: zero counts, and
        free the row buffers 0 and 1. A shallow copy (_exact_laws) that
        resets gets its own row buffers and shares 2 and 3."""
        n = self.kernel.arr.ndim
        self.k = 0
        self.row = _Row(np.ones((1,) * n), np.zeros(n, dtype=np.int64))
        self.dropped = 0.0
        self.crops = 0
        self.max_row_cells = 1
        self._crop_at = 2
        self._bufs = [np.empty(0), np.empty(0), *self._bufs[2:]]

    def _buffer(self, i: int, size: int) -> np.ndarray:
        """The first `size` cells of working buffer i, doubled when too small."""
        if self._bufs[i].size < size:
            self._bufs[i] = np.empty(max(size, 2 * self._bufs[i].size))
        return self._bufs[i][:size]

    def _shift_add(self, arr: np.ndarray, coefs, ring, alloc) -> np.ndarray:
        """sum_w coefs_w * (arr shifted by w) over the terms in their order,
        in the semiring ring = (times, plus, zero): (np.multiply, np.add,
        0.0) for a linear step, (np.add, np.logaddexp, -inf) for a log step.

        One flat layout: arr is copied into buffer 2, padded with the
        semiring's zero on every axis but the first to the output's extent,
        so that the shift by w is the flat offset o_w = sum_i w_i stride_i of
        the output and each term is one contiguous times and one contiguous
        plus over flat[o_w : o_w + n], n the padded copy's cells. The first
        term writes its product there directly and only the cells outside
        that window are set to zero. A padding cell can land past the
        output's last cell, by less than the first axis's stride, so the
        output, alloc(cells + tail), carries that one stride of tail. Each
        output cell is the sum of its terms in term order plus exact zeros
        (x + 0.0 = x, logaddexp(x, -inf) = x). Returns the output, without
        its tail, as an array of the output's shape."""
        times, plus, zero = ring
        shape = (np.add(arr.shape, self.kernel.arr.shape) - 1).tolist()
        strides = [math.prod(shape[i + 1:]) for i in range(len(shape))]
        size = shape[0] * strides[0]
        src = self._buffer(2, arr.shape[0] * strides[0]).reshape(arr.shape[0], *shape[1:])
        for ax in range(1, arr.ndim):
            src[(slice(None),) * ax + (slice(arr.shape[ax], None),)] = zero
        src[tuple(map(slice, arr.shape))] = arr
        src = src.reshape(-1)
        n = src.size
        flat = alloc(size + strides[0])
        term = self._buffer(3, n)
        (o, c), *rest = zip((self._shifts @ strides).tolist(), coefs)
        times(src, c, out=flat[o:o + n])
        flat[:o] = zero
        flat[o + n:] = zero
        for o, c in rest:
            dst = flat[o:o + n]
            plus(dst, times(src, c, out=term), out=dst)
        return flat[:size].reshape(shape)

    def _hold(self, out: np.ndarray, offset: np.ndarray) -> None:
        """Make out, with lower corner offset, the row of a step or a direct
        jump: cropped (_crop) once it holds twice the cells it kept at the
        last crop."""
        self.max_row_cells = max(self.max_row_cells, out.size)
        if self.floor and out.size >= self._crop_at:
            out, offset, cut = _crop(out, offset, float(out.max()) * self.floor)
            self.dropped += cut
            self.crops += 1
            self._crop_at = 2 * out.size
        self.row = _Row(out, offset)

    def step(self) -> None:
        arr = self.row.arr
        if arr.ndim == 1:
            out = np.convolve(arr, self.kernel.arr)
        else:  # row k sits in buffer k % 2, or is a crop's or a jump's own array
            out = self._shift_add(arr, self._p, _LINEAR,
                                  lambda size: self._buffer((self.k + 1) % 2, size))
        self.k += 1
        self._hold(out, self.row.offset + self.kernel.offset)

    def jump(self, law: _Row, steps: int, cut: float, exact: _Row) -> None:
        """`steps` steps at once, by exact, the law of S_steps, or by law, a
        copy the caller cropped, whose crop removed the mass cut. On one axis,
        past the point mass, where a direct product with exact costs less
        than an FFT (_direct_pays), the row is that numpy.convolve product,
        held and cropped as a step's is (_hold). Otherwise, from the point
        mass the row is law itself, and after it one FFT product with law
        (_row_conv), cropped again; each such jump is one row and one crop,
        and cut joins `dropped` on every one, with the product's own cut: a
        row of mass at most 1 times the part cropped from the law has mass
        at most cut."""
        a = self.row.arr
        if self.k and a.ndim == 1 and _direct_pays(a.size, exact.arr.size):
            self._hold(np.convolve(a, exact.arr), self.row.offset + exact.offset)
        else:
            if self.k:
                cells = math.prod((np.array(a.shape) + law.arr.shape - 1).tolist())
                self.row, product_cut = _row_conv(self.row, law)
                cut += product_cut
            else:
                cells, self.row = law.arr.size, law
            self.dropped += cut
            self.crops += 1
            self.max_row_cells = max(self.max_row_cells, cells)
            self._crop_at = 2 * self.row.arr.size
        self.k += steps


def _cst_of_product(a: _Row, b: _Row) -> float:
    """The coefficient of t^0 in the product of two rows, sum_x a[x] b[-x]:
    one dot product of nonnegative terms over the boxes' overlap."""
    sa, sb = [], []
    for ao, an, bo, bn in zip(a.offset.tolist(), a.arr.shape, b.offset.tolist(), b.arr.shape):
        lo = max(ao, 1 - bo - bn)  # x ranges over [lo, hi]
        hi = min(ao + an - 1, -bo)
        if lo > hi:
            return 0.0
        sa.append(slice(lo - ao, hi - ao + 1))
        sb.append(slice(-hi - bo, -lo - bo + 1))
    return float(np.vdot(a.arr[tuple(sa)], np.flip(b.arr[tuple(sb)])))


def _fft_len(n: int) -> int:
    """The smallest 5-smooth length 2^a 3^b 5^c that is at least n >= 1."""
    best = 1 << (n - 1).bit_length()
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # smallest power-of-two multiple of p35 that reaches n
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def _fft_pays(steps: int, terms: int, cells: int) -> bool:
    """Whether `steps` convolution steps with `terms` weights (steps * terms
    cell updates a cell) cost more than one FFT product to `cells` cells
    (about 3 log2 cells a cell)."""
    return steps * terms > 3 * math.log2(cells)


def _direct_pays(a: int, b: int) -> bool:
    """Whether a direct product of two lines of a and b cells, a b
    multiply-adds in one numpy.convolve call, costs less than an FFT product
    (_row_conv): numpy.convolve's multiply-add takes about a tenth of an FFT
    product's cell update, counted as 3 log2 cells a cell by _fft_pays."""
    return a * b <= 30 * (a + b) * math.log2(a + b)


def _row_conv(a: _Row, b: _Row) -> tuple[_Row, float]:
    # Full linear convolution as a product of real FFTs, cropped (_crop):
    # the product and the mass its crop removed. Each axis is padded to a
    # 5-smooth length: numpy's real FFT has radix 2, 3, 4 and 5 passes, and
    # any other prime factor goes through a slower generic pass or
    # Bluestein's algorithm. Powers of two alone would pad some axes to
    # twice the extent.
    shape = tuple(x + y - 1 for x, y in zip(a.arr.shape, b.arr.shape))
    fshape = tuple(_fft_len(m) for m in shape)
    axes = tuple(range(len(shape)))
    spec = np.fft.rfftn(a.arr, fshape, axes) * np.fft.rfftn(b.arr, fshape, axes)
    arr = np.fft.irfftn(spec, fshape, axes)[tuple(slice(m) for m in shape)]
    np.clip(arr, 0.0, None, out=arr)
    arr, offset, dropped = _crop(arr, a.offset + b.offset, float(arr.max()) * _TRUNC_FLOOR)
    return _Row(arr, offset), dropped


def _row_power(base: _Row, k: int, cache: dict[int, _Row]) -> _Row:
    """k-fold self-convolution by binary powering with a shared cache."""
    if k in cache:
        return cache[k]
    if k == 1:
        row = base
    elif k % 2 == 0:
        half = _row_power(base, k // 2, cache)
        row, _ = _row_conv(half, half)
    else:
        row, _ = _row_conv(_row_power(base, k - 1, cache), base)
    cache[k] = row
    return row


def prefactor_sequence(v: WeightedVector, k_max: int | None = None,
                       ks: Sequence[int] | None = None) -> list[tuple[int, float]]:
    """The sequence (k, k^{d/2} |Pi_k v^{tensor k}|^2) over the period-m
    subsemigroup, for a unit vector with vanishing moment map.

    d and m come from the difference lattice of the support. Pass either
    k_max (report every multiple of m up to it) or an explicit list ks,
    which is filtered to the subsemigroup, not both.

    |Pi_k v^{tensor k}|^2 is the t^0 coefficient of the law of S_k, a sum of
    k draws from q_w = |c_w|^2 (the duality report's row at theta = 0,
    x* = 0). In the chart of the whole support (capacity._chart) it is the
    coefficient at k c0, where B c0 = -w0, a lattice point exactly when m
    divides k; no LP runs. The first target a is powered by FFT; a later
    target k reads sum_x A[x] S_g[k c0 - x] from the anchor row A of S_a and
    the row stream of S_g, g = k - a. The anchor moves to k with one FFT
    product when g > a, or when the steps to k cost more cell updates
    (steps * |W| a cell) than an FFT product does (about 3 log2 of the
    anchor's cells a cell).
    """
    v = v.pruned()
    if v.is_zero:
        raise ValueError("prefactor sequence of the zero vector is undefined")
    if abs(v.norm_sq - 1.0) > 1e-10:
        raise ValueError("prefactor sequence expects a unit vector")
    mu_inf = float(np.max(np.abs(moment_map(v))))
    if mu_inf > 1e-10:
        raise ValueError(f"moment map must vanish, |mu|_inf = {mu_inf}")
    if (k_max is None) == (ks is None):
        raise ValueError("pass k_max or an explicit list of powers ks, not both")
    coords, c0, m = _zero_chart(v)
    d = len(c0)
    if ks is None:
        _check_k_max(k_max)
        targets = list(range(m, k_max + 1, m))
    else:
        targets = sorted({int(k) for k in ks if k >= 1 and k % m == 0})
    if not targets:
        return []

    walk = _RowStream(np.array(coords, dtype=np.int64), np.array([abs(c) ** 2 for _, c in v.terms]))
    cache: dict[int, _Row] = {}
    anchor_k = targets[0]
    anchor = _row_power(walk.kernel, anchor_k, cache)
    out: list[tuple[int, float]] = []
    for k in targets:
        steps = k - anchor_k - walk.k
        if k - anchor_k > anchor_k or _fft_pays(steps, len(walk.terms), anchor.arr.size):
            anchor, _ = _row_conv(anchor, _row_power(walk.kernel, k - anchor_k, cache))
            anchor_k = k
            walk.reset()
        else:
            for _ in range(steps):
                walk.step()
        at = walk.axes @ np.array([int(k * c) for c in c0], dtype=np.int64)
        val = _cst_of_product(anchor, replace(walk.row, offset=walk.row.offset - at))
        out.append((k, val * k ** (d / 2)))
    return out


# ---------------------------------------------------------------------------
# Laurent polynomials in one variable: constant terms of powers and critical
# values of the map itself.

Coeff = complex | Fraction | int


@dataclass
class LaurentPoly:
    """A Laurent polynomial sum_e a_e z^e with integer exponents."""

    terms: dict[int, Coeff]

    def __post_init__(self) -> None:
        cleaned = {}
        for e, c in self.terms.items():
            if not isinstance(e, int):
                raise TypeError(f"exponent {e!r} is not an integer")
            if c != 0:
                cleaned[e] = c
        self.terms = dict(sorted(cleaned.items()))

    @property
    def is_rational(self) -> bool:
        return all(isinstance(c, (int, Fraction)) for c in self.terms.values())

    def __call__(self, z: complex) -> complex:
        return sum(complex(c) * z ** e for e, c in self.terms.items())


def laurent_cst_powers(f: LaurentPoly, k_max: int) -> list:
    """The constant terms of f^k for k = 0 .. k_max, in one pass over the
    power rows of f.

    Rational coefficients are cleared once to integers over their common
    denominator D, so cst f^k is the z^0 entry of the exact integer row over
    D^k, an exact Fraction; any other coefficient gives complex values read
    from complex128 rows. k = 0 gives 1.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    rational = f.is_rational
    if rational:
        denom = math.lcm(*(Fraction(c).denominator for c in f.terms.values()))
        coeffs = {e: int(c * denom) for e, c in f.terms.items()}
    else:
        coeffs = {e: complex(c) for e, c in f.terms.items()}
    csts = [Fraction(1) if rational else complex(1)]
    # the zero polynomial (rational, D = 1) runs as the single term 0 z^0
    for k, (lo, row) in enumerate(power_rows(coeffs or {0: 0}, k_max), start=1):
        cst = row[-lo] if 0 <= -lo < len(row) else 0
        csts.append(Fraction(cst, denom**k) if rational else complex(cst))
    return csts


@dataclass(frozen=True)
class CriticalValues:
    """Critical points of a Laurent map on the punctured plane and f there.

    positive_real_value is the infimum of f over the positive reals when all
    coefficients are nonnegative (None otherwise). With exponents of both
    signs, f(e^x) is strictly convex and the infimum is attained at the one
    critical point on the positive axis, positive_real_point; with exponents
    of one sign it is the constant coefficient, approached at an end of the
    axis, and positive_real_point is None.
    """

    points: tuple[complex, ...]
    values: tuple[complex, ...]
    positive_real_point: float | None
    positive_real_value: float | None

    @property
    def max_modulus(self) -> float:
        """max |f| over the critical points; 0.0 for a monomial, which has none."""
        return max((abs(v) for v in self.values), default=0.0)


def critical_values(f: LaurentPoly, residual_tol: float = 1e-9) -> CriticalValues:
    """All critical values of f on C minus the origin.

    Critical points solve z f'(z) = 0; they are found as companion-matrix
    eigenvalues of the cleared polynomial and polished by one Newton step.
    z = 0 is never a root: the cleared polynomial's constant coefficient is
    e_min a_{e_min} != 0. Raises RuntimeError when a polished root is 0 or
    not finite, when its residual relative to the coefficient scale is not
    at most residual_tol (nan included: spurious roots of badly scaled f
    overflow it), or when f overflows at a critical point.

    For nonnegative coefficients with exponents of both signs,
    positive_real_point is the real part of the polished point nearest the
    positive axis (least |arg z|), the unique root of z f'(z) on (0, inf),
    and positive_real_value is f there.
    """
    zfp = {e: e * complex(c) for e, c in f.terms.items() if e != 0}
    if not zfp:
        raise ValueError("critical values of a constant map are undefined")
    emin = min(zfp)
    emax = max(zfp)
    deg = emax - emin
    coeffs = np.zeros(deg + 1, dtype=complex)
    for e, c in zfp.items():
        coeffs[emax - e] = c  # descending order for np.roots
    scale = float(np.max(np.abs(coeffs)))
    dcoeffs = coeffs[:-1] * np.arange(deg, 0, -1)
    polished = []
    with np.errstate(all="ignore"):  # an overflow reads as a residual that is not finite
        for z in np.roots(coeffs):
            pz = np.polyval(coeffs, z)
            dpz = np.polyval(dcoeffs, z)
            if dpz != 0:
                z = z - pz / dpz
            res = abs(np.polyval(coeffs, z)) / (scale * max(1.0, abs(z)) ** deg)
            if z == 0 or not cmath.isfinite(z) or not res <= residual_tol:
                raise RuntimeError(f"critical point refinement stalled at {z}, residual {res:.3e}")
            polished.append(complex(z))
    points = tuple(polished)
    a = {e: complex(c).real for e, c in f.terms.items()}
    nonneg = all(complex(c).imag == 0 and complex(c).real >= 0 for c in f.terms.values())
    two_sided = nonneg and min(a) < 0 < max(a)
    t = min(points, key=lambda z: abs(cmath.phase(z))).real if two_sided else None
    val = a.get(0, 0.0) if nonneg else None  # one-sided: the infimum is the limit a_0
    try:
        values = tuple(f(z) for z in points)
        val = sum(c * t ** e for e, c in a.items()) if two_sided else val
    except (OverflowError, ZeroDivisionError) as err:
        raise RuntimeError(f"f overflows at a critical point: {err}") from err
    if not all(map(cmath.isfinite, (*values, val or 0.0))):
        raise RuntimeError("f overflows at a critical point: a value is not finite")
    return CriticalValues(points, values, t, val)
