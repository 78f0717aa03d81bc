"""Discrete Cauchy transform (convolution with 1/(pi z)), its conjugate,
finite-difference Wirtinger derivatives, the Beurling transform, and the
boundary Cauchy integral with its integration-by-parts residual.

The transform is a zero-padded FFT convolution with 1/(pi z) sampled at
cell-center displacements, computed with pruned in-place `numpy.fft`
transforms that skip the rows the padding leaves zero and the rows the
crop discards.  The kernel is conjugate-symmetric in y, so a large plan
keeps half of its spectrum, as a real-input FFT would.
`ConvolutionPlan` lists the passes; `_ROW_PAD` gives the timings of the
spare elements a transform's rows carry.  The origin sample is exactly
zero: the mean of 1/(pi z) over a centered square cell vanishes by odd
symmetry, so the singular cell needs no regularization parameter.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import BklabError, GridError
from .grid import DomainSpec, Grid
from .util import masked_gradient, parallel_map, thread_count

__all__ = [
    "ConvolutionPlan", "get_plan", "cauchy", "conj_cauchy",
    "wirtinger", "beurling", "boundary_cauchy", "ibp_check",
]

# bytes of one block of buffer rows.  Timed from 256 KB to 2 MB at N = 512
# and 1024 on a 2-CPU Xeon with 2 MB of L2 per core: 1 MB was the fastest
# or tied.
_BLOCK_BYTES = 1 << 20

# spare complex elements at the end of each row of a transform's buffer,
# which the passes never read.  A pass down the columns of an array whose
# rows are a power of two long (16 KiB for the N = 1024 buffer) maps every
# step onto the same few cache sets.  Timed with two spare elements
# against none on one thread of a 2-CPU Xeon (numpy 2.4.6), whose speed
# drifts by up to 2x: at N = 1024 the inverse pass along xi_x took 19-21
# against 35-41 ms and the transposed read into the output 6-7 against
# 16-17 ms (shuffled rounds in one process); a whole transform took
# 130-147 against 156-183 ms (medians of alternated processes).  The box
# plans, whose rows are not a power of two long, were neutral (n = 111:
# 0.864 against 0.859 ms; n = 218: 5.761 against 5.740 ms, medians of
# shuffled rounds).  The stored spectrum has no spare elements: multiplying
# a block by gapped spectrum rows took 96 against 61 us at n = 111.  Each
# 1-D transform reads the same samples in the same order, so the results
# are the same bit for bit.
_ROW_PAD = 2

# fewest y-columns in one block of the plan build; the half's rows are cut
# into as many blocks.  The build takes at most `thread_count()` blocks, so
# a large BKLAB_THREADS starts no more than M / 64 threads.  Timed at N =
# 1024 on a 2-CPU Xeon (numpy 2.4.6) with the build that transformed the
# whole M x M array: two blocks built the plan in 116-157 ms against
# 184-237 ms in one.  The half build, timed the same way on two workers,
# took 62-84 ms against 85-159 ms for that build.
_BUILD_ROWS = 64


def _cauchy_kernel(w: np.ndarray) -> np.ndarray:
    """1/(pi w), with the origin sample zero.  Computed in place: `w` is
    overwritten and returned."""
    nz = w != 0
    w *= np.pi
    return np.divide(1.0, w, out=w, where=nz)


def _padded_length(n: int, N: int) -> int:
    """The smallest 2^a c >= 2n - 1 with c in {1, 3, 5, 7}, at most 2N.
    Timed at N = 256, n = 218: M = 448 (7 * 64) took 6.95 ms a transform,
    the 11-smooth M = 440 took 9.67 ms and the full 2N = 512 grid 10.07 ms
    (2-CPU Xeon, numpy 2.4.6, one thread)."""
    best = 2 * N
    for c in (1, 3, 5, 7):
        m = c
        while m < 2 * n - 1:
            m *= 2
        best = min(best, m)
    return best


def _all_rows(K: np.ndarray, M: int) -> np.ndarray:
    """The M rows of a spectrum S with S[M - a] = conj S[a], from its rows
    0 ... len(K) - 1 (at least M // 2 + 1 of them), into a new array."""
    return np.concatenate((K, np.conj(K[1:M - len(K) + 1][::-1])))


class ConvolutionPlan:
    """Precomputed forward transform of 1/(pi w) at the cell-center
    displacements w of an n x n box of cells zero-padded to M x M, and the
    padded frequency axis 2 pi fftfreq(M, h), from which the Beurling
    transform forms the symbol 0.5 (i xi_x + xi_y) of d one block at a
    time.  The box defaults to the whole grid, n = N, where M = 2N; a box
    of n < N cells pads to the smallest M = 2^a c >= 2n - 1 with c in
    {1, 3, 5, 7}.  A convolution is translation invariant, so one plan
    serves every box of side n.  Immutable and shareable across threads.

    Displacement index j is j h up to n - 1 and (j - M) h from M - n + 1
    on.  Samples at y-displacements the crop never reads, |y| >= n h (for
    the full grid only y = -N h), are zero; on the rest k(x, -y) =
    conj k(x, y), so the spectrum S, in (xi_x, xi_y) order, has S[M - a] =
    conj S[a], and the plan stores its rows xi_x = 0 ... M // 2 alone.  A
    spectrum that fits in one `_BLOCK_BYTES` block (M <= 256) keeps every
    row: halving it saves under 0.5 MB, and the fold below took 5-7% more
    time a transform at M = 224.  The build transforms blocks of sampled
    y-columns along x into the half, then its rows along y in place, each
    pass spread over up to `BKLAB_THREADS` workers (`util.parallel_map`);
    each 1-D transform reads the same samples in any split, so the
    spectrum has the same bits on any worker count.  The Beurling symbol,
    a spectral derivative, reads the far samples too: the full-grid plan
    keeps ex, the x-transform of the column y = -N h, whose spectrum is
    (-1)^b ex[a].

    A transform is pruned on both sides: the input fills only the first n
    rows and columns of the padded grid, and only the first n rows and
    columns of the output are kept.  It holds one M x n complex buffer T,
    (xi_x, y), whose rows carry `_ROW_PAD` spare elements, and one
    zero-padded b x M block W, b * M * 16 bytes being about `_BLOCK_BYTES`
    (b <= M; the last block of a pass takes only the rows that remain, and
    no block straddles row M // 2 + 1).

    1. the input, (x, y), fills the first n rows of T, the rest of T is
       zeroed, and T is transformed in place along x;
    2. each block of rows of T is copied into W and transformed along y,
    3. multiplied by the block's rows of S (for Beurling, of S + (-1)^b ex
       times the symbol of d),
    4. inverted along xi_y, and its first n columns written back into T;
    5. T is inverted along xi_x in place; its first n rows, (x, y), scaled
       by the cell measure, are the result.

    A row a > M // 2 of a half takes conj(S[M - a]) as v conj(s) =
    conj(conj(v) s): it is copied into W conjugated, pass 2 runs
    `ifft(norm="forward")`, pass 3 reads a reversed-row view of the half,
    pass 4 runs `fft(norm="forward")` and the write-back conjugates; the
    fold adds no pass and no buffer.

    Every pass is an in-place `numpy.fft` transform (`out=`).  Passes 2-4
    run along contiguous rows of W, which stays in cache; passes 1 and 5
    stride, in place over T.  The passes on the zero or discarded part are
    skipped.  Each 1-D transform sees the same samples as in the (y, x)
    layout, so the output is the same bit for bit.

    `apply_xy` lets its caller write the input into T and scales T's first
    n rows in place: it holds T alone.  `apply` and `apply_beurling` copy
    f.T into T and return a scaled, transposed copy, so they hold T, the
    input and the output.
    """

    def __init__(self, grid: Grid, n: int | None = None):
        self.grid = grid
        N, h = grid.N, grid.h
        self.n = n = N if n is None else int(n)
        if not 1 <= n <= N:
            raise GridError(f"box side must be in [1, {N}], got {n}")
        self.M = M = _padded_length(n, N)
        j = np.arange(M)
        k = np.where(j < max(n, M - n), j, j - M)
        d = k * h
        jd = 1j * d
        far = np.abs(k) >= n
        half = np.empty((M // 2 + 1, M), dtype=complex)
        nb = max(1, min(thread_count(), M // _BUILD_ROWS))

        def blocks(m: int) -> list[slice]:
            cuts = [m * i // nb for i in range(nb + 1)]
            return [slice(lo, hi) for lo, hi in zip(cuts, cuts[1:])]

        def cols(item) -> None:  # w[y, x], transformed along x
            s, buf = item
            for lo in range(s.start, s.stop, len(buf)):
                hi = min(lo + len(buf), s.stop)
                w = buf[:hi - lo]
                _cauchy_kernel(np.add(d[None, :], jd[lo:hi, None], out=w))
                w[far[lo:hi]] = 0
                np.fft.fft(w, axis=1, out=w)
                half[:, lo:hi] = w[:, :len(half)].T

        def rows(s: slice) -> None:
            np.fft.fft(half[s], axis=1, out=half[s])

        # the sample buffers share one `_BLOCK_BYTES`, whatever the worker
        # count, and are allocated by this thread: a pool thread's freed
        # buffer stays resident in its malloc arena
        b = max(1, _BLOCK_BYTES // (16 * M * nb))
        parallel_map(cols, [(s, np.empty((min(b, s.stop - s.start), M), dtype=complex))
                            for s in blocks(M)])
        parallel_map(rows, blocks(len(half)))
        self._rows = half
        if M * M * 16 <= _BLOCK_BYTES:  # one block holds every row: no fold
            self._rows = _all_rows(half, M)
        self._rows.setflags(write=False)
        self._ex = None
        if n == N:
            self._ex = np.fft.fft(_cauchy_kernel(d + jd[N]))
            self._ex.setflags(write=False)
        self._sign = np.resize([1.0, -1.0], M)  # (-1)^b, ex's factor
        self._sign.setflags(write=False)
        self._xi = 2 * np.pi * np.fft.fftfreq(M, d=h)
        self._xi.setflags(write=False)

    @property
    def kernel_hat(self) -> np.ndarray:
        """Spectrum of the sampled kernel, (xi_y, xi_x), as a new M x M
        array formed from the stored rows (and, for the full grid, ex).  A
        box plan's spectrum leaves out the y-displacements its crop never
        reads."""
        S = _all_rows(self._rows, self.M)
        if self._ex is not None:
            S += np.outer(self._ex, self._sign)
        return S.T

    def _xy(self, fill, beurling: bool) -> np.ndarray:
        """Passes 1-5 over the input that `fill(x)` writes into the first n
        rows x of a fresh T, (x, y); returns those rows, unscaled."""
        n, M, K = self.n, self.M, self._rows
        T = np.empty((M, n + _ROW_PAD), dtype=complex)[:, :n]
        fill(T[:n])
        T[n:] = 0
        np.fft.fft(T, axis=0, out=T)
        W = np.empty((min(M, max(1, _BLOCK_BYTES // (16 * M))), M), dtype=complex)
        b = W.shape[0]
        for lo, hi in ((0, len(K)), (len(K), M)):
            fold = lo > 0  # rows a > M // 2, through conj(conj(v) S[M - a])
            for r in range(lo, hi, b):
                e = min(r + b, hi)
                Wr = W[:e - r]
                Wr[:, n:] = 0
                if fold:
                    np.conjugate(T[r:e], out=Wr[:, :n])
                    np.fft.ifft(Wr, axis=1, out=Wr, norm="forward")
                    spec = K[M - e + 1:M - r + 1][::-1]
                else:
                    Wr[:, :n] = T[r:e]
                    np.fft.fft(Wr, axis=1, out=Wr)
                    spec = K[r:e]
                if beurling:  # d = (d_x - i d_y)/2 has symbol 0.5 (i xi_x + xi_y)
                    ex, ixi = self._ex[r:e, None], 0.5j * self._xi[r:e, None]
                    if fold:
                        ex, ixi = np.conj(ex), -ixi
                    spec = (spec + ex * self._sign) * (ixi + 0.5 * self._xi)
                Wr *= spec
                if fold:
                    np.fft.fft(Wr, axis=1, out=Wr, norm="forward")
                    np.conjugate(Wr[:, :n], out=T[r:e])
                else:
                    T[r:e] = np.fft.ifft(Wr, axis=1, out=Wr)[:, :n]
        np.fft.ifft(T, axis=0, out=T)
        return T[:n]

    def apply(self, f: np.ndarray) -> np.ndarray:
        """The convolution of f, (y, x), into a new array."""
        x = self._xy(lambda x: np.copyto(x, f.T), False)
        return np.multiply(x.T, self.grid.cell_measure, order="C")

    def apply_xy(self, fill) -> np.ndarray:
        """apply(f).T, bit for bit, for the f whose transpose `fill(x)`
        writes into the n x n array x, (x, y).  x is the first n rows of
        the transform's buffer T, and the result is x scaled in place: no
        n x n array is held beside T, but the result, a view, holds all of
        T.  The caller owns that buffer, the result's `.base` (the
        C-contiguous M x (n + `_ROW_PAD`) array the result starts), and may
        overwrite all of it."""
        x = self._xy(fill, False)
        x *= self.grid.cell_measure
        return x

    def apply_conj(self, f: np.ndarray) -> np.ndarray:
        """Cbar f = conj(apply(conj f))."""
        return np.conj(self.apply(np.conj(f)))

    def apply_beurling(self, f: np.ndarray) -> np.ndarray:
        """d(apply(f)), d taken spectrally: the full-grid plan only."""
        if self._ex is None:
            raise GridError("the Beurling transform needs the full-grid plan")
        x = self._xy(lambda x: np.copyto(x, f.T), True)
        return np.multiply(x.T, self.grid.cell_measure, order="C")


_PLANS: dict[tuple[float, int, int], ConvolutionPlan] = {}
_PLANS_LOCK = threading.Lock()


def get_plan(grid: Grid, n: int | None = None) -> ConvolutionPlan:
    """The shared Cauchy plan of an n x n box of the grid (default the
    whole grid), keyed on (L, N, n)."""
    key = (grid.L, grid.N, grid.N if n is None else int(n))
    with _PLANS_LOCK:
        plan = _PLANS.get(key)
        if plan is None:
            plan = _PLANS[key] = ConvolutionPlan(grid, key[2])
    return plan


def cauchy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """C f = (1/(pi z)) * f, a right inverse of dbar."""
    return get_plan(grid).apply(grid.check_field(np.asarray(f, dtype=complex)))


def conj_cauchy(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Cbar f = (1/(pi zbar)) * f = conj(C(conj f)), bit for bit."""
    return get_plan(grid).apply_conj(grid.check_field(np.asarray(f, dtype=complex)))


def beurling(f: np.ndarray, grid: Grid) -> np.ndarray:
    """Pi f = d(C f), with d applied spectrally on the padded grid."""
    return get_plan(grid).apply_beurling(grid.check_field(np.asarray(f, dtype=complex)))


def wirtinger(f: np.ndarray, which: str, grid: Grid) -> np.ndarray:
    """d or dbar of a field by centered differences over the whole grid,
    one-sided at the grid edge.
    Convention: d = (d_x - i d_y)/2, dbar = (d_x + i d_y)/2.
    """
    f = grid.check_field(np.asarray(f, dtype=complex))
    if which not in ("d", "dbar"):
        raise BklabError(f"which must be 'd' or 'dbar', got {which!r}")
    fx, fy = masked_gradient(f, np.ones(f.shape, dtype=bool), grid.h)
    return 0.5 * (fx + (-1j if which == "d" else 1j) * fy)


def boundary_cauchy(trace, domain: DomainSpec):
    """(1/2pi) int_dOmega g(z') eta(z') / (z - z') dsigma(z') on the grid.

    Trapezoid rule over the boundary quadrature nodes.  Cells within h of
    the polyline are not evaluated; the returned `valid` mask marks them.
    Returns (field, valid).
    """
    if callable(trace):
        g = domain.sample_trace(trace)
    else:
        g = np.asarray(trace, dtype=complex)
    if g.size == 0 or g.shape != domain.nodes.shape:
        raise BklabError("trace must be sampled at the domain's quadrature nodes")
    grid = domain.grid
    valid = domain.distance > grid.h
    out = np.zeros((grid.N, grid.N), dtype=complex)
    zflat = grid.Z[valid]
    coeff = g * domain.normals * domain.weights / (2 * np.pi)
    vals = np.empty(zflat.size, dtype=complex)
    chunk = max(1, int(4e6 // max(1, domain.nodes.size)))
    for s in range(0, zflat.size, chunk):
        zz = zflat[s:s + chunk, None]
        vals[s:s + chunk] = (coeff[None, :] / (zz - domain.nodes[None, :])).sum(axis=1)
    out[valid] = vals
    return out, valid


def ibp_check(domain: DomainSpec, f, dbar_f) -> float:
    """Residual of C(chi dbar f) = chi f + boundary integral of Tr f.

    f and dbar_f are callables on complex points.  Returns the sup over
    masked cells more than 3h inside the boundary.
    """
    grid = domain.grid
    F = np.asarray(f(grid.Z), dtype=complex)
    dF = np.asarray(dbar_f(grid.Z), dtype=complex)
    lhs = cauchy(domain.restrict(dF), grid)
    bc, valid = boundary_cauchy(f, domain)
    inner = domain.interior_mask(3 * grid.h) & valid
    resid = lhs - domain.restrict(F) - bc
    return float(np.abs(resid[inner]).max())
