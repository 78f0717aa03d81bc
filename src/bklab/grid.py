"""Uniform complex-plane grids, masked domains with discretized boundaries,
and the field/domain file formats.

Sampling convention: the square [-L, L]^2 is split into N x N cells of
side h = 2L/N and every field is sampled at cell centers
z_jk = (-L + (j+1/2)h) + i(-L + (k+1/2)h).  Arrays are indexed [iy, ix]
(row-major, y-outer), matching the BKFLD1 file layout.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AliasingGuardError, BklabError, DomainError, GridError
from .util import mask_stencil

__all__ = [
    "Grid", "PhaseParams", "Disk", "Polygon", "DomainSpec", "BeltResult",
    "make_grid", "make_domain", "domain_from_spec", "boundary_belt",
    "save_field", "load_field", "save_domain", "load_domain",
]


# JSON kinds a file value may be asked to have (json.load gives bool, not
# int, for true and false)
_KINDS = {
    "integer": lambda v: type(v) is int,
    "number": lambda v: type(v) in (int, float) and math.isfinite(v),
    "number or null": lambda v: v is None or _KINDS["number"](v),
    "positive number": lambda v: _KINDS["number"](v) and v > 0,
    "list of numbers": lambda v: type(v) is list and len(v) > 0
        and all(map(_KINDS["number"], v)),
    "point [x, y]": lambda v: type(v) is list and len(v) == 2
        and all(map(_KINDS["number"], v)),
    "list of points": lambda v: type(v) is list and len(v) > 0
        and all(map(_KINDS["point [x, y]"], v)),
    "string": lambda v: type(v) is str,
    "object": lambda v: type(v) is dict,
    "list": lambda v: type(v) is list,
}


def _checked(value, kind: str, where: str):
    """`value` if it is of the JSON kind `kind` (a list of numbers comes back
    as a tuple); otherwise a configuration error (exit 2)."""
    if not _KINDS[kind](value):
        raise BklabError(f"{where}: expected {kind}, got {value!r}")
    return tuple(value) if kind == "list of numbers" else value


def _object(value, where: str, keys, optional=()) -> dict:
    """`value` if it is a JSON object holding every key of `keys` and no
    other key but those of `optional`; otherwise a configuration error
    (exit 2) naming `where` and the key.  A dict `keys` maps each allowed
    "type" of the object to the keys that type takes besides "type"."""
    d = _checked(value, "object", where)
    if isinstance(keys, dict):
        if d.get("type") not in keys:
            raise BklabError(f"{where}: type must be one of {sorted(keys)}, "
                             f"got {d.get('type')!r}")
        keys = ("type", *keys[d["type"]])
    for key in keys:
        if key not in d:
            raise BklabError(f"{where}: missing key {key!r}")
    extra = sorted(set(d) - set(keys) - set(optional))
    if extra:
        raise BklabError(f"{where}: unknown keys {extra}")
    return d


# largest grid size: a transform plan holds a (2N)^2 complex spectrum, 1 GB
# at N = 4096 and 4 GB at N = 8192 (the tests, bench and docs go up to 1024)
_MAX_N = 4096


@dataclass(frozen=True)
class Grid:
    """Uniform N x N grid of cell centers covering [-L, L]^2."""

    L: float
    N: int

    def __post_init__(self):
        if not (np.isfinite(self.L) and self.L > 0):
            raise GridError(f"half-width must be a positive number, got {self.L}")
        n = self.N
        if not (8 <= n <= _MAX_N) or (n & (n - 1)) != 0:
            raise GridError(f"grid size must be a power of two from 8 to {_MAX_N}, "
                            f"got {n}")

    @property
    def h(self) -> float:
        return 2.0 * self.L / self.N

    @property
    def cell_measure(self) -> float:
        return self.h * self.h

    @cached_property
    def axis(self) -> np.ndarray:
        """1D cell-center coordinates, shared by both axes."""
        return -self.L + (np.arange(self.N) + 0.5) * self.h

    @cached_property
    def xi(self) -> np.ndarray:
        """Angular DFT frequencies 2 pi fftfreq(N, h), shared by both axes."""
        xi = 2 * np.pi * np.fft.fftfreq(self.N, d=self.h)
        xi.setflags(write=False)
        return xi

    @cached_property
    def Z(self) -> np.ndarray:
        """Cell centers x + iy, read-only, built on first read; `X` and `Y`
        are views of it."""
        Z = self.axis[None, :] + 1j * self.axis[:, None]
        Z.setflags(write=False)
        return Z

    @property
    def X(self) -> np.ndarray:
        return self.Z.real

    @property
    def Y(self) -> np.ndarray:
        return self.Z.imag

    def check_field(self, field: np.ndarray) -> np.ndarray:
        field = np.asarray(field)
        if field.shape != (self.N, self.N):
            raise GridError(
                f"field shape {field.shape} does not match grid {(self.N, self.N)}")
        return field

    def cell_index(self, z: complex) -> tuple[int, int]:
        """(iy, ix) of the cell containing z; GridError outside [-L, L]^2."""
        z = complex(z)
        if not (abs(z.real) <= self.L and abs(z.imag) <= self.L):
            raise GridError(f"point {z} lies outside the grid square of half-width {self.L}")
        ix = min(round((z.real + self.L) / self.h - 0.5), self.N - 1)
        iy = min(round((z.imag + self.L) / self.h - 0.5), self.N - 1)
        return iy, ix

    def bilinear_stencil(self, pts: np.ndarray):
        """(j0, i0, fy, fx): the lower-left cell (j0, i0) of the 2 x 2 block
        of cell centers that bilinear interpolation at `pts` reads, clipped
        to the grid, and the fractional offsets in [0, 1] from its center."""
        gx = (pts.real + self.L) / self.h - 0.5
        gy = (pts.imag + self.L) / self.h - 0.5
        i0 = np.clip(np.floor(gx).astype(int), 0, self.N - 2)
        j0 = np.clip(np.floor(gy).astype(int), 0, self.N - 2)
        return j0, i0, np.clip(gy - j0, 0.0, 1.0), np.clip(gx - i0, 0.0, 1.0)

    def aliasing_guard(self) -> float:
        """Largest admissible tau: pi*N/(8 L^2)."""
        return np.pi * self.N / (8.0 * self.L * self.L)

    def admits(self, tau: float) -> bool:
        """Whether 0 < tau <= the aliasing guard, up to rounding."""
        return 0 < tau <= self.aliasing_guard() * (1 + 1e-12)

    def check_tau(self, tau: float) -> None:
        """AliasingGuardError unless the grid admits tau."""
        if not self.admits(tau):
            raise AliasingGuardError(f"tau={tau} is not in (0, {self.aliasing_guard():.6g}], "
                                     f"the aliasing guard pi*N/(8*L^2) for N={self.N}, L={self.L}")


@dataclass(frozen=True)
class PhaseParams:
    """Frequency tau and center z0 of the phase R = (z-z0)^2 + conj(z-z0)^2."""

    tau: float
    z0: complex

    def __post_init__(self):
        if not (np.isfinite(self.tau) and self.tau > 0):
            raise BklabError(f"tau must be positive, got {self.tau}")

    def validate_for(self, grid: Grid) -> "PhaseParams":
        grid.cell_index(self.z0)
        grid.check_tau(self.tau)
        return self

    def phase_field(self, grid: Grid) -> np.ndarray:
        """R(z; z0) on the grid.  Real by construction: the imaginary parts
        of (z-z0)^2 and (zbar-z0bar)^2 cancel exactly."""
        dx = grid.X - self.z0.real
        dy = grid.Y - self.z0.imag
        return 2.0 * (dx * dx - dy * dy)

    def weight_factors(self, grid: Grid, sign: int = +1) -> tuple[np.ndarray, np.ndarray]:
        """(row, column) factors of the weight e^{i sign tau R}, which is
        unimodular since R is real.  R separates into 2(x-x0)^2 -
        2(y-y0)^2, so the factors are e^{-2i sign tau (y-y0)^2} over y and
        e^{2i sign tau (x-x0)^2} over x, 2N exponentials instead of N^2:
        the weight at (y, x) is row[y] * col[x], in that operand order."""
        st = 2.0 * sign * self.tau
        dx = grid.axis - self.z0.real
        dy = grid.axis - self.z0.imag
        return np.exp(-1j * st * (dy * dy)), np.exp(1j * st * (dx * dx))


@dataclass(frozen=True)
class Disk:
    center: complex
    radius: float

    def to_dict(self) -> dict:
        return {"type": "disk",
                "center": [self.center.real, self.center.imag],
                "radius": self.radius}


@dataclass(frozen=True)
class Polygon:
    vertices: tuple  # of complex

    def to_dict(self) -> dict:
        return {"type": "polygon",
                "vertices": [[v.real, v.imag] for v in self.vertices]}


def _shape_from_dict(d: dict, where: str):
    d = _object(d, where, {"disk": ("center", "radius"), "polygon": ("vertices",)})
    if d["type"] == "disk":
        return Disk(complex(*_checked(d["center"], "point [x, y]", f"{where}.center")),
                    float(_checked(d["radius"], "number", f"{where}.radius")))
    return Polygon(tuple(complex(u, v) for u, v in
                         _checked(d["vertices"], "list of points", f"{where}.vertices")))


# shortest cut arm, in units of h: keeps the cut stencil's coefficients finite
_THETA_FLOOR = 1e-3


def _arm_cuts(shape, zc: np.ndarray, ex: int, ey: int, h: float) -> np.ndarray:
    """Distances (in units of h, in (0, 1]) from the masked cell centres zc
    to the boundary along the +/-x or +/-y arm."""
    if isinstance(shape, Disk):
        w = zc - shape.center
        beta = w.real * ex + w.imag * ey
        gam = np.abs(w) ** 2 - shape.radius ** 2
        t = -beta + np.sqrt(beta * beta - gam)
    elif isinstance(shape, Polygon):
        verts = np.asarray(shape.vertices, dtype=complex)
        t = np.full(zc.shape, np.inf)
        for av, bv in zip(verts, np.roll(verts, -1)):
            # zc + s*(ex + i ey) = av + r*(bv - av)
            dx, dy = bv.real - av.real, bv.imag - av.imag
            det = ex * (-dy) - ey * (-dx)
            if abs(det) < 1e-300:
                continue
            rx, ry = av.real - zc.real, av.imag - zc.imag
            s = (rx * (-dy) + ry * dx) / det
            r = (ex * ry - ey * rx) / det
            # a centre on the edge itself (s ~ 0) is cut there only by an arm
            # leaving the domain; the polygon is positively oriented, so
            # such an arm has det < 0
            s_min = -1e-12 if det < 0 else 1e-12
            t = np.where((-1e-12 <= r) & (r <= 1 + 1e-12) & (s_min < s) & (s < t), s, t)
        if not np.isfinite(t).all():
            raise DomainError("stencil arm does not cross the polygon boundary")
    else:
        raise DomainError(f"unsupported shape {shape!r}")
    return np.clip(t / h, _THETA_FLOOR, 1.0)


class DomainSpec:
    """A masked domain: boolean cell mask, positively oriented boundary
    polyline with outward complex normals, and boundary quadrature nodes
    with arclength weights.  These are built on first read and read-only
    (a run that never reads one, such as a Carleman sweep, skips it):

    - `distance`, the exact distance from every cell center to the
      polyline;
    - `stencil`, the mask's difference classes;
    - `box`, the square of cells the oscillating solutions live on;
    - `laplacian`, the Shortley-Weller operator (L, B, z) that the
      Dirichlet solver and `bukhgeim.pde_residual` share.

    Immutable after construction; safe to share across threads.
    """

    def __init__(self, grid: Grid, shape, mask, vertices, nodes, normals, weights):
        self.grid = grid
        self.shape = shape
        self.mask = mask
        self.vertices = vertices          # polyline vertices, closed implicitly
        self.nodes = nodes                # quadrature nodes (complex)
        self.normals = normals            # outward complex normal per node
        self.weights = weights            # arclength weight per node
        self.perimeter = float(weights.sum())
        for a in ("mask", "vertices", "nodes", "normals", "weights"):
            getattr(self, a).setflags(write=False)

    @cached_property
    def distance(self) -> np.ndarray:
        """Per-cell distance to the polyline (a disk's is a regular polygon)."""
        distance = _distance_to_polyline(self.grid, self.vertices,
                                         regular=isinstance(self.shape, Disk))
        distance.setflags(write=False)
        return distance

    @cached_property
    def stencil(self) -> tuple:
        """The mask's difference classes (`util.mask_stencil`), read-only."""
        stencil = mask_stencil(self.mask)
        for axis in stencil:
            for cls in axis:
                for a in cls:
                    a.setflags(write=False)
        return stencil

    @cached_property
    def laplacian(self) -> tuple:
        """(L, B, z), read-only: the Shortley-Weller five-point Laplacian.
        At a cell whose stencil crosses the boundary, the arm is cut at the
        exact shape intersection, where the Dirichlet datum enters; this
        keeps the scheme second order on disks and grid-aligned polygons.
        L (CSC, n x n) acts on the values at the n masked cells, z holds
        the m cut points and B (CSR, n x m) their arms' coefficients, so
        that Delta_h u = L u + B g(z) for Dirichlet data g.  Each row of B
        lists its cuts in E, W, N, S order, the order B g(z) sums them in."""
        import scipy.sparse as sp
        mask, h = self.mask, self.grid.h
        N, n = self.grid.N, int(mask.sum())
        idx = np.full((N + 2, N + 2), -1, dtype=np.int64)
        idx[1:-1, 1:-1][mask] = np.arange(n)
        k = np.arange(n)
        zc = self.grid.Z[mask]
        # one pass per arm over every cell: an arm to a masked neighbour has
        # length 1, any other is cut at the boundary
        diag = np.zeros(n)
        rows, cols, vals, cuts = [], [], [], []
        for arms in (((1, 0), (-1, 0)), ((0, 1), (0, -1))):
            nbs = [idx[1 + ey:N + 1 + ey, 1 + ex:N + 1 + ex][mask] for ex, ey in arms]
            ts = [np.ones(n) for _ in arms]
            for (ex, ey), nb, t in zip(arms, nbs, ts):
                t[nb < 0] = _arm_cuts(self.shape, zc[nb < 0], ex, ey, h)
            tp, tm = ts
            coeffs = (2.0 / (tp * (tp + tm) * h * h), 2.0 / (tm * (tp + tm) * h * h))
            diag -= coeffs[0] + coeffs[1]
            for (ex, ey), nb, t, c in zip(arms, nbs, ts, coeffs):
                cut = nb < 0
                rows.append(k[~cut]); cols.append(nb[~cut]); vals.append(c[~cut])
                cuts.append((k[cut], c[cut], zc[cut] + t[cut] * h * (ex + 1j * ey)))
        rows.append(k); cols.append(k); vals.append(diag)
        L = sp.csc_matrix((np.concatenate(vals), (np.concatenate(rows), np.concatenate(cols))),
                          shape=(n, n))
        # z is blocked by arm, E to S, so each row's column indices rise in
        # that order
        bk, bc, z = (np.concatenate(a) for a in zip(*cuts))
        B = sp.csr_matrix((bc, (bk, np.arange(z.size))), shape=(n, z.size))
        for a in (L.data, L.indices, L.indptr, B.data, B.indices, B.indptr, z):
            a.setflags(write=False)
        return L, B, z

    @cached_property
    def box(self) -> tuple[slice, slice]:
        """(rows, columns) of the square of cells the oscillating solutions
        are solved on: the mask's bounding box with a margin of 2 cells,
        grown to hold the bilinear stencil of every quadrature node,
        clipped to the grid and widened to a square of side n."""
        N = self.grid.N
        j0, i0, _, _ = self.grid.bilinear_stencil(self.nodes)
        lo, hi = [], []
        for axis, stencil in ((1, j0), (0, i0)):
            cells = np.flatnonzero(self.mask.any(axis=axis))
            lo.append(max(0, int(min(cells[0] - 2, stencil.min()))))
            hi.append(min(N, int(max(cells[-1] + 3, stencil.max() + 2))))
        n = max(b - a for a, b in zip(lo, hi))
        return tuple(slice(s, s + n) for s in (min(a, N - n) for a in lo))

    @property
    def measure(self) -> float:
        return self.grid.cell_measure * int(self.mask.sum())

    def interior_mask(self, margin: float) -> np.ndarray:
        """Masked cells at least `margin` away from the boundary polyline."""
        return self.mask & (self.distance > margin)

    def restrict(self, field: np.ndarray) -> np.ndarray:
        """chi_Omega * field, zero-extended outside the mask."""
        out = np.zeros_like(np.asarray(field, dtype=complex))
        out[self.mask] = np.asarray(field, dtype=complex)[self.mask]
        return out

    def sample_trace(self, fn) -> np.ndarray:
        """Evaluate a callable trace at the quadrature nodes."""
        return np.asarray(fn(self.nodes), dtype=complex)

    @cached_property
    def _node_tree(self):
        import scipy.spatial
        return scipy.spatial.cKDTree(np.column_stack([self.nodes.real, self.nodes.imag]))

    def arclength_at(self, z) -> np.ndarray:
        """Arclength coordinate of the quadrature node nearest to each point
        (a node's coordinate is the boundary length from the first vertex
        to the node)."""
        z = np.asarray(z, dtype=complex)
        _, j = self._node_tree.query(np.column_stack([z.ravel().real, z.ravel().imag]))
        s = np.cumsum(self.weights) - 0.5 * self.weights
        return s[j].reshape(z.shape)


@dataclass(frozen=True)
class BeltResult:
    mask: np.ndarray
    measure: float


def make_grid(L: float, N: int) -> Grid:
    return Grid(float(L), int(N))


def make_domain(grid: Grid, shape) -> DomainSpec:
    """Build the mask, boundary polyline and quadrature (the distance field
    waits for its first read).

    Disk boundaries use the circumscribed (tangent) regular polygon: its
    edge midpoints lie exactly on the circle, so quadrature nodes sit on
    the true boundary with exact radial normals.
    """
    if isinstance(shape, Disk):
        return _make_disk(grid, shape)
    if isinstance(shape, Polygon):
        return _make_polygon(grid, shape)
    raise DomainError(f"unsupported shape {shape!r}")


def _node_target(grid: Grid, perimeter: float) -> int:
    return max(64, int(np.ceil(8.0 * perimeter / grid.h)))


def _make_disk(grid: Grid, disk: Disk) -> DomainSpec:
    c, r = disk.center, disk.radius
    if not (r > 0):
        raise DomainError(f"disk radius must be positive, got {r}")
    if max(abs(c.real), abs(c.imag)) + r >= grid.L:
        raise DomainError("disk is not strictly inside the grid square")
    M = _node_target(grid, 2 * np.pi * r)
    # circumscribed M-gon: vertices at radius r/cos(pi/M), edge midpoints on the circle
    half = np.pi / M
    rv = r / np.cos(half)
    th_v = 2 * half * np.arange(M)
    vertices = c + rv * np.exp(1j * th_v)
    th_n = th_v + half
    nodes = c + r * np.exp(1j * th_n)
    normals = np.exp(1j * th_n)
    weights = np.full(M, 2 * r * np.tan(half))
    # from the axis, not grid.Z, which a disk then never builds: the same
    # complex differences, so the same bits (np.hypot differs in the last bit)
    dx = grid.axis - c.real
    dy = grid.axis - c.imag
    mask = np.abs(dx[None, :] + 1j * dy[:, None]) < r
    if not mask.any():
        raise DomainError("disk does not contain any cell center")
    return DomainSpec(grid, disk, mask, vertices, nodes, normals, weights)


def _make_polygon(grid: Grid, poly: Polygon) -> DomainSpec:
    verts = np.asarray(poly.vertices, dtype=complex)
    if verts.size < 3:
        raise DomainError("polygon needs at least three vertices")
    area2 = float(np.sum(verts.real * np.roll(verts, -1).imag
                         - np.roll(verts, -1).real * verts.imag))
    if abs(area2) < 1e-14:
        raise DomainError("degenerate polygon (zero area)")
    if area2 < 0:  # enforce positive orientation
        verts = verts[::-1]
        poly = Polygon(tuple(verts))
    if np.max(np.abs(np.concatenate([verts.real, verts.imag]))) >= grid.L:
        raise DomainError("polygon is not strictly inside the grid square")
    edges = np.stack([verts, np.roll(verts, -1)], axis=1)
    lens = np.abs(edges[:, 1] - edges[:, 0])
    if np.any(lens == 0):
        raise DomainError("degenerate polygon (repeated vertex)")
    perimeter = float(lens.sum())
    target = _node_target(grid, perimeter)
    nodes, normals, weights = [], [], []
    for (a, b), ln in zip(edges, lens):
        k = max(1, int(np.ceil(target * ln / perimeter)))
        t = (np.arange(k) + 0.5) / k
        nodes.append(a + (b - a) * t)
        tang = (b - a) / ln
        normals.append(np.full(k, -1j * tang))
        weights.append(np.full(k, ln / k))
    nodes = np.concatenate(nodes)
    normals = np.concatenate(normals)
    weights = np.concatenate(weights)
    mask = _points_in_polygon(grid.Z, verts)
    if not mask.any():
        raise DomainError("polygon does not contain any cell center")
    return DomainSpec(grid, poly, mask, verts, nodes, normals, weights)


def _points_in_polygon(Z: np.ndarray, verts: np.ndarray) -> np.ndarray:
    """Even-odd crossing test, vectorized over the grid."""
    px, py = Z.real, Z.imag
    inside = np.zeros(Z.shape, dtype=bool)
    n = len(verts)
    for i in range(n):
        ax, ay = verts[i].real, verts[i].imag
        bx, by = verts[(i + 1) % n].real, verts[(i + 1) % n].imag
        crosses = (ay > py) != (by > py)
        with np.errstate(divide="ignore", invalid="ignore"):
            xint = ax + (py - ay) * (bx - ax) / (by - ay)
        inside ^= crosses & (px < xint)
    return inside


# point-edge pairs in one chunk of `_distance_to_polyline`: 320 KB complex
# temporaries.  Each point's minimum over its candidate edges does not
# depend on the chunking.  On the unit disk of the L = 1.5, N = 256 grid,
# 2.5e5 pairs traced 27 MB (above the solves of a reconstruction there)
# and took 48 ms; 2e4 pairs trace 2.8 MB, output included, and take 17 ms
# (2-CPU Xeon, numpy 2.4.6)
_DISTANCE_PAIRS = 20000


def _distance_to_polyline(grid: Grid, verts: np.ndarray, regular: bool = False) -> np.ndarray:
    """Exact distance from every cell center to the closed polyline, as a
    minimum over candidate edges taken `_DISTANCE_PAIRS` point-edge pairs
    at a time.

    A polygon's candidates are all of its edges (tens of them).  A regular
    polygon's are the five edges around the point's angular sector: the
    nearest edge lies in that sector.
    """
    M = len(verts)
    z = grid.Z.ravel()
    if regular:
        c = verts.mean()
        base = np.angle(verts[0] - c)
        sector = 2 * np.pi / M
        offsets = np.arange(-2, 3)
    else:
        offsets = np.arange(M)
    dmin = np.empty(z.size)
    chunk = max(1, _DISTANCE_PAIRS // offsets.size)
    for s in range(0, z.size, chunk):
        zc = z[s:s + chunk, None]
        j = np.floor((np.angle(zc - c) - base) / sector).astype(np.int64) if regular else 0
        idx = (j + offsets) % M
        dmin[s:s + chunk] = _segments_distance(zc, verts[idx], verts[(idx + 1) % M]).min(axis=1)
    return dmin.reshape(grid.N, grid.N)


def _segments_distance(z, a, b):
    """Pointwise |z - nearest point of segment [a, b]| (broadcasting)."""
    ab = b - a
    ab2 = np.maximum(np.abs(ab) ** 2, 1e-300)
    t = ((z - a) * np.conj(ab)).real / ab2
    t = np.clip(t, 0.0, 1.0)
    return np.abs(z - (a + t * ab))


def boundary_belt(domain: DomainSpec, eps: float) -> BeltResult:
    """Masked cells strictly within eps of the boundary polyline, and the
    measure of that belt."""
    if eps < 0:
        raise DomainError(f"belt width must be nonnegative, got {eps}")
    m = domain.mask & (domain.distance < eps)
    return BeltResult(m, domain.grid.cell_measure * int(m.sum()))


# ---------------------------------------------------------------------------
# file formats

_MAGIC = "BKFLD1"


def save_field(path, field: np.ndarray, grid: Grid) -> None:
    """BKFLD1: ASCII header 'BKFLD1 N L\\n', then N^2 little-endian f64
    (re, im) pairs, row-major, y-outer."""
    field = grid.check_field(field).astype(complex)
    with open(path, "wb") as f:
        f.write(f"{_MAGIC} {grid.N} {grid.L!r}\n".encode("ascii"))
        f.write(np.ascontiguousarray(field, dtype="<c16").tobytes())


def load_field(path) -> tuple[np.ndarray, Grid]:
    with open(path, "rb") as f:
        # a byte that is not ASCII fails the magic or number check below
        header = f.readline().decode("ascii", errors="replace").split()
        if len(header) != 3 or header[0] != _MAGIC:
            raise BklabError(f"{path}: not a {_MAGIC} field file")
        try:
            N, L = int(header[1]), float(header[2])
        except ValueError:
            raise BklabError(f"{path}: header N and L must be an integer and "
                             f"a number, got {header[1:]}") from None
        data = f.read()
    grid = Grid(L, N)
    expected = 16 * N * N
    if len(data) != expected:
        raise BklabError(f"{path}: payload is {len(data)} bytes, expected {expected}")
    field = np.frombuffer(data, dtype="<c16").reshape(N, N).astype(complex)
    return field, grid


def save_domain(path, domain: DomainSpec) -> None:
    doc = {
        "version": 1,
        "grid": {"L": domain.grid.L, "N": domain.grid.N},
        "shape": domain.shape.to_dict(),
    }
    with open(path, "w") as f:
        json.dump(doc, f, indent=2, sort_keys=True)
        f.write("\n")


def domain_from_spec(L, N, shape, where: str = "") -> DomainSpec:
    """The domain of parsed JSON values L, N and shape (exit 2 on a value
    of the wrong kind); `where` prefixes the key names in error messages."""
    grid = make_grid(_checked(L, "number", f"{where}L"), _checked(N, "integer", f"{where}N"))
    return make_domain(grid, _shape_from_dict(shape, f"{where}shape"))


def _read_json_object(path, keys, optional=()) -> dict:
    """The JSON object in a UTF-8 file, with the keys `_object` checks and
    `version` 1; a file that does not decode is a configuration error
    (exit 2) that names the path."""
    try:
        with open(path, encoding="utf-8") as f:
            doc = json.load(f)
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise BklabError(f"{path}: {e}") from None
    doc = _object(doc, f"{path}", keys, optional)
    if _checked(doc["version"], "integer", f"{path}: version") != 1:
        raise BklabError(f"{path}: unsupported version {doc['version']!r}")
    return doc


def load_domain(path) -> DomainSpec:
    doc = _read_json_object(path, ("version", "grid", "shape"))
    g = _object(doc["grid"], f"{path}: grid", ("L", "N"))
    return domain_from_spec(g["L"], g["N"], doc["shape"], f"{path}: ")
