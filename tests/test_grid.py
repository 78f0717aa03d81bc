import json

import numpy as np
import pytest

from bklab import (Disk, Polygon, PhaseParams, boundary_belt, load_domain,
                   load_field, make_domain, make_grid, save_domain, save_field)
import bklab.grid as grid_module
from bklab.errors import AliasingGuardError, BklabError, DomainError, GridError


class TestMakeGrid:
    def test_sampling_convention(self):
        g = make_grid(2.0, 8)
        assert g.h == 0.5
        assert g.Z[0, 0] == -1.75 - 1.75j
        assert g.N * g.N == 64
        assert (g.N * g.h) ** 2 == pytest.approx(16.0)

    def test_centers_symmetric_under_negation(self):
        g = make_grid(1.0, 16)
        z = g.Z
        assert np.array_equal(z, -z[::-1, ::-1])

    def test_rejects_non_power_of_two(self):
        with pytest.raises(GridError):
            make_grid(1.0, 6)

    def test_rejects_small_and_nonpositive(self):
        with pytest.raises(GridError):
            make_grid(1.0, 4)
        with pytest.raises(GridError):
            make_grid(0.0, 16)
        with pytest.raises(GridError):
            make_grid(-2.0, 16)


class TestPhase:
    def test_phase_field_real_and_unimodular(self):
        g = make_grid(1.0, 32)
        p = PhaseParams(3.0, 0.2 + 0.1j)
        R = p.phase_field(g)
        assert R.dtype.kind == "f"  # real by construction, Im R = 0 exactly
        row, col = p.weight_factors(g)
        w = row[:, None] * col[None, :]
        assert np.abs(np.abs(w) - 1.0).max() < 5e-16

    @pytest.mark.parametrize("N", [32, 1024])
    def test_separable_weight_matches_phase_field(self, N):
        g = make_grid(1.2, N)
        eps = np.finfo(float).eps
        for z0 in (0j, 0.3 - 0.2j, -0.7 + 0.55j):
            for tau in (0.5, 3.0, g.aliasing_guard()):
                p = PhaseParams(tau, z0)
                tR = tau * p.phase_field(g)
                for sign in (1, -1):
                    row, col = p.weight_factors(g, sign)
                    w = row[:, None] * col[None, :]
                    err = np.abs(w - np.exp(1j * sign * tR)).max()
                    assert err <= 16 * eps * np.abs(tR).max()

    def test_aliasing_guard(self):
        g = make_grid(1.0, 32)
        PhaseParams(g.aliasing_guard() * 0.99, 0j).validate_for(g)
        with pytest.raises(AliasingGuardError):
            PhaseParams(g.aliasing_guard() * 1.01, 0j).validate_for(g)

    def test_tau_positive(self):
        with pytest.raises(BklabError):
            PhaseParams(0.0, 0j)


class TestMakeDomain:
    def test_disk_measure(self, disk256):
        h = disk256.grid.h
        assert abs(disk256.measure - np.pi) <= 2 * np.pi * h

    def test_square(self, square256):
        assert square256.perimeter == pytest.approx(4.0, rel=1e-12)
        east = square256.normals[np.abs(square256.nodes.real - 1.0) < 1e-12]
        assert east.size > 0
        assert np.abs(east - 1.0).max() < 1e-12

    def test_node_count(self, disk256):
        g = disk256.grid
        assert disk256.nodes.size >= max(64, 8 * disk256.perimeter / g.h)
        assert abs(disk256.weights.sum() - disk256.perimeter) < 1e-12

    def test_unit_normals(self, square256):
        assert np.abs(np.abs(square256.normals) - 1.0).max() < 1e-12

    def test_shape_outside_grid(self):
        with pytest.raises(DomainError):
            make_domain(make_grid(1.5, 64), Disk(0j, 2.0))

    def test_degenerate_polygon(self):
        g = make_grid(1.0, 32)
        with pytest.raises(DomainError):
            make_domain(g, Polygon((0j, 0.5 + 0j)))
        with pytest.raises(DomainError):
            make_domain(g, Polygon((0j, 0.5 + 0j, 0.25 + 0j)))

    def test_masked_centers_inside_polyline(self, disk128):
        from bklab.grid import _points_in_polygon
        inside = _points_in_polygon(disk128.grid.Z, np.asarray(disk128.vertices))
        assert np.all(inside[disk128.mask])

    def test_mask_measure_refinement(self):
        shapes = Disk(0.1 + 0.05j, 0.8)
        m = {}
        for N in (64, 128, 256):
            d = make_domain(make_grid(1.2, N), shapes)
            m[N] = d.measure
        for N in (64, 128):
            h = 2 * 1.2 / N
            assert abs(m[N] - m[256]) <= 1.5 * h * 2 * np.pi * 0.8

    def test_orientation_fixed(self):
        g = make_grid(1.28, 64)
        d1 = make_domain(g, Polygon((0j, 1 + 0j, 1 + 1j, 1j)))
        d2 = make_domain(g, Polygon((1j, 1 + 1j, 1 + 0j, 0j)))  # clockwise input
        assert np.array_equal(d1.mask, d2.mask)
        east = d2.normals[np.abs(d2.nodes.real - 1.0) < 1e-12]
        assert np.abs(east - 1.0).max() < 1e-12

    @pytest.mark.parametrize("L, N, center, radius", [
        (1.0, 8, 0.125 + 0.125j, 0.5),  # the cell at (0.625, 0.125) is on the circle
        (3.0, 32, 1.0 - 0.5j, 1.2),
        (1.2, 64, 0.1 - 0.05j, 0.9),
        (1.28, 128, -0.3 + 0.2j, 0.77),
        (1.5, 256, 0j, 1.0),
        (1.1, 512, 0.01 + 0.03j, 1.0),
    ])
    def test_disk_mask_matches_cell_centers(self, L, N, center, radius):
        # the mask is formed from the axis, bit for bit the distance from
        # the cell centers, and leaves Grid.Z unbuilt
        g = make_grid(L, N)
        d = make_domain(g, Disk(center, radius))
        assert "Z" not in vars(g)
        assert np.array_equal(d.mask, np.abs(g.Z - center) < radius)

    @pytest.mark.parametrize("grid, shape", [
        (make_grid(1.2, 64), Disk(0.1 - 0.05j, 0.9)),
        (make_grid(1.2, 128), Polygon((-0.8 - 0.7j, 0.9 - 0.6j, 0.7 + 0.8j,
                                       -0.6 + 0.9j, -0.95 + 0.1j))),
    ], ids=["disk", "on-edge-pentagon"])
    def test_distance_is_minimum_over_every_edge(self, grid, shape, monkeypatch):
        calls = []
        compute = grid_module._distance_to_polyline
        monkeypatch.setattr(grid_module, "_distance_to_polyline",
                            lambda *a, **k: calls.append(1) or compute(*a, **k))
        d = make_domain(grid, shape)
        assert not calls  # computed on first read, not by make_domain
        z = grid.Z.ravel()[:, None]
        a = np.asarray(d.vertices)[None, :]
        ab = np.roll(a, -1) - a
        t = np.clip(((z - a) * np.conj(ab)).real / np.abs(ab) ** 2, 0.0, 1.0)
        brute = np.abs(z - (a + t * ab)).min(axis=1).reshape(grid.N, grid.N)
        assert np.array_equal(d.distance, brute)
        assert d.distance is d.distance and len(calls) == 1
        assert not d.distance.flags.writeable

    @pytest.mark.parametrize("shape", [
        Disk(0.1 - 0.05j, 0.9),
        Polygon((-0.8 - 0.7j, 0.9 - 0.6j, 0.7 + 0.8j, -0.6 + 0.9j, -0.95 + 0.1j)),
    ], ids=["disk", "pentagon"])
    def test_distance_does_not_depend_on_chunking(self, shape, monkeypatch):
        g = make_grid(1.2, 64)
        chunked = make_domain(g, shape).distance
        monkeypatch.setattr(grid_module, "_DISTANCE_PAIRS", 10 ** 9)
        assert np.array_equal(make_domain(g, shape).distance, chunked)

    def test_distance_working_set(self, traced_peak):
        # chunks of `_DISTANCE_PAIRS` point-edge pairs: the N^2 8 B output
        # and a few MB of temporaries (Z is built beforehand)
        g = make_grid(1.5, 256)
        d = make_domain(g, Disk(0j, 1.0))
        g.Z
        assert traced_peak(lambda: d.distance) <= 256 * 256 * 8 + 3 * 2 ** 20


class TestBelt:
    def test_square_belt(self, square256):
        b = boundary_belt(square256, 0.1)
        assert abs(b.measure - 0.36) <= 4 * square256.grid.h

    def test_disk_belt(self, disk256):
        b = boundary_belt(disk256, 0.1)
        assert abs(b.measure - np.pi * (1 - 0.81)) <= 4 * disk256.grid.h

    def test_zero_eps(self, disk256, square256):
        assert boundary_belt(disk256, 0.0).measure == 0.0
        assert boundary_belt(square256, 0.0).measure == 0.0

    def test_negative_eps(self, disk256):
        with pytest.raises(DomainError):
            boundary_belt(disk256, -0.1)

    def test_linear_bound(self, disk256, square256):
        tri = make_domain(make_grid(1.0, 256),
                          Polygon((-0.6 - 0.5j, 0.7 - 0.3j, 0.1 + 0.6j)))
        for dom in (disk256, square256, tri):
            for eps in (0.02, 0.05, 0.1, 0.2):
                b = boundary_belt(dom, eps)
                assert b.measure <= 1.5 * dom.perimeter * eps


class TestFieldIO:
    def test_round_trip(self, tmp_path):
        g = make_grid(1.5, 16)
        rng = np.random.default_rng(42)
        f = rng.normal(size=(16, 16)) + 1j * rng.normal(size=(16, 16))
        path = tmp_path / "f.bkfld"
        save_field(path, f, g)
        f2, g2 = load_field(path)
        assert g2.N == 16 and g2.L == 1.5
        assert np.array_equal(f, f2)

    def test_header_layout(self, tmp_path):
        g = make_grid(2.0, 8)
        f = g.Z
        path = tmp_path / "f.bkfld"
        save_field(path, f, g)
        raw = path.read_bytes()
        header, payload = raw.split(b"\n", 1)
        assert header == b"BKFLD1 8 2.0"
        assert len(payload) == 8 * 8 * 16
        # row-major, y-outer: second pair is the next x sample
        vals = np.frombuffer(payload, dtype="<f8")
        assert vals[0] == f[0, 0].real and vals[1] == f[0, 0].imag
        assert vals[2] == f[0, 1].real

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.bkfld"
        path.write_bytes(b"NOTME 8 1.0\n" + b"\0" * 1024)
        with pytest.raises(BklabError):
            load_field(path)

    def test_truncated(self, tmp_path):
        path = tmp_path / "trunc.bkfld"
        path.write_bytes(b"BKFLD1 8 1.0\n" + b"\0" * 100)
        with pytest.raises(BklabError):
            load_field(path)


class TestDomainIO:
    def test_round_trip_disk(self, tmp_path, disk128):
        path = tmp_path / "d.json"
        save_domain(path, disk128)
        d2 = load_domain(path)
        assert np.array_equal(d2.mask, disk128.mask)
        assert d2.perimeter == pytest.approx(disk128.perimeter)

    def test_round_trip_polygon(self, tmp_path, square256):
        path = tmp_path / "d.json"
        save_domain(path, square256)
        d2 = load_domain(path)
        assert np.array_equal(d2.mask, square256.mask)

    def test_unknown_keys_rejected(self, tmp_path, disk128):
        path = tmp_path / "d.json"
        save_domain(path, disk128)
        doc = json.loads(path.read_text())
        doc["extra"] = 1
        path.write_text(json.dumps(doc))
        with pytest.raises(BklabError):
            load_domain(path)
