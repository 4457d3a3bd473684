"""Stencil, field, and eigen-decomposition tests."""

import csv

import numpy as np
import pytest

from sumhess import fdgrid
from sumhess.fdgrid import (
    Grid,
    GridField,
    eigh_batch,
    gradient_field_array,
    hessian_field_array,
    laplacian_field,
)


def make_grid2(cells=9, lo=(-1.0, -1.0), hi=(1.0, 1.0)):
    return Grid(lo, hi, (cells, cells))


class TestGrid:
    def test_spacing(self):
        g = Grid((-1.0, -1.0), (1.0, 1.0), (15, 15))
        assert g.h == (2.0 / 16, 2.0 / 16)

    def test_validation(self):
        with pytest.raises(ValueError):
            Grid((-1.0, -1.0), (1.0, 1.0), (2, 5))
        with pytest.raises(ValueError):
            Grid((1.0, -1.0), (1.0, 1.0), (5, 5))
        with pytest.raises(ValueError):
            Grid((0.0,), (1.0,), (5,))

    def test_refine_alignment(self):
        g = make_grid2(7)
        f = g.refine()
        assert f.cells == (15, 15)
        # old nodes coincide with even new nodes
        assert np.allclose(f.axis_nodes(0, padded=True)[::2], g.axis_nodes(0, padded=True))


class TestGridField:
    def test_from_interior_constant_boundary(self):
        g = make_grid2(3)
        f = GridField.from_interior(g, np.zeros((3, 3)), boundary=2.0)
        assert f.values[0, 0] == 2.0
        assert f.interior.sum() == 0.0

    def test_from_interior_callable_boundary(self):
        g = make_grid2(3)
        f = GridField.from_interior(g, np.zeros((3, 3)), boundary=lambda x: x[..., 0])
        assert f.values[0, 1] == pytest.approx(g.axis_nodes(0, padded=True)[0])

    def test_immutable(self):
        g = make_grid2(3)
        f = GridField.from_interior(g, np.zeros((3, 3)))
        with pytest.raises(ValueError):
            f.values[1, 1] = 3.0

    def test_rejects_nonfinite(self):
        g = make_grid2(3)
        vals = np.zeros(g.padded_shape)
        vals[2, 2] = np.inf
        with pytest.raises(ValueError):
            GridField(g, vals)

    def test_csv_round_trip(self, tmp_path):
        g = make_grid2(3)
        f = GridField.from_function(g, lambda x: x[..., 0] + 2.0 * x[..., 1])
        path = tmp_path / "field.csv"
        f.to_csv(path, name="v")
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["x", "y", "v"]
        assert len(rows) == 1 + 5 * 5
        x, y, v = (float(s) for s in rows[1])
        assert v == x + 2.0 * y

    @pytest.mark.parametrize("dim", [2, 3], ids=["2d", "3d"])
    def test_csv_bytes_match_the_csv_module(self, tmp_path, dim):
        g = Grid((-1.0,) * dim, (1.0, 0.7, 3.0)[:dim], (3, 4, 5)[:dim])
        vals = np.random.default_rng(67).normal(size=g.padded_shape)
        vals.flat[:4] = [-0.0, 1e-300, 1e300, -1e300]
        f = GridField(g, vals)
        f.to_csv(tmp_path / "fast.csv", name="u")
        with open(tmp_path / "ref.csv", "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["x", "y", "z"][:dim] + ["u"])
            for p, v in zip(g.points(padded=True).reshape(-1, dim), f.values.reshape(-1)):
                writer.writerow([repr(float(c)) for c in p] + [repr(float(v))])
        fast = (tmp_path / "fast.csv").read_bytes()
        assert fast == (tmp_path / "ref.csv").read_bytes()
        for text in (b",-0.0\r\n", b",1e-300\r\n", b",1e+300\r\n", b",-1e+300\r\n"):
            assert text in fast


class TestStencils:
    def test_hessian_exact_on_quadratics(self):
        A = np.array([[2.0, 0.7], [0.7, -1.0]])
        g = make_grid2(9)
        f = GridField.from_function(g, lambda x: 0.5 * np.einsum("...i,ij,...j->...", x, A, x))
        H = hessian_field_array(f)[4, 4]
        lams, _ = eigh_batch(H[None])
        assert np.allclose(H, A, atol=1e-12)
        assert np.allclose(lams[0], np.linalg.eigvalsh(A)[::-1], atol=1e-12)

    def test_quartic_truncation_term(self):
        # 3-point stencil on x^4 returns exactly 12 x^2 + 2 h^2
        g = make_grid2(9)
        f = GridField.from_function(g, lambda x: x[..., 0] ** 4)
        h = g.h[0]
        for node in [(2, 3), (4, 4), (7, 1)]:
            x = g.axis_nodes(0)[node[0]]
            got = hessian_field_array(f)[node][0, 0]
            assert got == pytest.approx(12.0 * x * x + 2.0 * h * h, rel=1e-9)

    def test_mixed_entries_bit_exact_symmetric(self):
        rng = np.random.default_rng(60)
        g = make_grid2(7)
        f = GridField.from_interior(g, rng.normal(size=(7, 7)), boundary=0.0)
        H = hessian_field_array(f)
        assert np.array_equal(H[..., 0, 1], H[..., 1, 0])

    def test_gradient_exact_on_linear(self):
        g = make_grid2(7)
        a = np.array([1.3, -0.4])
        f = GridField.from_function(g, lambda x: x @ a + 2.0)
        assert np.allclose(gradient_field_array(f)[3, 3], a, atol=1e-14)

    def test_gradient_exact_on_isotropic_quadratic(self):
        g = make_grid2(7)
        c = 0.8
        f = GridField.from_function(g, lambda x: 0.5 * c * (x**2).sum(axis=-1))
        node = (2, 5)
        x = np.array([g.axis_nodes(0)[2], g.axis_nodes(1)[5]])
        assert np.allclose(gradient_field_array(f)[node], c * x, atol=1e-13)

    def test_gradient_second_order_on_sin_profile(self):
        errs = []
        for cells in (31, 63, 127):
            g = make_grid2(cells)
            f = GridField.from_function(g, lambda x: np.sin(np.pi * x[..., 0]) * x[..., 1])
            got = gradient_field_array(f)
            pts = g.points()
            exact = np.stack(
                [np.pi * np.cos(np.pi * pts[..., 0]) * pts[..., 1], np.sin(np.pi * pts[..., 0])],
                axis=-1,
            )
            errs.append(np.abs(got - exact).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders >= 1.9).all()

    def test_hessian_second_order_on_smooth_profile(self):
        errs = []
        for cells in (15, 31, 63):
            g = make_grid2(cells)
            f = GridField.from_function(
                g, lambda x: np.sin(np.pi * x[..., 0]) * np.cos(np.pi * x[..., 1])
            )
            H = hessian_field_array(f)
            pts = g.points()
            sx, cy = np.sin(np.pi * pts[..., 0]), np.cos(np.pi * pts[..., 1])
            cx, sy = np.cos(np.pi * pts[..., 0]), np.sin(np.pi * pts[..., 1])
            exact = np.empty_like(H)
            exact[..., 0, 0] = -np.pi**2 * sx * cy
            exact[..., 1, 1] = -np.pi**2 * sx * cy
            exact[..., 0, 1] = exact[..., 1, 0] = -np.pi**2 * cx * sy
            errs.append(np.abs(H - exact).max())
        orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
        assert (orders >= 1.8).all()


class TestEigh:
    def test_matches_lapack_2x2(self):
        rng = np.random.default_rng(61)
        M = rng.normal(size=(500, 2, 2))
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        lams, Q = eigh_batch(M)
        ref = np.sort(np.linalg.eigvalsh(M), axis=-1)[..., ::-1]
        assert np.allclose(lams, ref, atol=1e-12)
        rec = Q @ (lams[..., None] * np.swapaxes(Q, -1, -2))
        assert np.abs(rec - M).max() <= 1e-10 * (1 + np.abs(M).max())

    def test_matches_lapack_3x3(self):
        rng = np.random.default_rng(62)
        M = rng.normal(size=(500, 3, 3)) * 3.0
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        lams, Q = eigh_batch(M)
        ref = np.sort(np.linalg.eigvalsh(M), axis=-1)[..., ::-1]
        assert np.allclose(lams, ref, atol=1e-10)
        rec = Q @ (lams[..., None] * np.swapaxes(Q, -1, -2))
        assert np.abs(rec - M).max() <= 1e-10 * (1 + np.abs(M).max())

    def test_descending_order(self):
        rng = np.random.default_rng(63)
        for dim in (2, 3):
            M = rng.normal(size=(200, dim, dim))
            M = 0.5 * (M + np.swapaxes(M, -1, -2))
            lams, _ = eigh_batch(M)
            assert (np.diff(lams, axis=-1) <= 1e-14).all()

    def test_near_degenerate_spectrum(self):
        D = np.diag([1.0, 1.0 + 1e-13, 2.0])
        rng = np.random.default_rng(64)
        G = rng.normal(size=(3, 3))
        Q0, _ = np.linalg.qr(G)
        M = (Q0 @ D @ Q0.T)[None, ...]
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        lams, Q = eigh_batch(M)
        rec = Q @ (lams[..., None] * np.swapaxes(Q, -1, -2))
        assert np.abs(rec - M).max() <= 1e-10

    def test_orthonormal_columns(self):
        rng = np.random.default_rng(65)
        M = rng.normal(size=(100, 3, 3))
        M = 0.5 * (M + np.swapaxes(M, -1, -2))
        _, Q = eigh_batch(M)
        eye = np.swapaxes(Q, -1, -2) @ Q
        assert np.abs(eye - np.eye(3)).max() < 1e-12


class TestLaplacian:
    def test_isotropic_quadratic(self):
        g = make_grid2(9)
        f = GridField.from_function(g, lambda x: 0.5 * (x**2).sum(axis=-1))
        lap = laplacian_field(f)
        assert np.allclose(lap.interior, 2.0, atol=1e-12)

    def test_discrete_harmonic_has_zero_laplacian(self):
        import scipy.sparse as sp
        import scipy.sparse.linalg as spla

        g = make_grid2(12)
        n = g.cells[0]
        h2 = g.h[0] ** 2
        one = sp.identity(n)
        lap1 = sp.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(n, n))
        A = (sp.kron(lap1, one) + sp.kron(one, lap1)) / h2
        bc = GridField.from_function(g, lambda x: x[..., 0] ** 2 - x[..., 1] ** 2)
        rhs = np.zeros((n, n))
        # move Dirichlet data of the 5-point stencil to the right side
        rhs[0, :] -= bc.values[0, 1:-1] / h2
        rhs[-1, :] -= bc.values[-1, 1:-1] / h2
        rhs[:, 0] -= bc.values[1:-1, 0] / h2
        rhs[:, -1] -= bc.values[1:-1, -1] / h2
        interior = spla.spsolve(A.tocsr(), rhs.reshape(-1)).reshape(n, n)
        f = bc.with_interior(interior)
        assert np.abs(laplacian_field(f).interior).max() <= 1e-10

    def test_trace_is_np_trace_bit_for_bit(self, monkeypatch):
        # the diagonal is summed from 0 as np.trace does: a diagonal of -0.0
        # gives +0.0, where H_00 + H_11 would give -0.0
        rng = np.random.default_rng(67)
        g = make_grid2(7)
        f = GridField.from_interior(g, rng.normal(size=(7, 7)), boundary=0.0)
        H = hessian_field_array(f)
        H[0, 0] = np.diag([-0.0, -0.0])
        H[0, 1, 0, 0] = -0.0
        monkeypatch.setattr(fdgrid, "hessian_field_array", lambda u: H)
        lap = laplacian_field(f).interior
        assert not np.signbit(lap[0, 0])
        assert lap.tobytes() == np.trace(H, axis1=-2, axis2=-1).tobytes()

    def test_trace_equals_eigenvalue_sum(self):
        rng = np.random.default_rng(66)
        g = make_grid2(7)
        f = GridField.from_interior(g, rng.normal(size=(7, 7)), boundary=0.0)
        lap = laplacian_field(f)
        H = hessian_field_array(f)
        for node in [(0, 0), (3, 4), (6, 6)]:
            lams, _ = eigh_batch(H[node][None])
            assert lap.interior[node] == pytest.approx(
                lams.sum(), abs=1e-10 * (1 + abs(lap.interior[node]))
            )
