"""Unit tests for :mod:`repro.lang.batch` -- grids, plans, results."""

import numpy as np
import pytest

from repro.lang import batch
from repro.lang.batch import BatchPlan, ParamGrid, SweepResult


class TestParamGrid:
    def test_geometry(self):
        grid = ParamGrid(factor=(2, 4, 8), device=("a10", "s10"))
        assert grid.names == ("factor", "device")
        assert grid.shape == (3, 2)
        assert grid.size == 6
        assert grid.values("factor") == (2, 4, 8)
        assert grid.axis_index("device") == 1

    def test_empty_axis_rejected(self):
        with pytest.raises(ValueError):
            ParamGrid(factor=())
        with pytest.raises(ValueError):
            ParamGrid()

    def test_mesh_broadcasts_along_own_axis(self):
        grid = ParamGrid(a=(1, 2, 3), b=(10, 20))
        assert batch._np is not None
        assert grid.mesh("a").shape == (3, 1)
        assert grid.mesh("b").shape == (1, 2)
        full = grid.mesh("a") + grid.mesh("b")
        assert full.shape == (3, 2)
        assert full[2, 1] == 23

    def test_points_iterate_c_order(self):
        grid = ParamGrid(a=(1, 2), b=("x", "y"))
        points = list(grid.points())
        assert [idx for idx, _ in points] == [
            (0, 0), (0, 1), (1, 0), (1, 1)]
        assert points[2][1] == {"a": 2, "b": "x"}
        assert grid.point((1, 1)) == {"a": 2, "b": "y"}

    def test_space_hash_deterministic_and_sensitive(self):
        g1 = ParamGrid(factor=(2, 4, 8))
        g2 = ParamGrid(factor=(2, 4, 8))
        g3 = ParamGrid(factor=(2, 4, 16))
        assert g1.space_hash() == g2.space_hash()
        assert g1.space_hash() != g3.space_hash()
        assert g1.space_hash(extra="a") != g1.space_hash(extra="b")


class TestSweepResult:
    def grid(self):
        return ParamGrid(f=(1, 2, 3, 4))

    def test_set_broadcasts_scalars(self):
        result = SweepResult(self.grid())
        result.set("x", 5.0)
        assert result.tensor("x").shape == (4,)
        assert "x" in result

    def test_point_extraction(self):
        grid = self.grid()
        result = SweepResult(grid, {"t": np.array([4.0, 3.0, 2.0, 1.0])})
        point = result.point((2,))
        assert point == {"f": 3, "t": 2.0}
        assert isinstance(point["t"], float)

    def test_argmin_first_occurrence(self):
        result = SweepResult(self.grid(),
                             {"t": np.array([2.0, 1.0, 1.0, 3.0])})
        assert result.argmin("t") == (1,)

    def test_argmin_masked(self):
        result = SweepResult(self.grid(),
                             {"t": np.array([2.0, 1.0, 1.0, 3.0])})
        mask = np.array([True, False, False, True])
        assert result.argmin("t", where=mask) == (0,)
        assert result.argmin("t", where=np.zeros(4, dtype=bool)) is None

    def test_argmax(self):
        result = SweepResult(self.grid(),
                             {"t": np.array([2.0, 3.0, 3.0, 1.0])})
        assert result.argmax("t") == (1,)

    def test_first_true(self):
        result = SweepResult(self.grid())
        assert result.first_true(
            np.array([False, False, True, True])) == (2,)
        assert result.first_true(np.zeros(4, dtype=bool)) is None


class TestBatchPlan:
    def test_affine_core(self):
        grid = ParamGrid(f=(2.0, 4.0, 8.0))
        plan = BatchPlan(grid)
        plan.affine("alms", 100.0, f=2.5)
        result = plan.evaluate()
        assert list(result.tensor("alms")) == [105.0, 110.0, 120.0]

    def test_affine_rejects_inexact_coefficients(self):
        plan = BatchPlan(ParamGrid(f=(1, 2)))
        with pytest.raises(ValueError):
            plan.affine("x", float(1 << 53), f=1.0)
        with pytest.raises(ValueError):
            plan.affine("x", float("nan"), f=1.0)

    def test_affine_rejects_unknown_axis(self):
        plan = BatchPlan(ParamGrid(f=(1, 2)))
        with pytest.raises(KeyError):
            plan.affine("x", 0.0, g=1.0)

    def test_vector_metric(self):
        grid = ParamGrid(t=(1, 2, 4))
        plan = BatchPlan(grid)
        plan.vector("inv", lambda g: 1.0 / g.mesh("t"))
        result = plan.evaluate()
        assert list(result.tensor("inv")) == [1.0, 0.5, 0.25]

    def test_residue_numeric_and_mask(self):
        grid = ParamGrid(f=(1, 2, 3))
        plan = BatchPlan(grid, space_key="t1")
        plan.residue("sq", lambda f: float(f * f),
                     where=np.array([True, False, True]))
        result = plan.evaluate()
        out = result.tensor("sq")
        assert out[0] == 1.0 and out[2] == 9.0
        assert out[1] == 0.0          # masked out -> fill value
        assert plan.residue_points == 2

    def test_residue_object_values(self):
        """Residues may return non-numeric values (limiter names)."""
        BatchPlan.clear_residue_cache()
        grid = ParamGrid(f=(1, 2))
        plan = BatchPlan(grid, space_key="t2")
        plan.residue("name", lambda f: f"point-{f}")
        result = plan.evaluate()
        out = result.tensor("name")
        assert out.dtype == object
        assert list(out) == ["point-1", "point-2"]

    def test_residue_cache_hits_across_plans(self):
        BatchPlan.clear_residue_cache()
        calls = []

        def fn(f):
            calls.append(f)
            return float(f)

        grid = ParamGrid(f=(1, 2, 3))
        for _ in range(2):
            plan = BatchPlan(grid, space_key="shared")
            plan.residue("v", fn)
            plan.evaluate()
        assert calls == [1, 2, 3]     # second plan served from cache

    def test_residue_cache_keyed_by_space(self):
        BatchPlan.clear_residue_cache()
        grid = ParamGrid(f=(1,))
        p1 = BatchPlan(grid, space_key="s1")
        p1.residue("v", lambda f: 10.0)
        assert p1.evaluate().tensor("v")[0] == 10.0
        p2 = BatchPlan(grid, space_key="s2")
        p2.residue("v", lambda f: 20.0)
        assert p2.evaluate().tensor("v")[0] == 20.0

    def test_multi_axis_affine(self):
        grid = ParamGrid(f=(1.0, 2.0), g=(10.0, 20.0))
        plan = BatchPlan(grid)
        plan.affine("x", 1.0, f=1.0, g=0.5)
        out = plan.evaluate().tensor("x")
        assert out.shape == (2, 2)
        assert out[1, 1] == 1.0 + 2.0 + 10.0
