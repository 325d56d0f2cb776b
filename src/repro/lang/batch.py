"""Batched design-space lowering: evaluate *spaces* as tensors.

DSE historically evaluated one candidate at a time -- clone the unit,
re-run the analysis, score, repeat.  This module turns a whole sweep
into a handful of numpy tensor operations: every design-space axis
(unroll factor, blocksize, thread count, device) becomes an array
axis, and per-candidate work collapses into broadcasting.

Three pieces:

- :class:`ParamGrid` -- named axes spanning the candidate space, with
  broadcast meshes (axis ``k`` of the grid is axis ``k`` of every
  result tensor) and a deterministic ``space_hash`` that keys shared
  lowering/profiling work for the whole space at once.
- :class:`BatchPlan` -- the lowering.  Metrics register either into
  the **affine core** (``const + sum(slope_k * mesh_k)``, evaluated as
  one tensor expression), as arbitrary **vectorized** numpy
  callables, or into the **non-affine residue**: per-point closures,
  compiled once and cached by point key, invoked only for the grid
  entries the vector paths cannot express.
- :class:`SweepResult` -- the tensor view handed back to DSE tasks:
  per-metric tensors shaped like the grid, per-point extraction, and
  masked reductions (``argmin`` / ``first_true``) that replace the
  scalar early-exit predicates of the point-at-a-time loops.

Exactness is non-negotiable: a batched sweep must be element-wise
identical to running every point through the scalar path.  The affine
core only accepts coefficients whose products and sums stay exact in
float64 (the toolchain resource charges are all multiples of 0.5 well
below 2**53), and every vectorized model mirrors the scalar model's
operation order so IEEE-754 results match bit for bit.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple

try:
    import numpy as _np
except Exception:                                    # pragma: no cover
    _np = None

#: magnitude past which float64 integer-grid arithmetic may round --
#: affine terms beyond it drop to the residue path
_EXACT_LIMIT = float(1 << 50)


# =====================================================================
# ParamGrid
# =====================================================================
class ParamGrid:
    """Named, ordered design-space axes.

    ``ParamGrid(factor=(2, 4, 8), device=("a10", "s10"))`` spans a
    3 x 2 candidate space; axis order is declaration order and fixes
    the tensor layout of every metric evaluated over the grid.
    """

    def __init__(self, **axes):
        if not axes:
            raise ValueError("a ParamGrid needs at least one axis")
        self.axes: Dict[str, tuple] = {}
        for name, values in axes.items():
            values = tuple(values)
            if not values:
                raise ValueError(f"axis {name!r} is empty")
            self.axes[name] = values

    # -- geometry ------------------------------------------------------
    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(self.axes)

    @property
    def shape(self) -> Tuple[int, ...]:
        return tuple(len(v) for v in self.axes.values())

    @property
    def size(self) -> int:
        n = 1
        for extent in self.shape:
            n *= extent
        return n

    def values(self, name: str) -> tuple:
        return self.axes[name]

    def axis_index(self, name: str) -> int:
        return self.names.index(name)

    def mesh(self, name: str):
        """The axis values broadcast against the full grid shape.

        Numeric axes come back as a float64/int64 ndarray with singleton
        dimensions everywhere but the axis's own position -- the shape
        numpy broadcasting composes into full grid tensors.
        """
        if _np is None:
            raise RuntimeError("numpy unavailable: no batched lowering")
        k = self.axis_index(name)
        arr = _np.asarray(self.axes[name])
        shape = [1] * len(self.axes)
        shape[k] = len(self.axes[name])
        return arr.reshape(shape)

    # -- iteration -----------------------------------------------------
    def points(self) -> Iterator[Tuple[Tuple[int, ...], Dict[str, Any]]]:
        """Yield ``(index_tuple, {axis: value})`` in C order."""
        def rec(prefix: Tuple[int, ...], remaining: List[str]):
            if not remaining:
                yield prefix, {name: self.axes[name][prefix[i]]
                               for i, name in enumerate(self.names)}
                return
            head, tail = remaining[0], remaining[1:]
            for i in range(len(self.axes[head])):
                yield from rec(prefix + (i,), tail)
        yield from rec((), list(self.names))

    def point(self, index: Tuple[int, ...]) -> Dict[str, Any]:
        return {name: self.axes[name][index[i]]
                for i, name in enumerate(self.names)}

    # -- identity ------------------------------------------------------
    def space_hash(self, extra: str = "") -> str:
        """Deterministic digest of the whole candidate space.

        Extends the (source, workload) profile-cache identity of PR 2
        with the *space*: one hash keys shared lowering work for every
        point of the sweep at once.
        """
        spec = {name: [repr(v) for v in values]
                for name, values in self.axes.items()}
        blob = json.dumps({"axes": spec, "extra": extra}, sort_keys=True)
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def __repr__(self):
        dims = ", ".join(f"{n}[{len(v)}]" for n, v in self.axes.items())
        return f"<ParamGrid {dims}>"


# =====================================================================
# SweepResult
# =====================================================================
class SweepResult:
    """Tensors over a :class:`ParamGrid`, one per metric.

    The batched replacement for a list of per-candidate reports: DSE
    tasks read whole-axis tensors and reduce them under masks instead
    of breaking out of a scalar loop.
    """

    def __init__(self, grid: ParamGrid,
                 tensors: Optional[Dict[str, Any]] = None):
        self.grid = grid
        self.tensors: Dict[str, Any] = {}
        for name, tensor in (tensors or {}).items():
            self.set(name, tensor)

    def set(self, name: str, tensor) -> None:
        arr = _np.broadcast_to(_np.asarray(tensor), self.grid.shape)
        self.tensors[name] = arr

    def tensor(self, name: str):
        return self.tensors[name]

    def __contains__(self, name: str) -> bool:
        return name in self.tensors

    # -- per-point extraction -----------------------------------------
    def point(self, index: Tuple[int, ...]) -> Dict[str, Any]:
        """Every metric (and axis value) at one grid index."""
        out = dict(self.grid.point(index))
        for name, tensor in self.tensors.items():
            value = tensor[index]
            out[name] = value.item() if hasattr(value, "item") else value
        return out

    # -- masked reductions --------------------------------------------
    def argmin(self, name: str, where=None) -> Optional[Tuple[int, ...]]:
        """Index of the first (C-order) minimum of ``name``.

        ``where`` masks candidates out; the first-occurrence rule makes
        the reduction bit-compatible with a scalar ``<``-keeps-first
        loop over the same points.  Returns None when the mask empties
        the grid or only non-finite values remain.
        """
        tensor = _np.asarray(self.tensors[name], dtype=_np.float64)
        if where is not None:
            mask = _np.broadcast_to(_np.asarray(where, dtype=bool),
                                    self.grid.shape)
            if not mask.any():
                return None
            tensor = _np.where(mask, tensor, _np.inf)
        if not _np.isfinite(tensor).any():
            return None
        flat = int(_np.argmin(tensor.reshape(-1)))
        return tuple(int(i) for i in
                     _np.unravel_index(flat, self.grid.shape))

    def argmax(self, name: str, where=None) -> Optional[Tuple[int, ...]]:
        tensor = _np.asarray(self.tensors[name], dtype=_np.float64)
        if where is not None:
            mask = _np.broadcast_to(_np.asarray(where, dtype=bool),
                                    self.grid.shape)
            if not mask.any():
                return None
            tensor = _np.where(mask, tensor, -_np.inf)
        if not _np.isfinite(tensor).any():
            return None
        flat = int(_np.argmax(tensor.reshape(-1)))
        return tuple(int(i) for i in
                     _np.unravel_index(flat, self.grid.shape))

    def first_true(self, mask) -> Optional[Tuple[int, ...]]:
        """First (C-order) index where ``mask`` holds -- the masked-
        reduction form of a scalar loop's early-exit ``break``."""
        mask = _np.broadcast_to(_np.asarray(mask, dtype=bool),
                                self.grid.shape)
        flat = mask.reshape(-1)
        hits = _np.flatnonzero(flat)
        if hits.size == 0:
            return None
        return tuple(int(i) for i in
                     _np.unravel_index(int(hits[0]), self.grid.shape))


# =====================================================================
# BatchPlan
# =====================================================================
class _Affine:
    __slots__ = ("const", "slopes")

    def __init__(self, const, slopes: Dict[str, Any]):
        self.const = const
        self.slopes = slopes


class BatchPlan:
    """Lowering of one sweep over a :class:`ParamGrid`.

    Metrics partition into:

    - ``affine(name, const, **slopes)`` -- the affine-vectorizable
      core, ``const + sum(slope_k * mesh(axis_k))`` as one broadcast
      tensor expression;
    - ``vector(name, fn)`` -- any metric expressible as elementwise
      numpy over the grid meshes (``fn(grid) -> tensor``);
    - ``residue(name, fn, where=mask)`` -- the non-affine residue:
      ``fn(**point_params) -> value`` evaluated point-by-point, but
      only where ``mask`` holds, through a per-point cache so repeated
      evaluations of the same candidate are free.

    ``evaluate()`` runs core first, then vectors, then overlays the
    residue, and returns a :class:`SweepResult`.
    """

    #: process-wide residue-closure cache: space/point key -> value
    _residue_cache: Dict[str, Any] = {}
    _residue_lock = threading.Lock()

    def __init__(self, grid: ParamGrid, space_key: str = ""):
        if _np is None:
            raise RuntimeError("numpy unavailable: no batched lowering")
        self.grid = grid
        self.space_key = space_key or grid.space_hash()
        self._affine: List[Tuple[str, _Affine]] = []
        self._vectors: List[Tuple[str, Callable]] = []
        self._residues: List[Tuple[str, Callable, Any]] = []
        self.residue_points = 0   # filled by evaluate()

    # -- registration --------------------------------------------------
    def affine(self, name: str, const, **slopes) -> None:
        """Core metric ``const + sum(slope_k * mesh(axis_k))``.

        Raises ValueError when a coefficient is too large to evaluate
        exactly in float64 -- callers catch that and reroute the metric
        through :meth:`residue`.
        """
        for label, value in [("const", const)] + list(slopes.items()):
            arr = _np.asarray(value, dtype=_np.float64)
            if not _np.isfinite(arr).all() or \
                    float(_np.abs(arr).max(initial=0.0)) > _EXACT_LIMIT:
                raise ValueError(
                    f"affine coefficient {label!r} of {name!r} exceeds "
                    "the exact-float64 range")
        for axis in slopes:
            if axis not in self.grid.axes:
                raise KeyError(f"unknown axis {axis!r}")
        self._affine.append((name, _Affine(const, slopes)))

    def vector(self, name: str, fn: Callable[["ParamGrid"], Any]) -> None:
        self._vectors.append((name, fn))

    def residue(self, name: str, fn: Callable[..., Any],
                where=None) -> None:
        self._residues.append((name, fn, where))

    # -- evaluation ----------------------------------------------------
    def _eval_affine(self, spec: _Affine):
        out = _np.zeros(self.grid.shape, dtype=_np.float64)
        out += _np.asarray(spec.const, dtype=_np.float64)
        for axis, slope in spec.slopes.items():
            mesh = _np.asarray(self.grid.mesh(axis), dtype=_np.float64)
            out += _np.asarray(slope, dtype=_np.float64) * mesh
        return out

    def _eval_residue(self, result: SweepResult, name: str,
                      fn: Callable, where) -> None:
        if where is None:
            mask = _np.ones(self.grid.shape, dtype=bool)
        else:
            mask = _np.broadcast_to(_np.asarray(where, dtype=bool),
                                    self.grid.shape)
        values: Dict[Tuple[int, ...], Any] = {}
        for index, params in self.grid.points():
            if not mask[index]:
                continue
            point_key = f"{self.space_key}:{name}:{index}"
            with self._residue_lock:
                hit = point_key in self._residue_cache
                value = self._residue_cache.get(point_key)
            if not hit:
                value = fn(**params)
                with self._residue_lock:
                    self._residue_cache[point_key] = value
            values[index] = value
            self.residue_points += 1
        # residues may yield non-numeric values (limiter names, status
        # strings): keep float64 when every value fits, else fall back
        # to an object-dtype tensor
        numeric = all(isinstance(v, (int, float, _np.number))
                      and not isinstance(v, bool)
                      for v in values.values())
        if numeric:
            if name in result.tensors:
                out = _np.array(result.tensors[name], dtype=_np.float64)
            else:
                out = _np.zeros(self.grid.shape, dtype=_np.float64)
        else:
            out = _np.empty(self.grid.shape, dtype=object)
            if name in result.tensors:
                out[...] = _np.asarray(result.tensors[name])
        for index, value in values.items():
            out[index] = value
        result.set(name, out)

    def evaluate(self) -> SweepResult:
        result = SweepResult(self.grid)
        for name, spec in self._affine:
            result.set(name, self._eval_affine(spec))
        for name, fn in self._vectors:
            result.set(name, fn(self.grid))
        self.residue_points = 0
        for name, fn, where in self._residues:
            self._eval_residue(result, name, fn, where)
        return result

    @classmethod
    def clear_residue_cache(cls) -> None:
        with cls._residue_lock:
            cls._residue_cache.clear()
