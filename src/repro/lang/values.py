"""Runtime values for the UHL interpreter.

Scalars are plain Python ``int``/``float``/``bool`` (fast under a
tree-walking evaluator).  Buffers are :class:`ArrayValue` objects with a
stable identity used by the pointer-alias and data-movement analyses;
pointers are :class:`PointerValue` (base array + element offset), so
pointer arithmetic and aliasing behave like C.
"""

from __future__ import annotations

import itertools
from typing import List, Optional, Sequence, Union

from repro.meta.ast_nodes import CType

_array_ids = itertools.count(1)

Scalar = Union[int, float, bool]


class ArrayValue:
    """A contiguous typed buffer.

    Stores elements in a Python list for fast interpreter access; the
    declared element :class:`CType` drives byte accounting and the
    integer/float coercion applied on store.
    """

    __slots__ = ("data", "elem_type", "name", "array_id", "is_local",
                 "elem_size", "is_float", "dram")

    def __init__(self, size: int, elem_type: CType, name: str = "",
                 fill: Scalar = 0, is_local: bool = False):
        if size < 0:
            raise ValueError(f"negative array size {size}")
        self.elem_type = elem_type
        # cached: sizeof() is consulted on every element access for
        # byte accounting, millions of times per run
        self.elem_size = elem_type.sizeof()
        self.name = name
        self.array_id = next(_array_ids)
        # local (stack) arrays live in registers/L1 on every target and
        # never reach DRAM; the profiler excludes them from byte counts
        self.is_local = is_local
        self.is_float = elem_type.is_floating
        # bytes one element access moves to or from DRAM
        self.dram = 0 if is_local else self.elem_size
        if elem_type.is_floating:
            self.data: List[Scalar] = [float(fill)] * size
        else:
            self.data = [int(fill)] * size

    @classmethod
    def from_values(cls, values: Sequence[Scalar], elem_type: CType,
                    name: str = "") -> "ArrayValue":
        arr = cls(0, elem_type, name)
        if elem_type.is_floating:
            arr.data = [float(v) for v in values]
        else:
            arr.data = [int(v) for v in values]
        return arr

    def __len__(self) -> int:
        return len(self.data)

    @property
    def nbytes(self) -> int:
        return len(self.data) * self.elem_size

    def coerce(self, value: Scalar) -> Scalar:
        """Apply C assignment conversion for this element type."""
        if self.is_float:
            return float(value)
        return int(value)

    def to_list(self) -> List[Scalar]:
        return list(self.data)

    def __repr__(self):
        return (f"<ArrayValue {self.name or '?'} #{self.array_id} "
                f"{self.elem_type}[{len(self.data)}]>")


class PointerValue:
    """A C pointer: base buffer plus element offset.

    Pointer arithmetic produces new PointerValues over the same base, so
    overlap checks in the alias analysis are exact.
    """

    __slots__ = ("array", "offset")

    def __init__(self, array: ArrayValue, offset: int = 0):
        self.array = array
        self.offset = offset

    def add(self, delta: int) -> "PointerValue":
        return PointerValue(self.array, self.offset + int(delta))

    def load(self, index: int = 0) -> Scalar:
        return self.array.data[self.offset + index]

    def store(self, index: int, value: Scalar) -> Scalar:
        coerced = self.array.coerce(value)
        self.array.data[self.offset + index] = coerced
        return coerced

    def extent(self) -> int:
        """Elements reachable from this pointer to the end of the buffer."""
        return len(self.array.data) - self.offset

    def overlaps(self, other: "PointerValue") -> bool:
        """True when the two pointers can reach a common element."""
        if self.array is not other.array:
            return False
        lo1, hi1 = self.offset, len(self.array.data)
        lo2, hi2 = other.offset, len(other.array.data)
        return max(lo1, lo2) < min(hi1, hi2)

    def __repr__(self):
        return f"<Pointer {self.array.name or '?'}+{self.offset}>"


Value = Union[Scalar, PointerValue, ArrayValue, None]


def is_float_value(value: Value) -> bool:
    return isinstance(value, float)


def truthy(value: Value) -> bool:
    if isinstance(value, (int, float, bool)):
        return bool(value)
    if isinstance(value, PointerValue):
        return True
    if value is None:
        return False
    raise TypeError(f"value {value!r} has no truth value")
