"""Multi-dimensional Views.

:class:`View` is the Kokkos primary data structure (paper section 3.2): a
labeled multi-dimensional array tagged with a memory space and a layout.
Here it wraps a NumPy array whose ``order`` matches the layout, so layout
decisions made by the portability layer are *real* — transposed traversals
genuinely change stride patterns, which the tests assert.

Views support the interoperability trick LAMMPS uses to alias its classic
raw-pointer fields onto the host side of Kokkos data (figure 1): the
underlying ndarray is exposed as ``.data`` and may be handed to non-Kokkos
code, which then sees every Kokkos-side host update for free.
"""

from __future__ import annotations

import weakref
from typing import Any

import numpy as np

from repro.kokkos.core import ExecutionSpace, Host
from repro.kokkos.layout import Layout, default_layout
from repro.tools import registry as kp


def _track_allocation(view: "View") -> None:
    """Fire ``allocate_data`` and arrange the matching ``deallocate_data``.

    Only called while tools are attached, so untracked runs never pay for
    the weakref machinery.  The shared box keeps the deallocation size
    honest across ``resize``.
    """
    box = view._mem_box = [view.space.name, view.label or "unnamed", view.nbytes]
    kp.allocate_data(*box)
    weakref.finalize(view, _release_allocation, box)


def _release_allocation(box: list) -> None:
    if kp.TOOLS:
        kp.deallocate_data(*box)


class View:
    """A labeled, space-tagged, layout-tagged ndarray wrapper.

    Supports the subset of the Kokkos View API the MD engine needs:
    indexing (delegated to NumPy), ``shape``/``dtype``/``label``, layout
    inspection, ``resize`` (preserving leading contents, like
    ``Kokkos::resize``), and ``fill``.
    """

    __slots__ = ("_data", "label", "space", "layout", "_mem_box", "__weakref__")

    def __init__(
        self,
        shape: int | tuple[int, ...],
        dtype: Any = np.float64,
        *,
        space: ExecutionSpace = Host,
        layout: Layout | None = None,
        label: str = "",
        data: np.ndarray | None = None,
    ) -> None:
        if isinstance(shape, (int, np.integer)):
            shape = (int(shape),)
        self.space = space
        self.layout = layout or default_layout(space)
        self.label = label
        if data is not None:
            if tuple(data.shape) != tuple(shape):
                raise ValueError(
                    f"view {label!r}: data shape {data.shape} != requested {shape}"
                )
            self._data = np.asarray(data, dtype=dtype, order=self.layout.numpy_order)
        else:
            self._data = np.zeros(shape, dtype=dtype, order=self.layout.numpy_order)
        self._mem_box = None
        if kp.TOOLS:
            _track_allocation(self)

    # ------------------------------------------------------------- basics
    @property
    def data(self) -> np.ndarray:
        """The backing ndarray (aliasable by non-Kokkos code)."""
        return self._data

    @property
    def shape(self) -> tuple[int, ...]:
        return self._data.shape

    @property
    def dtype(self) -> np.dtype:
        return self._data.dtype

    @property
    def nbytes(self) -> int:
        return self._data.nbytes

    @property
    def rank(self) -> int:
        return self._data.ndim

    def extent(self, dim: int) -> int:
        """Kokkos-style per-dimension size."""
        return self._data.shape[dim]

    def __len__(self) -> int:
        return self._data.shape[0]

    def __getitem__(self, idx):
        return self._data[idx]

    def __setitem__(self, idx, value) -> None:
        self._data[idx] = value

    def __array__(self, dtype=None, copy=None):
        if dtype is not None:
            return self._data.astype(dtype)
        return self._data

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"View({self.label!r}, shape={self.shape}, dtype={self.dtype}, "
            f"space={self.space.name}, layout={self.layout})"
        )

    # ------------------------------------------------------------ mutation
    def fill(self, value) -> None:
        self._data[...] = value

    def resize(self, new_shape: int | tuple[int, ...]) -> None:
        """Grow/shrink, preserving the overlapping leading region.

        Mirrors ``Kokkos::resize``: contents within the intersection of old
        and new extents survive.  Used by the ReaxFF quad-table kernels,
        which count, resize, then fill (section 4.2.1).
        """
        if isinstance(new_shape, (int, np.integer)):
            new_shape = (int(new_shape),)
        new = np.zeros(new_shape, dtype=self._data.dtype, order=self.layout.numpy_order)
        overlap = tuple(
            slice(0, min(o, n)) for o, n in zip(self._data.shape, new_shape)
        )
        if all(s.stop > 0 for s in overlap) and len(overlap) == len(new_shape):
            new[overlap] = self._data[overlap]
        self._data = new
        if kp.TOOLS:
            if self._mem_box is not None:
                kp.deallocate_data(*self._mem_box)
                self._mem_box[2] = self.nbytes
                kp.allocate_data(*self._mem_box)
            else:
                # first seen by the tools at resize time: start tracking now
                _track_allocation(self)
        elif self._mem_box is not None:
            # tools detached between allocation and resize: keep the box in
            # step so the eventual finalize frees the right size
            self._mem_box[2] = self.nbytes

    def copy(self) -> "View":
        """Deep copy into a new View of the same space/layout."""
        out = View(
            self.shape,
            self.dtype,
            space=self.space,
            layout=self.layout,
            label=self.label,
        )
        out._data[...] = self._data
        return out


def deep_copy(dst: View, src: View | np.ndarray) -> None:
    """Copy contents between Views (layout conversion handled by NumPy)."""
    src_arr = src.data if isinstance(src, View) else np.asarray(src)
    if dst.shape != tuple(src_arr.shape):
        raise ValueError(f"deep_copy shape mismatch: {dst.shape} vs {src_arr.shape}")
    dst.data[...] = src_arr
    if kp.TOOLS:
        # same-process copy: no transfer cost, but tools still see the event
        src_space = src.space.name if isinstance(src, View) else "Host"
        src_label = src.label if isinstance(src, View) else "ndarray"
        kp.deep_copy(dst.space.name, dst.label, src_space, src_label, dst.nbytes, 0.0)


def create_mirror_view(space: ExecutionSpace, src: View) -> View:
    """A compatible View in another space (same extents, space's layout)."""
    return View(src.shape, src.dtype, space=space, label=src.label + "_mirror")
