"""Quantum-number index spaces for SNAP (paper section 4.3.1).

The U/Y data structures have four degrees of freedom (atom, j, m, m'); the
(j, m, m') triplets flatten into one "quantum number" index with j slowest
and m' fastest, "so rows and columns of matrices stay together".  This
module owns that flattening, the bispectrum triple list (``0 <= j2 <= j1 <=
j <= J`` after the group-theoretic reductions), the precomputed sparse
contraction tensor through which ComputeBi evaluates the Clebsch-Gordan
triple products, and its folded form through which ComputeYi evaluates the
adjoint.

**Mirror identity and half set.**  Every slot ``m = (J, mb, ma)`` has a
mirror ``m' = (J, J - mb, J - ma)`` with ``U[m'] = s conj(U[m])``,
``s = (-1)^(mb + ma)`` (the U-matrix inversion symmetry, VMK 4.4).  The
*half set* — rows ``mb < J/2`` plus the middle row's ``ma <= J/2`` — holds
one slot of every mirror pair (145 of 285 slots at ``2J = 8``); within each
J block it is a prefix of the row-major flattening.

All angular momenta use the doubled (``2j``) integer convention.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kokkos.segment import sorted_segments
from repro.snap.cg import clebsch_gordan, triangle_ok


@dataclass
class ContractionTensor:
    """Sparse COO tensor for ``B_b = sum C * U[in1] * U[in2] * conj(U[out])``.

    One row per non-zero Clebsch-Gordan product pair, ordered by ``(ib,
    out)``: each contiguous ``(ib, out)`` run is one element of the Z list
    ``Z = sum C U[in1] U[in2]``, and each ``ib`` run of the Z list one
    bispectrum component ``B = sum Z conj(U[out])``.
    """

    ib: np.ndarray  # bispectrum-component index per term
    out: np.ndarray  # flat index into U_j (the conjugated slot)
    in1: np.ndarray  # flat index into U_j1
    in2: np.ndarray  # flat index into U_j2
    coeff: np.ndarray  # real coefficient (product of two CG values)
    z_starts: np.ndarray  # term offset of each (ib, out) run
    z_out: np.ndarray  # out slot of each Z-list element
    b_starts: np.ndarray  # Z-list offset of each ib run
    b_ib: np.ndarray  # bispectrum component of each ib run

    @property
    def nterms(self) -> int:
        return len(self.coeff)


@dataclass
class AdjointTensor:
    """Folded adjoint ``V[dest] = sum_k w_k U[f1_k] U[f2_k]`` over the half set.

    Each COO term ``beta C U[a] U[b] conj(U[o])`` becomes ``beta C s_o U[a]
    U[b] U[o']`` through the mirror identity and feeds three destinations;
    destinations outside the half set fold onto their mirror (weight times
    ``s_dest s_f1 s_f2``, both factors mirrored) and duplicate ``(dest, f1
    <= f2)`` entries merge.  Terms are sorted by destination, so ``V`` is one
    ``reduceat`` over the ``starts`` runs.  The weights are linear in beta:
    ``w = bincount(group, coeff * beta[ib])`` (see
    :meth:`SnapIndex.adjoint_weights`).
    """

    f1: np.ndarray  # flat U index of the first factor per folded term
    f2: np.ndarray  # flat U index of the second factor (f1 <= f2)
    starts: np.ndarray  # term offset of each destination run
    targets: np.ndarray  # half-set position of each destination run
    group: np.ndarray  # folded term fed by each (COO term, destination)
    ib: np.ndarray  # bispectrum component of each (COO term, destination)
    coeff: np.ndarray  # signed CG coefficient of each (COO term, destination)

    @property
    def nterms(self) -> int:
        return len(self.f1)


class SnapIndex:
    """All index machinery for one ``twojmax``."""

    _cache: dict[int, "SnapIndex"] = {}

    def __new__(cls, twojmax: int) -> "SnapIndex":
        if twojmax not in cls._cache:
            inst = super().__new__(cls)
            inst._build(twojmax)
            cls._cache[twojmax] = inst
        return cls._cache[twojmax]

    def _build(self, twojmax: int) -> None:
        if twojmax < 0:
            raise ValueError("twojmax must be >= 0")
        self.twojmax = twojmax
        # idxu_block[j2x] = offset of the (j+1)^2 block for doubled-j j2x
        self.idxu_block = np.zeros(twojmax + 2, dtype=np.int64)
        for j2x in range(twojmax + 1):
            self.idxu_block[j2x + 1] = self.idxu_block[j2x] + (j2x + 1) ** 2
        self.idxu_max = int(self.idxu_block[twojmax + 1])

        #: bispectrum triples (j1x2, j2x2, jx2) with j2 <= j1 <= j
        self.idxb: list[tuple[int, int, int]] = []
        for j1 in range(twojmax + 1):
            for j2 in range(j1 + 1):
                for j in range(j1 - j2, min(twojmax, j1 + j2) + 1, 2):
                    if j >= j1:
                        self.idxb.append((j1, j2, j))
        self.nbispectrum = len(self.idxb)

        # mirror map, sign and half set (module docstring)
        self.mirror = np.zeros(self.idxu_max, dtype=np.int64)
        self.mirror_sign = np.zeros(self.idxu_max)
        half: list[int] = []
        for j2x in range(twojmax + 1):
            for mb in range(j2x + 1):
                for ma in range(j2x + 1):
                    m = self.flat(j2x, mb, ma)
                    self.mirror[m] = self.flat(j2x, j2x - mb, j2x - ma)
                    self.mirror_sign[m] = (-1.0) ** (mb + ma)
                    if 2 * mb < j2x or (2 * mb == j2x and 2 * ma <= j2x):
                        half.append(m)
        #: flat indices of the half set, ascending (a prefix of each J block)
        self.half = np.asarray(half, dtype=np.int64)
        self.nhalf = len(half)
        #: half_block[j2x] = offset of the j2x block's slots in the half set
        self.half_block = np.searchsorted(self.half, self.idxu_block)
        #: half-set position of every slot's representative (itself or mirror)
        self.half_pos = np.full(self.idxu_max, -1, dtype=np.int64)
        self.half_pos[self.half] = np.arange(self.nhalf)
        upper = self.half_pos < 0
        self.half_pos[upper] = self.half_pos[self.mirror[upper]]
        self._upper = np.flatnonzero(upper)
        self._centers = self.half[self.mirror[self.half] == self.half]
        self._tensor: ContractionTensor | None = None
        self._adjoint: AdjointTensor | None = None

    # ------------------------------------------------------------- flatten
    def flat(self, j2x: int, mb: int, ma: int) -> int:
        """Flat quantum-number index (j slowest, ma = m' fastest)."""
        return int(self.idxu_block[j2x]) + mb * (j2x + 1) + ma

    def diag_indices(self) -> np.ndarray:
        """Flat indices of all (j, m, m) diagonal entries (wself slots)."""
        out = []
        for j2x in range(self.twojmax + 1):
            for m in range(j2x + 1):
                out.append(self.flat(j2x, m, m))
        return np.asarray(out, dtype=np.int64)

    def expand_half(self, uh: np.ndarray) -> np.ndarray:
        """Full ``(..., idxu_max)`` U from its half set ``(..., nhalf)``.

        Upper slots take ``s conj(U[mirror])``; the self-mirror centre slots
        (``U[m] = conj(U[m])``) keep their real part, so the result satisfies
        the mirror identity exactly.
        """
        full = np.empty(uh.shape[:-1] + (self.idxu_max,), dtype=np.complex128)
        full[..., self.half] = uh
        up = self._upper
        full[..., up] = self.mirror_sign[up] * np.conj(uh[..., self.half_pos[up]])
        full[..., self._centers] = full[..., self._centers].real
        return full

    # -------------------------------------------------------------- tensor
    @property
    def tensor(self) -> ContractionTensor:
        """The CG contraction tensor, built lazily (exact, cached)."""
        if self._tensor is None:
            self._tensor = self._build_tensor()
        return self._tensor

    def _build_tensor(self) -> ContractionTensor:
        ib_l: list[int] = []
        out_l: list[int] = []
        in1_l: list[int] = []
        in2_l: list[int] = []
        co_l: list[float] = []
        for ib, (j1, j2, j) in enumerate(self.idxb):
            assert triangle_ok(j1, j2, j)
            for mb in range(j + 1):
                mx2 = 2 * mb - j
                # row CG factors: m = m1 + m2
                row_terms = []
                for mb1 in range(j1 + 1):
                    m1x2 = 2 * mb1 - j1
                    m2x2 = mx2 - m1x2
                    if abs(m2x2) > j2:
                        continue
                    mb2 = (m2x2 + j2) // 2
                    c = clebsch_gordan(j1, m1x2, j2, m2x2, j, mx2)
                    if c != 0.0:
                        row_terms.append((mb1, mb2, c))
                if not row_terms:
                    continue
                for ma in range(j + 1):
                    max2 = 2 * ma - j
                    col_terms = []
                    for ma1 in range(j1 + 1):
                        m1px2 = 2 * ma1 - j1
                        m2px2 = max2 - m1px2
                        if abs(m2px2) > j2:
                            continue
                        ma2 = (m2px2 + j2) // 2
                        c = clebsch_gordan(j1, m1px2, j2, m2px2, j, max2)
                        if c != 0.0:
                            col_terms.append((ma1, ma2, c))
                    if not col_terms:
                        continue
                    out_idx = self.flat(j, mb, ma)
                    for mb1, mb2, cr in row_terms:
                        for ma1, ma2, cc in col_terms:
                            ib_l.append(ib)
                            out_l.append(out_idx)
                            in1_l.append(self.flat(j1, mb1, ma1))
                            in2_l.append(self.flat(j2, mb2, ma2))
                            co_l.append(cr * cc)
        ib = np.asarray(ib_l, dtype=np.int64)
        out = np.asarray(out_l, dtype=np.int64)
        z_starts, _ = sorted_segments(ib * self.idxu_max + out)
        b_starts, b_ib = sorted_segments(ib[z_starts])
        return ContractionTensor(
            ib=ib,
            out=out,
            in1=np.asarray(in1_l, dtype=np.int64),
            in2=np.asarray(in2_l, dtype=np.int64),
            coeff=np.asarray(co_l),
            z_starts=z_starts,
            z_out=out[z_starts],
            b_starts=b_starts,
            b_ib=b_ib,
        )

    # ------------------------------------------------------------- adjoint
    @property
    def adjoint(self) -> AdjointTensor:
        """The folded adjoint tensor, built lazily from :attr:`tensor`."""
        if self._adjoint is None:
            self._adjoint = self._build_adjoint()
        return self._adjoint

    def adjoint_weights(self, beta: np.ndarray) -> np.ndarray:
        """Per-term weights of the folded adjoint for coefficients ``beta``."""
        beta = np.asarray(beta, dtype=float)
        if beta.shape != (self.nbispectrum,):
            raise ValueError(f"beta has {beta.shape}, expected ({self.nbispectrum},)")
        a = self.adjoint
        return np.bincount(a.group, weights=a.coeff * beta[a.ib], minlength=a.nterms)

    def _build_adjoint(self) -> AdjointTensor:
        t = self.tensor
        sign, mirror = self.mirror_sign, self.mirror
        # conj(U[o]) = s_o U[o']: every term is a product of three bare U's
        # and feeds the destinations in1, in2 and o'
        obar = mirror[t.out]
        w = t.coeff * sign[t.out]
        dest = np.concatenate([t.in1, t.in2, obar])
        f1 = np.concatenate([t.in2, t.in1, t.in1])
        f2 = np.concatenate([obar, obar, t.in2])
        coeff = np.tile(w, 3)
        fold = np.isin(dest, self._upper)
        coeff[fold] *= sign[dest[fold]] * sign[f1[fold]] * sign[f2[fold]]
        f1[fold] = mirror[f1[fold]]
        f2[fold] = mirror[f2[fold]]
        lo, hi = np.minimum(f1, f2), np.maximum(f1, f2)
        n = self.idxu_max
        key = (self.half_pos[dest] * n + lo) * n + hi
        uniq, group = np.unique(key, return_inverse=True)
        pos = uniq // (n * n)
        starts, targets = sorted_segments(pos)
        return AdjointTensor(
            f1=(uniq // n) % n,
            f2=uniq % n,
            starts=starts,
            targets=targets,
            group=group.ravel(),
            ib=np.tile(t.ib, 3),
            coeff=coeff,
        )
