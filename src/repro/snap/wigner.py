"""Wigner U-matrix recursion on the 3-sphere, vectorized over pairs.

Equation 2 of the paper: relative positions map onto the unit 3-sphere
through Cayley-Klein parameters, and the half-integer family of Wigner
matrices ``u_j`` follows from the linear recursion ``u_j = F(u_{j-1/2})``.
The loop over quantum numbers has a serial dependency (section 4.3.3), so
the recursion runs layer by layer; every layer operation is vectorized over
the (atom, neighbor) pair axis, which is where the parallelism lives on
GPUs too.  The pair axis is last, so each update streams contiguous memory.

Only rows ``mb <= J/2`` are recursed (plus, for odd J, the one mirror row
the next layer reads); the result is the half set of
:class:`~repro.snap.indexing.SnapIndex`, from which the mirror identity
``U[m'] = s conj(U[m])`` recovers the upper rows wherever they are needed.

The derivative recursion (``compute_duarray`` in LAMMPS) applies the product
rule through the same structure and is fused here with the value recursion
when requested, mirroring the hybrid evaluation of section 4.3.3.
"""

from __future__ import annotations

import numpy as np

from repro.snap.indexing import SnapIndex

#: angle scale factor (LAMMPS default rfac0)
RFAC0 = 0.99363


def switching(r: np.ndarray, rcut: float, rmin0: float) -> tuple[np.ndarray, np.ndarray]:
    """Cosine switching function ``(sfac, dsfac/dr)`` (LAMMPS switchflag=1)."""
    denom = rcut - rmin0
    s = np.pi * (r - rmin0) / denom
    sfac = 0.5 * (np.cos(s) + 1.0)
    dsfac = -0.5 * np.pi / denom * np.sin(s)
    inside = r < rcut
    return np.where(inside, sfac, 0.0), np.where(inside, dsfac, 0.0)


def _cayley_klein(
    rij: np.ndarray, rcut: float, rmin0: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Cayley-Klein parameters and their Cartesian gradients.

    Returns ``(r, ca, cb, dca, dcb)`` where ``ca = conj(a)``, ``cb =
    conj(b)`` enter the recursion directly, and ``dca``/``dcb`` have shape
    (npairs, 3).
    """
    x, y, z = rij[:, 0], rij[:, 1], rij[:, 2]
    r = np.sqrt(np.einsum("ij,ij->i", rij, rij))
    theta0 = RFAC0 * np.pi * (r - rmin0) / (rcut - rmin0)
    dtheta_dr = RFAC0 * np.pi / (rcut - rmin0)
    cot = np.cos(theta0) / np.sin(theta0)
    z0 = r * cot
    # dz0/dr = cot - r * (1 + cot^2) * dtheta/dr
    dz0_dr = cot - r * (1.0 + cot * cot) * dtheta_dr

    rhat = rij / r[:, None]
    dz0 = dz0_dr[:, None] * rhat  # (n, 3)

    r0sq = r * r + z0 * z0
    r0inv = 1.0 / np.sqrt(r0sq)
    # dr0inv = -r0inv^3 (r dr + z0 dz0)
    dr0inv = -(r0inv**3)[:, None] * (rij + z0[:, None] * dz0)

    a = r0inv * (z0 - 1j * z)
    b = r0inv * (y - 1j * x)
    da = dr0inv * (z0 - 1j * z)[:, None] + r0inv[:, None] * dz0.astype(complex)
    da[:, 2] += r0inv * (-1j)
    db = dr0inv * (y - 1j * x)[:, None]
    db[:, 1] += r0inv
    db[:, 0] += r0inv * (-1j)
    return r, np.conj(a), np.conj(b), np.conj(da), np.conj(db)


def compute_u_blocks(
    rij: np.ndarray,
    rcut: float,
    *,
    rmin0: float = 0.0,
    twojmax: int = 8,
    derivatives: bool = False,
) -> tuple[np.ndarray, np.ndarray | None]:
    """Per-pair Wigner coefficients over the half set, pairs last.

    Returns ``(u, du)``: ``u`` is (nhalf, npairs) complex; ``du`` is
    (3, nhalf, npairs) when ``derivatives`` else None.  Values are the
    *bare* matrices — the caller applies the switching-function weight;
    :meth:`SnapIndex.expand_half` recovers the full blocks.
    """
    idx = SnapIndex(twojmax)
    n = rij.shape[0]
    u = np.empty((idx.nhalf, n), dtype=np.complex128)
    du = np.empty((3, idx.nhalf, n), dtype=np.complex128) if derivatives else None
    if n == 0:
        return u, du

    r, ca, cb, dca, dcb = _cayley_klein(rij, rcut, rmin0)
    dca = dca.T[:, None, None, :]  # (3, 1, 1, n)
    dcb = dcb.T[:, None, None, :]

    prev = np.ones((1, 1, n), dtype=np.complex128)
    u[0] = 1.0
    if derivatives:
        dprev = np.zeros((3, 1, 1, n), dtype=np.complex128)
        du[:, 0] = 0.0
    for J in range(1, twojmax + 1):
        # rows mb <= J/2 come from layer J-1; for odd J the next layer also
        # reads row (J+1)/2, the mirror of row (J-1)/2
        nrows = J // 2 + 1
        extra = int(J % 2 == 1 and J < twojmax)
        mb = np.arange(nrows)[:, None, None]
        ma = np.arange(J)[None, :, None]
        rpq_a = np.sqrt((J - ma) / (J - mb))
        rpq_b = -np.sqrt((ma + 1) / (J - mb))
        p = prev[:nrows]
        pa = rpq_a * p
        pb = rpq_b * p
        # u[mb, ma] = conj(a) pa[mb, ma] + conj(b) pb[mb, ma - 1]
        cur = np.empty((nrows + extra, J + 1, n), dtype=np.complex128)
        np.multiply(ca, pa, out=cur[:nrows, :J])
        cur[:nrows, J] = 0.0
        cur[:nrows, 1:] += cb * pb
        if derivatives:
            # product rule, accumulated in place: dc * pc + c * rpq * dp
            dp = dprev[:, :nrows]
            dcur = np.empty((3,) + cur.shape, dtype=np.complex128)
            tmp = np.empty((3, nrows, J, n), dtype=np.complex128)
            d_lo, d_hi = dcur[:, :nrows, :J], dcur[:, :nrows, 1:]
            np.multiply(dca, pa, out=d_lo)
            dcur[:, :nrows, J] = 0.0
            d_hi += np.multiply(dcb, pb, out=tmp)
            np.multiply(rpq_a, dp, out=tmp)
            tmp *= ca
            d_lo += tmp
            np.multiply(rpq_b, dp, out=tmp)
            tmp *= cb
            d_hi += tmp
        if extra:
            sign = ((-1.0) ** (J + J // 2 + np.arange(J + 1)))[:, None]
            cur[nrows] = sign * np.conj(cur[nrows - 1, ::-1])
            if derivatives:
                dcur[:, nrows] = sign * np.conj(dcur[:, nrows - 1, ::-1])
        # the layer's half set is a prefix of its row-major block
        lo, hi = idx.half_block[J], idx.half_block[J + 1]
        u[lo:hi] = cur.reshape(-1, n)[: hi - lo]
        if derivatives:
            du[:, lo:hi] = dcur.reshape(3, -1, n)[:, : hi - lo]
            dprev = dcur
        prev = cur
    return u, du
