"""Tapered van der Waals + shielded Coulomb (ReaxFF's nonbonded terms).

All neighbor pairs within the 10 A cutoff interact through:

* a Morse-form vdW term ``D [exp(a(1 - r/rv)) - 2 exp(a/2 (1 - r/rv))]``
* a shielded Coulomb term ``C q_i q_j (r^3 + 1/gamma_ij^3)^(-1/3)``

both multiplied by ReaxFF's 7th-order taper ``T(r)`` that takes the
interaction smoothly to zero at the outer cutoff.  The same shielded-tapered
kernel builds the QEq matrix (one pair pass per step, :func:`shielded_pairs`,
feeds both), so the equilibrated charges minimize exactly the Coulomb
energy computed here (which is what makes forces at fixed charges exact
derivatives — the envelope theorem the tests rely on).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.kokkos.segment import scatter_add
from repro.reaxff.params import ReaxParams


def taper(r: np.ndarray, rc: float) -> tuple[np.ndarray, np.ndarray]:
    """ReaxFF 7th-order taper ``(T, dT/dr)``: T(0)=1, T(rc)=0, smooth ends."""
    s = r / rc
    s3 = s * s * s
    t = 1.0 + s3 * s * (-35.0 + s * (84.0 + s * (-70.0 + 20.0 * s)))
    dt = (-140.0 * s3 * (1.0 - s) ** 3) / rc
    return t, dt


def shielded_kernel(
    r: np.ndarray, gamma_ij: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(g, dg/dr)`` with ``g = (r^3 + 1/gamma^3)^(-1/3)``."""
    shield = 1.0 / gamma_ij**3
    base = r**3 + shield
    g = base ** (-1.0 / 3.0)
    dg = -(base ** (-4.0 / 3.0)) * r * r
    return g, dg


def tapered_shield(
    r: np.ndarray, gamma_ij: np.ndarray, t: np.ndarray, dt: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(g, d(g*t)/dr)``: the shielded kernel and its tapered derivative
    ``dg*t + g*dt`` (the Coulomb factor of the nonbonded force)."""
    g, dg = shielded_kernel(r, gamma_ij)
    return g, dg * t + g * dt


def vdw_morse(
    r: np.ndarray, d: np.ndarray, alpha: float, rv: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(E, dE/dr)`` for the Morse vdW form (no taper)."""
    ex = np.exp(alpha * (1.0 - r / rv))
    exh = np.exp(0.5 * alpha * (1.0 - r / rv))
    e = d * (ex - 2.0 * exh)
    de = d * (-alpha / rv) * (ex - exh)
    return e, de


@dataclass
class ShieldedPairs:
    """One step's in-cutoff pairs of the 10 A full list, kept for the forces.

    Row-major ``(i, j)`` (int64), distances ``r``, the shielded kernel
    ``g`` and the derivative of its tapered form ``dgt = dg*t + g*dt``:
    the costly part of the pass (gathers, cutoff compaction, ``sqrt``,
    ``gamma_ij`` and the shielding powers).  The taper and the separations
    are cheap to re-derive from ``r`` and ``(i, j)``, so they are not held
    across the charge solve — every float per pair held there costs ~2 MB
    of peak RSS on the 4-rank HNS benchmark.
    """

    i: np.ndarray
    j: np.ndarray
    r: np.ndarray
    g: np.ndarray
    dgt: np.ndarray


def pair_separations(x: np.ndarray, i: np.ndarray, j: np.ndarray) -> np.ndarray:
    """``x[i] - x[j]`` through ``np.take(axis=0)`` row copies (same values,
    ~3x faster than the 2-D fancy index's per-element iterator)."""
    return np.take(x, i, axis=0) - np.take(x, j, axis=0)


def shielded_pairs(
    x: np.ndarray, types: np.ndarray, nlist, params: ReaxParams, qqr2e: float
) -> tuple[ShieldedPairs, np.ndarray]:
    """The step's one pass over the full list: cutoff filter, taper, shield.

    Returns the in-cutoff pairs for :func:`compute_nonbonded` and their
    QEq matrix values ``qqr2e * g * t``.  The cutoff compaction takes
    explicit indices: the values a boolean mask would select, faster.
    """
    i, j = nlist.ij_pairs()
    dx = pair_separations(x, i, j)
    rsq = np.einsum("ij,ij->i", dx, dx)
    kept = np.flatnonzero(rsq < params.rcut_nonb**2)
    i, j = np.take(i, kept), np.take(j, kept)
    r = np.sqrt(np.take(rsq, kept))
    t, dt = taper(r, params.rcut_nonb)
    g, dgt = tapered_shield(r, params.gamma_ij(types[i], types[j]), t, dt)
    return ShieldedPairs(i=i, j=j, r=r, g=g, dgt=dgt), qqr2e * g * t


def compute_nonbonded(
    pairs: ShieldedPairs,
    x: np.ndarray,
    types: np.ndarray,
    q: np.ndarray,
    params: ReaxParams,
    qqr2e: float,
    f: np.ndarray,
    virial: np.ndarray,
) -> tuple[float, float, int]:
    """vdW + Coulomb over the step's in-cutoff pairs (full-list rows).

    Returns ``(evdw, ecoul_pairs, pairs_in_cutoff)``; forces are added to
    owned atoms only (full-list convention: each pair visited from both
    ends, energies at half weight).
    """
    i, j, r, g = pairs.i, pairs.j, pairs.r, pairs.g
    dx = pair_separations(x, i, j)
    t, dt = taper(r, params.rcut_nonb)
    ti, tj = types[i], types[j]

    ev, dev = vdw_morse(r, params.vdw_d_ij(ti, tj), params.vdw_alpha, params.vdw_r_ij(ti, tj))
    qq = qqr2e * q[i] * q[j]

    e_vdw_pair = ev * t
    e_cou_pair = qq * g * t
    de_total = (dev * t + ev * dt) + qq * pairs.dgt

    # full-list convention: half the pair energy per visit; force on i only.
    evdw = 0.5 * float(e_vdw_pair.sum())
    ecoul = 0.5 * float(e_cou_pair.sum())
    fpair = -de_total / r
    fvec = fpair[:, None] * dx
    scatter_add(f, i, fvec, assume_sorted=True)
    # per-visit half virial (sums to the full pair virial over both visits)
    virial[0] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 0]))
    virial[1] += 0.5 * float(np.dot(dx[:, 1], fvec[:, 1]))
    virial[2] += 0.5 * float(np.dot(dx[:, 2], fvec[:, 2]))
    virial[3] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 1]))
    virial[4] += 0.5 * float(np.dot(dx[:, 0], fvec[:, 2]))
    virial[5] += 0.5 * float(np.dot(dx[:, 1], fvec[:, 2]))
    return evdw, ecoul, len(r)
