"""Bispectrum components: the Clebsch-Gordan triple products (equation 3).

``B_{j1,j2,j} = Z_{j1,j2}^j : U_j^*`` evaluated through the precomputed
sparse contraction tensor: per atom, one ``reduceat`` over the tensor's
contiguous ``(ib, out)`` runs builds the Z list ``Z = sum C U[in1] U[in2]``
and a second over its ``ib`` runs contracts ``Z conj(U[out])`` into B.
The result is real (group theory guarantees it; every call checks that the
imaginary residue is numerically zero) and invariant under rotations of the
neighborhood — the property that makes SNAP a valid descriptor.
"""

from __future__ import annotations

import numpy as np

from repro.snap.indexing import SnapIndex


def compute_bispectrum(U: np.ndarray, twojmax: int) -> np.ndarray:
    """(natoms, nbispectrum) real bispectrum from per-atom U totals."""
    idx = SnapIndex(twojmax)
    t = idx.tensor
    natoms = U.shape[0]
    B = np.zeros((natoms, idx.nbispectrum), dtype=np.complex128)
    for a in range(natoms):
        u = U[a]
        prod = u[t.in1] * u[t.in2]
        prod *= t.coeff
        z = np.add.reduceat(prod, t.z_starts)
        z *= np.conj(u[t.z_out])
        B[a, t.b_ib] = np.add.reduceat(z, t.b_starts)
    imag = float(np.abs(B.imag).max()) if B.size else 0.0
    if imag > 1e-8 * max(float(np.abs(B.real).max()), 1.0):
        raise FloatingPointError(
            f"bispectrum imaginary residue {imag:.3e}: U totals are not a "
            "valid SU(2) expansion (indexing bug)"
        )
    return B.real
