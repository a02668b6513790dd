"""SNAP: the Spectral Neighbor Analysis Potential (paper section 4.3).

A from-scratch implementation of the machine-learning potential of
Thompson et al. (2015): atomic neighborhoods are expanded on the 3-sphere in
Wigner U-matrices computed by the half-integer recursion of equation 2,
bispectrum components are the Clebsch-Gordan triple products of equation 3,
and the energy is their learned linear combination (equation 4).  Forces
contract the adjoint of the energy against the recursion derivatives
(equation 5).

The module layout mirrors the paper's four-kernel decomposition:

* :mod:`repro.snap.cg` — exact Clebsch-Gordan coefficients on the
  half-integer (doubled-index) lattice;
* :mod:`repro.snap.indexing` — quantum-number flattening (j slowest, m'
  fastest; section 4.3.1), the mirror map ``U[m'] = s conj(U[m])`` and its
  half set, the precomputed sparse contraction tensor and its folded
  adjoint form;
* :mod:`repro.snap.wigner` — the Cayley-Klein/Wigner recursion for u and
  du/dr over the half set, vectorized over (atom, neighbor) pairs;
* :mod:`repro.snap.compute_ui` — ComputeUi: accumulate per-pair u into
  per-atom U, upper rows by the mirror identity (with the work-batching
  knob of section 4.3.4);
* :mod:`repro.snap.bispectrum` — B components through the Z list (energy /
  training targets);
* :mod:`repro.snap.compute_yi` — ComputeYi: the one folded adjoint V over
  the half set;
* :mod:`repro.snap.compute_deidrj` — ComputeFusedDeidrj: per-pair force
  contraction of V against u and du/dr, fused over the three directions;
* :mod:`repro.snap.pair_snap` — ``pair_style snap`` / ``snap/kk``.

Coefficients are synthetic (seeded pseudo-random; DESIGN.md substitution
table) but the potential is a real differentiable functional — rotation
invariance of B and finite-difference force consistency are property-tested.
"""

from repro.snap.indexing import SnapIndex

__all__ = ["SnapIndex"]

# Register the pair styles.  Imported last: pair_snap imports back into
# this package (LAMMPS package registration order has the same shape).
from repro.snap import pair_snap as _ps  # noqa: E402,F401

del _ps
