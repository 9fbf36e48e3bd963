"""Mutually complementary (unbiased) bases in prime dimensions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .densities import DiscreteDistribution
from .errors import NotComplementary, NotPrime
from .states import FiniteState


@dataclass(frozen=True)
class MubSet:
    """d+1 orthonormal bases with all cross-basis overlaps |<e|f>|^2 = 1/d."""

    dimension: int
    bases: np.ndarray  # shape (d+1, d, d); columns are basis vectors

    @property
    def n_bases(self) -> int:
        return self.bases.shape[0]


def is_prime(d: int) -> bool:
    if d < 2:
        return False
    if d < 4:
        return True
    if d % 2 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % f == 0:
            return False
        f += 2
    return True


def mub_construct(d: int) -> MubSet:
    """The standard quadratic-exponential construction for prime d.

    For odd primes basis r has vectors v_j[k] = d^-1/2 w^{r k^2 + j k} with
    w = exp(2 pi i / d); d = 2 uses the three Pauli eigenbases.  Global
    phases are fixed by making each column's first nonzero entry real
    positive, so serialization is reproducible.
    """
    if not is_prime(d):
        raise NotPrime(f"{d} is not prime; only prime dimensions are constructed")
    bases = [np.eye(d, dtype=complex)]
    if d == 2:
        bases.append(np.array([[1, 1], [1, -1]], dtype=complex) / np.sqrt(2))
        bases.append(np.array([[1, 1], [1j, -1j]], dtype=complex) / np.sqrt(2))
    else:
        w = np.exp(2j * np.pi / d)
        k = np.arange(d)
        for r in range(d):
            cols = [w ** ((r * k * k + j * k) % d) / np.sqrt(d) for j in range(d)]
            bases.append(np.array(cols).T)
    fixed = np.stack([_fix_phases(b) for b in bases])
    return MubSet(d, fixed)


def _fix_phases(basis: np.ndarray) -> np.ndarray:
    out = basis.copy()
    for j in range(out.shape[1]):
        col = out[:, j]
        lead = col[np.abs(col) > 1e-12][0]
        out[:, j] = col * (np.abs(lead) / lead)
    return out


def complementarity_check(bases: MubSet, tol: float = 1e-10) -> dict:
    """Verify orthonormality and uniform cross-basis overlaps.

    Returns the worst deviations; raises NotComplementary beyond tolerance.
    """
    d = bases.dimension
    ortho_dev = 0.0
    overlap_dev = 0.0
    for i in range(bases.n_bases):
        gram = bases.bases[i].conj().T @ bases.bases[i]
        ortho_dev = max(ortho_dev, float(np.max(np.abs(gram - np.eye(d)))))
        for j in range(i + 1, bases.n_bases):
            cross = np.abs(bases.bases[i].conj().T @ bases.bases[j]) ** 2
            overlap_dev = max(overlap_dev, float(np.max(np.abs(cross - 1.0 / d))))
    if ortho_dev > tol or overlap_dev > tol:
        raise NotComplementary(
            f"orthonormality off by {ortho_dev:.2e}, overlaps off by {overlap_dev:.2e}")
    return {"orthonormality_deviation": ortho_dev, "overlap_deviation": overlap_dev,
            "n_bases": bases.n_bases}


def measurement_distribution(state: FiniteState, bases: MubSet,
                             basis_index: int) -> DiscreteDistribution:
    """Outcome probabilities of measuring one basis on the state."""
    basis = bases.bases[basis_index]
    probs = np.real(np.einsum("ij,ik,kj->j", basis.conj(), state.matrix, basis))
    return DiscreteDistribution(np.clip(probs, 0.0, None))
