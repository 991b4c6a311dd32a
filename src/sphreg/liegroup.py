"""Numerical matrix layer for the special linear group.

Iwasawa factorization is Gram-Schmidt on columns, realized as QR with the
upper-triangular factor forced to a positive diagonal; that sign convention
is what makes the factorization (and hence the projection onto the abelian
part) unique.  The polar-chamber factorization comes from the singular value
decomposition with singular values in non-increasing order and both
orthogonal factors sign-fixed to determinant one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "IwasawaFactors",
    "KAKFactors",
    "SpecialLinearElement",
    "haar_so_n_sample",
    "is_regular",
    "iwasawa",
    "iwasawa_projection",
    "kak",
    "read_matrix",
    "write_matrix",
]

_COND_LIMIT = 1e12


@dataclass(frozen=True)
class SpecialLinearElement:
    """A unimodular matrix; inputs are rescaled to determinant one."""

    n: int
    entries: np.ndarray

    @staticmethod
    def from_array(matrix) -> "SpecialLinearElement":
        a = np.asarray(matrix, dtype=float)
        if a.ndim != 2 or a.shape[0] != a.shape[1] or a.size == 0:
            raise ValueError("expected a non-empty square matrix")
        if not np.isfinite(a).all():
            raise ValueError("matrix entries must be finite")
        sign, log_det = np.linalg.slogdet(a)
        if sign <= 0:
            raise ValueError("matrix must have positive determinant")
        peak = np.abs(a).max()  # divided out first: exp overflows only when singular
        try:
            a = a / peak * math.exp(math.log(peak) - log_det / a.shape[0])
        except OverflowError:
            raise ValueError("matrix is numerically singular") from None
        a.setflags(write=False)
        return SpecialLinearElement(a.shape[0], a)

    @staticmethod
    def diagonal(log_entries) -> "SpecialLinearElement":
        h = np.asarray(log_entries, dtype=float)
        return SpecialLinearElement.from_array(np.diag(np.exp(h - h.mean())))


@dataclass(frozen=True)
class IwasawaFactors:
    """g = k exp(diag h) nu with k orthogonal, h traceless, nu unit upper
    triangular."""

    k: np.ndarray
    h: np.ndarray
    nu: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.k @ np.diag(np.exp(self.h)) @ self.nu


@dataclass(frozen=True)
class KAKFactors:
    """g = k1 exp(diag a_log) k2^{-1} with a_log non-increasing and traceless."""

    k1: np.ndarray
    a_log: np.ndarray
    k2: np.ndarray

    def reconstruct(self) -> np.ndarray:
        return self.k1 @ np.diag(np.exp(self.a_log)) @ self.k2.T


def _check_conditioning(g: SpecialLinearElement) -> None:
    cond = np.linalg.cond(g.entries)
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise np.linalg.LinAlgError(
            f"matrix is numerically singular (condition number {cond:.3e})"
        )


def _positive_qr(a: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """QR of a matrix or a stack of matrices with ``r``'s diagonal made
    nonnegative: its signs (0 taken as 1) move into ``q``'s columns."""
    q, r = np.linalg.qr(a)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[..., np.newaxis, :], r * signs[..., np.newaxis]


def iwasawa(g: SpecialLinearElement) -> IwasawaFactors:
    """Unique orthogonal x abelian x unipotent factorization of ``g``."""
    _check_conditioning(g)
    q, r = _positive_qr(g.entries)
    diag = np.diag(r).copy()
    h = np.log(diag)
    nu = r / diag[:, np.newaxis]
    for a in (q, h, nu):
        a.setflags(write=False)
    return IwasawaFactors(q, h, nu)


def iwasawa_projection(g: SpecialLinearElement) -> np.ndarray:
    """Abelian component of the factorization, as diagonal logarithms.

    Left multiplication by an orthogonal matrix does not change it.
    """
    return iwasawa(g).h


def kak(g: SpecialLinearElement) -> KAKFactors:
    """Polar-chamber factorization via singular values.

    The abelian part is unique; the orthogonal factors are unique only up to
    the centralizer of the abelian part, and only when ``is_regular`` holds.
    Chamber walls (repeated singular values) do not raise.
    """
    _check_conditioning(g)
    u, s, vt = np.linalg.svd(g.entries)
    if np.linalg.det(u) < 0:
        u = u.copy()
        vt = vt.copy()
        u[:, -1] *= -1.0
        vt[-1, :] *= -1.0
    a_log = np.log(s)
    k2 = vt.T
    for a in (u, a_log, k2):
        a.setflags(write=False)
    return KAKFactors(u, a_log, k2)


def is_regular(g: SpecialLinearElement) -> bool:
    """Whether the chamber component of ``g`` is strictly interior, i.e. all
    consecutive gaps of the sorted log singular values exceed 1e-9."""
    a_log = kak(g).a_log
    return bool(np.all(np.diff(a_log) < -1e-9))


def haar_so_n_sample(n: int, rng_seed: int, count: int) -> np.ndarray:
    """Invariant-measure samples from the rotation group, shape (count, n, n).

    Standard-normal matrices, drawn from ``default_rng(rng_seed)`` in blocks
    of ``65536 // (n * n) + 1``, are QR-factored with the positive-diagonal
    convention, which gives the invariant measure on the orthogonal group;
    reflections are mapped into rotations by flipping the last column, a
    measure preserving right translation.  Deterministic per seed; to shard
    across workers, give shard ``i`` the seed ``rng_seed + i``.  Callers:
    criterion 4 in ``accept``, demo 02 and the tests.
    """
    if n < 2:
        raise ValueError("n must be at least 2")
    rng = np.random.default_rng(rng_seed)
    block = 65536 // (n * n) + 1
    out = np.empty((count, n, n))
    for start in range(0, count, block):
        stop = min(start + block, count)
        q, _ = _positive_qr(rng.standard_normal((stop - start, n, n)))
        dets = np.linalg.det(q)
        q[dets < 0, :, -1] *= -1.0
        out[start:stop] = q
    out.setflags(write=False)
    return out


# ---------------------------------------------------------------------------
# matrix text I/O: first line the dimension, then n rows of n doubles
# ---------------------------------------------------------------------------

def read_matrix(text: str) -> SpecialLinearElement:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty matrix text")
    n = int(tokens[0])
    values = [float(t) for t in tokens[1:]]
    if len(values) != n * n:
        raise ValueError(f"expected {n * n} entries, got {len(values)}")
    return SpecialLinearElement.from_array(np.array(values).reshape(n, n))


def write_matrix(g: SpecialLinearElement) -> str:
    lines = [str(g.n)]
    for row in g.entries:
        lines.append(" ".join(f"{x:.17g}" for x in row))
    return "\n".join(lines) + "\n"
