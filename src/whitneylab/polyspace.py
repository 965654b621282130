"""Polynomial spaces annihilated by repeated directional derivatives.

The space of interest is spanned by polynomials whose restriction to every
line in a direction from a given set is a univariate polynomial of degree
below ``r``.  For a spanning direction set this space is finite dimensional
and sits inside total degree ``d * (r - 1)``; it is realized here as the
orthonormalized nullspace of stacked r-fold directional derivative maps over
a graded-lexicographic monomial frame.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, SpanDeficiencyError

NULLSPACE_RTOL = 1e-9


def monomial_exponents(dim, max_degree):
    """All multi-indices with total degree <= max_degree, graded-lex order."""
    out = []
    for total in range(max_degree + 1):
        out.extend(_fixed_degree(dim, total))
    return np.array(out, dtype=int).reshape(-1, dim)


def _fixed_degree(dim, total):
    if dim == 1:
        return [(total,)]
    out = []
    for first in range(total, -1, -1):
        for rest in _fixed_degree(dim - 1, total - first):
            out.append((first,) + rest)
    return out


def _exponent_index(exponents):
    return {tuple(a): i for i, a in enumerate(exponents)}


def derivative_lowerings(frame, xi):
    """D_xi on a monomial frame closed downward: per axis with xi_axis != 0,
    (src, dst, scale) with D_xi sending row src[i] to scale[i] times row dst[i]."""
    row = _exponent_index(frame.tolist())
    out = []
    for axis, x in enumerate(np.asarray(xi, dtype=float).ravel()):
        src = np.flatnonzero(frame[:, axis] > 0)
        if x == 0.0 or src.size == 0:
            continue
        lowered = frame[src]
        lowered[:, axis] -= 1
        out.append((src, [row[tuple(a)] for a in lowered.tolist()], x * frame[src, axis]))
    return out


def directional_derivative_matrix(exponents, xi):
    """D_xi as a dense matrix; the axes lower a monomial to distinct rows."""
    D = np.zeros((len(exponents), len(exponents)))
    for src, dst, scale in derivative_lowerings(exponents, xi):
        D[dst, src] = scale
    return D


@dataclass(eq=False)
class PolySpaceBasis:
    """Orthonormal basis (rows of ``coeffs``) over a monomial exponent frame."""
    dim_space: int
    order: int
    exponents: np.ndarray  # (n_mono, d)
    coeffs: np.ndarray     # (n_basis, n_mono), orthonormal rows
    dirset: object

    @property
    def n_basis(self):
        return self.coeffs.shape[0]

    def spec(self):
        return {
            "d": self.dim_space,
            "r": self.order,
            "exponents": self.exponents.tolist(),
            "coeffs": self.coeffs.tolist(),
            "dirs": self.dirset.dirs.tolist(),
        }


def build_basis(d, r, dirset):
    """Orthonormal basis of the directionally-flat polynomial space.

    Raises for span-deficient direction sets, where the space is infinite
    dimensional and no truncated basis would be faithful.
    """
    if r < 1:
        raise PreconditionError("order r must be >= 1")
    if dirset.dim != d:
        raise PreconditionError("direction set dimension mismatch")
    if not dirset.spans:
        raise SpanDeficiencyError(
            "directions do not span the space; the constrained space is infinite dimensional"
        )
    exponents = monomial_exponents(d, d * (r - 1))
    n = len(exponents)
    blocks = []
    for xi in dirset.dirs:
        D = directional_derivative_matrix(exponents, xi)
        blocks.append(np.linalg.matrix_power(D, r))
    stacked = np.vstack(blocks)
    u, s, vh = np.linalg.svd(stacked)
    smax = s[0] if s.size else 0.0
    rank = int(np.sum(s > NULLSPACE_RTOL * smax)) if smax > 0 else 0
    basis = vh[rank:]
    if basis.shape[0] == 0:
        raise PreconditionError("empty basis; constraints annihilated everything")
    return PolySpaceBasis(d, r, exponents, np.ascontiguousarray(basis), dirset)


def monomial_matrix(exponents, points):
    """(n_points, n_mono) matrix of monomial values for integer exponents.

    Each axis contributes a power table x_a ** (lo..max) per point, indexed by
    the exponent column, so the products are those of ``prod(x ** a)``.
    """
    pts = np.atleast_2d(np.asarray(points, dtype=float))
    exps = np.asarray(exponents, dtype=int)
    out = np.ones((pts.shape[0], len(exps)))
    if exps.size == 0:
        return out
    for axis in range(exps.shape[1]):
        e = exps[:, axis]
        x = pts[:, axis:axis + 1]
        lo, hi = min(0, int(e.min())), int(e.max())
        # a table wider than the column would cost more than the powers themselves
        out *= (x ** np.arange(lo, hi + 1))[:, e - lo] if hi - lo < len(e) else x ** e
    return out


def design_matrix(basis, points):
    """(n_points, n_basis) matrix of basis-polynomial values."""
    return monomial_matrix(basis.exponents, points) @ basis.coeffs.T

