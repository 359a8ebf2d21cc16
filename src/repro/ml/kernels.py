"""Covariance kernels for Gaussian Process regression.

The BO surrogate in Smartpick is a Gaussian Process regressor (Section 3.1).
These kernels provide its covariance structure.  All kernels operate on 2-D
arrays of shape ``(n, d)`` and return Gram matrices of shape ``(n, m)``.
"""

from __future__ import annotations

import abc

import numpy as np

from repro.ml import forest_native

__all__ = [
    "Kernel",
    "RBFKernel",
    "Matern52Kernel",
    "WhiteKernel",
    "SumKernel",
    "ScaledKernel",
]


def _as_matrix(points: np.ndarray) -> np.ndarray:
    array = np.asarray(points, dtype=np.float64)
    if array.ndim == 1:
        array = array[:, None]
    if array.ndim != 2:
        raise ValueError("kernel inputs must be 1-D or 2-D arrays")
    return array


def _squared_distances(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between row sets ``a`` and ``b``.

    One BLAS cross product plus in-place combination: the only full
    ``(n, m)`` temporaries are the cross matrix itself (reused as the
    result) and the broadcast norm sum.  The arithmetic (and therefore
    the bits) matches the textbook ``a_sq + b_sq - 2 * cross`` exactly.
    """
    a_sq = np.sum(a * a, axis=1)[:, None]
    b_sq = np.sum(b * b, axis=1)[None, :]
    cross = a @ b.T
    np.multiply(cross, 2.0, out=cross)
    distances = np.subtract(a_sq + b_sq, cross, out=cross)
    np.maximum(distances, 0.0, out=distances)
    return distances


class Kernel(abc.ABC):
    """Base class: a positive semi-definite covariance function."""

    @abc.abstractmethod
    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Gram matrix between row sets ``a`` (n x d) and ``b`` (m x d)."""

    @abc.abstractmethod
    def diagonal(self, a: np.ndarray) -> np.ndarray:
        """``diag(K(a, a))`` without building the full matrix."""

    def __add__(self, other: "Kernel") -> "Kernel":
        return SumKernel(self, other)

    def __mul__(self, scale: float) -> "Kernel":
        return ScaledKernel(self, scale)

    __rmul__ = __mul__


class RBFKernel(Kernel):
    """Squared-exponential kernel ``exp(-||x - y||^2 / (2 l^2))``."""

    def __init__(self, length_scale: float = 1.0) -> None:
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = float(length_scale)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _as_matrix(a), _as_matrix(b)
        distances = _squared_distances(a, b)
        return np.exp(-0.5 * distances / (self.length_scale**2))

    def diagonal(self, a: np.ndarray) -> np.ndarray:
        return np.ones(_as_matrix(a).shape[0])

    def __repr__(self) -> str:
        return f"RBFKernel(length_scale={self.length_scale})"


class Matern52Kernel(Kernel):
    """Matern kernel with smoothness ``nu = 5/2``.

    Slightly rougher than RBF; the standard choice for modelling compute
    performance surfaces, which are continuous but not infinitely smooth.
    """

    def __init__(self, length_scale: float = 1.0) -> None:
        if length_scale <= 0:
            raise ValueError("length_scale must be positive")
        self.length_scale = float(length_scale)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _as_matrix(a), _as_matrix(b)
        kernel = forest_native.load_kernel()
        if kernel is not None:
            return self._gram_native(kernel, a, b)
        return self._gram_numpy(a, b)

    def _gram_native(self, kernel, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """Ctypes Gram build: one fused C pass from the BLAS cross
        product to the Matern polynomial and the negated scaled distance.

        The exp pass stays in numpy -- ``np.exp`` and libm ``exp`` can
        disagree in the last ulp -- so the native and numpy paths remain
        bitwise identical (the C pass mirrors the fallback's operation
        order exactly; see the kernel regression tests).
        """
        cross = np.ascontiguousarray(a @ b.T)
        a_sq = np.ascontiguousarray(np.sum(a * a, axis=1))
        b_sq = np.ascontiguousarray(np.sum(b * b, axis=1))
        n, m = cross.shape
        poly = np.empty((n, m))
        neg_s = np.empty((n, m))
        kernel.matern_gram(
            cross, a_sq, b_sq, self.length_scale, n, m, poly, neg_s
        )
        np.exp(neg_s, out=neg_s)
        np.multiply(poly, neg_s, out=poly)
        return poly

    def _gram_numpy(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        # Fused in-place evaluation: one Gram-shaped scratch (``scaled``)
        # plus the polynomial accumulator, instead of a fresh temporary
        # per arithmetic step.  Every operation keeps the operand order
        # of the textbook expression
        #     (1 + s + s^2 / 3) * exp(-s),  s = sqrt(5) * d / l,
        # so the result is bitwise identical to the naive evaluation
        # (multiplication commutes exactly in IEEE-754; see the kernel
        # regression tests).
        scaled = _squared_distances(a, b)
        np.sqrt(scaled, out=scaled)
        np.multiply(scaled, np.sqrt(5.0), out=scaled)
        np.divide(scaled, self.length_scale, out=scaled)
        poly = 1.0 + scaled
        square = scaled * scaled
        np.divide(square, 3.0, out=square)
        np.add(poly, square, out=poly)
        np.negative(scaled, out=scaled)
        np.exp(scaled, out=scaled)
        np.multiply(poly, scaled, out=poly)
        return poly

    def diagonal(self, a: np.ndarray) -> np.ndarray:
        return np.ones(_as_matrix(a).shape[0])

    def __repr__(self) -> str:
        return f"Matern52Kernel(length_scale={self.length_scale})"


class WhiteKernel(Kernel):
    """Independent observation noise: ``noise^2`` on the diagonal only."""

    def __init__(self, noise: float = 1.0) -> None:
        if noise < 0:
            raise ValueError("noise must be non-negative")
        self.noise = float(noise)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        a, b = _as_matrix(a), _as_matrix(b)
        if a.shape[0] == b.shape[0] and a.shape == b.shape and np.array_equal(a, b):
            return np.eye(a.shape[0]) * self.noise**2
        return np.zeros((a.shape[0], b.shape[0]))

    def diagonal(self, a: np.ndarray) -> np.ndarray:
        return np.full(_as_matrix(a).shape[0], self.noise**2)

    def __repr__(self) -> str:
        return f"WhiteKernel(noise={self.noise})"


class SumKernel(Kernel):
    """Pointwise sum of two kernels."""

    def __init__(self, first: Kernel, second: Kernel) -> None:
        self.first = first
        self.second = second

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.first(a, b) + self.second(a, b)

    def diagonal(self, a: np.ndarray) -> np.ndarray:
        return self.first.diagonal(a) + self.second.diagonal(a)

    def __repr__(self) -> str:
        return f"({self.first!r} + {self.second!r})"


class ScaledKernel(Kernel):
    """A kernel multiplied by a positive variance scale."""

    def __init__(self, base: Kernel, scale: float) -> None:
        if scale <= 0:
            raise ValueError("scale must be positive")
        self.base = base
        self.scale = float(scale)

    def __call__(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return self.scale * self.base(a, b)

    def diagonal(self, a: np.ndarray) -> np.ndarray:
        return self.scale * self.base.diagonal(a)

    def __repr__(self) -> str:
        return f"{self.scale} * {self.base!r}"
