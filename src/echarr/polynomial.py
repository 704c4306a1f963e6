"""Dense univariate polynomials with integer coefficients.

Characteristic and chromatic polynomials have degree at most the vertex
count, so a small dense coefficient vector (low-to-high) is enough.
"""

from __future__ import annotations

from typing import Iterable


class IntPolynomial:
    """Polynomial in one variable t with int coefficients, low-to-high."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[int] = ()):
        cs = list(coeffs)
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs = tuple(int(c) for c in cs)

    @classmethod
    def zero(cls) -> "IntPolynomial":
        return cls(())

    @classmethod
    def monomial(cls, degree: int, coeff: int = 1) -> "IntPolynomial":
        if degree < 0:
            raise ValueError("degree must be >= 0")
        return cls([0] * degree + [coeff])

    @property
    def degree(self) -> int:
        """Degree, with the zero polynomial reported as -1."""
        return len(self.coeffs) - 1

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial(x + y for x, y in zip(a, b))

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        n = max(len(self.coeffs), len(other.coeffs))
        a = list(self.coeffs) + [0] * (n - len(self.coeffs))
        b = list(other.coeffs) + [0] * (n - len(other.coeffs))
        return IntPolynomial(x - y for x, y in zip(a, b))

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(-c for c in self.coeffs)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, IntPolynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __call__(self, t: int) -> int:
        value = 0
        for c in reversed(self.coeffs):
            value = value * t + c
        return value

    def __repr__(self) -> str:
        if not self.coeffs:
            return "IntPolynomial(0)"
        terms = []
        for power in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[power]
            if c == 0:
                continue
            if power == 0:
                terms.append(f"{c:+d}")
            elif power == 1:
                terms.append(f"{c:+d}*t")
            else:
                terms.append(f"{c:+d}*t^{power}")
        body = " ".join(terms).lstrip("+")
        return f"IntPolynomial({body})"

