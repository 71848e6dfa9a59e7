"""Sparse multivariate polynomials over the integers.

Carrier for equivariant restrictions: variables are the simple roots
a1..an, exponent vectors are the dict keys, and all arithmetic is exact.
The only division ever needed is by a linear form (a positive root), which
is implemented as remainder-checked lex reduction.
"""

from __future__ import annotations

from csmverify.errors import InternalInvariantError


class InexactDivision(InternalInvariantError):
    """Polynomial division left a remainder where exactness is guaranteed."""


class IntPolynomial:
    """Integer polynomial stored as {exponent tuple: coefficient}."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms=None):
        self.nvars = nvars
        self.terms = {} if terms is None else {
            e: c for e, c in terms.items() if c != 0
        }

    # -- constructors --------------------------------------------------------

    @classmethod
    def zero(cls, nvars: int) -> "IntPolynomial":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "IntPolynomial":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def linear(cls, coords) -> "IntPolynomial":
        """The linear form with the given coefficients on a1..an."""
        coords = tuple(coords)
        n = len(coords)
        return cls(n, {
            tuple(1 if k == i else 0 for k in range(n)): c
            for i, c in enumerate(coords) if c != 0
        })

    # -- ring operations -----------------------------------------------------

    def __add__(self, other: "IntPolynomial") -> "IntPolynomial":
        out = dict(self.terms)
        for e, c in other.terms.items():
            v = out.get(e, 0) + c
            if v:
                out[e] = v
            else:
                out.pop(e, None)
        return IntPolynomial(self.nvars, out)

    def __sub__(self, other: "IntPolynomial") -> "IntPolynomial":
        return self + (-other)

    def __neg__(self) -> "IntPolynomial":
        return IntPolynomial(self.nvars, {e: -c for e, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, int):
            return IntPolynomial(self.nvars, {e: c * other for e, c in self.terms.items()})
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                v = out.get(e, 0) + c1 * c2
                if v:
                    out[e] = v
                else:
                    del out[e]
        return IntPolynomial(self.nvars, out)

    __rmul__ = __mul__

    def __eq__(self, other):
        return isinstance(other, IntPolynomial) and self.terms == other.terms

    def __bool__(self):
        return bool(self.terms)

    # -- queries ---------------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def constant_term(self) -> int:
        return self.terms.get((0,) * self.nvars, 0)

    def total_degree(self) -> int:
        """Degree of the zero polynomial is -1 by convention."""
        if not self.terms:
            return -1
        return max(sum(e) for e in self.terms)

    def is_homogeneous(self) -> bool:
        degrees = {sum(e) for e in self.terms}
        return len(degrees) <= 1

    def evaluate(self, values) -> int:
        total = 0
        for e, c in self.terms.items():
            t = c
            for v, k in zip(values, e):
                if k:
                    t *= v ** k
            total += t
        return total

    # -- division by a linear form ----------------------------------------------

    def divide_exact_linear(self, coords) -> "IntPolynomial":
        """Exact quotient by the linear form with the given coefficients.

        Lex reduction on the pivot variable (the first with a nonzero
        coefficient).  Raises InexactDivision if a remainder would be left
        or an integer coefficient division fails; for the equivariant
        expansion such a failure signals a non-GKM input.
        """
        coords = tuple(coords)
        pivot = next((i for i, c in enumerate(coords) if c != 0), None)
        if pivot is None:
            raise InexactDivision("division by the zero form")
        cp = coords[pivot]
        rem = dict(self.terms)
        quot: dict = {}
        while rem:
            lead = max(rem)
            c = rem[lead]
            if lead[pivot] == 0 or c % cp:
                raise InexactDivision("linear division left a remainder")
            qc = c // cp
            qe = tuple(k - 1 if i == pivot else k for i, k in enumerate(lead))
            quot[qe] = quot.get(qe, 0) + qc
            for i, ci in enumerate(coords):
                if ci == 0:
                    continue
                e = tuple(k + 1 if j == i else k for j, k in enumerate(qe))
                v = rem.get(e, 0) - qc * ci
                if v:
                    rem[e] = v
                else:
                    rem.pop(e, None)
        return IntPolynomial(self.nvars, quot)

    def divisible_by_linear(self, coords) -> bool:
        try:
            self.divide_exact_linear(coords)
        except InexactDivision:
            return False
        return True

    def __repr__(self):
        if not self.terms:
            return "0"
        parts = []
        for e in sorted(self.terms, reverse=True):
            c = self.terms[e]
            mono = "*".join(
                f"a{i + 1}" if k == 1 else f"a{i + 1}^{k}"
                for i, k in enumerate(e) if k
            )
            if mono:
                head = "" if c == 1 else ("-" if c == -1 else f"{c}*")
                parts.append(f"{head}{mono}")
            else:
                parts.append(str(c))
        return " + ".join(parts).replace("+ -", "- ")
