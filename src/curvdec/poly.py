"""Dense-free multivariate polynomials: the value type of chart entries.

Terms live in a dict from exponent tuples to float coefficients; zero
coefficients are never stored.  A `PolyChart` reads only the validated terms;
evaluation sums them in sorted order for reproducibility.
"""
from __future__ import annotations

import math

from .errors import DimensionMismatch, NonFiniteInput, SchemaError


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            if coeff != 0.0:
                if not math.isfinite(coeff := float(coeff)):
                    raise NonFiniteInput(f"coefficient {coeff} of {exps} is not finite")
                if len(exps) != self.nvars or not all(e >= 0 and e % 1 == 0 for e in exps):
                    raise SchemaError(f"terms[{exps}]", f"need {self.nvars} non-negative exponents")
                exps = tuple(map(int, exps))  # whole numbers, so nothing is truncated
                clean[exps] = clean.get(exps, 0.0) + coeff
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    @classmethod
    def constant(cls, c: float, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    def __mul__(self, other):
        other = self._coerce(other)
        out: dict = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                out[key] = out.get(key, 0.0) + c1 * c2
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __call__(self, point) -> float:
        total = 0.0
        for e in sorted(self.terms):
            total += self.terms[e] * math.prod(x**k for x, k in zip(point, e) if k)
        return total

    def _coerce(self, other) -> "Poly":
        if isinstance(other, Poly):
            if other.nvars != self.nvars:
                raise DimensionMismatch(f"mixed variable counts {self.nvars} and {other.nvars}")
            return other
        return Poly.constant(float(other), self.nvars)
