"""Dense-free multivariate polynomials: the value type of chart entries.

Terms live in a dict from exponent tuples to float coefficients; zero
coefficients are never stored.  A `PolyChart` reads only the validated terms;
evaluation sums them in sorted order for reproducibility.
"""
from __future__ import annotations

import math
from numbers import Real

from .errors import DimensionMismatch, SchemaError
from .linalg import _integer, _number

_MAX_EXPONENT = 2**31 - 1  # the largest exponent: e(e - 1), a second-derivative factor, fits int64


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = _integer(nvars, DimensionMismatch, "the variable count")
        if not isinstance(terms, dict | None):
            raise SchemaError("terms", f"expected a dict of exponent tuples, got {terms!r}")
        clean = {}
        for exps, coeff in (terms or {}).items():
            if not isinstance(coeff, Real):  # a string, None, a complex number or an array
                raise SchemaError(f"terms[{exps}]", f"coefficient {coeff!r} is not a real number")
            if coeff != 0.0:
                coeff = _number(coeff, f"the coefficient of {exps}")  # NaN, inf or out of range
                if not (isinstance(exps, tuple) and len(exps) == self.nvars
                        and all(isinstance(e, Real) and 0 <= e <= _MAX_EXPONENT and e % 1 == 0
                                for e in exps)):
                    raise SchemaError(f"terms[{exps}]", f"need {self.nvars} non-negative exponents,"
                                                        f" each at most {_MAX_EXPONENT}")
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
