"""Dense-free multivariate polynomials: the value type of chart entries.

Terms live in a dict from exponent tuples to float coefficients; zero
coefficients are never stored.  Evaluation sums terms in sorted order for
reproducibility.
"""
from __future__ import annotations

import math


class Poly:
    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: dict | None = None):
        self.nvars = int(nvars)
        clean = {}
        for exps, coeff in (terms or {}).items():
            if coeff != 0.0:
                exps = tuple(int(e) for e in exps)
                if len(exps) != self.nvars or any(e < 0 for e in exps):
                    raise ValueError(f"bad exponent tuple {exps} for {self.nvars} variables")
                clean[exps] = clean.get(exps, 0.0) + float(coeff)
        self.terms = {e: c for e, c in clean.items() if c != 0.0}

    @classmethod
    def constant(cls, c: float, nvars: int) -> "Poly":
        return cls(nvars, {(0,) * nvars: c})

    @classmethod
    def variable(cls, i: int, nvars: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1.0})

    def is_zero(self) -> bool:
        return not self.terms

    def __add__(self, other):
        other = self._coerce(other)
        out = dict(self.terms)
        for e, c in other.terms.items():
            out[e] = out.get(e, 0.0) + c
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.nvars, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-self._coerce(other))

    def __rsub__(self, other):
        return self._coerce(other) - self

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
                raise ValueError("mixed variable counts")
            return other
        return Poly.constant(float(other), self.nvars)

    def __eq__(self, other):
        return isinstance(other, Poly) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, tuple(sorted(self.terms.items()))))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        bits = []
        for e in sorted(self.terms):
            mono = "*".join(f"x{i}^{k}" for i, k in enumerate(e) if k) or "1"
            bits.append(f"{self.terms[e]:g}*{mono}")
        return "Poly(" + " + ".join(bits) + ")"

