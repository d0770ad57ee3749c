"""Constant diagonal metrics and the Hodge dual.

The star convention: for a basis monomial dx^I, *(dx^I) is the signed
complement sign(I, I^c) * (product of metric entries over I) * dx^{I^c},
where the sign is the parity of the permutation (I, I^c) of (1..n).  In 2D
Euclidean space this gives *(u dx + v dy) = -v dx + u dy, which pins the
convention against the known dual of a gradient field.
"""

from __future__ import annotations

from .expr import VariableSet, _Record, _immutable
from .forms import DifferentialForm, FormError, sort_index_tuple, _trusted

__all__ = ["Metric", "hodge_star"]


class Metric(_Record):
    """Diagonal constant metric: one entry of +1 or -1 per coordinate."""

    __slots__ = __match_args__ = ("vars", "signature")
    __setattr__ = __delattr__ = _immutable

    def __init__(self, vars: VariableSet, signature: tuple[int, ...]):
        if len(signature) != vars.dimension:
            raise ValueError("metric signature length must match the dimension")
        if any(s not in (1, -1) for s in signature):
            raise ValueError("metric entries must be +1 or -1")
        object.__setattr__(self, "vars", vars)
        object.__setattr__(self, "signature", signature)

    def __hash__(self):
        return hash((self.vars, self.signature))

    @classmethod
    def euclidean(cls, variables: VariableSet) -> "Metric":
        return cls(variables, (1,) * variables.dimension)

    def signature_product(self) -> int:
        out = 1
        for s in self.signature:
            out *= s
        return out


def hodge_star(a: DifferentialForm, g: Metric) -> DifferentialForm:
    """Hodge dual: degree p -> n-p, linear over coefficients."""
    if a.vars != g.vars:
        raise FormError("form and metric live over different variable sets")
    n = a.vars.dimension
    pairs = []
    for idx, c in a.items():
        complement = tuple(i for i in range(1, n + 1) if i not in idx)
        factor, _ = sort_index_tuple(idx + complement)
        for i in idx:
            factor *= g.signature[i - 1]
        pairs.append((complement, c if factor > 0 else -c))
    return _trusted(a.vars, n - a.degree, dict(sorted(pairs)))
