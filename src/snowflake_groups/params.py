"""Defining data of a snowflake group G_L.

G_L = < a, x, y, s, t | s a s^-1 = x,  t a t^-1 = y,  a^L = x y,  [a,x]=[x,y]=[y,a]=1 >

for an even integer L >= 6.  The word metric is taken over the generating
set {a, s, t}; x and y edges carry weight L and never shorten distances.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class GroupParams:
    """Fixed group data: L, the distortion exponent alpha and constant C.

    alpha = log2(L) and C = 2 + max(2(L+6), (L/2)^(3/2)), so that
    1 <= |g^m| / |m|^(1/alpha) < C for g in {a, x, y} and m != 0.
    """

    L: int
    alpha: float = field(init=False, compare=False, repr=False)
    C: float = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        if self.L % 2 != 0 or self.L < 6:
            raise ValueError(f"L must be an even integer >= 6, got {self.L!r}")
        object.__setattr__(self, "alpha", math.log2(self.L))
        object.__setattr__(self, "C", 2.0 + max(2.0 * (self.L + 6), (self.L / 2.0) ** 1.5))

    def root(self, m: int | float) -> float:
        """m^(1/alpha) = 2^(log_L m) for m > 0; 0 for m = 0."""
        if m == 0:
            return 0.0
        return 2.0 ** (math.log(abs(m)) / math.log(self.L))
