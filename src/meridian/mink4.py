"""Linear algebra of the Minkowski 4-space with signature (3,1).

The fixed orthonormal basis is e1, e2, e3, e4 with
inner(e1,e1) = inner(e2,e2) = inner(e3,e3) = 1 and inner(e4,e4) = -1.
"""

from __future__ import annotations

import math
from typing import Sequence


class Vec4:
    """Point/vector of the Minkowski 4-space in the fixed basis.  A plain
    slotted class: it compares and hashes by identity; compare coords()."""

    __slots__ = ("x1", "x2", "x3", "x4")

    def __init__(self, x1: float, x2: float, x3: float, x4: float):
        self.x1, self.x2, self.x3, self.x4 = x1, x2, x3, x4
        # its own method: bench/tracing.py counts Vec4s by patching it
        self.__post_init__()

    def __post_init__(self):
        for c in (self.x1, self.x2, self.x3, self.x4):
            if not math.isfinite(c):
                raise ValueError(f"Vec4 coordinates must be finite, got {c!r}")

    def coords(self) -> tuple[float, float, float, float]:
        return (self.x1, self.x2, self.x3, self.x4)

    def __add__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 + other.x1, self.x2 + other.x2,
                    self.x3 + other.x3, self.x4 + other.x4)

    def __sub__(self, other: "Vec4") -> "Vec4":
        return Vec4(self.x1 - other.x1, self.x2 - other.x2,
                    self.x3 - other.x3, self.x4 - other.x4)

    def __neg__(self) -> "Vec4":
        return Vec4(-self.x1, -self.x2, -self.x3, -self.x4)

    def __mul__(self, s: float) -> "Vec4":
        return Vec4(self.x1 * s, self.x2 * s, self.x3 * s, self.x4 * s)

    __rmul__ = __mul__

    def __truediv__(self, s: float) -> "Vec4":
        return Vec4(self.x1 / s, self.x2 / s, self.x3 / s, self.x4 / s)


E1 = Vec4(1.0, 0.0, 0.0, 0.0)
E2 = Vec4(0.0, 1.0, 0.0, 0.0)
E3 = Vec4(0.0, 0.0, 1.0, 0.0)
E4 = Vec4(0.0, 0.0, 0.0, 1.0)


def inner(u: Vec4, v: Vec4) -> float:
    """Signature-(3,1) inner product: u1 v1 + u2 v2 + u3 v3 - u4 v4."""
    return u.x1 * v.x1 + u.x2 * v.x2 + u.x3 * v.x3 - u.x4 * v.x4


def gram(frame: Sequence[Vec4]) -> list[list[float]]:
    """Gram matrix G[i][j] = inner(frame[i], frame[j]) for 1 to 4 vectors."""
    if not 1 <= len(frame) <= 4:
        raise ValueError(f"gram expects 1-4 vectors, got {len(frame)}")
    return [[inner(a, b) for b in frame] for a in frame]
