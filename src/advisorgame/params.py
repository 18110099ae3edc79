"""Parameter containers and strategy points for the advisor-customer game.

All types are immutable values. ``ModelParams`` is the homogeneous game
(every customer shares the baseline opinion ``d`` and desired return
``r_d``); ``HeterogeneousParams`` carries per-customer vectors instead.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidParameter

# Tolerance below which |s - d_i| is treated as the s = d singularity.
EPS_DEN = 1e-12

_UNIT_FIELDS = ("d", "x", "w", "r_d", "r_s")
_POSITIVE_FIELDS = ("alpha", "beta", "gamma", "zeta")


def _check_unit(name, value):
    if not (0.0 <= value <= 1.0):
        raise InvalidParameter(name, f"must lie in [0, 1], got {value!r}")


def _check_positive(name, value):
    if not (math.isfinite(value) and value > 0.0):
        raise InvalidParameter(name, f"must be finite and strictly positive, got {value!r}")


@dataclass(frozen=True)
class CustomerSlice:
    """The parameters a single customer's utility depends on."""

    d: float
    r_d: float
    r_s: float
    zeta: float


@dataclass(frozen=True)
class ModelParams:
    """Fixed parameters of the homogeneous game.

    d       baseline customer opinion, in [0, 1]
    x       advisor internal opinion, in [0, 1]
    w       bank target opinion, in [0, 1]
    n       number of customers, >= 1
    alpha   truthfulness weight, > 0
    beta    remuneration weight, > 0
    gamma   influence weight, > 0
    zeta    cognitive-dissonance sensitivity, > 0
    r_d     customer-desired return, in [0, 1]
    r_s     advisor-proposed return, in [0, 1]
    """

    d: float
    x: float
    w: float
    n: int
    alpha: float
    beta: float
    gamma: float
    zeta: float
    r_d: float
    r_s: float

    def __post_init__(self):
        for name in _UNIT_FIELDS:
            _check_unit(name, getattr(self, name))
        for name in _POSITIVE_FIELDS:
            _check_positive(name, getattr(self, name))
        if not (isinstance(self.n, (int, np.integer)) and self.n >= 1):
            raise InvalidParameter("n", f"must be an integer >= 1, got {self.n!r}")
        # The kernels hold n as a float64, which rounds integers above 2**53.
        if self.n > 2**53:
            raise InvalidParameter("n", f"must be at most 2**53, got {self.n!r}")

    def customer(self) -> CustomerSlice:
        return CustomerSlice(d=self.d, r_d=self.r_d, r_s=self.r_s, zeta=self.zeta)

    def customers(self) -> list:
        return [self.customer()] * self.n

    def replace(self, **changes) -> "ModelParams":
        from dataclasses import replace as _replace

        return _replace(self, **changes)


@dataclass(frozen=True)
class HeterogeneousParams:
    """Game parameters with per-customer baseline opinions and returns; n = len(d_i)."""

    x: float
    w: float
    alpha: float
    beta: float
    gamma: float
    zeta: float
    r_s: float
    d_i: tuple
    r_d_i: tuple

    def __post_init__(self):
        for name in ("x", "w", "r_s"):
            _check_unit(name, getattr(self, name))
        for name in _POSITIVE_FIELDS:
            _check_positive(name, getattr(self, name))
        object.__setattr__(self, "d_i", tuple(float(v) for v in self.d_i))
        object.__setattr__(self, "r_d_i", tuple(float(v) for v in self.r_d_i))
        if not (0 < len(self.d_i) == len(self.r_d_i)):
            lengths = f"{len(self.r_d_i)} for {len(self.d_i)}"
            raise InvalidParameter("r_d_i", f"needs one entry per d_i entry (>= 1), got {lengths}")
        for i, v in enumerate(self.d_i):
            _check_unit(f"d_i[{i}]", v)
        for i, v in enumerate(self.r_d_i):
            _check_unit(f"r_d_i[{i}]", v)

    @property
    def n(self) -> int:
        return len(self.d_i)

    def customer(self, i: int) -> CustomerSlice:
        return CustomerSlice(d=self.d_i[i], r_d=self.r_d_i[i], r_s=self.r_s, zeta=self.zeta)

    def customers(self) -> list:
        return [self.customer(i) for i in range(self.n)]


@dataclass(frozen=True)
class OpinionProfile:
    """A strategy point (c_1, ..., c_n, s).

    Carries a domain-membership predicate; it never clamps coordinates,
    because points outside the feasible set are meaningful (they drive
    the admissibility analysis).
    """

    c: tuple
    s: float

    def __post_init__(self):
        object.__setattr__(self, "c", tuple(float(v) for v in self.c))
        object.__setattr__(self, "s", float(self.s))

    @classmethod
    def uniform(cls, c: float, s: float, n: int) -> "OpinionProfile":
        """All-customers-equal profile."""
        return cls(c=(float(c),) * n, s=s)

    @property
    def n(self) -> int:
        return len(self.c)

    def c_array(self) -> np.ndarray:
        return np.asarray(self.c, dtype=float)

    def in_domain(self, d, tol: float = 0.0) -> bool:
        """Membership in {d_i <= c_i <= s <= 1}.

        ``d`` is a scalar baseline or one baseline per customer.
        """
        lo = np.broadcast_to(np.asarray(d, dtype=float), (len(self.c),))
        c = self.c_array()
        return bool(
            np.all(c >= lo - tol) and np.all(c <= self.s + tol) and self.s <= 1.0 + tol
        )
