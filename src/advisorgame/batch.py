"""Row batches for the closed-form kernels of ``equilibria`` and ``welfare``.

A kernel evaluates one closed form for many homogeneous games at once,
one game per row. Every step is one IEEE-rounded numpy operation (a
square is ``np.square``, a higher power a product of squares), and
Python's ``max``/``min`` become ``np.where`` on the same comparison. A
row that fails a check keeps flowing through the later stages with
meaningless values; ``RowErrors`` remembers the first error each row met,
and the batch raises the one of its first failing row.
"""

from __future__ import annotations

import operator
from typing import Callable, Dict

import numpy as np

from .errors import AdvisorGameError


_NAMES = ("d", "x", "w", "n", "alpha", "beta", "gamma", "zeta", "r_d", "r_s")
_FIELDS = operator.attrgetter(*_NAMES)


class ParamBatch:
    """The fields of validated ``ModelParams``, one float64 array each.

    ``n`` holds the customer counts as floats, which is how the scalar
    formulas use them (an int times a float converts the int first). The
    arrays are never written to.
    """

    __slots__ = _NAMES + ("equal", "any_equal", "dr", "gn")

    def __init__(self, d, x, w, n, alpha, beta, gamma, zeta, r_d, r_s):
        self.d, self.x, self.w, self.n = d, x, w, n
        self.alpha, self.beta, self.gamma, self.zeta = alpha, beta, gamma, zeta
        self.r_d, self.r_s = r_d, r_s
        # Subexpressions that many closed forms share. ``any_equal`` lets a
        # kernel skip the r_s == r_d branch when no row takes it.
        self.equal = r_s == r_d
        self.any_equal = bool(np.count_nonzero(self.equal))
        self.dr = r_s - r_d
        # An overflowing gamma * n is inf here; the kernels reject it.
        with np.errstate(over="ignore"):
            self.gn = gamma * n

    @classmethod
    def of(cls, params) -> "ParamBatch":
        """Stack a sequence of ``ModelParams``, one row each."""
        return cls(*np.array([_FIELDS(p) for p in params], dtype=float).reshape(-1, len(_NAMES)).T)

    def __len__(self) -> int:
        return len(self.d)

    def take(self, rows, **changes) -> "ParamBatch":
        """The rows ``rows``, with the columns named in ``changes`` replaced."""
        return ParamBatch(*(changes[name] if name in changes else column[rows]
                            for name, column in zip(_NAMES, _FIELDS(self))))


class RowErrors:
    """The first library error met by each row of a batch."""

    def __init__(self):
        self.first: Dict[int, AdvisorGameError] = {}

    def add(self, mask, make: Callable[[int], AdvisorGameError]) -> None:
        """Record ``make(i)`` for every row i in ``mask`` that has no error yet."""
        if not np.count_nonzero(mask):
            return
        for i in np.flatnonzero(mask).tolist():
            if i not in self.first:
                self.first[i] = make(i)

    def merge(self, other: "RowErrors", rows) -> None:
        """Take over the errors of a batch made of ``rows`` of this one."""
        for i in sorted(other.first):
            self.first.setdefault(int(rows[i]), other.first[i])

    def raise_first(self) -> None:
        if self.first:
            raise self.first[min(self.first)]


def one_row(kernel, batch):
    """``kernel(batch, errors)`` on a batch of one row; raises the row's
    error, if any. This is how the scalar entry points run."""
    errors = RowErrors()
    with np.errstate(all="ignore"):
        result = kernel(batch, errors)
    errors.raise_first()
    return result


def where_max(a, b):
    """Python's ``max(a, b)``: ``a`` unless ``b > a``."""
    return np.where(b > a, b, a)


def where_min(a, b):
    """Python's ``min(a, b)``: ``a`` unless ``b < a``."""
    return np.where(b < a, b, a)
