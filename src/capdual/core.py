"""Shared domain types: weight vectors, log-domain scalars, partitions, reports.

Quantities that decay or grow exponentially in the tensor power k are carried
as LogValue (a sign together with the natural log of the magnitude) so that
runs with k up to 10^4 neither underflow nor overflow IEEE doubles. LogValue
is a carrier, not an arithmetic: the modules that produce one sum in log
domain over their own arrays, and a LogValue only converts to float, compares
(isclose) and takes integer powers. The value types are frozen dataclasses;
ConvergenceReport is a mutable record.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from typing import Iterable, Iterator, Mapping, Sequence, Union

import numpy as np

__all__ = [
    "MAX_WEIGHT_COORD",
    "AMPLITUDE_SQ_FLOOR",
    "LogValue",
    "WeightVector",
    "WeightedVector",
    "Partition",
    "ConvergenceReport",
    "as_fraction",
    "rational_vector",
    "fraction_log",
    "power_rows",
]

# Largest admissible absolute value of a weight coordinate.
MAX_WEIGHT_COORD = 10**6

# Squared amplitudes below this floor are treated as exact zeros when pruning.
AMPLITUDE_SQ_FLOOR = 1e-30


@dataclass(frozen=True)
class LogValue:
    """A real number stored as (sign, log magnitude).

    sign is -1, 0 or +1; for sign 0 the magnitude is fixed to -inf so that
    zero has a single representation.
    """

    sign: int
    log_mag: float

    def __post_init__(self) -> None:
        if self.sign not in (-1, 0, 1):
            raise ValueError(f"sign must be -1, 0 or +1, got {self.sign}")
        if self.sign == 0 and self.log_mag != -math.inf:
            object.__setattr__(self, "log_mag", -math.inf)
        if math.isnan(self.log_mag):
            raise ValueError("log magnitude must not be NaN")

    @staticmethod
    def zero() -> "LogValue":
        return LogValue(0, -math.inf)

    @staticmethod
    def one() -> "LogValue":
        return LogValue(1, 0.0)

    def to_float(self) -> float:
        if self.sign == 0:
            return 0.0
        try:
            return self.sign * math.exp(self.log_mag)
        except OverflowError:
            return self.sign * math.inf

    def __pow__(self, k: int) -> "LogValue":
        if not isinstance(k, int):
            raise TypeError("LogValue exponents must be integers")
        if self.sign == 0:
            if k <= 0:
                raise ZeroDivisionError("zero LogValue to a nonpositive power")
            return LogValue.zero()
        s = 1 if (self.sign > 0 or k % 2 == 0) else -1
        return LogValue(s, self.log_mag * k)

    def isclose(self, other: "LogValue", rel_tol: float = 1e-12) -> bool:
        if self.sign != other.sign:
            return self.sign == other.sign == 0
        if self.sign == 0:
            return True
        return math.isclose(self.log_mag, other.log_mag, rel_tol=rel_tol, abs_tol=rel_tol)


def fraction_log(x: Union[Fraction, int]) -> LogValue:
    """Exact-rational to LogValue; math.log handles huge integers directly."""
    fr = Fraction(x)
    if fr == 0:
        return LogValue.zero()
    sign = 1 if fr > 0 else -1
    return LogValue(sign, math.log(abs(fr.numerator)) - math.log(fr.denominator))


RationalLike = Union[Rational, int, float, str]


def as_fraction(x: RationalLike, tol: float = 1e-9) -> Fraction:
    """Coerce a rational-like input (Fraction, int, "p/q" string, float) to Fraction.

    An exact Fraction is returned as it is, with no copy. Floats are
    rationalized to the nearest fraction with denominator at most 10^6 and
    rejected if that approximation is farther than tol.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        return Fraction(x)
    if isinstance(x, Rational):
        return Fraction(x)
    if isinstance(x, float):
        if not math.isfinite(x):
            raise ValueError(f"cannot rationalize {x}")
        fr = Fraction(x).limit_denominator(10**6)
        if abs(fr - Fraction(x)) > tol:
            raise ValueError(f"{x} is not within {tol} of a small rational")
        return fr
    raise TypeError(f"cannot interpret {type(x).__name__} as a rational")


def rational_vector(xs: Sequence[RationalLike], n: int | None = None,
                    tol: float = 1e-9) -> tuple[Fraction, ...]:
    vec = tuple(as_fraction(x, tol) for x in xs)
    if n is not None and len(vec) != n:
        raise ValueError(f"expected a vector of length {n}, got {len(vec)}")
    return vec


@dataclass(frozen=True, order=True)
class WeightVector:
    """An integer weight of the torus, i.e. a point of the character lattice."""

    coords: tuple[int, ...]

    def __post_init__(self) -> None:
        coords = tuple(int(c) for c in self.coords)
        object.__setattr__(self, "coords", coords)
        if len(coords) < 1:
            raise ValueError("weight vectors must have at least one coordinate")
        for c in coords:
            if abs(c) > MAX_WEIGHT_COORD:
                raise ValueError(f"weight coordinate {c} exceeds bound {MAX_WEIGHT_COORD}")

    def __len__(self) -> int:
        return len(self.coords)

    def __iter__(self) -> Iterator[int]:
        return iter(self.coords)

    def dot(self, x: Sequence[float]) -> float:
        return sum(a * b for a, b in zip(self.coords, x, strict=True))


WeightLike = Union[WeightVector, Sequence[int], int]


def _as_weight(w: WeightLike, n: int) -> WeightVector:
    if isinstance(w, WeightVector):
        wv = w
    elif isinstance(w, int):
        wv = WeightVector((w,))
    else:
        wv = WeightVector(tuple(w))
    if len(wv) != n:
        raise ValueError(f"weight {wv.coords} does not live in Z^{n}")
    return wv


@dataclass(frozen=True)
class WeightedVector:
    """A vector in a torus representation, stored by weight components.

    terms maps each occupied weight to its complex amplitude. Weights are
    pairwise distinct and canonically sorted; exact-zero amplitudes are
    dropped at construction, so an empty term list is the zero vector.
    """

    n: int
    terms: tuple[tuple[WeightVector, complex], ...]

    def __post_init__(self) -> None:
        cleaned = []
        for w, amp in self.terms:
            wv = _as_weight(w, self.n)
            c = complex(amp)
            if not (math.isfinite(c.real) and math.isfinite(c.imag)):
                raise ValueError(f"non-finite amplitude {c} at weight {wv.coords}")
            if c != 0:
                cleaned.append((wv, c))
        cleaned.sort(key=lambda t: t[0].coords)
        seen = set()
        for wv, _ in cleaned:
            if wv.coords in seen:
                raise ValueError(f"duplicate weight {wv.coords}")
            seen.add(wv.coords)
        object.__setattr__(self, "terms", tuple(cleaned))

    @classmethod
    def from_terms(cls, n: int, terms: Mapping[WeightLike, complex] | Iterable[tuple[WeightLike, complex]]) -> "WeightedVector":
        items = terms.items() if isinstance(terms, Mapping) else terms
        return cls(n, tuple((w, a) for w, a in items))

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def support(self) -> tuple[WeightVector, ...]:
        return tuple(w for w, _ in self.terms)

    @property
    def norm_sq(self) -> float:
        return sum(abs(c) ** 2 for _, c in self.terms)

    def amplitudes_sq(self) -> dict[WeightVector, float]:
        return {w: abs(c) ** 2 for w, c in self.terms}

    def born(self) -> dict[WeightVector, float]:
        """Normalized squared amplitudes (a probability over the support)."""
        ns = self.norm_sq
        if ns == 0:
            raise ValueError("the zero vector carries no Born distribution")
        return {w: abs(c) ** 2 / ns for w, c in self.terms}

    def pruned(self, floor: float = AMPLITUDE_SQ_FLOOR) -> "WeightedVector":
        """Drop components with squared amplitude below floor (treated as exact
        zeros). With none below it this is self, already validated, not a
        rebuilt copy."""
        kept = tuple((w, c) for w, c in self.terms if abs(c) ** 2 >= floor)
        return self if len(kept) == len(self.terms) else WeightedVector(self.n, kept)

    def normalized(self) -> "WeightedVector":
        ns = self.norm_sq
        if ns == 0:
            raise ValueError("cannot normalize the zero vector")
        s = 1.0 / math.sqrt(ns)
        return WeightedVector(self.n, tuple((w, c * s) for w, c in self.terms))

    def scaled_by_character(self, x0: Sequence[float]) -> "WeightedVector":
        """Multiply each component by e^{<w, x0>} (a positive Borel rescaling)."""
        return WeightedVector(
            self.n, tuple((w, c * math.exp(w.dot(x0))) for w, c in self.terms))


@dataclass(frozen=True, order=True)
class Partition:
    """An integer partition; trailing zeros are stripped to a canonical form."""

    parts: tuple[int, ...]

    def __post_init__(self) -> None:
        parts = tuple(int(p) for p in self.parts)
        if any(p < 0 for p in parts):
            raise ValueError(f"negative part in {parts}")
        if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
            raise ValueError(f"parts must be non-increasing, got {parts}")
        while parts and parts[-1] == 0:
            parts = parts[:-1]
        object.__setattr__(self, "parts", parts)

    @property
    def size(self) -> int:
        return sum(self.parts)

    def __len__(self) -> int:
        return len(self.parts)

    def padded(self, n: int) -> tuple[int, ...]:
        if len(self.parts) > n:
            raise ValueError(f"partition {self.parts} has more than {n} parts")
        return self.parts + (0,) * (n - len(self.parts))


@dataclass
class ConvergenceReport:
    """A tabular per-k report with named columns and free-form metadata.

    Producers document their column names; every log-scale column uses
    natural logarithms. The conventional duality gap column is nonnegative
    up to round-off whenever weak duality applies.
    """

    columns: tuple[str, ...]
    rows: list[tuple]
    metadata: dict = field(default_factory=dict)

    def column(self, name: str) -> list:
        idx = self.columns.index(name)
        return [row[idx] for row in self.rows]

    def check_weak_duality(self, gap_column: str = "gap", tol: float = 1e-10) -> bool:
        return all(g >= -tol for g in self.column(gap_column) if not math.isnan(g))


def power_rows(coeffs: Mapping[int, int | complex],
               k_max: int) -> Iterator[tuple[int, np.ndarray]]:
    """(lo, row) for k = 1 .. k_max: row[i] is the coefficient of z^(lo + i)
    in (sum_e c_e z^e)^k, from the unit row of k = 0 by one shifted add per
    nonzero term a power. Every nonzero cell sits on the lattice g Z that
    the offsets e - lo span, so the adds read and write only every g-th
    cell, and a coefficient 1 adds without a multiply. This is the one path
    to Laurent constant terms and rank-1 weight counts. coeffs needs a key
    (a zero coefficient still widens the row); integer coefficients give
    exact rows of Python ints (dtype object), any other puts every row in
    complex128.
    """
    lo = min(coeffs)
    width = max(coeffs) - lo
    dtype = object if all(isinstance(c, int) for c in coeffs.values()) else complex
    terms = [(e - lo, c) for e, c in coeffs.items() if c]
    g = math.gcd(*(s for s, _ in terms)) or 1
    row = np.ones(1, dtype=dtype)
    for k in range(1, k_max + 1):
        new = np.zeros(len(row) + width, dtype=dtype)
        src = row[::g]
        for s, c in terms:
            new[s::g][:len(src)] += src if c == 1 else c * src
        row = new
        yield k * lo, row
