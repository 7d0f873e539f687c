"""Pairwise-independent hash constraints over sliced bitvector projections.

Wide projection variables are cut into slices of at most `ell` bits; a
hash constraint is a random function of the slice vector whose range has
size p, pinned to a random target value.  Three families:

  XOR    parity of a random subset of the individual projection bits
         (p = 2; one slice per variable, its coefficient a mask of its bits)
  PRIME  (sum a_i x_i + b) mod p with p the smallest prime above 2^ell
  SHIFT  top ell bits of (sum a_i x_i + b) mod 2^wbar, p = 2^ell

Each accepted draw is uniform over its family; coefficients may be zero.
"""

from __future__ import annotations

import enum
import functools
import itertools
import random
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .errors import RangeExceeded
from .smtlib import ProjectionSet


class Family(enum.Enum):
    XOR = "xor"
    PRIME = "prime"
    SHIFT = "shift"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Slice:
    """Bits [lo, hi) of a projection variable."""

    var: str
    parent_width: int
    lo: int
    hi: int

    @property
    def width(self) -> int:
        return self.hi - self.lo

    def value(self, assignment: int) -> int:
        return (assignment >> self.lo) & ((1 << self.width) - 1)


@dataclass(frozen=True)
class HashConstraint:
    family: Family
    slices: tuple[Slice, ...]
    coeffs: tuple[int, ...]  # XOR: a mask over its slice's bits, low bit first
    offset: int | None  # b; absent for XOR
    range_size: int  # p: number of cells this constraint splits into
    target: int  # alpha
    ell: int  # range exponent the draw was made at
    widened_width: int | None = None  # arithmetic width for PRIME/SHIFT

    @functools.cached_property
    def packed(self) -> np.ndarray:
        """The numbers `satisfied` reads.  XOR: one mask per variable, in
        slice order, of its selected bits.  PRIME and SHIFT: one coefficient
        per slice, then the offset (mod p for PRIME).  The dtype is the
        narrowest that keeps the arithmetic exact, object (Python ints) past
        64 bits: for PRIME it holds the whole sum, so one mod at the end
        suffices; for SHIFT it has at least wbar bits, so its wraparound is
        exact mod 2^wbar."""
        if self.family is Family.XOR:
            masks = dict.fromkeys((sl.var for sl in self.slices), 0)
            for coeff, sl in zip(self.coeffs, self.slices):
                masks[sl.var] |= coeff << sl.lo
            values = list(masks.values())
            bits = max(sl.parent_width for sl in self.slices)
        elif self.family is Family.PRIME:
            p = self.range_size
            values = [*self.coeffs, self.offset % p]
            bound = p + max(self.coeffs) * sum((1 << sl.width) - 1 for sl in self.slices)
            bits = bound.bit_length()
        else:
            values, bits = [*self.coeffs, self.offset], self.widened_width
        return np.array(values, dtype=column_dtype(bits))

    @functools.cached_property
    def layout(self) -> tuple[tuple[str, slice, np.ndarray, np.ndarray], ...]:
        """How `satisfied` cuts the columns: per variable, in slice order,
        its name, the positions of its slices in `coeffs`, and their shifts
        and masks as (slices x 1) arrays in the variable's column dtype."""
        return _layout(self.slices)


@functools.lru_cache(maxsize=256)
def _layout(slices: tuple[Slice, ...]) -> tuple[tuple[str, slice, np.ndarray, np.ndarray], ...]:
    # memoized: the constraints of a chain share one slicing
    out, start = [], 0
    for var, group in itertools.groupby(slices, key=lambda sl: sl.var):
        group = tuple(group)
        dtype = column_dtype(group[0].parent_width)
        out.append((
            var,
            slice(start, start + len(group)),
            np.array([[sl.lo] for sl in group], dtype=dtype),
            np.array([[(1 << sl.width) - 1] for sl in group], dtype=dtype),
        ))
        start += len(group)
    return tuple(out)


_UINTS = tuple(np.dtype(t) for t in (np.uint8, np.uint16, np.uint32, np.uint64))


def column_dtype(width: int) -> np.dtype:
    """The narrowest unsigned dtype of at least `width` bits (uint8, 16, 32
    or 64), or object, for Python ints, above 64 bits."""
    for dtype in _UINTS:
        if width <= 8 * dtype.itemsize:
            return dtype
    return np.dtype(object)


def value_columns(widths: Sequence[int], rows: Sequence[tuple[int, ...]]) -> list[np.ndarray]:
    """One column per variable of `rows`, value tuples in variable order,
    each at its width's `column_dtype`: the layout `satisfied` reads."""
    return [
        np.fromiter((row[j] for row in rows), dtype=column_dtype(w), count=len(rows))
        for j, w in enumerate(widths)
    ]


@functools.lru_cache(maxsize=256)
def slice_projection(projection: ProjectionSet, ell: int) -> tuple[Slice, ...]:
    """Cut each projection variable into ceil(w/ell) slices, low bits first.

    The final slice of a variable keeps its natural (narrower) width.
    Memoized: every draw of a chain slices the same projection alike.
    """
    if ell < 1:
        raise ValueError(f"slice width must be >= 1, got {ell}")
    out: list[Slice] = []
    for var in projection.variables:
        lo = 0
        while lo < var.width:
            hi = min(lo + ell, var.width)
            out.append(Slice(var.name, var.width, lo, hi))
            lo = hi
    return tuple(out)


# Deterministic Miller-Rabin witnesses, exact for all n < 2^64.
_MR_WITNESSES = (2, 325, 9375, 28178, 450775, 9780504, 1795265022)
_PRIME_LIMIT = 1 << 64


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for small in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % small == 0:
            return n == small
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in _MR_WITNESSES:
        a %= n
        if a == 0:
            continue
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def smallest_prime_above(n: int) -> int:
    """Smallest prime strictly greater than n; exact up to 2^64."""
    candidate = n + 1
    if candidate <= 2:
        return 2
    if candidate % 2 == 0:
        candidate += 1
    while True:
        if candidate >= _PRIME_LIMIT:
            raise RangeExceeded(
                f"prime search above {n} leaves the exact range (< 2^64)"
            )
        if _is_prime(candidate):
            return candidate
        candidate += 2


def _widened_width_shift(slices: tuple[Slice, ...], ell: int) -> int:
    # 2*w_max in the normal case; the max() keeps the top-ell extract
    # well-formed (and the family precondition wbar >= w + ell - 1) when
    # every slice is narrower than ell
    w_max = max(s.width for s in slices)
    return max(2 * w_max, w_max + ell - 1)


def range_size(family: Family, ell: int) -> int:
    """p, the number of cells a constraint drawn at exponent `ell` splits
    into: 2 for XOR, the smallest prime above 2^ell for PRIME, 2^ell for SHIFT."""
    if family is Family.XOR:
        return 2
    if family is Family.PRIME:
        return smallest_prime_above(1 << ell)
    return 1 << ell


def generate_hash(
    projection: ProjectionSet, ell: int, family: Family, rng: random.Random
) -> HashConstraint:
    """Draw one constraint; a fresh target is sampled with every call."""
    p = range_size(family, ell)
    if family is Family.XOR:
        # one mask over all projection bits, split low variable first
        n = projection.total_width
        slices = slice_projection(projection, n)
        mask = rng.getrandbits(n)
        coeffs = []
        for sl in slices:
            coeffs.append(mask & ((1 << sl.width) - 1))
            mask >>= sl.width
        return HashConstraint(
            family=family,
            slices=slices,
            coeffs=tuple(coeffs),
            offset=None,
            range_size=p,
            target=rng.getrandbits(1),
            ell=1,
        )
    slices = slice_projection(projection, ell)
    if family is Family.PRIME:
        return HashConstraint(
            family=family,
            slices=slices,
            coeffs=tuple(rng.randrange(p) for _ in slices),
            offset=rng.randrange(p),
            range_size=p,
            target=rng.randrange(p),
            ell=ell,
            # the full sum fits: each of the d terms is below 2^(2*ell+1)
            widened_width=2 * ell + len(slices),
        )
    if family is Family.SHIFT:
        wbar = _widened_width_shift(slices, ell)
        return HashConstraint(
            family=family,
            slices=slices,
            coeffs=tuple(rng.getrandbits(wbar) for _ in slices),
            offset=rng.getrandbits(wbar),
            range_size=p,
            target=rng.getrandbits(ell),
            ell=ell,
            widened_width=wbar,
        )
    raise ValueError(f"unknown hash family {family!r}")


def eval_hash(constraint: HashConstraint, model: Mapping[str, int]) -> int:
    """Evaluate the hash value (not the constraint) on a projected model.

    This is the reference semantics the InMemory oracle and the rendered
    SMT-LIB2 text must both agree with.
    """
    values = (s.value(model[s.var]) for s in constraint.slices)
    if constraint.family is Family.XOR:
        return sum((coeff & v).bit_count() for coeff, v in zip(constraint.coeffs, values)) & 1
    total = constraint.offset
    for coeff, v in zip(constraint.coeffs, values):
        total += coeff * v
    if constraint.family is Family.PRIME:
        return total % constraint.range_size
    # SHIFT: top ell bits of the wbar-bit wrap-around sum
    wbar = constraint.widened_width
    return (total % (1 << wbar)) >> (wbar - constraint.ell)


def satisfied(
    constraints: Sequence[HashConstraint], columns: Mapping[str, np.ndarray]
) -> np.ndarray:
    """Whether each model meets each constraint: row k of the result holds
    constraint k's verdict on each model.

    The constraints share one family and one slicing, as the constraints of
    a chain drawn at one range exponent do.  `columns` maps every projection
    variable to an array with one value per model, as `value_columns` builds
    them.  Hash values are computed in the dtype of the constraints'
    `packed`; past 64 bits that is object, whose loops run the same code on
    Python ints.
    """
    rows = [c.packed for c in constraints]
    packed = rows[0][None, :] if len(rows) == 1 else np.stack(rows)
    first = constraints[0]
    if first.family is Family.XOR:
        # each variable's parity of its selected bits
        values = None
        for j, (name, _at, _lo, _mask) in enumerate(first.layout):
            col = columns[name]
            ones = np.bitwise_count(packed[:, j : j + 1].astype(col.dtype, copy=False) & col)
            values = ones if values is None else values ^ ones
        values &= 1
    else:
        dtype = packed.dtype
        values = packed[:, -1:]  # the offsets
        for name, at, lo, mask in first.layout:
            # every slice of the variable at once, slices x models, cut at
            # the column's width and summed at the arithmetic's
            part = columns[name] >> lo
            part &= mask
            part = part.astype(dtype, copy=False)
            values = values + np.einsum("ks,sn->kn", packed[:, at], part)
        if first.family is Family.PRIME:
            values %= first.range_size
        else:
            wbar = first.widened_width
            values &= (1 << wbar) - 1
            values >>= wbar - first.ell
    targets = np.array([c.target for c in constraints], dtype=values.dtype)
    return values == targets[:, None]
