"""Hash families, slicing, prime search, and the constraint stack."""

import random
from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from pact.hashing import (
    Family,
    HashConstraint,
    Slice,
    eval_hash,
    generate_hash,
    slice_projection,
    smallest_prime_above,
)
from pact.smtlib import ProjectionSet, SortedVar


def proj(*widths):
    return ProjectionSet(
        tuple(SortedVar(f"v{i}", f"(_ BitVec {w})", w) for i, w in enumerate(widths))
    )


# ---------------------------------------------------------------------------
# slicing


def test_slice_even_split():
    slices = slice_projection(proj(8), 4)
    assert slices == (Slice("v0", 8, 0, 4), Slice("v0", 8, 4, 8))


def test_slice_final_narrower():
    slices = slice_projection(proj(10), 4)
    assert [(s.lo, s.hi) for s in slices] == [(0, 4), (4, 8), (8, 10)]
    assert [s.width for s in slices] == [4, 4, 2]


def test_slice_narrow_variable():
    slices = slice_projection(proj(1), 4)
    assert slices == (Slice("v0", 1, 0, 1),)


def test_slice_multi_variable_order():
    slices = slice_projection(proj(8, 3), 4)
    assert [s.var for s in slices] == ["v0", "v0", "v1"]


@given(st.lists(st.integers(1, 70), min_size=1, max_size=4), st.integers(1, 8))
def test_slice_reconstructs_variables(widths, ell):
    """Concatenating slice values (high to low) rebuilds each variable."""
    p = proj(*widths)
    slices = slice_projection(p, ell)
    rng = random.Random(17)
    model = {v.name: rng.getrandbits(v.width) for v in p.variables}
    for var in p.variables:
        own = [s for s in slices if s.var == var.name]
        assert sum(s.width for s in own) == var.width
        rebuilt = 0
        for s in own:  # low to high as returned
            rebuilt |= ((model[var.name] >> s.lo) & ((1 << s.width) - 1)) << s.lo
        assert rebuilt == model[var.name]


# ---------------------------------------------------------------------------
# prime search


def _is_prime_trial(n):
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


def _next_prime_trial(n):
    c = n + 1
    while not _is_prime_trial(c):
        c += 1
    return c


def test_smallest_prime_above_known_values():
    assert smallest_prime_above(16) == 17
    assert smallest_prime_above(256) == 257
    assert smallest_prime_above(2) == 3


def test_smallest_prime_above_matches_trial_division():
    for n in range(1, 2000):
        assert smallest_prime_above(n) == _next_prime_trial(n)
    for n in [10**6, 2**31, 2**33 + 5]:
        assert smallest_prime_above(n) == _next_prime_trial(n)


# ---------------------------------------------------------------------------
# evaluation


def test_eval_prime_hand_computed():
    c = HashConstraint(
        family=Family.PRIME,
        slices=(Slice("x", 4, 0, 4),),
        coeffs=(2,),
        offset=1,
        range_size=5,
        target=0,
        ell=2,
        widened_width=9,
    )
    assert eval_hash(c, {"x": 3}) == (2 * 3 + 1) % 5 == 2


def test_eval_shift_hand_computed():
    # (5*9 + 3) mod 256 = 48 = 00110000b, bits [6, 8) = 00
    c = HashConstraint(
        family=Family.SHIFT,
        slices=(Slice("x", 4, 0, 4),),
        coeffs=(5,),
        offset=3,
        range_size=4,
        target=0,
        ell=2,
        widened_width=8,
    )
    assert eval_hash(c, {"x": 9}) == 0


def test_eval_xor_parity_of_selected_bits():
    c = HashConstraint(
        family=Family.XOR,
        slices=(Slice("x", 3, 0, 1), Slice("x", 3, 1, 2), Slice("x", 3, 2, 3)),
        coeffs=(1, 0, 1),
        offset=None,
        range_size=2,
        target=0,
        ell=1,
    )
    # x = 0b011: bits (b0, b1, b2) = (1, 1, 0); selected b0, b2 -> 1 xor 0 = 1
    assert eval_hash(c, {"x": 0b011}) == 1
    assert eval_hash(c, {"x": 0b100}) == 1
    assert eval_hash(c, {"x": 0b101}) == 0


# ---------------------------------------------------------------------------
# generation


def test_generate_xor_domains():
    p = proj(8, 3)
    c = generate_hash(p, 1, Family.XOR, random.Random(0))
    assert c.family is Family.XOR
    assert c.range_size == 2
    assert c.slices == slice_projection(p, 8)  # one whole-variable slice each
    assert [sl.width for sl in c.slices] == [8, 3]
    assert all(0 <= a < 2**sl.width for a, sl in zip(c.coeffs, c.slices))
    assert c.target in (0, 1)
    assert c.offset is None
    assert len(generate_hash(proj(32), 1, Family.XOR, random.Random(0)).slices) == 1


@pytest.mark.parametrize("widths", [(20,), (70,), (20, 20)], ids=lambda w: "+".join(map(str, w)))
def test_xor_masks_select_every_bit_about_half_the_time(widths):
    """Every bit of an xor mask is an independent fair coin, so over N draws
    the number of masks selecting a given bit is Binomial(N, 1/2).  By
    Hoeffding, P(|count - N/2| >= t) <= 2 exp(-2 t^2 / N): with N = 400 and
    t = 60 that is 2 exp(-18) < 3.1e-8 per bit, and under 2.2e-6 over all 70
    bits by the union bound.  A draw that never selects some bit reads 0
    there, 200 from N/2.  With two variables, bit i of one mask equals bit i
    of the other with probability 1/2 as well; a split that gave both the
    same bits would agree in all N draws.  The masks, joined low variable
    first, are the one `getrandbits` of all the bits that a twin stream
    gives, then the target: the draw order every estimate depends on."""
    n_draws, t = 400, 60
    p = proj(*widths)
    rng, twin = random.Random(f"xor-bits/{widths}"), random.Random(f"xor-bits/{widths}")
    selected = [0] * p.total_width
    agree = [0] * min(widths)
    for _ in range(n_draws):
        c = generate_hash(p, 1, Family.XOR, rng)
        assert len(c.slices) == len(widths)
        joined = sum(mask << sum(widths[:j]) for j, mask in enumerate(c.coeffs))
        assert joined == twin.getrandbits(p.total_width)
        assert c.target == twin.getrandbits(1)
        selected = [k + (joined >> i & 1) for i, k in enumerate(selected)]
        agree = [k + (c.coeffs[0] >> i & 1 == c.coeffs[-1] >> i & 1) for i, k in enumerate(agree)]
    counts = selected + agree if len(widths) == 2 else selected
    assert all(abs(k - n_draws / 2) < t for k in counts), counts


def test_generate_prime_domains():
    p = proj(8)
    c = generate_hash(p, 4, Family.PRIME, random.Random(0))
    assert c.range_size == 17  # smallest prime above 2^4
    assert len(c.slices) == 2
    assert all(0 <= a < 17 for a in c.coeffs)
    assert 0 <= c.offset < 17
    assert 0 <= c.target < 17
    assert c.widened_width == 2 * 4 + 2


def test_generate_shift_domains():
    p = proj(8)
    c = generate_hash(p, 2, Family.SHIFT, random.Random(0))
    assert c.range_size == 4
    wbar = c.widened_width
    assert wbar == 4  # 2 * max slice width
    assert all(0 <= a < 2**wbar for a in c.coeffs)
    assert 0 <= c.offset < 2**wbar
    assert 0 <= c.target < 4


def test_generate_shift_narrow_projection_keeps_extract_legal():
    # all slices narrower than ell: widened width must still cover the
    # top-ell-bits extract and the family precondition wbar >= w + ell - 1
    p = proj(1)
    c = generate_hash(p, 4, Family.SHIFT, random.Random(3))
    assert c.widened_width >= c.ell
    assert c.widened_width >= max(s.width for s in c.slices) + c.ell - 1


def test_generate_deterministic_under_seed():
    p = proj(8, 5)
    for family, ell in [(Family.XOR, 1), (Family.PRIME, 4), (Family.SHIFT, 4)]:
        a = generate_hash(p, ell, family, random.Random(42))
        b = generate_hash(p, ell, family, random.Random(42))
        assert a == b


@given(st.integers(1, 24), st.integers(0, 2**32), st.sampled_from(list(Family)))
def test_eval_hash_in_range(width, seed, family):
    p = proj(width)
    rng = random.Random(seed)
    ell = 1 if family is Family.XOR else 4
    c = generate_hash(p, ell, family, rng)
    x = rng.getrandbits(width)
    assert 0 <= eval_hash(c, {"v0": x}) < c.range_size


# ---------------------------------------------------------------------------
# family quality: exact pairwise independence / balance on small domains


def test_prime_family_pairwise_independent_exhaustive():
    # p=5, d=1: over all 25 (a, b) draws, each (h(x1), h(x2)) pair value
    # shows up exactly once for any fixed x1 != x2
    p = 5
    for x1, x2 in product(range(p), repeat=2):
        if x1 == x2:
            continue
        counts = {}
        for a, b in product(range(p), repeat=2):
            pair = ((a * x1 + b) % p, (a * x2 + b) % p)
            counts[pair] = counts.get(pair, 0) + 1
        assert len(counts) == p * p
        assert set(counts.values()) == {1}


def test_xor_family_balanced_small():
    # any nonzero coefficient vector splits n-bit space exactly in half
    for n in range(1, 7):
        for a in range(1, 2**n):
            ones = sum(
                1 for x in range(2**n) if bin(a & x).count("1") % 2 == 0
            )
            assert ones == 2 ** (n - 1)


def test_shift_family_pairwise_independent_exhaustive():
    # exhaustive over all (a, b) at small sizes; wbar = max(2w, w + ell - 1)
    for w, ell in [(1, 1), (2, 1), (2, 2)]:
        wbar = max(2 * w, w + ell - 1)
        mod = 1 << wbar
        expect = mod * mod // (1 << (2 * ell))
        for x1, x2 in product(range(1 << w), repeat=2):
            if x1 == x2:
                continue
            counts = {}
            for a, b in product(range(mod), repeat=2):
                h1 = ((a * x1 + b) % mod) >> (wbar - ell)
                h2 = ((a * x2 + b) % mod) >> (wbar - ell)
                counts[(h1, h2)] = counts.get((h1, h2), 0) + 1
            assert set(counts.values()) == {expect}


@settings(max_examples=25)
@given(st.integers(0, 2**32), st.integers(2, 10))
def test_xor_constraint_partitions_space(seed, width):
    """Each drawn xor constraint splits the full space into the two target
    classes whose sizes sum to 2^width."""
    p = proj(width)
    rng = random.Random(seed)
    c = generate_hash(p, 1, Family.XOR, rng)
    sizes = [0, 0]
    for x in range(2**width):
        sizes[eval_hash(c, {"v0": x})] += 1
    assert sum(sizes) == 2**width
    if any(c.coeffs):
        assert sizes[0] == sizes[1]
