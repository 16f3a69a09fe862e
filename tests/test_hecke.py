"""The algebra kernel: rewriting rule, products, embeddings, extraction."""

import ast
import collections
import concurrent.futures
import itertools
import math
import pathlib
import random
import sys
import threading

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import hecke, invariants, symmetrizers
from qyoung import permutations as perms
from qyoung.errors import TooLarge
from qyoung.hecke import HeckeElement, Z, _element, _encode, _packed, _Packed, extract_scalar
from qyoung.laurent import MAX_EXPONENT_SPAN, LaurentPoly, ONE, S, ZERO
from qyoung.central import full_twist
from qyoung.partitions import Partition, all_partitions
from qyoung.symmetrizers import alpha_extract, antisymmetrizer, e_lambda, row_element, symmetrizer

from . import oracles
from .oracles import group_algebra_mul


def unit(n):
    return HeckeElement.unit(n)


def gen(n, i):
    return HeckeElement.generator(n, i)


def basis(n, *one_line):
    return HeckeElement.basis_element(n, tuple(one_line))


def times(x, c):
    """c * x term by term, outside the packed kernel that ``scale`` runs on."""
    return HeckeElement(x.n, {p: v * c for p, v in x.coeffs.items()})


def rewritten(x, p, q):
    """w_q, plus z x for x = w_p when q is shorter than p: one rewriting step."""
    w_q = basis(len(q), *q)
    return w_q + times(x, Z) if oracles.length(q) < oracles.length(p) else w_q


def random_element(n, max_terms=3):
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    coeff = st.builds(
        LaurentPoly.from_pairs,
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), max_size=3),
    )
    return st.lists(st.tuples(perm, coeff), max_size=max_terms).map(
        lambda pairs: HeckeElement(n, dict(pairs))
    )


class TestBasisElements:
    def test_identity_is_unit(self):
        e = basis(3, 1, 2, 3)
        assert e == unit(3)
        assert len(e.coeffs) == 1

    def test_generator_is_simple_braid(self):
        assert gen(3, 1) == basis(3, 2, 1, 3)

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            HeckeElement.basis_element(3, (2, 1))

    def test_rejects_bad_generator_index(self):
        with pytest.raises(IndexError):
            HeckeElement.generator(3, 3)

    @pytest.mark.parametrize(
        "key",
        [(1, 1, 3), (0, 1, 2), (1, 2, 4), (3, 2, 2), (2.0, 1.0, 3.0), (True, 3, 2)],
    )
    def test_rejects_non_permutation_keys(self, key):
        # The constructor is the one gate: every product and generator step
        # starts from a constructed element, so no other path can meet such
        # a key.
        with pytest.raises(ValueError, match="not a permutation"):
            HeckeElement(3, {key: ONE})


class TestGeneratorAction:
    def test_quadratic_relation(self):
        # w_{s1} * g_1 = w_e + z w_{s1}
        moved = gen(2, 1).mul_generator(1)
        assert moved == unit(2) + gen(2, 1).scale(Z)

    def test_ascending_step(self):
        assert unit(2).mul_generator(1) == gen(2, 1)

    def test_inverse_cancels(self):
        x = gen(2, 1).mul_generator(1)
        assert x.mul_generator(1, sign=-1) == gen(2, 1)

    def test_left_and_right_agree_with_full_product(self):
        # The reference is the rewriting rule itself, on permutations from the
        # oracles: g_i w_p = w_{s_i p} and w_p g_i = w_{p s_i}, each plus z w_p
        # when the new permutation is shorter; and g_i^-1 = g_i - z.
        for n in (2, 3, 4):
            for p in itertools.permutations(range(1, n + 1)):
                x = basis(n, *p)
                for i in range(1, n):
                    g, g_inv = gen(n, i), unit(n).mul_generator(i, -1)
                    assert g_inv == g - unit(n).scale(Z)
                    s_i = oracles.transposition(n, i)
                    left = rewritten(x, p, oracles.compose(s_i, p))
                    right = rewritten(x, p, oracles.compose(p, s_i))
                    assert g * x == left
                    assert g_inv * x == left - x.scale(Z)
                    assert x * g == x.mul_generator(i) == right
                    assert x * g_inv == x.mul_generator(i, -1) == right - x.scale(Z)
                    assert g * (g_inv * x) == x == (x * g) * g_inv


def rewritten_term_by_term(x, i, sign):
    """
    x g_i (sign=+1) or x g_i^-1 (sign=-1), one basis term at a time: c w_p
    goes to c w_{p s_i}, plus z c w_p for g_i when p s_i is shorter, minus
    z c w_p for g_i^-1 when p s_i is longer.  Terms are summed with +.
    """
    n = x.n
    s_i = oracles.transposition(n, i)
    out = HeckeElement.zero(n)
    for p, c in x.coeffs.items():
        q = oracles.compose(p, s_i)
        out = out + HeckeElement(n, {q: c})
        shorter = oracles.length(q) < oracles.length(p)
        if sign == 1 and shorter:
            out = out + HeckeElement(n, {p: c * Z})
        elif sign == -1 and not shorter:
            out = out - HeckeElement(n, {p: c * Z})
    return out


def rewritten_in_one_pass(x, i, sign):
    """
    The coefficients of rewritten_term_by_term(x, i, sign), by the same rule
    summed into one dict of coefficients: linear in the support, for dense
    tables, where summing elements term by term is quadratic.
    """
    s_i = oracles.transposition(x.n, i)
    out = collections.defaultdict(lambda: ZERO)
    for p, c in x.coeffs.items():
        q = oracles.compose(p, s_i)
        out[q] = out[q] + c
        shorter = oracles.length(q) < oracles.length(p)
        if sign == 1 and shorter:
            out[p] = out[p] + c * Z
        elif sign == -1 and not shorter:
            out[p] = out[p] - c * Z
    return {p: c for p, c in out.items() if c != ZERO}


def dense_element(n):
    """An element with full S_n support: every term has its partner."""
    return HeckeElement(
        n,
        {
            p: LaurentPoly(-1, (1 + k % 3, 0, perms.length(p)))
            for k, p in enumerate(perms.all_permutations(n))
        },
    )


@st.composite
def paired_elements(draw):
    """
    An element of H_3..H_8 with a generator index i, whose support holds
    both members of several pairs {p, p s_i} besides some lone terms: on 8
    strands a sparse support of at most 24 of the 40320 basis braids.
    """
    n = draw(st.integers(3, 8))
    i = draw(st.integers(1, n - 1))
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    coeff = st.builds(
        LaurentPoly.from_pairs,
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-3, 3)), min_size=1, max_size=4),
    )
    s_i = oracles.transposition(n, i)
    table = {}
    for p in draw(st.lists(perm, min_size=1, max_size=12)):
        table[p] = draw(coeff)
        if draw(st.integers(0, 3)):
            table[oracles.compose(p, s_i)] = draw(coeff)
    return HeckeElement(n, table), i


class TestPairedGeneratorKernel:
    @given(paired_elements(), st.sampled_from((1, -1)))
    @settings(max_examples=150, deadline=None)
    def test_matches_term_by_term_rewriting(self, x_and_i, sign):
        x, i = x_and_i
        out = x.mul_generator(i, sign)
        assert out.coeffs == rewritten_term_by_term(x, i, sign).coeffs
        assert out.coeffs == rewritten_in_one_pass(x, i, sign)
        assert all(c.coeffs for c in out.coeffs.values())

    @pytest.mark.parametrize("sign", (1, -1))
    def test_dense_tables_match_term_by_term_rewriting(self, sign):
        x = dense_element(5)
        for i in range(1, 5):
            assert x.mul_generator(i, sign).coeffs == rewritten_term_by_term(x, i, sign).coeffs

    @pytest.mark.slow
    @pytest.mark.parametrize("sign", (1, -1))
    def test_dense_eight_strand_tables_match_the_rewriting_rule(self, sign):
        # The first and the last generator of H_8 on all 40320 basis braids.
        x = dense_element(8)
        for i in (1, 7):
            assert x.mul_generator(i, sign).coeffs == rewritten_in_one_pass(x, i, sign)

    def test_cancelled_pair_leaves_no_zero(self):
        # c_p + z c_q = 0 in the longer member q = p s_2 for g_2, and
        # c_q - z c_p = 0 in the shorter member p for g_2^-1.
        p, q, lone = (2, 1, 3, 4), (2, 3, 1, 4), (1, 2, 4, 3)
        x = HeckeElement(4, {p: -Z, q: ONE, lone: S})
        lone_moved = (1, 4, 2, 3)
        out = x.mul_generator(2)
        assert out.coeffs == {p: ONE, lone_moved: S}
        assert out.coeffs == rewritten_term_by_term(x, 2, 1).coeffs
        y = HeckeElement(4, {p: ONE, q: Z, lone: S})
        back = y.mul_generator(2, -1)
        assert back.coeffs == {q: ONE, lone_moved: S, lone: -(Z * S)}
        assert back.coeffs == rewritten_term_by_term(y, 2, -1).coeffs
        assert ZERO not in out.coeffs.values() and ZERO not in back.coeffs.values()


def is_canonical(c):
    """Zero is LaurentPoly(0, ()); anything else has nonzero end coefficients."""
    if not c.coeffs:
        return c.val == 0
    return c.coeffs[0] != 0 and c.coeffs[-1] != 0


def stepped_term_by_term(x, word, sign=1):
    """x times g_{i_1} ... g_{i_k} (or the inverses), one rewriting step at a time."""
    for i in word:
        x = rewritten_term_by_term(x, i, sign)
    return x


@pytest.fixture
def widenings(monkeypatch):
    """Digit sizes the guard widened to, in order."""
    sizes = []
    original = _Packed._widened

    def spy(self, *args):
        wide = original(self, *args)
        sizes.append(wide.k)
        return wide

    monkeypatch.setattr(_Packed, "_widened", spy)
    return sizes


# Largest coefficient sizes: 2^62 - 1 and 2^63 - 1 fit 64-bit digits, but
# a step's tripled bound does not, so those elements must take the
# widening path; 2^70 starts on 128-bit digits, 2^20 never widens.
TOPS = (2**20, 2**62 - 1, 2**63 - 1, 2**70)


def wide_coeffs(top):
    return st.builds(
        LaurentPoly.from_pairs,
        st.lists(st.tuples(st.integers(-4, 4), st.integers(-top, top)), min_size=1, max_size=4),
    )


@st.composite
def wide_paired_elements(draw):
    """
    An element of H_3..H_5 with mixed-sign coefficients whose largest is
    +-top for a top in TOPS, a generator index i and a sign, holding pairs
    {p, p s_i} of which some cancel exactly under that step.
    """
    n = draw(st.integers(3, 5))
    i = draw(st.integers(1, n - 1))
    sign = draw(st.sampled_from((1, -1)))
    top = draw(st.sampled_from(TOPS))
    coeff = wide_coeffs(top)
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    s_i = oracles.transposition(n, i)
    table = {}
    for p in draw(st.lists(perm, min_size=1, max_size=10)):
        q = oracles.compose(p, s_i)
        if oracles.length(q) < oracles.length(p):
            p, q = q, p
        c = draw(coeff)
        kind = draw(st.integers(0, 2))
        if kind == 0:
            table[p] = c
        elif kind == 1:
            table[p], table[q] = c, draw(coeff)
        elif sign == 1:
            # c_p + z c_q = 0 at q
            table[p], table[q] = -(Z * c), c
        else:
            # c_q - z c_p = 0 at p
            table[p], table[q] = c, Z * c
    extreme = draw(st.permutations(list(range(1, n + 1))).map(tuple))
    table[extreme] = LaurentPoly(draw(st.integers(-4, 4)), (draw(st.sampled_from((top, -top))),))
    return HeckeElement(n, table), i, sign


class TestPackedGuard:
    @given(wide_paired_elements())
    @settings(max_examples=200, deadline=None)
    def test_wide_coefficients_match_term_by_term_rewriting(self, x_i_sign):
        x, i, sign = x_i_sign
        out = x.mul_generator(i, sign)
        assert out.coeffs == rewritten_term_by_term(x, i, sign).coeffs
        assert all(is_canonical(c) and c.coeffs for c in out.coeffs.values())

    def test_digits_just_under_the_limit_widen_instead_of_wrapping(self, widenings):
        # Every coefficient 2^62 - 1 fits 64-bit digits, and one step could
        # triple it past 2^63: the guard must widen before the first step.
        big = 2**62 - 1
        x = HeckeElement(
            4,
            {
                p: LaurentPoly(k % 3 - 1, (big, -big, big) if k % 2 else (-big,))
                for k, p in enumerate(perms.all_permutations(4))
            },
        )
        word = (1, 2, 3, 1, 2, 1, 3, 2)
        packed = _encode(x)
        assert packed.k == 64
        for sign in (1, -1):
            chain = _encode(x)
            for i in word:
                chain = chain.mul_generator(i, sign)
            assert _element(chain).coeffs == stepped_term_by_term(x, word, sign).coeffs
        assert widenings and widenings[0] == 128

    def test_block_sum_and_product_widen_too(self, widenings):
        big = 2**62 - 1
        x = HeckeElement(3, {p: LaurentPoly(0, (big,)) for p in perms.all_permutations(3)})
        y = HeckeElement(3, {p: LaurentPoly(-1, (big, big)) for p in perms.all_permutations(3)})
        assert (x * y).coeffs == kernel_free_product(x, y).coeffs
        assert widenings

    def test_decoding_past_the_bound_is_refused(self):
        # The first read of coeffs is where a packed result is decoded.
        past = _element(_Packed(2, {0: 1}, 0, 64, 2**63, 0))
        with pytest.raises(ArithmeticError):
            past.coeffs


def kernel_free_product(x, y):
    """Sum of c_q * x stepped along reduced_word(q), never touching the packed kernel."""
    out = HeckeElement.zero(x.n)
    for q, c in y.coeffs.items():
        out = out + times(stepped_term_by_term(x, perms.reduced_word(q)), c)
    return out


class TestKernelFreeProducts:
    @given(st.integers(3, 5).flatmap(lambda n: st.tuples(random_element(n, 5), random_element(n, 5))))
    @settings(max_examples=60, deadline=None)
    def test_products_match_rewriting_along_reduced_words(self, xy):
        x, y = xy
        assert (x * y).coeffs == kernel_free_product(x, y).coeffs

    @pytest.mark.parametrize("n", (3, 4))
    def test_dense_products(self, n):
        x = HeckeElement(
            n, {p: LaurentPoly(-1, (1, k % 5 - 2)) for k, p in enumerate(perms.all_permutations(n))}
        )
        y = HeckeElement(
            n, {p: LaurentPoly(k % 3, (k % 4 - 1 or 2,)) for k, p in enumerate(perms.all_permutations(n))}
        )
        assert (x * y).coeffs == kernel_free_product(x, y).coeffs
        assert (y * x).coeffs == kernel_free_product(y, x).coeffs


class TestRankFormat:
    # Inside the packed kernel a permutation is its lexicographic rank.

    @pytest.mark.parametrize("n", range(1, 8))
    def test_rank_and_tuple_round_trip(self, n):
        for r, p in enumerate(itertools.permutations(range(1, n + 1))):
            assert hecke._rank(p) == r
            assert hecke._unrank(n, r) == p

    @pytest.mark.parametrize("n", range(1, 8))
    def test_inverse_rank_from_lehmer_digits(self, n):
        for r in range(math.factorial(n)):
            want = hecke._rank(perms.inverse(hecke._unrank(n, r)))
            assert hecke._rank_of_inverse(n, r) == want

    def test_inverse_rank_from_lehmer_digits_on_sampled_ranks_of_s8(self):
        for r in random.Random(8).sample(range(math.factorial(8)), 2000):
            want = hecke._rank(perms.inverse(hecke._unrank(8, r)))
            assert hecke._rank_of_inverse(8, r) == want
            assert hecke._inverse_rank(8, want) == r

    @pytest.mark.parametrize("n", range(2, 8))
    def test_partner_shift_is_right_multiplication(self, n):
        for i in range(1, n):
            weight, size, shifts = hecke._partner_shifts(n, i)
            assert len(shifts) == (n - i + 1) * (n - i)
            for r, p in enumerate(itertools.permutations(range(1, n + 1))):
                q = r + shifts[r // weight % size]
                assert q == hecke._rank(perms.right_mult_gen(p, i))
                assert (q > r) == (p[i - 1] < p[i])

    @pytest.mark.parametrize("n", range(1, 8))
    def test_iota_on_ranks_is_inversion(self, n):
        x = HeckeElement(n, {p: S for p in perms.all_permutations(n)})
        packed = _encode(x).iota()
        for r, c in packed.table.items():
            p = hecke._unrank(n, r)
            assert x.coeffs[perms.inverse(p)] == S

    def test_single_terms_round_trip_through_ranks(self):
        for r, p in enumerate(perms.all_permutations(5)):
            x = HeckeElement(5, {p: S})
            packed = _encode(x)
            assert list(packed.table) == [r]
            assert _element(packed).coeffs == x.coeffs

    def test_no_table_grows_with_n_factorial(self):
        # Ranks far past the size guard's 8 strands: the kernel steps sparse
        # elements on many strands, as the rewriting rule does term by term.
        n = 12
        x = gen(n, 1).scale(S) + basis(n, *range(n, 0, -1))
        for i in (1, 5, n - 1):
            assert x.mul_generator(i).coeffs == rewritten_term_by_term(x, i, 1).coeffs
            assert x.mul_generator(i, sign=-1).coeffs == rewritten_term_by_term(x, i, -1).coeffs
        assert HeckeElement.zero(n).mul_generator(1).is_zero()
        assert gen(n, 1) * gen(n, 1) == unit(n) + gen(n, 1).scale(Z)
        assert gen(n, 2).conjugate_by_braid(perms.longest_element(n)) == gen(n, n - 2)


class TestPackedFormat:
    # Encoding then decoding gives back the same table, canonical and
    # zero-free, whatever the size, sign and exponent range of the
    # coefficients.

    @pytest.mark.parametrize(
        "coeffs",
        [
            [LaurentPoly(0, (1,)), LaurentPoly(-3, (2, 0, -1)), LaurentPoly(5, (-7,))],
            [LaurentPoly(-2, (2**63, -(2**63) + 1)), LaurentPoly(1, (-(2**200),))],
            [LaurentPoly(-1, (-1, -2**62, 2**62 - 1)), LaurentPoly(0, (-(2**63) + 1,))],
            [LaurentPoly(-300, (1,) + (0,) * 600 + (-1,)), LaurentPoly(250, (3, -3))],
        ],
        ids=["small", "large", "negative", "wide"],
    )
    def test_round_trip(self, coeffs):
        x = HeckeElement(3, dict(zip(perms.all_permutations(3), coeffs)))
        back = _element(_encode(x))
        assert back.coeffs == x.coeffs
        assert all(is_canonical(c) for c in back.coeffs.values())

    @given(st.integers(1, 4).flatmap(lambda n: st.lists(
        st.tuples(st.permutations(list(range(1, n + 1))).map(tuple), wide_coeffs(2**200)),
        max_size=8,
    ).map(lambda pairs: HeckeElement(n, dict(pairs)))))
    @settings(max_examples=100, deadline=None)
    def test_round_trip_of_random_wide_coefficients(self, x):
        assert _element(_encode(x)).coeffs == x.coeffs

    def test_digit_size_follows_the_largest_coefficient(self):
        for top, k in ((1, 64), (2**63 - 1, 64), (2**63, 128), (2**127, 192)):
            x = HeckeElement(2, {(1, 2): LaurentPoly(0, (-top, 1))})
            assert _encode(x).k == k

    def test_equal_coefficients_share_one_polynomial(self):
        c = LaurentPoly(-1, (1, 0, 1))
        x = HeckeElement(3, {p: LaurentPoly(c.val, c.coeffs) for p in perms.all_permutations(3)})
        back = _element(_encode(x))
        assert back.coeffs == x.coeffs
        assert len({id(v) for v in back.coeffs.values()}) == 1

    def test_widening_keeps_the_values(self):
        x = HeckeElement(3, {(1, 2, 3): LaurentPoly(-2, (5, -(2**40))), (3, 2, 1): ONE})
        packed = _encode(x)
        wide = packed._widened(2**90)
        assert (packed.k, wide.k) == (64, 192)
        assert wide.bound == 2**40
        assert _element(wide).coeffs == x.coeffs

    def test_zero_round_trips(self):
        assert _element(_encode(HeckeElement.zero(3))).coeffs == {}


class TestLowDigitScan:
    # A rebase reads the fewest zero low digits off one OR of the entries.

    @given(
        st.lists(
            st.integers(1, 2**300).flatmap(
                lambda m: st.sampled_from((m, -m)).flatmap(
                    lambda v: st.integers(0, 600).map(lambda z: v << z)
                )
            ),
            min_size=1,
            max_size=12,
        ),
        st.sampled_from((64, 128, 192)),
    )
    @settings(max_examples=200, deadline=None)
    def test_or_scan_is_the_per_entry_minimum(self, values, k):
        expected = min(((c & -c).bit_length() - 1) // k for c in values)
        assert hecke._zero_low_digits(values, k) == expected


class TestProducts:
    def test_unit_is_neutral(self):
        x = gen(3, 1) + gen(3, 2).scale(S)
        assert x * unit(3) == x
        assert unit(3) * x == x

    @pytest.mark.parametrize("n", range(2, 7))
    def test_braid_relations(self, n):
        for i in range(1, n - 1):
            a, b = gen(n, i), gen(n, i + 1)
            assert a * b * a == b * a * b
        for i, j in itertools.combinations(range(1, n), 2):
            if j - i >= 2:
                assert gen(n, i) * gen(n, j) == gen(n, j) * gen(n, i)

    def test_quadratic_relation_as_product(self):
        assert gen(3, 1) * gen(3, 1) == unit(3) + gen(3, 1).scale(Z)

    @pytest.mark.parametrize("n", range(2, 5))
    def test_length_additive_products_concatenate(self, n):
        for p in perms.all_permutations(n):
            for q in perms.all_permutations(n):
                if perms.length(perms.compose(p, q)) == perms.length(p) + perms.length(q):
                    assert basis(n, *p) * basis(n, *q) == basis(
                        n, *perms.compose(p, q)
                    )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_associative_and_bilinear(self, data):
        n = data.draw(st.integers(2, 4))
        x = data.draw(random_element(n))
        y = data.draw(random_element(n))
        z = data.draw(random_element(n))
        assert (x * y) * z == x * (y * z)
        assert (x + y) * z == x * z + y * z
        assert x * (y + z) == x * y + x * z

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            unit(2) * unit(3)


def seeded_element(rng, n, lengths):
    """One term per entry of lengths: a random w_p of that length, small coefficient."""
    by_length = {}
    for p in itertools.permutations(range(1, n + 1)):
        by_length.setdefault(oracles.length(p), []).append(p)
    table = {}
    for ell in lengths:
        exponent, c = rng.randint(-2, 2), rng.choice((-2, -1, 1, 2))
        table[rng.choice(by_length[ell])] = LaurentPoly.monomial(exponent, c)
    return HeckeElement(n, table)


def right_only_product(x, y):
    """Sum of c_q * (x g_{i_1} ... g_{i_k}) over y's terms c_q w_q, one generator at a time."""
    out = HeckeElement.zero(x.n)
    for q, c in y.coeffs.items():
        term = x
        for letter in perms.reduced_word(q):
            term = term.mul_generator(letter)
        out = out + term.scale(c)
    return out


class TestProductBranches:
    # The side rule expands the factor whose walk is bounded by less work.
    # A long braid against a dense element is expanded itself: on the left
    # by the fold with trivial blocks, through iota, on the right directly.
    SHORT, LONG = (0, 1, 1, 2, 2, 3), (7, 8, 8, 9, 9, 10)

    def test_both_branches_match_right_only_reference(self, monkeypatch):
        import qyoung.hecke as hecke_module

        iota_calls = []
        real_iota = hecke_module._iota
        monkeypatch.setattr(
            hecke_module, "_iota", lambda x: iota_calls.append(x) or real_iota(x)
        )
        rng = random.Random(2024)
        for through_iota in (True, False) * 4:
            braid = seeded_element(rng, 5, [rng.choice(self.LONG)])
            dense = seeded_element(rng, 5, [rng.randint(0, 10) for _ in range(60)])
            x, y = (braid, dense) if through_iota else (dense, braid)
            iota_calls.clear()
            product = x * y
            assert bool(iota_calls) == through_iota
            assert product == right_only_product(x, y)

    def test_conjugation_matches_explicit_braid_product(self):
        rng = random.Random(5)
        for _ in range(8):
            p = tuple(rng.sample(range(1, 6), 5))
            x = seeded_element(rng, 5, rng.sample(self.SHORT + self.LONG, 4))
            braid = basis(5, *p)
            braid_inverse = unit(5)
            for letter in reversed(perms.reduced_word(p)):
                braid_inverse = braid_inverse.mul_generator(letter, sign=-1)
            assert braid * braid_inverse == unit(5)
            assert x.conjugate_by_braid(p) == braid * x * braid_inverse


@pytest.fixture
def term_steps(monkeypatch):
    """
    A counter of term-steps: the size of the table each packed generator
    step reads plus the size of the table each ``add_times`` adds in.
    Gives a function that runs its argument and returns the count.
    """
    count = [0]
    real_step, real_add = _Packed.mul_generator, _Packed.add_times

    def step(self, i, sign=1):
        count[0] += len(self.table)
        return real_step(self, i, sign)

    def add(self, other, c):
        count[0] += len(other.table)
        return real_add(self, other, c)

    monkeypatch.setattr(_Packed, "mul_generator", step)
    monkeypatch.setattr(_Packed, "add_times", add)

    def counted(run):
        count[0] = 0
        run()
        return count[0]

    return counted


def direct_branch(x, y):
    """
    x * y with y expanded through its reduced words, as a plain table: over
    x's own coset table and then expanded, as the product does, when x
    keeps one, and over x's packed table otherwise.
    """
    if x._ck is not None:
        return hecke._expand_right(hecke._chain_start(x), y).expanded()
    return plain_branch(x, y)


def plain_branch(x, y):
    """x * y with y expanded through its reduced words over x's packed table."""
    return hecke._expand_right(_packed(x), y)


def iota_branch(x, y):
    """x * y with x expanded, as iota(iota(y) * iota(x))."""
    return hecke._expand_right(_packed(y).iota(), hecke._iota(x)).iota()


def one_entry(y):
    """Whether y is c F: it keeps its own coset table, of one entry, at the identity."""
    own = y._ck
    return own is not None and own.table.keys() == {0}


def one_entry_branch(x, y):
    """
    x * y for y = c F, as iota(c F iota(x)): iota(x)'s words walked over
    y's one-entry coset table, expanded, and mirrored unless the walk ends
    at the identity alone, where the result is c' F, fixed by iota.
    """
    h = hecke._expand_right(hecke._chain_start(y), hecke._iota(x))
    return h.expanded() if h.table.keys() == {0} else h.expanded().iota()


def folded_branch(x, y):
    """
    x * y for a y = F h that keeps a coset table, c F among them, as
    iota(iota(y) z'): iota(x)'s words walked over F's one-entry unit table
    give the coset table of F iota(x) = F z', and z''s words are walked over
    iota(y) and mirrored; an empty fold is zero.
    """
    unit_table = _packed(unit(x.n)).with_blocks(y._ck.blocks)
    fold = hecke._expand_right(unit_table, hecke._iota(x))
    if not fold.table:
        return fold.with_blocks(None)
    return hecke._expand_right(_packed(y).iota(), _element(fold.with_blocks(None))).iota()


class TestSideRule:
    # The product expands one factor's reduced words over the other; the
    # tables of that walk grow toward 2^length of the unexpanded factor's
    # terms, capped at n!.  These counts depend on no hardware.

    def test_chosen_branch_is_within_reach_of_the_cheaper_one(self, term_steps):
        chosen_total = cheaper_total = 0
        for n in (4, 5):
            dense = [symmetrizer(n), antisymmetrizer(n), full_twist(n)]
            dense += [e_lambda(lam) for lam in all_partitions(n)]
            for p in perms.all_permutations(n):
                w = basis(n, *p)
                for d in dense:
                    for x, y in ((w, d), (d, w)):
                        branches = [direct_branch, iota_branch]
                        if one_entry(y):
                            branches.append(one_entry_branch)
                        elif y._ck is not None and len(y._ck.table) > 1:
                            branches.append(folded_branch)
                        steps = [term_steps(lambda: branch(x, y)) for branch in branches]
                        chosen = term_steps(lambda: x * y)
                        assert chosen in steps
                        assert chosen <= 2 * min(steps), (n, p, x is w)
                        chosen_total += chosen
                        cheaper_total += min(steps)
        assert chosen_total <= 1.01 * cheaper_total

    def test_long_braids_are_expanded_on_either_side(self, term_steps):
        # w_p ft_6 with length(p) = 9: ft_6's 720 words walked over w_p grow
        # tables toward 2^9 terms, so w_p is the factor to expand.
        ft6, w = full_twist(6), basis(6, 3, 6, 4, 1, 5, 2)
        for x, y in ((w, ft6), (ft6, w)):
            direct = term_steps(lambda: direct_branch(x, y))
            through = term_steps(lambda: iota_branch(x, y))
            assert term_steps(lambda: x * y) == min(direct, through) < max(direct, through)
        # a_6 and b_6 keep one entry, so w_p's 9 steps run on it on either
        # side, below both dense branches.
        for d in (symmetrizer(6), antisymmetrizer(6)):
            walked = term_steps(lambda: one_entry_branch(w, d))
            assert term_steps(lambda: w * d) == walked == 9
            dense = [term_steps(lambda: branch(w, d)) for branch in (direct_branch, iota_branch)]
            assert walked < min(dense)
            assert term_steps(lambda: d * w) == term_steps(lambda: direct_branch(d, w)) == 9
            assert 9 < term_steps(lambda: iota_branch(d, w))


def mixed_element(n, dense):
    """A random element of H_n: a few terms, or most of S_n with small coefficients."""
    if not dense:
        return random_element(n, max_terms=4)

    def build(rng):
        table = {
            p: LaurentPoly.monomial(rng.randint(-2, 2), rng.choice((-2, -1, 1, 2)))
            for p in perms.all_permutations(n)
            if rng.random() < 0.75
        }
        return HeckeElement(n, table)

    return st.randoms(use_true_random=False).map(build)


class TestBranchesAgree:
    # Both ways of multiplying give one table, compared as decoded
    # mappings, never through packed ==.  H_6 gets at most one dense
    # factor, to keep each example short.

    @given(st.data())
    @settings(max_examples=30, deadline=None)
    def test_direct_and_iota_branches_give_the_product(self, data):
        n = data.draw(st.integers(3, 6))
        shapes = [(False, False), (False, True), (True, False)]
        if n < 6:
            shapes.append((True, True))
        dense_x, dense_y = data.draw(st.sampled_from(shapes))
        x = data.draw(mixed_element(n, dense_x))
        y = data.draw(mixed_element(n, dense_y))
        if x.is_zero() or y.is_zero():
            return
        direct = _element(direct_branch(x, y)).coeffs
        through = _element(iota_branch(x, y)).coeffs
        assert direct == through
        assert direct == (x * y).coeffs
        if n <= 4:
            assert direct == kernel_free_product(x, y).coeffs

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_the_one_entry_walk_gives_the_product(self, data):
        # y is c F (a_n, b_n, e_(n), e_(1^n) or R, rescaled), or R w_p,
        # whose one entry may lie off the identity, where y is not c F and
        # not fixed by iota.
        n = data.draw(st.integers(2, 6))
        lam = data.draw(st.sampled_from([lam for lam in all_partitions(n) if lam.parts[0] > 1]))
        p = data.draw(st.permutations(range(1, n + 1)).map(tuple))
        y = data.draw(
            st.sampled_from(
                [
                    lambda: symmetrizer(n),
                    lambda: antisymmetrizer(n),
                    lambda: e_lambda(Partition((n,))),
                    lambda: e_lambda(Partition((1,) * n)),
                    lambda: row_element(lam),
                    lambda: row_element(lam) * basis(n, *p),
                ]
            )
        )()
        c = data.draw(st.sampled_from((ONE, LaurentPoly.monomial(0, -1), LaurentPoly(-1, (2, 0, -1)))))
        y = y.scale(c)
        x = data.draw(mixed_element(n, n < 6 and data.draw(st.booleans())))
        if x.is_zero():
            return
        direct = _element(direct_branch(x, y)).coeffs
        assert direct == _element(iota_branch(x, y)).coeffs
        if one_entry(y):
            assert direct == _element(one_entry_branch(x, y)).coeffs
        assert direct == (x * y).coeffs
        if n <= 4:
            assert direct == kernel_free_product(x, y).coeffs


def fold_factors(lam, p, y, dense):
    """
    The right factors of lam's strand count, each made afresh.  Those that
    keep their own coset table: e_lambda, R w_p (one entry, off the
    identity unless p lies in S_lambda), e_lambda y (the table a product
    keeps) and the sign side's start F w G (``symmetrizers._start``); a
    factor whose blocks would all be single strands keeps no table and is
    left out.  Those that keep none, folded with trivial blocks: the
    mapping element dense and the full twist.
    """
    n = lam.n
    out = {
        "e_lambda": lambda: e_lambda(lam),
        "kept product": lambda: e_lambda(lam) * y,
        "dense mapping": lambda: HeckeElement(n, dict(dense.coeffs)),
        "full twist": lambda: full_twist(n),
    }
    if lam.parts[0] > 1:
        out["row_element * w_p"] = lambda: row_element(lam) * basis(n, *p)
    if len(lam.parts) > 1:

        def start():
            t = symmetrizers._start(symmetrizers._side(lam, False))
            return _element(coset=t)

        out["sign start"] = start
    return out


class TestFoldedLeftProducts:
    # x * y for a y = F h that keeps its own coset table is iota(iota(y) z'),
    # with z' on the coset representatives and F iota(x) = F z': iota(x)'s
    # words are folded over F's one-entry unit table first (c F starts from
    # its own entry).  A y that keeps no coset table is the fold with
    # trivial blocks, F = 1: z' is iota(x) itself, with no walk.  Each
    # product is compared, as a decoded mapping, with the direct and iota
    # branches and the fold itself, and with the kernel-free product while
    # H_n is small.

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_the_fold_gives_the_product(self, data):
        n = data.draw(st.integers(2, 6))
        lam = data.draw(st.sampled_from(list(all_partitions(n))))
        p = data.draw(st.permutations(range(1, n + 1)).map(tuple))
        sparse, dense = data.draw(mixed_element(n, False)), data.draw(mixed_element(n, True))
        factors = fold_factors(lam, p, sparse, dense)
        y = factors[data.draw(st.sampled_from(sorted(factors)))]()
        x = data.draw(mixed_element(n, n < 6 and data.draw(st.booleans())))
        if x.is_zero() or y.is_zero():
            return
        product = (x * y).coeffs
        assert hecke._folded(x, y).coeffs == product
        assert _element(direct_branch(x, y)).coeffs == product
        assert _element(iota_branch(x, y)).coeffs == product
        if y._ck is not None:  # the dense mapping and the full twist keep none
            assert _element(folded_branch(x, y)).coeffs == product
        if one_entry(y):
            assert _element(one_entry_branch(x, y)).coeffs == product
        if n <= 4:
            assert product == kernel_free_product(x, y).coeffs

    @pytest.mark.parametrize("n", range(2, 6))
    def test_a_factor_without_a_coset_table_folds_with_trivial_blocks(self, term_steps, n):
        # z' = iota(x) with no fold walk: the same steps as the iota branch.
        rng = random.Random(n)
        top = n * (n - 1) // 2
        dense = seeded_element(rng, n, [rng.randint(0, top) for _ in range(math.factorial(n))])
        for y in (dense, full_twist(n)):
            for _ in range(4):
                x = seeded_element(rng, n, [rng.randint(0, top) for _ in range(3)])
                product = hecke._folded(x, y).coeffs
                assert product == (x * y).coeffs == _element(iota_branch(x, y)).coeffs
                if n <= 4:
                    assert product == kernel_free_product(x, y).coeffs
                folded = term_steps(lambda: hecke._folded(x, y))
                assert folded == term_steps(lambda: iota_branch(x, y))

    @pytest.mark.parametrize(
        "lam", [Partition(p) for p in ((2,), (3, 1), (2, 2), (3, 3), (4, 2), (2, 2, 1, 1))], ids=str
    )
    def test_a_fold_to_zero_walks_nothing_over_iota(self, kernel_calls, lam):
        # g_j R = s R for s_j inside a row block, so (g_j - s) e_lambda = 0:
        # the fold of g_j - s sums to an empty coset table, and nothing is
        # stepped over iota(e_lambda) or mirrored.
        e, n = e_lambda(lam), lam.n
        for offset, part in zip(lam.row_reading_offsets(), lam.parts):
            for j in range(offset + 1, offset + part):
                kernel_calls.clear()
                assert (gen(n, j) - unit(n).scale(S)) * e == HeckeElement.zero(n)
                assert kernel_calls["widest"] <= 1 and kernel_calls["iota"] == 0
        assert e._ik is None


def row_coset_factors(lam):
    """The elements of R H_n that keep their own coset table, each made afresh."""
    return {
        "e_lambda": lambda: e_lambda(lam),
        "row_element": lambda: row_element(lam),
    }


class TestCosetProducts:
    # x * y for an x of R H_n that keeps its own coset table h is R (h y):
    # y's words walked over h, one expansion at the end.  Each result is
    # checked, as a decoded mapping, against y's words walked over x's
    # plain table, and against the kernel-free product while H_n is small.

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_right_products_are_the_plain_table_products(self, data):
        n = data.draw(st.integers(2, 6))
        lam = data.draw(st.sampled_from(list(all_partitions(n))))
        name = data.draw(st.sampled_from(sorted(row_coset_factors(lam))))
        y = data.draw(mixed_element(n, n < 6 and data.draw(st.booleans())))
        if y.is_zero():
            return
        make = row_coset_factors(lam)[name]
        product = make() * y
        plain = _element(plain_branch(make(), y)).coeffs
        assert product.coeffs == plain
        assert (product * y).coeffs == _element(plain_branch(HeckeElement(n, plain), y)).coeffs
        if n <= 4:
            assert product.coeffs == kernel_free_product(make(), y).coeffs

    def test_each_step_reads_at_most_one_entry_per_coset(self, term_steps, monkeypatch):
        # (3,3) has 720 / (3! 3!) = 20 minimal coset representatives.
        sizes, counted = [], _Packed.mul_generator
        monkeypatch.setattr(
            _Packed,
            "mul_generator",
            lambda self, i, sign=1: sizes.append(len(self.table)) or counted(self, i, sign),
        )
        e, plain = e_lambda(Partition((3, 3))), e_lambda(Partition((3, 3)))
        for p in ((6, 5, 4, 3, 2, 1), (3, 6, 4, 1, 5, 2), (2, 3, 4, 5, 6, 1)):
            w = basis(6, *p)
            sizes.clear()
            assert term_steps(lambda: e * w) == sum(sizes) <= perms.length(p) * 720 // 36
            assert len(sizes) == perms.length(p) and max(sizes) <= 720 // 36
            assert (e * w).coeffs == _element(plain_branch(plain, w)).coeffs

    def test_a_chain_of_right_products_stays_on_the_coset_table(self):
        lam = Partition((2, 2))
        y, x = basis(4, 2, 4, 1, 3), row_element(lam)
        once = x * y
        assert once._ck is not None and once._ck.blocks == x._ck.blocks and not once._ck.tidy
        twice = once * y
        assert once._ck.tidy and twice._ck is not None
        assert len(twice._ck.table) < len(twice.coeffs)
        assert twice == row_element(lam) * (y * y)

    @pytest.mark.parametrize("lam", [Partition((2, 2)), Partition((3, 2)), Partition((2, 2, 1))], ids=str)
    def test_a_chain_from_a_kept_product_table_steps_the_encoded_values(self, lam):
        # A product keeps the coset table its chain ran on, not tidy.  A
        # chain started from it must step exactly the ints, V, K and zero
        # low digits that a chain started from a fresh encode of the same
        # entries steps, whatever the kept table's flags say.
        y = basis(lam.n, *((2, 1) + tuple(range(3, lam.n + 1))))
        for x in (row_element(lam) * y, e_lambda(lam) * y):
            kept = x._ck
            assert not kept.tidy
            entries = _element(kept.with_blocks(None)).coeffs
            fresh = _encode(HeckeElement(lam.n, dict(entries))).with_blocks(kept.blocks)
            start = hecke._chain_start(x)
            for i in [1, lam.n - 1, 2, 1, None]:
                state = [(t.table, t.val, t.k, t.low) for t in (start, fresh)]
                assert state[0] == state[1], i
                if i is not None:
                    start, fresh = start.mul_generator(i), fresh.mul_generator(i)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_costs_read_off_the_coset_table_are_those_of_the_element(self, n):
        for lam in all_partitions(n):
            e = e_lambda(lam)
            assert hecke._costs(e) == hecke._word_costs(_packed(e))

    def test_row_element_keeps_the_one_entry_coset_table(self):
        x = row_element(Partition((3, 2, 1)))
        assert len(x._ck.table) == 1 and x._ck.blocks == hecke._Blocks((3, 2, 1), True)
        assert row_element(Partition((1, 1, 1)))._ck is None


def diagrams_up_to(k_max):
    return [lam for k in range(1, k_max + 1) for lam in all_partitions(k)]


class TestLoneStepsOnTheCosetTable:
    # A lone g_i, g_i^-1 or rescaling of an x that keeps its own coset table
    # h runs on h and keeps the result, as a right product does; each result
    # is checked, as a decoded mapping, against the same step or rescaling
    # of x's plain packed table.
    SCALARS = (
        S,
        LaurentPoly.monomial(-1, -1),
        LaurentPoly(-1, (2, 0, -1)),
        LaurentPoly.from_int(-3),
    )

    @pytest.mark.parametrize("lam", diagrams_up_to(6), ids=str)
    def test_steps_are_the_plain_table_steps(self, lam):
        for make in row_coset_factors(lam).values():
            x = make()
            plain = _packed(make())
            own = x._ck
            for i in range(1, lam.n):
                for sign in (1, -1):
                    stepped = x.mul_generator(i, sign)
                    assert stepped.coeffs == _element(plain.mul_generator(i, sign)).coeffs
                    if own is None:
                        assert stepped._ck is None
                    else:
                        assert stepped._ck.blocks == own.blocks
                        # Each coset entry stands for |S_lambda| entries.
                        subgroup = len(hecke._length_pattern(own.blocks.parts))
                        assert len(stepped._ck.table) * subgroup == len(stepped.coeffs)

    @pytest.mark.parametrize("lam", diagrams_up_to(6), ids=str)
    def test_rescalings_are_the_plain_table_rescalings(self, lam):
        for make in row_coset_factors(lam).values():
            x = make()
            plain = _packed(make())
            own = x._ck
            for c in self.SCALARS:
                scaled = x.scale(c)
                expected = _Packed.zero(lam.n)
                expected.add_times(plain, c)
                assert scaled.coeffs == _element(expected).coeffs
                assert (scaled._ck is None) == (own is None)

    def test_a_chain_of_lone_steps_reads_only_the_coset_table(self, monkeypatch):
        # (3,3): 504 entries of e_lambda against at most 720 / (3! 3!) = 20
        # in its coset table.
        e = e_lambda(Partition((3, 3)))
        sizes, real = [], _Packed.mul_generator
        monkeypatch.setattr(
            _Packed,
            "mul_generator",
            lambda self, i, sign=1: sizes.append(len(self.table)) or real(self, i, sign),
        )
        x = e
        for i in (1, 3, 5, 2, 4):
            x = x.mul_generator(i).mul_generator(i, -1).scale(S)
        assert max(sizes) <= 720 // 36 and len(e.coeffs) == 504
        assert x == e.scale(S**5)


def mirrored(x):
    """iota(x) term by term: w_p -> w_{p^-1}, outside the packed kernel."""
    return HeckeElement(x.n, {perms.inverse(p): c for p, c in x.coeffs.items()})


@st.composite
def braid_cases(draw):
    """
    An element of H_3..H_6, sparse or dense, and a one-term factor c w_q:
    c = +-s^k (the chain of steps alone, s^k and the sign applied after
    it) or not (through add_times), q the identity or any permutation.
    """
    n = draw(st.integers(3, 6))
    x = draw(mixed_element(n, draw(st.booleans())))
    q = draw(st.one_of(st.just(perms.identity(n)), st.permutations(range(1, n + 1)).map(tuple)))
    monomials = (ONE, LaurentPoly.monomial(0, -1), S, LaurentPoly.monomial(-3, -1))
    c = draw(st.sampled_from(monomials + (LaurentPoly.monomial(1, 2), LaurentPoly(-1, (2, 0, -1)))))
    return x, q, c


class TestBasisBraidFactor:
    # A right factor +-s^k w_q is the chain of steps along q's word, with
    # no accumulator; any other coefficient goes through add_times.  Each
    # branch is checked on its own, whichever the side rule picks.  The
    # left product is checked as iota(iota(x) c w_{q^-1}) term by term, and
    # also directly while H_n is small.

    @given(braid_cases())
    @settings(max_examples=40, deadline=None)
    def test_both_orders_match_the_kernel_free_product(self, case):
        x, q, c = case
        braid = HeckeElement(x.n, {q: c})
        right = kernel_free_product(x, braid).coeffs
        left = mirrored(kernel_free_product(mirrored(x), HeckeElement(x.n, {perms.inverse(q): c})))
        if x.n <= 4:
            assert left.coeffs == kernel_free_product(braid, x).coeffs
        assert (x * braid).coeffs == right
        assert (braid * x).coeffs == left.coeffs
        if not x.is_zero():
            assert _element(direct_branch(x, braid)).coeffs == right
            assert _element(iota_branch(braid, x)).coeffs == left.coeffs

    def test_a_monomial_factor_moves_the_valuation_and_the_sign(self, kernel_calls):
        x = full_twist(4)
        for c in (S**2, LaurentPoly.monomial(-1, -1)):
            y = unit(4).scale(c)
            kernel_calls.clear()
            product = x * y
            assert kernel_calls["add_times"] == kernel_calls["mul_generator"] == 0
            assert product.coeffs == {p: v * c for p, v in x.coeffs.items()}
        assert (x * unit(4).scale(S))._pk.table is _packed(x).table

    def test_product_with_the_unit_shares_the_table(self):
        # x * 1 walks no word over the table x keeps, so it holds that very
        # table: e_lambda's own coset table, never its expansion.
        x = e_lambda(Partition((2, 2)))
        product = x * unit(4)
        assert product._ck is hecke._chain_start(x) and product._pk is None
        assert x._pk is None
        assert x * unit(4) == x == unit(4) * x


def kept_forms(x):
    """x's kept packed, iota and coset tables and costs, by value."""

    def state(pk):
        if pk is None:
            return None
        return dict(pk.table), pk.val, pk.k, pk.bound, pk.low, pk.tidy, pk.blocks

    return state(x._pk), state(x._ik), state(x._ck), x._wc


@pytest.mark.parametrize("lam", [Partition(p) for p in ((3,), (2, 1), (1, 1, 1), (3, 1), (2, 2))], ids=str)
def test_products_with_basis_braids_leave_kept_forms_alone(lam):
    # A product may share an input's tables (x * 1 holds x's own table,
    # and a left product starts from the other factor's kept iota); chains,
    # sums and products run on the results must not write into them.
    n = lam.n
    e = e_lambda(lam)
    hecke._mirrored(e)
    hecke._costs(e)
    before = kept_forms(e)
    for q in perms.all_permutations(n):
        w = basis(n, *q)
        e * w, w * e  # w's own forms are made on its first use
        w_before = kept_forms(w)
        for y in (e * w, w * e, e * w.scale(S), w.scale(S) * e, e * unit(n), unit(n) * e):
            y.mul_generator(1)
            y.scale(S)
            y * y
            y * w
            w * y
            assert y.coeffs
        assert kept_forms(w) == w_before
    assert kept_forms(e) == before
    assert e.to_machine() == e_lambda(lam).to_machine()


class TestKeptIota:
    # An element keeps iota of its packed table, tidy, made on the first
    # use; a product's result does not keep the table it was iota of.
    # tidy_before is None for an element that holds only its coset table:
    # its packed table is made, tidy, on the first use.

    @pytest.mark.parametrize(
        "make, tidy_before",
        [
            (lambda: HeckeElement(4, {(2, 1, 4, 3): S, (1, 3, 4, 2): LaurentPoly(-2, (1, 0, 5))}), None),
            (lambda: symmetrizer(4) * gen(4, 2), None),
            (lambda: (unit(4) + gen(4, 3)).scale(S), False),
            (lambda: e_lambda(Partition((2, 1, 1))), None),
        ],
        ids=["mapping", "step result", "sum result", "e_lambda"],
    )
    def test_kept_iota_is_iota_of_the_mapping(self, make, tidy_before):
        x = make()
        assert (x._pk and x._pk.tidy) == tidy_before
        kept = hecke._mirrored(x)
        assert kept.tidy and kept.blocks is None
        assert _element(kept).coeffs == mirrored(x).coeffs
        assert hecke._mirrored(x) is kept is x._ik

    def test_results_keep_no_iota(self):
        ft4, w = full_twist(4), basis(4, 3, 1, 4, 2)
        assert (w * ft4)._ik is None and (ft4 * w)._ik is None
        assert ft4._ik is not None  # w * ft4 folded w with trivial blocks over it


@pytest.fixture
def kernel_calls(monkeypatch):
    """
    Counts of packed steps, add_times calls, packed iotas, expansions and
    word-cost scans, and of the entries the steps read ("stepped") with the
    most one step read ("widest").  Only ``hecke`` and the chains call
    them, through ``_Packed`` and the module's globals.
    """
    counts = collections.Counter()
    for owner, name in (
        (_Packed, "mul_generator"),
        (_Packed, "add_times"),
        (_Packed, "iota"),
        (_Packed, "expanded"),
        (hecke, "_word_costs"),
    ):

        def spy(*args, _name=name, _original=getattr(owner, name), **kwargs):
            counts[_name] += 1
            if _name == "mul_generator":
                counts["stepped"] += len(args[0].table)
                counts["widest"] = max(counts["widest"], len(args[0].table))
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return counts


# (n, steps, iota bound, cost-scan bound).  iota fixes a_n and b_n, so
# each of their 2(n-1) eigen-relations is one right step that decides the
# mirrored relation too; the n-1 centrality checks each take one step on
# a kept table, and the full twist's build, w_w0 * w_w0, n(n-1)/2.
# Nothing is mirrored; only the full twist's factor is scanned.  The
# references are rescaled at most once per table.
STRAND_CHECK_CALLS = [(5, 22, 0, 1), pytest.param(8, 49, 0, 1, marks=pytest.mark.slow)]


@pytest.mark.parametrize("n, steps, iotas, scans", STRAND_CHECK_CALLS)
def test_strand_checks_pay_only_for_their_steps(kernel_calls, n, steps, iotas, scans):
    assert all(ok for _, ok in invariants.strand_checks(n))
    assert kernel_calls["mul_generator"] == steps
    assert kernel_calls["add_times"] <= 4
    assert kernel_calls["iota"] <= iotas
    assert kernel_calls["_word_costs"] <= scans


LONG_BRAID = (3, 6, 4, 1, 5, 2)  # length 9
# ft_6 * e_(3,3): 719 steps of one entry fold ft_6's words onto (3,3)'s
# 20 representatives, and 19 more walk them over iota(e).  Walking ft_6's
# words over iota(e) itself took 683 steps reading 491,760 entries.
FT_E_33_STEPS, FT_E_33_STEPPED = 738, 11_295


def test_products_with_a_n_and_b_n_step_their_one_entry(kernel_calls):
    # a_6 and b_6 are c F: on the right w_p's 9 letters step the one-entry
    # coset table, on the left iota(w_p)'s do, and the walk ends at the
    # identity alone, so nothing is mirrored.  The product holds only its
    # coset table, and == compares it with the expected one's: nothing is
    # expanded.
    a6, b6, w = symmetrizer(6), antisymmetrizer(6), basis(6, *LONG_BRAID)
    for x, y, expected in (
        (w, a6, a6.scale(S**9)),
        (a6, w, a6.scale(S**9)),
        (w, b6, b6.scale(LaurentPoly.monomial(-9, -1))),
        (b6, w, b6.scale(LaurentPoly.monomial(-9, -1))),
    ):
        kernel_calls.clear()
        product = x * y
        assert kernel_calls["mul_generator"] == kernel_calls["stepped"] == 9
        assert kernel_calls["expanded"] == 0 and kernel_calls["iota"] == 0
        assert product == expected and one_entry(product)
    assert a6._ik is None and b6._ik is None


def test_a_left_product_by_r_mirrors_only_its_result(kernel_calls):
    # R of (3,3) keeps one entry at the identity, but R H_6 has 20 cosets:
    # R iota(w_p) lands on another coset, so the result is mirrored, once.
    r, w = row_element(Partition((3, 3))), basis(6, *LONG_BRAID)
    product = w * r
    assert kernel_calls["widest"] <= 20 and kernel_calls["iota"] == 1
    assert product._ck is None
    assert product.coeffs == kernel_free_product(w, r).coeffs


def test_one_entry_off_the_identity_is_not_taken_as_fixed_by_iota():
    # R w_p, p a minimal coset representative of (3,3) other than the
    # identity, keeps one entry, at rank(p): it is not c F, and iota does
    # not fix it, so a left product by it folds iota(w) over R's unit table
    # and walks the folded term over iota(y), as for any other coset table.
    y = row_element(Partition((3, 3))) * basis(6, 1, 4, 2, 5, 3, 6)
    assert len(y._ck.table) == 1 and not one_entry(y)
    w = basis(6, *LONG_BRAID)
    assert (w * y).coeffs == kernel_free_product(w, y).coeffs


def minimal_representative(p, parts):
    """The minimal coset representative of S_lambda p: each block's values relabelled in position order."""
    out, first = list(p), 1
    for part in parts:
        block = range(first, first + part)
        for value, at in zip(block, sorted(p.index(v) for v in block)):
            out[at] = value
        first += part
    return tuple(out)


def test_a_left_product_by_e_lambda_folds_onto_one_representative(kernel_calls, monkeypatch):
    # iota(w_p) = w_{p^-1} folds over R's unit table in length(p) steps of
    # one entry, to s^k w_p' for the representative p' of p^-1's coset.
    # That one term is walked over iota(e) as one chain, with no sum, and
    # only the result is mirrored (e's iota is made beforehand).
    lam, w = Partition((3, 3)), basis(6, *LONG_BRAID)
    e = e_lambda(lam)
    hecke._mirrored(e)
    rep = minimal_representative(perms.inverse(LONG_BRAID), lam.parts)
    sizes, spied = [], _Packed.mul_generator
    monkeypatch.setattr(
        _Packed, "mul_generator", lambda self, i, sign=1: sizes.append(len(self.table)) or spied(self, i, sign)
    )
    kernel_calls.clear()
    product = w * e
    ell = perms.length(LONG_BRAID)
    assert (ell, perms.length(rep)) == (9, 7)
    assert kernel_calls["mul_generator"] == len(sizes) == ell + perms.length(rep)
    assert sizes[:ell] == [1] * ell and min(sizes[ell:]) > 1
    assert kernel_calls["add_times"] == 0 and kernel_calls["iota"] == 1
    assert product.coeffs == _element(iota_branch(w, e)).coeffs


def test_the_full_twist_folded_onto_e_is_e_times_the_full_twist(kernel_calls):
    # ft_6's 720 words fold over R's unit table for (3,3) onto its 20
    # representatives before any step over iota(e).
    ft, e = full_twist(6), e_lambda(Partition((3, 3)))
    kernel_calls.clear()
    left = ft * e
    assert (kernel_calls["mul_generator"], kernel_calls["stepped"]) == (FT_E_33_STEPS, FT_E_33_STEPPED)
    assert left == e * ft


def test_alpha_extract_element_of_one_column_steps_its_one_entry(kernel_calls):
    # The element alpha_extract returns for (1^6) is e_lambda, which keeps
    # its own one-entry sign-side table (f = e_lambda, since d = 1): a right
    # product by w_p steps that one entry length(p) times.
    lam, w = Partition((1,) * 6), basis(6, *LONG_BRAID)
    x = alpha_extract(lam).element
    kernel_calls.clear()
    product = x * w
    assert kernel_calls["mul_generator"] == kernel_calls["stepped"] == 9
    assert product == e_lambda(lam) * w


def public_elements(lam):
    """
    The elements the public builders make for lam's diagram and strand
    count, each with a product on either side, a step and a rescaling.
    """
    n = lam.n
    w = basis(n, *range(n, 0, -1))
    built = [
        e_lambda(lam),
        row_element(lam),
        symmetrizer(n),
        antisymmetrizer(n),
        alpha_extract(lam).element,
    ]
    out = []
    for x in built:
        out += [x, x * w, w * x, x.scale(LaurentPoly(-1, (2, 0, -1)))]
        if n > 1:
            out.append(x.mul_generator(n - 1, -1))
    return out


@pytest.mark.parametrize("lam", diagrams_up_to(6), ids=str)
def test_every_kept_coset_table_is_the_elements_own(lam):
    # A kept coset table expands to the packed table of the element that
    # keeps it, on either side: no element holds another's.
    for x in public_elements(lam):
        if x._ck is not None:
            assert _element(x._ck.expanded()).coeffs == x.coeffs


# The fields of a packed table (``val`` is left out: LaurentPoly has one
# too), the tables an element keeps, and the kernel's digit and rank
# internals.
PACKED_FIELDS = {"table", "k", "bound", "low", "tidy"}
KEPT_TABLES = {"_pk", "_ck", "_ik", "_wc"}
KERNEL_INTERNALS = {
    "_REBASE", "_inverse_memo", "_inverse_rank", "_rank_of_inverse", "_keep", "_expanded_ranks"
}


def test_only_hecke_builds_or_reads_packed_tables():
    # The modules built on the kernel see a packed table only through its
    # methods: none makes one, reads its fields or an element's kept
    # tables, or imports the internals.
    found = []
    for module in ("symmetrizers.py", "invariants.py", "central.py", "cli.py"):
        path = pathlib.Path(hecke.__file__).with_name(module)
        for node in ast.walk(ast.parse(path.read_text(), module)):
            if isinstance(node, ast.Call):
                callee = node.func
                if getattr(callee, "id", getattr(callee, "attr", None)) == "_Packed":
                    found.append((module, node.lineno, "_Packed(...)"))
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if node.attr in PACKED_FIELDS | KEPT_TABLES | KERNEL_INTERNALS:
                    found.append((module, node.lineno, node.attr))
            elif isinstance(node, ast.ImportFrom):
                names = [a.name for a in node.names if a.name in KERNEL_INTERNALS]
                found += [(module, node.lineno, name) for name in names]
    assert found == []


class TestClassicalLimit:
    @pytest.mark.parametrize("n", (2, 3))
    def test_basis_products_specialize_to_group_algebra(self, n):
        for p in perms.all_permutations(n):
            for q in perms.all_permutations(n):
                product = basis(n, *p) * basis(n, *q)
                assert product.specialize_at_one() == group_algebra_mul(
                    {p: 1}, {q: 1}
                )

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_random_products_specialize_to_group_algebra(self, data):
        n = data.draw(st.integers(2, 4))
        x = data.draw(random_element(n))
        y = data.draw(random_element(n))
        assert (x * y).specialize_at_one() == group_algebra_mul(
            x.specialize_at_one(), y.specialize_at_one()
        )


class TestShiftEmbed:
    def test_unit_goes_to_unit(self):
        assert unit(2).shift_embed(1, 4) == unit(4)

    def test_generator_shifts(self):
        assert gen(2, 1).shift_embed(2, 4) == gen(4, 3)

    def test_range_check(self):
        with pytest.raises(ValueError):
            unit(3).shift_embed(2, 4)

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_multiplicative(self, data):
        x = data.draw(random_element(3))
        y = data.draw(random_element(3))
        offset = data.draw(st.integers(0, 2))
        assert (x * y).shift_embed(offset, 5) == x.shift_embed(offset, 5) * y.shift_embed(
            offset, 5
        )


class TestConjugation:
    def test_identity_conjugation(self):
        x = gen(3, 1) + unit(3).scale(S)
        assert x.conjugate_by_braid((1, 2, 3)) == x

    def test_unit_is_fixed(self):
        assert unit(4).conjugate_by_braid((3, 1, 4, 2)) == unit(4)

    def test_matches_explicit_braid_product(self):
        # Conjugating g_1 by the braid of (1, 3, 2) must agree with
        # multiplying out w_p * g_1 * w_p^-1 by hand.
        p = (1, 3, 2)
        braid = basis(3, *p)
        braid_inverse = unit(3)
        for letter in reversed(perms.reduced_word(p)):
            braid_inverse = braid_inverse.mul_generator(letter, sign=-1)
        assert braid * braid_inverse == unit(3)
        expected = braid * gen(3, 1) * braid_inverse
        assert gen(3, 1).conjugate_by_braid(p) == expected

    @given(st.data())
    @settings(max_examples=20, deadline=None)
    def test_is_an_algebra_map(self, data):
        n = data.draw(st.integers(2, 4))
        p = tuple(data.draw(st.permutations(list(range(1, n + 1)))))
        x = data.draw(random_element(n))
        y = data.draw(random_element(n))
        assert (x * y).conjugate_by_braid(p) == x.conjugate_by_braid(
            p
        ) * y.conjugate_by_braid(p)


class TestExtractScalar:
    def test_zero_candidate(self):
        report = extract_scalar(unit(2), HeckeElement.zero(2))
        assert report.proportional and report.scalar == ZERO

    def test_identity_scalar(self):
        x = gen(3, 1) + unit(3).scale(S)
        report = extract_scalar(x, x)
        assert report.proportional and report.scalar == ONE

    def test_symmetrizer_square(self):
        a2 = symmetrizer(2)
        report = extract_scalar(a2, a2 * a2)
        assert report.proportional
        assert report.scalar == ONE + S**2

    def test_non_proportional_reports_witness(self):
        # The witness is the smallest permutation in either support where
        # candidate != scalar * reference; the scalar is pinned at (1,2,3).
        ref = unit(3) + gen(3, 2).scale(S) + basis(3, 3, 2, 1).scale(ONE + S)
        two = LaurentPoly.from_int(2)
        cases = [
            # a wrong coefficient: (3,2,1) carries 2(1 + s) + 1
            (ref.scale(two) + basis(3, 3, 2, 1), (3, 2, 1)),
            # a term missing from the candidate: (1,3,2) dropped
            (ref.scale(two) - gen(3, 2).scale(two * S), (1, 3, 2)),
            # an extra term in the candidate: (2,1,3), not in the reference
            (ref.scale(two) + gen(3, 1) + basis(3, 3, 1, 2), (2, 1, 3)),
            # an extra term below a wrong coefficient: the extra one wins
            (ref.scale(two) + basis(3, 3, 2, 1) + gen(3, 1), (2, 1, 3)),
        ]
        for candidate, witness in cases:
            report = extract_scalar(ref, candidate)
            assert not report.proportional
            assert report.scalar == two
            assert report.witness == witness
        report = extract_scalar(unit(2) + gen(2, 1), unit(2))
        assert not report.proportional
        assert report.witness == (2, 1)

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_witness_is_the_smallest_mismatch(self, data):
        n = data.draw(st.integers(2, 4))
        x = data.draw(random_element(n, 5).filter(lambda e: not e.is_zero()))
        y = data.draw(random_element(n, 5))
        if data.draw(st.booleans()):
            y = y + x.scale(data.draw(st.sampled_from((ONE, S, -(S**-2)))))
        report = extract_scalar(x, y)
        if report.proportional:
            assert y == x.scale(report.scalar)
        elif not report.scalar.is_zero():
            assert report.witness == min((y - x.scale(report.scalar)).coeffs)

    def test_zero_reference_rejected(self):
        with pytest.raises(ValueError):
            extract_scalar(HeckeElement.zero(2), unit(2))

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_scaled_elements_recover_scalar(self, data):
        n = data.draw(st.integers(2, 4))
        x = data.draw(random_element(n).filter(lambda e: not e.is_zero()))
        scalar = data.draw(
            st.builds(
                LaurentPoly.from_pairs,
                st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), max_size=3),
            )
        )
        report = extract_scalar(x, x.scale(scalar))
        assert report.proportional
        assert report.scalar == scalar
        assert x.scale(report.scalar) == x.scale(scalar)


def as_element(n, table):
    """An oracle table {perm: {exponent: coeff}} as an element, through the constructor."""
    return HeckeElement(n, {p: LaurentPoly.from_pairs(c.items()) for p, c in table.items()})


def oracle_polys(top):
    return st.dictionaries(
        st.integers(-3, 3), st.integers(-top, top).filter(bool), min_size=1, max_size=3
    )


@st.composite
def proportionality_cases(draw):
    """
    A reference and a candidate in H_2..H_4 as oracle tables: the candidate
    is scalar * reference, then perhaps perturbed at one term, given extra
    terms, stripped of one, or drawn afresh.  Coefficients up to 2^63 - 1
    put the reference on 64-bit digits and its multiples on 128-bit ones.
    """
    n = draw(st.integers(2, 4))
    perm = st.permutations(list(range(1, n + 1))).map(tuple)
    poly = oracle_polys(draw(st.sampled_from((3, 2**61, 2**63 - 1))))
    reference = draw(st.dictionaries(perm, poly, min_size=1, max_size=6))
    scalar = draw(oracle_polys(3))
    candidate = {p: oracles.poly_mul(c, scalar) for p, c in reference.items()}
    if draw(st.booleans()):
        p = draw(st.sampled_from(sorted(candidate)))
        changed = dict(candidate[p])
        for e, c in draw(poly).items():
            changed[e] = changed.get(e, 0) + c
        candidate[p] = {e: c for e, c in changed.items() if c}
    if draw(st.booleans()):
        candidate.update(draw(st.dictionaries(perm, poly, max_size=2)))
    if draw(st.booleans()):
        del candidate[draw(st.sampled_from(sorted(candidate)))]
    if draw(st.integers(0, 4)) == 0:
        candidate = draw(st.dictionaries(perm, poly, max_size=6))
    return n, reference, {p: c for p, c in candidate.items() if c}


class TestPackedExtractScalar:
    # extract_scalar runs on packed tables; the oracle divides and compares
    # plain dicts of exponents.

    @given(proportionality_cases())
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_kernel_free_oracle(self, case):
        n, reference, candidate = case
        report = extract_scalar(as_element(n, reference), as_element(n, candidate))
        scalar, proportional, witness = oracles.proportionality(reference, candidate)
        assert report.scalar == LaurentPoly.from_pairs(scalar.items())
        assert report.proportional == proportional
        assert report.witness == witness

    def test_sides_on_different_digit_sizes(self):
        big = 2**63 - 1
        x = HeckeElement(
            3, {(1, 2, 3): LaurentPoly(0, (big,)), (2, 1, 3): LaurentPoly(-1, (1, -big))}
        )
        y = times(x, LaurentPoly(-2, (3, 0, 3)))
        assert (_packed(x).k, _packed(y).k) == (64, 128)
        report = extract_scalar(x, y)
        assert report.proportional and report.scalar == LaurentPoly(-2, (3, 0, 3))


def repacked(x, form):
    """x as an element holding only a packed table of the given form, same values."""
    pk = _encode(x)
    if form == "wider":
        pk = pk._widened(1, pk.k + 64)
    elif form == "shifted":
        table = {r: c << (3 * pk.k) for r, c in pk.table.items()}
        pk = _Packed(pk.n, table, pk.val - 3, pk.k, pk.bound, pk.low + 3)
    elif form == "low unknown":
        pk = _Packed(pk.n, pk.table, pk.val, pk.k, pk.bound, 0)
    return _element(pk)


FORMS = ("as encoded", "wider", "shifted", "low unknown")


class TestPackedEquality:
    # == compares packed tables whenever either side has one; it must agree
    # with equality of the mappings, whatever K, V and low each side has.

    @given(
        st.integers(1, 4).flatmap(
            lambda n: st.tuples(
                random_element(n, 5),
                st.lists(
                    st.tuples(st.permutations(list(range(1, n + 1))).map(tuple), wide_coeffs(2**70)),
                    max_size=2,
                ),
            )
        ),
        st.sampled_from(FORMS),
        st.sampled_from(FORMS),
        st.booleans(),
    )
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_decoded_tables(self, case, form_x, form_y, same):
        x, changes = case
        table = dict(x.coeffs)
        if not same:
            for p, c in changes:
                table[p] = table.get(p, ZERO) + c
        y = HeckeElement(x.n, table)
        expected = x.coeffs == y.coeffs
        assert (repacked(x, form_x) == repacked(y, form_y)) == expected
        assert (x == repacked(y, form_y)) == expected
        assert (repacked(x, form_x) == y) == expected

    def test_forms_differ_but_values_agree(self):
        x = HeckeElement(3, {(1, 2, 3): LaurentPoly(-2, (5, -(2**62))), (3, 2, 1): ONE})
        a, b = repacked(x, "wider"), repacked(x, "shifted")
        assert (a._pk.k, a._pk.val) != (b._pk.k, b._pk.val)
        assert a == b == x
        assert (a._pk.k, a._pk.val) != (b._pk.k, b._pk.val)  # compared as kept


class TestReadOnlyCoeffs:
    @pytest.mark.parametrize(
        "make",
        [lambda: unit(3) + gen(3, 1).scale(S), lambda: gen(3, 1).mul_generator(2)],
        ids=["constructed", "kernel result"],
    )
    def test_writes_raise_type_error(self, make):
        x = make()
        p = min(x.coeffs)
        with pytest.raises(TypeError):
            x.coeffs[p] = ONE
        with pytest.raises(TypeError):
            del x.coeffs[p]
        assert x.coeffs is x.coeffs


class TestImmutable:
    MAKERS = [
        lambda: HeckeElement.unit(3),
        lambda: gen(3, 1).mul_generator(2),
        lambda: e_lambda(Partition((2, 1))),
    ]

    @pytest.mark.parametrize("make", MAKERS, ids=["constructed", "kernel result", "built"])
    @pytest.mark.parametrize("slot", ["n", "_coeffs", "_pk", "_ck", "_ik", "_wc", "other"])
    def test_assignment_and_deletion_raise(self, make, slot):
        x = make()
        before = (x.n, dict(x.coeffs))
        with pytest.raises(AttributeError, match="immutable"):
            setattr(x, slot, None)
        if slot != "other":
            with pytest.raises(AttributeError, match="immutable"):
                delattr(x, slot)
        assert (x.n, dict(x.coeffs)) == before

    def test_unit_keeps_its_strand_count(self):
        one = HeckeElement.unit(3)
        with pytest.raises(AttributeError):
            one.n = 5
        assert one.n == 3 and one == HeckeElement.unit(3)

    def test_kept_forms_are_still_made_and_kept(self):
        # The kernel's own writes go past the guard: the decoded mapping,
        # the mirrored table and the side rule's costs are kept on first use.
        x = e_lambda(Partition((2, 1)))
        assert x.coeffs is x.coeffs
        assert hecke._mirrored(x) is hecke._mirrored(x)
        assert hecke._costs(x) is hecke._costs(x)


class TestConcurrency:
    def test_parallel_dense_products_are_deterministic(self):
        # The rank memos and shift lists are filled lazily; the contract is
        # that readers never see a wrong or partial entry, so every thread
        # must get exactly the serial answer.  The caches are cleared after
        # the serial run, and the threads start together and switch often,
        # so they race to fill them.
        e = e_lambda(Partition((3, 2, 1)))
        braid = (3, 6, 4, 1, 5, 2)
        w = basis(6, *braid)

        def work(_):
            return e * w, w * e, e.conjugate_by_braid(braid)

        expected = work(None)
        for cache in (
            hecke._rank_memo,
            hecke._perm_memo,
            hecke._inverse_memo,
            hecke._partner_shifts,
        ):
            cache.cache_clear()
        start = threading.Barrier(8)

        def race(_):
            start.wait(timeout=60)
            return work(None)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
                results = list(pool.map(race, range(8)))
        finally:
            sys.setswitchinterval(interval)
        assert all(result == expected for result in results)


# Any JSON document.
json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=12,
)


@st.composite
def machine_documents(draw):
    """
    A machine-format element on 1-3 strands with at most one part (n, the
    terms, a permutation, a coefficient or one pair) replaced by any JSON,
    so that draws get past the outer checks and reach the inner ones.
    """
    n = draw(st.integers(1, 3))
    nonzero = st.sampled_from([-2, -1, 1, 2])
    coeff = st.dictionaries(st.integers(-2, 2), nonzero, min_size=1, max_size=3).map(
        lambda pairs: [[e, c] for e, c in pairs.items()]
    )
    term = st.fixed_dictionaries({"perm": st.permutations(range(1, n + 1)), "coeff": coeff})
    terms = draw(st.lists(term, max_size=3, unique_by=lambda t: tuple(t["perm"])))
    doc = {"n": n, "terms": terms}
    parts = [(doc, "n"), (doc, "terms")]
    for t in terms:
        parts += [(t, "perm"), (t, "coeff")] + [(t["coeff"], i) for i in range(len(t["coeff"]))]
    replaced = draw(st.sampled_from([None] + parts))
    if replaced is not None:
        holder, key = replaced
        holder[key] = draw(json_values)
    return doc


class TestSerialization:
    def test_machine_roundtrip(self):
        x = gen(3, 1).scale(S**-2) + basis(3, 3, 2, 1).scale(ONE + S)
        data = x.to_machine()
        assert HeckeElement.from_machine(data) == x
        assert data["terms"] == sorted(data["terms"], key=lambda t: t["perm"])

    def test_duplicate_perm_rejected(self):
        data = {
            "n": 2,
            "terms": [
                {"perm": [2, 1], "coeff": [[0, 1]]},
                {"perm": [2, 1], "coeff": [[1, 1]]},
            ],
        }
        with pytest.raises(ValueError):
            HeckeElement.from_machine(data)

    def test_repeated_exponent_rejected(self):
        data = {"n": 2, "terms": [{"perm": [1, 2], "coeff": [[0, 1], [0, 2]]}]}
        with pytest.raises(ValueError, match="repeated exponent"):
            HeckeElement.from_machine(data)

    @pytest.mark.parametrize(
        "data",
        [
            {"n": "2", "terms": []},
            [{"n": 2, "terms": []}],
            {"n": 2},
            {"n": 2, "terms": [{"perm": [1, 2], "coeff": [[0.5, 1]]}]},
            {"n": 2, "terms": [{"perm": [1, 2], "coeff": [[0, True]]}]},
            {"n": 2, "terms": [{"perm": [True, 2], "coeff": [[0, 1]]}]},
            {"n": 2, "terms": [{"perm": 3, "coeff": []}]},
            {"n": 2, "terms": [{"perm": [2, 1], "coeff": []}]},
            {"n": 2, "terms": [{"perm": [2, 1], "coeff": [[0, 0]]}]},
            {"n": 2, "terms": [{"perm": [2, 1], "coeff": [[0, 1], [1, 0]]}]},
        ],
    )
    def test_malformed_input_is_a_value_error(self, data):
        with pytest.raises(ValueError):
            HeckeElement.from_machine(data)

    def test_wide_exponent_span_is_a_value_error(self):
        # The narrow case first: without the guard it fails before the wide
        # one would try to allocate 10^8 coefficients.
        for top in (MAX_EXPONENT_SPAN + 1, 10**8):
            data = {"n": 1, "terms": [{"perm": [1], "coeff": [[top, 1], [0, 1]]}]}
            with pytest.raises(ValueError, match="span"):
                HeckeElement.from_machine(data)

    def test_wide_exponent_spread_across_terms_is_a_value_error(self):
        # Each coefficient is one term, but together they span past the
        # guard, which a packed table would hold densely.
        for top in (MAX_EXPONENT_SPAN + 1, 10**8):
            data = {
                "n": 2,
                "terms": [
                    {"perm": [1, 2], "coeff": [[0, 1]]},
                    {"perm": [2, 1], "coeff": [[top, 1]]},
                ],
            }
            with pytest.raises(ValueError, match="span"):
                HeckeElement.from_machine(data)
        data["terms"][1]["coeff"] = [[MAX_EXPONENT_SPAN, 1]]
        assert HeckeElement.from_machine(data).coeff((2, 1)).max_exp() == MAX_EXPONENT_SPAN

    def test_zero_on_any_strand_count(self):
        # The strand count of an element without terms costs nothing: no
        # key is there to check against 1..n.
        zero = HeckeElement.from_machine({"n": 10**12, "terms": []})
        assert zero.n == 10**12 and zero.is_zero()
        assert zero == HeckeElement.zero(10**12)
        assert zero.to_machine() == {"n": 10**12, "terms": []}
        with pytest.raises(ValueError, match="does not act on"):
            HeckeElement.from_machine({"n": 10**12, "terms": [{"perm": [1], "coeff": [[0, 1]]}]})

    @given(json_values | machine_documents())
    @settings(max_examples=200, deadline=None)
    def test_arbitrary_json_is_an_element_or_a_value_error(self, data):
        try:
            x = HeckeElement.from_machine(data)
        except ValueError:
            return
        assert isinstance(x, HeckeElement)
        assert HeckeElement.from_machine(x.to_machine()) == x

    def test_text_rendering(self):
        assert str(unit(2) + gen(2, 1).scale(S)) == "w[1,2] + s·w[2,1]"
        assert str(gen(2, 1).scale(-(S**-1))) == "-s^-1·w[2,1]"
        assert str(unit(2).scale(ONE + S) - gen(2, 1)) == "(1 + s)·w[1,2] - w[2,1]"
        assert str(HeckeElement.zero(2)) == "0"
