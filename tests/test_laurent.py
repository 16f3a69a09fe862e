"""The coefficient ring: canonical form, ring axioms, exact division."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung.errors import NotDivisible
from qyoung.laurent import (
    MAX_EXPONENT_SPAN,
    NEG_S_INV,
    LaurentPoly,
    ONE,
    S,
    ZERO,
    qint,
)


def lp(*pairs):
    return LaurentPoly.from_pairs(pairs)


laurent_polys = st.builds(
    LaurentPoly.from_pairs,
    st.lists(
        st.tuples(st.integers(-6, 6), st.integers(-9, 9)),
        max_size=6,
    ),
)
nonzero_polys = laurent_polys.filter(lambda p: not p.is_zero())


class TestCanonicalForm:
    def test_trims_zeros(self):
        assert LaurentPoly(2, (0, 0, 1, 0)) == LaurentPoly(4, (1,))

    def test_zero_is_unique(self):
        assert LaurentPoly(5, (0, 0)) == ZERO
        assert lp() == ZERO

    def test_equality_is_structural(self):
        assert lp((1, 1), (-1, 1)) == lp((-1, 1), (1, 1))
        assert lp((0, 1)) != lp((0, 2))

    def test_additive_inverse(self):
        assert S + (-S) == ZERO

    def test_examples_from_sums(self):
        assert lp((0, 1), (2, 1)) + lp((2, 1)) == lp((0, 1), (2, 2))
        assert lp((-1, 1), (1, -1)) + S == LaurentPoly.monomial(-1)

    def test_from_pairs_exponent_span_guard(self):
        assert lp((0, 1), (MAX_EXPONENT_SPAN, 1)).max_exp() == MAX_EXPONENT_SPAN
        with pytest.raises(ValueError, match="span"):
            lp((0, 1), (MAX_EXPONENT_SPAN + 1, 1))
        # Cancelled terms do not count towards the span.
        assert lp((0, 1), (10**8, 1), (10**8, -1)) == ONE


class TestImmutable:
    @pytest.mark.parametrize("field", ["val", "coeffs"])
    def test_assignment_and_deletion_raise(self, field):
        x = LaurentPoly(0, (1, 2))
        before = hash(x)
        with pytest.raises(AttributeError):
            setattr(x, field, 3)
        with pytest.raises(AttributeError):
            delattr(x, field)
        assert (x, hash(x)) == (LaurentPoly(0, (1, 2)), before)

    def test_shared_constants_keep_their_value_and_hash(self):
        for shared, pairs in ((ONE, ((0, 1),)), (S, ((1, 1),)), (NEG_S_INV, ((-1, -1),))):
            with pytest.raises(AttributeError):
                shared.val = 3
            assert shared == lp(*pairs) and hash(shared) == hash(lp(*pairs))

    def test_a_dict_key_stays_findable(self):
        table = {LaurentPoly(0, (1, 2)): "found"}
        key = next(iter(table))
        with pytest.raises(AttributeError):
            key.val = 3
        assert table[LaurentPoly(0, (1, 2))] == "found"


class TestMultiplication:
    def test_difference_of_squares(self):
        z = S - S.invert_variable()
        assert z * (S + S.invert_variable()) == lp((2, 1), (-2, -1))

    def test_zero_annihilates(self):
        assert ZERO * lp((3, 4), (-1, 2)) == ZERO

    def test_cyclotomic_product(self):
        assert (ONE + S) * lp((0, 1), (1, -1), (2, 1)) == ONE + S**3


class TestExactDiv:
    def test_quantum_example(self):
        top = lp((2, 1), (-2, -1))
        assert top.exact_div(S - S**-1) == S + S**-1

    def test_divide_by_one(self):
        x = ONE + S**2
        assert x.exact_div(ONE) == x

    def test_monomial_divisor(self):
        assert (ONE + S).exact_div(S) == S**-1 + ONE

    def test_not_divisible(self):
        with pytest.raises(NotDivisible):
            (ONE + S).exact_div(lp((0, 2)))

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            ONE.exact_div(ZERO)

    @given(laurent_polys, nonzero_polys)
    @settings(max_examples=80)
    def test_mul_then_div_roundtrips(self, a, b):
        assert (a * b).exact_div(b) == a


class TestRingAxioms:
    @given(laurent_polys, laurent_polys)
    @settings(max_examples=60)
    def test_commutativity(self, a, b):
        assert a + b == b + a
        assert a * b == b * a

    @given(laurent_polys, laurent_polys, laurent_polys)
    @settings(max_examples=60)
    def test_associativity_and_distributivity(self, a, b, c):
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(laurent_polys)
    @settings(max_examples=30)
    def test_units(self, a):
        assert a + ZERO == a
        assert a * ONE == a


class TestQuantumIntegers:
    def test_small_values(self):
        assert qint(1) == ONE
        assert qint(2) == S + S**-1
        assert qint(3) == S**2 + ONE + S**-2

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            qint(0)

    @pytest.mark.parametrize("k", range(1, 13))
    def test_classical_value(self, k):
        assert qint(k).eval_at_one() == k

    @pytest.mark.parametrize("k", range(1, 13))
    def test_palindromic(self, k):
        assert qint(k).invert_variable() == qint(k)

    def test_defining_quotient(self):
        for k in range(1, 10):
            top = LaurentPoly.monomial(k) - LaurentPoly.monomial(-k)
            assert top.exact_div(S - S**-1) == qint(k)


class TestSpecializations:
    def test_eval_at_one(self):
        assert qint(3).eval_at_one() == 3
        assert (S - S**-1).eval_at_one() == 0
        assert ZERO.eval_at_one() == 0

    @given(laurent_polys)
    @settings(max_examples=40)
    def test_involutions(self, a):
        assert a.invert_variable().invert_variable() == a
        assert a.negate_variable().negate_variable() == a

    @given(laurent_polys, laurent_polys)
    @settings(max_examples=40)
    def test_invert_variable_is_a_ring_map(self, a, b):
        assert (a * b).invert_variable() == a.invert_variable() * b.invert_variable()
        assert (a + b).invert_variable() == a.invert_variable() + b.invert_variable()


class TestRendering:
    def test_text_format(self):
        assert str(lp((-1, 1), (0, 2), (3, 1))) == "s^-1 + 2 + s^3"
        assert str(ZERO) == "0"
        assert str(lp((0, -1), (2, -3))) == "-1 - 3s^2"

    def test_machine_pairs_roundtrip(self):
        x = lp((-2, 5), (0, -1), (7, 3))
        assert LaurentPoly.from_pairs((e, c) for e, c in x.pairs()) == x
