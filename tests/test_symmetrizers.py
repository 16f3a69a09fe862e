"""
The symmetrizer constructions and their scalars.

Hand-computed coefficient tables for the small cases are frozen here as
independent checkpoints; the larger cases are gated by identities (squaring
scalars, closed forms, classical limits against the group-algebra oracle).
"""

import math
import random

import pytest

from qyoung import central, hecke
from qyoung import permutations as perms
from qyoung import symmetrizers as sym
from qyoung.central import twist_eigenvalue
from qyoung.errors import NotQuasiIdempotent, TooLarge
from qyoung.hecke import HeckeElement, extract_scalar
from qyoung.laurent import LaurentPoly, ONE, S, ZERO, qint
from qyoung.partitions import Partition, all_partitions
from qyoung.symmetrizers import (
    alpha_closed_form,
    alpha_extract,
    antisymmetrizer,
    column_element,
    e_lambda,
    row_element,
    symmetrizer,
)

from .oracles import alpha_cell_by_cell, classical_young_symmetrizer

Q = S**2
NEG_S_INV = LaurentPoly.monomial(-1, -1)


def with_mapping_copies(*elements):
    """
    The elements as built, which keep their one-entry coset table, and
    their copies built from mappings, which keep none: so each relation
    runs on the one entry and on the dense table alike.
    """
    return [elements, tuple(HeckeElement(x.n, dict(x.coeffs)) for x in elements)]


def partitions_up_to(k_max):
    for k in range(1, k_max + 1):
        yield from all_partitions(k)


class TestOneRowAndOneColumn:
    def test_trivial_cases(self):
        assert symmetrizer(1) == HeckeElement.unit(1)
        assert antisymmetrizer(1) == HeckeElement.unit(1)

    def test_two_strand_tables(self):
        # a_2 = w_e + s w_{s1},  b_2 = w_e - s^-1 w_{s1}
        assert symmetrizer(2).coeffs == {(1, 2): ONE, (2, 1): S}
        assert antisymmetrizer(2).coeffs == {(1, 2): ONE, (2, 1): NEG_S_INV}

    def test_two_strand_eigen_equations(self):
        for a2, b2 in with_mapping_copies(symmetrizer(2), antisymmetrizer(2)):
            assert a2.mul_generator(1) == a2.scale(S)
            assert a2.mul_generator(1).coeffs == {(1, 2): S, (2, 1): S**2}
            assert b2.mul_generator(1) == b2.scale(NEG_S_INV)

    def test_squares_of_small_elements(self):
        a3 = symmetrizer(3)
        three_factorial = (ONE + Q) * (ONE + Q + Q**2)
        assert a3 * a3 == a3.scale(three_factorial)
        b2 = antisymmetrizer(2)
        assert b2 * b2 == b2.scale(ONE + Q**-1)

    @pytest.mark.parametrize("n", range(2, 7))
    def test_eigen_relations_all_generators(self, n):
        for an, bn in with_mapping_copies(symmetrizer(n), antisymmetrizer(n)):
            for i in range(1, n):
                g = HeckeElement.generator(n, i)
                assert g * an == an.scale(S)
                assert an * g == an.scale(S)
                assert g * bn == bn.scale(NEG_S_INV)
                assert bn * g == bn.scale(NEG_S_INV)

    @pytest.mark.parametrize("n", range(2, 6))
    def test_basis_braids_act_by_length_power(self, n):
        for (an,) in with_mapping_copies(symmetrizer(n)):
            for p in perms.all_permutations(n):
                expected = an.scale(LaurentPoly.monomial(perms.length(p)))
                assert HeckeElement.basis_element(n, p) * an == expected

    @pytest.mark.parametrize("n", range(1, 8))
    def test_tables_written_by_rank_are_the_encoded_enumeration(self, n):
        # The kernel-free mapping {p: u^length(p)}, encoded, against the
        # table written by rank: the same ints, V, K, B and low.
        for build, u in ((symmetrizer, S), (antisymmetrizer, NEG_S_INV)):
            mapping = {p: u ** perms.length(p) for p in perms.all_permutations(n)}
            written, encoded = hecke._kept(build(n)), hecke._encode(HeckeElement(n, mapping))
            assert written.tidy and written.blocks is None
            assert (written.table, written.val, written.k, written.bound, written.low) == (
                encoded.table, encoded.val, encoded.k, encoded.bound, encoded.low
            )
            if n <= 6:
                assert build(n).coeffs == mapping

    def test_guard(self):
        with pytest.raises(TooLarge):
            symmetrizer(9)
        with pytest.raises(TooLarge):
            antisymmetrizer(9)


class TestDiagramElements:
    def test_row_element_degenerate_shapes(self):
        assert row_element(Partition((4,))) == symmetrizer(4)
        assert row_element(Partition((1, 1, 1))) == HeckeElement.unit(3)
        assert row_element(Partition((2, 1))) == symmetrizer(2).shift_embed(0, 3)

    def test_column_element_degenerate_shapes(self):
        assert column_element(Partition((1, 1, 1, 1))) == antisymmetrizer(4)
        assert column_element(Partition((4,))) == HeckeElement.unit(4)

    def test_column_element_hook_shape(self):
        expected = antisymmetrizer(2).shift_embed(0, 3).conjugate_by_braid((1, 3, 2))
        assert column_element(Partition((2, 1))) == expected

    def test_e_degenerate_shapes(self):
        assert e_lambda(Partition((1,))) == HeckeElement.unit(1)
        assert e_lambda(Partition((4,))) == symmetrizer(4)
        assert e_lambda(Partition((1, 1, 1, 1))) == antisymmetrizer(4)

    def test_e_hook_shape_frozen_table(self):
        # Multiplied out by hand from (w_e + s g_1)(w_e - s^-1 g_2 g_1 g_2^-1).
        assert e_lambda(Partition((2, 1))).coeffs == {
            (1, 2, 3): ONE,
            (2, 1, 3): S,
            (3, 1, 2): LaurentPoly.monomial(-2, -1),
            (3, 2, 1): NEG_S_INV,
        }

    def test_guard(self):
        # 9 cells are refused by every diagram builder, 8 cells need no flag.
        for build in (e_lambda, row_element, column_element):
            with pytest.raises(TooLarge, match=r"lambda=5,4 is refused: .* 9! basis braids"):
                build(Partition((5, 4)))
        assert not e_lambda(Partition((4, 4))).is_zero()


class TestQuasiIdempotency:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_square_is_scalar_multiple(self, k):
        for lam in all_partitions(k):
            qi = alpha_extract(lam)
            assert qi.element * qi.element == qi.element.scale(qi.alpha)
            assert not qi.alpha.is_zero()

    @pytest.mark.parametrize("k", range(1, 8))
    def test_symmetrizing_trace(self, k):
        # The trace t(w_p) = [p = 1] has t(w_p w_q) = [q = p^-1] (Geck-Pfeiffer
        # 2000, ch. 8), so t(e e) = sum of e_p e_{p^-1} and t(alpha e) =
        # alpha e_1: a check of alpha that shares no arithmetic with the
        # chains, only the decoded coefficients and Laurent products.
        for lam in all_partitions(k):
            qi = alpha_extract(lam)
            coeffs = qi.element.coeffs
            trace = ZERO
            for p, c in coeffs.items():
                other = coeffs.get(perms.inverse(p))
                if other is not None:
                    trace = trace + c * other
            assert trace == qi.alpha * qi.element.coeff(perms.identity(lam.n))

    def test_alpha_examples(self):
        assert alpha_extract(Partition((2,))).alpha == ONE + Q
        assert alpha_extract(Partition((1, 1))).alpha == ONE + Q**-1
        assert alpha_extract(Partition((2, 1))).alpha == qint(3)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_extraction_matches_closed_form(self, k):
        for lam in all_partitions(k):
            assert alpha_extract(lam).alpha == alpha_closed_form(lam)

    def test_closed_form_degenerate_shapes(self):
        # One row: the q-factorial.  One column: the same with q -> 1/q.
        for n in range(1, 6):
            q_factorial = ONE
            for k in range(1, n + 1):
                q_factorial = q_factorial * LaurentPoly.from_pairs(
                    (2 * j, 1) for j in range(k)
                )
            assert alpha_closed_form(Partition((n,))) == q_factorial
            assert alpha_closed_form(Partition((1,) * n)) == q_factorial.invert_variable()

    @pytest.mark.parametrize("k", range(1, 13))
    def test_packed_closed_form_is_the_cell_by_cell_product(self, k):
        for lam in all_partitions(k):
            assert dict(alpha_closed_form(lam).terms()) == alpha_cell_by_cell(lam.parts)

    @pytest.mark.parametrize("m", [21, 24])
    def test_packed_closed_form_with_wide_digits(self, m):
        # Hook product m! > 2^64, so the digits are 128 bits wide; from 22
        # cells on, the largest coefficient itself exceeds 2^64.
        for parts in ((m,), (1,) * m):
            alpha = alpha_closed_form(Partition(parts))
            assert dict(alpha.terms()) == alpha_cell_by_cell(parts)
            assert alpha.eval_at_one() == math.factorial(m)
            assert (max(alpha.coeffs) >= 1 << 64) == (m > 21)

    @pytest.mark.parametrize("k", range(1, 6))
    def test_conjugation_symmetry(self, k):
        # alpha of the transposed diagram is alpha under s -> -s^-1.
        for lam in all_partitions(k):
            flipped = alpha_extract(lam).alpha.invert_variable().negate_variable()
            assert alpha_extract(lam.conjugate()).alpha == flipped

    def test_normalized_idempotent(self):
        # The idempotent e/alpha as the pair alpha_extract returns.
        qi = alpha_extract(Partition((1,)))
        elem, denom = qi.element, qi.alpha
        assert elem == HeckeElement.unit(1) and denom == ONE
        qi = alpha_extract(Partition((2,)))
        elem, denom = qi.element, qi.alpha
        assert elem == symmetrizer(2) and denom == ONE + Q
        # e/alpha squares to itself in the fraction-field sense
        assert elem * elem == elem.scale(denom)

    def test_machine_form(self):
        qi = alpha_extract(Partition((2, 1)))
        payload = qi.to_machine()
        assert payload["lambda"] == [2, 1]
        assert LaurentPoly.from_pairs((e, c) for e, c in payload["alpha"]) == qi.alpha
        assert HeckeElement.from_machine(payload["element"]) == qi.element


def check_scalars_on_the_start(lam):
    # The square and the twist on the start x of lam's own side give the
    # alpha of e e by the general product and the tau of e ft, the band
    # chain on e's plain table: both read off e itself, not x.
    side, x = sym._own_table(lam)
    e = e_lambda(lam)
    squared = extract_scalar(e, e * e)
    twisted = hecke._extract(hecke._packed(e), central._mul_full_twist(hecke._packed(e)))
    assert squared.proportional and twisted.proportional
    assert sym._alpha(lam, side, x) == squared.scalar
    assert central._twist(lam, side, x) == twisted.scalar


@pytest.mark.parametrize(
    "lam",
    [
        pytest.param(lam, marks=[pytest.mark.slow] if k == 7 else [])
        for k in range(1, 8)
        for lam in all_partitions(k)
    ],
    ids=str,
)
def test_scalars_on_the_start_are_those_of_the_plain_products(lam):
    check_scalars_on_the_start(lam)


class TestClassicalLimit:
    @pytest.mark.parametrize("k", range(1, 6))
    def test_alpha_at_one_is_hook_product(self, k):
        for lam in all_partitions(k):
            product = 1
            for h in lam.hook_lengths():
                product *= h
            assert alpha_extract(lam).alpha.eval_at_one() == product

    @pytest.mark.parametrize("k", range(1, 5))
    def test_specialization_is_classical_symmetrizer(self, k):
        for lam in all_partitions(k):
            assert e_lambda(lam).specialize_at_one() == classical_young_symmetrizer(
                lam.parts
            )


class TestSandwich:
    @pytest.mark.parametrize("k", range(2, 5))
    def test_sandwich_is_scalar_multiple(self, k):
        rng = random.Random(20260809 + k)
        for lam in all_partitions(k):
            e = e_lambda(lam)
            for _ in range(20):
                images = list(range(1, k + 1))
                rng.shuffle(images)
                x = HeckeElement.basis_element(k, tuple(images))
                report = extract_scalar(e, e * x * e)
                assert report.proportional, (lam, images)


class TestErrorPaths:
    def test_guard_is_loud(self):
        with pytest.raises(TooLarge):
            alpha_extract(Partition((9,)))
        with pytest.raises(TooLarge):
            twist_eigenvalue(Partition((3, 3, 3)))

    def test_not_quasi_idempotent_is_unreachable_for_valid_shapes(self):
        # Every valid diagram must extract cleanly.
        for lam in partitions_up_to(4):
            try:
                alpha_extract(lam)
            except NotQuasiIdempotent as exc:  # pragma: no cover
                pytest.fail(f"unexpected failure for {lam}: {exc}")


# -- the element alpha_extract returns -------------------------------------------


@pytest.fixture
def expansions(monkeypatch):
    """
    The table size of each coset-table expansion, R h or B h as a full
    table, in order, and "e_lambda" for each call of
    ``symmetrizers.e_lambda``, which builds the element alpha_extract
    returns.
    """
    calls = []
    expanded, build = hecke._Packed.expanded, sym.e_lambda

    def spy(self):
        calls.append(len(self.table))
        return expanded(self)

    def spied_build(lam):
        calls.append("e_lambda")
        return build(lam)

    monkeypatch.setattr(hecke._Packed, "expanded", spy)
    monkeypatch.setattr(sym, "e_lambda", spied_build)
    return calls


def check_public_element(lam, expansions):
    # alpha_extract runs on the side's start alone: it never calls
    # e_lambda, and expands nothing but the build's one-entry start.  The
    # element is e_lambda, built by one call on its first read and kept.
    qi = alpha_extract(lam)
    assert expansions and set(expansions) == {1}
    expansions.clear()
    e = qi.element
    assert expansions[0] == "e_lambda" and expansions.count("e_lambda") == 1
    expansions.clear()
    assert qi.element is e and e.coeffs is e.coeffs
    assert qi.to_machine()["element"] == e.to_machine()
    assert expansions == []  # built once, then kept
    assert e == sym.e_lambda(lam)


@pytest.mark.parametrize("lam", list(partitions_up_to(7)), ids=str)
def test_alpha_extract_returns_e_lambda_expanded_only_when_read(lam, expansions):
    check_public_element(lam, expansions)


@pytest.mark.slow
@pytest.mark.parametrize("lam", list(all_partitions(8)), ids=str)
def test_alpha_extract_returns_e_lambda_expanded_only_when_read_eight_cells(lam, expansions):
    check_public_element(lam, expansions)
