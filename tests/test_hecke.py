"""The algebra kernel: rewriting rule, products, embeddings, extraction."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import permutations as perms
from qyoung.hecke import HeckeElement, Z, extract_scalar
from qyoung.laurent import MAX_EXPONENT_SPAN, LaurentPoly, ONE, S, ZERO
from qyoung.symmetrizers import symmetrizer

from . import oracles
from .oracles import group_algebra_mul


def unit(n):
    return HeckeElement.unit(n)


def gen(n, i):
    return HeckeElement.generator(n, i)


def basis(n, *one_line):
    return HeckeElement.basis_element(n, tuple(one_line))


def rewritten(x, p, q):
    """w_q, plus z x for x = w_p when q is shorter than p: one rewriting step."""
    w_q = basis(len(q), *q)
    return w_q + x.scale(Z) if oracles.length(q) < oracles.length(p) else w_q


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
    # The cost rule expands the factor with the shorter mean word length:
    # the right one directly, the left one through iota.  Short words on
    # the left send a product down the iota branch, long ones down the other.
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
            short = seeded_element(rng, 5, self.SHORT[: rng.randint(2, 6)])
            long = seeded_element(rng, 5, self.LONG[: rng.randint(2, 6)])
            x, y = (short, long) if through_iota else (long, short)
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
        report = extract_scalar(unit(2) + gen(2, 1), unit(2))
        assert not report.proportional
        assert report.witness is not None

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


class TestConcurrency:
    def test_parallel_dense_products_are_deterministic(self):
        # Exercises the lazily built action tables from many threads at once;
        # the contract is that readers never see a partially built row, so
        # every thread must get exactly the serial answer.
        import concurrent.futures

        import qyoung.hecke as hecke_module

        hecke_module._right_action.cache_clear()
        a4 = symmetrizer(4)
        expected = a4 * a4

        def square(_):
            return a4 * a4

        with concurrent.futures.ThreadPoolExecutor(max_workers=8) as pool:
            results = list(pool.map(square, range(16)))
        assert all(result == expected for result in results)


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

    def test_text_rendering(self):
        assert str(unit(2) + gen(2, 1).scale(S)) == "w[1,2] + s·w[2,1]"
        assert str(gen(2, 1).scale(-(S**-1))) == "-s^-1·w[2,1]"
        assert str(unit(2).scale(ONE + S) - gen(2, 1)) == "(1 + s)·w[1,2] - w[2,1]"
        assert str(HeckeElement.zero(2)) == "0"
