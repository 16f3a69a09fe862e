"""One-line-notation combinatorics: lengths, words, enumeration."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import permutations as perms
from qyoung.errors import TooLarge
from qyoung.laurent import LaurentPoly


def random_perm(max_n=6):
    return st.integers(1, max_n).flatmap(
        lambda n: st.permutations(list(range(1, n + 1))).map(tuple)
    )


class TestLength:
    def test_identity(self):
        assert perms.length(perms.identity(4)) == 0

    def test_single_swap(self):
        assert perms.length((2, 1, 3)) == 1

    @pytest.mark.parametrize("n", range(1, 8))
    def test_longest_element(self, n):
        assert perms.length(perms.longest_element(n)) == n * (n - 1) // 2

    @given(random_perm(), st.integers(1, 5))
    @settings(max_examples=60)
    def test_adjacent_step_changes_length_by_one(self, p, i):
        if i >= len(p):
            return
        moved = perms.right_mult_gen(p, i)
        assert abs(perms.length(moved) - perms.length(p)) == 1


class TestComposeAndInverse:
    def test_spec_example(self):
        assert perms.compose((2, 1, 3), (1, 3, 2)) == (2, 3, 1)

    def test_inverse_example(self):
        assert perms.inverse((2, 3, 1)) == (3, 1, 2)
        assert perms.inverse((1, 2, 3)) == (1, 2, 3)
        assert perms.inverse((1, 3, 2)) == (1, 3, 2)

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            perms.compose((1, 2), (1, 2, 3))

    @given(random_perm())
    @settings(max_examples=60)
    def test_inverse_is_two_sided(self, p):
        e = perms.identity(len(p))
        assert perms.compose(p, perms.inverse(p)) == e
        assert perms.compose(perms.inverse(p), p) == e
        assert perms.length(perms.inverse(p)) == perms.length(p)

    @given(random_perm())
    @settings(max_examples=40)
    def test_identity_is_neutral(self, p):
        e = perms.identity(len(p))
        assert perms.compose(p, e) == p
        assert perms.compose(e, p) == p

    def test_associativity_exhaustive_s3(self):
        everything = list(perms.all_permutations(3))
        for p in everything:
            for q in everything:
                for r in everything:
                    assert perms.compose(perms.compose(p, q), r) == perms.compose(
                        p, perms.compose(q, r)
                    )

    @given(random_perm(), random_perm())
    @settings(max_examples=60)
    def test_length_subadditive(self, p, q):
        if len(p) != len(q):
            return
        assert perms.length(perms.compose(p, q)) <= perms.length(p) + perms.length(q)


class TestReducedWords:
    def test_identity_gives_empty_word(self):
        assert perms.reduced_word((1, 2, 3)) == ()

    def test_single_generator(self):
        assert perms.reduced_word((2, 1, 3)) == (1,)

    def test_longest_element_of_s3(self):
        word = perms.reduced_word((3, 2, 1))
        assert len(word) == 3

    @given(random_perm(max_n=7))
    @settings(max_examples=80)
    def test_word_has_length_letters_and_evaluates_back(self, p):
        word = perms.reduced_word(p)
        assert len(word) == perms.length(p)
        acc = perms.identity(len(p))
        for i in word:
            acc = perms.right_mult_gen(acc, i)
        assert acc == p


class TestEnumeration:
    def test_sizes(self):
        assert len(list(perms.all_permutations(1))) == 1
        assert len(list(perms.all_permutations(3))) == 6

    def test_s5_has_unique_longest(self):
        everything = list(perms.all_permutations(5))
        assert len(everything) == 120
        assert sum(1 for p in everything if perms.length(p) == 10) == 1

    def test_lexicographic_order(self):
        listed = list(perms.all_permutations(3))
        assert listed == sorted(listed)

    def test_guard(self):
        assert perms.MAX_ENTRIES == 40320
        assert sum(1 for _ in perms.all_permutations(8)) == perms.MAX_ENTRIES
        for n in (9, 10, 10**12):
            with pytest.raises(TooLarge, match=f"S_{n} is refused"):
                perms.all_permutations(n)

    @pytest.mark.parametrize("n", range(1, 8))
    def test_length_generating_function_is_q_factorial(self, n):
        # Independent oracle: build the q-factorial directly as a product of
        # truncated geometric series in q = s^2.
        factorial = LaurentPoly.one()
        for k in range(1, n + 1):
            factorial = factorial * LaurentPoly.from_pairs(
                (2 * j, 1) for j in range(k)
            )
        total = LaurentPoly.from_pairs(
            (2 * perms.length(p), 1) for p in perms.all_permutations(n)
        )
        assert total == factorial

    def test_q_factorial_value_for_n3(self):
        total = LaurentPoly.from_pairs(
            (2 * perms.length(p), 1) for p in perms.all_permutations(3)
        )
        assert total == LaurentPoly.from_pairs([(0, 1), (2, 2), (4, 2), (6, 1)])


class TestValidation:
    def test_as_perm_accepts(self):
        assert perms.as_perm([2, 1, 3]) == (2, 1, 3)

    def test_as_perm_rejects(self):
        with pytest.raises(ValueError):
            perms.as_perm([1, 1, 2])
        with pytest.raises(ValueError):
            perms.as_perm([0, 1])
