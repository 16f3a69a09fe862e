"""Young diagram combinatorics, checked against brute-force tableau counting."""

import math

import pytest

from qyoung.partitions import Partition, all_partitions

from .oracles import count_standard_tableaux


class TestConstruction:
    def test_parse(self):
        assert Partition.parse("3,2,1").parts == (3, 2, 1)
        assert Partition.parse("4").parts == (4,)

    def test_parse_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition.parse("1,2")

    def test_parse_rejects_junk(self):
        with pytest.raises(ValueError):
            Partition.parse("a,b")
        with pytest.raises(ValueError):
            Partition.parse("")
        with pytest.raises(ValueError):
            Partition.parse("3,0")

    def test_cell_count(self):
        assert Partition((4, 2, 1)).n == 7


class TestConjugate:
    def test_row_becomes_column(self):
        assert Partition((3,)).conjugate().parts == (1, 1, 1)

    def test_self_conjugate(self):
        assert Partition((2, 1)).conjugate().parts == (2, 1)

    def test_staircase_example(self):
        assert Partition((4, 2, 1)).conjugate().parts == (3, 2, 1, 1)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_involution_and_hook_invariance(self, k):
        for lam in all_partitions(k):
            conj = lam.conjugate()
            assert conj.conjugate() == lam
            assert sorted(conj.hook_lengths()) == sorted(lam.hook_lengths())
            assert sum(conj.contents()) == -sum(lam.contents())


class TestHooksAndContents:
    def test_one_row(self):
        assert Partition((5,)).hook_lengths() == [5, 4, 3, 2, 1]
        assert Partition((5,)).contents() == [0, 1, 2, 3, 4]

    def test_small_shapes(self):
        assert sorted(Partition((2, 1)).hook_lengths()) == [1, 1, 3]
        assert Partition((2, 2)).hook_lengths() == [3, 2, 2, 1]
        assert Partition((1, 1, 1)).contents() == [0, -1, -2]
        assert Partition((2, 1)).contents() == [0, 1, -1]

    @pytest.mark.parametrize("k", range(1, 13))
    def test_hook_lengths_are_the_hooks_cell_by_cell(self, k):
        for lam in all_partitions(k):
            assert lam.hook_lengths() == [lam.hook_length(i, j) for i, j in lam.cells()]

    @pytest.mark.parametrize("k", range(1, 7))
    def test_hook_product_times_tableau_count(self, k):
        for lam in all_partitions(k):
            product = 1
            for h in lam.hook_lengths():
                product *= h
            assert product * count_standard_tableaux(lam.parts) == math.factorial(k)

    @pytest.mark.parametrize("k", range(1, 9))
    def test_content_sum_identity(self, k):
        for lam in all_partitions(k):
            n_lam = sum(i * part for i, part in enumerate(lam.parts))
            n_conj = sum(i * part for i, part in enumerate(lam.conjugate().parts))
            assert sum(lam.contents()) == n_conj - n_lam


class TestReadingOrders:
    def test_single_row_and_column_are_trivial(self):
        assert Partition((4,)).column_reading_permutation() == (1, 2, 3, 4)
        assert Partition((1, 1, 1)).column_reading_permutation() == (1, 2, 3)

    def test_hook_shape(self):
        assert Partition((2, 1)).column_reading_permutation() == (1, 3, 2)

    def test_two_by_two(self):
        assert Partition((2, 2)).column_reading_permutation() == (1, 3, 2, 4)

    def test_offsets(self):
        lam = Partition((3, 2))
        assert lam.row_reading_offsets() == [0, 3]
        assert lam.column_reading_offsets() == [0, 2, 4]


class TestEnumeration:
    def test_counts(self):
        # 1, 2, 3, 5, 7, 11 partitions of 1..6
        for k, expected in zip(range(1, 7), [1, 2, 3, 5, 7, 11]):
            assert len(list(all_partitions(k))) == expected

    def test_deterministic_first_and_last(self):
        listed = [lam.parts for lam in all_partitions(4)]
        assert listed[0] == (4,)
        assert listed[-1] == (1, 1, 1, 1)
