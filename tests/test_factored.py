"""
The factored right actions by e_lambda and by the full twist, checked
against the general product they replace, and their exact generator-step
counts, which catch a silent fallback to the general product.
"""

import collections

import pytest

from qyoung import central
from qyoung import symmetrizers as sym
from qyoung.central import full_twist, twist_eigenvalue
from qyoung.hecke import HeckeElement
from qyoung.partitions import Partition, all_partitions
from qyoung.symmetrizers import (
    alpha_extract,
    antisymmetrizer,
    column_element,
    e_lambda,
    row_element,
    symmetrizer,
)

from . import oracles


def partitions_up_to(k_max):
    for k in range(1, k_max + 1):
        yield from all_partitions(k)


def square(e, lam):
    return sym._mul_column(sym._mul_row(e, lam), lam)


def shifted_block_product(build, sizes, offsets, n):
    """build(k) at each offset, multiplied with the general product from 1."""
    out = HeckeElement.unit(n)
    for k, offset in zip(sizes, offsets):
        out = out * build(k).shift_embed(offset, n)
    return out


SMALL = list(partitions_up_to(5))


@pytest.mark.parametrize("lam", SMALL, ids=str)
class TestAgainstGeneralProduct:
    def test_square(self, lam):
        e = e_lambda(lam)
        assert square(e, lam) == e * e

    def test_full_twist_action(self, lam):
        e = e_lambda(lam)
        assert central._mul_full_twist(e) == full_twist(lam.n) * e

    def test_e_lambda_is_row_times_column(self, lam):
        assert e_lambda(lam) == row_element(lam) * column_element(lam)

    def test_row_element_is_block_product(self, lam):
        expected = shifted_block_product(
            symmetrizer, lam.parts, lam.row_reading_offsets(), lam.n
        )
        assert row_element(lam) == expected

    def test_column_element_is_conjugated_block_product(self, lam):
        blocks = shifted_block_product(
            antisymmetrizer, lam.conjugate().parts, lam.column_reading_offsets(), lam.n
        )
        expected = blocks.conjugate_by_braid(lam.column_reading_permutation())
        assert column_element(lam) == expected


@pytest.mark.slow
@pytest.mark.parametrize("lam", list(all_partitions(6)), ids=str)
def test_six_cell_square_against_general_product(lam):
    e = e_lambda(lam)
    assert square(e, lam) == e * e


@pytest.fixture
def calls(monkeypatch):
    """Counts of HeckeElement.mul_generator and HeckeElement.__mul__ calls."""
    counts = collections.Counter()
    for name in ("mul_generator", "__mul__"):
        original = getattr(HeckeElement, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(HeckeElement, name, spy)
    return counts


def e_lambda_steps(lam):
    """Row blocks, column blocks, and w_d with its inverse around the columns."""
    blocks = lam.parts + lam.conjugate().parts
    d = lam.column_reading_permutation()
    return sum(k * (k - 1) // 2 for k in blocks) + 2 * oracles.length(d)


@pytest.mark.parametrize("lam", SMALL, ids=str)
class TestGeneratorSteps:
    def test_square(self, lam, calls):
        e = e_lambda(lam)
        assert calls == collections.Counter(mul_generator=e_lambda_steps(lam))
        calls.clear()
        square(e, lam)
        assert calls == collections.Counter(mul_generator=e_lambda_steps(lam))

    def test_alpha_extract_builds_then_squares(self, lam, calls):
        alpha_extract(lam)
        assert calls["__mul__"] == 0
        assert calls["mul_generator"] == 2 * e_lambda_steps(lam)

    def test_twist_eigenvalue(self, lam, calls):
        e = e_lambda(lam)
        calls.clear()
        central._mul_full_twist(e)
        assert calls == collections.Counter(mul_generator=lam.n * (lam.n - 1))
        calls.clear()
        twist_eigenvalue(lam)
        assert calls["__mul__"] == 0
        assert calls["mul_generator"] == e_lambda_steps(lam) + lam.n * (lam.n - 1)


def test_step_count_of_a_hook():
    # (2,1): one row block of 2, one column block of 2, d = (1,3,2) of length 1.
    assert e_lambda_steps(Partition((2, 1))) == 1 + 1 + 2
