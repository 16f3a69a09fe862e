"""
The factored right actions by e_lambda and by the full twist, checked
against the general product they replace, and their exact generator-step
counts, which catch a silent fallback to the general product.  The actions
run on packed chain values: ``packed`` applies them to an element's packed
table and wraps the result as an element.
"""

import collections
import math

import pytest

from qyoung import central, hecke
from qyoung import symmetrizers as sym
from qyoung.central import full_twist, twist_eigenvalue
from qyoung.hecke import HeckeElement, _element, _packed, _Packed
from qyoung.laurent import S
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


def packed(action, x, *args):
    """action applied to x as one packed chain, from x's packed table to an element."""
    return _element(action(_packed(x), *args))


def square(e, lam):
    return packed(lambda x: sym._mul_column(sym._mul_row(x, lam), lam), e)


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
        assert packed(central._mul_full_twist, e) == full_twist(lam.n) * e

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


@pytest.mark.parametrize("lam", list(partitions_up_to(4)), ids=str)
class TestInputsUnchanged:
    # Results share packed ints and coefficient tables with their inputs
    # where nothing changed, so an accumulator that started from an input's
    # table instead of a copy would rewrite the input.

    def test_generator_steps(self, lam):
        e = e_lambda(lam)
        before = e.to_machine()
        x = _packed(e)
        table = dict(x.table)
        for i in range(1, lam.n):
            e.mul_generator(i)
            e.mul_generator(i, -1)
            x.mul_generator(i)
            x.mul_generator(i, -1)
        assert e.to_machine() == before
        assert x.table == table

    def test_block_actions(self, lam):
        x = _packed(e_lambda(lam))
        before = dict(x.table)
        for u in (S, sym.NEG_S_INV):
            for k in range(2, lam.n + 1):
                sym._block_action(x, k, lam.n - k, u)
        assert x.table == before
        assert _element(x).to_machine() == e_lambda(lam).to_machine()

    def test_row_column_and_twist_actions(self, lam):
        e = e_lambda(lam)
        before = e.to_machine()
        x = _packed(e)
        table = dict(x.table)
        sym._mul_row(x, lam)
        sym._mul_column(x, lam)
        central._mul_full_twist(x)
        assert x.table == table
        central.twist_scalar(e, lam)
        assert e.to_machine() == before

    def test_alpha_extract_returns_the_unsquared_element(self, lam):
        assert alpha_extract(lam).element.to_machine() == e_lambda(lam).to_machine()

    def test_square_and_twist_leave_the_kept_packed_table_alone(self, lam):
        # Squaring and the twist start from the packed table e_lambda holds;
        # had either used it as an add_times accumulator, its entries, V or
        # bound would now differ from a fresh build's.
        def state(pk):
            return dict(pk.table), pk.val, pk.k, pk.bound, pk.low

        fresh = state(_packed(e_lambda(lam)))
        e = alpha_extract(lam).element
        assert state(_packed(e)) == fresh
        central.twist_scalar(e, lam)
        assert state(_packed(e)) == fresh


@pytest.fixture
def calls(monkeypatch):
    """
    Counts of packed generator steps, under "mul_generator", and of
    HeckeElement.__mul__ calls.  Every chain steps through
    _Packed.mul_generator; HeckeElement.mul_generator is the one-step chain.
    """
    counts = collections.Counter()
    for owner, name in ((_Packed, "mul_generator"), (HeckeElement, "__mul__")):
        original = getattr(owner, name)

        def spy(self, *args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(self, *args, **kwargs)

        monkeypatch.setattr(owner, name, spy)
    return counts


@pytest.fixture
def touched(monkeypatch):
    """The table size of every packed generator step, in order."""
    sizes = []
    original = _Packed.mul_generator

    def spy(self, *args, **kwargs):
        sizes.append(len(self.table))
        return original(self, *args, **kwargs)

    monkeypatch.setattr(_Packed, "mul_generator", spy)
    return sizes


def side_group_order(lam):
    """
    The order of the Young subgroup of lam's side, product of part! over
    lam on the row side and over lam' on the sign side: how many times
    fewer entries a coset step touches.
    """
    parts = lam.parts if sym._row_side(lam) else lam.conjugate().parts
    return math.prod(math.factorial(k) for k in parts)


def side_plain(e, lam):
    """
    The plain table whose coset table e's chains run on: e's own on the row
    side, f = iota(w_d^-1 e w_d) on the sign side.
    """
    x = _packed(e)
    return x if sym._row_side(lam) else sym._sign_element(x, lam)


@pytest.fixture
def conversions(monkeypatch):
    """
    Counts of conversions: encodes of an element's mapping and decodes of a
    packed table.  Only ``hecke`` calls the two, through its own globals.
    """
    counts = collections.Counter()
    for name in ("_encode", "_decode"):

        def spy(x, _name=name, _original=getattr(hecke, name)):
            counts[_name] += 1
            return _original(x)

        monkeypatch.setattr(hecke, name, spy)
    return counts


def e_lambda_steps(lam):
    """Row blocks, column blocks, and w_d with its inverse around the columns."""
    blocks = lam.parts + lam.conjugate().parts
    d = lam.column_reading_permutation()
    return sum(k * (k - 1) // 2 for k in blocks) + 2 * oracles.length(d)


def derivation_steps(lam):
    """
    The steps that derive the sign-side table f = iota(e w_d) w_{d^-1}^-1
    from e: 2 length(d) on the sign side, none on the row side.
    """
    if sym._row_side(lam):
        return 0
    return 2 * oracles.length(lam.column_reading_permutation())


@pytest.mark.parametrize("lam", SMALL, ids=str)
class TestGeneratorSteps:
    def test_square(self, lam, calls):
        e = e_lambda(lam)
        assert calls == collections.Counter(mul_generator=e_lambda_steps(lam))
        calls.clear()
        square(e, lam)
        assert calls == collections.Counter(mul_generator=e_lambda_steps(lam))

    def test_alpha_extract_builds_then_squares(self, lam, calls, touched):
        alpha_extract(lam)
        assert calls["__mul__"] == 0
        assert calls["mul_generator"] == 2 * e_lambda_steps(lam) + derivation_steps(lam)
        # The square steps the coset table of e (row side) or of f (sign
        # side): each step touches the side's Young subgroup order times
        # fewer entries than the same step on the plain table.
        steps = e_lambda_steps(lam)
        coset = touched[len(touched) - steps :]
        x = side_plain(e_lambda(lam), lam)
        del touched[:]
        sym._mul_symmetrizer(x, lam, sym._row_side(lam))
        assert [size * side_group_order(lam) for size in coset] == touched
        assert all(size <= math.factorial(lam.n) // side_group_order(lam) for size in coset)

    def test_twist_eigenvalue(self, lam, calls):
        e = e_lambda(lam)
        x = _packed(e)
        calls.clear()
        central._mul_full_twist(x)
        assert calls == collections.Counter(mul_generator=lam.n * (lam.n - 1))
        calls.clear()
        twist_eigenvalue(lam)
        assert calls["__mul__"] == 0
        assert calls["mul_generator"] == (
            e_lambda_steps(lam) + derivation_steps(lam) + lam.n * (lam.n - 1)
        )

    def test_twist_touches_the_coset_table(self, lam, touched):
        steps = lam.n * (lam.n - 1)
        e = e_lambda(lam)
        x = side_plain(e, lam)
        sym._coset_table(e, lam)  # the sign side derives its table first
        del touched[:]
        central.twist_scalar(e, lam)
        coset = list(touched)
        del touched[:]
        central._mul_full_twist(x)
        assert len(coset) == steps
        assert [size * side_group_order(lam) for size in coset] == touched


@pytest.mark.parametrize("lam", SMALL, ids=str)
class TestOneConversionPerChain:
    # An element converts at most once each way, and a result that is only
    # compared is never decoded; a conversion per step would show here long
    # before it showed in timings.

    def test_e_lambda(self, lam, conversions):
        e = e_lambda(lam)
        assert conversions == collections.Counter(_encode=1)  # the unit
        assert e.coeffs is e.coeffs  # the decoded view is kept
        assert conversions == collections.Counter(_encode=1, _decode=1)

    def test_alpha_extract_builds_then_squares(self, lam, conversions):
        alpha_extract(lam)
        assert conversions == collections.Counter(_encode=1)  # the unit

    def test_twist_scalar(self, lam, conversions):
        e = e_lambda(lam)
        conversions.clear()
        central.twist_scalar(e, lam)
        assert conversions == collections.Counter()


def test_step_count_of_a_hook():
    # (2,1): one row block of 2, one column block of 2, d = (1,3,2) of length 1.
    assert e_lambda_steps(Partition((2, 1))) == 1 + 1 + 2
