"""
Elements that hold only their coset table.

An element of R H_n or B H_n made by the kernel (e_lambda, a_n, b_n,
``row_element``, and a step, rescaling or product of one of them) holds
its coset table h alone.  Its coefficients are read straight off h, and
must be what decoding h's expansion gives, in the same order; its packed
table is made, tidy, on the first need, and kept; ``is_zero`` and ``==``
read h as it is.  ``==`` is checked over every pair of an element's forms.
"""

import collections
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import hecke
from qyoung.hecke import HeckeElement, _Blocks, _element, _packed, _Packed, extract_scalar
from qyoung.laurent import ONE, S, ZERO, LaurentPoly
from qyoung.partitions import Partition, all_partitions
from qyoung.symmetrizers import antisymmetrizer, e_lambda, row_element, symmetrizer

from .test_cosets import COEFF, partitions_up_to, representatives, untidy


def check_read_from_h(x):
    """
    x holds h alone; its coefficients are h's expansion decoded, in the
    same order, and reading them expands nothing.
    """
    h = x._ck
    assert x._pk is None and h is not None and h.blocks is not None
    want = hecke._decode(h.expanded())
    assert list(x.coeffs.items()) == list(want.items())
    assert x._pk is None and x._ck is h


# -- coefficients read straight from the coset table --------------------------------


@pytest.mark.parametrize("lam", [lam for lam in partitions_up_to(7) if lam.n > 1], ids=str)
def test_e_lambda_is_read_from_its_coset_table(lam):
    e = e_lambda(lam)
    # (1^n) is built on the sign side: B h with h one entry.
    assert e._ck.blocks.row == (lam.parts[0] > 1)
    check_read_from_h(e)


@pytest.mark.parametrize("n", range(2, 8))
def test_one_dimensional_elements_are_read_from_one_entry(n):
    for x in (symmetrizer(n), antisymmetrizer(n)):
        assert x._ck.table.keys() == {0}
        check_read_from_h(x)
    assert symmetrizer(n).coeffs == {
        p: LaurentPoly.monomial(sum(1 for i, j in itertools.combinations(p, 2) if i > j))
        for p in itertools.permutations(range(1, n + 1))
    }


@pytest.mark.parametrize("lam", [lam for lam in partitions_up_to(7) if lam.parts[0] > 1], ids=str)
def test_row_element_is_read_from_its_coset_table(lam):
    check_read_from_h(row_element(lam))


LONG_BRAID = (3, 6, 4, 1, 5, 2)
SPARSE_Y = {(2, 1, 3, 5, 4, 6): S, (1, 4, 2, 6, 3, 5): LaurentPoly(-1, (2, 0, -1))}


@pytest.mark.parametrize(
    "make",
    [
        lambda: e_lambda(Partition((3, 2, 1))) * HeckeElement(6, SPARSE_Y),
        lambda: e_lambda(Partition((1,) * 6)) * HeckeElement(6, SPARSE_Y),
        lambda: HeckeElement.basis_element(6, LONG_BRAID) * symmetrizer(6),
        lambda: HeckeElement.basis_element(6, LONG_BRAID) * antisymmetrizer(6),
        lambda: e_lambda(Partition((3, 3))).scale(LaurentPoly(-1, (2, 0, -1))),
        lambda: antisymmetrizer(5).scale(-3),
        lambda: e_lambda(Partition((2, 2, 1))).mul_generator(3, -1),
        lambda: e_lambda(Partition((2, 2, 1, 1))).mul_generator(2),
        lambda: row_element(Partition((4, 2))).mul_generator(5).mul_generator(1, -1),
    ],
    ids=["e y", "e_1x6 y", "w a6", "w b6", "scale", "scale b5", "step", "sign step", "two steps"],
)
def test_results_are_read_from_their_coset_tables(make):
    x = make()
    check_read_from_h(x)
    # The same element from its mapping, packed afresh.
    assert HeckeElement(x.n, dict(x.coeffs)) == _element(make()._ck.expanded())


# -- the packed table, made once on the first need ----------------------------------


@pytest.fixture
def conversions(monkeypatch):
    """Counts of expansions and tidies of packed tables."""
    counts = collections.Counter()
    for name in ("expanded", "_tidied"):

        def spy(self, _name=name, _original=getattr(_Packed, name)):
            counts[_name] += 1
            return _original(self)

        monkeypatch.setattr(_Packed, name, spy)
    return counts


@pytest.mark.parametrize("lam", [Partition(p) for p in ((3, 2, 1), (2, 2, 1), (2, 1, 1))], ids=str)
def test_kept_tidies_h_and_expands_it_once(lam, conversions):
    e = e_lambda(lam)
    built = e._ck
    conversions.clear()  # the build's own expansion of its start
    assert not built.tidy
    kept = hecke._kept(e)
    # h is tidied, once, and kept; its expansion, tidy, is kept beside it.
    assert conversions == collections.Counter(expanded=1, _tidied=1)
    assert e._ck.tidy and e._ck is not built and e._pk is kept and kept.tidy
    assert (kept.table, kept.val, kept.k) == (
        built._tidied().expanded().table, built._tidied().val, built._tidied().k
    )
    conversions.clear()
    # Every later read of e's packed table, or of the tidied h, uses the
    # kept ones.
    assert hecke._kept(e) is kept and _packed(e) is kept and hecke._chain_start(e) is e._ck
    hecke._mirrored(e)
    assert e == HeckeElement(lam.n, dict(e.coeffs))
    assert extract_scalar(e, e).scalar == ONE
    e.mul_generator(1)
    assert conversions == collections.Counter()


def test_a_coset_only_result_expands_only_for_a_plain_table(conversions):
    # A step and a product of e stay coset tables; the ==, decode and
    # is_zero between them expand nothing, and iota(e) does, once.
    e = e_lambda(Partition((3, 2)))
    conversions.clear()  # the build's own expansion of its start
    y = HeckeElement(5, {(2, 1, 3, 5, 4): S})
    x = e.mul_generator(2) * y
    assert not x.is_zero() and x == e * (HeckeElement.generator(5, 2) * y)
    x.coeffs
    assert conversions["expanded"] == 0
    hecke._mirrored(e)
    assert conversions["expanded"] == 1


# -- is_zero reads h -----------------------------------------------------------------


@pytest.mark.parametrize(
    "make, j, zero",
    [
        (lambda: symmetrizer(5), 3, True),
        (lambda: row_element(Partition((3, 2))), 4, True),
        (lambda: antisymmetrizer(4).scale(-2), 2, False),
        (lambda: e_lambda(Partition((2, 2))), 1, False),
    ],
    ids=["a5", "R of 3,2", "b4", "e of 2,2"],
)
def test_is_zero_on_a_coset_only_result(make, j, zero, conversions):
    # x (g_j - s): zero for x in R H_n with s_j in a row block, since
    # R g_j = s R; not for b_4, on which g_j acts by -s^-1, nor for
    # e_lambda, whose right factor is not R.
    x = make()
    conversions.clear()  # e_lambda's build expands its start
    n = x.n
    right = x * (HeckeElement.generator(n, j) - HeckeElement.unit(n).scale(S))
    assert right._pk is None and right._ck is not None
    assert right.is_zero() == zero == (not right._ck.table)
    assert conversions["expanded"] == 0
    assert right.is_zero() == (not right.coeffs) == (right == HeckeElement.zero(n))


def test_is_zero_reads_h_without_expanding(conversions):
    zero = symmetrizer(4) * (HeckeElement.generator(4, 2) - HeckeElement.unit(4).scale(S))
    nonzero = symmetrizer(4) * HeckeElement.generator(4, 2)
    assert zero._ck is not None and nonzero._ck is not None
    assert zero.is_zero() and not nonzero.is_zero()
    assert conversions["expanded"] == 0
    assert zero == HeckeElement.zero(4) and not zero.coeffs


# -- == over every pair of forms ----------------------------------------------------

# Diagrams of 2 to 6 cells whose row blocks, or column blocks, are not all trivial.
ROWS = [lam for k in range(2, 7) for lam in all_partitions(k) if lam.parts[0] > 1]
COLUMNS = [lam for k in range(2, 7) for lam in all_partitions(k) if len(lam.parts) > 1]


def refined(parts):
    """The blocks with the last block of two or more strands split off its last strand."""
    j = max(i for i, m in enumerate(parts) if m > 1)
    return parts[:j] + (parts[j] - 1, 1) + parts[j + 1 :]


@st.composite
def coset_pairs(draw):
    """(blocks, h, h'): two coset tables with the same blocks that differ at one representative."""
    on_row = draw(st.booleans())
    lam = draw(st.sampled_from(ROWS if on_row else COLUMNS))
    blocks = _Blocks(lam.parts if on_row else lam.conjugate().parts, on_row)
    reps = representatives(blocks.parts)
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=10, unique=True))
    table = {p: draw(COEFF) for p in chosen}
    other = dict(table)
    p = draw(st.sampled_from(reps))
    bumped = other.get(p, ZERO) + draw(COEFF.filter(lambda c: not c.is_zero()))
    if bumped.is_zero():
        del other[p]
    else:
        other[p] = bumped
    n = lam.n
    return tuple(_packed(HeckeElement(n, t)).with_blocks(blocks) for t in (table, other))


def forms(h):
    """Makers of the element F h in each of its forms, each made afresh."""
    n, blocks = h.n, h.blocks

    def coset():
        return _element(coset=h)

    def decoded():
        x = coset()
        x.coeffs
        return x

    def kept():
        x = coset()
        hecke._kept(x)
        return x

    def other_blocks():
        # F h lies in F' H_n for the smaller subgroup of the refined
        # blocks, whose coset table is F h read at its representatives.
        finer = refined(blocks.parts)
        reps = set(representatives(finer))
        mapping = {p: c for p, c in coset().coeffs.items() if p in reps}
        table = _packed(HeckeElement(n, mapping)).with_blocks(_Blocks.of(finer, blocks.row))
        return _element(coset=table)

    return {
        "mapping": lambda: HeckeElement(n, dict(coset().coeffs)),
        "packed": lambda: _element(h.expanded()),
        "coset": coset,
        "coset untidy": lambda: _element(coset=untidy(h, 2)),
        "coset decoded": decoded,
        "coset kept": kept,
        "other blocks": other_blocks,
    }


@given(coset_pairs())
@settings(max_examples=80, deadline=None)
def test_equality_over_every_pair_of_forms(case):
    h, other = case
    mine, theirs = forms(h), forms(other)
    for (a, make_a), (b, make_b) in itertools.product(mine.items(), repeat=2):
        assert make_a() == make_b(), (a, b)
        assert make_a() != theirs[b](), (a, b)
        assert theirs[a]() != make_b(), (a, b)


def test_two_coset_only_elements_are_not_equal_by_their_missing_mappings():
    a, b = symmetrizer(4), antisymmetrizer(4)
    c = symmetrizer(4).scale(S)
    for x, y in ((a, c), (a, b)):
        assert x._coeffs is None and y._coeffs is None and x._pk is None and y._pk is None
        assert x != y
    assert a == symmetrizer(4) and c == symmetrizer(4) * HeckeElement.generator(4, 1)
