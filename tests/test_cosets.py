"""
Coset tables: the packed tables of R h keyed only by the minimal coset
representatives of S_lambda, with R the row element of lambda.

Every coset chain is checked against the plain chain it replaces, run
through the same functions on the expanded table and restricted at the
end, and the expansion against the general product R * h.
"""

import collections
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import central, hecke
from qyoung import symmetrizers as sym
from qyoung.hecke import HeckeElement, _element, _extract, _packed, _Packed, _restricted
from qyoung.laurent import LaurentPoly, ONE
from qyoung.partitions import Partition, all_partitions


def partitions_up_to(k_max):
    for k in range(1, k_max + 1):
        yield from all_partitions(k)


def plain(pk):
    """A coset table's entries as a plain element h, for comparing tables."""
    return _element(pk.with_blocks(None))


def expanded(h, lam):
    """R h as an element, from the coset table h of R h."""
    return _element(sym._expanded(h, lam))


def coset_unit(lam):
    return _packed(HeckeElement.unit(lam.n)).with_blocks(lam.parts)


def square(x, lam):
    return sym._mul_column(sym._mul_row(x, lam), lam)


@functools.cache
def representatives(parts):
    """The minimal coset representatives of S_lambda, by brute force over S_n."""
    block = [b for b, part in enumerate(parts) for _ in range(part)]
    out = []
    for p in itertools.permutations(range(1, sum(parts) + 1)):
        values = collections.defaultdict(list)
        for v in p:
            values[block[v - 1]].append(v)
        if all(seen == sorted(seen) for seen in values.values()):
            out.append(p)
    return out


def refuse_to_restrict(pk, blocks):
    raise AssertionError("restricted a table whose coset table was kept")


SMALL_SHAPES = [Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))]

# Diagrams of 3 to 6 cells whose row blocks are not all trivial.
NONTRIVIAL = [lam for k in range(3, 7) for lam in all_partitions(k) if lam.parts[0] > 1]

COEFF = st.one_of(
    st.builds(
        LaurentPoly.from_pairs,
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), min_size=1, max_size=3),
    ),
    # Wide enough that a few steps force the digit-widening guard.
    st.builds(LaurentPoly.monomial, st.integers(-2, 2), st.integers(2**62, 2**70)),
)


@st.composite
def coset_elements(draw):
    """(lam, h): a coset table on random representatives with random coefficients."""
    lam = draw(st.sampled_from(NONTRIVIAL))
    reps = representatives(lam.parts)
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=12, unique=True))
    table = {p: draw(COEFF) for p in chosen}
    return lam, _packed(HeckeElement(lam.n, table)).with_blocks(lam.parts)


def words(n):
    """Words of up to 8 generators g_i^(+-1) on n strands."""
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=1, max_size=8)


class TestRepresentatives:
    @pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
    def test_restriction_keeps_the_representatives(self, lam):
        e = sym.e_lambda(lam)
        h = _restricted(_packed(e), lam.parts)
        kept = sorted(hecke._perm_of(lam.n, r) for r in h.table)
        assert kept == [p for p in representatives(lam.parts) if p in e.coeffs]
        assert all(h.table[hecke._rank(p)] == _packed(e).table[hecke._rank(p)] for p in kept)

    @pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
    def test_smallest_rank_of_a_coset_is_its_representative(self, lam):
        block = [b for b, part in enumerate(lam.parts) for _ in range(part)]
        reps = set(representatives(lam.parts))
        cosets = collections.defaultdict(list)
        for p in itertools.permutations(range(1, lam.n + 1)):
            # The coset of p: its values relabelled within their blocks.
            key = tuple(block[v - 1] for v in p)
            cosets[key].append(hecke._rank(p))
        for members in cosets.values():
            assert hecke._perm_of(lam.n, min(members)) in reps


class TestExpansion:
    @given(coset_elements())
    @settings(max_examples=60, deadline=None)
    def test_expansion_is_the_product_with_the_row_element(self, case):
        lam, h = case
        assert expanded(h, lam) == sym.row_element(lam) * plain(h)

    @given(coset_elements())
    @settings(max_examples=60, deadline=None)
    def test_restriction_after_expansion_is_the_identity(self, case):
        lam, h = case
        back = _restricted(sym._expanded(h, lam), lam.parts)
        assert back.blocks == lam.parts
        assert plain(back) == plain(h)

    @pytest.mark.parametrize("change", ["drop", "double"])
    @pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
    def test_a_table_outside_the_ideal_is_refused(self, lam, change):
        e = _packed(sym.e_lambda(lam))
        table = dict(e.table)
        last = max(table)  # the largest rank of its coset: never a representative
        if change == "drop":
            del table[last]
        else:
            table[last] *= 2
        with pytest.raises(ValueError):
            _restricted(_Packed(e.n, table, e.val, e.k, e.bound, e.low), lam.parts)

    def test_twist_scalar_refuses_an_element_outside_the_ideal(self):
        # b_3 has as many terms as a_3 but lies outside a_3 H_3.
        with pytest.raises(ValueError):
            central.twist_scalar(sym.antisymmetrizer(3), Partition((3,)))

    def test_e_lambda_keeps_the_coset_table_it_was_built_on(self, monkeypatch):
        lam = Partition((3, 2))
        e = sym.e_lambda(lam)
        monkeypatch.setattr(hecke, "_restricted", refuse_to_restrict)
        h = sym._coset_table(e, lam)
        assert sym._coset_table(e, lam) is h
        assert central.twist_scalar(e, lam) == central.twist_eigenvalue(lam)
        assert sym.alpha_extract(lam).alpha == sym.alpha_closed_form(lam)

    def test_any_other_element_is_restricted_once(self, monkeypatch):
        lam = Partition((3, 2))
        e = sym.e_lambda(lam).scale(2)
        calls = []

        def counted(pk, blocks):
            calls.append(blocks)
            return _restricted(pk, blocks)

        monkeypatch.setattr(hecke, "_restricted", counted)
        first = central.twist_scalar(e, lam)
        assert central.twist_scalar(e, lam) == first
        assert calls == [lam.parts]

    def test_a_coset_table_is_no_element(self):
        h = coset_unit(Partition((2, 1)))
        with pytest.raises(ValueError):
            _element(h)
        with pytest.raises(ValueError):
            h.iota()


class TestCosetSteps:
    @given(coset_elements(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_steps_are_restricted_plain_steps(self, case, data):
        lam, h = case
        x = sym._expanded(h, lam)
        for i, sign in data.draw(words(lam.n)):
            h = h.mul_generator(i, sign)
            x = x.mul_generator(i, sign)
            assert h.blocks == lam.parts
            assert plain(h) == plain(_restricted(x, lam.parts))
        assert expanded(h, lam) == _element(x)


@pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
class TestCosetChains:
    # The coset chains of alpha_extract and twist_scalar against the plain
    # chains on e_lambda, through the same chain functions, restricted.

    def test_build(self, lam):
        h = sym._coset_symmetrizer(lam)
        e = sym.e_lambda(lam)
        assert expanded(h, lam) == e
        assert plain(h) == plain(sym._coset_table(e, lam))
        assert plain(h) == plain(_restricted(_packed(e), lam.parts))

    def test_square(self, lam):
        e = sym.e_lambda(lam)
        h = sym._coset_table(e, lam)
        want = square(_packed(e), lam)
        assert plain(square(h, lam)) == plain(_restricted(want, lam.parts))
        assert expanded(square(h, lam), lam) == _element(want)

    def test_twist(self, lam):
        e = sym.e_lambda(lam)
        h = sym._coset_table(e, lam)
        want = central._mul_full_twist(_packed(e))
        assert plain(central._mul_full_twist(h)) == plain(_restricted(want, lam.parts))


@pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
@pytest.mark.parametrize("where", ["first", "last"])
def test_perturbed_candidate_gives_the_same_witness(lam, where):
    # One entry of the square's coset table bumped by 1: the coset
    # extraction and the extraction on the expanded elements must agree on
    # the scalar, the verdict and the witness.
    e = sym.e_lambda(lam)
    h = sym._coset_table(e, lam)
    cand = square(h, lam)
    r = min(cand.table) if where == "first" else max(cand.table)
    bump = HeckeElement.basis_element(lam.n, hecke._perm_of(lam.n, r))
    bumped = cand.copy()
    bumped.add_times(_packed(bump).with_blocks(lam.parts), ONE)
    coset = _extract(h, bumped)
    full = hecke.extract_scalar(e, expanded(bumped, lam))
    assert not coset.proportional and not full.proportional
    assert (coset.scalar, coset.witness) == (full.scalar, full.witness)
    if where == "last":
        assert coset.witness == hecke._perm_of(lam.n, r)
