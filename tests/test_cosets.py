"""
Coset tables: the packed tables of R h keyed only by the minimal coset
representatives of S_lambda, with R the row element of lambda, and on the
sign side those of B h, with B the contiguous column factor.

Every coset chain is checked against the plain chain it replaces, run
through the same functions on the expanded table, by expanding the coset
chain's result.  The kernel's one-pass expansion (``_Packed.expanded``)
is checked against the general product R * h (or B * h) and against the
chain it replaced, iota(iota(h) R) (``chain_expanded``).  The row-side tests force
the row side (``row_table``) for every diagram, so they cover the
diagrams whose own side is the sign side too.
"""

import collections
import functools
import itertools
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import central, cli, hecke, invariants
from qyoung import permutations as perms
from qyoung import symmetrizers as sym
from qyoung.errors import NotEigenvector, NotQuasiIdempotent
from qyoung.hecke import (
    Z,
    HeckeElement,
    _Blocks,
    _element,
    _extract,
    _packed,
    _Packed,
)
from qyoung.laurent import NEG_S_INV, LaurentPoly, ONE, S
from qyoung.partitions import Partition, all_partitions


def partitions_up_to(k_max):
    for k in range(1, k_max + 1):
        yield from all_partitions(k)


def row(lam):
    """The row blocks of lam: unit s."""
    return _Blocks(lam.parts, True)


def column(lam):
    """The column blocks of lam: unit -s^-1."""
    return _Blocks(lam.conjugate().parts, False)


def row_table(e, lam):
    """e's table on the row side, whatever lam's own side."""
    blocks = sym._side(lam, True).first
    if blocks is None:
        return _packed(e)
    h = hecke._chain_start(e)
    assert h.blocks == blocks
    return h


def sign_table(lam):
    """f's table on the sign side, from its own chain, whatever lam's own side."""
    return sym._table(sym._side(lam, False))


def plain(pk):
    """A coset table's entries as a plain element h, for comparing tables."""
    return _element(pk.with_blocks(None))


def expanded(h):
    """R h (B h on the sign side) as an element, from its coset table h."""
    return _element(h.expanded())


def chain_expanded(h, lam):
    """
    The same element by chains instead of the rank rule: iota(iota(h) R)
    (B on the sign side), the row (column) blocks stepped on iota(h), since
    iota reverses products and fixes R and B.
    """
    first = sym._side(lam, h.blocks.row).first
    return _element(sym._mul_blocks(h.with_blocks(None).iota(), first).iota())


def coset_unit(lam):
    return _packed(HeckeElement.unit(lam.n)).with_blocks(row(lam))


def square(x, lam):
    """The row side's square chain on x: x w_d^-1 R w_d B."""
    return sym._mul_symmetrizer(x, sym._side(lam, True))


def start_table(lam, on_row=True):
    """The table of the start x = F w G of lam's row side (or sign side)."""
    return sym._start(sym._side(lam, on_row))


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


SMALL_SHAPES = [Partition((2, 1)), Partition((3, 2)), Partition((2, 2, 1))]

# Diagrams of 3 to 6 cells whose row blocks, or column blocks, are not all trivial.
NONTRIVIAL = [lam for k in range(3, 7) for lam in all_partitions(k) if lam.parts[0] > 1]
NONTRIVIAL_COLUMNS = [lam for k in range(3, 7) for lam in all_partitions(k) if len(lam.parts) > 1]

COEFF = st.one_of(
    st.builds(
        LaurentPoly.from_pairs,
        st.lists(st.tuples(st.integers(-3, 3), st.integers(-4, 4)), min_size=1, max_size=3),
    ),
    # Wide enough that a few steps force the digit-widening guard.
    st.builds(LaurentPoly.monomial, st.integers(-2, 2), st.integers(2**62, 2**70)),
)


@st.composite
def coset_elements(draw, shapes=NONTRIVIAL, blocks=row):
    """(lam, h): a coset table on random representatives with random coefficients."""
    lam = draw(st.sampled_from(shapes))
    reps = representatives(blocks(lam).parts)
    chosen = draw(st.lists(st.sampled_from(reps), min_size=1, max_size=12, unique=True))
    table = {p: draw(COEFF) for p in chosen}
    return lam, _packed(HeckeElement(lam.n, table)).with_blocks(blocks(lam))


def sign_coset_elements():
    return coset_elements(NONTRIVIAL_COLUMNS, column)


# Wide enough for K = 128 from the encode.
WIDE = st.builds(LaurentPoly.monomial, st.integers(-2, 2), st.integers(2**64, 2**100))


def untidy(h, extra):
    """h's values with extra zero low digits and a looser, still readable bound: not tidy."""
    table = {r: c << (h.k * extra) for r, c in h.table.items()}
    bound = min(3 * h.bound, (1 << (h.k - 1)) - 1)
    return _Packed(h.n, table, h.val - extra, h.k, bound, h.low + extra, blocks=h.blocks)


@st.composite
def expansion_cases(draw, on_row=None):
    """
    (lam, h): a coset table of the row side, the sign side or (on_row None)
    either, maybe zero, maybe at K = 128, maybe untidy.
    """
    if on_row is None:
        on_row = draw(st.booleans())
    lam = draw(st.sampled_from(NONTRIVIAL if on_row else NONTRIVIAL_COLUMNS))
    blocks = row(lam) if on_row else column(lam)
    reps = representatives(blocks.parts)
    chosen = draw(st.lists(st.sampled_from(reps), max_size=12, unique=True))
    coeff = st.one_of(COEFF, WIDE)
    h = _packed(HeckeElement(lam.n, {p: draw(coeff) for p in chosen})).with_blocks(blocks)
    if draw(st.booleans()):
        h = untidy(h, draw(st.integers(1, 3)))
    return lam, h


def check_expansion_at_the_representatives(h):
    # Read at the representatives, the expansion gives h back: h's entries
    # at h's ranks, and no other representative.
    x = expanded(h)
    reps = set(representatives(h.blocks.parts))
    assert {p for p in x.coeffs if p in reps} == {hecke._perm_of(h.n, r) for r in h.table}
    assert all(x.coeffs[p] == c for p, c in plain(h).coeffs.items())


def words(n):
    """Words of up to 8 generators g_i^(+-1) on n strands."""
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=1, max_size=8)


class TestRepresentatives:
    @pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
    def test_restriction_keeps_the_representatives(self, lam):
        # e_lambda's kept row table holds e's own coefficients at the
        # representatives in e's support, and nothing else.
        e = sym.e_lambda(lam)
        h = row_table(e, lam)
        kept = sorted(hecke._perm_of(lam.n, r) for r in h.table)
        assert kept == [p for p in representatives(lam.parts) if p in e.coeffs]
        assert all(plain(h).coeffs[p] == e.coeffs[p] for p in kept)

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
    @given(expansion_cases(on_row=True))
    @settings(max_examples=100, deadline=None)
    def test_expansion_is_the_product_with_the_row_element(self, case):
        lam, h = case
        assert expanded(h) == sym.row_element(lam) * plain(h) == chain_expanded(h, lam)

    @given(coset_elements())
    @settings(max_examples=60, deadline=None)
    def test_restriction_after_expansion_is_the_identity(self, case):
        check_expansion_at_the_representatives(case[1])

    def test_e_lambda_keeps_the_coset_table_it_was_built_on(self, monkeypatch):
        # A step or product of e_lambda, like its square, steps only the
        # row table its build kept.
        lam = Partition((3, 2))
        e = sym.e_lambda(lam)
        h = row_table(e, lam)
        assert row_table(e, lam) is h
        want = _element(_packed(e).mul_generator(2))
        stepped, real = set(), _Packed.mul_generator

        def spy(self, i, sign=1):
            stepped.add(self.blocks)
            return real(self, i, sign)

        monkeypatch.setattr(_Packed, "mul_generator", spy)
        assert e.mul_generator(2) == want == e * HeckeElement.generator(lam.n, 2)
        assert sym.alpha_extract(lam).alpha == sym.alpha_closed_form(lam)
        assert stepped == {row(lam)}

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
        x = h.expanded()
        for i, sign in data.draw(words(lam.n)):
            h = h.mul_generator(i, sign)
            x = x.mul_generator(i, sign)
            assert h.blocks == row(lam)
            assert expanded(h) == _element(x)


@pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
class TestCosetChains:
    # The coset chains of the square and the twist against the plain chains
    # on e_lambda, through the same chain functions, expanded.

    def test_build(self, lam):
        h = sym._table(sym._side(lam, True))
        e = sym.e_lambda(lam)
        assert expanded(h) == e
        assert plain(h) == plain(row_table(e, lam))

    def test_square(self, lam):
        e = sym.e_lambda(lam)
        h = row_table(e, lam)
        want = square(_packed(e), lam)
        assert expanded(square(h, lam)) == _element(want)

    def test_twist(self, lam):
        e = sym.e_lambda(lam)
        h = row_table(e, lam)
        want = central._mul_full_twist(_packed(e))
        assert expanded(central._mul_full_twist(h)) == _element(want)


@pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
@pytest.mark.parametrize("where", ["first", "last"])
def test_perturbed_candidate_gives_the_same_witness(lam, where):
    # One entry of the square's coset table, on the start x = e w_d, bumped
    # by 1: the coset extraction and the extraction on the expanded
    # elements must agree on the scalar, the verdict and the witness.
    x = start_table(lam)
    cand = square(x, lam)
    assert _extract(x, cand).proportional
    r = min(cand.table) if where == "first" else max(cand.table)
    bump = HeckeElement.basis_element(lam.n, hecke._perm_of(lam.n, r))
    bumped = cand.copy()
    bumped.add_times(_packed(bump).with_blocks(row(lam)), ONE)
    coset = _extract(x, bumped)
    full = hecke.extract_scalar(expanded(x), expanded(bumped))
    assert not coset.proportional and not full.proportional
    assert (coset.scalar, coset.witness) == (full.scalar, full.witness)
    if where == "last":
        assert coset.witness == hecke._perm_of(lam.n, r)


# -- the sign side ---------------------------------------------------------------


def column_factor(lam):
    """B by the general product: the antisymmetrizers at the column-reading offsets."""
    out = HeckeElement.unit(lam.n)
    for k, offset in zip(lam.conjugate().parts, lam.column_reading_offsets()):
        out = out * sym.antisymmetrizer(k).shift_embed(offset, lam.n)
    return out


def conjugated_by_products(e, lam):
    """
    iota(w_d^-1 e w_d) through the public general product: e * w_d, then
    w_d^-1 = g_ik^-1 ... g_i1^-1 from the left one inverse generator at a
    time, then the anti-involution w_p -> w_{p^-1} on the terms.
    """
    n, d = lam.n, lam.column_reading_permutation()
    y = e * HeckeElement.basis_element(n, d)
    for i in perms.reduced_word(d):
        y = (HeckeElement.generator(n, i) - HeckeElement.unit(n).scale(Z)) * y
    return HeckeElement(n, {perms.inverse(p): c for p, c in y.coeffs.items()})


def bumped(chain):
    """chain with a planted fault: one more unit at the largest rank of its result."""

    def faulty(x, *args):
        out = chain(x, *args).copy()
        bump = HeckeElement.basis_element(out.n, hecke._perm_of(out.n, max(out.table)))
        out.add_times(_packed(bump).with_blocks(out.blocks), ONE)
        return out

    return faulty


class TestSignSide:
    @given(expansion_cases(on_row=False))
    @settings(max_examples=100, deadline=None)
    def test_expansion_is_the_product_with_the_column_factor(self, case):
        lam, h = case
        assert expanded(h) == column_factor(lam) * plain(h) == chain_expanded(h, lam)

    @given(sign_coset_elements())
    @settings(max_examples=60, deadline=None)
    def test_restriction_after_expansion_is_the_identity(self, case):
        check_expansion_at_the_representatives(case[1])

    @given(sign_coset_elements(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_steps_are_restricted_plain_steps(self, case, data):
        lam, h = case
        x = h.expanded()
        for i, sign in data.draw(words(lam.n)):
            h = h.mul_generator(i, sign)
            x = x.mul_generator(i, sign)
            assert h.blocks == column(lam)
            assert expanded(h) == _element(x)

    def test_e_lambda_keeps_the_sign_table(self, monkeypatch):
        # alpha_extract and twist_eigenvalue of a sign-side diagram step
        # only f's table from its own build, and no table of e_lambda.
        lam = Partition((2, 1, 1))
        side, h = sym._own_table(lam)
        assert not side.row and h.blocks == column(lam)
        stepped, real = set(), _Packed.mul_generator

        def spy(self, i, sign=1):
            stepped.add(self.blocks)
            return real(self, i, sign)

        monkeypatch.setattr(_Packed, "mul_generator", spy)
        assert sym.alpha_extract(lam).alpha == sym.alpha_closed_form(lam)
        assert central.twist_eigenvalue(lam) == LaurentPoly.monomial(
            central.twist_exponent(lam)
        )
        assert stepped == {column(lam)}


# -- the one-pass expansion --------------------------------------------------------

class TestOnePassExpansion:
    # Against the general product and the chain: TestExpansion and TestSignSide.

    @given(expansion_cases())
    @settings(max_examples=100, deadline=None)
    def test_expansion_keeps_the_digits(self, case):
        lam, h = case
        x = h.expanded()
        assert x.blocks is None
        assert (x.k, x.bound, x.low, x.tidy) == (h.k, h.bound, h.low, h.tidy)
        longest = sum(m * (m - 1) // 2 for m in h.blocks.parts)  # length of the longest u
        assert x.val == (h.val if h.blocks.row else h.val - longest)
        group = math.prod(map(math.factorial, h.blocks.parts))
        assert len(x.table) == group * len(h.table)

    @pytest.mark.parametrize("on_row", [True, False], ids=["row", "sign"])
    @pytest.mark.parametrize("make", ["zero", "wide", "untidy"])
    def test_corner_cases(self, on_row, make):
        lam = Partition((3, 2)) if on_row else Partition((2, 2, 1))
        blocks = row(lam) if on_row else column(lam)
        reps = representatives(blocks.parts)[:5]
        if make == "zero":
            table = {}
        elif make == "wide":
            table = {p: LaurentPoly.monomial(j, 2**90 + j) for j, p in enumerate(reps)}
        else:
            table = {p: LaurentPoly(-j, (1, -2, j)) for j, p in enumerate(reps)}
        h = _packed(HeckeElement(lam.n, table)).with_blocks(blocks)
        if make == "untidy":
            h = untidy(h, 2)
        assert h.k == (128 if make == "wide" else 64)
        x = h.expanded()
        assert (x.k, x.bound, x.tidy, x.blocks) == (h.k, h.bound, h.tidy, None)
        factor = sym.row_element(lam) if on_row else column_factor(lam)
        assert _element(x) == factor * plain(h) == chain_expanded(h, lam)


@pytest.mark.slow
@pytest.mark.parametrize("lam", list(all_partitions(8)), ids=str)
def test_eight_cell_expansions_are_the_chain_expansions(lam):
    e = sym.e_lambda(lam)
    for h in (row_table(e, lam), sign_table(lam)):
        if h.blocks is not None:
            assert expanded(h) == chain_expanded(h, lam)


@pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
def test_e_lambda_runs_no_iota_and_no_row_blocks(lam, monkeypatch):
    # The build is one expansion of the start, one iota on its product of
    # lam'_j! entries (w_d B), the inverse steps and e_lambda's expansion:
    # no block sum with either unit, and no iota but the start's, which
    # (n) and (1^n), with d = 1, skip since B is iota-fixed.  (The name
    # predates the start's iota.)
    units, iotas = [], []
    block_action, iota = sym._block_action, _Packed.iota

    def spied_block_action(x, k, offset, u):
        units.append(u)
        return block_action(x, k, offset, u)

    def spied_iota(self):
        iotas.append(len(self.table))
        return iota(self)

    monkeypatch.setattr(sym, "_block_action", spied_block_action)
    monkeypatch.setattr(_Packed, "iota", spied_iota)
    e = sym.e_lambda(lam)
    assert units == []
    if len(lam.parts) == 1 or lam.parts[0] == 1:
        assert iotas == []
    else:
        assert iotas == [math.prod(map(math.factorial, lam.conjugate().parts))]
    if lam.n > 1:
        # e holds only its coset table, as the steps left it, with no
        # expansion; the first chain on e tidies it, once, and keeps it.
        built = e._ck
        assert e._pk is None and built.blocks is not None
        start = hecke._chain_start(e)
        assert start.tidy and hecke._chain_start(e) is start is e._ck
        assert state(start) == state(built._tidied())
        assert e._pk is None


# -- the start: one expansion instead of the chain ----------------------------------


def chain_table(side):
    """
    The side's table by the chain the start replaced: w_word, the second
    blocks and w_word^-1 stepped on the one-entry coset table of the first
    blocks, tidied.
    """
    x = _packed(HeckeElement.unit(len(side.at))).with_blocks(side.first)
    for i in side.word:
        x = x.mul_generator(i)
    return sym._mul_word_inverse(sym._mul_blocks(x, side.second), side)._tidied()


def state(pk):
    return pk.table, pk.val, pk.k, pk.bound, pk.low, pk.blocks


def check_table_from_the_start(side):
    # The same ints, V, K, B and low, compared tidied: _table leaves the
    # table as its steps made it, and the first chain on e_lambda tidies
    # it.  The start's own table, which verify reads, is tidy as built:
    # tidying it changes nothing.
    h = sym._table(side)._tidied()
    assert state(h) == state(chain_table(side))
    x = sym._start(side)
    assert x.tidy and x.blocks == side.first
    assert state(x) == state(x._tidied())


def word_permutation(side, n):
    w = perms.identity(n)
    for i in side.word:
        w = perms.right_mult_gen(w, i)
    return w


def second_factor(side, n):
    """The side's second blocks by the general product, each enumerated without the kernel."""
    out, g = HeckeElement.unit(n), side.second
    if g is not None:
        for k, offset in zip(g.parts, g.offsets):
            block = {p: g.unit ** perms.length(p) for p in perms.all_permutations(k)}
            out = out * HeckeElement(k, block).shift_embed(offset, n)
    return out


BOTH_SIDES = pytest.mark.parametrize("on_row", [True, False], ids=["row", "sign"])


@BOTH_SIDES
@pytest.mark.parametrize("lam", list(partitions_up_to(7)), ids=str)
def test_side_table_from_the_start_is_the_chain_table(lam, on_row):
    check_table_from_the_start(sym._side(lam, on_row))


@pytest.mark.slow
@BOTH_SIDES
@pytest.mark.parametrize("lam", list(all_partitions(8)), ids=str)
def test_side_table_from_the_start_is_the_chain_table_eight_cells(lam, on_row):
    check_table_from_the_start(sym._side(lam, on_row))


@pytest.mark.slow
@pytest.mark.parametrize("lam", list(all_partitions(9)), ids=str)
def test_own_side_table_from_the_start_is_the_chain_table_nine_cells(lam):
    check_table_from_the_start(sym._own_side(lam))


@BOTH_SIDES
@pytest.mark.parametrize("lam", list(partitions_up_to(7)), ids=str)
def test_the_start_holds_one_minimal_representative_per_block_permutation(lam, on_row):
    # w G has one entry w v for each v in G's subgroup, and each w v is a
    # minimal coset representative of F's, so that reading it with F's
    # blocks merges and loses nothing.
    rows, columns = lam.parts, lam.conjugate().parts
    first, second = (rows, columns) if on_row else (columns, rows)
    side = sym._side(lam, on_row)
    start = sym._start(side)
    assert start.blocks == side.first
    assert len(start.table) == math.prod(map(math.factorial, second))
    reps = set(representatives(first))
    assert {hecke._unrank(lam.n, r) for r in start.table} <= reps


@BOTH_SIDES
@pytest.mark.parametrize("lam", list(partitions_up_to(5)), ids=str)
def test_the_start_is_the_product_of_the_word_and_the_second_blocks(lam, on_row):
    side = sym._side(lam, on_row)
    w = HeckeElement.basis_element(lam.n, word_permutation(side, lam.n))
    assert _element(sym._start(side).with_blocks(None)) == w * second_factor(side, lam.n)


def check_side_record(lam, side):
    # F and G are (R, B) on the row side and (B, R) on the sign side, each
    # None exactly when its Young subgroup is trivial, and w is the fold of
    # the word: d on the row side, d^-1 on the sign side.
    rows = (lam.parts, lam.row_reading_offsets(), S)
    columns = (lam.conjugate().parts, lam.column_reading_offsets(), NEG_S_INV)
    for blocks, (parts, offsets, unit) in zip(
        (side.first, side.second), (rows, columns) if side.row else (columns, rows)
    ):
        if max(parts) == 1:
            assert blocks is None
        else:
            assert (blocks.parts, blocks.offsets, blocks.unit) == (parts, tuple(offsets), unit)
    d = lam.column_reading_permutation()
    assert side.at == word_permutation(side, lam.n) == (d if side.row else perms.inverse(d))


@pytest.mark.parametrize("lam", list(partitions_up_to(8)), ids=str)
def test_both_sides_give_the_same_scalars(lam):
    # Both sides of every diagram, each forced: (n) on the sign side and
    # (1^n) on the row side have a trivial Young subgroup, and then their
    # tables are plain on either side.  The square and the twist run on
    # each side's start x and are extracted against it.  The side records
    # are checked through 8 cells, the scalars through 7: squaring (1^8)
    # and (2,1^6) on the row side alone takes seconds.
    for on_row in (True, False):
        check_side_record(lam, sym._side(lam, on_row))
    if lam.n > 7:
        return
    found = []
    for side in (sym._side(lam, True), sym._side(lam, False)):
        x = sym._start(side)
        assert x.blocks == side.first
        squared = _extract(x, sym._mul_symmetrizer(x, side))
        twisted = _extract(x, central._mul_full_twist(x))
        assert squared.proportional and twisted.proportional
        found.append((squared.scalar, twisted.scalar))
    closed = (sym.alpha_closed_form(lam), LaurentPoly.monomial(central.twist_exponent(lam)))
    assert found == [closed, closed]


def check_kept_sign_table(lam):
    # The sign table from its own chain, against f multiplied out from e.
    e = sym.e_lambda(lam)
    h = sign_table(lam)
    f = conjugated_by_products(e, lam)
    assert h.blocks == (column(lam) if len(lam.parts) > 1 else None)
    assert expanded(h) == f


@pytest.mark.parametrize("lam", list(partitions_up_to(7)), ids=str)
def test_kept_sign_table_is_the_restricted_conjugate(lam):
    check_kept_sign_table(lam)


@pytest.mark.slow
@pytest.mark.parametrize("lam", list(all_partitions(8)), ids=str)
def test_kept_sign_table_is_the_restricted_conjugate_eight_cells(lam):
    check_kept_sign_table(lam)


# Sign-side diagrams with more than one representative: on (1^n) the sign
# side's table has one entry, so a fault there changes the scalar, which
# the closed-form checks catch, and leaves no witness to report.
SIGN_SHAPES = [Partition((2, 1, 1)), Partition((2, 2, 1))]


@pytest.mark.parametrize("lam", SIGN_SHAPES, ids=str)
@pytest.mark.parametrize(
    "module, chain, error, call",
    [
        (sym, "_mul_symmetrizer", NotQuasiIdempotent, sym.alpha_extract),
        (central, "_mul_full_twist", NotEigenvector, central.twist_eigenvalue),
    ],
    ids=["square", "twist"],
)
def test_a_sign_side_failure_reports_the_row_side_witness(
    lam, module, chain, error, call, monkeypatch
):
    # The same fault, planted at the end of a chain both sides run, must
    # raise the message, witness included, that the row side alone raises.
    # The sign side's failure reruns on the row side's start, built on its
    # own: e_lambda is not built, and every expansion is of a one-entry
    # table.  (A fault inside the row chain before the column factor would
    # not show: R h C is a multiple of e_lambda for every h.)
    assert not sym._own_side(lam).row
    monkeypatch.setattr(module, chain, bumped(getattr(module, chain)))
    builds, expansions, real = [], [], _Packed.expanded

    def spy(self):
        expansions.append(len(self.table))
        return real(self)

    monkeypatch.setattr(sym, "e_lambda", lambda lam: builds.append(lam))
    monkeypatch.setattr(_Packed, "expanded", spy)
    messages = []
    for forced_row in (False, True):
        if forced_row:
            monkeypatch.setattr(sym, "_own_side", lambda lam: sym._side(lam, True))
        with pytest.raises(error) as raised:
            call(lam)
        messages.append(str(raised.value))
        if not forced_row:  # one start expanded by each side's build
            assert builds == [] and expansions == [1, 1]
    assert messages[0] == messages[1]
    assert "first mismatch at (" in messages[0]


@pytest.mark.parametrize("lam", SIGN_SHAPES + [Partition((1, 1, 1, 1))], ids=str)
def test_diagram_checks_step_only_the_sign_table(lam, monkeypatch):
    # verify builds a sign-side diagram's table once and hands it to the
    # square and the twist: every step is of a table with the column blocks.
    stepped, real = [], _Packed.mul_generator

    def spy(self, i, sign=1):
        stepped.append(self.blocks)
        return real(self, i, sign)

    monkeypatch.setattr(_Packed, "mul_generator", spy)
    assert all(ok for _, ok in invariants.diagram_checks(lam, {}))
    assert stepped and set(stepped) == {column(lam)}


ONE_COLUMN = Partition((1, 1, 1, 1))


@pytest.mark.parametrize(
    "module, chain, call, failed",
    [
        (
            sym,
            "_mul_symmetrizer",
            lambda: sym.alpha_extract(ONE_COLUMN),
            ["alpha closed form", "alpha at s=1 vs hook product"],
        ),
        (
            central,
            "_mul_full_twist",
            lambda: central.twist_eigenvalue(ONE_COLUMN),
            [
                "twist eigenvalue closed form",
                "twist eigenvalue at s=1",
                "twist conjugation symmetry",
            ],
        ),
    ],
    ids=["square", "twist"],
)
def test_a_one_entry_table_fault_is_caught_by_the_closed_forms_alone(
    module, chain, call, failed, monkeypatch, capsys
):
    # The sign side of (1^n) has one entry, so a chain fault there leaves
    # the candidate proportional: the extraction returns a wrong scalar and
    # raises nothing, and verify's closed-form checks are the only guard.
    sign = sym._side(ONE_COLUMN, False).first
    real, faulty = getattr(module, chain), bumped(getattr(module, chain))
    monkeypatch.setattr(
        module, chain, lambda x, *args: (faulty if x.blocks == sign else real)(x, *args)
    )
    assert len(sign_table(ONE_COLUMN).table) == 1
    call()
    assert cli.main(["verify", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("ok ")] == [
        f"FAIL  {name}, lambda=1,1,1,1" for name in failed
    ] + [f"verification failed: {failed[0]}, lambda=1,1,1,1"]
    assert lines[-len(failed) - 2].startswith("ok    lambda=2,1,1 ")


def test_a_failure_on_the_sign_side_alone_still_raises(monkeypatch):
    lam = Partition((2, 1, 1))
    real, faulty = sym._mul_symmetrizer, bumped(sym._mul_symmetrizer)
    monkeypatch.setattr(
        sym, "_mul_symmetrizer", lambda x, side: (real if side.row else faulty)(x, side)
    )
    with pytest.raises(NotQuasiIdempotent, match="first mismatch at"):
        sym.alpha_extract(lam)
