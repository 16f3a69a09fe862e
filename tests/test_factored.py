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
from qyoung import permutations as perms
from qyoung import symmetrizers as sym
from qyoung.central import full_twist, twist_eigenvalue
from qyoung.hecke import HeckeElement, _element, _packed, _Packed
from qyoung.laurent import NEG_S_INV, S
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


def word(lam):
    """w_d, for d the column-reading permutation of lam."""
    return HeckeElement.basis_element(lam.n, lam.column_reading_permutation())


def square(e, lam):
    """The square's chain on the row side's start x = e w_d: x w_d^-1 R w_d B = e e w_d."""
    return packed(sym._mul_symmetrizer, e * word(lam), sym._side(lam, True))


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
        assert square(e, lam) == e * e * word(lam)

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
    assert square(e, lam) == e * e * word(lam)


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
        for u in (S, NEG_S_INV):
            for k in range(2, lam.n + 1):
                sym._block_action(x, k, lam.n - k, u)
        assert x.table == before
        assert _element(x).to_machine() == e_lambda(lam).to_machine()

    def test_row_column_and_twist_actions(self, lam):
        e = e_lambda(lam)
        before = e.to_machine()
        x = _packed(e)
        table = dict(x.table)
        sym._mul_blocks(x, sym._side(lam, True).first)
        sym._mul_symmetrizer(x, sym._side(lam, True))
        central._mul_full_twist(x)
        assert x.table == table
        central._mul_full_twist(hecke._chain_start(e))
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
        central._mul_full_twist(hecke._chain_start(e))
        assert state(_packed(e)) == fresh


def spy_letters(monkeypatch, record):
    """
    Calls record("stepped") for each packed generator step and
    record("relabelled") for each letter a word walk relabels
    (``_Packed.mul_word``, through ``_Packed._moved`` when it returns the
    moved ranks), so that every letter walked is recorded once.
    """
    step, moved = _Packed.mul_generator, _Packed._moved

    def stepped(self, *args, **kwargs):
        record("stepped")
        return step(self, *args, **kwargs)

    def relabelled(self, *args, **kwargs):
        out = moved(self, *args, **kwargs)
        if out is not None:
            record("relabelled")
        return out

    monkeypatch.setattr(_Packed, "mul_generator", stepped)
    monkeypatch.setattr(_Packed, "_moved", relabelled)


@pytest.fixture
def calls(monkeypatch):
    """
    Counts of generator letters walked, under "letters", and of
    HeckeElement.__mul__ calls.  Every chain walks its letters through
    _Packed.mul_generator, or, in e_lambda's build, relabels some of them
    in a word walk (``spy_letters``); HeckeElement.mul_generator is the
    one-step chain.
    """
    counts = collections.Counter()
    spy_letters(monkeypatch, lambda kind: counts.update(("letters",)))
    original = HeckeElement.__mul__

    def spy(self, *args, **kwargs):
        counts["__mul__"] += 1
        return original(self, *args, **kwargs)

    monkeypatch.setattr(HeckeElement, "__mul__", spy)
    return counts


@pytest.fixture
def walked(monkeypatch):
    """The letters walked, in order: "S" for a packed step, "R" for a relabelled letter."""
    letters = []
    spy_letters(monkeypatch, lambda kind: letters.append(kind[0].upper()))
    return letters


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
    parts = lam.parts if sym._own_side(lam).row else lam.conjugate().parts
    return math.prod(math.factorial(k) for k in parts)


def side_plain(lam):
    """
    The plain table whose coset table the chains of lam's own side run on:
    the side's start x = F w G, e_lambda w_d on the row side and
    f w_{d^-1} on the sign side, expanded.
    """
    return sym._start(sym._own_side(lam)).expanded()


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
    """Row blocks, column blocks, and w_d^-1 and w_d around the row blocks: the square on x."""
    blocks = lam.parts + lam.conjugate().parts
    d = lam.column_reading_permutation()
    return sum(k * (k - 1) // 2 for k in blocks) + 2 * oracles.length(d)


def build_steps(lam):
    """
    The letters that build e_lambda's table: the length(d) letters of
    w_d^-1 walked from the row side's start, each stepped or relabelled
    (``hecke._Packed.mul_word``).  The start itself, its expansion to
    w_d B and e_lambda's to R h take none, and the start is what the
    square and the twist read.
    """
    return oracles.length(lam.column_reading_permutation())


@pytest.mark.parametrize("lam", SMALL, ids=str)
class TestGeneratorSteps:
    def test_square(self, lam, calls):
        e_lambda(lam)
        assert calls == collections.Counter(letters=build_steps(lam))
        calls.clear()
        side = sym._side(lam, True)
        x = sym._start(side)
        assert calls == collections.Counter()
        sym._mul_symmetrizer(x, side)
        assert calls == collections.Counter(letters=e_lambda_steps(lam))

    def test_alpha_extract_builds_then_squares(self, lam, calls, touched):
        alpha_extract(lam)
        assert calls["__mul__"] == 0
        assert calls["letters"] == e_lambda_steps(lam)
        # The square steps the coset table of e w_d (row side) or of
        # f w_{d^-1} (sign side): each step touches the side's Young
        # subgroup order times fewer entries than the same step on the
        # plain table.
        coset = list(touched)
        x = side_plain(lam)
        del touched[:]
        sym._mul_symmetrizer(x, sym._own_side(lam))
        assert [size * side_group_order(lam) for size in coset] == touched
        assert all(size <= math.factorial(lam.n) // side_group_order(lam) for size in coset)

    def test_twist_eigenvalue(self, lam, calls):
        e = e_lambda(lam)
        x = _packed(e)
        calls.clear()
        central._mul_full_twist(x)
        assert calls == collections.Counter(letters=lam.n * (lam.n - 1))
        calls.clear()
        twist_eigenvalue(lam)
        assert calls["__mul__"] == 0
        assert calls["letters"] == lam.n * (lam.n - 1)

    def test_twist_touches_the_coset_table(self, lam, touched):
        steps = lam.n * (lam.n - 1)
        side, x = sym._own_table(lam)
        plain = side_plain(lam)
        del touched[:]
        central._twist(lam, side, x)
        coset = list(touched)
        del touched[:]
        central._mul_full_twist(plain)
        assert len(coset) == steps
        assert [size * side_group_order(lam) for size in coset] == touched
        # The start holds one entry per element of the second blocks' subgroup.
        second = lam.conjugate().parts if side.row else lam.parts
        if steps:
            assert coset[0] == math.prod(map(math.factorial, second))


@pytest.mark.parametrize("lam", SMALL, ids=str)
class TestOneConversionPerChain:
    # An element converts at most once each way, and a result that is only
    # compared is never decoded; a conversion per step would show here long
    # before it showed in timings.

    def test_e_lambda(self, lam, conversions):
        e = e_lambda(lam)
        assert conversions == collections.Counter(_encode=1)  # the start
        assert e.coeffs is e.coeffs  # the decoded view is kept
        assert conversions == collections.Counter(_encode=1, _decode=1)
        # Decoded straight from the coset table; (1) has a plain one.
        assert (e._pk is None) == (lam.n > 1)

    def test_alpha_extract_builds_then_squares(self, lam, conversions):
        alpha_extract(lam)
        assert conversions == collections.Counter(_encode=1)  # the start

    def test_twist_scalar(self, lam, conversions):
        # The twist's scalar by twist_eigenvalue: the start, and nothing decoded.
        central.twist_eigenvalue(lam)
        assert conversions == collections.Counter(_encode=1)


def test_step_count_of_a_hook():
    # (2,1): one row block of 2, one column block of 2, d = (1,3,2) of length 1.
    assert e_lambda_steps(Partition((2, 1))) == 1 + 1 + 2


# -- relabel runs: e_lambda's build walks w^-1 ---------------------------------------


def state(pk):
    return pk.table, pk.val, pk.k, pk.bound, pk.low, pk.blocks


def check_inverse_walk(side):
    """
    The word walk of w^-1 from the side's start, on its coset table and on
    the same entries read as a plain table, against the stepwise walk
    (``symmetrizers._mul_word_inverse``): the same ints, V, K, B and low
    once both are tidied, and the start unchanged.
    """
    x = sym._start(side)
    for start in (x, x.with_blocks(None)):
        table = dict(start.table)
        walk = start.mul_word(reversed(side.word), -1)
        assert state(walk._tidied()) == state(sym._mul_word_inverse(start, side)._tidied())
        assert start.table == table


BOTH_SIDES = pytest.mark.parametrize("on_row", [True, False], ids=["row", "sign"])
SEVEN = list(partitions_up_to(7))


@BOTH_SIDES
@pytest.mark.parametrize("lam", SEVEN, ids=str)
def test_word_walk_is_the_stepwise_walk(lam, on_row):
    check_inverse_walk(sym._side(lam, on_row))


@pytest.mark.slow
@BOTH_SIDES
@pytest.mark.parametrize("lam", list(all_partitions(8)), ids=str)
def test_word_walk_is_the_stepwise_walk_eight_cells(lam, on_row):
    check_inverse_walk(sym._side(lam, on_row))


def pure_letters(side):
    """
    Which letters of the side's walk of w^-1 only relabel ("P") and which
    must be stepped ("."), read off each stepwise table with permutations
    alone: a letter is pure when every term moves the shortening way with
    its partner absent, or has the letter's two values in one block.
    """
    blocks = side.first
    block = {}
    if blocks is not None:
        for b, (part, offset) in enumerate(zip(blocks.parts, blocks.offsets)):
            block.update((v, b) for v in range(offset + 1, offset + part + 1))
    x, out = sym._start(side), ""
    for i in reversed(side.word):
        terms = {hecke._perm_of(x.n, r) for r in x.table}

        def pure(p):
            q = perms.right_mult_gen(p, i)
            if perms.length(q) < perms.length(p):
                return q not in terms
            return p[i - 1] in block and block[p[i - 1]] == block.get(p[i])

        out += "P" if all(map(pure, terms)) else "."
        x = x.mul_generator(i, -1)
    return out


@pytest.mark.parametrize("lam", SEVEN, ids=str)
def test_row_side_runs_last_to_the_end(lam):
    # On the row side, once one letter only relabels, every later letter does too.
    purity = pure_letters(sym._side(lam, True))
    assert purity == "." * purity.count(".") + "P" * purity.count("P")


# Sign-side walks whose relabel runs end and resume: which letters are pure
# and how the walk took them ("R" relabelled, "S" stepped).  The first
# letter is tried; a pure letter right after a stepped impure one is
# stepped, and that step, found to have only moved entries, reopens a run.
RUNS = [
    ((2, 2, 1), "P.P", "RSS"),
    ((2, 2, 1, 1), "PP.PP", "RRSSR"),
    ((4, 3, 1), "...PP..PP.P", "SSSSRSSSRSS"),
]


@pytest.mark.parametrize("parts, purity, letters", RUNS, ids=[str(r[0]) for r in RUNS])
def test_sign_side_runs_end_and_resume(parts, purity, letters, walked):
    side = sym._side(Partition(parts), False)
    assert pure_letters(side) == purity
    del walked[:]
    sym._table(side)
    assert "".join(walked) == letters
    check_inverse_walk(side)


# (diagram, letters stepped, letters relabelled) of e_lambda's build for
# every 7-cell diagram: 93 letters in all, 40 stepped and 53 relabelled.
BUILD_SPLIT_7 = [
    ((7,), 0, 0),
    ((6, 1), 0, 5),
    ((5, 2), 2, 5),
    ((5, 1, 1), 0, 8),
    ((4, 3), 4, 2),
    ((4, 2, 1), 4, 5),
    ((4, 1, 1, 1), 0, 9),
    ((3, 3, 1), 7, 0),
    ((3, 2, 2), 4, 3),
    ((3, 2, 1, 1), 6, 3),
    ((3, 1, 1, 1, 1), 0, 8),
    ((2, 2, 2, 1), 6, 0),
    ((2, 2, 1, 1, 1), 7, 0),
    ((2, 1, 1, 1, 1, 1), 0, 5),
    ((1, 1, 1, 1, 1, 1, 1), 0, 0),
]


@pytest.mark.parametrize(
    "parts, stepped, relabelled", BUILD_SPLIT_7, ids=[str(b[0]) for b in BUILD_SPLIT_7]
)
def test_seven_cell_builds_step_and_relabel(parts, stepped, relabelled, walked):
    lam = Partition(parts)
    e_lambda(lam)
    assert (walked.count("S"), walked.count("R")) == (stepped, relabelled)
    assert stepped + relabelled == build_steps(lam)


@BOTH_SIDES
@pytest.mark.parametrize("n", range(2, 8))
def test_band_words_on_one_entry_tables_only_relabel(n, on_row, walked):
    # The one-entry start of (n) on the row side and of (1^n) on the sign
    # side: every letter of a forward band word is an in-block hit, by s
    # on the row side and by -s^-1 on the sign side.
    x = sym._start(sym._side(Partition((n,) if on_row else (1,) * n), on_row))
    assert len(x.table) == 1
    unit = S if on_row else NEG_S_INV
    for j in range(2, n + 1):
        word = central._band_word(j)
        del walked[:]
        walk = x.mul_word(word)
        assert walked == ["R"] * len(word)
        steps = x
        for i in word:
            steps = steps.mul_generator(i)
        assert state(walk._tidied()) == state(steps._tidied())
        assert _element(coset=walk) == _element(coset=x).scale(unit ** len(word))
