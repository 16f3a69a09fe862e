"""
Coset tables: the packed tables of R h keyed only by the minimal coset
representatives of S_lambda, with R the row element of lambda, and on the
sign side those of B h, with B the contiguous column factor.

Every coset chain is checked against the plain chain it replaces, run
through the same functions on the expanded table and restricted at the
end, and the expansion against the general product R * h (or B * h).  The
row-side tests force the row side (``row_table``) for every diagram, so
they cover the diagrams whose own side is the sign side too.
"""

import collections
import functools
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qyoung import central, cli, hecke
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
    _restricted,
)
from qyoung.laurent import LaurentPoly, ONE
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
    return sym._coset_table(e, lam, row=True)


def plain(pk):
    """A coset table's entries as a plain element h, for comparing tables."""
    return _element(pk.with_blocks(None))


def expanded(h, lam):
    """R h as an element, from the coset table h of R h."""
    return _element(sym._expanded(h, lam))


def coset_unit(lam):
    return _packed(HeckeElement.unit(lam.n)).with_blocks(row(lam))


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


def words(n):
    """Words of up to 8 generators g_i^(+-1) on n strands."""
    letter = st.tuples(st.integers(1, n - 1), st.sampled_from((1, -1)))
    return st.lists(letter, min_size=1, max_size=8)


class TestRepresentatives:
    @pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
    def test_restriction_keeps_the_representatives(self, lam):
        e = sym.e_lambda(lam)
        h = _restricted(_packed(e), row(lam))
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
        back = _restricted(sym._expanded(h, lam), row(lam))
        assert back.blocks == row(lam)
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
            _restricted(_Packed(e.n, table, e.val, e.k, e.bound, e.low), row(lam))

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
        assert calls == [row(lam)]

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
            assert h.blocks == row(lam)
            assert plain(h) == plain(_restricted(x, row(lam)))
        assert expanded(h, lam) == _element(x)


@pytest.mark.parametrize("lam", list(partitions_up_to(6)), ids=str)
class TestCosetChains:
    # The coset chains of alpha_extract and twist_scalar against the plain
    # chains on e_lambda, through the same chain functions, restricted.

    def test_build(self, lam):
        h = sym._coset_symmetrizer(lam)
        e = sym.e_lambda(lam)
        assert expanded(h, lam) == e
        assert plain(h) == plain(row_table(e, lam))
        assert plain(h) == plain(_restricted(_packed(e), row(lam)))

    def test_square(self, lam):
        e = sym.e_lambda(lam)
        h = row_table(e, lam)
        want = square(_packed(e), lam)
        assert plain(square(h, lam)) == plain(_restricted(want, row(lam)))
        assert expanded(square(h, lam), lam) == _element(want)

    def test_twist(self, lam):
        e = sym.e_lambda(lam)
        h = row_table(e, lam)
        want = central._mul_full_twist(_packed(e))
        assert plain(central._mul_full_twist(h)) == plain(_restricted(want, row(lam)))


@pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
@pytest.mark.parametrize("where", ["first", "last"])
def test_perturbed_candidate_gives_the_same_witness(lam, where):
    # One entry of the square's coset table bumped by 1: the coset
    # extraction and the extraction on the expanded elements must agree on
    # the scalar, the verdict and the witness.
    e = sym.e_lambda(lam)
    h = row_table(e, lam)
    cand = square(h, lam)
    r = min(cand.table) if where == "first" else max(cand.table)
    bump = HeckeElement.basis_element(lam.n, hecke._perm_of(lam.n, r))
    bumped = cand.copy()
    bumped.add_times(_packed(bump).with_blocks(row(lam)), ONE)
    coset = _extract(h, bumped)
    full = hecke.extract_scalar(e, expanded(bumped, lam))
    assert not coset.proportional and not full.proportional
    assert (coset.scalar, coset.witness) == (full.scalar, full.witness)
    if where == "last":
        assert coset.witness == hecke._perm_of(lam.n, r)


# -- the sign side ---------------------------------------------------------------


def sign_expanded(h, lam):
    """B h as an element, from the coset table h of B h: iota(iota(h) B)."""
    return _element(sym._mul_column_blocks(h.with_blocks(None).iota(), lam).iota())


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
    @given(sign_coset_elements())
    @settings(max_examples=60, deadline=None)
    def test_expansion_is_the_product_with_the_column_factor(self, case):
        lam, h = case
        assert sign_expanded(h, lam) == column_factor(lam) * plain(h)

    @given(sign_coset_elements())
    @settings(max_examples=60, deadline=None)
    def test_restriction_after_expansion_is_the_identity(self, case):
        lam, h = case
        back = _restricted(_packed(sign_expanded(h, lam)), column(lam))
        assert back.blocks == column(lam)
        assert plain(back) == plain(h)

    @given(sign_coset_elements(), st.data())
    @settings(max_examples=150, deadline=None)
    def test_steps_are_restricted_plain_steps(self, case, data):
        lam, h = case
        x = _packed(sign_expanded(h, lam))
        for i, sign in data.draw(words(lam.n)):
            h = h.mul_generator(i, sign)
            x = x.mul_generator(i, sign)
            assert h.blocks == column(lam)
            assert plain(h) == plain(_restricted(x, column(lam)))
        assert sign_expanded(h, lam) == _element(x)

    @pytest.mark.parametrize("lam", SMALL_SHAPES, ids=str)
    @pytest.mark.parametrize("make", ["unit", "generator", "row element", "drop", "double"])
    def test_a_table_outside_the_ideal_is_refused(self, lam, make):
        if make == "unit":
            x = _packed(HeckeElement.unit(lam.n))
        elif make == "generator":
            x = _packed(HeckeElement.generator(lam.n, 1))
        elif make == "row element":
            x = _packed(sym.row_element(lam))
        else:
            f = sym._sign_element(_packed(sym.e_lambda(lam)), lam)
            table = dict(f.table)
            last = max(table)  # the largest rank of its coset: never a representative
            if make == "drop":
                del table[last]
            else:
                table[last] *= 2
            x = _Packed(f.n, table, f.val, f.k, f.bound, f.low)
        with pytest.raises(ValueError, match="not in B H_n"):
            _restricted(x, column(lam))

    def test_e_lambda_keeps_the_sign_table(self, monkeypatch):
        lam = Partition((2, 1, 1))
        assert not sym._row_side(lam)
        e = sym.e_lambda(lam)
        assert sym.alpha_extract(lam).alpha == sym.alpha_closed_form(lam)
        h = sym._coset_table(e, lam)
        assert h.blocks == column(lam)
        monkeypatch.setattr(hecke, "_restricted", refuse_to_restrict)
        assert sym._coset_table(e, lam) is h
        assert central.twist_scalar(e, lam) == LaurentPoly.monomial(central.twist_exponent(lam))

    def test_twist_scalar_refuses_an_element_outside_the_sign_ideal(self):
        # The row element of (1,1,1) is the unit: not in B H_3.
        with pytest.raises(ValueError, match="not in B H_n"):
            central.twist_scalar(HeckeElement.unit(3), Partition((1, 1, 1)))


@pytest.mark.parametrize("lam", list(partitions_up_to(7)), ids=str)
def test_both_sides_give_the_same_scalars(lam):
    e = sym.e_lambda(lam)
    found = []
    for on_row in (True, False):
        h = sym._coset_table(e, lam, on_row)
        squared = _extract(h, sym._mul_symmetrizer(h, lam, on_row))
        twisted = _extract(h, central._mul_full_twist(h))
        assert squared.proportional and twisted.proportional
        found.append((squared.scalar, twisted.scalar))
    closed = (sym.alpha_closed_form(lam), LaurentPoly.monomial(central.twist_exponent(lam)))
    assert found == [closed, closed]


def check_kept_sign_table(lam):
    e = sym.e_lambda(lam)
    h = sym._coset_table(e, lam, row=False)
    f = conjugated_by_products(e, lam)
    assert h.blocks == column(lam)
    assert plain(h) == plain(_restricted(_packed(f), column(lam)))
    assert sign_expanded(h, lam) == f


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
        (sym, "_mul_symmetrizer", NotQuasiIdempotent, lambda e, lam: sym.alpha_extract(lam)),
        (central, "_mul_full_twist", NotEigenvector, central.twist_scalar),
    ],
    ids=["square", "twist"],
)
def test_a_sign_side_failure_reports_the_row_side_witness(
    lam, module, chain, error, call, monkeypatch
):
    # The same fault, planted at the end of a chain both sides run, must
    # raise the message, witness included, that the row side alone raises.
    # (A fault inside the row chain before the column factor would not
    # show: R h C is a multiple of e_lambda for every h.)
    assert not sym._row_side(lam)
    e = sym.e_lambda(lam)
    monkeypatch.setattr(sym, "e_lambda", lambda _: e)
    monkeypatch.setattr(module, chain, bumped(getattr(module, chain)))
    messages = []
    for forced_row in (False, True):
        if forced_row:
            monkeypatch.setattr(sym, "_row_side", lambda _: True)
        with pytest.raises(error) as raised:
            call(e, lam)
        messages.append(str(raised.value))
    assert messages[0] == messages[1]
    assert "first mismatch at (" in messages[0]


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
    sign = sym._sign_blocks(ONE_COLUMN)
    real, faulty = getattr(module, chain), bumped(getattr(module, chain))
    monkeypatch.setattr(
        module, chain, lambda x, *args: (faulty if x.blocks == sign else real)(x, *args)
    )
    assert len(sym._coset_table(sym.e_lambda(ONE_COLUMN), ONE_COLUMN).table) == 1
    call()
    assert cli.main(["verify", "4"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("ok ")] == [
        f"FAIL  {name}, lambda=1,1,1,1" for name in failed
    ] + [f"verification failed: {failed[0]}, lambda=1,1,1,1"]
    assert lines[-len(failed) - 2].startswith("ok    lambda=2,1,1 ")


def test_a_failure_on_the_sign_side_alone_still_raises(monkeypatch):
    lam = Partition((2, 1, 1))
    monkeypatch.setattr(sym, "_mul_sign", bumped(sym._mul_sign))
    with pytest.raises(NotQuasiIdempotent, match="first mismatch at"):
        sym.alpha_extract(lam)
