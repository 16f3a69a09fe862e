"""
The named invariants behind ``qyoung verify``: the names they report, that
a planted fault is reported under exactly its own name, that the dense
classical-limit oracle accepts the group-algebra symmetrizer and nothing
near it, and that the classical check on coset tables agrees with that
oracle on e_lambda and on perturbed tables of both sides.
"""

import pytest

from qyoung import cli, hecke, invariants, symmetrizers
from qyoung.hecke import HeckeElement, _element, _packed, _Packed
from qyoung.laurent import NEG_S_INV, LaurentPoly, ONE, S
from qyoung.partitions import Partition, all_partitions

from . import oracles
from .oracles import classical_young_symmetrizer


def failed(checks):
    return [name for name, ok in checks if not ok]


def plant_wrong_alpha(monkeypatch, parts):
    """Make alpha_closed_form off by one for the diagram with these parts."""
    real = symmetrizers.alpha_closed_form

    def planted(lam):
        return real(lam) + 1 if lam.parts == parts else real(lam)

    monkeypatch.setattr(symmetrizers, "alpha_closed_form", planted)


class TestStrandChecks:
    def test_names_in_order(self):
        checks = invariants.strand_checks(3)
        assert [name for name, _ in checks] == [
            "eigen-relation for the row element, n=3, i=1",
            "eigen-relation for the column element, n=3, i=1",
            "eigen-relation for the row element, n=3, i=2",
            "eigen-relation for the column element, n=3, i=2",
            "full-twist centrality, n=3, i=1",
            "full-twist centrality, n=3, i=2",
        ]
        assert failed(checks) == []

    def test_one_strand_has_no_generators(self):
        assert invariants.strand_checks(1) == []

    def test_row_element_in_place_of_column_element(self, monkeypatch):
        monkeypatch.setattr(symmetrizers, "antisymmetrizer", symmetrizers.symmetrizer)
        assert failed(invariants.strand_checks(2)) == [
            "eigen-relation for the column element, n=2, i=1"
        ]


def two_table_verdicts(x, u):
    """
    Per g_i, whether x g_i = u x and g_i x = u x, each relation by its own
    step: x's table and iota(x)'s, whether or not iota fixes x.
    """
    plain = _packed(x)
    sides = [(t, _element(t.times_unit(u))) for t in (plain, plain.iota())]
    return [all(_element(t.mul_generator(i)) == ref for t, ref in sides) for i in range(1, x.n)]


def product_verdicts(x, u):
    """The same verdicts by the general product."""
    g = [HeckeElement.generator(x.n, i) for i in range(1, x.n)]
    return [x * gi == x.scale(u) and gi * x == x.scale(u) for gi in g]


class TestEigenRelations:
    # a_n and b_n are fixed by iota, so one right step decides both
    # relations; a table that iota does not fix takes the mirrored step too.

    @pytest.mark.parametrize("n", range(2, 6))
    def test_one_dimensional_elements_are_fixed_by_iota(self, n):
        for x, u in ((symmetrizers.symmetrizer(n), S), (symmetrizers.antisymmetrizer(n), NEG_S_INV)):
            assert _packed(x).iota_fixed()
            assert invariants._eigen_relations(x, u) == [True] * (n - 1)

    @pytest.mark.parametrize("n", range(3, 6))
    @pytest.mark.parametrize("row", [True, False], ids=["a_n", "b_n"])
    def test_an_asymmetric_table_gets_the_two_table_verdicts(self, n, row):
        build, u = (symmetrizers.symmetrizer, S) if row else (symmetrizers.antisymmetrizer, NEG_S_INV)
        x = build(n)
        # a_n or b_n with one entry changed, at a p with p^-1 != p.
        p = (2, 3, 1) + tuple(range(4, n + 1))
        planted = x + HeckeElement.basis_element(n, p)
        # w_q a_{n-1} (or b_{n-1}): x g_i = u x holds for every i < n - 1,
        # and g_i x = u x fails for some of them, where a right step alone
        # would pass it.
        q = (n,) + tuple(range(1, n))
        one_sided = HeckeElement.basis_element(n, q) * build(n - 1).shift_embed(0, n)
        for y in (planted, one_sided):
            assert not _packed(y).iota_fixed()
            verdicts = invariants._eigen_relations(y, u)
            assert verdicts == two_table_verdicts(y, u) == product_verdicts(y, u)
        right = [
            one_sided * HeckeElement.generator(n, i) == one_sided.scale(u) for i in range(1, n)
        ]
        assert right == [True] * (n - 2) + [False]
        assert invariants._eigen_relations(one_sided, u) != right


class TestDiagramChecks:
    def test_names_in_order(self):
        taus = {}
        first = invariants.diagram_checks(Partition((2,)), taus)
        second = invariants.diagram_checks(Partition((1, 1)), taus)
        assert [name for name, _ in first] == [
            "alpha closed form, lambda=2",
            "alpha at s=1 vs hook product, lambda=2",
            "twist eigenvalue closed form, lambda=2",
            "twist eigenvalue at s=1, lambda=2",
            "classical limit vs group-algebra symmetrizer, lambda=2",
        ]
        assert [name for name, _ in second] == [
            "alpha closed form, lambda=1,1",
            "alpha at s=1 vs hook product, lambda=1,1",
            "twist eigenvalue closed form, lambda=1,1",
            "twist eigenvalue at s=1, lambda=1,1",
            "twist conjugation symmetry, lambda=1,1",
            "classical limit vs group-algebra symmetrizer, lambda=1,1",
        ]
        assert failed(first + second) == []

    def test_records_the_twist_eigenvalue(self):
        taus = {}
        invariants.diagram_checks(Partition((2, 1)), taus)
        assert list(taus) == [(2, 1)]
        assert taus[(2, 1)] == ONE

    def test_classical_limit_at_every_size(self):
        def names(parts):
            checks = invariants.diagram_checks(Partition(parts), {})
            assert failed(checks) == []
            return [name for name, _ in checks]

        for parts in [(3, 2, 1), (7,), (1,) * 7, (4, 4), (2, 2, 2, 2)]:
            lam = Partition(parts)
            assert f"classical limit vs group-algebra symmetrizer, lambda={lam}" in names(parts)

    def test_wrong_closed_form_is_named(self, monkeypatch):
        plant_wrong_alpha(monkeypatch, (2,))
        taus = {}
        assert failed(invariants.diagram_checks(Partition((2,)), taus)) == [
            "alpha closed form, lambda=2"
        ]
        assert failed(invariants.diagram_checks(Partition((1, 1)), taus)) == []

    def test_wrong_classical_limit_is_named(self, monkeypatch):
        real = symmetrizers._at_one

        def planted(h):
            x = real(h)
            last = max(x)
            return {**x, last: -x[last]}

        monkeypatch.setattr(symmetrizers, "_at_one", planted)
        # One diagram of each side.
        for parts, row in [((3, 2, 1), True), ((2, 2, 1, 1), False)]:
            lam = Partition(parts)
            assert symmetrizers._own_side(lam).row == row
            assert failed(invariants.diagram_checks(lam, {})) == [
                f"classical limit vs group-algebra symmetrizer, lambda={lam}"
            ]


@pytest.mark.parametrize("k", range(1, 8))
def test_classical_predicate_against_oracle(k):
    """
    The dense oracle accepts the group-algebra symmetrizer c and rejects
    2c, c with one coefficient changed, c with one term removed and the
    conjugate diagram's symmetrizer.
    """
    for lam in all_partitions(k):
        c = classical_young_symmetrizer(lam.parts)
        assert oracles.is_classical_symmetrizer(c, lam.parts)
        last = max(c)
        near = [
            {p: 2 * v for p, v in c.items()},
            {**c, last: -c[last]},
            {p: v for p, v in c.items() if p != last},
        ]
        conj = lam.conjugate()
        if conj != lam:
            near.append(classical_young_symmetrizer(conj.parts))
        for x in near:
            assert not oracles.is_classical_symmetrizer(x, lam.parts)


# -- the classical check on coset tables ------------------------------------------


def start_table(lam, row):
    """The table of the start x = F w G of lam's row side (row) or sign side."""
    return symmetrizers._start(symmetrizers._side(lam, row))


def side_tables(lam):
    """
    Both sides' starts at s = 1, as (row, table): the coset table of
    e_lambda w_d in R H_n and of f w_{d^-1} in B H_n, whatever lam's side.
    """
    return [(row, at_one(start_table(lam, row))) for row in (True, False)]


def at_one(h):
    """A coset table's entries at s = 1, by representative."""
    return _element(h.with_blocks(None)).specialize_at_one()


def full_at_one(c, lam, row):
    """The full table at s = 1 that the coset table c of lam's side stands for."""
    if row:
        return oracles.coset_expansion_at_one(c, lam.parts, 1)
    return oracles.coset_expansion_at_one(c, lam.conjugate().parts, -1)


def dense_verdict(c, lam, row):
    """
    The dense oracle on the full table X the coset table c of a side's
    start stands for, taken back to the side's symmetrizer y = X w^-1: on
    the row side y itself, on the sign side x = d iota(y) d^-1, since
    y = iota(d^-1 x d).
    """
    d = lam.column_reading_permutation()
    w = d if row else oracles.inverse(d)
    y = oracles.group_algebra_mul(full_at_one(c, lam, row), {oracles.inverse(w): 1})
    x = y if row else oracles.unconjugated(y, d)
    return oracles.is_classical_symmetrizer(x, lam.parts)


def check_against_the_oracle(lam, both_sides):
    # The check on the table verify reads, and on both sides' starts when
    # both_sides is set, against the oracle: the group-algebra symmetrizer
    # times w, and the dense predicate on the full table.
    side, x = symmetrizers._own_table(lam)
    assert side == symmetrizers._own_side(lam)
    d = lam.column_reading_permutation()
    for row in (True, False) if both_sides else (side.row,):
        c = symmetrizers._at_one(start_table(lam, row))
        if row == side.row:
            assert c == symmetrizers._at_one(x)
        assert invariants.is_classical_coset_table(c, lam, row)
        assert full_at_one(c, lam, row) == oracles.classical_start(lam.parts, d, row)
        assert dense_verdict(c, lam, row)
    e = symmetrizers.alpha_extract(lam).element
    assert oracles.is_classical_symmetrizer(e.specialize_at_one(), lam.parts)


@pytest.mark.parametrize(
    "lam",
    [
        pytest.param(lam, marks=[pytest.mark.slow] if k == 7 else [])
        for k in range(1, 8)
        for lam in all_partitions(k)
    ],
    ids=str,
)
def test_coset_check_agrees_with_the_dense_oracle(lam):
    check_against_the_oracle(lam, both_sides=True)


@pytest.mark.slow
@pytest.mark.parametrize("lam", list(all_partitions(8)), ids=str)
def test_coset_check_agrees_with_the_dense_oracle_eight_cells(lam):
    check_against_the_oracle(lam, both_sides=False)


def perturbed(c, v, change):
    if change == "changed":
        out = {**c, v: c[v] + 1}
    elif change == "dropped":
        out = {p: x for p, x in c.items() if p != v}
    else:
        out = {**c, v: -c[v]}
    return {p: x for p, x in out.items() if x}


@pytest.mark.parametrize("change", ["changed", "dropped", "flipped"])
@pytest.mark.parametrize("lam", [lam for k in range(1, 7) for lam in all_partitions(k)], ids=str)
def test_coset_check_rejects_a_perturbed_table(lam, change):
    # Up to seven entries of each side's start in turn, spread over it,
    # the one at w among them; each verdict also the dense oracle's on
    # the full table it stands for.
    for row, c in side_tables(lam):
        entries = sorted(c)
        for v in entries[:: max(1, len(entries) // 6)]:
            table = perturbed(c, v, change)
            assert not invariants.is_classical_coset_table(table, lam, row), (row, v)
            assert not dense_verdict(table, lam, row), (row, v)


WORD_NOT_ONE = [
    lam
    for k in range(1, 8)
    for lam in all_partitions(k)
    if lam.column_reading_permutation() != tuple(range(1, k + 1))
]


@pytest.mark.parametrize("lam", WORD_NOT_ONE, ids=str)
def test_coset_check_rejects_the_symmetrizers_own_table(lam):
    # The rule reads x = y w, not y: y's own table, e_lambda's or f's, is
    # rejected on both sides whenever w is not 1, and so is x with its
    # largest entry changed.
    for row in (True, False):
        side = symmetrizers._side(lam, row)
        own = at_one(symmetrizers._table(side))
        assert not invariants.is_classical_coset_table(own, lam, row)
        c = symmetrizers._at_one(start_table(lam, row))
        assert not invariants.is_classical_coset_table(perturbed(c, max(c), "changed"), lam, row)


def scaled(chain, factor):
    """chain with a planted fault: its table times factor."""

    def faulty(side):
        h = chain(side)
        out = _Packed.zero(h.n)
        out.add_times(h, LaurentPoly.from_int(factor))
        return out

    return faulty


@pytest.mark.parametrize("factor", [-1, 2])
@pytest.mark.parametrize("row, first", [(True, "1"), (False, "1,1")], ids=["row", "sign"])
def test_a_fault_in_a_side_chain_is_named_by_the_classical_check(
    row, first, factor, monkeypatch, capsys
):
    # A multiple of the side's start squares and twists with the right
    # scalars, so only the classical limit can see it.
    real = symmetrizers._start
    faulty = scaled(real, factor)
    monkeypatch.setattr(
        symmetrizers, "_start", lambda side: (faulty if side.row == row else real)(side)
    )
    assert cli.main(["verify", "3"]) == 1
    name = f"classical limit vs group-algebra symmetrizer, lambda={first}"
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"FAIL  {name}",
        f"verification failed: {name}",
    ]
