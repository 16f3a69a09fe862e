"""
The named invariants behind ``qyoung verify``: the names they report, that
a planted fault is reported under exactly its own name, that the dense
classical-limit oracle accepts the group-algebra symmetrizer and nothing
near it, and that the classical check on coset tables agrees with that
oracle on e_lambda and on perturbed tables of both sides.
"""

import pytest

from qyoung import cli, hecke, invariants, symmetrizers
from qyoung.hecke import _element, _packed, _Packed
from qyoung.laurent import LaurentPoly, ONE
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


def side_tables(lam):
    """
    Both sides' tables of e_lambda at s = 1, as (row, table): e's coset table
    in R H_n and f's in B H_n, from their own chains, whatever lam's side.
    """
    e = symmetrizers.e_lambda(lam)
    return [
        (True, at_one(row_table(e, lam))),
        (False, at_one(symmetrizers._table(symmetrizers._side(lam, False)))),
    ]


def row_table(e, lam):
    """e's table on the row side, whatever lam's own side."""
    blocks = symmetrizers._side(lam, True).first
    return _packed(e) if blocks is None else hecke._chain_start(e)


def at_one(h):
    """A coset table's entries at s = 1, by representative."""
    return _element(h.with_blocks(None)).specialize_at_one()


def dense_verdict(c, lam, row):
    """
    The dense oracle on the full table the coset table c stands for: R h at
    s = 1 on the row side; on the sign side B h', taken back to
    x = d iota(y) d^-1, since y = iota(d^-1 x d).
    """
    if row:
        return oracles.is_classical_symmetrizer(
            oracles.coset_expansion_at_one(c, lam.parts, 1), lam.parts
        )
    y = oracles.coset_expansion_at_one(c, lam.conjugate().parts, -1)
    x = oracles.unconjugated(y, lam.column_reading_permutation())
    return oracles.is_classical_symmetrizer(x, lam.parts)


def check_against_the_oracle(lam, both_sides):
    # The check on the table verify reads, and on both sides' tables when
    # both_sides is set, against the oracle on e_lambda and on each table.
    side, h = symmetrizers._own_table(lam)
    row, c = side.row, symmetrizers._at_one(h)
    assert side == symmetrizers._own_side(lam)
    assert invariants.is_classical_coset_table(c, lam, row)
    assert dense_verdict(c, lam, row)
    e = symmetrizers.alpha_extract(lam).element
    assert oracles.is_classical_symmetrizer(e.specialize_at_one(), lam.parts)
    for on_row, table in side_tables(lam) if both_sides else []:
        assert invariants.is_classical_coset_table(table, lam, on_row)
        assert dense_verdict(table, lam, on_row)


@pytest.mark.parametrize("lam", [lam for k in range(1, 8) for lam in all_partitions(k)], ids=str)
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
    # Up to seven entries of each side's table in turn, spread over it,
    # the identity's among them; each verdict also the dense oracle's on
    # the full table it stands for.
    for row, c in side_tables(lam):
        entries = sorted(c)
        for v in entries[:: max(1, len(entries) // 6)]:
            table = perturbed(c, v, change)
            assert not invariants.is_classical_coset_table(table, lam, row), (row, v)
            assert not dense_verdict(table, lam, row), (row, v)


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
    # A multiple of the side's table squares and twists with the right
    # scalars, so only the classical limit can see it.
    real = symmetrizers._table
    faulty = scaled(real, factor)
    monkeypatch.setattr(
        symmetrizers, "_table", lambda side: (faulty if side.row == row else real)(side)
    )
    assert cli.main(["verify", "3"]) == 1
    name = f"classical limit vs group-algebra symmetrizer, lambda={first}"
    assert capsys.readouterr().out.splitlines()[-2:] == [
        f"FAIL  {name}",
        f"verification failed: {name}",
    ]
