"""
The named invariants behind ``qyoung verify``: the names they report, that
a planted fault is reported under exactly its own name, and that the
classical-limit predicate accepts the group-algebra symmetrizer and nothing
near it.
"""

import pytest

from qyoung import invariants, symmetrizers
from qyoung.hecke import HeckeElement
from qyoung.laurent import ONE
from qyoung.partitions import Partition, all_partitions

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

    def test_classical_limit_stops_at_six_cells(self):
        def names(parts):
            checks = invariants.diagram_checks(Partition(parts), {})
            return [name for name, _ in checks]

        assert "classical limit vs group-algebra symmetrizer, lambda=3,2,1" in names((3, 2, 1))
        assert not any(name.startswith("classical limit") for name in names((7,)))

    def test_wrong_closed_form_is_named(self, monkeypatch):
        plant_wrong_alpha(monkeypatch, (2,))
        taus = {}
        assert failed(invariants.diagram_checks(Partition((2,)), taus)) == [
            "alpha closed form, lambda=2"
        ]
        assert failed(invariants.diagram_checks(Partition((1, 1)), taus)) == []

    def test_wrong_classical_limit_is_named(self, monkeypatch):
        real = HeckeElement.specialize_at_one

        def planted(self):
            x = real(self)
            last = max(x)
            x[last] = -x[last]
            return x

        monkeypatch.setattr(HeckeElement, "specialize_at_one", planted)
        assert failed(invariants.diagram_checks(Partition((3, 2, 1)), {})) == [
            "classical limit vs group-algebra symmetrizer, lambda=3,2,1"
        ]


@pytest.mark.parametrize("k", range(1, 8))
def test_classical_predicate_against_oracle(k):
    """
    The predicate accepts the oracle's group-algebra symmetrizer c and
    rejects 2c, c with one coefficient changed, c with one term removed and
    the conjugate diagram's symmetrizer.
    """
    for lam in all_partitions(k):
        c = classical_young_symmetrizer(lam.parts)
        assert invariants.is_classical_symmetrizer(c, lam)
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
            assert not invariants.is_classical_symmetrizer(x, lam)
