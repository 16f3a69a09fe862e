"""Keep the examples embedded in docstrings honest."""

import doctest

import pytest

from qyoung import hecke, invariants, laurent, partitions, permutations, symmetrizers


@pytest.mark.parametrize(
    "module", [laurent, permutations, hecke, partitions, symmetrizers, invariants]
)
def test_module_doctests(module):
    failures, _ = doctest.testmod(module)
    assert failures == 0
