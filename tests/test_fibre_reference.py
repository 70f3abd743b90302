"""The genus-5 count read off the fibre product itself (fibre_reference)
against the package's count, which the quotient formula lifts from the
five factor traces."""

import random

import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import random_valid_params
from fibre_reference import fibre_count
from howe5 import tables
from howe5.howe_factory import decompose_genus5, howe_counts

ROWS = [(n, params) for n in (1, 2, 3) for params in tables.load_table(n)]


@pytest.mark.parametrize("j", [1, 2])
@pytest.mark.parametrize("n,params", ROWS, ids=[f"t{n}-p{params.mod.p}" for n, params in ROWS])
def test_bundled_rows(n, params, j):
    assert fibre_count(params.row(), j) == howe_counts(decompose_genus5(params)).lift(j).total


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from([11, 13, 17, 19, 23, 29, 31, 37, 41, 43]), seed=st.integers(0, 2 ** 32))
def test_random_sets_at_small_primes(p, seed):
    """Random twists too, so every square class of alpha1, alpha2 and of
    the node constants comes up."""
    split = random_valid_params(p, random.Random(seed))
    assume(split is not None)
    base = howe_counts(split)
    for j in (1, 2):
        assert fibre_count(split.params.row(), j) == base.lift(j).total
