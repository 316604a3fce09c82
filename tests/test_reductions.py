from itertools import permutations, product

from hypothesis import given, settings
from hypothesis import strategies as st

from twins.core import TwinPair, validate_twin
from twins.oracle import enumerate_twins, max_string_twin, max_twin, max_weak_twin
from twins.reductions import coloring_from_permutation, coloring_from_string
from twins.sequences import (
    LetterString,
    Permutation,
    validate_string_twin,
    validate_weak_twin,
)

import pytest


class TestPermutationReduction:
    def test_explicit_colors(self):
        c = coloring_from_permutation(Permutation((2, 1, 3)))
        assert c.color(1, 2) == 2
        assert c.color(1, 3) == 1
        assert c.color(2, 3) == 1

    def test_identity_monochromatic(self):
        c = coloring_from_permutation(Permutation((1, 2, 3, 4)))
        assert set(c.colors) == {1}
        assert c.r == 2

    def test_reverse_monochromatic(self):
        c = coloring_from_permutation(Permutation((4, 3, 2, 1)))
        assert set(c.colors) == {2}

    def test_non_monotone_uses_both_colors(self):
        c = coloring_from_permutation(Permutation((2, 1, 3)))
        assert set(c.colors) == {1, 2}

    def test_twin_iff_weak_twin_instance(self):
        pi = Permutation((2, 1, 4, 3))
        c = coloring_from_permutation(pi)
        assert validate_twin(c, TwinPair((1, 2), (3, 4))).ok
        assert validate_weak_twin(pi, (1, 2), (3, 4)).ok

    def test_tiny_rejected(self):
        with pytest.raises(ValueError):
            coloring_from_permutation(Permutation((1,)))

    @given(values=st.permutations([1, 2, 3, 4, 5]))
    @settings(max_examples=40, deadline=None)
    def test_twin_sets_coincide(self, values):
        # every candidate pair gets the same verdict under both notions
        pi = Permutation(tuple(values))
        c = coloring_from_permutation(pi)
        for first, second in enumerate_twins(c):
            assert validate_weak_twin(pi, first, second).ok

    def test_oracle_equivalence_s5(self):
        for values in permutations(range(1, 6)):
            pi = Permutation(values)
            assert max_twin(coloring_from_permutation(pi))[0] == max_weak_twin(pi)[0]


class TestStringReduction:
    def test_explicit_colors(self):
        c = coloring_from_string(LetterString(2, (1, 2, 1, 2)))
        for j in (2, 3, 4):
            assert c.color(1, j) == 1
        for j in (3, 4):
            assert c.color(2, j) == 2
        assert c.color(3, 4) == 1

    def test_constant_monochromatic(self):
        c = coloring_from_string(LetterString(1, (1, 1, 1)))
        assert set(c.colors) == {1}

    def test_twin_iff_prefix_string_twin_instance(self):
        x = LetterString(2, (1, 1, 2, 2))
        c = coloring_from_string(x)
        assert validate_twin(c, TwinPair((1, 3), (2, 4))).ok
        assert validate_string_twin(x, (1,), (2,)).ok

    def test_tiny_rejected(self):
        with pytest.raises(ValueError):
            coloring_from_string(LetterString(2, (1,)))

    def test_twin_prefixes_are_string_twins(self):
        # over all binary strings of length up to 6: a coloring twin, with
        # its two maxima dropped, is a string twin; sizes differ by <= 1
        for n in (2, 4, 6):
            for letters in product((1, 2), repeat=n):
                x = LetterString(2, letters)
                c = coloring_from_string(x)
                coloring_size, _ = max_twin(c)
                string_size, _ = max_string_twin(x)
                assert coloring_size <= string_size + 1
                for first, second in enumerate_twins(c):
                    assert validate_string_twin(x, first[:-1], second[:-1]).ok
