import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_oracles import loop_check_index_lists, loop_validate_twin
from twins.core import (
    EMPTY_TWIN,
    EdgeColoring,
    FormatError,
    MatchOrientation,
    TwinPair,
    check_index_lists,
    extend_twin,
    find_matchable_orientation,
    is_c_matching,
    read_coloring,
    relabel_palette,
    twin_from_json,
    twin_to_json,
    validate_twin,
    write_coloring,
)
from twins.constructions import random_coloring
from twins.reductions import coloring_from_permutation
from twins.sequences import Permutation


def explicit_coloring(n, r, pairs):
    return EdgeColoring.from_function(n, r, lambda i, j: pairs[(i, j)])


RAINBOW_K4 = EdgeColoring(4, 6, (1, 2, 3, 4, 5, 6))


class TestGetColor:
    def test_monochromatic(self):
        c = EdgeColoring.monochromatic(5)
        assert c.color(2, 4) == 1

    def test_symmetric_lookup(self):
        c = explicit_coloring(3, 2, {(1, 2): 2, (1, 3): 1, (2, 3): 1})
        assert c.color(2, 1) == 2
        assert c.color(1, 2) == 2

    def test_loop_rejected(self):
        c = EdgeColoring.monochromatic(4)
        with pytest.raises(ValueError):
            c.color(3, 3)

    def test_out_of_range_rejected(self):
        c = EdgeColoring.monochromatic(4)
        with pytest.raises(ValueError):
            c.color(0, 2)
        with pytest.raises(ValueError):
            c.color(1, 5)


class TestPalette:
    @pytest.mark.parametrize("colors, bad", [((1, 3, 0), 3), ((1, 0, 3), 0), ((2, 2, -1), -1)])
    def test_first_color_outside_palette_named(self, colors, bad):
        with pytest.raises(ValueError, match=rf"^color {bad} outside palette \[1\.\.2\]$"):
            EdgeColoring(3, 2, colors)

    def test_empty_coloring_accepted(self):
        assert EdgeColoring(1, 2, ()).colors == ()


class TestValidateTwin:
    def test_monochromatic_pairs(self):
        c = EdgeColoring.monochromatic(4)
        assert validate_twin(c, TwinPair((1, 2), (3, 4))).ok

    def test_overlap_reported(self):
        c = EdgeColoring.monochromatic(4)
        verdict = validate_twin(c, TwinPair((1, 3), (2, 3)))
        assert not verdict
        assert verdict.reason == "overlap"
        assert verdict.position == 3

    def test_descent_pair_twin(self):
        c = coloring_from_permutation(Permutation((2, 1, 4, 3)))
        assert validate_twin(c, TwinPair((1, 2), (3, 4))).ok

    def test_size_mismatch(self):
        c = EdgeColoring.monochromatic(5)
        verdict = validate_twin(c, TwinPair((1, 2), (3,)))
        assert verdict.reason == "size_mismatch"

    def test_color_mismatch_position(self):
        c = explicit_coloring(
            4, 2, {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 2, (3, 4): 2}
        )
        verdict = validate_twin(c, TwinPair((1, 2), (3, 4)))
        assert verdict.reason == "color_mismatch"
        assert verdict.position == 1

    def test_not_increasing(self):
        c = EdgeColoring.monochromatic(4)
        assert validate_twin(c, TwinPair((2, 1), (3, 4))).reason == "first_not_increasing"

    def test_out_of_range_raises(self):
        c = EdgeColoring.monochromatic(4)
        with pytest.raises(ValueError):
            validate_twin(c, TwinPair((1, 5), (2, 3)))

    def test_empty_and_singletons_valid(self):
        c = EdgeColoring.monochromatic(4)
        assert validate_twin(c, EMPTY_TWIN).ok
        assert validate_twin(c, TwinPair((4,), (2,))).ok

    @given(seed=st.integers(0, 10**9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_any_distinct_singletons_valid(self, seed, data):
        c = random_coloring(9, 3, seed)
        pair = data.draw(st.lists(st.integers(1, 9), min_size=2, max_size=2, unique=True))
        assert validate_twin(c, TwinPair((pair[0],), (pair[1],))).ok


# Arbitrary index lists, and increasing ones that often form a valid pair.
INDEX_LISTS = st.one_of(
    st.lists(st.integers(-2, 15), max_size=6),
    st.lists(st.integers(1, 12), max_size=6, unique=True).map(sorted),
)


class TestCheckIndexLists:
    @given(n=st.integers(0, 12), first=INDEX_LISTS, second=INDEX_LISTS)
    @settings(max_examples=400, deadline=None)
    def test_matches_element_loop(self, n, first, second):
        try:
            expected = loop_check_index_lists(n, first, second)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                check_index_lists(n, first, second)
            assert str(err.value) == str(exc)
        else:
            assert check_index_lists(n, first, second) == expected


def _split_in_halves(vals):
    half = len(vals) // 2
    return sorted(vals[:half]), sorted(vals[half : 2 * half])


# Disjoint increasing lists of equal length, which reach the color checks.
DISJOINT_LISTS = st.lists(st.integers(1, 12), max_size=12, unique=True).map(_split_in_halves)


class TestValidateTwinAgainstLoop:
    @given(
        n=st.integers(1, 12),
        r=st.integers(1, 3),
        seed=st.integers(0, 10**9),
        lists=st.one_of(st.tuples(INDEX_LISTS, INDEX_LISTS), DISJOINT_LISTS),
    )
    @settings(max_examples=400, deadline=None)
    def test_matches_color_loop(self, n, r, seed, lists):
        c = random_coloring(n, r, seed)
        twin = TwinPair(*lists)
        try:
            expected = loop_validate_twin(c, twin)
        except ValueError as exc:
            with pytest.raises(ValueError) as err:
                validate_twin(c, twin)
            assert str(err.value) == str(exc)
        else:
            assert validate_twin(c, twin) == expected


class TestCMatching:
    def test_monochromatic(self):
        c = EdgeColoring.monochromatic(4)
        assert is_c_matching(c, (1, 2), (3, 4))

    def test_distinct_colors(self):
        c = explicit_coloring(
            4, 2, {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 2, (3, 4): 1}
        )
        assert not is_c_matching(c, (1, 2), (3, 4))

    def test_degenerate_edge(self):
        c = EdgeColoring.monochromatic(4)
        with pytest.raises(ValueError):
            is_c_matching(c, (1, 2), (1, 4))


class TestFindMatchableOrientation:
    def test_monochromatic_first_pairing(self):
        c = EdgeColoring.monochromatic(6)
        orientation = find_matchable_orientation(c, {1, 2}, {3, 4})
        assert orientation == MatchOrientation((1, 2), (3, 4))

    def test_rainbow_absent(self):
        assert find_matchable_orientation(RAINBOW_K4, {1, 2}, {3, 4}) is None

    def test_overlap_rejected(self):
        c = EdgeColoring.monochromatic(5)
        with pytest.raises(ValueError):
            find_matchable_orientation(c, {1, 2}, {2, 3})

    @given(seed=st.integers(0, 10**9), data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_symmetric_in_sides(self, seed, data):
        c = random_coloring(8, 2, seed)
        picks = data.draw(st.lists(st.integers(1, 8), min_size=4, max_size=4, unique=True))
        u, v = set(picks[:2]), set(picks[2:])
        assert (find_matchable_orientation(c, u, v) is None) == (
            find_matchable_orientation(c, v, u) is None
        )


class TestExtendTwin:
    def test_monochromatic_growth(self):
        c = EdgeColoring.monochromatic(6)
        twin = extend_twin(c, TwinPair((1,), (2,)), {3, 4}, MatchOrientation((1, 2), (3, 4)))
        assert twin == TwinPair((1, 3), (2, 4))

    def test_low_new_pair_rejected(self):
        c = EdgeColoring.monochromatic(6)
        with pytest.raises(ValueError):
            extend_twin(c, TwinPair((1,), (2,)), {2, 5}, MatchOrientation((1, 2), (2, 5)))

    def test_non_matching_orientation_rejected(self):
        c = explicit_coloring(
            4, 2, {(1, 2): 1, (1, 3): 1, (1, 4): 1, (2, 3): 1, (2, 4): 2, (3, 4): 1}
        )
        with pytest.raises(ValueError):
            extend_twin(c, TwinPair((1,), (2,)), {3, 4}, MatchOrientation((1, 2), (3, 4)))

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=60, deadline=None)
    def test_growth_postconditions(self, seed):
        c = random_coloring(10, 2, seed)
        twin = TwinPair((1,), (2,))
        orientation = find_matchable_orientation(c, {1, 2}, {3, 4})
        if orientation is None:
            return
        grown = extend_twin(c, twin, {3, 4}, orientation)
        assert grown.size == twin.size + 1
        assert validate_twin(c, grown).ok
        assert {grown.first[-1], grown.second[-1]} == {3, 4}


class TestRelabelPalette:
    def test_identity(self):
        c = random_coloring(6, 3, 5)
        assert relabel_palette(c, [1, 2, 3]) == c

    def test_swap_is_involution(self):
        c = random_coloring(6, 2, 7)
        assert relabel_palette(relabel_palette(c, [2, 1]), [2, 1]) == c

    def test_non_bijection_rejected(self):
        c = random_coloring(5, 2, 1)
        with pytest.raises(ValueError):
            relabel_palette(c, [1, 1])

    @given(
        seed=st.integers(0, 10**9),
        sigma=st.permutations(list(range(1, 4))),
        data=st.data(),
    )
    @settings(max_examples=60, deadline=None)
    def test_twin_verdicts_invariant(self, seed, sigma, data):
        c = random_coloring(8, 3, seed)
        picks = data.draw(
            st.lists(st.integers(1, 8), min_size=2, max_size=8, unique=True)
        )
        half = len(picks) // 2
        twin = TwinPair(tuple(sorted(picks[:half])), tuple(sorted(picks[half : 2 * half])))
        relabeled = relabel_palette(c, list(sigma))
        assert validate_twin(c, twin) == validate_twin(relabeled, twin)


class TestFileFormats:
    def test_roundtrip(self, tmp_path):
        c = random_coloring(7, 3, 42)
        path = tmp_path / "c.coloring"
        write_coloring(c, path)
        assert read_coloring(path) == c

    def test_duplicate_pair_rejected(self, tmp_path):
        path = tmp_path / "bad.coloring"
        path.write_text("3 2\n1 2 1\n1 2 2\n2 3 1\n")
        with pytest.raises(FormatError):
            read_coloring(path)

    def test_missing_pair_rejected(self, tmp_path):
        path = tmp_path / "gap.coloring"
        path.write_text("3 2\n1 2 1\n2 3 1\n")
        with pytest.raises(FormatError):
            read_coloring(path)

    def test_bad_color_rejected(self, tmp_path):
        path = tmp_path / "hue.coloring"
        path.write_text("3 2\n1 2 3\n1 3 1\n2 3 1\n")
        with pytest.raises(FormatError):
            read_coloring(path)

    def test_twin_json_roundtrip(self):
        twin = TwinPair((1, 3), (2, 4))
        assert twin_from_json(twin_to_json(twin)) == twin

    @pytest.mark.parametrize("text", ["[[1, true], [3, 4]]", "[[1, 2], [false, 4]]"])
    def test_twin_json_bool_index_rejected(self, text):
        with pytest.raises(FormatError):
            twin_from_json(text)

    def test_twin_json_malformed(self):
        with pytest.raises(FormatError):
            twin_from_json('{"first": [1]}')
