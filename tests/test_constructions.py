import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twins import constructions
from twins.builder import popular_subset
from twins.constructions import (
    BlockProfile,
    CompositeSpec,
    block_coloring,
    composite_block,
    composite_coloring,
    composite_slot,
    decompose_composite_twin,
    extremal_no_matchable,
    extremal_partition,
    random_coloring,
    random_composite_spec,
    random_permutation,
    random_permutation_pair,
    random_string,
    skew_sum_permutation,
    twin_block_graph,
    uncovered_blocks,
)
from twins.core import (
    EMPTY_TWIN,
    EdgeColoring,
    TwinPair,
    find_matchable_orientation,
    relabel_palette,
    validate_twin,
)
from twins.oracle import enumerate_twins, max_string_twin, max_twin
from twins.reductions import coloring_from_permutation
from twins.sequences import LetterString, lcs_length


def embed_bipartite(bc, filler=1):
    """Lift a bipartite coloring into a full coloring of K_n (same indices);
    non-cross edges get the filler color."""
    n = max(bc.b_side)
    lookup = {}
    for ai, a in enumerate(bc.a_side):
        for bi, b in enumerate(bc.b_side):
            lookup[(min(a, b), max(a, b))] = bc.grid[ai][bi]
    return EdgeColoring.from_function(n, bc.r, lambda i, j: lookup.get((i, j), filler))


class TestExtremalBipartite:
    def test_injection_blocks_all_matchings(self):
        bc = extremal_no_matchable(2, 5, 2)
        c = embed_bipartite(bc)
        bs = bc.b_side
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                assert find_matchable_orientation(c, set(bc.a_side), {bs[i], bs[j]}) is None

    def test_single_color_needs_two_a_vertices(self):
        bc = extremal_no_matchable(1, 3, 1)
        assert len(bc.a_side) == 1  # no 2-set of A exists, matchability impossible

    def test_oversized_a_rejected(self):
        with pytest.raises(ValueError):
            extremal_no_matchable(3, 4, 2)

    def test_partition_matches_only_within_parts(self):
        bc = extremal_partition(2, 2)
        c = embed_bipartite(bc)
        part = {b: (bi // 2) for bi, b in enumerate(bc.b_side)}
        bs = bc.b_side
        for i in range(len(bs)):
            for j in range(i + 1, len(bs)):
                matchable_somewhere = any(
                    find_matchable_orientation(c, {a1, a2}, {bs[i], bs[j]}) is not None
                    for a1 in bc.a_side
                    for a2 in bc.a_side
                    if a1 < a2
                )
                assert matchable_somewhere == (part[bs[i]] == part[bs[j]])

    def test_partition_is_one_vertex_short(self):
        bc = extremal_partition(2, 1)
        with pytest.raises(ValueError):
            popular_subset(bc, 2, 1)


class TestCompositeColoring:
    def test_block_and_slot_maps(self):
        assert [composite_block(k, 2) for k in range(1, 7)] == [1, 1, 2, 2, 3, 3]
        assert [composite_slot(k, 2) for k in range(1, 7)] == [1, 2, 1, 2, 1, 2]

    def test_rule_evaluation(self):
        spec = random_composite_spec(4, 3, seed=9)
        c = composite_coloring(spec)
        x, y = spec.x.letters, spec.y.letters
        assert c.color(1, 3) == x[0]  # across blocks: global rule
        assert c.color(1, 2) == 2 + spec.perms[y[0] - 1].values[0]  # within: local

    def test_color_ranges(self):
        spec = random_composite_spec(4, 4, seed=11)
        c = composite_coloring(spec)
        half = spec.half
        for k in range(1, c.n + 1):
            for k2 in range(k + 1, c.n + 1):
                col = c.color(k, k2)
                if composite_block(k, half) < composite_block(k2, half):
                    assert 1 <= col <= half
                else:
                    assert half + 1 <= col <= 2 * half

    def test_odd_palette_rejected(self):
        with pytest.raises(ValueError):
            random_composite_spec(3, 4, seed=1)
        with pytest.raises(ValueError):
            CompositeSpec(
                3,
                LetterString(1, (1,)),
                LetterString(9, (1,)),
                tuple(),
            )

    def test_spec_json_roundtrip(self):
        spec = random_composite_spec(4, 4, seed=3)
        data = json.loads(json.dumps(spec.to_json_dict()))
        assert CompositeSpec.from_json_dict(data) == spec

    @pytest.mark.parametrize("r", [4.5, 4.0, True, "4"])
    def test_spec_json_non_integer_palette_rejected(self, r):
        data = {**random_composite_spec(4, 2, seed=1).to_json_dict(), "r": r}
        with pytest.raises(ValueError, match="r must be an integer"):
            CompositeSpec.from_json_dict(data)

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=10, deadline=None)
    def test_twin_bound(self, seed):
        spec = random_composite_spec(4, 4, seed)
        c = composite_coloring(spec)
        size, _ = max_twin(c)
        fx = max_string_twin(spec.x)[0]
        fy = max_string_twin(spec.y)[0]
        max_lcs = max(
            lcs_length(spec.perms[i], spec.perms[j])
            for i in range(len(spec.perms))
            for j in range(i + 1, len(spec.perms))
        )
        assert size <= spec.block_count + 2 * fy * spec.r + (2 * fx + 1) * (max_lcs + 1)


class TestDecomposition:
    def test_empty_twin(self):
        spec = random_composite_spec(4, 3, seed=2)
        dec = decompose_composite_twin(spec, EMPTY_TWIN)
        assert dec.block_image_size == 0
        assert dec.intervals == ()

    def test_invalid_twin_rejected(self):
        spec = random_composite_spec(4, 3, seed=2)
        with pytest.raises(ValueError):
            decompose_composite_twin(spec, TwinPair((1, 2), (1, 3)))

    def test_coloring_built_once_per_spec(self, monkeypatch):
        spec = random_composite_spec(4, 3, seed=5)
        twins = list(enumerate_twins(composite_coloring(spec)))
        built = []
        monkeypatch.setattr(
            constructions, "composite_coloring", lambda s: built.append(s) or composite_coloring(s)
        )
        for first, second in twins:
            decompose_composite_twin(spec, TwinPair(first, second))
        assert len(twins) > 1 and built == [spec]

    @given(seed=st.integers(0, 10**9))
    @settings(max_examples=8, deadline=None)
    def test_partitions_and_h1_intervals(self, seed):
        spec = random_composite_spec(4, 4, seed)
        c = composite_coloring(spec)
        for first, second in enumerate_twins(c):
            twin = TwinPair(first, second)
            dec = decompose_composite_twin(spec, twin)
            ranks = set(range(1, dec.block_image_size + 1))
            assert dec.same_block | dec.same_y | dec.rest == ranks
            assert not (dec.same_block & dec.same_y)
            assert not (dec.same_block & dec.rest)
            assert sum(len(iv) for iv in dec.intervals) == twin.size
            for h in dec.same_block:
                assert len(dec.intervals[h - 1]) <= 1


class TestBlockProfiles:
    def test_skew_sum_single_block(self):
        profile = BlockProfile(1, LetterString(1, (1,)))
        assert skew_sum_permutation(profile).values == (3, 2, 1)

    def test_skew_sum_two_blocks(self):
        profile = BlockProfile(1, LetterString(1, (1, 1)))
        assert skew_sum_permutation(profile).values == (3, 2, 1, 6, 5, 4)

    def test_skew_sum_heavy_block(self):
        profile = BlockProfile(2, LetterString(2, (2,)))
        assert skew_sum_permutation(profile).values == tuple(range(9, 0, -1))

    def test_json_roundtrip(self):
        profile = BlockProfile(2, LetterString(2, (1, 2)))
        data = json.loads(json.dumps(profile.to_json_dict()))
        assert BlockProfile.from_json_dict(data) == profile

    @pytest.mark.parametrize(
        "data", [{"r": 2.9, "x": [1, 2]}, {"r": True, "x": [1]}, {"r": 2.0, "x": [1]}]
    )
    def test_json_non_integer_palette_rejected(self, data):
        with pytest.raises(ValueError, match="r must be an integer"):
            BlockProfile.from_json_dict(data)

    def test_empty_profile_rejected(self):
        with pytest.raises(ValueError, match="profile string must be non-empty"):
            BlockProfile(2, LetterString(2, ()))

    def test_coloring_built_once_per_profile(self, monkeypatch):
        profile = BlockProfile(2, LetterString(2, (1, 1)))
        twins = list(enumerate_twins(block_coloring(profile)))
        built = []
        monkeypatch.setattr(
            constructions, "block_coloring", lambda p: built.append(p) or block_coloring(p)
        )
        for first, second in twins:
            twin_block_graph(profile, TwinPair(first, second))
            uncovered_blocks(profile, TwinPair(first, second))
        assert len(twins) == 43 and built == [profile]
        assert profile.coloring == block_coloring(profile)

    def test_block_coloring_colors(self):
        profile = BlockProfile(1, LetterString(1, (1, 1)))
        c = block_coloring(profile)
        assert c.color(1, 2) == 1
        assert c.color(3, 4) == 2

    def test_single_block_monochromatic(self):
        profile = BlockProfile(1, LetterString(1, (1,)))
        assert set(block_coloring(profile).colors) == {1}

    def test_matches_permutation_reduction_up_to_relabel(self):
        # the skew-sum permutation's reduction swaps the two colors; checked
        # on every profile with letters in {1,2} and total size <= 15
        profiles = [
            (1,), (2,), (1, 1), (1, 2), (2, 1),
            (1, 1, 1), (1, 1, 2), (1, 2, 1), (2, 1, 1),
        ]
        for letters in profiles:
            profile = BlockProfile(2, LetterString(2, letters))
            direct = block_coloring(profile)
            via_perm = coloring_from_permutation(skew_sum_permutation(profile))
            assert relabel_palette(via_perm, [2, 1]) == direct


class TestBlockGraph:
    PROFILE = BlockProfile(1, LetterString(1, (1, 1)))  # blocks {1,2,3}, {4,5,6}

    def test_loops(self):
        graph = twin_block_graph(self.PROFILE, TwinPair((1, 4), (2, 5)))
        assert graph.edges == frozenset({(1, 1), (2, 2)})
        assert sorted(comp.kind for comp in graph.components) == ["loop", "loop"]
        assert graph.component_count == 2

    def test_path_from_cross_pairs(self):
        graph = twin_block_graph(self.PROFILE, TwinPair((1, 2), (4, 5)))
        assert graph.edges == frozenset({(1, 2)})
        assert [comp.kind for comp in graph.components] == ["path"]
        assert graph.component_count == 1

    def test_empty_twin_all_singletons(self):
        graph = twin_block_graph(self.PROFILE, EMPTY_TWIN)
        assert graph.component_count == 2
        assert all(comp.kind == "singleton" for comp in graph.components)

    def test_invalid_twin_rejected(self):
        with pytest.raises(ValueError):
            twin_block_graph(self.PROFILE, TwinPair((1, 2), (3, 4)))

    @pytest.mark.parametrize("invalid", [TwinPair((4, 1), (5, 2)), TwinPair((1, 4), (1, 5))])
    def test_invalid_twin_rejected_after_its_edge_set_is_cached(self, invalid):
        valid = twin_block_graph(self.PROFILE, TwinPair((1, 4), (2, 5)))
        assert valid.edges == frozenset({(1, 1), (2, 2)})
        with pytest.raises(ValueError, match="not a twin of the block coloring"):
            twin_block_graph(self.PROFILE, invalid)


class TestUncoveredBlocks:
    PROFILE = BlockProfile(1, LetterString(1, (1, 1)))

    def test_empty_twin_everything_uncovered(self):
        assert uncovered_blocks(self.PROFILE, EMPTY_TWIN) == frozenset({1, 2})

    def test_full_cover(self):
        assert uncovered_blocks(self.PROFILE, TwinPair((1, 2, 3), (4, 5, 6))) == frozenset()

    def test_partial_cover(self):
        assert uncovered_blocks(self.PROFILE, TwinPair((1, 2), (5, 6))) == frozenset({1, 2})


class TestRandomDraws:
    def test_determinism(self):
        assert random_coloring(10, 2, 7) == random_coloring(10, 2, 7)
        assert random_string(10, 3, 7) == random_string(10, 3, 7)
        assert random_permutation(10, 7) == random_permutation(10, 7)

    def test_different_seeds_differ(self):
        assert random_coloring(10, 2, 7) != random_coloring(10, 2, 8)

    def test_permutation_invariants(self):
        pi = random_permutation(50, 3)
        assert sorted(pi.values) == list(range(1, 51))

    def test_pair_draws_independent_streams(self):
        p1, p2 = random_permutation_pair(20, 5)
        assert p1 != p2

    def test_letter_frequency_within_3_sigma(self):
        # Bin(100000, 1/2): 3 sigma = 3*sqrt(25000) = 474.3
        x = random_string(100_000, 2, 2024)
        ones = sum(1 for letter in x.letters if letter == 1)
        assert abs(ones - 50_000) <= 475
