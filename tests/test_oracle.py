import gc
from itertools import permutations, product
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from brute_oracles import (
    brute_enumerate_twins,
    brute_max_string_twin,
    brute_max_twin,
    brute_max_weak_twin,
    core_string_max,
    first_minimum,
    full_scan_colorings,
    full_scan_permutations,
    full_scan_strings,
    plain_max,
)
from twins import oracle
from twins.constructions import random_coloring, random_permutation, random_string
from twins.core import EdgeColoring, relabel_palette, validate_twin
from twins.oracle import (
    BudgetExceededError,
    _capped_string_max,
    _coloring_step,
    _compressed_max,
    _scan_colorings,
    _scan_permutations,
    _scan_strings,
    _shard_ranges,
    _weak_step,
    enumerate_twins,
    exact_F,
    exact_F_string,
    exact_F_weak,
    max_string_twin,
    max_twin,
    max_weak_twin,
)
from twins.sequences import (
    LetterString,
    Permutation,
    validate_string_twin,
    validate_weak_twin,
)


def reversed_coloring(c):
    n = c.n
    return EdgeColoring.from_function(n, c.r, lambda i, j: c.color(n + 1 - i, n + 1 - j))


class TestMaxTwin:
    @pytest.mark.parametrize("n", range(2, 10))
    def test_monochromatic(self, n):
        c = EdgeColoring.monochromatic(n)
        size, witness = max_twin(c)
        assert size == n // 2
        assert validate_twin(c, witness).ok

    def test_rainbow_k4(self):
        size, _ = max_twin(EdgeColoring(4, 6, (1, 2, 3, 4, 5, 6)))
        assert size == 1

    def test_degenerate(self):
        assert max_twin(EdgeColoring.monochromatic(1))[0] == 0

    @given(seed=st.integers(0, 10**9), n=st.integers(4, 7), r=st.integers(2, 3))
    @settings(max_examples=50, deadline=None)
    def test_engines_match_brute_force(self, seed, n, r):
        c = random_coloring(n, r, seed)
        expected = brute_max_twin(c)
        assert plain_max(n, _coloring_step(c)) == expected
        size, witness = max_twin(c)
        assert size == expected
        assert validate_twin(c, witness).ok
        assert witness.size == size

    @given(seed=st.integers(0, 10**9), n=st.integers(8, 10))
    @settings(max_examples=30, deadline=None)
    def test_engine_equivalence_larger(self, seed, n):
        c = random_coloring(n, 2, seed)
        assert plain_max(n, _coloring_step(c)) == max_twin(c)[0]

    def test_state_budget(self):
        c = random_coloring(12, 2, 5)
        with pytest.raises(BudgetExceededError) as err:
            max_twin(c, max_states=3)
        assert err.value.budget == 3
        assert err.value.needed > 3

    def test_state_budget_binds_like_the_uncapped_core(self):
        # the witness run starts from the uncapped run's memo and stores no
        # state, so the budget that admits the uncapped run admits both
        for seed in range(3):
            c = random_coloring(12, 2, seed)
            states = len(_compressed_max(c.n, _coloring_step(c))[1])
            assert max_twin(c, max_states=states)[0] == max_twin(c)[0]
            with pytest.raises(BudgetExceededError) as err:
                max_twin(c, max_states=states - 1)
            assert err.value.needed == states

    @pytest.mark.parametrize("n,r,seed", [(10, 3, 1), (12, 2, 0)])
    def test_witness_through_capped_memo_hit(self, n, r, seed):
        # the witness run meets a stored state whose value reaches the cap;
        # returning it would leave the path without that state's picks
        c = random_coloring(n, r, seed)
        size, witness = max_twin(c)
        assert size == brute_max_twin(c)
        assert witness.size == size
        assert validate_twin(c, witness).ok

    def test_seeded_witnesses(self):
        for seed in range(300):
            c = random_coloring(2 + seed % 13, 2 + seed % 3, seed)
            size, witness = max_twin(c)
            assert witness.size == size == plain_max(c.n, _coloring_step(c)), seed
            assert validate_twin(c, witness).ok, seed

    @given(seed=st.integers(0, 10**9), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_relabel_and_reversal_invariance(self, seed, data):
        r = data.draw(st.integers(2, 3))
        n = data.draw(st.integers(4, 9))
        c = random_coloring(n, r, seed)
        sigma = data.draw(st.permutations(list(range(1, r + 1))))
        base = max_twin(c)[0]
        assert max_twin(relabel_palette(c, list(sigma)))[0] == base
        assert max_twin(reversed_coloring(c))[0] == base


class TestMaxStringTwin:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_constant(self, n):
        x = LetterString(1, (1,) * n)
        size, (first, second) = max_string_twin(x)
        assert size == n // 2
        assert validate_string_twin(x, first, second).ok

    def test_two_distinct_letters(self):
        assert max_string_twin(LetterString(2, (1, 2)))[0] == 0

    def test_alternating(self):
        x = LetterString(2, (1, 2, 1, 2))
        assert brute_max_string_twin(x) == 2
        size, (first, second) = max_string_twin(x)
        assert size == 2
        assert validate_string_twin(x, first, second).ok

    def test_exhaustive_binary_6(self):
        for letters in product((1, 2), repeat=6):
            x = LetterString(2, letters)
            size, (first, second) = max_string_twin(x)
            assert size == brute_max_string_twin(x)
            assert validate_string_twin(x, first, second).ok
            assert len(first) == size

    @given(seed=st.integers(0, 10**9), n=st.integers(1, 9), r=st.integers(1, 3))
    @settings(max_examples=60, deadline=None)
    def test_matches_brute_force(self, seed, n, r):
        x = random_string(n, r, seed)
        size, (first, second) = max_string_twin(x)
        assert size == brute_max_string_twin(x)
        assert validate_string_twin(x, first, second).ok

    @given(seed=st.integers(0, 10**9), n=st.integers(2, 20), r=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_matches_synchronized_search(self, seed, n, r):
        # cross-family check: the string scan must agree with the generic
        # synchronized-pair engine driven by letter-equality predicates
        x = random_string(n, r, seed)
        assert max_string_twin(x)[0] == core_string_max(x.letters)

    @pytest.mark.parametrize("r,n", [(2, n) for n in range(13)] + [(3, n) for n in range(8)])
    def test_every_witness(self, r, n):
        # n // 2 is reached in one run of the scan; a smaller size takes a
        # second run capped at it, whose path gives the witness
        for letters in product(range(1, r + 1), repeat=n):
            x = LetterString(r, letters)
            size, (first, second) = max_string_twin(x)
            assert size == core_string_max(letters), letters
            assert len(first) == size, letters
            assert validate_string_twin(x, first, second).ok, letters


def assert_capped_core(n, step, expected):
    """_compressed_max at every cap 0..n//2+1 gives min(expected, cap), and
    every value it memoizes is the exact one of the uncapped search."""
    size, exact = _compressed_max(n, step)
    assert size == expected
    for cap in range(n // 2 + 2):
        size, memo = _compressed_max(n, step, cap)
        assert size == min(expected, cap), cap
        assert all(exact[key] == value for key, value in memo.items()), cap


class TestCappedCore:
    """The capped compressed core against the plain engine."""

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_2_coloring(self, n):
        for colors in product((1, 2), repeat=n * (n - 1) // 2):
            c = EdgeColoring(n, 2, colors)
            assert_capped_core(n, _coloring_step(c), plain_max(n, _coloring_step(c)))

    def test_seeded_colorings(self):
        for seed in range(200):
            c = random_coloring(2 + seed % 11, 2 + seed % 2, seed)
            assert_capped_core(c.n, _coloring_step(c), plain_max(c.n, _coloring_step(c)))

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_permutation(self, n):
        for values in permutations(range(1, n + 1)):
            pi = Permutation(values)
            assert_capped_core(n, _weak_step(pi), plain_max(n, _weak_step(pi)))


class TestCappedStringMax:
    """The capped scan kernel of exact_F_string against the pair core."""

    @pytest.mark.parametrize("r,n", [(2, n) for n in range(1, 11)] + [(3, n) for n in range(1, 7)])
    def test_exhaustive_every_cap(self, r, n):
        for letters in product(range(1, r + 1), repeat=n):
            expected = core_string_max(letters)
            for cap in range(n // 2 + 2):
                assert _capped_string_max(letters, cap) == min(expected, cap), (letters, cap)

    @pytest.mark.parametrize(
        "letters",
        [(1, 2, 1, 2), (1, 1, 2, 2), (1, 2, 2, 1), (2, 1, 1, 2, 1, 2, 2), (1, 2, 3, 1, 2, 3, 3, 1)],
    )
    def test_matches_brute_force(self, letters):
        x = LetterString(max(letters), letters)
        expected = brute_max_string_twin(x)
        assert _capped_string_max(letters, len(letters)) == expected
        assert _capped_string_max(letters, expected) == expected
        if expected:
            assert _capped_string_max(letters, expected - 1) == expected - 1

    @given(seed=st.integers(0, 10**9), n=st.integers(1, 16), r=st.integers(1, 4), data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_exact_maximizer(self, seed, n, r, data):
        x = random_string(n, r, seed)
        cap = data.draw(st.integers(0, n // 2 + 1))
        assert _capped_string_max(x.letters, cap) == min(core_string_max(x.letters), cap)


class TestMaxWeakTwin:
    def test_tiny(self):
        assert max_weak_twin(Permutation((1, 2)))[0] == 1
        assert max_weak_twin(Permutation((2, 1, 3)))[0] == 1
        assert max_weak_twin(Permutation((1,)))[0] == 0

    def test_identity(self):
        assert max_weak_twin(Permutation((1, 2, 3, 4)))[0] == 2

    def test_exhaustive_s5(self):
        for values in permutations(range(1, 6)):
            pi = Permutation(values)
            size, (first, second) = max_weak_twin(pi)
            assert size == brute_max_weak_twin(pi)
            assert validate_weak_twin(pi, first, second).ok

    @given(seed=st.integers(0, 10**9), n=st.integers(2, 8))
    @settings(max_examples=40, deadline=None)
    def test_engines_agree(self, seed, n):
        pi = random_permutation(n, seed)
        assert plain_max(n, _weak_step(pi)) == max_weak_twin(pi)[0]


class TestEnumerateTwins:
    @given(seed=st.integers(0, 10**9), n=st.integers(2, 6))
    @settings(max_examples=30, deadline=None)
    def test_matches_brute_enumeration(self, seed, n):
        c = random_coloring(n, 2, seed)
        assert set(enumerate_twins(c)) == brute_enumerate_twins(c)

    def test_size_cap(self):
        c = EdgeColoring.monochromatic(8)
        assert max(len(f) for f, _ in enumerate_twins(c, max_size=2)) == 2


class TestExactTables:
    def test_singletons_for_any_palette(self):
        assert exact_F(2, 2).value == 1
        assert exact_F(2, 3).value == 1

    def test_single_coloring_when_r1(self):
        assert exact_F(4, 1).value == 2
        assert exact_F(5, 1).value == 2

    def test_k4_binary_matches_brute_force(self):
        values = []
        for colors in product((1, 2), repeat=6):
            values.append(brute_max_twin(EdgeColoring(4, 2, colors)))
        assert min(values) == 1
        result = exact_F(4, 2)
        assert result.value == 1
        assert max_twin(result.minimizer)[0] == 1

    def test_minimizer_is_first_in_order(self):
        result = exact_F(3, 2)
        assert result.value == 1
        # every coloring of K_3 has twin size exactly 1, so the first
        # counter value (all color 1) is the exported minimizer
        assert result.minimizer.colors == (1, 1, 1)

    def test_budget_error_carries_count(self):
        with pytest.raises(BudgetExceededError) as err:
            exact_F(8, 2)
        assert err.value.needed == 2**28
        with pytest.raises(BudgetExceededError):
            exact_F_weak(10)
        with pytest.raises(BudgetExceededError):
            exact_F_string(22, 2)

    def test_weak_4_matches_reduction_scan(self):
        # independent scan through the permutation reduction
        from twins.reductions import coloring_from_permutation

        expected = min(
            plain_max(4, _coloring_step(coloring_from_permutation(Permutation(v))))
            for v in permutations(range(1, 5))
        )
        result = exact_F_weak(4)
        assert result.value == expected == 1
        assert max_weak_twin(result.minimizer)[0] == 1

    def test_string_tiny(self):
        assert exact_F_string(2, 2).value == 0
        assert exact_F_string(1, 5).value == 0

    def test_string_8_matches_brute_force(self):
        expected = min(
            brute_max_string_twin(LetterString(2, letters))
            for letters in product((1, 2), repeat=8)
        )
        result = exact_F_string(8, 2)
        assert result.value == expected == 2
        assert max_string_twin(result.minimizer)[0] == 2

    def test_sharding_matches_serial(self):
        serial = exact_F(4, 2, jobs=1)
        parallel = exact_F(4, 2, jobs=3)
        assert (serial.value, serial.minimizer) == (parallel.value, parallel.minimizer)
        s2 = exact_F_string(8, 2, jobs=2)
        assert s2.value == 2
        s1 = exact_F_string(8, 2)
        assert (s2.value, s2.minimizer) == (s1.value, s1.minimizer)
        w2 = exact_F_weak(5, jobs=2)
        w1 = exact_F_weak(5)
        assert (w2.value, w2.minimizer) == (w1.value, w1.minimizer)

    @pytest.mark.parametrize("n", range(1, 12))
    def test_string_minimizer_matches_uncapped_scan(self, n):
        result = exact_F_string(n, 2)
        value, _, letters = first_minimum(full_scan_strings(n, 2))
        assert (result.value, result.minimizer.letters) == (value, letters)


SCANS = {
    "coloring": (_scan_colorings, full_scan_colorings),
    "weak": (_scan_permutations, full_scan_permutations),
    "string": (_scan_strings, full_scan_strings),
}
SCAN_SPACES = (
    [("coloring", (n, 2)) for n in range(2, 6)]
    + [("coloring", (n, 3)) for n in range(2, 5)]
    + [("coloring", (n, 1)) for n in range(2, 7)]
    + [("weak", (n,)) for n in range(1, 8)]
    + [("string", (n, 2)) for n in range(1, 12)]
    + [("string", (n, 3)) for n in range(1, 7)]
)


class TestShardedScans:
    """The pruned walk of every shard range against the unpruned scan of it."""

    @pytest.mark.parametrize("kind,args", SCAN_SPACES)
    def test_every_shard_range(self, kind, args):
        worker, full_scan = SCANS[kind]
        scan = full_scan(*args)
        for jobs in range(1, 8):
            for lo, hi in _shard_ranges(len(scan), jobs):
                assert worker(args + (lo, hi))[:3] == first_minimum(scan, lo, hi), (jobs, lo, hi)


def permutation_walk_hooks(n):
    """The fix, options and pattern hooks that `_scan_permutations` hands to `_walk`."""
    hooks = {}

    def capture(sizes, options, fix, lag, start, stop, capped, pattern=None):
        hooks.update(fix=fix, options=options, pattern=pattern)

    with mock.patch.object(oracle, "_walk", capture):
        _scan_permutations((n, 0, 1))
    return hooks["fix"], hooks["options"], hooks["pattern"]


def walk_key(hooks, n, prefix):
    """Fix `prefix` as the walk does, checking each level's options, then
    unfix it again; returns the pattern key of the whole prefix."""
    fix, options, pattern = hooks
    for k, v in enumerate(prefix, 1):
        assert options(k - 1) == [u for u in range(1, n + 1) if u not in prefix[: k - 1]]
        fix(k, v)
    key = pattern(len(prefix))
    for k in range(len(prefix), 0, -1):
        fix(k, 0)
    return key


@st.composite
def prefix_pairs(draw):
    """(n, a, b): two prefixes of equal length of permutations of [n]; half
    the time b is a relabeling of a that keeps its relative order."""
    n = draw(st.integers(1, 10))
    k = draw(st.integers(1, n))
    a = draw(st.permutations(range(1, n + 1)))[:k]
    b = draw(st.permutations(range(1, n + 1)))[:k]
    if draw(st.booleans()):
        support = sorted(b)
        b = [0] * k
        for rank, i in enumerate(sorted(range(k), key=a.__getitem__)):
            b[i] = support[rank]
    return n, tuple(a), tuple(b)


class TestPatternKey:
    """The walk's insertion-rank keys and the argsort patterns they replace
    split prefixes into the same classes."""

    @settings(max_examples=300, deadline=None)
    @given(prefix_pairs())
    def test_equal_exactly_when_patterns_are(self, pair):
        n, a, b = pair
        hooks = permutation_walk_hooks(n)
        key_a, key_b = walk_key(hooks, n, a), walk_key(hooks, n, b)
        assert len(key_a) == len(a)
        argsort = [tuple(sorted(range(len(p)), key=p.__getitem__)) for p in (a, b)]
        assert (key_a == key_b) == (argsort[0] == argsort[1])


class TestKernelGarbage:
    """A kernel's nested search refers to itself; each call breaks that cycle
    on return, so its memo is freed at once, not by the cyclic collector."""

    @pytest.mark.parametrize(
        "call",
        [
            lambda: _compressed_max(8, _coloring_step(random_coloring(8, 2, 5))),
            lambda: _compressed_max(8, _coloring_step(random_coloring(8, 2, 5)), 2, path=[]),
            lambda: max_twin(random_coloring(8, 2, 5)),
            lambda: _capped_string_max(random_string(14, 2, 3).letters, 7, []),
        ],
        ids=["core", "core-path", "max_twin", "string-scan"],
    )
    def test_call_leaves_no_cycle(self, call):
        gc.disable()
        try:
            gc.collect()
            call()
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestDecided:
    """`decided` counts engine and capped-kernel runs, not instances."""

    def test_pinned(self):
        assert exact_F(5, 2).decided == 94
        assert exact_F_weak(7).decided == 250
        assert exact_F_string(10, 2).decided == 319

    def test_pinned_weak_8_and_9(self):
        # The pattern memo's classes set these counts; a coarser key changes them.
        assert exact_F_weak(8).decided == 1604
        assert exact_F_weak(9).decided == 1797

    def test_prefixes_settle_most_instances(self):
        for result in (exact_F(6, 2), exact_F_weak(8), exact_F_string(13, 2)):
            assert result.decided < result.enumerated / 2, result

    def test_first_leaf_cap_is_reached_by_k2(self):
        # K_2 has one edge and a twin of size 1, so the first leaf's cap
        # (the depth, 1) equals its maximum: the cap may be reached, not passed.
        for r in (1, 2, 3):
            assert _scan_colorings((2, r, 0, r)) == (1, 0, (1,), r)
            result = exact_F(2, r, jobs=2)
            assert (result.value, result.minimizer.colors, result.decided) == (1, (1,), r)

    def test_sharded_runs_sum_their_shards(self):
        shards = [_scan_strings((10, 2, lo, hi)) for lo, hi in _shard_ranges(2**10, 3)]
        assert exact_F_string(10, 2, jobs=3).decided == sum(s[3] for s in shards)


class TestGroundTruthTables:
    """Frozen extremal values; the repository's derived ground truth."""

    def test_coloring_binary(self):
        assert {n: exact_F(n, 2).value for n in range(2, 7)} == {
            2: 1,
            3: 1,
            4: 1,
            5: 2,
            6: 2,
        }

    def test_coloring_7(self):
        # value and first minimizer as found by the unpruned per-instance scan
        result = exact_F(7, 2)
        colors = (1, 1, 1, 1, 1, 1, 2, 2, 1, 1, 1, 2, 2, 2, 2, 2, 2, 2, 1, 1, 1)
        assert (result.value, result.minimizer.colors) == (2, colors)

    def test_weak_8_and_9(self):
        # values and first minimizers as found by the unpruned per-instance scan
        w8, w9 = exact_F_weak(8), exact_F_weak(9)
        assert (w8.value, w8.minimizer.values) == (3, (1, 2, 3, 4, 5, 8, 7, 6))
        assert (w9.value, w9.minimizer.values) == (3, (1, 2, 3, 8, 7, 6, 5, 4, 9))

    def test_weak(self):
        assert {n: exact_F_weak(n).value for n in range(2, 8)} == {
            2: 1,
            3: 1,
            4: 1,
            5: 2,
            6: 2,
            7: 2,
        }

    def test_string_binary(self):
        assert {n: exact_F_string(n, 2).value for n in range(2, 15)} == {
            2: 0,
            3: 1,
            4: 1,
            5: 1,
            6: 2,
            7: 2,
            8: 2,
            9: 3,
            10: 3,
            11: 4,
            12: 4,
            13: 5,
            14: 5,
        }
