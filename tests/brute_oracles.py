"""Independent brute-force oracles used to pin expected test values.

These enumerate index subsets literally via itertools and share no code
with the package's search engines; they are only practical for tiny
instances. A twin's prefix is itself a twin, so each maximizer walks
sizes upward and stops at the first miss.

`plain_max` is the plain synchronized-pair engine, keyed by the whole
used-index mask and both chain ends: the independent checker of the
package's compressed core, sharing only the step predicate with it.
`core_string_max` is the string path independent of the string scan:
the package's synchronized-pair core driven by letter-equality
predicates.

The reference loops at the end are the plain forms of package checks
and scans that have a fast path: they evaluate everything element by
element, twin by twin or instance by instance, through the package's
public functions or `core_string_max`.
"""

from itertools import combinations, permutations, product

from twins.constructions import block_coloring, twin_block_graph, uncovered_blocks
from twins.core import EMPTY_TWIN, VALID, EdgeColoring, TwinPair, Verdict
from twins.oracle import _coloring_step, _compressed_max, _weak_step, enumerate_twins
from twins.sequences import Permutation


def _all_disjoint_pairs(n, size):
    universe = range(1, n + 1)
    for first in combinations(universe, size):
        chosen = set(first)
        rest = [v for v in universe if v not in chosen]
        for second in combinations(rest, size):
            yield first, second


def brute_max_twin(c):
    best = 0
    for size in range(1, c.n // 2 + 1):
        hit = False
        for first, second in _all_disjoint_pairs(c.n, size):
            if all(
                c.color(first[t], first[t + 1]) == c.color(second[t], second[t + 1])
                for t in range(size - 1)
            ):
                hit = True
                break
        if not hit:
            break
        best = size
    return best


def brute_max_string_twin(x):
    letters = x.letters
    n = len(letters)
    best = 0
    for size in range(1, n // 2 + 1):
        hit = False
        for first, second in _all_disjoint_pairs(n, size):
            if all(letters[first[t] - 1] == letters[second[t] - 1] for t in range(size)):
                hit = True
                break
        if not hit:
            break
        best = size
    return best


def plain_max(n, step):
    """Maximum twin size under `step` by a memoized recursion keyed by
    (used-index mask, a, b): simple and exponential."""
    memo = {}

    def rec(mask, a, b):
        key = (mask, a, b)
        cached = memo.get(key)
        if cached is not None:
            return cached
        best = 0
        for p in range(a + 1, n + 1):
            if mask >> p & 1:
                continue
            for q in range(b + 1, n + 1):
                if q != p and not mask >> q & 1 and step(a, p, b, q):
                    lo, hi = (p, q) if p < q else (q, p)
                    best = max(best, 1 + rec(mask | 1 << p | 1 << q, lo, hi))
        memo[key] = best
        return best

    return max(
        (1 + rec(1 << i | 1 << j, i, j) for i in range(1, n) for j in range(i + 1, n + 1)),
        default=0,
    )


def core_string_max(letters):
    """Maximum string-twin length by the synchronized-pair core: both
    chains step to equal letters, from a start pair of equal letters."""
    at = (0,) + tuple(letters)
    return _compressed_max(
        len(letters),
        lambda a, p, b, q: at[p] == at[q],
        start=lambda i, j: at[i] == at[j],
    )[0]


def brute_max_weak_twin(pi):
    vals = pi.values
    n = len(vals)
    best = 0
    for size in range(1, n // 2 + 1):
        hit = False
        for first, second in _all_disjoint_pairs(n, size):
            if all(
                (vals[first[t] - 1] < vals[first[t + 1] - 1])
                == (vals[second[t] - 1] < vals[second[t + 1] - 1])
                for t in range(size - 1)
            ):
                hit = True
                break
        if not hit:
            break
        best = size
    return best


def brute_lcs(a, b):
    """Largest common subsequence by enumerating subsequence pairs."""
    for size in range(min(len(a), len(b)), 0, -1):
        for pos_a in combinations(range(len(a)), size):
            sub_a = [a[p] for p in pos_a]
            for pos_b in combinations(range(len(b)), size):
                if sub_a == [b[p] for p in pos_b]:
                    return size
    return 0


def brute_enumerate_twins(c):
    """Every valid twin of every size, as a set of (first, second) pairs
    with first[0] < second[0]."""
    twins = set()
    for size in range(1, c.n // 2 + 1):
        for first, second in _all_disjoint_pairs(c.n, size):
            if first[0] > second[0]:
                continue
            if all(
                c.color(first[t], first[t + 1]) == c.color(second[t], second[t + 1])
                for t in range(size - 1)
            ):
                twins.add((first, second))
    return twins


def loop_check_index_lists(n, first, second):
    """The element-by-element form of `core.check_index_lists`."""
    for side in (first, second):
        for v in side:
            if not 1 <= v <= n:
                raise ValueError(f"index {v} out of range [1..{n}]")
    for name, side in (("first", first), ("second", second)):
        for t in range(len(side) - 1):
            if side[t] >= side[t + 1]:
                return Verdict(False, f"{name}_not_increasing", t + 1)
    if len(first) != len(second):
        return Verdict(False, "size_mismatch", None)
    overlap = set(first) & set(second)
    if overlap:
        return Verdict(False, "overlap", min(overlap))
    return VALID


def loop_validate_twin(c, twin):
    """The plain form of `core.validate_twin`: `loop_check_index_lists`,
    then each step's two edge colors through `EdgeColoring.color`."""
    verdict = loop_check_index_lists(c.n, twin.first, twin.second)
    if not verdict:
        return verdict
    first, second = twin.first, twin.second
    for t in range(len(first) - 1):
        if c.color(first[t], first[t + 1]) != c.color(second[t], second[t + 1]):
            return Verdict(False, "color_mismatch", t + 1)
    return VALID


def per_twin_block_claims(profile, max_twins):
    """`check_block_claims` with the four claims evaluated on every twin
    from the public `twin_block_graph` and `uncovered_blocks`, no memo."""
    letters = profile.x.letters
    violations = []

    def note(message):
        if len(violations) < 50:
            violations.append(message)

    if uncovered_blocks(profile, EMPTY_TWIN) != frozenset(range(1, profile.block_count + 1)):
        violations.append("empty twin must leave every block uncovered")
    if twin_block_graph(profile, EMPTY_TWIN).component_count != profile.block_count:
        violations.append("empty twin must induce one singleton per block")
    count = 0
    for first, second in enumerate_twins(block_coloring(profile)):
        count += 1
        if count > max_twins:
            return count, violations, True
        twin = TwinPair(first, second)
        graph = twin_block_graph(profile, twin)
        uncovered = uncovered_blocks(profile, twin)
        prefix = f"twin {first}/{second}: "
        for comp in graph.components:
            vs = comp.vertices
            if comp.kind == "other":
                note(prefix + f"component {vs} is not a singleton, loop, or path")
            elif comp.kind == "loop" and vs[0] not in uncovered:
                note(prefix + f"looped block {vs[0]} is fully covered (parity)")
            elif comp.kind == "path":
                for k1, k2, k3 in zip(vs, vs[1:], vs[2:]):
                    heavier = letters[k2 - 1] > max(letters[k1 - 1], letters[k3 - 1])
                    if heavier and k2 not in uncovered:
                        note(prefix + f"dominant middle block {k2} is fully covered")
                covered = all(k not in uncovered for k in vs)
                if covered and letters[vs[0] - 1] != letters[vs[-1] - 1]:
                    note(prefix + f"covered path {vs} has unequal endpoint letters")
    return count, violations, False


def full_scan_colorings(n, r):
    """`exact_F`'s space without pruning: (colors, plain-engine max twin)
    for every r-coloring of K_n in counter order (last edge fastest)."""
    return [
        (colors, plain_max(n, _coloring_step(EdgeColoring(n, r, colors))))
        for colors in product(range(1, r + 1), repeat=n * (n - 1) // 2)
    ]


def full_scan_permutations(n):
    """`exact_F_weak`'s space without pruning: (values, plain-engine max
    weak twin) for every permutation of [n] in lexicographic order."""
    return [
        (values, plain_max(n, _weak_step(Permutation(values))))
        for values in permutations(range(1, n + 1))
    ]


def full_scan_strings(n, r):
    """`exact_F_string`'s space without pruning: (letters, core_string_max)
    for every string of [r]^n in counter order (last letter fastest)."""
    return [(letters, core_string_max(letters)) for letters in product(range(1, r + 1), repeat=n)]


def first_minimum(scan, lo=0, hi=None):
    """(value, index, instance) of the first minimum of scan[lo:hi]."""
    index = min(range(lo, len(scan) if hi is None else hi), key=lambda i: scan[i][1])
    return scan[index][1], index, scan[index][0]
