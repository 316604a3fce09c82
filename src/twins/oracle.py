"""Exact maximum-twin search and exhaustive extremal tables.

Colorings and permutations are maximized by one synchronized-pair search
core, the *compressed* engine `_compressed_max`. Its memo keys a state by
the smaller chain end and the used indices from it up: a fresh pick for
the trailing chain can only collide with those (everything else used lies
below it), so the key is a complete description of the remaining search.
An optional cap ends the whole search once a twin of that size is found,
so every stored value stays exact. A run capped at the maximum records
the path that reaches it, which is the witness. The plain engine keyed by
the whole used-index set lives in the tests as the independent checker.

Strings have one search too, the capped scan `_capped_string_max` over
(position, queue) states; `max_string_twin` takes its size and witness
from it.

Extremal tables (minimum over all colorings / strings / permutations)
walk their spaces depth first in a fixed order, one coordinate per
level, under an explicit enumeration budget. All three twin notions are
hereditary, so once a prefix holds a twin of the running minimum its
whole subtree is skipped. Prefixes are decided by the capped core or the
capped string scan at that minimum, and the first leaf by the same
kernel at a cap no twin exceeds. The permutation walk memoizes its
decisions by the prefix's pattern, keyed by the insertion rank of each
value among those before it; the key grows by one entry per level. Each
space is walked once, in-process, by value.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterator

from .core import EMPTY_TWIN, EdgeColoring, TwinPair
from .sequences import LetterString, Permutation

DEFAULT_MAX_ENUMERATIONS = 1 << 21

StepPredicate = Callable[[int, int, int, int], bool]
StartPredicate = Callable[[int, int], bool]


class BudgetExceededError(RuntimeError):
    """A search or enumeration would exceed its configured budget."""

    def __init__(self, what: str, needed: int, budget: int):
        super().__init__(f"{what}: needed {needed}, budget {budget}")
        self.what = what
        self.needed = needed
        self.budget = budget


def _always(i: int, j: int) -> bool:
    return True


# ---------------------------------------------------------------------------
# Search core
#
# A twin is grown as a synchronized pair of chains: each step appends one
# fresh index to each chain, both strictly beyond their chain's end, and
# must satisfy a step predicate step(a, p, b, q) relating the old ends
# (a, b) to the new picks (p, q). The predicate is symmetric under
# swapping the chains, so states are canonicalized with the smaller end
# first; starts enumerate i < j.
# ---------------------------------------------------------------------------


def _compressed_max(
    n: int,
    step: StepPredicate,
    cap: int | None = None,
    start: StartPredicate = _always,
    max_states: int | None = None,
    path: list[tuple[int, int]] | None = None,
    memo: dict | None = None,
) -> tuple[int, dict]:
    """(min(max twin size, cap), memo) of the compressed engine.

    A state is the chain ends a < b and the mask of used indices, all of
    them <= b; only those from a up can collide with a fresh pick, so the
    memo key is (a, mask >> a). With a cap, a branch returns as soon as
    its size reaches the cap, without memoizing that lower bound: every
    caller up the stack returns at once too, so every stored value is exact.
    If the cap is reached and `path` is a list, each frame on the way back
    appends its picks (p, q), p for the chain ending at a, and the start
    loop appends (i, j); a memo hit that would reach the cap has no path,
    so it is searched again. `memo` may come from an earlier run of the
    same search at any cap, since every value in it is exact.
    """
    if memo is None:
        memo = {}
    limit = n if cap is None else cap
    if n < 2 or limit <= 0:
        return 0, memo
    # A state one step below the cap returns at its first extension or has
    # none, so it is neither looked up nor stored. Without a cap no size
    # reaches it for n >= 3 (a twin has at most n // 2 pairs).
    last = limit - 1

    # path is passed down, not captured, so a run allocates no cell for it.
    def rec(a: int, b: int, mask: int, size: int, path: list | None) -> int:
        if size >= limit:
            return 0
        key = (a, mask >> a)
        if size < last:
            cached = memo.get(key)
            if cached is None:
                if max_states is not None and len(memo) >= max_states:
                    raise BudgetExceededError("search states", len(memo) + 1, max_states)
            elif path is None or size + cached < limit:
                return cached
        best = 0
        qs = range(b + 1, n + 1)  # empty once b = n: no pick is left
        for p in range(a + 1, n + 1) if qs else ():
            if mask >> p & 1:
                continue
            pmask = mask | 1 << p
            for q in qs:
                if q != p and step(a, p, b, q):
                    if p < q:
                        v = 1 + rec(p, q, pmask | 1 << q, size + 1, path)
                    else:
                        v = 1 + rec(q, p, pmask | 1 << q, size + 1, path)
                    if v > best:
                        best = v
                        if size + v >= limit:
                            if path is not None:
                                path.append((p, q))
                            return v
        if size < last:
            memo[key] = best
        return best

    best_size = 0
    try:
        for i in range(1, n):
            for j in range(i + 1, n + 1):
                if start(i, j):
                    v = 1 + rec(i, j, 1 << i | 1 << j, 1, path)
                    if v > best_size:
                        best_size = v
                        if v >= limit:
                            if path is not None:
                                path.append((i, j))
                            return limit, memo
    finally:
        del rec  # rec refers to itself: break the cycle so the memo is freed at once
    return best_size, memo


def _maximize(
    n: int, step: StepPredicate, max_states: int | None = None
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact maximum twin size under `step` with a witness.

    The uncapped core gives the size; a second run, capped at the size,
    records the path of a search that reaches it. It starts from the
    first run's memo, which holds every state it can reach, so it looks
    values up instead of searching and stores nothing: `max_states`
    binds exactly as it does on the uncapped run. The core extends the
    chain with the smaller end by p, so each step of the reversed path
    gives p to the chain whose last index is lower.
    """
    size, memo = _compressed_max(n, step, max_states=max_states)
    path: list[tuple[int, int]] = []
    _compressed_max(n, step, size, max_states=max_states, path=path, memo=memo)
    chain1, chain2 = [], []
    for p, q in reversed(path):
        low, high = (chain1, chain2) if not chain1 or chain1[-1] < chain2[-1] else (chain2, chain1)
        low.append(p)
        high.append(q)
    return size, (tuple(chain1), tuple(chain2))


# ---------------------------------------------------------------------------
# Maximizers
# ---------------------------------------------------------------------------


def _coloring_step(c: EdgeColoring) -> StepPredicate:
    mat = c.matrix()

    def step(a: int, p: int, b: int, q: int) -> bool:
        return mat[a][p] == mat[b][q]

    return step


def max_twin(c: EdgeColoring, max_states: int | None = None) -> tuple[int, TwinPair]:
    """Exact maximum twin size of c with one witness, by the compressed
    core. `max_states` bounds its memo; a search that needs more states
    raises BudgetExceededError. Returns (0, empty twin) for n < 2.
    """
    size, (first, second) = _maximize(c.n, _coloring_step(c), max_states)
    return size, (TwinPair(first, second) if size else EMPTY_TWIN)


def _weak_step(pi: Permutation) -> StepPredicate:
    vals = (0,) + pi.values

    def step(a: int, p: int, b: int, q: int) -> bool:
        return (vals[a] < vals[p]) == (vals[b] < vals[q])

    return step


def max_weak_twin(pi: Permutation) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact maximum weak-twin size, comparing permutation values directly."""
    return _maximize(pi.n, _weak_step(pi))


def max_string_twin(
    x: LetterString,
) -> tuple[int, tuple[tuple[int, ...], tuple[int, ...]]]:
    """Exact maximum string-twin length with a witness, by the string scan.

    No string twin exceeds n // 2, so the scan capped there gives the
    size; below that cap it runs once more, capped at the size, to record
    the path of a run that reaches it. The trailing chain matches the
    pushed letters first in, first out, so the k-th match pairs with the
    k-th push; pushes left pending at the end are not part of the twin.
    """
    letters = x.letters
    path: list[tuple[int, bool]] = []
    size = _capped_string_max(letters, len(letters) // 2, path)
    if size < len(letters) // 2:
        _capped_string_max(letters, size, path)
    path.reverse()
    first = tuple(pos + 1 for pos, matched in path if not matched)
    second = tuple(pos + 1 for pos, matched in path if matched)
    return size, (first[:size], second)


def _capped_string_max(
    letters: tuple[int, ...], cap: int, path: list[tuple[int, bool]] | None = None
) -> int:
    """min(max string-twin length, cap) by a depth-first decision search
    over (pos, queue, m): queue holds the letters the leading chain has
    committed to and the trailing chain must still match in order, and m
    counts the pairs matched.

    Tries match, then push, then skip, and stops once `cap` is reached.
    With r = n - pos positions left, at most min(r, (len(queue) + r) // 2)
    more pairs can match (a pair not yet queued needs two positions), so
    branches that cannot beat the current best are pruned. `dead` keeps,
    per (pos, queue), the largest m that failed there: a state that failed
    with m matches cannot succeed with fewer, and best only grows. If the
    cap is reached and `path` is a list, each frame on the way back
    appends (pos, True) for its match or (pos, False) for its push.
    """
    if cap <= 0:
        return 0
    n = len(letters)
    best = 0
    dead: dict = {}

    # path is passed down, not captured: a captured path would cost every
    # scan call one more allocated cell.
    def dfs(pos: int, queue: tuple[int, ...], m: int, path: list[tuple[int, bool]] | None) -> bool:
        nonlocal best
        if m > best:
            best = m
            if best >= cap:
                return True
        r = n - pos
        if m + min(r, (len(queue) + r) // 2) <= best:
            return False
        key = (pos, queue)
        if dead.get(key, -1) >= m:
            return False
        a = letters[pos]
        if queue and queue[0] == a and dfs(pos + 1, queue[1:], m + 1, path):
            if path is not None:
                path.append((pos, True))
            return True
        if len(queue) < r - 1 and dfs(pos + 1, queue + (a,), m, path):
            if path is not None:
                path.append((pos, False))
            return True
        if dfs(pos + 1, queue, m, path):
            return True
        dead[key] = m
        return False

    try:
        dfs(0, (), 0, path)
    finally:
        del dfs  # dfs refers to itself: break the cycle so `dead` is freed at once
    return best


def enumerate_twins(
    c: EdgeColoring, max_size: int | None = None
) -> Iterator[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Yield every valid twin of size >= 1 exactly once (first start below second)."""
    n = c.n
    if n < 2:
        return
    mat = c.matrix()
    first: list[int] = []
    second: list[int] = []

    def walk(a: int, b: int, mask: int):
        yield tuple(first), tuple(second)
        if max_size is not None and len(first) >= max_size:
            return
        row_a = mat[a]
        row_b = mat[b]
        for p in range(a + 1, n + 1):
            if mask >> p & 1:
                continue
            cap_color = row_a[p]
            pbit = 1 << p
            for q in range(b + 1, n + 1):
                if q == p or mask >> q & 1:
                    continue
                if row_b[q] == cap_color:
                    first.append(p)
                    second.append(q)
                    yield from walk(p, q, mask | pbit | (1 << q))
                    first.pop()
                    second.pop()

    for i in range(1, n):
        for j in range(i + 1, n + 1):
            first.append(i)
            second.append(j)
            yield from walk(i, j, (1 << i) | (1 << j))
            first.pop()
            second.pop()


# ---------------------------------------------------------------------------
# Extremal tables
# ---------------------------------------------------------------------------


@dataclass
class ExtremalResult:
    """Minimum value over the enumerated space, with a first minimizer;
    `decided` counts the engine and capped-kernel runs of the walk."""

    value: int
    minimizer: object
    enumerated: int
    decided: int = 0


def _check_budget(what: str, total: int, max_enumerations: int) -> None:
    if total > max_enumerations:
        raise BudgetExceededError(what, total, max_enumerations)


def _walk(depth, options, fix, lag, capped, pattern=None):
    """(value, instance, decided) of the first minimum over a scan space
    of `depth` coordinates, walked depth first.

    A node with k coordinates fixed has as children coordinate k + 1
    (1-based) fixed to each of options(k) in turn by fix(k + 1, v), and
    fix(k + 1, 0) unfixes it, so leaves come in the space's order. A node
    is decided by capped(k, cap) = min(max twin of the prefix, cap). The
    first leaf gets cap = depth, which no twin exceeds (K_2 has one edge
    and a twin of size 1, so the cap can be reached), so its value is
    exact. After it, a node whose prefix can hold a twin of the running
    minimum (k >= 2*best - lag) gets cap = best: twins are hereditary, so
    if that reaches best no completion is a new minimizer and the subtree
    is skipped, and at a leaf a value below best is exact. With `pattern`,
    capped values are memoized by pattern(k), a key of the current prefix
    that fix keeps up to date (the permutation scan extends it by one
    insertion rank per level); the cap only falls, so a stored value
    either still reaches it or is exact.
    """
    chosen = [0] * depth
    memo: dict = {}
    best = None
    best_inst, decided = (), 0

    def rec(k: int) -> None:
        nonlocal best, best_inst, decided
        for v in options(k):
            fix(k + 1, v)
            chosen[k] = v
            if k + 1 == depth or (best is not None and k + 1 >= 2 * best - lag):
                key = pattern(k + 1) if pattern else None
                value = memo.get(key)
                if value is None:
                    decided += 1
                    value = capped(k + 1, depth if best is None else best)
                    if key is not None:
                        memo[key] = value
                if best is not None and value >= best:
                    continue
                if k + 1 == depth:
                    best, best_inst = value, tuple(chosen)
                    continue
            rec(k + 1)
        fix(k + 1, 0)

    try:
        rec(0)
    finally:
        del rec  # rec refers to itself: break the cycle so the memo is freed at once
    return best, best_inst, decided


def _scan_colorings(n: int, r: int) -> tuple[int, tuple[int, ...], int]:
    edges = [(i, j) for i in range(1, n + 1) for j in range(i + 1, n + 1)]
    mat = [[0] * (n + 1) for _ in range(n + 1)]

    def fix(k: int, color: int) -> None:
        # An unfixed edge holds its own negative sentinel, so it matches nothing.
        i, j = edges[k - 1]
        mat[i][j] = mat[j][i] = color or -k

    def step(a: int, p: int, b: int, q: int) -> bool:
        return mat[a][p] == mat[b][q]

    for k in range(1, len(edges) + 1):
        fix(k, 0)
    palette = list(range(1, r + 1))
    return _walk(
        len(edges), lambda k: palette, fix, 2,
        capped=lambda k, cap: _compressed_max(n, step, cap)[0],
    )


def _scan_permutations(n: int) -> tuple[int, tuple[int, ...], int]:
    """The walk over S_n in lexicographic order, one value per level.

    A prefix's decision depends only on its pattern, the relative order of
    its values, so decisions are memoized by pattern. The key is the
    prefix's insertion ranks: entry i counts the values among vals[1..i-1]
    below vals[i]. They determine the pattern and are determined by it, so
    the memo's classes are the patterns'. fix(k, v) extends level k - 1's
    key by one rank, a popcount of the used-value mask below v, and
    options(k) looks the free values up by that mask, so no node sorts or
    scans its prefix.
    """
    vals = [0] * (n + 1)

    def step(a: int, p: int, b: int, q: int) -> bool:
        return (vals[a] < vals[p]) == (vals[b] < vals[q])

    # used[k] is the bitmask of vals[1..k] and keys[k] their insertion ranks;
    # fix(k, v) rewrites level k, so fix(k, 0) may leave it stale but unread.
    used = [0] * (n + 1)
    keys: list[tuple[int, ...]] = [()] * (n + 1)
    free: dict[int, list[int]] = {}  # the unused values of each used mask

    def fix(k: int, v: int) -> None:
        vals[k] = v
        if v:
            below = used[k - 1]
            used[k] = below | 1 << v
            keys[k] = keys[k - 1] + ((below & ((1 << v) - 1)).bit_count(),)

    def options(k: int) -> list[int]:
        mask = used[k]
        values = free.get(mask)
        if values is None:
            values = free[mask] = [v for v in range(1, n + 1) if not mask >> v & 1]
        return values

    return _walk(
        n, options, fix, 0,
        capped=lambda k, cap: _compressed_max(k, step, cap)[0],
        pattern=keys.__getitem__,
    )


def _scan_strings(n: int, r: int) -> tuple[int, tuple[int, ...], int]:
    letters = [0] * (n + 1)
    palette = list(range(1, r + 1))
    return _walk(
        n, lambda k: palette, letters.__setitem__, 0,
        capped=lambda k, cap: _capped_string_max(tuple(letters[1 : k + 1]), cap),
    )


def exact_F(
    n: int,
    r: int,
    max_enumerations: int = DEFAULT_MAX_ENUMERATIONS,
) -> ExtremalResult:
    """Minimum of max_twin over all r-colorings of K_n, with a first minimizer.

    Enumerates colorings as base-r counters over the upper-triangular edge
    list, walked one edge per level; a prefix coloring whose fixed edges
    already hold a twin of the running minimum has its subtree skipped
    (see _walk). At the default budget, r=2 reaches n=7 and r=3 reaches
    n=5 (counted in enumerations).
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    if n < 2:
        return ExtremalResult(0, EdgeColoring(n, r, ()), 1)
    total = r ** (n * (n - 1) // 2)
    _check_budget("coloring enumeration", total, max_enumerations)
    value, colors, decided = _scan_colorings(n, r)
    return ExtremalResult(value, EdgeColoring(n, r, colors), total, decided)


def exact_F_weak(
    n: int,
    max_enumerations: int = DEFAULT_MAX_ENUMERATIONS,
) -> ExtremalResult:
    """Minimum of max_weak_twin over S_n (n <= 9 at the default budget),
    walked in lexicographic order with prefix decisions memoized by pattern."""
    if n < 1:
        raise ValueError("n must be positive")
    total = math.factorial(n)
    _check_budget("permutation enumeration", total, max_enumerations)
    value, values, decided = _scan_permutations(n)
    return ExtremalResult(value, Permutation(values), total, decided)


def exact_F_string(
    n: int,
    r: int,
    max_enumerations: int = DEFAULT_MAX_ENUMERATIONS,
) -> ExtremalResult:
    """Minimum of max_string_twin over [r]^n. For r=2 the default budget
    admits n <= 21; n = 20 takes about 40 s.

    Walks [r]^n in counter order one position per level; a prefix that
    already holds a string twin of the running minimum has its subtree
    skipped, decided by the string scan capped at that minimum.
    """
    if n < 1 or r < 1:
        raise ValueError("n and r must be positive")
    total = r**n
    _check_budget("string enumeration", total, max_enumerations)
    value, letters, decided = _scan_strings(n, r)
    return ExtremalResult(value, LetterString(r, letters), total, decided)
