"""Edge colorings of complete ordered graphs and their twins.

Vertices are the integers 1..n; an r-coloring assigns every unordered
pair {i < j} a color in 1..r. A twin is a pair of disjoint, strictly
increasing index lists of equal length whose consecutive-pair edge
colors agree position by position; its size is the common length.
Size-0 and size-1 twins are always valid (the color condition is empty).

All types are immutable and all operations are pure functions.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Sequence


class FormatError(ValueError):
    """Malformed coloring or twin file."""


@dataclass(frozen=True)
class Verdict:
    """Result of a validity check, locating the first violated condition."""

    ok: bool
    reason: str | None = None
    position: int | None = None

    def __bool__(self) -> bool:
        return self.ok


VALID = Verdict(True)


def check_index_lists(n: int, first: Sequence[int], second: Sequence[int]) -> Verdict:
    """Structural checks shared by every twin notion.

    Raises ValueError for out-of-range indices; returns a failing Verdict
    for non-increasing lists, size mismatch, or overlap.
    """
    for side in (first, second):
        if side and not (1 <= min(side) and max(side) <= n):
            for v in side:
                if not 1 <= v <= n:
                    raise ValueError(f"index {v} out of range [1..{n}]")
    for name, side in (("first", first), ("second", second)):
        for t in range(len(side) - 1):
            if side[t] >= side[t + 1]:
                return Verdict(False, f"{name}_not_increasing", t + 1)
    if len(first) != len(second):
        return Verdict(False, "size_mismatch", None)
    if not set(first).isdisjoint(second):
        return Verdict(False, "overlap", min(set(first) & set(second)))
    return VALID


@dataclass(frozen=True)
class EdgeColoring:
    """A total color assignment on the pairs of [1..n], palette [1..r].

    Colors are stored as a dense upper-triangular tuple in lexicographic
    pair order (1,2), (1,3), ..., (1,n), (2,3), ...; lookup is O(1).
    """

    n: int
    r: int
    colors: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "colors", tuple(self.colors))
        if self.n < 1 or self.r < 1:
            raise ValueError("n and r must be positive")
        m = self.n * (self.n - 1) // 2
        if len(self.colors) != m:
            raise ValueError(f"expected {m} edge colors for n={self.n}, got {len(self.colors)}")
        colors = self.colors
        if colors and not (1 <= min(colors) and max(colors) <= self.r):
            for col in colors:
                if not 1 <= col <= self.r:
                    raise ValueError(f"color {col} outside palette [1..{self.r}]")

    def color(self, i: int, j: int) -> int:
        n = self.n
        if not (1 <= i <= n and 1 <= j <= n):
            raise ValueError(f"vertex out of range [1..{n}]: ({i},{j})")
        if i == j:
            raise ValueError(f"no loop edge at vertex {i}")
        if i > j:
            i, j = j, i
        return self.colors[(i - 1) * (2 * n - i) // 2 + (j - i - 1)]

    def matrix(self) -> list[list[int]]:
        """Dense symmetric lookup table (1-based; diagonal 0), for search loops."""
        n = self.n
        mat = [[0] * (n + 1) for _ in range(n + 1)]
        pos = 0
        colors = self.colors
        for i in range(1, n + 1):
            row = mat[i]
            for j in range(i + 1, n + 1):
                col = colors[pos]
                pos += 1
                row[j] = col
                mat[j][i] = col
        return mat

    @classmethod
    def from_function(cls, n: int, r: int, fn) -> "EdgeColoring":
        """Build from fn(i, j) -> color, called once per pair i < j."""
        colors = []
        for i in range(1, n + 1):
            for j in range(i + 1, n + 1):
                colors.append(fn(i, j))
        return cls(n, r, tuple(colors))

    @classmethod
    def monochromatic(cls, n: int, color: int = 1, r: int = 1) -> "EdgeColoring":
        return cls(n, r, (color,) * (n * (n - 1) // 2))


@dataclass(frozen=True)
class TwinPair:
    """Two index lists forming a (candidate) twin; `size` is the common length."""

    first: tuple[int, ...]
    second: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "first", tuple(self.first))
        object.__setattr__(self, "second", tuple(self.second))

    @property
    def size(self) -> int:
        return len(self.first)


EMPTY_TWIN = TwinPair((), ())


@dataclass(frozen=True)
class MatchOrientation:
    """An alignment of two 2-sets: left[k] is matched with right[k].

    Records which element of one 2-set pairs with which element of the
    other, i.e. the edge pair {left[0], right[0]}, {left[1], right[1]}.
    """

    left: tuple[int, int]
    right: tuple[int, int]

    def __post_init__(self):
        object.__setattr__(self, "left", tuple(self.left))
        object.__setattr__(self, "right", tuple(self.right))
        if len(self.left) != 2 or self.left[0] == self.left[1]:
            raise ValueError(f"left side {self.left} is not a 2-set")
        if len(self.right) != 2 or self.right[0] == self.right[1]:
            raise ValueError(f"right side {self.right} is not a 2-set")


def validate_twin(c: EdgeColoring, twin: TwinPair) -> Verdict:
    """Check the twin conditions, reporting the first violation.

    Valid iff both lists are strictly increasing, of equal length,
    disjoint, and the consecutive-pair colors agree at every step.
    """
    verdict = check_index_lists(c.n, twin.first, twin.second)
    if not verdict:
        return verdict
    # Both lists are now in range and increasing, so each step's pair i < j
    # is read from the upper-triangular colors as in EdgeColoring.color.
    colors, m = c.colors, 2 * c.n
    first, second = twin.first, twin.second
    for t in range(1, len(first)):
        i, k = first[t - 1], second[t - 1]
        if colors[(i - 1) * (m - i) // 2 + first[t] - i - 1] != colors[(k - 1) * (m - k) // 2 + second[t] - k - 1]:
            return Verdict(False, "color_mismatch", t)
    return VALID


def is_c_matching(c: EdgeColoring, left: Sequence[int], right: Sequence[int]) -> bool:
    """True iff the aligned edge pair {left[0],right[0]}, {left[1],right[1]} shares a color."""
    if len(left) != 2 or len(right) != 2:
        raise ValueError("is_c_matching expects two ordered pairs")
    return c.color(left[0], right[0]) == c.color(left[1], right[1])


def find_matchable_orientation(
    c: EdgeColoring, u: Iterable[int], v: Iterable[int]
) -> MatchOrientation | None:
    """Search the two pairings of 2-sets u, v for a c-matching.

    Pairings are tried in a fixed order — min(u)<->min(v) first, then
    min(u)<->max(v) — and the first match is returned, so the result is
    deterministic. Returns None when neither pairing matches.
    """
    us = sorted(set(u))
    vs = sorted(set(v))
    if len(us) != 2 or len(vs) != 2:
        raise ValueError("u and v must be 2-sets")
    if set(us) & set(vs):
        raise ValueError(f"u and v overlap: {sorted(set(us) & set(vs))}")
    for right in ((vs[0], vs[1]), (vs[1], vs[0])):
        orientation = MatchOrientation((us[0], us[1]), right)
        if is_c_matching(c, orientation.left, orientation.right):
            return orientation
    return None


def extend_twin(
    c: EdgeColoring, twin: TwinPair, new_pair: Iterable[int], orientation: MatchOrientation
) -> TwinPair:
    """Grow a twin by one step using a c-matching onto a fresh 2-set.

    `orientation` must align the twin's two chain ends with the elements
    of `new_pair`, every element of which must exceed both chain ends.
    """
    if twin.size < 1:
        raise ValueError("can only extend a twin of size >= 1")
    verdict = validate_twin(c, twin)
    if not verdict:
        raise ValueError(f"invalid twin: {verdict.reason} at {verdict.position}")
    vs = sorted(set(new_pair))
    if len(vs) != 2:
        raise ValueError("new pair must be a 2-set")
    tip_first, tip_second = twin.first[-1], twin.second[-1]
    if vs[0] <= max(tip_first, tip_second):
        raise ValueError(
            f"new pair {vs} must lie strictly beyond both chain ends "
            f"({tip_first}, {tip_second})"
        )
    if set(orientation.left) != {tip_first, tip_second}:
        raise ValueError("orientation left side must order the twin's chain ends")
    if set(orientation.right) != set(vs):
        raise ValueError("orientation right side must order the new pair")
    if not is_c_matching(c, orientation.left, orientation.right):
        raise ValueError("orientation is not a c-matching")
    if orientation.left[0] == tip_first:
        ext_first, ext_second = orientation.right
    else:
        ext_second, ext_first = orientation.right
    return TwinPair(twin.first + (ext_first,), twin.second + (ext_second,))


def relabel_palette(c: EdgeColoring, sigma: Sequence[int]) -> EdgeColoring:
    """Apply a palette bijection: color k becomes sigma[k-1]."""
    if len(sigma) != c.r or sorted(sigma) != list(range(1, c.r + 1)):
        raise ValueError(f"sigma must be a bijection of [1..{c.r}]")
    return EdgeColoring(c.n, c.r, tuple(sigma[col - 1] for col in c.colors))


# ---------------------------------------------------------------------------
# File formats
#
# Coloring (text): first line "n r"; then one line "i j color" for every
# pair 1 <= i < j <= n, each pair exactly once, colors in [1..r].
# TwinPair (JSON): two arrays of 1-based indices, e.g. [[1,3],[2,4]].
# ---------------------------------------------------------------------------


def write_coloring(c: EdgeColoring, path) -> None:
    with open(path, "w") as fh:
        fh.write(f"{c.n} {c.r}\n")
        pos = 0
        for i in range(1, c.n + 1):
            for j in range(i + 1, c.n + 1):
                fh.write(f"{i} {j} {c.colors[pos]}\n")
                pos += 1


def read_coloring(path) -> EdgeColoring:
    """Parse the coloring format, rejecting duplicate and missing pairs."""
    with open(path) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise FormatError("first line must be 'n r'")
        try:
            n, r = int(header[0]), int(header[1])
        except ValueError as exc:
            raise FormatError("first line must be 'n r'") from exc
        if n < 1 or r < 1:
            raise FormatError("n and r must be positive")
        seen: dict[tuple[int, int], int] = {}
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            parts = line.split()
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: expected 'i j color'")
            try:
                i, j, col = (int(p) for p in parts)
            except ValueError as exc:
                raise FormatError(f"line {lineno}: expected integers") from exc
            if not (1 <= i < j <= n):
                raise FormatError(f"line {lineno}: pair ({i},{j}) not 1 <= i < j <= n")
            if (i, j) in seen:
                raise FormatError(f"line {lineno}: duplicate pair ({i},{j})")
            if not 1 <= col <= r:
                raise FormatError(f"line {lineno}: color {col} outside [1..{r}]")
            seen[(i, j)] = col
    expected = n * (n - 1) // 2
    if len(seen) != expected:
        raise FormatError(f"expected {expected} pairs, got {len(seen)}")
    colors = []
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            colors.append(seen[(i, j)])
    return EdgeColoring(n, r, tuple(colors))


def twin_to_json(twin: TwinPair) -> str:
    return json.dumps([list(twin.first), list(twin.second)])


def twin_from_json(text: str) -> TwinPair:
    data = json.loads(text)
    if (
        not isinstance(data, list)
        or len(data) != 2
        or any(not isinstance(side, list) for side in data)
        or any(not isinstance(v, int) or isinstance(v, bool) for side in data for v in side)
    ):
        raise FormatError("twin JSON must be two arrays of integers")
    return TwinPair(tuple(data[0]), tuple(data[1]))
