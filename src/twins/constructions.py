"""Adversarial colorings and seeded random draws.

The extremal bipartite colorings show the popular-subset step is sharp
on both sides. The composite coloring encodes two random strings and a
family of random permutations into few colors ("global rule" across
blocks, "local rule" inside a block); its twins decompose into three
bounded parts. The block coloring is the 2-coloring induced by a
weighted skew-sum permutation whose block weights are powers of three;
its twins induce a block graph whose components are singletons, loops,
or paths, with parity and weight-dominance constraints on coverage.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

from .builder import BipartiteColoring
from .core import EdgeColoring, TwinPair, validate_twin
from .rng import Rng, derive_seed
from .sequences import LetterString, Permutation

BLOCK_WEIGHT_BASE = 3
# Distinct (block count, edge set) pairs kept by `_block_graph`; the default
# blockclaims grid has 21.
BLOCK_GRAPH_CACHE_SIZE = 128


def extremal_no_matchable(size_a: int, size_b: int, r: int) -> BipartiteColoring:
    """Color every cross edge by an injection of its a-side endpoint.

    With at most r a-side vertices the injection into [1..r] exists, and
    no pair of b-side vertices is matchable via distinct a-side vertices:
    any two such edges see different injection values.
    """
    if size_a > r:
        raise ValueError(f"injection needs size_a <= r, got {size_a} > {r}")
    a_side = tuple(range(1, size_a + 1))
    b_side = tuple(range(size_a + 1, size_a + size_b + 1))
    grid = tuple(tuple(ai + 1 for _ in b_side) for ai in range(size_a))
    return BipartiteColoring(a_side, b_side, r, grid)


def extremal_partition(r: int, k: int) -> BipartiteColoring:
    """Split rk b-side vertices into r parts of size k; part i gets color i.

    Matchable b-side pairs then lie within one part, so no (k+1)-subset
    is pairwise matchable; |B| = rk is one short of the popular-subset
    precondition.
    """
    a_side = tuple(range(1, r + 2))
    b_side = tuple(range(r + 2, r + 2 + r * k))
    grid = tuple(tuple(bi // k + 1 for bi in range(r * k)) for _ in a_side)
    return BipartiteColoring(a_side, b_side, r, grid)


# ---------------------------------------------------------------------------
# Composite coloring
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CompositeSpec:
    """Ingredients of the composite coloring: an even palette r, a string x
    over [r/2], a string y over [r^2], and r^2 permutations of [r/2]."""

    r: int
    x: LetterString
    y: LetterString
    perms: tuple[Permutation, ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(self.perms))
        if self.r < 2 or self.r % 2 != 0:
            raise ValueError(f"palette must be even and >= 2, got {self.r}")
        half = self.r // 2
        big = self.r * self.r
        if self.x.r != half:
            raise ValueError(f"x must use palette [1..{half}]")
        if self.y.r != big:
            raise ValueError(f"y must use palette [1..{big}]")
        if self.x.length != self.y.length:
            raise ValueError("x and y must have the same length")
        if len(self.perms) != big:
            raise ValueError(f"need {big} permutations, got {len(self.perms)}")
        for p in self.perms:
            if p.n != half:
                raise ValueError(f"permutations must have length {half}")

    @property
    def half(self) -> int:
        return self.r // 2

    @property
    def block_count(self) -> int:
        return self.x.length

    @property
    def n(self) -> int:
        return self.block_count * self.half

    @cached_property
    def coloring(self) -> EdgeColoring:
        """`composite_coloring(self)`, built on first use."""
        return composite_coloring(self)

    def to_json_dict(self) -> dict:
        return {
            "r": self.r,
            "x": list(self.x.letters),
            "y": list(self.y.letters),
            "perms": [list(p.values) for p in self.perms],
        }

    @classmethod
    def from_json_dict(cls, data: dict) -> "CompositeSpec":
        r = _json_palette(data)
        return cls(
            r,
            LetterString(r // 2, tuple(data["x"])),
            LetterString(r * r, tuple(data["y"])),
            tuple(Permutation(tuple(v)) for v in data["perms"]),
        )


def _json_palette(data: dict) -> int:
    """The palette `r` of a JSON dict; a float or a bool is rejected, not truncated."""
    r = data["r"]
    if not isinstance(r, int) or isinstance(r, bool):
        raise ValueError(f"r must be an integer, got {r!r}")
    return r


def random_composite_spec(r: int, m: int, seed: int) -> CompositeSpec:
    """Uniform spec draw: letters of x, then y, then the permutations."""
    if r < 2 or r % 2 != 0:
        raise ValueError(f"palette must be even and >= 2, got {r}")
    rng = Rng(seed)
    half = r // 2
    big = r * r
    x = LetterString(half, tuple(rng.randints(1, half, m)))
    y = LetterString(big, tuple(rng.randints(1, big, m)))
    perms = tuple(Permutation(tuple(rng.permutation(half))) for _ in range(big))
    return CompositeSpec(r, x, y, perms)


def composite_block(k: int, half: int) -> int:
    """Index of the width-`half` block containing vertex k."""
    return (k + half - 1) // half


def composite_slot(k: int, half: int) -> int:
    """Position of vertex k inside its block, in [1..half]."""
    return k - (composite_block(k, half) - 1) * half


def composite_coloring(spec: CompositeSpec) -> EdgeColoring:
    """Across blocks: the lower block's x-letter. Inside a block: half + the
    block's y-permutation applied to the lower endpoint's slot."""
    half = spec.half
    n = spec.n
    x = spec.x.letters
    y = spec.y.letters
    perms = spec.perms
    colors = []
    for k in range(1, n + 1):
        blk = composite_block(k, half)
        local = half + perms[y[blk - 1] - 1].values[composite_slot(k, half) - 1]
        global_color = x[blk - 1]
        for k2 in range(k + 1, n + 1):
            colors.append(global_color if composite_block(k2, half) > blk else local)
    return EdgeColoring(n, spec.r, tuple(colors))


@dataclass(frozen=True)
class CompositeDecomposition:
    """How a twin of the composite coloring splits across blocks.

    `a_blocks`/`b_blocks` are the sorted distinct block images of the two
    chains (same count). Position interval h (1-based) holds the twin
    steps mapping to the h-th smallest block; `same_block` collects ranks
    where both chains sit in one block, `same_y` ranks with equal
    y-letters, `rest` the remainder.
    """

    a_blocks: tuple[int, ...]
    b_blocks: tuple[int, ...]
    intervals: tuple[tuple[int, ...], ...]
    same_block: frozenset[int]
    same_y: frozenset[int]
    rest: frozenset[int]

    @property
    def block_image_size(self) -> int:
        return len(self.a_blocks)


def decompose_composite_twin(spec: CompositeSpec, twin: TwinPair) -> CompositeDecomposition:
    """Split a valid twin by block rank and classify the ranks.

    Verifies internally that the three classes partition the ranks, that
    the intervals partition the twin positions into runs of size at most
    r/2, and that both chains change blocks at the same steps.
    """
    verdict = validate_twin(spec.coloring, twin)
    if not verdict:
        raise ValueError(f"not a twin of the composite coloring: {verdict.reason}")
    half = spec.half
    size = twin.size
    if size == 0:
        return CompositeDecomposition((), (), (), frozenset(), frozenset(), frozenset())
    phi_first = [composite_block(i, half) for i in twin.first]
    phi_second = [composite_block(j, half) for j in twin.second]
    for t in range(size - 1):
        same_f = phi_first[t] == phi_first[t + 1]
        same_s = phi_second[t] == phi_second[t + 1]
        if same_f != same_s:
            raise AssertionError("chains must change blocks at the same steps")
    a_blocks = tuple(sorted(set(phi_first)))
    b_blocks = tuple(sorted(set(phi_second)))
    if len(a_blocks) != len(b_blocks):
        raise AssertionError("block images must have equal size")
    rank_of = {blk: h for h, blk in enumerate(a_blocks, start=1)}
    intervals: list[list[int]] = [[] for _ in a_blocks]
    for t in range(1, size + 1):
        intervals[rank_of[phi_first[t - 1]] - 1].append(t)
    total = 0
    for interval in intervals:
        total += len(interval)
        if len(interval) > half:
            raise AssertionError("interval larger than the block width")
        if interval != list(range(interval[0], interval[0] + len(interval))):
            raise AssertionError("positions of one block rank must be consecutive")
    if total != size:
        raise AssertionError("intervals must partition the twin positions")
    y = spec.y.letters
    same_block = set()
    same_y = set()
    rest = set()
    for h in range(1, len(a_blocks) + 1):
        if a_blocks[h - 1] == b_blocks[h - 1]:
            same_block.add(h)
        elif y[a_blocks[h - 1] - 1] == y[b_blocks[h - 1] - 1]:
            same_y.add(h)
        else:
            rest.add(h)
    return CompositeDecomposition(
        a_blocks,
        b_blocks,
        tuple(tuple(iv) for iv in intervals),
        frozenset(same_block),
        frozenset(same_y),
        frozenset(rest),
    )


# ---------------------------------------------------------------------------
# Block colorings from weighted skew sums
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class BlockProfile:
    """Block structure with weights 3^letter: block k covers the indices
    (L_{k-1}, L_k] where L is the prefix sum of the weights."""

    r: int
    x: LetterString

    def __post_init__(self):
        if self.x.r != self.r:
            raise ValueError("profile palette must match its string")
        if not self.x.letters:
            raise ValueError("profile string must be non-empty")

    @cached_property
    def block_count(self) -> int:
        return self.x.length

    @cached_property
    def weights(self) -> tuple[int, ...]:
        return tuple(BLOCK_WEIGHT_BASE ** letter for letter in self.x.letters)

    @cached_property
    def prefix(self) -> tuple[int, ...]:
        sums = [0]
        for w in self.weights:
            sums.append(sums[-1] + w)
        return tuple(sums)

    @property
    def total(self) -> int:
        return self.prefix[-1]

    @cached_property
    def coloring(self) -> EdgeColoring:
        """`block_coloring(self)`, built on first use."""
        return block_coloring(self)

    @cached_property
    def block_ids(self) -> tuple[int, ...]:
        """block_ids[i] = block of vertex i (index 0 unused)."""
        ids = [0] * (self.total + 1)
        for k, (lo, hi) in enumerate(zip(self.prefix, self.prefix[1:]), start=1):
            for i in range(lo + 1, hi + 1):
                ids[i] = k
        return tuple(ids)

    def to_json_dict(self) -> dict:
        return {"r": self.r, "x": list(self.x.letters)}

    @classmethod
    def from_json_dict(cls, data: dict) -> "BlockProfile":
        r = _json_palette(data)
        return cls(r, LetterString(r, tuple(data["x"])))


def skew_sum_permutation(profile: BlockProfile) -> Permutation:
    """Each block descends through its own value range: position L_{k-1}+t
    holds the value L_k + 1 - t."""
    values: list[int] = []
    for k in range(1, profile.block_count + 1):
        lo, hi = profile.prefix[k - 1], profile.prefix[k]
        values.extend(range(hi, lo, -1))
    return Permutation(tuple(values))


def block_coloring(profile: BlockProfile) -> EdgeColoring:
    """2-coloring of [1..L_m]: color 1 within a block, color 2 across blocks."""
    total = profile.total
    ids = profile.block_ids
    colors = []
    for i in range(1, total + 1):
        bi = ids[i]
        for j in range(i + 1, total + 1):
            colors.append(1 if ids[j] == bi else 2)
    return EdgeColoring(total, 2, tuple(colors))


@dataclass(frozen=True)
class BlockComponent:
    vertices: tuple[int, ...]
    kind: str  # "singleton" | "loop" | "path" | "other"


@dataclass(frozen=True)
class BlockGraph:
    """Graph on block indices joining the blocks of the t-th twin steps.

    Loops are kept, multiplicities are not. Components over the full
    vertex set [1..m] are classified; `component_count` is their number.
    """

    block_count: int
    edges: frozenset[tuple[int, int]]
    components: tuple[BlockComponent, ...]

    @property
    def component_count(self) -> int:
        return len(self.components)


def _classify_components(m: int, edges: frozenset[tuple[int, int]]) -> tuple[BlockComponent, ...]:
    neighbors: dict[int, set[int]] = {v: set() for v in range(1, m + 1)}
    loops = set()
    for a, b in edges:
        if a == b:
            loops.add(a)
        else:
            neighbors[a].add(b)
            neighbors[b].add(a)
    seen: set[int] = set()
    components = []
    for v in range(1, m + 1):
        if v in seen:
            continue
        stack = [v]
        comp = set()
        while stack:
            u = stack.pop()
            if u in comp:
                continue
            comp.add(u)
            stack.extend(neighbors[u] - comp)
        seen |= comp
        vertices = tuple(sorted(comp))
        comp_edges = {e for e in edges if e[0] in comp}
        if len(vertices) == 1:
            kind = "loop" if vertices[0] in loops else "singleton"
            if vertices[0] in loops and len(comp_edges) > 1:
                kind = "other"
        else:
            path_edges = {
                (vertices[t], vertices[t + 1]) for t in range(len(vertices) - 1)
            }
            kind = "path" if comp_edges == path_edges else "other"
        components.append(BlockComponent(vertices, kind))
    return tuple(components)


@lru_cache(maxsize=BLOCK_GRAPH_CACHE_SIZE)
def _block_graph(m: int, edges: frozenset[tuple[int, int]]) -> BlockGraph:
    return BlockGraph(m, edges, _classify_components(m, edges))


def twin_block_graph(profile: BlockProfile, twin: TwinPair) -> BlockGraph:
    verdict = validate_twin(profile.coloring, twin)
    if not verdict:
        raise ValueError(f"not a twin of the block coloring: {verdict.reason}")
    ids = profile.block_ids
    edges = set()
    for i, j in zip(twin.first, twin.second):
        a, b = ids[i], ids[j]
        edges.add((a, b) if a <= b else (b, a))
    return _block_graph(profile.block_count, frozenset(edges))


def uncovered_blocks(profile: BlockProfile, twin: TwinPair) -> frozenset[int]:
    """Blocks whose index interval is not fully contained in the twin's union."""
    verdict = validate_twin(profile.coloring, twin)
    if not verdict:
        raise ValueError(f"not a twin of the block coloring: {verdict.reason}")
    return _uncovered(profile, twin)


def _uncovered(profile: BlockProfile, twin: TwinPair) -> frozenset[int]:
    """`uncovered_blocks` for a twin the caller has already validated."""
    m = profile.block_count
    covered = [0] * (m + 1)
    ids = profile.block_ids
    for i in twin.first:
        covered[ids[i]] += 1
    for j in twin.second:
        covered[ids[j]] += 1
    weights = profile.weights
    return frozenset(k for k in range(1, m + 1) if covered[k] < weights[k - 1])


# ---------------------------------------------------------------------------
# Seeded random draws
# ---------------------------------------------------------------------------


def random_coloring(n: int, r: int, seed: int) -> EdgeColoring:
    """Uniform r-coloring of K_n; edges drawn in lexicographic pair order."""
    rng = Rng(seed)
    count = n * (n - 1) // 2
    return EdgeColoring(n, r, tuple(rng.randints(1, r, count)))


def random_string(n: int, r: int, seed: int) -> LetterString:
    rng = Rng(seed)
    return LetterString(r, tuple(rng.randints(1, r, n)))


def random_permutation(n: int, seed: int) -> Permutation:
    rng = Rng(seed)
    return Permutation(tuple(rng.permutation(n)))


def random_permutation_pair(n: int, seed: int) -> tuple[Permutation, Permutation]:
    """Two independent uniform permutations derived from one seed."""
    return (
        random_permutation(n, derive_seed(seed, 0)),
        random_permutation(n, derive_seed(seed, 1)),
    )
