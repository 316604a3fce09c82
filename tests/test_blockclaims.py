"""check_block_claims: the per-signature memo against a per-twin loop,
and its budget path."""

import pytest

from brute_oracles import per_twin_block_claims
from twins import constructions
from twins.constructions import BlockComponent, BlockProfile
from twins.harness import check_block_claims, default_config
from twins.sequences import LetterString

# Default grid profiles small enough for the per-twin loop (at most 11,205 twins).
SMALL_PROFILES = [
    prof
    for entry in default_config("blockclaims").grid
    if (prof := BlockProfile(entry["r"], LetterString(entry["r"], tuple(entry["x"])))).total <= 12
]


def profile(*letters):
    return BlockProfile(2, LetterString(2, letters))


@pytest.mark.parametrize("prof", SMALL_PROFILES, ids=lambda p: "x" + "".join(map(str, p.x.letters)))
def test_memo_matches_per_twin_loop(prof):
    result = check_block_claims(prof, 10**6)
    assert result == per_twin_block_claims(prof, 10**6)
    assert result[1] == [] and result[2] is False


def test_every_default_small_profile_is_covered():
    assert len(SMALL_PROFILES) == 6


@pytest.fixture
def no_valid_components(monkeypatch):
    """Classify every component as "other", so every twin violates a claim."""
    classify = constructions._classify_components

    def broken(m, edges):
        return tuple(BlockComponent(c.vertices, "other") for c in classify(m, edges))

    constructions._block_graph.cache_clear()
    monkeypatch.setattr(constructions, "_classify_components", broken)
    yield
    monkeypatch.undo()
    constructions._block_graph.cache_clear()


@pytest.mark.parametrize("letters, expected", [((1,), 3), ((1, 1), 50), ((2,), 50)])
def test_memo_hits_report_each_twin(no_valid_components, letters, expected):
    prof = profile(*letters)
    count, violations, exceeded = check_block_claims(prof, 10**6)
    assert (count, violations, exceeded) == per_twin_block_claims(prof, 10**6)
    # One message per component of each twin, capped at 50; twins sharing a
    # signature still name their own index lists.
    assert len(violations) == expected
    assert len(set(violations)) == len(violations)
    assert all(m.endswith("is not a singleton, loop, or path") for m in violations)


@pytest.mark.parametrize("k", [1, 5, 42])
def test_budget_path(k):
    assert check_block_claims(profile(1, 1), k) == (k + 1, [], True)


def test_budget_equal_to_twin_count_is_not_exceeded():
    assert check_block_claims(profile(1, 1), 43) == (43, [], False)
