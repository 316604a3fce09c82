import hashlib

import pytest

from twins.constructions import random_coloring, random_composite_spec, random_string
from twins.rng import Rng

class TestRandints:
    @pytest.mark.parametrize("bound", (1, 2, 3, 5, 2**63 + 1))
    @pytest.mark.parametrize("count", (0, 1, 300))
    def test_equals_randint_loop(self, bound, count):
        for seed in range(50):
            batched, looped = Rng(seed), Rng(seed)
            values = batched.randints(1, bound, count)
            assert values == [looped.randint(1, bound) for _ in range(count)]
            assert batched._state == looped._state

    def test_offset_range(self):
        batched, looped = Rng(11), Rng(11)
        assert batched.randints(-4, 4, 200) == [looped.randint(-4, 4) for _ in range(200)]
        assert batched._state == looped._state

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).randints(2, 1, 5)
        with pytest.raises(ValueError):
            Rng(1).randint(2, 1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            Rng(1).randints(1, 2, -1)


def _digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


# sha256 of repr(draw) for seeds 0..4, fixed when the draws went from one
# `randint` call per value to `randints`; any change to the stream fails.
# Palettes 2, 3 and 16 almost never reject, so `rejecting_64` pins a range
# where about half of the raw draws are rejected.
DRAWS = {
    "rejecting_64": lambda seed: Rng(seed).randints(1, 2**63 + 1, 64),
    "coloring_60_2": lambda seed: random_coloring(60, 2, seed).colors,
    "coloring_30_3": lambda seed: random_coloring(30, 3, seed).colors,
    "string_1000_3": lambda seed: random_string(1000, 3, seed).letters,
    "composite_4_4": lambda seed: random_composite_spec(4, 4, seed),
}

PINS = {
    "rejecting_64": (
        "029c1bbe102a16bf7d44211ebd4d015690e07b0f86990ffc6d842be5ba973097",
        "ae1fba57e143aca7430f45bf822a2c47c236a9b6fec18511c2a3e49f0c5ecbba",
        "1f03e55546d2d602e37077410ec2e8b7cb11e46152687b0437472f0c508f4d1e",
        "b6ac51b0b8036fbee1f23a149add10977bfc2f4f184c0fab93a69d898cbee2dd",
        "99bc3eeed57ca24538eed38d3ffe42c97cb0c5a58478e16eaadcd3b049cd07e7",
    ),
    "coloring_60_2": (
        "3c7feacf94f3bbf98e4c289de3baa3b6f37fab26163f4c0b4e0927f28f47ed8f",
        "5c67c6805cb44cdba52958dc405017c695588e243b1bd69cb6987c3572ee6de9",
        "f6873136b4ab849f57df8938567ebc033c5eeb83e25b6b2d9055190c89534aa8",
        "04c1dee25a9a53915fe67336156cc3e1ea186ea2b2e3be296448d98124c30116",
        "7bbab9841dac58f0e6d65730c50d1c87dfffbd7fe20314f7372740ec12e2442c",
    ),
    "coloring_30_3": (
        "5fdbaa126552ae1baa5db39e5ef3eb11bc39fe82571dc181622af37ae3f7734f",
        "c66f94d3778599330ee699b064221259a5117dc48e9f28b344c0833f7e597bf0",
        "b3a033ce46c6b0490fcda9d6ff8bbfedb83a5f385511f38151f9ee02688bddf0",
        "812d2c2abe0dae353ab0cffe1837599cfe9edb18ee88676ffd217094d3d0f291",
        "c56769eb0729548fcf99cd6c5a4558bddaec809a0d4bd5fc8e8e305fa0e907d0",
    ),
    "string_1000_3": (
        "179f04f0d696831a6762129899e093220d77bea2d16979b87f4db448ff6bb407",
        "96c3ac3661031b82828315e96d37e1554adbc1923a7bca812f7e9233cdabdc21",
        "4102189fd3a8c73f8da3efd835436cb42b60e66bfe819729c507fd2130bb0f46",
        "09389b20c4af07b9c5b511d4df05a127978c2d6badf321212b518d55bd7f70b4",
        "af2b89e457abae66e2e4e96d4ec0046a3b8b7e15046bf83966555c60a8888b1e",
    ),
    "composite_4_4": (
        "d30513934d98ed22f962ab1c3fa9a43a9f12684864b1c92bf8ff4f0dbf364494",
        "edd3ee5ac2d3ca21b0a7ee33952f125cdc21af53bd9e9f67cb45cef5e309ca40",
        "d7f861bcc952f363f8f3f03230c3a4c3a9e130621891ccd8ec367617ecb5cdcb",
        "e2470cf6313ad9220b407285042b24aea9d7c9263c4135bb218c020127b9a59e",
        "366f697439789e50f06bcb23dfb213873f74c18abf789bf48c97c556a706a78e",
    ),
}


class TestGoldenStreams:
    @pytest.mark.parametrize("name", sorted(PINS))
    def test_pinned_digests(self, name):
        assert tuple(_digest(DRAWS[name](seed)) for seed in range(5)) == PINS[name]
