"""The traced layers of `twins` and the per-layer metrics taken from them.

Layers are the package modules `rng`, `core`, `builder`, `oracle`,
`constructions` and `harness`. Each public name below gets a span per
call (per `next` for the generator `enumerate_twins`). Work counts come
from hooks on the same calls; a hook runs inside the span of the call it
observes, so it adds only a few attribute reads to that call's time.
"""

from __future__ import annotations

import os

TRACED = [
    "twins.constructions.random_coloring",
    "twins.core.EdgeColoring",
    "twins.builder.build_twin_general",
    "twins.builder.build_twin_binary",
    "twins.core.validate_twin",
    "twins.oracle.enumerate_twins",
    "twins.constructions.twin_block_graph",
    "twins.constructions.uncovered_blocks",
    "twins.harness.check_block_claims",
    "twins.oracle.exact_F",
    "twins.oracle.exact_F_weak",
    "twins.oracle.exact_F_string",
    "twins.oracle.max_string_twin",
    "twins.oracle.max_twin",
    "twins.harness.run_suite",
    "twins.harness.write_report_files",
]

SPANS = [target.partition(".")[2] for target in TRACED]
CALLS = [
    "core.validate_twin",
    "constructions.twin_block_graph",
    "constructions.uncovered_blocks",
    "oracle.max_string_twin",
    "oracle.max_twin",
]
COUNTS = [
    "rng.draws",
    "oracle.enumerate_twins.twins",
    "blockclaims.signatures",
    "oracle.exact_F.enumerated",
    "oracle.exact_F_weak.enumerated",
    "oracle.exact_F_string.enumerated",
    "harness.write_report_files.bytes",
]


class LayerCounts:
    """Work counts of one traced pass, filled in by call hooks."""

    def __init__(self):
        self.values = dict.fromkeys(COUNTS, 0)
        self._last_graph = (None, None)
        # (profile letters, block-edge set, uncovered blocks) per checked twin.
        self._signatures: list[tuple] = []

    def hooks(self) -> dict:
        return {
            "constructions.random_coloring": self._random_coloring,
            "oracle.enumerate_twins": self._twin,
            "constructions.twin_block_graph": self._block_graph,
            "constructions.uncovered_blocks": self._uncovered,
            "oracle.exact_F": self._enumerated("oracle.exact_F.enumerated"),
            "oracle.exact_F_weak": self._enumerated("oracle.exact_F_weak.enumerated"),
            "oracle.exact_F_string": self._enumerated("oracle.exact_F_string.enumerated"),
            "harness.write_report_files": self._report_bytes,
        }

    def _random_coloring(self, args, kwargs, coloring) -> None:
        # One uniform draw per edge; rejections are too rare to count.
        self.values["rng.draws"] += len(coloring.colors)

    def _twin(self, args, kwargs, twin) -> None:
        self.values["oracle.enumerate_twins.twins"] += 1

    def _block_graph(self, args, kwargs, graph) -> None:
        self._last_graph = (args[1], graph.edges)

    def _uncovered(self, args, kwargs, uncovered) -> None:
        profile, twin = args
        last_twin, edges = self._last_graph
        if twin is last_twin:
            self._signatures.append((profile.x.letters, edges, uncovered))

    def _enumerated(self, key: str):
        def hook(args, kwargs, result) -> None:
            self.values[key] += result.enumerated

        return hook

    def _report_bytes(self, args, kwargs, result) -> None:
        out_dir = args[1] if len(args) > 1 else kwargs["out_dir"]
        with os.scandir(out_dir) as entries:
            self.values["harness.write_report_files.bytes"] += sum(
                e.stat().st_size for e in entries if e.is_file()
            )

    def finish(self) -> dict[str, int]:
        self.values["blockclaims.signatures"] = len(set(self._signatures))
        self._signatures.clear()
        return dict(self.values)


def pass_metrics(summary: dict[str, tuple[int, float]], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced pass: self times, call counts, work counts."""
    metrics: dict[str, float] = {}
    for span in SPANS:
        metrics[f"{span}.self_s"] = summary.get(span, (0, 0.0))[1]
    for span in CALLS:
        metrics[f"{span}.calls"] = summary.get(span, (0, 0.0))[0]
    metrics.update(counts)
    twin_count = counts["oracle.enumerate_twins.twins"]
    metrics["blockclaims.signature_ratio"] = counts["blockclaims.signatures"] / twin_count if twin_count else 0.0
    return metrics

