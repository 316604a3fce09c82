"""Suite orchestration: seeded case grids, reports, and replay.

Five suites probe the library end to end:

* ``guarantees`` — builder outputs are valid and meet their size bounds
  on seeded random colorings.
* ``tables`` — exhaustive extremal values with envelope and
  cross-notion consistency checks; exports the oracle CSV.
* ``twinbound`` — the composite-coloring twin bound and its
  per-decomposition part bounds on seeded specs.
* ``lcs-tail`` — Monte Carlo exceedance rate of LCS over 3*sqrt(r)
  (a statistical probe: it reports, it never fails the run).
* ``blockclaims`` — exhaustive structural checks on the twins of small
  block colorings.

Each grid entry is drawn `samples` times. A master seed fans out to
per-sample seeds by mixing a running sample counter, and every case
expanded from one sample shares its seed, so appending grid entries never
shifts existing ones; reports are bit-reproducible from (config, seed,
version). Failing cases carry seed, parameters, and witness files, and
any case can be re-run alone via ``--replay``.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import json
import os
import time
from dataclasses import asdict, dataclass, field

from ._version import VERSION
from .builder import build_twin_binary, build_twin_general
from .constructions import (
    BlockGraph,
    BlockProfile,
    _uncovered,
    random_coloring,
    random_composite_spec,
    random_permutation_pair,
    twin_block_graph,
    uncovered_blocks,
)
from .core import EMPTY_TWIN, EdgeColoring, TwinPair, twin_to_json, validate_twin, write_coloring
from .oracle import (
    DEFAULT_MAX_ENUMERATIONS,
    BudgetExceededError,
    _run_shards,
    enumerate_twins,
    exact_F,
    exact_F_string,
    exact_F_weak,
    max_string_twin,
    max_twin,
)
from .rng import derive_seed
from .sequences import LetterString, lcs_length, write_permutation, write_string

DEFAULT_SEED = 0x5457494E
ENV_OUT_DIR = "TWIN_OUT_DIR"
BLOCKCLAIMS_MAX_TOTAL = 15

SUITE_NAMES = ("guarantees", "tables", "twinbound", "lcs-tail", "blockclaims")


class ConfigError(ValueError):
    """Invalid suite configuration; `field_name` names the offending field."""

    def __init__(self, field_name: str, message: str):
        super().__init__(f"{field_name}: {message}")
        self.field_name = field_name


def _is_int(value) -> bool:
    """True for an int that is not a bool (JSON true would pass isinstance)."""
    return isinstance(value, int) and not isinstance(value, bool)


# The integer keys of a grid entry and the least value of each, per suite
# and per table kind. Every key listed is required and no other is accepted,
# apart from "kind" in tables and "x" (with an optional "r") in blockclaims.
_GRID_INTS = {"guarantees": {"n": 1, "r": 1}, "twinbound": {"r": 2, "m": 1}, "lcs-tail": {"r": 1}}
_TABLE_INTS = {"coloring": {"n": 1, "r": 1}, "weak": {"n": 1}, "string": {"n": 1, "r": 1}}


def _grid_entry_problem(suite: str, entry) -> str | None:
    """What makes `entry` unusable as a grid entry of `suite`, or None."""
    if not isinstance(entry, dict):
        return "must be a dict of parameters"
    extra = set()
    if suite == "tables":
        if entry.get("kind") not in ("coloring", "weak", "string"):
            return "kind must be 'coloring', 'weak' or 'string'"
        ints, extra = _TABLE_INTS[entry["kind"]], {"kind"}
    elif suite == "blockclaims":
        ints, extra = ({"r": 1} if "r" in entry else {}), {"x"}
    else:
        ints = _GRID_INTS[suite]
    unknown = sorted(set(entry) - set(ints) - extra)
    if unknown:
        return f"unknown key {unknown[0]!r}"
    for key, least in ints.items():
        if key not in entry:
            return f"missing key {key!r}"
        if not _is_int(entry[key]) or entry[key] < least:
            return f"{key} must be an integer >= {least}, got {entry[key]!r}"
    if suite == "twinbound" and entry["r"] % 2:
        return f"r must be even (the composite palette), got {entry['r']}"
    if suite == "blockclaims":
        x, r = entry.get("x"), entry.get("r", 2)
        if not isinstance(x, list) or not x or not all(_is_int(v) and 1 <= v <= r for v in x):
            return f"x must be a non-empty list of integers in [1..{r}], got {x!r}"
    return None


@dataclass
class SuiteConfig:
    suite: str
    grid: list
    samples: int = 1
    seed: int = DEFAULT_SEED
    max_states: int | None = None
    max_enumerations: int = DEFAULT_MAX_ENUMERATIONS
    time_limit: float | None = None
    out_dir: str | None = None
    jobs: int = 1

    def validate(self) -> None:
        if self.suite not in SUITE_NAMES:
            raise ConfigError("suite", f"unknown suite {self.suite!r}")
        if not isinstance(self.grid, list) or not self.grid:
            raise ConfigError("grid", "must be a non-empty list of parameter dicts")
        for index, entry in enumerate(self.grid):
            problem = _grid_entry_problem(self.suite, entry)
            if problem:
                raise ConfigError("grid", f"entry {index} {entry!r}: {problem}")
        if not _is_int(self.samples) or self.samples < 1:
            raise ConfigError("samples", "must be a positive integer")
        if self.samples != 1 and self.suite in ("tables", "blockclaims"):
            raise ConfigError("samples", f"must be 1 for {self.suite}, whose cases are exhaustive")
        if not _is_int(self.seed) or self.seed < 0:
            raise ConfigError("seed", "must be a non-negative integer")
        if self.max_states is not None and (not _is_int(self.max_states) or self.max_states < 1):
            raise ConfigError("max_states", "must be a positive integer")
        if not _is_int(self.max_enumerations) or self.max_enumerations < 1:
            raise ConfigError("max_enumerations", "must be a positive integer")
        if self.time_limit is not None and (
            isinstance(self.time_limit, bool)
            or not isinstance(self.time_limit, (int, float))
            or not self.time_limit > 0  # also false for NaN, which no deadline passes
        ):
            raise ConfigError("time_limit", "must be a positive number")
        if self.out_dir is not None and not isinstance(self.out_dir, str):
            raise ConfigError("out_dir", "must be a directory path")
        if not _is_int(self.jobs) or self.jobs < 1:
            raise ConfigError("jobs", "must be a positive integer")
        if self.time_limit is not None and self.jobs > 1:
            raise ConfigError("time_limit", "is only honored with jobs=1; the worker pool has no deadline")
        if self.max_states is not None and self.suite != "twinbound":
            raise ConfigError("max_states", "is only honored by the twinbound suite")

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "SuiteConfig":
        known = {f for f in cls.__dataclass_fields__}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(sorted(unknown)[0], "unknown configuration field")
        for name in ("suite", "grid"):
            if name not in data:
                raise ConfigError(name, "missing")
        return cls(**data)

    @classmethod
    def from_json_file(cls, path: str) -> "SuiteConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def default_config(suite: str, seed: int = DEFAULT_SEED) -> SuiteConfig:
    """Built-in grids; the defaults match the repository's verification runs."""
    if suite == "guarantees":
        grid = [{"n": 40, "r": 2}, {"n": 50, "r": 2}, {"n": 30, "r": 3}, {"n": 60, "r": 2}]
        return SuiteConfig(suite, grid, samples=500, seed=seed)
    if suite == "tables":
        grid = [{"kind": "coloring", "n": n, "r": 2} for n in range(2, 7)]
        grid += [{"kind": "coloring", "n": 2, "r": 3}]
        grid += [{"kind": "coloring", "n": n, "r": 1} for n in (4, 5)]
        grid += [{"kind": "weak", "n": n} for n in range(2, 9)]
        grid += [{"kind": "string", "n": n, "r": 2} for n in range(2, 13)]
        return SuiteConfig(suite, grid, samples=1, seed=seed)
    if suite == "twinbound":
        return SuiteConfig(suite, [{"r": 4, "m": 4}], samples=50, seed=seed)
    if suite == "lcs-tail":
        return SuiteConfig(suite, [{"r": 100}], samples=200, seed=seed)
    if suite == "blockclaims":
        grid = []
        for m in (1, 2, 3):
            for letters in itertools.product((1, 2), repeat=m):
                if sum(3**letter for letter in letters) <= BLOCKCLAIMS_MAX_TOTAL:
                    grid.append({"r": 2, "x": list(letters)})
        return SuiteConfig(suite, grid, samples=1, seed=seed)
    raise ConfigError("suite", f"unknown suite {suite!r}")


@dataclass
class CaseRecord:
    case_id: str
    index: int
    params: dict
    seed: int
    value: object
    bound: object
    passed: bool | None  # None for probe and resource records
    kind: str  # "assert" | "probe" | "resource"
    detail: str = ""
    witness_file: str = ""


@dataclass
class RunReport:
    suite: str
    version: str
    seed: int
    config: dict
    cases: list[CaseRecord] = field(default_factory=list)

    @property
    def failed(self) -> list[CaseRecord]:
        return [c for c in self.cases if c.kind == "assert" and c.passed is False]

    @property
    def ok(self) -> bool:
        return not self.failed

    def aggregate(self) -> dict:
        total = len(self.cases)
        passed = sum(1 for c in self.cases if c.kind == "assert" and c.passed)
        probes = sum(1 for c in self.cases if c.kind == "probe")
        resources = sum(1 for c in self.cases if c.kind == "resource")
        return {
            "cases": total,
            "passed": passed,
            "failed": len(self.failed),
            "probes": probes,
            "resource_errors": resources,
        }

    def to_json_text(self) -> str:
        payload = {
            "suite": self.suite,
            "version": self.version,
            "seed": self.seed,
            "config": self.config,
            "aggregate": self.aggregate(),
            "cases": [asdict(c) for c in self.cases],
        }
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"

    def to_csv_text(self) -> str:
        fields = SUITE_CSV_FIELDS[self.suite]
        buf = io.StringIO()
        writer = csv.DictWriter(buf, fieldnames=fields, lineterminator="\n")
        writer.writeheader()
        for case in self.cases:
            row = {
                "case_id": case.case_id,
                "seed": case.seed,
                "value": case.value,
                "bound": case.bound,
                "passed": _tristate(case.passed),
                "kind": case.kind,
                "detail": case.detail,
                "witness_file": case.witness_file,
            }
            row.update(case.params)
            writer.writerow({k: row.get(k, "") for k in fields})
        return buf.getvalue()

    def summary_text(self) -> str:
        agg = self.aggregate()
        lines = [
            f"suite {self.suite} (version {self.version}, seed {self.seed})",
            f"  cases: {agg['cases']}  passed: {agg['passed']}  failed: {agg['failed']}"
            f"  probes: {agg['probes']}  resource: {agg['resource_errors']}",
        ]
        if self.suite == "lcs-tail":
            exceed = sum(1 for c in self.cases if c.kind == "probe" and c.value == "exceeded")
            lines.append(f"  exceedances of the LCS threshold: {exceed}")
        for case in self.failed[:10]:
            lines.append(f"  FAIL {case.case_id} params={case.params} detail={case.detail}")
        if len(self.failed) > 10:
            lines.append(f"  ... and {len(self.failed) - 10} more failures")
        return "\n".join(lines)


def _tristate(passed: bool | None) -> str:
    if passed is None:
        return ""
    return "1" if passed else "0"


SUITE_CSV_FIELDS = {
    "guarantees": ["case_id", "builder", "n", "r", "sample", "seed", "value", "bound", "kind", "passed", "detail", "witness_file"],
    "tables": ["case_id", "table", "n", "r", "value", "bound", "kind", "passed", "detail", "witness_file"],
    "twinbound": ["case_id", "r", "m", "sample", "seed", "value", "bound", "kind", "passed", "detail"],
    "lcs-tail": ["case_id", "r", "sample", "seed", "value", "bound", "kind", "detail"],
    "blockclaims": ["case_id", "x", "total", "value", "bound", "kind", "passed", "detail"],
}


# ---------------------------------------------------------------------------
# guarantees
# ---------------------------------------------------------------------------


def _params_guarantees(entry: dict, sample: int) -> list[dict]:
    """One case per builder: `general` always, `binary` too for r = 2."""
    n, r = entry["n"], entry["r"]
    builders = ["general", "binary"] if r == 2 else ["general"]
    return [{"builder": builder, "n": n, "r": r, "sample": sample} for builder in builders]


@functools.lru_cache(maxsize=1)
def _sample_coloring(n: int, r: int, seed: int) -> EdgeColoring:
    """The coloring of one guarantees sample, drawn once for its builder cases.

    For r = 2 the `general` and `binary` cases of a sample share its seed;
    they run back to back, so a one-entry cache serves the second from the
    first. `EdgeColoring` is frozen, so sharing it is safe.
    """
    return random_coloring(n, r, seed)


def _run_guarantees(config: SuiteConfig, case: dict) -> CaseRecord:
    params = case["params"]
    n, r = params["n"], params["r"]
    coloring = _sample_coloring(n, r, case["seed"])
    if params["builder"] == "general":
        twin = build_twin_general(coloring)
        bound = n // (r * r + 1)
    else:
        twin = build_twin_binary(coloring)
        bound = n // 4
    verdict = validate_twin(coloring, twin)
    passed = bool(verdict) and twin.size >= bound
    detail = ""
    witness_file = ""
    if not passed:
        detail = f"size={twin.size} valid={bool(verdict)} reason={verdict.reason}"
        if config.out_dir:
            witness_file = _write_failure_witness(config.out_dir, case, coloring, twin)
    return _record(config, case, twin.size, bound, passed, detail=detail, witness_file=witness_file)


def _write_failure_witness(out_dir: str, case: dict, coloring, twin) -> str:
    rel_dir = os.path.join(out_dir, "witnesses")
    os.makedirs(rel_dir, exist_ok=True)
    base = f"fail_{case['index']:05d}"
    write_coloring(coloring, os.path.join(rel_dir, base + ".coloring"))
    with open(os.path.join(rel_dir, base + ".twin.json"), "w") as fh:
        fh.write(twin_to_json(twin) + "\n")
    return os.path.join("witnesses", base + ".coloring")


# ---------------------------------------------------------------------------
# tables
# ---------------------------------------------------------------------------


def _params_tables(entry: dict, sample: int) -> list[dict]:
    return [{"table": entry["kind"], "n": entry["n"], "r": entry.get("r", "")}]


def _run_tables(config: SuiteConfig, case: dict) -> CaseRecord:
    params = case["params"]
    kind, n = params["table"], params["n"]
    r = params["r"]
    try:
        if kind == "coloring":
            result = exact_F(n, r, max_enumerations=config.max_enumerations)
        elif kind == "weak":
            result = exact_F_weak(n, max_enumerations=config.max_enumerations)
        else:
            result = exact_F_string(n, r, max_enumerations=config.max_enumerations)
    except BudgetExceededError as exc:
        return _resource_record(config, case, str(exc))
    value = result.value
    lo, hi = _table_envelope(kind, n, r)
    passed = lo <= value <= hi
    witness_file = ""
    if config.out_dir:
        witness_file = _write_table_witness(config.out_dir, kind, n, r, result.minimizer)
    detail = "" if passed else f"value {value} outside envelope [{lo},{hi}]"
    bound = f"[{lo},{hi}]"
    return _record(config, case, value, bound, passed, detail=detail, witness_file=witness_file)


def _table_envelope(kind: str, n: int, r) -> tuple[int, int]:
    """Provable bounds for each table row; rows must land inside them."""
    if kind == "coloring":
        if n < 2:
            return 0, 0
        if r == 1:
            return n // 2, n // 2
        if n == 2:
            return 1, 1
        if r == 2:
            return max(1, n // 4), n // 2
        return 1, n // 2
    if kind == "weak":
        if n < 2:
            return 0, 0
        if n <= 3:
            return 1, 1
        return max(1, n // 4), n // 2
    return 0, n // 2  # string


def _write_table_witness(out_dir: str, kind: str, n: int, r, minimizer) -> str:
    rel_dir = os.path.join(out_dir, "witnesses")
    os.makedirs(rel_dir, exist_ok=True)
    suffix = f"_r{r}" if r != "" else ""
    rel = os.path.join("witnesses", f"{kind}_n{n}{suffix}.txt")
    path = os.path.join(out_dir, f"{rel}")
    if kind == "coloring":
        write_coloring(minimizer, path)
    elif kind == "weak":
        write_permutation(minimizer, path)
    else:
        write_string(minimizer, path)
    return rel


def _post_tables(config: SuiteConfig, records: list[CaseRecord]) -> list[CaseRecord]:
    """Cross-row consistency: the coloring minimum never exceeds the weak one."""
    values: dict[tuple[str, int, object], object] = {}
    for rec in records:
        if rec.kind == "assert":
            values[(rec.params["table"], rec.params["n"], rec.params["r"])] = rec.value
    extra = []
    index = len(records)
    for (kind, n, r), value in sorted(
        ((k, v) for k, v in values.items()), key=lambda item: (item[0][1], str(item[0][2]))
    ):
        if kind != "coloring" or r != 2:
            continue
        weak = values.get(("weak", n, ""))
        if weak is None:
            continue
        passed = value <= weak
        case = {"index": index, "seed": config.seed, "params": {"table": "compare", "n": n, "r": 2}}
        detail = "" if passed else f"F({n},2)={value} exceeds weak minimum {weak}"
        value_text = f"{value}<={weak}"
        extra.append(_record(config, case, value_text, "coloring<=weak", passed, detail=detail))
        index += 1
    return extra


# ---------------------------------------------------------------------------
# twinbound
# ---------------------------------------------------------------------------


def _params_twinbound(entry: dict, sample: int) -> list[dict]:
    return [{"r": entry["r"], "m": entry["m"], "sample": sample}]


def _run_twinbound(config: SuiteConfig, case: dict) -> CaseRecord:
    from .constructions import decompose_composite_twin

    params = case["params"]
    r, m = params["r"], params["m"]
    spec = random_composite_spec(r, m, case["seed"])
    coloring = spec.coloring
    try:
        size, _ = max_twin(coloring, max_states=config.max_states)
    except BudgetExceededError as exc:
        return _resource_record(config, case, str(exc))
    fx = max_string_twin(spec.x)[0]
    fy = max_string_twin(spec.y)[0]
    max_lcs = max(
        lcs_length(spec.perms[i], spec.perms[j])
        for i in range(len(spec.perms))
        for j in range(i + 1, len(spec.perms))
    )
    rhs = m + 2 * fy * r + (2 * fx + 1) * (max_lcs + 1)
    problems = []
    if size > rhs:
        problems.append(f"max twin {size} exceeds bound {rhs}")
    y = spec.y.letters
    checked = 0
    for first, second in enumerate_twins(coloring):
        twin = TwinPair(first, second)
        dec = decompose_composite_twin(spec, twin)
        checked += 1
        if len(dec.same_block) > m:
            problems.append(f"{twin}: same-block ranks exceed m")
        for h in dec.same_block:
            if len(dec.intervals[h - 1]) > 1:
                problems.append(f"{twin}: same-block rank {h} holds more than one step")
        if len(dec.same_y) > 2 * fy:
            problems.append(f"{twin}: same-y ranks exceed 2*f_string(y)={2 * fy}")
        if len(dec.rest) > 2 * fx + 1:
            problems.append(f"{twin}: rest ranks exceed 2*f_string(x)+1={2 * fx + 1}")
        for h in dec.rest:
            pa = spec.perms[y[dec.a_blocks[h - 1] - 1] - 1]
            pb = spec.perms[y[dec.b_blocks[h - 1] - 1] - 1]
            if len(dec.intervals[h - 1]) > lcs_length(pa, pb) + 1:
                problems.append(f"{twin}: rank {h} interval exceeds its LCS bound")
        if sum(len(iv) for iv in dec.intervals) != twin.size:
            problems.append(f"{twin}: intervals do not sum to the twin size")
        if len(problems) >= 5:
            break
    passed = not problems
    detail = "" if passed else "; ".join(problems[:5]) + f" (twins checked: {checked})"
    return _record(config, case, size, rhs, passed, detail=detail)


# ---------------------------------------------------------------------------
# lcs-tail
# ---------------------------------------------------------------------------


def _params_lcs_tail(entry: dict, sample: int) -> list[dict]:
    return [{"r": entry["r"], "sample": sample}]


def _run_lcs_tail(config: SuiteConfig, case: dict) -> CaseRecord:
    r = case["params"]["r"]
    p1, p2 = random_permutation_pair(r, case["seed"])
    value = lcs_length(p1, p2)
    exceeded = value * value > 9 * r  # lcs > 3*sqrt(r), exact in integers
    if exceeded:
        return _record(config, case, "exceeded", f"3*sqrt({r})", None, "probe", f"lcs={value}")
    return _record(config, case, value, f"3*sqrt({r})", None, "probe")


# ---------------------------------------------------------------------------
# blockclaims
# ---------------------------------------------------------------------------


def _block_profile(params: dict) -> BlockProfile:
    return BlockProfile(params["r"], LetterString(params["r"], tuple(params["x"])))


def _params_blockclaims(entry: dict, sample: int) -> list[dict]:
    params = {"r": entry.get("r", 2), "x": list(entry["x"])}
    return [{**params, "total": _block_profile(params).total}]


def _run_blockclaims(config: SuiteConfig, case: dict) -> CaseRecord:
    profile = _block_profile(case["params"])
    if profile.total > BLOCKCLAIMS_MAX_TOTAL:
        detail = (f"profile size {profile.total} exceeds the allowlist "
                  f"(L <= {BLOCKCLAIMS_MAX_TOTAL})")
        return _record(config, case, "", BLOCKCLAIMS_MAX_TOTAL, None, "resource", detail)
    count, violations, exceeded = check_block_claims(profile, config.max_enumerations)
    if exceeded:
        detail = f"twin enumeration exceeds the budget ({config.max_enumerations})"
        return _record(config, case, count, config.max_enumerations, None, "resource", detail)
    passed = not violations
    detail = "" if passed else "; ".join(violations[:5])
    return _record(config, case, count, 0, passed, detail=detail)


def check_block_claims(profile: BlockProfile, max_twins: int) -> tuple[int, list[str], bool]:
    """Enumerate every twin of the block coloring and test the four
    structural claims: component shapes, loop parity, weight dominance,
    and covered-path endpoint equality. Returns (count, violations,
    budget_exceeded).

    Every twin is validated once, by `twin_block_graph`, which runs
    `validate_twin` against the profile's coloring; that coloring is built
    once per profile and also drives the enumeration. The claims depend
    only on the twin's block signature (block-edge set, uncovered blocks),
    so they are evaluated once per signature and each twin reports the
    violations of its signature under its own index lists."""
    letters = profile.x.letters
    violations: list[str] = []

    all_blocks = frozenset(range(1, profile.block_count + 1))
    if uncovered_blocks(profile, EMPTY_TWIN) != all_blocks:
        violations.append("empty twin must leave every block uncovered")
    if twin_block_graph(profile, EMPTY_TWIN).component_count != profile.block_count:
        violations.append("empty twin must induce one singleton per block")

    verdicts: dict[tuple[frozenset, frozenset], tuple[str, ...]] = {}
    count = 0
    for first, second in enumerate_twins(profile.coloring):
        count += 1
        if count > max_twins:
            return count, violations, True
        twin = TwinPair(first, second)
        graph = twin_block_graph(profile, twin)
        uncovered = _uncovered(profile, twin)
        key = (graph.edges, uncovered)
        suffixes = verdicts.get(key)
        if suffixes is None:
            suffixes = verdicts[key] = _claim_violations(letters, graph, uncovered)
        for suffix in suffixes:
            _note(violations, f"twin {first}/{second}: {suffix}")
    return count, violations, False


def _claim_violations(
    letters: tuple[int, ...], graph: BlockGraph, uncovered: frozenset[int]
) -> tuple[str, ...]:
    """The four block claims for one signature, as violation messages
    without their twin prefix, in component order."""
    found = []
    for comp in graph.components:
        if comp.kind == "other":
            found.append(f"component {comp.vertices} is not a singleton, loop, or path")
        elif comp.kind == "loop":
            if comp.vertices[0] not in uncovered:
                found.append(f"looped block {comp.vertices[0]} is fully covered (parity)")
        elif comp.kind == "path":
            vs = comp.vertices
            for t in range(len(vs) - 2):
                k1, k2, k3 = vs[t], vs[t + 1], vs[t + 2]
                if letters[k2 - 1] > max(letters[k1 - 1], letters[k3 - 1]):
                    if k2 not in uncovered:
                        found.append(f"dominant middle block {k2} is fully covered")
            if not (set(vs) & uncovered) and letters[vs[0] - 1] != letters[vs[-1] - 1]:
                found.append(f"covered path {vs} has unequal endpoint letters")
    return tuple(found)


def _note(violations: list[str], message: str) -> None:
    if len(violations) < 50:
        violations.append(message)


# ---------------------------------------------------------------------------
# Runner
# ---------------------------------------------------------------------------


# Per suite: the params of each sample's cases, the case runner, and the
# cross-case check run after every case (or None).
_SUITES = {
    "guarantees": (_params_guarantees, _run_guarantees, None),
    "tables": (_params_tables, _run_tables, _post_tables),
    "twinbound": (_params_twinbound, _run_twinbound, None),
    "lcs-tail": (_params_lcs_tail, _run_lcs_tail, None),
    "blockclaims": (_params_blockclaims, _run_blockclaims, None),
}


def _cases(config: SuiteConfig, params_of) -> list[dict]:
    """Every case of the grid, in index order.

    Each grid entry is drawn `config.samples` times. A sample's seed mixes
    the running sample counter `draw` into the master seed, and every case
    that `params_of(entry, sample)` expands the sample into shares it.
    """
    cases = []
    samples = itertools.product(config.grid, range(config.samples))
    for draw, (entry, sample) in enumerate(samples):
        seed = derive_seed(config.seed, draw)
        for params in params_of(entry, sample):
            cases.append({"index": len(cases), "seed": seed, "params": params})
    return cases


def _case_id(suite: str, index: int) -> str:
    return f"{suite}-{index:05d}"


def _record(config: SuiteConfig, case: dict, value, bound, passed: bool | None,
            kind: str = "assert", detail: str = "", witness_file: str = "") -> CaseRecord:
    """The report record of `case`; every suite builds its records here."""
    index = case["index"]
    return CaseRecord(_case_id(config.suite, index), index, case["params"], case["seed"],
                      value, bound, passed, kind, detail, witness_file)


def _resource_record(config: SuiteConfig, case: dict, detail: str) -> CaseRecord:
    """A case stopped by a budget or the time limit: no value, no verdict."""
    return _record(config, case, "", "", None, "resource", detail)


def _pool_run_case(payload):
    suite, config_dict, case = payload
    config = SuiteConfig.from_dict(config_dict)
    return _SUITES[suite][1](config, case)


def run_suite(config: SuiteConfig, only_case: str | None = None) -> RunReport:
    """Run a suite (or a single case of it) and return the report.

    Cases execute on a worker pool when jobs > 1 and are always reduced
    in case-index order, so reports do not depend on completion order.
    A record made by the suite's cross-case check is replayed by running
    every case it may read.
    """
    config.validate()
    params_of, run_case, post = _SUITES[config.suite]
    cases = _cases(config, params_of)
    if only_case is not None:
        selected = [c for c in cases if _case_id(config.suite, c["index"]) == only_case]
        if selected or post is None:
            cases, post = selected, None
    report = RunReport(config.suite, VERSION, config.seed, config.to_dict())
    if config.jobs > 1 and len(cases) > 1:
        payloads = [(config.suite, config.to_dict(), case) for case in cases]
        records = _run_shards(_pool_run_case, payloads, config.jobs)
    else:
        records = []
        started = time.monotonic()
        deadline_hit = False
        for case in cases:
            if (
                config.time_limit is not None
                and time.monotonic() - started > config.time_limit
            ):
                deadline_hit = True
            if deadline_hit:
                records.append(_resource_record(config, case, "wall-clock soft limit reached"))
                continue
            records.append(run_case(config, case))
    records.sort(key=lambda rec: rec.index)
    report.cases.extend(records)
    if post is not None:
        report.cases.extend(post(config, records))
    if only_case is not None:
        report.cases = [c for c in report.cases if c.case_id == only_case]
        if not report.cases:
            raise ConfigError("replay", f"unknown case id {only_case!r}")
    if config.out_dir:
        write_report_files(report, config.out_dir)
    return report


def write_report_files(report: RunReport, out_dir: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    base = report.suite.replace("-", "_")
    with open(os.path.join(out_dir, f"{base}_report.json"), "w") as fh:
        fh.write(report.to_json_text())
    with open(os.path.join(out_dir, f"{base}_cases.csv"), "w") as fh:
        fh.write(report.to_csv_text())
    if report.suite == "tables":
        with open(os.path.join(out_dir, "tables_values.csv"), "w") as fh:
            fh.write(tables_values_csv(report))


def tables_values_csv(report: RunReport) -> str:
    """The oracle export format: kind,n,r,value,witness_file."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "n", "r", "value", "witness_file"])
    for case in report.cases:
        if case.kind != "assert" or case.params.get("table") == "compare":
            continue
        writer.writerow(
            [case.params["table"], case.params["n"], case.params["r"], case.value, case.witness_file]
        )
    return buf.getvalue()


def replay_case(report_path: str, case_id: str) -> CaseRecord:
    """Re-run one case from a written report, in isolation."""
    with open(report_path) as fh:
        payload = json.load(fh)
    config = SuiteConfig.from_dict(payload["config"])
    config.out_dir = None
    report = run_suite(config, only_case=case_id)
    return report.cases[0]
