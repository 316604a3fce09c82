import hashlib
import json
import runpy
import sys
from pathlib import Path

import pytest

from twins.cli import main
from twins.harness import (
    BLOCKCLAIMS_MAX_TOTAL,
    ConfigError,
    SuiteConfig,
    default_config,
    replay_case,
    run_suite,
    tables_values_csv,
)


def tiny_config(suite, **overrides):
    base = {
        "guarantees": SuiteConfig("guarantees", [{"n": 20, "r": 2}], samples=5, seed=7),
        "tables": SuiteConfig(
            "tables",
            [
                {"kind": "coloring", "n": 4, "r": 2},
                {"kind": "weak", "n": 4},
                {"kind": "string", "n": 6, "r": 2},
            ],
            seed=7,
        ),
        "twinbound": SuiteConfig("twinbound", [{"r": 4, "m": 3}], samples=4, seed=7),
        "lcs-tail": SuiteConfig("lcs-tail", [{"r": 25}], samples=10, seed=7),
        "blockclaims": SuiteConfig("blockclaims", [{"r": 2, "x": [1, 1]}], seed=7),
    }[suite]
    for key, value in overrides.items():
        setattr(base, key, value)
    return base


class TestConfig:
    def test_defaults_validate(self):
        for suite in ("guarantees", "tables", "twinbound", "lcs-tail", "blockclaims"):
            default_config(suite).validate()

    def test_zero_samples_rejected(self):
        config = tiny_config("guarantees", samples=0)
        with pytest.raises(ConfigError) as err:
            config.validate()
        assert err.value.field_name == "samples"

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError) as err:
            SuiteConfig("frobnicate", [{}]).validate()
        assert err.value.field_name == "suite"

    def test_unknown_field_rejected(self):
        with pytest.raises(ConfigError):
            SuiteConfig.from_dict({"suite": "tables", "grid": [], "typo": 1})

    def test_time_limit_with_pool_rejected(self):
        config = tiny_config("guarantees", time_limit=5.0, jobs=2)
        with pytest.raises(ConfigError) as err:
            run_suite(config)
        assert err.value.field_name == "time_limit"

    @pytest.mark.parametrize("suite", ["guarantees", "tables", "lcs-tail", "blockclaims"])
    def test_max_states_rejected_where_ignored(self, suite):
        config = tiny_config(suite, max_states=10)
        with pytest.raises(ConfigError) as err:
            run_suite(config)
        assert err.value.field_name == "max_states"

    @pytest.mark.parametrize("suite", ["tables", "blockclaims"])
    def test_samples_rejected_where_exhaustive(self, suite):
        config = tiny_config(suite, samples=3)
        with pytest.raises(ConfigError) as err:
            run_suite(config)
        assert err.value.field_name == "samples"

    def test_json_file_roundtrip(self, tmp_path):
        config = tiny_config("twinbound")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        assert SuiteConfig.from_json_file(path) == config


class TestReports:
    def test_bit_reproducible(self):
        config = tiny_config("twinbound")
        first = run_suite(config)
        second = run_suite(config)
        assert first.to_json_text() == second.to_json_text()
        assert first.to_csv_text() == second.to_csv_text()

    def test_pool_matches_serial(self):
        serial = run_suite(tiny_config("twinbound"))
        pooled = run_suite(tiny_config("twinbound", jobs=2))
        serial_cfg = json.loads(serial.to_json_text())
        pooled_cfg = json.loads(pooled.to_json_text())
        serial_cfg["config"].pop("jobs")
        pooled_cfg["config"].pop("jobs")
        assert serial_cfg == pooled_cfg

    def test_files_written(self, tmp_path):
        config = tiny_config("tables", out_dir=str(tmp_path))
        report = run_suite(config)
        assert report.ok
        assert (tmp_path / "tables_report.json").exists()
        assert (tmp_path / "tables_cases.csv").exists()
        values = (tmp_path / "tables_values.csv").read_text().splitlines()
        assert values[0] == "kind,n,r,value,witness_file"
        assert any(line.startswith("coloring,4,2,1,") for line in values)
        witness = [l for l in values if l.startswith("coloring,4,2")][0].split(",")[-1]
        assert (tmp_path / witness).exists()

    def test_tables_compare_records(self):
        report = run_suite(tiny_config("tables"))
        compares = [c for c in report.cases if c.params.get("table") == "compare"]
        assert len(compares) == 1
        assert compares[0].passed

    def test_tables_budget_resource_record(self):
        config = SuiteConfig("tables", [{"kind": "coloring", "n": 8, "r": 2}], seed=7)
        report = run_suite(config)
        case = report.cases[0]
        assert case.kind == "resource"
        assert str(2**28) in case.detail
        assert report.ok

    def test_time_limit_produces_resource_records(self):
        config = tiny_config("guarantees", time_limit=1e-9)
        report = run_suite(config)
        assert any(c.kind == "resource" for c in report.cases)
        assert report.ok  # resource records are not assertion failures

    def test_lcs_tail_probe_only(self):
        report = run_suite(tiny_config("lcs-tail"))
        assert all(c.kind == "probe" for c in report.cases)
        assert report.ok

    def test_lcs_tail_trivial_palette(self):
        # single-element permutations always have LCS 1 <= 3*sqrt(1)
        report = run_suite(SuiteConfig("lcs-tail", [{"r": 1}], samples=3, seed=7))
        assert [c.value for c in report.cases] == [1, 1, 1]


# Multi-entry configs and the sha256 of their report JSON. A sample's seed
# mixes a counter that runs across grid entries, so a counter reset per
# entry, or per case instead of per sample, changes these digests. The
# guarantees grid interleaves one-case (r = 3) and two-case (r = 2) samples.
FAN_OUT_PINS = {
    "guarantees": (
        SuiteConfig(
            "guarantees",
            [{"n": 12, "r": 3}, {"n": 14, "r": 2}, {"n": 10, "r": 3}],
            samples=2,
            seed=7,
        ),
        "82807a5101e3b838a852632c85d48b63efcd535519e0f04d25083990128f318e",
    ),
    "tables": (
        SuiteConfig(
            "tables",
            [
                {"kind": "coloring", "n": 4, "r": 2},
                {"kind": "weak", "n": 4},
                {"kind": "string", "n": 5, "r": 2},
            ],
            seed=7,
        ),
        "b20738b0bf3bb07d83481875785f1afa455234fe27bc304d1f25dd254b49a5a5",
    ),
    "twinbound": (
        SuiteConfig("twinbound", [{"r": 2, "m": 2}, {"r": 4, "m": 2}], samples=2, seed=7),
        "78bb45bf7f19d5a3c23bae60aba76c640b7a1b4587a0f04a24eab52b57ada605",
    ),
    "lcs-tail": (
        SuiteConfig("lcs-tail", [{"r": 9}, {"r": 16}], samples=3, seed=7),
        "dbe2911af3647bfce92dfcbabe9c3d156d814f79c984b811d26de9b5861c7474",
    ),
    "blockclaims": (
        SuiteConfig(
            "blockclaims", [{"x": [1]}, {"r": 2, "x": [2, 2]}, {"r": 2, "x": [1, 2]}], seed=7
        ),
        "24a336a333e7dabd3cc0683452f50e3f99528a931c4cd3477f37723d6927fcb8",
    ),
}


class TestSeedFanOut:
    @pytest.mark.parametrize("suite", sorted(FAN_OUT_PINS))
    def test_report_pinned(self, suite):
        config, digest = FAN_OUT_PINS[suite]
        report = run_suite(config)
        assert hashlib.sha256(report.to_json_text().encode()).hexdigest() == digest

    def test_sample_cases_share_seed(self):
        config = FAN_OUT_PINS["guarantees"][0]
        report = run_suite(config)
        seeds = {}
        for case in report.cases:
            key = (case.params["n"], case.params["r"], case.params["sample"])
            seeds.setdefault(key, set()).add(case.seed)
        assert len(seeds) == 6 and all(len(s) == 1 for s in seeds.values())
        assert len({s for group in seeds.values() for s in group}) == 6


class TestGuaranteesSuite:
    def test_binary_case_replays_alone(self, tmp_path):
        report = run_suite(tiny_config("guarantees", out_dir=str(tmp_path)))
        binary = [c for c in report.cases if c.params["builder"] == "binary"]
        assert len(binary) == 5
        # The first sample's coloring is no longer the last one drawn.
        target = binary[0]
        replayed = replay_case(str(tmp_path / "guarantees_report.json"), target.case_id)
        assert replayed == target

    def test_pool_matches_serial(self):
        serial = json.loads(run_suite(tiny_config("guarantees")).to_json_text())
        pooled = json.loads(run_suite(tiny_config("guarantees", jobs=2)).to_json_text())
        serial["config"].pop("jobs")
        pooled["config"].pop("jobs")
        assert serial == pooled


class TestBlockclaimsSuite:
    def test_small_profile_passes(self):
        report = run_suite(tiny_config("blockclaims"))
        assert report.ok
        assert report.cases[0].value == 43  # twins of the (1,1) profile

    def test_oversized_profile_resource_error(self):
        report = run_suite(SuiteConfig("blockclaims", [{"r": 2, "x": [2, 2]}], seed=7))
        case = report.cases[0]
        assert case.kind == "resource"
        assert str(BLOCKCLAIMS_MAX_TOTAL) in case.detail
        assert report.ok

    def test_twin_budget_resource_error(self):
        config = SuiteConfig(
            "blockclaims", [{"r": 2, "x": [2]}], seed=7, max_enumerations=10
        )
        report = run_suite(config)
        assert report.cases[0].kind == "resource"


class TestTwinboundSuite:
    def test_odd_palette_surfaced(self):
        config = SuiteConfig("twinbound", [{"r": 3, "m": 3}], samples=2, seed=7)
        with pytest.raises(ConfigError) as err:
            run_suite(config)
        assert err.value.field_name == "grid"

    def test_single_block_degenerate(self):
        config = SuiteConfig("twinbound", [{"r": 4, "m": 1}], samples=3, seed=7)
        report = run_suite(config)
        assert report.ok
        for case in report.cases:
            assert case.value <= case.bound

    def test_state_cap_gives_resource_records(self):
        report = run_suite(tiny_config("twinbound", max_states=1))
        assert [c.kind for c in report.cases] == ["resource"] * 4
        assert all("search states" in c.detail for c in report.cases)
        assert report.ok

    def test_ample_state_cap_keeps_values(self):
        capped = run_suite(tiny_config("twinbound", max_states=10**6))
        uncapped = run_suite(tiny_config("twinbound"))
        assert [c.kind for c in capped.cases] == ["assert"] * 4
        assert [c.value for c in capped.cases] == [c.value for c in uncapped.cases]


class TestReplay:
    def test_replay_single_case(self, tmp_path):
        config = tiny_config("twinbound", out_dir=str(tmp_path))
        report = run_suite(config)
        target = report.cases[2]
        replayed = replay_case(str(tmp_path / "twinbound_report.json"), target.case_id)
        assert replayed.case_id == target.case_id
        assert replayed.value == target.value
        assert replayed.passed == target.passed

    def test_inline_replay_filter(self):
        config = tiny_config("twinbound")
        report = run_suite(config, only_case="twinbound-00001")
        assert len(report.cases) == 1
        assert report.cases[0].case_id == "twinbound-00001"

    def test_unknown_case_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(tiny_config("twinbound"), only_case="twinbound-09999")

    def test_replay_tables_compare_record(self, tmp_path):
        config = SuiteConfig(
            "tables", [{"kind": "coloring", "n": 4, "r": 2}, {"kind": "weak", "n": 4}], seed=7
        )
        config.out_dir = str(tmp_path)
        report = run_suite(config)
        target = report.cases[2]
        assert target.case_id == "tables-00002" and target.params["table"] == "compare"
        replayed = replay_case(str(tmp_path / "tables_report.json"), "tables-00002")
        assert replayed == target

    def test_replay_tables_row_skips_compare(self):
        report = run_suite(tiny_config("tables"), only_case="tables-00001")
        assert [c.case_id for c in report.cases] == ["tables-00001"]

    def test_unknown_tables_case_rejected(self):
        with pytest.raises(ConfigError):
            run_suite(tiny_config("tables"), only_case="tables-00009")


class TestCli:
    def test_suite_run_and_exit_code(self, tmp_path, capsys):
        config = tiny_config("twinbound", out_dir=None)
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config.to_dict()))
        code = main(["twinbound", "--config", str(path), "--out", str(tmp_path / "out")])
        assert code == 0
        out = capsys.readouterr().out
        assert "suite twinbound" in out
        assert (tmp_path / "out" / "twinbound_report.json").exists()

    def test_cli_replay(self, tmp_path, capsys):
        config = tiny_config("lcs-tail", out_dir=str(tmp_path))
        run_suite(config)
        code = main(
            [
                "replay",
                "--report",
                str(tmp_path / "lcs_tail_report.json"),
                "--case",
                "lcs-tail-00003",
            ]
        )
        assert code == 0
        assert "lcs-tail-00003" in capsys.readouterr().out

    def test_cli_replay_tables_compare(self, tmp_path, capsys):
        run_suite(tiny_config("tables", out_dir=str(tmp_path)))
        report = str(tmp_path / "tables_report.json")
        code = main(["replay", "--report", report, "--case", "tables-00003"])
        assert code == 0
        assert "tables-00003: PASS value=1<=1" in capsys.readouterr().out

    def test_inline_replay_flag(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config("twinbound").to_dict()))
        code = main(["twinbound", "--config", str(path), "--replay", "twinbound-00002"])
        assert code == 0
        assert "cases: 1" in capsys.readouterr().out

    def test_config_error_exit_code(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"suite": "tables", "grid": []}))
        assert main(["tables", "--config", str(path)]) == 2

    def test_missing_grid_exit_code(self, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": "tables"}))
        assert main(["tables", "--config", str(path)]) == 2
        assert "configuration error - grid: missing" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "name,value",
        [
            ("samples", 1.5),
            ("seed", True),
            ("max_states", "10"),
            ("max_enumerations", "100"),
            ("time_limit", "5"),
            ("time_limit", float("nan")),
            ("jobs", True),
            ("out_dir", 5),
        ],
    )
    def test_mistyped_field_exit_code(self, tmp_path, capsys, name, value):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({**tiny_config("twinbound").to_dict(), name: value}))
        assert main(["twinbound", "--config", str(path)]) == 2
        assert f"configuration error - {name}: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "suite,entry,problem",
        [
            ("guarantees", {"n": 40.7, "r": 2}, "n must be an integer >= 1"),
            ("guarantees", {"n": True, "r": 2}, "n must be an integer >= 1"),
            ("guarantees", {"n": "12", "r": 2}, "n must be an integer >= 1"),
            ("guarantees", {"n": 12, "r": 2, "samples": 9}, "unknown key 'samples'"),
            ("guarantees", {"n": 12, "r": 0}, "r must be an integer >= 1"),
            ("tables", {"kind": "string", "n": 3}, "missing key 'r'"),
            ("tables", {"kind": "coloring", "n": 0, "r": 2}, "n must be an integer >= 1"),
            ("tables", {"kind": "weak", "n": 5, "r": 3}, "unknown key 'r'"),
            ("blockclaims", {"x": []}, "x must be a non-empty list"),
            ("blockclaims", {"r": 2, "x": [3]}, "x must be a non-empty list of integers in [1..2]"),
        ],
    )
    def test_bad_grid_entry_exit_code(self, tmp_path, capsys, suite, entry, problem):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"suite": suite, "grid": [entry]}))
        assert main([suite, "--config", str(path)]) == 2
        err = capsys.readouterr().err
        assert f"configuration error - grid: entry 0 {entry!r}: {problem}" in err

    # None leaves no file at the path; "\udcff" writes the byte 0xff, which is not UTF-8.
    @pytest.mark.parametrize(
        "text", ["{not json", "5", "null", '["suite"]', "\udcff", None], ids=repr
    )
    def test_unusable_config_file_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "cfg.json"
        if text is not None:
            path.write_bytes(text.encode("utf-8", "surrogateescape"))
        assert main(["tables", "--config", str(path)]) == 2
        assert "configuration error - config: " in capsys.readouterr().err

    @pytest.mark.parametrize(
        "text", ["{not json", "5", "null", "[]", '{"suite": "tables"}', '{"config": 5}', None],
        ids=repr,
    )
    def test_unusable_report_file_exit_code(self, tmp_path, capsys, text):
        path = tmp_path / "tables_report.json"
        if text is not None:
            path.write_text(text)
        assert main(["replay", "--report", str(path), "--case", "tables-00000"]) == 2
        assert "configuration error - " in capsys.readouterr().err

    def test_suite_mismatch_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(tiny_config("twinbound").to_dict()))
        assert main(["tables", "--config", str(path)]) == 2

    def test_env_var_default_out_dir(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("TWIN_OUT_DIR", str(tmp_path / "envout"))
        code = main(["blockclaims", "--config", _write_cfg(tmp_path)])
        assert code == 0
        assert (tmp_path / "envout" / "blockclaims_report.json").exists()


def _write_cfg(tmp_path):
    path = tmp_path / "bc.json"
    path.write_text(json.dumps(tiny_config("blockclaims").to_dict()))
    return str(path)


def test_run_all_suites_config_error_exit_code(monkeypatch, capsys):
    script = runpy.run_path(str(Path(__file__).parents[1] / "scripts" / "run_all_suites.py"))
    monkeypatch.setattr(sys, "argv", ["run_all_suites.py", "--jobs", "0"])
    assert script["main"]() == 2
    assert "configuration error - jobs: " in capsys.readouterr().err
