"""Scenario spec parsing: TOML loading, validation, round-tripping."""

import pytest

from repro.scenarios.spec import (
    ScenarioSpec,
    ScenarioSpecError,
    declared_scenarios,
    load_spec,
    resolve_spec,
)


def minimal_raw(**overrides) -> dict:
    raw = {
        "name": "t",
        "world": {"sites": 400, "seed": 3},
        "axes": [
            {
                "name": "vantage",
                "values": [
                    {"name": "eu", "vantage": "eu"},
                    {"name": "us", "vantage": "us"},
                ],
            }
        ],
        "baseline": {"vantage": "eu"},
    }
    raw.update(overrides)
    return raw


class TestFromDict:
    def test_minimal_spec_parses(self):
        spec = ScenarioSpec.from_dict(minimal_raw())
        assert spec.name == "t"
        assert spec.world_dict() == {"sites": 400, "seed": 3}
        assert spec.axis("vantage").value_names == ("eu", "us")
        assert spec.baseline == (("vantage", "eu"),)

    def test_missing_name_rejected(self):
        with pytest.raises(ScenarioSpecError, match="name"):
            ScenarioSpec.from_dict({"world": {}})

    def test_unknown_section_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown section"):
            ScenarioSpec.from_dict(minimal_raw(surprise={}))

    def test_unknown_world_field_rejected(self):
        with pytest.raises(ScenarioSpecError, match="world.not_a_field"):
            ScenarioSpec.from_dict(minimal_raw(world={"not_a_field": 1}))

    def test_unknown_vantage_rejected(self):
        raw = minimal_raw()
        raw["axes"][0]["values"][0]["vantage"] = "mars"
        with pytest.raises(ScenarioSpecError, match="vantage"):
            ScenarioSpec.from_dict(raw)

    def test_bad_allowlist_mode_rejected(self):
        raw = minimal_raw()
        raw["axes"][0]["values"][0]["allowlist"] = "pristine"
        with pytest.raises(ScenarioSpecError, match="allowlist"):
            ScenarioSpec.from_dict(raw)

    def test_bad_snapshot_date_rejected(self):
        raw = minimal_raw()
        raw["axes"][0]["values"][0]["snapshot"] = "March 2024"
        with pytest.raises(ScenarioSpecError, match="ISO date"):
            ScenarioSpec.from_dict(raw)

    def test_duplicate_axis_rejected(self):
        raw = minimal_raw()
        raw["axes"].append(raw["axes"][0])
        with pytest.raises(ScenarioSpecError, match="duplicate axis"):
            ScenarioSpec.from_dict(raw)

    def test_duplicate_value_rejected(self):
        raw = minimal_raw()
        raw["axes"][0]["values"].append({"name": "eu"})
        with pytest.raises(ScenarioSpecError, match="duplicate value"):
            ScenarioSpec.from_dict(raw)

    def test_baseline_unknown_axis_rejected(self):
        with pytest.raises(ScenarioSpecError, match="unknown axis"):
            ScenarioSpec.from_dict(minimal_raw(baseline={"nope": "eu"}))

    def test_baseline_unknown_value_rejected(self):
        with pytest.raises(ScenarioSpecError, match="no value"):
            ScenarioSpec.from_dict(minimal_raw(baseline={"vantage": "jp"}))

    def test_assertion_unknown_metric_rejected(self):
        raw = minimal_raw(
            assertions=[
                {"kind": "monotonic", "metric": "nope", "axis": "vantage"}
            ]
        )
        with pytest.raises(ScenarioSpecError, match="unknown metric"):
            ScenarioSpec.from_dict(raw)

    def test_assertion_bad_direction_rejected(self):
        raw = minimal_raw(
            assertions=[
                {
                    "kind": "monotonic",
                    "metric": "banner_rate",
                    "axis": "vantage",
                    "direction": "sideways",
                }
            ]
        )
        with pytest.raises(ScenarioSpecError, match="direction"):
            ScenarioSpec.from_dict(raw)

    def test_bound_without_bounds_rejected(self):
        raw = minimal_raw(
            assertions=[
                {
                    "kind": "bound",
                    "metric": "banner_rate",
                    "where": {"vantage": "eu"},
                }
            ]
        )
        with pytest.raises(ScenarioSpecError, match="'min', 'max' or 'equals'"):
            ScenarioSpec.from_dict(raw)

    def test_with_world_overrides(self):
        spec = ScenarioSpec.from_dict(minimal_raw())
        smaller = spec.with_world_overrides({"sites": 100})
        assert smaller.world_dict() == {"sites": 100, "seed": 3}
        assert spec.world_dict()["sites"] == 400  # original untouched
        with pytest.raises(ScenarioSpecError, match="unknown WorldConfig"):
            spec.with_world_overrides({"nope": 1})


class TestDeclaredScenarios:
    def test_expected_specs_are_declared(self):
        declared = declared_scenarios()
        for name in (
            "ci_smoke",
            "vantage",
            "longitudinal",
            "ablation_allowlist",
            "ablation_consent",
            "ablation_context",
        ):
            assert name in declared

    @pytest.mark.parametrize("name", declared_scenarios())
    def test_every_declared_spec_round_trips(self, name):
        spec = resolve_spec(name)
        rebuilt = ScenarioSpec.from_dict(spec.to_dict())
        assert rebuilt == spec
        assert rebuilt.digest() == spec.digest()

    def test_resolve_by_path(self, tmp_path):
        path = tmp_path / "mine.toml"
        path.write_text('name = "mine"\n[world]\nsites = 200\n')
        assert resolve_spec(str(path)).name == "mine"

    def test_resolve_unknown_name_errors(self):
        with pytest.raises(ScenarioSpecError, match="declared"):
            resolve_spec("definitely_not_a_scenario")


class TestLoadSpec:
    def test_load_spec_from_file(self, tmp_path):
        path = tmp_path / "s.toml"
        path.write_text('name = "s"\n[world]\nsites = 300\nseed = 2\n')
        spec = load_spec(path)
        assert spec.world_dict() == {"sites": 300, "seed": 2}

    def test_malformed_toml_names_the_file(self, tmp_path):
        path = tmp_path / "broken.toml"
        path.write_text('name = "s"\n[world\nsites = 300\n')
        with pytest.raises(ScenarioSpecError, match="broken.toml"):
            load_spec(path)

    def test_non_utf8_file_names_the_file(self, tmp_path):
        path = tmp_path / "binary.toml"
        path.write_bytes(b'name = "\xff"\n')
        with pytest.raises(ScenarioSpecError, match="binary.toml"):
            load_spec(path)
