"""Declarative scenario specs: the axes a sweep varies and how.

A :class:`ScenarioSpec` names the *world parameters* an experiment
sweeps — consent vantage, allow-list health, enrolment-timeline snapshot
dates, CMP leak scaling, script-origin attribution, seeds, and any raw
:class:`~repro.web.config.WorldConfig` field — as named **axes** whose
values carry parameter overrides.  The matrix engine
(:mod:`repro.scenarios.matrix`) expands the cross product into cells;
the sweep engine (:mod:`repro.scenarios.engine`) runs one full campaign
+ analysis pipeline per cell.

Specs are plain dicts, usually loaded from TOML files under
``scenarios/`` and parsed with the stdlib ``tomllib``.
"""

from __future__ import annotations

import dataclasses
import json
import re
import tomllib
from dataclasses import dataclass
from pathlib import Path

from repro.util.text import stable_digest
from repro.web.config import WorldConfig
from repro.web.vantage import VANTAGES


#: Cell parameters with dedicated semantics (everything else lives under
#: the ``world.<field>`` namespace of raw WorldConfig overrides).
PARAM_KEYS = frozenset(
    {"vantage", "allowlist", "snapshot", "cmp_leak_scale", "script_origin", "world"}
)

ALLOWLIST_MODES = ("corrupted", "healthy")
SCRIPT_ORIGIN_MODES = ("embedder", "script-url")

#: ``world.*`` keys accepted on top of the real WorldConfig field names.
_WORLD_ALIASES = frozenset({"sites"})
_WORLD_FIELDS = frozenset(f.name for f in dataclasses.fields(WorldConfig))
_DATE_RE = re.compile(r"^\d{4}-\d{2}-\d{2}$")


class ScenarioSpecError(ValueError):
    """A scenario spec is malformed; the message names the defect."""


def _require(condition: bool, message: str) -> None:
    if not condition:
        raise ScenarioSpecError(message)


def _validate_world_overrides(overrides: dict, context: str) -> dict:
    _require(isinstance(overrides, dict), f"{context}: 'world' must be a table")
    for key, value in overrides.items():
        _require(
            key in _WORLD_FIELDS or key in _WORLD_ALIASES,
            f"{context}: unknown WorldConfig field 'world.{key}'",
        )
        _require(
            isinstance(value, (int, float, bool)),
            f"{context}: 'world.{key}' must be a number, got {value!r}",
        )
    return dict(overrides)


def _validate_params(params: dict, context: str) -> dict:
    """Check one parameter bundle (axis value or campaign base)."""
    resolved: dict = {}
    for key, value in params.items():
        if key == "world":
            resolved[key] = _validate_world_overrides(value, context)
            continue
        _require(
            key in PARAM_KEYS or key == "limit",
            f"{context}: unknown parameter {key!r} (known: "
            f"{', '.join(sorted(PARAM_KEYS | {'limit'}))})",
        )
        if key == "vantage":
            _require(
                value in VANTAGES,
                f"{context}: unknown vantage {value!r}; known: {sorted(VANTAGES)}",
            )
        elif key == "allowlist":
            _require(
                value in ALLOWLIST_MODES,
                f"{context}: allowlist must be one of {ALLOWLIST_MODES}, "
                f"got {value!r}",
            )
        elif key == "snapshot":
            _require(
                isinstance(value, str) and _DATE_RE.match(value) is not None,
                f"{context}: snapshot must be an ISO date (YYYY-MM-DD), "
                f"got {value!r}",
            )
        elif key == "cmp_leak_scale":
            _require(
                isinstance(value, (int, float)) and value >= 0,
                f"{context}: cmp_leak_scale must be a non-negative number",
            )
        elif key == "script_origin":
            _require(
                value in SCRIPT_ORIGIN_MODES,
                f"{context}: script_origin must be one of "
                f"{SCRIPT_ORIGIN_MODES}, got {value!r}",
            )
        elif key == "limit":
            _require(
                isinstance(value, int) and value > 0,
                f"{context}: limit must be a positive integer",
            )
        resolved[key] = value
    return resolved


@dataclass(frozen=True)
class AxisValue:
    """One point on an axis: a name plus the overrides it applies."""

    name: str
    params: tuple[tuple[str, object], ...] = ()

    def params_dict(self) -> dict:
        return {key: value for key, value in self.params}


@dataclass(frozen=True)
class Axis:
    """One swept dimension, e.g. ``vantage`` over eu/us."""

    name: str
    values: tuple[AxisValue, ...]

    def value(self, name: str) -> AxisValue:
        for candidate in self.values:
            if candidate.name == name:
                return candidate
        raise KeyError(f"axis {self.name!r} has no value {name!r}")

    @property
    def value_names(self) -> tuple[str, ...]:
        return tuple(value.name for value in self.values)


@dataclass(frozen=True)
class Assertion:
    """One cross-cell check the sweep report evaluates.

    ``monotonic`` assertions walk one axis in a declared value order —
    for every combination of the other axes — and require the metric to
    move in ``direction``; ``ratio`` strengthens the non-strict
    directions (e.g. ``ratio = 0.85`` with ``non-increasing`` demands at
    least a 15% drop per step).  ``bound`` assertions pin a metric's
    range on the cells matching ``where``.
    """

    kind: str  # "monotonic" | "bound"
    metric: str
    # monotonic fields
    axis: str = ""
    order: tuple[str, ...] = ()
    direction: str = "non-increasing"
    ratio: float = 1.0
    endpoints_only: bool = False
    # bound fields
    where: tuple[tuple[str, str], ...] = ()
    min_value: float | None = None
    max_value: float | None = None
    equals: float | None = None

    def describe(self) -> str:
        if self.kind == "monotonic":
            chain = " -> ".join(self.order)
            extra = f" (ratio {self.ratio})" if self.ratio != 1.0 else ""
            span = " endpoints" if self.endpoints_only else ""
            return (
                f"{self.metric} {self.direction}{span} along "
                f"{self.axis}: {chain}{extra}"
            )
        selector = (
            ",".join(f"{axis}={value}" for axis, value in self.where) or "all cells"
        )
        bounds = []
        if self.equals is not None:
            bounds.append(f"== {self.equals:g}")
        if self.min_value is not None:
            bounds.append(f">= {self.min_value:g}")
        if self.max_value is not None:
            bounds.append(f"<= {self.max_value:g}")
        return f"{self.metric} {' and '.join(bounds)} where {selector}"


_DIRECTIONS = (
    "non-increasing",
    "non-decreasing",
    "increasing",
    "decreasing",
    "equal",
)


@dataclass(frozen=True)
class ScenarioSpec:
    """A complete declarative sweep: axes, constraints, checks."""

    name: str
    description: str = ""
    world: tuple[tuple[str, object], ...] = ()
    campaign: tuple[tuple[str, object], ...] = ()
    axes: tuple[Axis, ...] = ()
    baseline: tuple[tuple[str, str], ...] = ()
    include: tuple[tuple[tuple[str, str], ...], ...] = ()
    exclude: tuple[tuple[tuple[str, str], ...], ...] = ()
    assertions: tuple[Assertion, ...] = ()

    def axis(self, name: str) -> Axis:
        for axis in self.axes:
            if axis.name == name:
                return axis
        raise KeyError(f"scenario {self.name!r} has no axis {name!r}")

    def world_dict(self) -> dict:
        return {key: value for key, value in self.world}

    def campaign_dict(self) -> dict:
        return {key: value for key, value in self.campaign}

    def with_world_overrides(self, overrides: dict) -> "ScenarioSpec":
        """A copy with base-world fields overridden (e.g. CLI --sites)."""
        merged = self.world_dict()
        merged.update(
            _validate_world_overrides(overrides, f"scenario {self.name!r}")
        )
        return dataclasses.replace(
            self, world=tuple(sorted(merged.items()))
        )

    def to_dict(self) -> dict:
        """Canonical plain-dict form (embedded into sweep manifests)."""
        return {
            "name": self.name,
            "description": self.description,
            "world": self.world_dict(),
            "campaign": self.campaign_dict(),
            "axes": [
                {
                    "name": axis.name,
                    "values": [
                        {"name": value.name, **value.params_dict()}
                        for value in axis.values
                    ],
                }
                for axis in self.axes
            ],
            "baseline": {axis: value for axis, value in self.baseline},
            "include": [dict(pairs) for pairs in self.include],
            "exclude": [dict(pairs) for pairs in self.exclude],
            "assertions": [
                _assertion_to_dict(check) for check in self.assertions
            ],
        }

    def digest(self) -> str:
        """Stable identity of the spec's full content."""
        return "{:016x}".format(
            stable_digest("scenario-spec", json.dumps(self.to_dict(), sort_keys=True))
        )

    @classmethod
    def from_dict(cls, raw: dict) -> "ScenarioSpec":
        _require(isinstance(raw, dict), "scenario spec must be a table")
        name = raw.get("name")
        _require(
            isinstance(name, str) and bool(name),
            "scenario spec needs a non-empty 'name'",
        )
        known = {
            "name",
            "description",
            "world",
            "campaign",
            "axes",
            "baseline",
            "include",
            "exclude",
            "assertions",
        }
        for key in raw:
            _require(key in known, f"scenario {name!r}: unknown section {key!r}")

        world = _validate_world_overrides(
            raw.get("world", {}), f"scenario {name!r}"
        )
        campaign = _validate_params(
            raw.get("campaign", {}), f"scenario {name!r} [campaign]"
        )

        axes = []
        seen_axes = set()
        for axis_raw in raw.get("axes", ()):
            axis_name = axis_raw.get("name")
            _require(
                isinstance(axis_name, str) and bool(axis_name),
                f"scenario {name!r}: every axis needs a 'name'",
            )
            _require(
                axis_name not in seen_axes,
                f"scenario {name!r}: duplicate axis {axis_name!r}",
            )
            seen_axes.add(axis_name)
            values = []
            seen_values = set()
            for value_raw in axis_raw.get("values", ()):
                value_name = value_raw.get("name")
                context = f"scenario {name!r} axis {axis_name!r}"
                _require(
                    isinstance(value_name, str) and bool(value_name),
                    f"{context}: every value needs a 'name'",
                )
                _require(
                    value_name not in seen_values,
                    f"{context}: duplicate value {value_name!r}",
                )
                seen_values.add(value_name)
                params = _validate_params(
                    {k: v for k, v in value_raw.items() if k != "name"},
                    f"{context} value {value_name!r}",
                )
                values.append(
                    AxisValue(
                        name=value_name, params=tuple(sorted(params.items()))
                    )
                )
            _require(
                bool(values),
                f"scenario {name!r}: axis {axis_name!r} has no values",
            )
            axes.append(Axis(name=axis_name, values=tuple(values)))

        axes_by_name = {axis.name: axis for axis in axes}

        def check_assignment(pairs: dict, context: str) -> tuple:
            resolved = []
            for axis_name, value_name in pairs.items():
                _require(
                    axis_name in axes_by_name,
                    f"{context}: unknown axis {axis_name!r}",
                )
                _require(
                    value_name in axes_by_name[axis_name].value_names,
                    f"{context}: axis {axis_name!r} has no value {value_name!r}",
                )
                resolved.append((axis_name, value_name))
            return tuple(sorted(resolved))

        baseline = check_assignment(
            raw.get("baseline", {}), f"scenario {name!r} [baseline]"
        )
        include = tuple(
            check_assignment(pairs, f"scenario {name!r} [[include]]")
            for pairs in raw.get("include", ())
        )
        exclude = tuple(
            check_assignment(pairs, f"scenario {name!r} [[exclude]]")
            for pairs in raw.get("exclude", ())
        )

        assertions = []
        for check_raw in raw.get("assertions", ()):
            assertions.append(
                _assertion_from_dict(check_raw, axes_by_name, name)
            )

        return cls(
            name=name,
            description=str(raw.get("description", "")),
            world=tuple(sorted(world.items())),
            campaign=tuple(sorted(campaign.items())),
            axes=tuple(axes),
            baseline=baseline,
            include=include,
            exclude=exclude,
            assertions=tuple(assertions),
        )


def _assertion_to_dict(check: Assertion) -> dict:
    """The canonical dict shape — the same one :meth:`from_dict` parses,
    so specs embedded in sweep manifests round-trip losslessly."""
    if check.kind == "monotonic":
        return {
            "kind": "monotonic",
            "metric": check.metric,
            "axis": check.axis,
            "order": list(check.order),
            "direction": check.direction,
            "ratio": check.ratio,
            "endpoints_only": check.endpoints_only,
        }
    payload: dict = {
        "kind": "bound",
        "metric": check.metric,
        "where": {axis: value for axis, value in check.where},
    }
    if check.min_value is not None:
        payload["min"] = check.min_value
    if check.max_value is not None:
        payload["max"] = check.max_value
    if check.equals is not None:
        payload["equals"] = check.equals
    return payload


def _assertion_from_dict(
    raw: dict, axes_by_name: dict[str, Axis], spec_name: str
) -> Assertion:
    from repro.scenarios.metrics import METRIC_NAMES

    context = f"scenario {spec_name!r} [[assertions]]"
    kind = raw.get("kind", "monotonic")
    _require(
        kind in ("monotonic", "bound"),
        f"{context}: kind must be 'monotonic' or 'bound', got {kind!r}",
    )
    metric = raw.get("metric")
    _require(
        metric in METRIC_NAMES,
        f"{context}: unknown metric {metric!r}; known: "
        f"{', '.join(METRIC_NAMES)}",
    )
    if kind == "monotonic":
        axis_name = raw.get("axis")
        _require(
            axis_name in axes_by_name, f"{context}: unknown axis {axis_name!r}"
        )
        axis = axes_by_name[axis_name]
        order = tuple(raw.get("order", axis.value_names))
        for value_name in order:
            _require(
                value_name in axis.value_names,
                f"{context}: axis {axis_name!r} has no value {value_name!r}",
            )
        _require(len(order) >= 2, f"{context}: order needs at least two values")
        direction = raw.get("direction", "non-increasing")
        _require(
            direction in _DIRECTIONS,
            f"{context}: direction must be one of {_DIRECTIONS}",
        )
        ratio = float(raw.get("ratio", 1.0))
        _require(ratio > 0, f"{context}: ratio must be positive")
        return Assertion(
            kind="monotonic",
            metric=metric,
            axis=axis_name,
            order=order,
            direction=direction,
            ratio=ratio,
            endpoints_only=bool(raw.get("endpoints_only", False)),
        )
    where_raw = raw.get("where", {})
    where = []
    for axis_name, value_name in where_raw.items():
        _require(
            axis_name in axes_by_name, f"{context}: unknown axis {axis_name!r}"
        )
        _require(
            value_name in axes_by_name[axis_name].value_names,
            f"{context}: axis {axis_name!r} has no value {value_name!r}",
        )
        where.append((axis_name, value_name))
    bounds = [raw.get("min"), raw.get("max"), raw.get("equals")]
    _require(
        any(bound is not None for bound in bounds),
        f"{context}: bound assertions need 'min', 'max' or 'equals'",
    )
    return Assertion(
        kind="bound",
        metric=metric,
        where=tuple(sorted(where)),
        min_value=None if raw.get("min") is None else float(raw["min"]),
        max_value=None if raw.get("max") is None else float(raw["max"]),
        equals=None if raw.get("equals") is None else float(raw["equals"]),
    )


# -- TOML loading --------------------------------------------------------------


def load_spec(path: str | Path) -> ScenarioSpec:
    """Load a scenario spec from a TOML file.

    A file that is not valid UTF-8 TOML raises :class:`ScenarioSpecError`
    naming the file.
    """
    try:
        raw = tomllib.loads(Path(path).read_text(encoding="utf-8"))
    except (UnicodeDecodeError, tomllib.TOMLDecodeError) as exc:
        raise ScenarioSpecError(f"{path}: not a valid TOML file: {exc}") from exc
    return ScenarioSpec.from_dict(raw)


#: Directory of declared scenarios, relative to the repo root.
SCENARIOS_DIR = Path(__file__).resolve().parents[3] / "scenarios"


def declared_scenarios() -> list[str]:
    """Names of the scenarios declared under ``scenarios/``."""
    return sorted(path.stem for path in SCENARIOS_DIR.glob("*.toml"))


def resolve_spec(name_or_path: str) -> ScenarioSpec:
    """Resolve a CLI argument to a spec: a file path or a declared name."""
    candidate = Path(name_or_path)
    if candidate.exists():
        return load_spec(candidate)
    declared = SCENARIOS_DIR / f"{name_or_path}.toml"
    if declared.exists():
        return load_spec(declared)
    known = ", ".join(declared_scenarios()) or "none"
    raise ScenarioSpecError(
        f"no scenario spec at {name_or_path!r} and no declared scenario of "
        f"that name under {SCENARIOS_DIR}/ (declared: {known})"
    )
