"""Whole-world identity pins for the synthetic-web generator.

The archive pins only see what a crawl reads back out of a world.  These
pins hash a canonical serialisation of everything :class:`WebGenerator`
builds — every :class:`Website` field (banner, rogue call and redirect
included), the shadow sites, the entity map, the third-party catalogue
and the enrolment registry — so a rewrite of the generator that changes
any drawn value, or the order values are drawn in, shows up here.

Every set and dict is sorted before hashing, so the digests do not
depend on ``PYTHONHASHSEED``.
"""

import dataclasses
import enum
import hashlib
import json

import pytest

from repro.web.config import WorldConfig
from repro.web.generator import SyntheticWeb, WebGenerator
from repro.web.vantage import US_VANTAGE

#: World label -> sha256 of :func:`world_digest`'s canonical text.
WORLD_GOLDEN = {
    "seed-1": "126ba503f0a0cbb8df716a6d883845888e060f182fa6899cdd8a8e3e15727ab3",
    "seed-2": "1f114aab6405e6f559296996cd2a42b3d144b44f12d4dda037108c526f8a5b4d",
    "seed-3": "4ac61c2fbffddde16837f92b46918dfd7707790fd7894302054a6e5b19959405",
    "seed-1-us": "5d61d75af1caee0cbe174a215354105e6d8e5bdf9c202dbfad2abd3c546fde50",
}


def _config(label: str) -> WorldConfig:
    seed = int(label.split("-")[1])
    config = WorldConfig.small(2000, seed=seed)
    if label.endswith("-us"):
        config.vantage = US_VANTAGE
    return config


def canonical(value):
    """A JSON-able form of ``value`` with every set and dict sorted."""
    if isinstance(value, enum.Enum):
        return f"{type(value).__name__}.{value.name}"
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            item.name: canonical(getattr(value, item.name))
            for item in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return sorted(
            ([canonical(key), canonical(item)] for key, item in value.items()),
            key=json.dumps,
        )
    if isinstance(value, (set, frozenset)):
        return sorted((canonical(item) for item in value), key=json.dumps)
    if isinstance(value, (list, tuple)):
        return [canonical(item) for item in value]
    if value is None or isinstance(value, (str, int, float, bool)):
        return value
    raise TypeError(f"no canonical form for {type(value).__name__}")


def world_digest(world: SyntheticWeb) -> str:
    """sha256 over a canonical serialisation of the whole world."""
    registry = world.registry
    payload = {
        "config": canonical(world.config),
        "websites": canonical(world.websites),
        "shadow_sites": canonical(world.shadow_sites),
        "third_parties": canonical(world.third_parties),
        "entities": {
            entity: sorted(world.entities.domains_of(entity))
            for entity in world.entities.entities()
        },
        "enrollments": canonical(registry.all_enrollments()),
        "allowed": sorted(registry.allowed_domains()),
        "attested": sorted(registry.attested_domains()),
        "cmps": canonical(list(world.cmps.providers)),
        "tranco": list(world.tranco.domains),
    }
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


@pytest.mark.parametrize("label", sorted(WORLD_GOLDEN))
def test_world_is_pinned(label):
    world = WebGenerator(_config(label)).generate()
    assert world_digest(world) == WORLD_GOLDEN[label]


def test_digest_sees_every_site_field():
    world = WebGenerator(WorldConfig.small(200, seed=1)).generate()
    before = world_digest(world)
    site = world.websites[7]
    for name, value in (
        ("transient_failure", not site.transient_failure),
        ("redirect_to", "elsewhere.example"),
        ("embedded", site.embedded + ("extra.example",)),
    ):
        original = getattr(site, name)
        setattr(site, name, value)
        assert world_digest(world) != before, name
        setattr(site, name, original)
    assert world_digest(world) == before


def test_digest_sees_the_entity_map():
    world = WebGenerator(WorldConfig.small(200, seed=1)).generate()
    before = world_digest(world)
    world.entities.add("Org pin", "pin-probe.example")
    assert world_digest(world) != before
