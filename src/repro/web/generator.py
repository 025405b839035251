"""The synthetic-web generator.

Builds a complete, deterministic world from a :class:`WorldConfig`: ranked
first-party sites with consent UIs, the third-party ecosystem (named
catalogue + synthesized enrolled-but-inactive services + the long-tail
widget population), rogue first-party-call configurations, redirect shadow
sites, the entity-ownership database, and the enrolment registry whose
artefacts (allow-list, attestation files) the browser and crawler consume.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate

from repro.attestation.registry import EnrollmentRegistry
from repro.util.psl import second_level_name
from repro.util.rng import RngStream
from repro.util.text import synthesize_name
from repro.util.timeline import Timestamp
from repro.web.banner import (
    ConsentBanner,
    SUPPORTED_ACCEPT_KEYWORDS,
    odd_phrase,
    reject_phrase,
    standard_phrase,
)
from repro.web.cmp import CmpCatalogue, CmpProvider
from repro.web.config import WorldConfig
from repro.web.entities import EntityDatabase
from repro.web.site import RogueCall, RogueVariant, Website
from repro.web.thirdparty import (
    DISTILLERY_DOMAIN,
    GTM_DOMAIN,
    ThirdParty,
    ThirdPartyCategory,
    TopicsPolicy,
    named_third_parties,
)
from repro.web.tlds import REGION_TLD_POOLS, Region
from repro.web.tranco import TrancoList

#: The non-GTM library behind the 5% of rogue sites without GTM (§4).
ROGUE_LIB_DOMAIN = "adwidgets-lib.com"


@dataclass
class SyntheticWeb:
    """A fully generated world; the single source every subsystem reads."""

    config: WorldConfig
    websites: list[Website]
    shadow_sites: dict[str, Website]
    third_parties: dict[str, ThirdParty]
    registry: EnrollmentRegistry
    entities: EntityDatabase
    cmps: CmpCatalogue
    tranco: TrancoList
    _sites_by_domain: dict[str, Website] = field(default_factory=dict, repr=False)
    #: lazily built per-script-origin-mode VisitPlanner cache (see
    #: repro.browser.plan); shared by every browser over this world
    _planners: dict = field(default_factory=dict, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not self._sites_by_domain:
            self._sites_by_domain = {site.domain: site for site in self.websites}
            self._sites_by_domain.update(self.shadow_sites)

    def visit_planner(self, script_origin_mode):
        """The shared cache of precomputed visit plans for this world.

        One planner per script-origin mode; each builds a static
        :class:`repro.browser.plan.SitePlan` per (domain, consent)
        variant on first use.  Worlds are immutable after generation, so
        the plans stay valid for the world's lifetime.
        """
        planner = self._planners.get(script_origin_mode)
        if planner is None:
            from repro.browser.plan import VisitPlanner

            planner = self._planners.setdefault(
                script_origin_mode, VisitPlanner(self, script_origin_mode)
            )
        return planner

    # -- site lookups ----------------------------------------------------------

    def site(self, domain: str) -> Website:
        """Website (ranked or shadow) by registrable domain."""
        return self._sites_by_domain[domain]

    def resolve(self, domain: str) -> Website | None:
        return self._sites_by_domain.get(domain)

    # -- EcosystemView (page construction) ---------------------------------------

    def category_of(self, domain: str) -> ThirdPartyCategory:
        """Category of a third-party domain; unknown hosts count as widgets."""
        service = self.third_parties.get(domain)
        return service.category if service else ThirdPartyCategory.WIDGET

    def is_consent_gated(self, domain: str) -> bool:
        service = self.third_parties.get(domain)
        return bool(service and service.consent_gated)

    def loads_preconsent(self, domain: str, site: str) -> bool:
        service = self.third_parties.get(domain)
        if service is None:
            return True
        return service.loads_preconsent_on(site)

    def cmp_domain(self, cmp_name: str) -> str:
        return self.cmps.get(cmp_name).domain

    # -- Topics ecosystem --------------------------------------------------------

    def policy_of(self, domain: str) -> TopicsPolicy | None:
        """The Topics adoption policy of a third-party domain, if any."""
        service = self.third_parties.get(domain)
        return service.policy if service else None

    def well_known_payload(self, domain: str, now: Timestamp) -> str | None:
        """What ``https://<domain>/.well-known/privacy-sandbox-attestations.json``
        serves at ``now`` (None → 404)."""
        return self.registry.attestation_payload(domain, now)


def _cumulative(weights) -> tuple[float, ...]:
    return tuple(accumulate(weights))


@dataclass(frozen=True)
class _RegionDraws:
    """One region's draw tables, built once per world."""

    region: Region
    tlds: tuple[str, ...]
    tld_cumulative: tuple[float, ...]
    #: Vantage-scaled P(consent banner).
    banner_probability: float
    languages: tuple[str, ...]
    language_cumulative: tuple[float, ...]
    #: ``(domain, P(embedded))`` for each named third party with a
    #: positive probability, catalogue order; ad services are boosted by
    #: ``1 / ad_site_rate`` (capped at 1) on ad-carrying sites and dropped
    #: from the others.
    ad_odds: tuple[tuple[str, float], ...]
    plain_odds: tuple[tuple[str, float], ...]


@dataclass(frozen=True)
class _DrawTables:
    """Per-world lookup tables for :meth:`WebGenerator._build_site`.

    Every weighted pick keeps its population order and accumulates its
    weights exactly as ``random.choices`` would, so drawing through these
    tables consumes the same draws and yields the same world.
    """

    regions: tuple[_RegionDraws, ...]
    region_cumulative: tuple[float, ...]
    cmps: tuple[CmpProvider, ...]
    cmp_cumulative: tuple[float, ...]
    rogue_variants: tuple[str, ...]
    rogue_variant_cumulative: tuple[float, ...]
    long_tail_domains: list[str]
    long_tail_cumulative: tuple[float, ...]

    @classmethod
    def build(
        cls, config: WorldConfig, cmps: CmpCatalogue, long_tail_domains: list[str]
    ) -> "_DrawTables":
        named = named_third_parties()
        ad_boost = 1.0 / config.ad_site_rate
        banner_probability = config.effective_banner_probability()

        def region_draws(region: Region) -> _RegionDraws:
            pool = REGION_TLD_POOLS[region]
            mix = config.language_mix[region]
            ad_odds, plain_odds = [], []
            for tp in named:
                probability = tp.prevalence_in(region)
                if tp.category is ThirdPartyCategory.ADS:
                    ad_probability = min(1.0, probability * ad_boost)
                    if ad_probability > 0.0:
                        ad_odds.append((tp.domain, ad_probability))
                elif probability > 0.0:
                    ad_odds.append((tp.domain, probability))
                    plain_odds.append((tp.domain, probability))
            return _RegionDraws(
                region=region,
                tlds=tuple(tld for tld, _ in pool),
                tld_cumulative=_cumulative(weight for _, weight in pool),
                banner_probability=banner_probability[region],
                languages=tuple(language for language, _ in mix),
                language_cumulative=_cumulative(weight for _, weight in mix),
                ad_odds=tuple(ad_odds),
                plain_odds=tuple(plain_odds),
            )

        rogue_weights = config.rogue_variant_weights
        return cls(
            regions=tuple(region_draws(region) for region in config.region_weights),
            region_cumulative=_cumulative(config.region_weights.values()),
            cmps=cmps.providers,
            cmp_cumulative=_cumulative(p.market_weight for p in cmps.providers),
            rogue_variants=tuple(rogue_weights),
            rogue_variant_cumulative=_cumulative(rogue_weights.values()),
            long_tail_domains=long_tail_domains,
            long_tail_cumulative=_cumulative(
                (rank + 1) ** -config.long_tail_zipf_exponent
                for rank in range(len(long_tail_domains))
            ),
        )


class WebGenerator:
    """Builds a :class:`SyntheticWeb` from a :class:`WorldConfig`."""

    def __init__(self, config: WorldConfig | None = None) -> None:
        self._config = config or WorldConfig()
        self._rng = RngStream(self._config.seed, "web")

    def generate(self) -> SyntheticWeb:
        """Run the full generation pipeline."""
        config = self._config
        third_parties, registry = self._build_ecosystem()
        entities = EntityDatabase()
        cmps = CmpCatalogue()

        long_tail_domains = self._long_tail_domains()
        for domain in long_tail_domains:
            third_parties[domain] = ThirdParty(
                domain=domain,
                category=ThirdPartyCategory.WIDGET,
                prevalence={},
            )
        # Built here, not in __init__: callers such as the vantage setter
        # change the config between construction and generation.
        tables = _DrawTables.build(config, cmps, long_tail_domains)

        websites: list[Website] = []
        shadow_sites: dict[str, Website] = {}
        used_domains: set[str] = {tp.domain for tp in third_parties.values()}
        distillery_rank = max(1, int(config.site_count * 0.6))

        for rank in range(1, config.site_count + 1):
            site_rng = self._rng.child("site", rank)
            if rank == distillery_rank:
                websites.append(self._build_distillery_site(rank, site_rng))
                continue
            site = self._build_site(
                rank, site_rng, tables, used_domains, entities, shadow_sites
            )
            websites.append(site)

        tranco = TrancoList.of(site.domain for site in websites)
        return SyntheticWeb(
            config=config,
            websites=websites,
            shadow_sites=shadow_sites,
            third_parties=third_parties,
            registry=registry,
            entities=entities,
            cmps=cmps,
            tranco=tranco,
        )

    # -- ecosystem ------------------------------------------------------------

    def _build_ecosystem(self) -> tuple[dict[str, ThirdParty], EnrollmentRegistry]:
        """Named catalogue + synthesized inactive enrollees + registry."""
        config = self._config
        third_parties: dict[str, ThirdParty] = {
            tp.domain: tp for tp in named_third_parties()
        }
        third_parties[ROGUE_LIB_DOMAIN] = ThirdParty(
            domain=ROGUE_LIB_DOMAIN,
            category=ThirdPartyCategory.WIDGET,
            prevalence={region: 0.02 for region in Region},
        )
        third_parties[DISTILLERY_DOMAIN] = ThirdParty(
            domain=DISTILLERY_DOMAIN,
            category=ThirdPartyCategory.ADS,
            prevalence={},
            enrolled=False,
            attested=True,
            policy=TopicsPolicy(enabled_rate=1.0),
            consent_gated=True,
        )

        named_enrolled = [d for d, tp in third_parties.items() if tp.enrolled]
        synth_count = config.allowed_total - len(named_enrolled)
        if synth_count < 0:
            raise ValueError(
                "allowed_total smaller than the named enrolled catalogue"
            )
        synthesized: list[str] = []
        index = 0
        while len(synthesized) < synth_count:
            domain = f"{synthesize_name(index, 'adtech')}-ads.com"
            index += 1
            if domain in third_parties:
                continue
            synthesized.append(domain)
            # Half the inactive enrollees are lightly embedded (encountered
            # but never calling); the rest never appear in the crawl — both
            # kinds explain the paper's 146 silent Allowed parties.
            prevalence = 0.001 if len(synthesized) % 2 == 0 else 0.0
            third_parties[domain] = ThirdParty(
                domain=domain,
                category=ThirdPartyCategory.ADS,
                prevalence={region: prevalence for region in Region},
                enrolled=True,
                attested=True,
                consent_gated=True,
            )

        unattested = synthesized[: config.unattested_allowed]
        for domain in unattested:
            existing = third_parties[domain]
            third_parties[domain] = ThirdParty(
                domain=existing.domain,
                category=existing.category,
                prevalence=existing.prevalence,
                enrolled=True,
                attested=False,
                policy=existing.policy,
                consent_gated=existing.consent_gated,
            )

        registry = EnrollmentRegistry.build(
            rng=self._rng.child("enrollment"),
            allowed_domains=named_enrolled + synthesized,
            unattested_allowed=unattested,
            attested_not_allowed=[DISTILLERY_DOMAIN],
        )
        return third_parties, registry

    def _long_tail_domains(self) -> list[str]:
        """Synthesized widget/CDN long-tail population (popularity-ranked)."""
        domains: list[str] = []
        seen: set[str] = set()
        index = 0
        while len(domains) < self._config.long_tail_pool_size:
            name = synthesize_name(index, "longtail")
            index += 1
            domain = f"{name}.{_LONG_TAIL_TLDS[index % len(_LONG_TAIL_TLDS)]}"
            if domain in seen:
                domain = f"{name}{index}.{_LONG_TAIL_TLDS[index % len(_LONG_TAIL_TLDS)]}"
            if domain in seen:
                continue
            seen.add(domain)
            domains.append(domain)
        return domains

    # -- individual sites ------------------------------------------------------------

    def _build_site(
        self,
        rank: int,
        rng: RngStream,
        tables: _DrawTables,
        used_domains: set[str],
        entities: EntityDatabase,
        shadow_sites: dict[str, Website],
    ) -> Website:
        config = self._config
        draws = rng.pick_cumulative(tables.regions, tables.region_cumulative)
        region = draws.region
        domain = self._fresh_domain(rank, draws, rng, used_domains)
        reachable = not rng.bernoulli(config.failure_rate)
        transient = not reachable and rng.bernoulli(config.transient_failure_share)

        banner = self._maybe_banner(draws, rng, tables)

        # Ad services cluster on ad-carrying sites: prevalence is scaled up
        # there and zeroed elsewhere, preserving each service's mean.
        # Bannered sites are slightly ad-heavier (they have a reason for
        # the banner), which Figure 7's conditional probabilities reflect.
        is_ad_site = rng.bernoulli(
            config.ad_site_given_banner
            if banner is not None
            else config.ad_site_given_no_banner
        )
        embedded = rng.keep_each(draws.ad_odds if is_ad_site else draws.plain_odds)
        long_tail_count = rng.geometric(config.long_tail_mean_per_site)
        if long_tail_count:
            picks = rng.weighted_indices(tables.long_tail_cumulative, long_tail_count)
            embedded.extend(tables.long_tail_domains[i] for i in set(picks))

        rogue, redirect_to = self._maybe_rogue(
            domain, region, rng, tables, embedded, entities, banner, shadow_sites,
            used_domains,
        )

        return Website(
            domain=domain,
            rank=rank,
            tld=domain.partition(".")[2],
            region=region,
            reachable=reachable,
            transient_failure=transient,
            redirect_to=redirect_to,
            banner=banner,
            embedded=tuple(embedded),
            rogue=rogue,
        )

    def _build_distillery_site(self, rank: int, rng: RngStream) -> Website:
        """The attested-but-not-Allowed first party (paper footnote 9):
        observed using the Topics API on its own website only."""
        banner = ConsentBanner(
            language="en",
            accept_text=standard_phrase("en", 0),
            cmp=None,
            gates_before_consent=True,
        )
        return Website(
            domain=DISTILLERY_DOMAIN,
            rank=rank,
            tld="com",
            region=Region.COM,
            reachable=True,
            banner=banner,
            embedded=(DISTILLERY_DOMAIN, GTM_DOMAIN, "googleapis.com"),
            rogue=None,
        )

    def _fresh_domain(
        self, rank: int, draws: _RegionDraws, rng: RngStream, used: set[str]
    ) -> str:
        tld = rng.pick_cumulative(draws.tlds, draws.tld_cumulative)
        salt = f"site-{draws.region.value}"
        attempt = 0
        while True:
            label = synthesize_name(rank * 13 + attempt * 7, salt)
            candidate = f"{label}.{tld}" if attempt < 3 else f"{label}{rank}.{tld}"
            if candidate not in used:
                used.add(candidate)
                return candidate
            attempt += 1

    def _maybe_banner(
        self, draws: _RegionDraws, rng: RngStream, tables: _DrawTables
    ) -> ConsentBanner | None:
        config = self._config
        if not rng.bernoulli(draws.banner_probability):
            return None
        language = rng.pick_cumulative(draws.languages, draws.language_cumulative)

        cmp_name: str | None = None
        if rng.bernoulli(config.cmp_given_banner):
            provider = rng.pick_cumulative(tables.cmps, tables.cmp_cumulative)
            cmp_name = provider.name
            gates = not rng.bernoulli(provider.preconsent_leak_rate)
        else:
            gates = rng.bernoulli(config.custom_banner_gates_rate)

        if language in SUPPORTED_ACCEPT_KEYWORDS and rng.bernoulli(
            config.odd_phrase_rate
        ):
            accept_text = odd_phrase(language, rng.randint(0, 99))
        else:
            accept_text = standard_phrase(language, rng.randint(0, 99))

        # Most banners also offer reject/settings buttons — furniture the
        # accept matcher must not click.
        other_buttons: tuple[str, ...] = ()
        if rng.bernoulli(0.75):
            other_buttons = (reject_phrase(language, rng.randint(0, 99)),)

        return ConsentBanner(
            language=language,
            accept_text=accept_text,
            cmp=cmp_name,
            gates_before_consent=gates,
            other_buttons=other_buttons,
        )

    def _maybe_rogue(
        self,
        domain: str,
        region: Region,
        rng: RngStream,
        tables: _DrawTables,
        embedded: list[str],
        entities: EntityDatabase,
        banner: ConsentBanner | None,
        shadow_sites: dict[str, Website],
        used_domains: set[str],
    ) -> tuple[RogueCall | None, str | None]:
        config = self._config
        if not rng.bernoulli(config.rogue_rate):
            return None, None

        # The GTM correlation (95% of anomalous sites carry it) is imposed
        # on the rogue population; prevalence keeps GTM on ~62% of the rest.
        if rng.bernoulli(config.rogue_gtm_share):
            if GTM_DOMAIN not in embedded:
                embedded.append(GTM_DOMAIN)
            gtm_vehicle = True
        else:
            if GTM_DOMAIN in embedded:
                embedded.remove(GTM_DOMAIN)
            if ROGUE_LIB_DOMAIN not in embedded:
                embedded.append(ROGUE_LIB_DOMAIN)
            gtm_vehicle = False

        variant_key = rng.pick_cumulative(
            tables.rogue_variants, tables.rogue_variant_cumulative
        )
        fires_before = rng.bernoulli(config.rogue_before_rate)
        call_count = 2 if rng.bernoulli(config.rogue_double_call_rate) else 1
        sld = second_level_name(domain)

        if variant_key == "root":
            variant = RogueVariant.ROOT_GTM if gtm_vehicle else RogueVariant.ROOT_LIB
            return (
                RogueCall(variant, f"www.{domain}", fires_before, call_count),
                None,
            )
        if variant_key == "sibling":
            sibling_tld = "net" if not domain.endswith(".net") else "org"
            caller_host = f"ad.{sld}.{sibling_tld}"
            return (
                RogueCall(RogueVariant.SIBLING, caller_host, fires_before, call_count),
                None,
            )
        if variant_key == "entity":
            partner = self._partner_domain(sld, "corp", used_domains)
            entities.add(f"Org {sld}", domain)
            entities.add(f"Org {sld}", partner)
            return (
                RogueCall(RogueVariant.ENTITY, f"www.{partner}", fires_before, call_count),
                None,
            )
        # redirect: the visited domain bounces to a same-company portal whose
        # own page carries the root-context rogue call.
        partner = self._partner_domain(sld, "portal", used_domains)
        entities.add(f"Org {sld}", domain)
        entities.add(f"Org {sld}", partner)
        shadow_embedded = [GTM_DOMAIN] if gtm_vehicle else [ROGUE_LIB_DOMAIN]
        shadow_embedded.append("googleapis.com")
        shadow = Website(
            domain=partner,
            rank=0,
            tld=partner.partition(".")[2],
            region=region,
            reachable=True,
            banner=banner,
            embedded=tuple(shadow_embedded),
            rogue=RogueCall(
                RogueVariant.ROOT_GTM if gtm_vehicle else RogueVariant.ROOT_LIB,
                f"www.{partner}",
                fires_before,
                call_count,
            ),
        )
        shadow_sites[partner] = shadow
        return (
            RogueCall(RogueVariant.REDIRECT, f"www.{partner}", fires_before, call_count),
            partner,
        )

    def _partner_domain(self, sld: str, tag: str, used: set[str]) -> str:
        candidate = f"{sld}-{tag}.com"
        counter = 2
        while candidate in used:
            candidate = f"{sld}-{tag}{counter}.com"
            counter += 1
        used.add(candidate)
        return candidate


_LONG_TAIL_TLDS = ("com", "net", "io", "co", "org", "dev", "app")
