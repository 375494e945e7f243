"""Schemas of the ten fine-grained semantic classes.

The paper selects ten fine-grained classes from Wikipedia lists (Figure 4
names them: Canada universities, Chemical elements, China cities, Countries,
Mobile phone brands, Nobel laureates, Percussion instruments, US airports,
US national monuments, US presidents) and annotates 2–3 independent,
objective attributes per class.  The exact attribute inventory lives in the
paper's supplementary notes, so this module defines a faithful analogue:
each class declares 2–3 attributes with small categorical value sets, name
components for synthetic entity surface forms, and per-attribute sentence
templates whose wording expresses the attribute value lexically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.exceptions import DatasetError


@dataclass(frozen=True)
class ClassSchema:
    """Blueprint of one fine-grained semantic class.

    Attributes
    ----------
    name:
        Machine name of the class (e.g. ``"mobile_phone_brands"``).
    description:
        Human-readable description used in prompts and reports.
    attributes:
        Mapping from attribute name to the tuple of possible values.
    value_phrases:
        Mapping ``(attribute, value) -> phrase`` injected into sentence
        templates so the corpus text expresses the value.
    name_prefixes / name_suffixes:
        Components combined to mint synthetic entity surface forms.
    attribute_templates:
        Mapping from attribute name to sentence templates with ``{name}`` and
        ``{phrase}`` slots.
    generic_templates:
        Attribute-free templates providing background context.
    """

    name: str
    description: str
    attributes: Mapping[str, tuple[str, ...]]
    value_phrases: Mapping[tuple[str, str], str]
    name_prefixes: tuple[str, ...]
    name_suffixes: tuple[str, ...]
    attribute_templates: Mapping[str, tuple[str, ...]]
    generic_templates: tuple[str, ...]

    def phrase(self, attribute: str, value: str) -> str:
        """Textual phrase expressing ``attribute == value``."""
        key = (attribute, value)
        if key not in self.value_phrases:
            raise DatasetError(
                f"schema {self.name!r} has no phrase for {attribute}={value}"
            )
        return self.value_phrases[key]

    def attribute_names(self) -> tuple[str, ...]:
        return tuple(self.attributes.keys())


def _schema(
    name: str,
    description: str,
    attributes: dict[str, tuple[str, ...]],
    value_phrases: dict[tuple[str, str], str],
    name_prefixes: Sequence[str],
    name_suffixes: Sequence[str],
    attribute_templates: dict[str, tuple[str, ...]],
    generic_templates: Sequence[str],
) -> ClassSchema:
    return ClassSchema(
        name=name,
        description=description,
        attributes=attributes,
        value_phrases=value_phrases,
        name_prefixes=tuple(name_prefixes),
        name_suffixes=tuple(name_suffixes),
        attribute_templates=attribute_templates,
        generic_templates=tuple(generic_templates),
    )


def _mobile_phone_brands() -> ClassSchema:
    return _schema(
        name="mobile_phone_brands",
        description="Mobile phone brands",
        attributes={
            "os": ("android", "ios", "proprietary"),
            "manufacturer_region": ("asia", "america", "europe"),
            "listed": ("public", "private"),
        },
        value_phrases={
            ("os", "android"): "ships handsets running the Android operating system",
            ("os", "ios"): "ships handsets running its own iOS operating system",
            ("os", "proprietary"): "ships handsets running a proprietary feature-phone system",
            ("manufacturer_region", "asia"): "is manufactured by an Asian company",
            ("manufacturer_region", "america"): "is manufactured by an American company",
            ("manufacturer_region", "europe"): "is manufactured by a European company",
            ("listed", "public"): "is publicly listed on a stock exchange",
            ("listed", "private"): "remains a privately held company",
        },
        name_prefixes=(
            "Vexo", "Nuvia", "Teleca", "Orion", "Zenfo", "Quarz", "Lumo",
            "Pixa", "Haptix", "Celtro", "Axion", "Novex", "Britel", "Kyro",
        ),
        name_suffixes=("Mobile", "Phones", "Telecom", "Devices", "Wireless", "Comms"),
        attribute_templates={
            "os": (
                "{name} is a mobile phone brand that {phrase}.",
                "Reviewers note that {name} {phrase} across its current lineup.",
                "The brand {name} {phrase}, according to its product pages.",
            ),
            "manufacturer_region": (
                "{name} {phrase} with factories supplying several markets.",
                "Industry reports state that {name} {phrase}.",
                "{name}, a handset maker, {phrase}.",
            ),
            "listed": (
                "{name} {phrase} and publishes quarterly shipment figures.",
                "Financial press coverage mentions that {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is a brand of mobile phones sold in many countries.",
            "The handset maker {name} unveiled a new flagship model last year.",
            "Retail partners expanded distribution of {name} devices.",
            "{name} competes in the crowded smartphone market.",
        ),
    )


def _countries() -> ClassSchema:
    return _schema(
        name="countries",
        description="Countries of the world",
        attributes={
            "continent": ("africa", "asia", "europe", "americas"),
            "income_level": ("high", "low"),
            "driving_side": ("right", "left"),
        },
        value_phrases={
            ("continent", "africa"): "is located on the African continent",
            ("continent", "asia"): "is located on the Asian continent",
            ("continent", "europe"): "is located on the European continent",
            ("continent", "americas"): "is located in the Americas",
            ("income_level", "high"): "is classified as a high-income economy",
            ("income_level", "low"): "is classified as a low-income economy",
            ("driving_side", "right"): "drives on the right-hand side of the road",
            ("driving_side", "left"): "drives on the left-hand side of the road",
        },
        name_prefixes=(
            "Avaria", "Belmora", "Corvia", "Daland", "Estara", "Fenwick",
            "Galdia", "Hestria", "Ivoria", "Jorland", "Kestel", "Lumara",
            "Meridia", "Norvia",
        ),
        name_suffixes=("", "Republic", "Islands", "Federation", "Union", "Kingdom"),
        attribute_templates={
            "continent": (
                "{name} {phrase} and maintains regional trade agreements.",
                "Geographically, {name} {phrase}.",
                "The nation of {name} {phrase}.",
            ),
            "income_level": (
                "{name} {phrase} according to development statistics.",
                "Economists report that {name} {phrase}.",
            ),
            "driving_side": (
                "Traffic in {name} {phrase}.",
                "Visitors notice that {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is a sovereign country with its own flag and anthem.",
            "The capital of {name} hosts several international summits.",
            "{name} participates in multilateral organisations.",
            "Tourism to {name} has grown steadily over the past decade.",
        ),
    )


def _china_cities() -> ClassSchema:
    return _schema(
        name="china_cities",
        description="Cities of China",
        attributes={
            "region": ("coastal", "inland"),
            "population_tier": ("megacity", "midsize"),
            "provincial_capital": ("yes", "no"),
        },
        value_phrases={
            ("region", "coastal"): "lies on the eastern coast near major shipping lanes",
            ("region", "inland"): "lies deep inland away from the coastline",
            ("population_tier", "megacity"): "is a megacity with well over ten million residents",
            ("population_tier", "midsize"): "is a midsize city with a modest population",
            ("provincial_capital", "yes"): "serves as the capital of its province",
            ("provincial_capital", "no"): "is not a provincial capital",
        },
        name_prefixes=(
            "Xinlan", "Baihe", "Qingyun", "Luoshan", "Meilin", "Tengzhou",
            "Huaguang", "Yunxi", "Zhenhai", "Anping", "Jinpu", "Shuangfeng",
        ),
        name_suffixes=("", "City", ""),
        attribute_templates={
            "region": (
                "{name} {phrase}.",
                "The city of {name} {phrase}.",
            ),
            "population_tier": (
                "{name} {phrase}.",
                "Census data shows that {name} {phrase}.",
            ),
            "provincial_capital": (
                "{name} {phrase}.",
                "Administratively, {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is a city in China known for its local cuisine.",
            "A new high-speed rail link now serves {name}.",
            "{name} hosts an annual cultural festival each spring.",
            "Manufacturing remains a pillar of the economy of {name}.",
        ),
    )


def _chemical_elements() -> ClassSchema:
    return _schema(
        name="chemical_elements",
        description="Chemical elements",
        attributes={
            "state": ("solid", "gas", "liquid"),
            "category": ("metal", "nonmetal"),
            "occurrence": ("natural", "synthetic"),
        },
        value_phrases={
            ("state", "solid"): "is solid at standard temperature and pressure",
            ("state", "gas"): "is gaseous at standard temperature and pressure",
            ("state", "liquid"): "is liquid at standard temperature and pressure",
            ("category", "metal"): "is classified chemically as a metal",
            ("category", "nonmetal"): "is classified chemically as a nonmetal",
            ("occurrence", "natural"): "occurs naturally on Earth",
            ("occurrence", "synthetic"): "is produced only synthetically in laboratories",
        },
        name_prefixes=(
            "Zelth", "Quorv", "Brenn", "Altar", "Myst", "Cryon", "Velar",
            "Oxel", "Thall", "Nerid", "Sorb", "Kryp",
        ),
        name_suffixes=("ium", "ine", "on", "ite"),
        attribute_templates={
            "state": (
                "The element {name} {phrase}.",
                "{name} {phrase}, as recorded in reference tables.",
            ),
            "category": (
                "{name} {phrase}.",
                "Chemists describe {name} as an element that {phrase}.",
            ),
            "occurrence": (
                "{name} {phrase}.",
                "Samples of {name} show that it {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is a chemical element listed in the periodic table.",
            "Spectral lines of {name} were first measured in the nineteenth century.",
            "Industrial processes consume small quantities of {name}.",
            "{name} forms several well-studied compounds.",
        ),
    )


def _canada_universities() -> ClassSchema:
    return _schema(
        name="canada_universities",
        description="Universities in Canada",
        attributes={
            "language": ("english", "french", "bilingual"),
            "funding": ("public", "private"),
            "region": ("east", "west"),
        },
        value_phrases={
            ("language", "english"): "teaches primarily in English",
            ("language", "french"): "teaches primarily in French",
            ("language", "bilingual"): "offers bilingual instruction in English and French",
            ("funding", "public"): "is a publicly funded institution",
            ("funding", "private"): "is a privately funded institution",
            ("region", "east"): "is located in eastern Canada",
            ("region", "west"): "is located in western Canada",
        },
        name_prefixes=(
            "Maplewood", "Northgate", "Lakeshore", "Stonebridge", "Clearwater",
            "Riverton", "Blackspruce", "Whitehorn", "Silverpine", "Greyfield",
        ),
        name_suffixes=("University", "Institute", "College"),
        attribute_templates={
            "language": (
                "{name} {phrase}.",
                "Students at {name} report that it {phrase}.",
            ),
            "funding": (
                "{name} {phrase}.",
                "As an institution, {name} {phrase}.",
            ),
            "region": (
                "{name} {phrase}.",
                "The campus of {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is a university located in Canada.",
            "{name} enrols thousands of undergraduate students each year.",
            "Researchers at {name} published new findings this term.",
            "{name} maintains exchange agreements with overseas partners.",
        ),
    )


def _nobel_laureates() -> ClassSchema:
    return _schema(
        name="nobel_laureates",
        description="Nobel Prize laureates",
        attributes={
            "field": ("physics", "chemistry", "literature", "peace"),
            "era": ("pre1980", "post1980"),
        },
        value_phrases={
            ("field", "physics"): "received the Nobel Prize in Physics",
            ("field", "chemistry"): "received the Nobel Prize in Chemistry",
            ("field", "literature"): "received the Nobel Prize in Literature",
            ("field", "peace"): "received the Nobel Peace Prize",
            ("era", "pre1980"): "was honoured before 1980",
            ("era", "post1980"): "was honoured after 1980",
        },
        name_prefixes=(
            "Aldric", "Beatrix", "Casimir", "Delphine", "Emeric", "Fiora",
            "Gustav", "Helena", "Isidor", "Johanna", "Klemens", "Lavinia",
        ),
        name_suffixes=("Varga", "Olsson", "Marchetti", "Kowalski", "Dubois", "Lindqvist", "Haruki", "Okafor"),
        attribute_templates={
            "field": (
                "{name} {phrase} for pioneering work.",
                "The laureate {name} {phrase}.",
            ),
            "era": (
                "{name} {phrase}.",
                "Records show that {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is remembered as a Nobel laureate of great influence.",
            "A biography of {name} was published to wide acclaim.",
            "{name} lectured at universities around the world.",
            "An archive preserves the correspondence of {name}.",
        ),
    )


def _percussion_instruments() -> ClassSchema:
    return _schema(
        name="percussion_instruments",
        description="Percussion instruments",
        attributes={
            "pitch": ("pitched", "unpitched"),
            "origin": ("western", "non_western"),
        },
        value_phrases={
            ("pitch", "pitched"): "produces definite pitches that can carry a melody",
            ("pitch", "unpitched"): "produces indefinite pitch used for rhythm",
            ("origin", "western"): "originates from the Western orchestral tradition",
            ("origin", "non_western"): "originates outside the Western orchestral tradition",
        },
        name_prefixes=(
            "Tambo", "Kalira", "Dunra", "Mbeka", "Zillo", "Cajua", "Timbra",
            "Gonga", "Rattla", "Bodhra", "Clava", "Marimbel",
        ),
        name_suffixes=("drum", "phone", "bells", "block", ""),
        attribute_templates={
            "pitch": (
                "The {name} {phrase}.",
                "Played with mallets, the {name} {phrase}.",
            ),
            "origin": (
                "The {name} {phrase}.",
                "Ethnomusicologists note that the {name} {phrase}.",
            ),
        },
        generic_templates=(
            "The {name} is a percussion instrument used in ensembles.",
            "Drummers often feature the {name} in live performances.",
            "The {name} appears in several contemporary recordings.",
            "Makers craft the {name} from wood and skin.",
        ),
    )


def _us_airports() -> ClassSchema:
    return _schema(
        name="us_airports",
        description="Airports in the United States",
        attributes={
            "hub_size": ("large_hub", "regional"),
            "coast": ("east_coast", "west_coast", "interior"),
            "international": ("international", "domestic"),
        },
        value_phrases={
            ("hub_size", "large_hub"): "operates as a large hub with dozens of gates",
            ("hub_size", "regional"): "operates as a small regional field",
            ("coast", "east_coast"): "sits near the eastern seaboard of the United States",
            ("coast", "west_coast"): "sits near the western seaboard of the United States",
            ("coast", "interior"): "sits in the interior of the United States",
            ("international", "international"): "handles scheduled international flights",
            ("international", "domestic"): "handles only domestic flights",
        },
        name_prefixes=(
            "Fairmont", "Cedar Ridge", "Eagle Pass", "Harborview", "Prairie",
            "Redstone", "Bluewater", "Summit", "Oakdale", "Canyon",
        ),
        name_suffixes=("Airport", "Field", "Regional Airport", "International Airport"),
        attribute_templates={
            "hub_size": (
                "{name} {phrase}.",
                "Passenger statistics show that {name} {phrase}.",
            ),
            "coast": (
                "{name} {phrase}.",
                "Geographically, {name} {phrase}.",
            ),
            "international": (
                "{name} {phrase}.",
                "The timetable confirms that {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} serves travellers in the United States.",
            "A new terminal opened at {name} after years of construction.",
            "{name} reported record passenger numbers last summer.",
            "Several carriers base crews at {name}.",
        ),
    )


def _us_national_monuments() -> ClassSchema:
    return _schema(
        name="us_national_monuments",
        description="National monuments of the United States",
        attributes={
            "landform": ("canyon", "forest", "desert"),
            "managing_agency": ("park_service", "land_bureau"),
        },
        value_phrases={
            ("landform", "canyon"): "protects a dramatic canyon landscape",
            ("landform", "forest"): "protects an ancient forest landscape",
            ("landform", "desert"): "protects a fragile desert landscape",
            ("managing_agency", "park_service"): "is managed by the National Park Service",
            ("managing_agency", "land_bureau"): "is managed by the Bureau of Land Management",
        },
        name_prefixes=(
            "Granite Spire", "Painted Mesa", "Silver Hollow", "Thunder Basin",
            "Juniper Flats", "Obsidian Ridge", "Whispering Pines", "Salt Fork",
            "Crimson Butte", "Hidden Arch",
        ),
        name_suffixes=("National Monument",),
        attribute_templates={
            "landform": (
                "{name} {phrase}.",
                "Visitors to {name} find that it {phrase}.",
            ),
            "managing_agency": (
                "{name} {phrase}.",
                "Signage notes that {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} is a protected national monument in the United States.",
            "{name} draws hikers and photographers throughout the year.",
            "A visitor centre at {name} explains the site's history.",
            "{name} was proclaimed by presidential order.",
        ),
    )


def _us_presidents() -> ClassSchema:
    return _schema(
        name="us_presidents",
        description="Presidents of the United States",
        attributes={
            "party": ("federalist", "unionist"),
            "century": ("nineteenth", "twentieth"),
            "terms": ("one_term", "two_terms"),
        },
        value_phrases={
            ("party", "federalist"): "was elected as a member of the Federalist coalition",
            ("party", "unionist"): "was elected as a member of the Unionist coalition",
            ("century", "nineteenth"): "served during the nineteenth century",
            ("century", "twentieth"): "served during the twentieth century",
            ("terms", "one_term"): "served a single term in office",
            ("terms", "two_terms"): "won re-election and served two terms",
        },
        name_prefixes=(
            "Abner", "Bartholomew", "Cornelius", "Demetrius", "Ezekiel",
            "Franklin", "Gideon", "Horatio", "Ignatius", "Jeremiah",
        ),
        name_suffixes=("Whitfield", "Harrow", "Caldwell", "Prescott", "Mason", "Langley", "Thorne", "Everett"),
        attribute_templates={
            "party": (
                "President {name} {phrase}.",
                "{name} {phrase} and campaigned on that platform.",
            ),
            "century": (
                "{name} {phrase}.",
                "Historians place {name} among leaders who {phrase}.",
            ),
            "terms": (
                "{name} {phrase}.",
                "Election records show that {name} {phrase}.",
            ),
        },
        generic_templates=(
            "{name} served as President of the United States.",
            "The presidency of {name} shaped national policy.",
            "A memorial library preserves the papers of {name}.",
            "{name} delivered a widely quoted inaugural address.",
        ),
    )


_SCHEMA_BUILDERS = (
    _countries,
    _mobile_phone_brands,
    _china_cities,
    _chemical_elements,
    _canada_universities,
    _nobel_laureates,
    _percussion_instruments,
    _us_airports,
    _us_national_monuments,
    _us_presidents,
)


def default_schemas(limit: int | None = None) -> list[ClassSchema]:
    """The ten fine-grained class schemas (optionally only the first ``limit``)."""
    schemas = [builder() for builder in _SCHEMA_BUILDERS]
    if limit is not None:
        if limit < 1 or limit > len(schemas):
            raise DatasetError(f"limit must be in [1, {len(schemas)}], got {limit}")
        schemas = schemas[:limit]
    return schemas


def schema_by_name(name: str) -> ClassSchema:
    """Look up a schema by class name."""
    for schema in default_schemas():
        if schema.name == name:
            return schema
    raise DatasetError(f"unknown fine-grained class {name!r}")
