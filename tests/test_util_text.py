"""Unit tests for text helpers."""

import pytest

from repro.util.text import (
    contains_keyword,
    stable_digest,
    synthesize_name,
    tokens,
)
from repro.web.thirdparty import stable_fraction


class TestTokens:
    def test_basic(self):
        assert tokens("Accept All Cookies!") == ["accept", "all", "cookies"]

    def test_numbers_kept(self):
        assert tokens("topic 42") == ["topic", "42"]

    def test_empty(self):
        assert tokens("...") == []

    def test_hostname_tokens(self):
        assert tokens("www.news-site.co.uk") == ["www", "news", "site", "co", "uk"]


class TestContainsKeyword:
    def test_single_word_match(self):
        assert contains_keyword("Please ACCEPT now", ["accept"]) == "accept"

    def test_phrase_match(self):
        assert contains_keyword("Click to accept all cookies", ["accept all"])

    def test_no_substring_false_positive(self):
        # "accept" must not match inside "unacceptable".
        assert contains_keyword("unacceptable terms", ["accept"]) is None

    def test_first_match_wins(self):
        found = contains_keyword("accept and agree", ["agree", "accept"])
        assert found == "agree"  # list order, not text order

    def test_punctuation_insensitive(self):
        assert contains_keyword("J'accepte!", ["j'accepte"]) is not None

    def test_no_match(self):
        assert contains_keyword("continue to site", ["accept", "agree"]) is None


class TestStableDigest:
    def test_deterministic(self):
        assert stable_digest("a", "b") == stable_digest("a", "b")

    def test_order_matters(self):
        assert stable_digest("a", "b") != stable_digest("b", "a")

    def test_separator_prevents_concatenation_collision(self):
        assert stable_digest("ab") != stable_digest("a", "b")

    def test_64_bit_range(self):
        digest = stable_digest("x")
        assert 0 <= digest < 2**64


# Golden values: the first 8 bytes (big-endian) of SHA-256 over each part
# UTF-8 encoded and NUL-terminated; zero parts hash b"" (the last case).  Every
# generated world, plan decision and archive depends on these bytes, so
# any change to how the payload is built must leave them untouched.
_GOLDEN = [
    (("x",), 1510999124567338456, 0.08191142667398019),
    (("a", "b"), 10354354944025116997, 0.5613107062499028),
    (
        ("doubleclick.net", "news.com", "call"),
        18086345617839763300,
        0.9804627605592777,
    ),
    (("café", "ü日本"), 2746457490996758645, 0.14888575891888867),
    (("",), 7940984811893783192, 0.43048164923648174),
    (("", ""), 10854403881223488966, 0.5884184134528799),
    (("a", "", "b"), 2167642372001204252, 0.11750812844476688),
    ((), 16406829232824261652, 0.8894159948913374),
]


class TestStableDigestGolden:
    @pytest.mark.parametrize(("parts", "digest", "fraction"), _GOLDEN)
    def test_digest(self, parts, digest, fraction):
        assert stable_digest(*parts) == digest

    @pytest.mark.parametrize(("parts", "digest", "fraction"), _GOLDEN)
    def test_fraction(self, parts, digest, fraction):
        assert stable_fraction(*parts) == fraction


class TestSynthesizeName:
    def test_deterministic(self):
        assert synthesize_name(7) == synthesize_name(7)

    def test_salt_changes_name(self):
        assert synthesize_name(7, "a") != synthesize_name(7, "b")

    def test_dns_safe(self):
        for index in range(200):
            name = synthesize_name(index, "test")
            assert name.replace("-", "").isalnum()
            assert name == name.lower()

    def test_reasonable_diversity(self):
        names = {synthesize_name(i, "div") for i in range(1000)}
        assert len(names) > 700  # collisions allowed, but rare
