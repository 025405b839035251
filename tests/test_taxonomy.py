"""Unit tests for the Topics taxonomy tree, data and classifier."""

import pytest

from repro.taxonomy.classifier import MAX_TOPICS_PER_SITE, SiteClassifier
from repro.taxonomy.data import taxonomy_entries
from repro.taxonomy.tree import TaxonomyTree, TopicNode, load_default_taxonomy


@pytest.fixture(scope="module")
def taxonomy() -> TaxonomyTree:
    return load_default_taxonomy()


class TestTopicNode:
    def test_name_is_leaf(self):
        node = TopicNode(5, "/Arts & Entertainment/Music & Audio/Jazz")
        assert node.name == "Jazz"

    def test_parent_path(self):
        node = TopicNode(5, "/A/B/C")
        assert node.parent_path == "/A/B"

    def test_root_has_no_parent(self):
        assert TopicNode(1, "/News").parent_path is None

    def test_depth(self):
        assert TopicNode(1, "/News").depth == 1
        assert TopicNode(2, "/News/Politics").depth == 2


class TestEmbeddedData:
    def test_size_in_taxonomy_range(self, taxonomy):
        # The real Topics taxonomy has several hundred entries.
        assert 300 <= len(taxonomy) <= 800

    def test_root_count(self, taxonomy):
        # Google's taxonomy has ~two dozen top-level categories.
        assert 20 <= len(taxonomy.roots()) <= 30

    def test_ids_sequential_from_one(self):
        ids = [topic_id for topic_id, _ in taxonomy_entries()]
        assert ids == list(range(1, len(ids) + 1))

    def test_paths_unique(self):
        paths = [path for _, path in taxonomy_entries()]
        assert len(set(paths)) == len(paths)

    def test_every_parent_exists(self, taxonomy):
        for node in taxonomy:
            if node.parent_path is not None:
                assert taxonomy.by_path(node.parent_path)

    def test_expected_categories_present(self, taxonomy):
        for root in ("/News", "/Sports", "/Shopping", "/Arts & Entertainment"):
            assert taxonomy.by_path(root)


class TestTaxonomyTree:
    def test_contains_and_get(self, taxonomy):
        assert 1 in taxonomy
        assert taxonomy.get(1).topic_id == 1

    def test_get_unknown_raises(self, taxonomy):
        with pytest.raises(KeyError):
            taxonomy.get(10**6)

    def test_children_sorted(self, taxonomy):
        root = taxonomy.roots()[0]
        children = taxonomy.children(root.topic_id)
        assert [c.topic_id for c in children] == sorted(c.topic_id for c in children)

    def test_parent_child_inverse(self, taxonomy):
        for node in list(taxonomy)[:100]:
            for child in taxonomy.children(node.topic_id):
                parent = taxonomy.parent(child.topic_id)
                assert parent is not None and parent.topic_id == node.topic_id

    def test_ancestors_chain(self, taxonomy):
        deep = next(node for node in taxonomy if node.depth == 3)
        chain = taxonomy.ancestors(deep.topic_id)
        assert len(chain) == 2
        assert chain[-1].depth == 1

    def test_root_of(self, taxonomy):
        deep = next(node for node in taxonomy if node.depth == 3)
        assert taxonomy.root_of(deep.topic_id).depth == 1
        root = taxonomy.roots()[0]
        assert taxonomy.root_of(root.topic_id) == root

    def test_descendants(self, taxonomy):
        root = taxonomy.by_path("/Sports")
        descendants = taxonomy.descendants(root.topic_id)
        assert all(d.path.startswith("/Sports/") for d in descendants)
        assert len(descendants) >= 10

    def test_duplicate_id_rejected(self):
        with pytest.raises(ValueError):
            TaxonomyTree([TopicNode(1, "/A"), TopicNode(1, "/B")])

    def test_duplicate_path_rejected(self):
        with pytest.raises(ValueError):
            TaxonomyTree([TopicNode(1, "/A"), TopicNode(2, "/A")])

    def test_orphan_rejected(self):
        with pytest.raises(ValueError):
            TaxonomyTree([TopicNode(1, "/A/B")])

    def test_malformed_path_rejected(self):
        with pytest.raises(ValueError):
            TaxonomyTree([TopicNode(1, "no-slash")])


class TestIndexedAnswers:
    """The tree indexes its answers once; each must equal the per-call
    algorithm it replaced, recomputed here from the raw entries."""

    @pytest.fixture(scope="class")
    def nodes(self) -> list[TopicNode]:
        return [TopicNode(topic_id, path) for topic_id, path in taxonomy_entries()]

    def test_all_ids(self, taxonomy, nodes):
        assert taxonomy.all_ids() == sorted(node.topic_id for node in nodes)

    def test_roots(self, taxonomy, nodes):
        expected = sorted(
            (node for node in nodes if node.parent_path is None),
            key=lambda node: node.topic_id,
        )
        assert taxonomy.roots() == expected

    def test_parent_and_descendants_of_every_node(self, taxonomy, nodes):
        by_id = {node.topic_id: node for node in nodes}
        by_path = {node.path: node for node in nodes}
        children: dict[int, list[int]] = {}
        for node in nodes:
            if node.parent_path is not None:
                parent_id = by_path[node.parent_path].topic_id
                children.setdefault(parent_id, []).append(node.topic_id)
        for node in nodes:
            expected_parent = (
                by_path[node.parent_path] if node.parent_path is not None else None
            )
            assert taxonomy.parent(node.topic_id) == expected_parent
            collected: list[TopicNode] = []
            frontier = list(children.get(node.topic_id, []))
            while frontier:
                current = frontier.pop()
                collected.append(by_id[current])
                frontier.extend(children.get(current, []))
            assert taxonomy.descendants(node.topic_id) == sorted(
                collected, key=lambda found: found.topic_id
            )

    def test_returned_lists_are_fresh_copies(self):
        tree = load_default_taxonomy()
        sports = tree.by_path("/Sports").topic_id
        accessors = (
            tree.all_ids,
            tree.roots,
            lambda: tree.descendants(sports),
            lambda: tree.children(sports),
        )
        for accessor in accessors:
            first = accessor()
            expected = list(first)
            first.reverse()
            first.append(first[0])
            assert accessor() == expected
            accessor().clear()
            assert accessor() == expected


class TestClassifier:
    def test_deterministic(self, taxonomy):
        classifier = SiteClassifier(taxonomy)
        assert classifier.classify("news.example.com") == classifier.classify(
            "news.example.com"
        )

    def test_returns_one_to_three_topics(self, taxonomy):
        classifier = SiteClassifier(taxonomy)
        for host in ("a.com", "some.long.host.name.org", "x.io"):
            topics = classifier.classify(host)
            assert 1 <= len(topics) <= MAX_TOPICS_PER_SITE
            assert all(t in taxonomy for t in topics)

    def test_no_duplicate_topics(self, taxonomy):
        classifier = SiteClassifier(taxonomy)
        for index in range(50):
            topics = classifier.classify(f"site{index}.example.net")
            assert len(set(topics)) == len(topics)

    def test_override_tier_wins(self, taxonomy):
        classifier = SiteClassifier(taxonomy, overrides={"news.com": [1, 2]})
        assert classifier.classify("news.com") == (1, 2)
        assert classifier.has_override("NEWS.com")

    def test_override_case_insensitive(self, taxonomy):
        classifier = SiteClassifier(taxonomy)
        classifier.add_override("Shop.COM", [3])
        assert classifier.classify("shop.com") == (3,)

    def test_override_validation(self, taxonomy):
        classifier = SiteClassifier(taxonomy)
        with pytest.raises(ValueError):
            classifier.add_override("a.com", [])
        with pytest.raises(ValueError):
            classifier.add_override("a.com", [1, 2, 3, 4])
        with pytest.raises(ValueError):
            classifier.add_override("a.com", [10**6])

    def test_different_salts_differ(self, taxonomy):
        a = SiteClassifier(taxonomy, model_salt="m1")
        b = SiteClassifier(taxonomy, model_salt="m2")
        differing = sum(
            a.classify(f"host{i}.com") != b.classify(f"host{i}.com")
            for i in range(50)
        )
        assert differing > 25

    def test_distribution_spreads_over_taxonomy(self, taxonomy):
        classifier = SiteClassifier(taxonomy)
        seen: set[int] = set()
        for index in range(500):
            seen.update(classifier.classify(f"host-{index}.org"))
        assert len(seen) > len(taxonomy) // 4
