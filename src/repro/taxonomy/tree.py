"""Taxonomy tree: topic nodes, parent/child structure, lookups.

Topics are identified by small integers (as in Chrome) and named by their
full slash-separated path, e.g. ``/Arts & Entertainment/Music & Audio``.
Parentage is derived from the path, exactly as in the published taxonomy
file.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator


@dataclass(frozen=True, slots=True)
class TopicNode:
    """One taxonomy entry."""

    topic_id: int
    path: str

    @property
    def name(self) -> str:
        """Leaf name — the last path component.

        >>> TopicNode(1, "/Arts & Entertainment").name
        'Arts & Entertainment'
        """
        return self.path.rsplit("/", 1)[-1]

    @property
    def parent_path(self) -> str | None:
        """Path of the parent entry, or None for a root category."""
        head, _, __ = self.path.rpartition("/")
        return head or None

    @property
    def depth(self) -> int:
        """Root categories have depth 1."""
        return self.path.count("/")


class TaxonomyTree:
    """Immutable lookup structure over a set of :class:`TopicNode` entries.

    Every structural answer (id order, roots, parents, descendants) is
    computed once at construction; the list-returning accessors hand out
    a fresh copy, so a caller may mutate what it gets.
    """

    def __init__(self, entries: Iterable[TopicNode]) -> None:
        self._by_id: dict[int, TopicNode] = {}
        self._by_path: dict[str, TopicNode] = {}
        self._children: dict[int, list[int]] = {}
        for node in entries:
            if node.topic_id in self._by_id:
                raise ValueError(f"duplicate topic id {node.topic_id}")
            if node.path in self._by_path:
                raise ValueError(f"duplicate topic path {node.path!r}")
            if not node.path.startswith("/") or node.path.endswith("/"):
                raise ValueError(f"malformed topic path {node.path!r}")
            self._by_id[node.topic_id] = node
            self._by_path[node.path] = node
        self._ids: tuple[int, ...] = tuple(sorted(self._by_id))
        self._nodes: tuple[TopicNode, ...] = tuple(self._by_id[i] for i in self._ids)
        self._parent: dict[int, TopicNode | None] = {}
        for node in self._nodes:
            parent_path = node.parent_path
            if parent_path is None:
                self._parent[node.topic_id] = None
                continue
            parent = self._by_path.get(parent_path)
            if parent is None:
                raise ValueError(f"topic {node.path!r} has no parent entry")
            self._parent[node.topic_id] = parent
            self._children.setdefault(parent.topic_id, []).append(node.topic_id)
        self._roots: tuple[TopicNode, ...] = tuple(
            node for node in self._nodes if self._parent[node.topic_id] is None
        )
        # Visiting nodes in id order appends each to every ancestor's
        # list, so each descendant list comes out already in id order.
        descendants: dict[int, list[TopicNode]] = {}
        for node in self._nodes:
            ancestor = self._parent[node.topic_id]
            while ancestor is not None:
                descendants.setdefault(ancestor.topic_id, []).append(node)
                ancestor = self._parent[ancestor.topic_id]
        self._descendants: dict[int, tuple[TopicNode, ...]] = {
            topic_id: tuple(nodes) for topic_id, nodes in descendants.items()
        }

    def __len__(self) -> int:
        return len(self._by_id)

    def __contains__(self, topic_id: int) -> bool:
        return topic_id in self._by_id

    def __iter__(self) -> Iterator[TopicNode]:
        return iter(self._nodes)

    def get(self, topic_id: int) -> TopicNode:
        """Node by id; raises KeyError for unknown ids."""
        return self._by_id[topic_id]

    def by_path(self, path: str) -> TopicNode:
        """Node by full path; raises KeyError for unknown paths."""
        return self._by_path[path]

    def all_ids(self) -> list[int]:
        """All topic ids, ascending."""
        return list(self._ids)

    def roots(self) -> list[TopicNode]:
        """The top-level categories, in id order."""
        return list(self._roots)

    def children(self, topic_id: int) -> list[TopicNode]:
        """Direct children of a node (empty list for leaves)."""
        return [self._by_id[cid] for cid in self._children.get(topic_id, [])]

    def parent(self, topic_id: int) -> TopicNode | None:
        """Parent node, or None for roots."""
        return self._parent[topic_id]

    def ancestors(self, topic_id: int) -> list[TopicNode]:
        """Ancestor chain from the node's parent up to its root category."""
        chain: list[TopicNode] = []
        node = self.parent(topic_id)
        while node is not None:
            chain.append(node)
            node = self.parent(node.topic_id)
        return chain

    def root_of(self, topic_id: int) -> TopicNode:
        """The top-level category a topic belongs to (itself, for roots)."""
        chain = self.ancestors(topic_id)
        return chain[-1] if chain else self._by_id[topic_id]

    def descendants(self, topic_id: int) -> list[TopicNode]:
        """All strict descendants of a node, in id order."""
        return list(self._descendants.get(topic_id, ()))


def load_default_taxonomy() -> TaxonomyTree:
    """Build the tree from the embedded taxonomy data."""
    from repro.taxonomy.data import taxonomy_entries

    return TaxonomyTree(
        TopicNode(topic_id, path) for topic_id, path in taxonomy_entries()
    )
