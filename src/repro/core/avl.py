"""AVL tree index.

The paper's Journal Server indexes interface records "by three AVL
trees, for lookups by Ethernet address, IP address, and DNS name ...
This allows quick access to individual data records, as well as access
to ranges of records."  This is that structure: a self-balancing binary
search tree mapping orderable keys to lists of values (several records
may share a key — that duplication is itself a finding), with ordered
iteration and range scans.

It is the paper's structure, kept for the index ablation
(``benchmarks/bench_ablation_indexes.py``) and as the test oracle for
:class:`~repro.core.journal.SortedIndex`, which the Journal uses
instead: in Python a hash map plus a blocked sorted list serves the
same lookups and ranges several times faster per write.
"""

from __future__ import annotations

from typing import Generic, Iterator, List, Optional, Tuple, TypeVar

__all__ = ["AvlTree"]

K = TypeVar("K")
V = TypeVar("V")


class _Node(Generic[K, V]):
    __slots__ = ("key", "values", "left", "right", "height")

    def __init__(self, key: K, value: V) -> None:
        self.key = key
        self.values: List[V] = [value]
        self.left: Optional["_Node[K, V]"] = None
        self.right: Optional["_Node[K, V]"] = None
        self.height = 1


def _height(node: Optional[_Node]) -> int:
    return node.height if node is not None else 0


def _update(node: _Node) -> None:
    node.height = 1 + max(_height(node.left), _height(node.right))


def _balance_factor(node: _Node) -> int:
    return _height(node.left) - _height(node.right)


def _rotate_right(node: _Node) -> _Node:
    pivot = node.left
    assert pivot is not None
    node.left = pivot.right
    pivot.right = node
    _update(node)
    _update(pivot)
    return pivot


def _rotate_left(node: _Node) -> _Node:
    pivot = node.right
    assert pivot is not None
    node.right = pivot.left
    pivot.left = node
    _update(node)
    _update(pivot)
    return pivot


def _rebalance(node: _Node) -> _Node:
    _update(node)
    balance = _balance_factor(node)
    if balance > 1:
        assert node.left is not None
        if _balance_factor(node.left) < 0:
            node.left = _rotate_left(node.left)
        return _rotate_right(node)
    if balance < -1:
        assert node.right is not None
        if _balance_factor(node.right) > 0:
            node.right = _rotate_right(node.right)
        return _rotate_left(node)
    return node


class AvlTree(Generic[K, V]):
    """A key-ordered multimap backed by an AVL tree."""

    def __init__(self) -> None:
        self._root: Optional[_Node[K, V]] = None
        self._key_count = 0
        self._value_count = 0

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------

    def insert(self, key: K, value: V) -> None:
        """Add *value* under *key* (duplicate keys accumulate values)."""
        self._root = self._insert(self._root, key, value)
        self._value_count += 1

    def _insert(self, node: Optional[_Node[K, V]], key: K, value: V) -> _Node[K, V]:
        if node is None:
            self._key_count += 1
            return _Node(key, value)
        if key == node.key:
            node.values.append(value)
            return node
        if key < node.key:
            node.left = self._insert(node.left, key, value)
        else:
            node.right = self._insert(node.right, key, value)
        return _rebalance(node)

    def remove(self, key: K, value: V) -> bool:
        """Remove one (key, value) pair.  Returns True if it was present."""
        found = [False]
        self._root = self._remove(self._root, key, value, found)
        if found[0]:
            self._value_count -= 1
        return found[0]

    def _remove(
        self,
        node: Optional[_Node[K, V]],
        key: K,
        value: V,
        found: List[bool],
    ) -> Optional[_Node[K, V]]:
        if node is None:
            return None
        if key < node.key:
            node.left = self._remove(node.left, key, value, found)
        elif key > node.key:
            node.right = self._remove(node.right, key, value, found)
        else:
            if value in node.values:
                node.values.remove(value)
                found[0] = True
            if node.values:
                return _rebalance(node)
            # Key is now empty: unlink this node.
            self._key_count -= 1
            if node.left is None:
                return node.right
            if node.right is None:
                return node.left
            successor = node.right
            while successor.left is not None:
                successor = successor.left
            node.key = successor.key
            node.values = successor.values
            successor.values = []
            # Delete the successor shell (its values were moved).
            node.right = self._remove_emptied(node.right)
            self._key_count += 1  # compensate: shell removal decrements
            return _rebalance(node)
        return _rebalance(node)

    def _remove_emptied(self, node: Optional[_Node[K, V]]) -> Optional[_Node[K, V]]:
        """Remove the leftmost node that holds no values."""
        assert node is not None
        if node.left is None:
            if not node.values:
                self._key_count -= 1
                return node.right
            return node
        node.left = self._remove_emptied(node.left)
        return _rebalance(node)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def get(self, key: K) -> List[V]:
        """All values stored under *key* (empty list if none)."""
        node = self._root
        while node is not None:
            if key == node.key:
                return list(node.values)
            node = node.left if key < node.key else node.right
        return []

    def __contains__(self, key: K) -> bool:
        return bool(self.get(key))

    def items(self) -> Iterator[Tuple[K, V]]:
        """All (key, value) pairs in key order."""
        yield from self._walk(self._root)

    def _walk(self, node: Optional[_Node[K, V]]) -> Iterator[Tuple[K, V]]:
        if node is None:
            return
        yield from self._walk(node.left)
        for value in node.values:
            yield node.key, value
        yield from self._walk(node.right)

    def keys(self) -> Iterator[K]:
        """Distinct keys in ascending order."""

        def walk(node: Optional[_Node[K, V]]) -> Iterator[K]:
            if node is None:
                return
            yield from walk(node.left)
            yield node.key
            yield from walk(node.right)

        yield from walk(self._root)

    def range(self, low: K, high: K) -> Iterator[Tuple[K, V]]:
        """(key, value) pairs with low <= key <= high, in key order."""
        yield from self._range(self._root, low, high)

    def _range(
        self, node: Optional[_Node[K, V]], low: K, high: K
    ) -> Iterator[Tuple[K, V]]:
        if node is None:
            return
        if low < node.key:
            yield from self._range(node.left, low, high)
        if low <= node.key <= high:
            for value in node.values:
                yield node.key, value
        if node.key < high:
            yield from self._range(node.right, low, high)

    def minimum(self) -> Optional[K]:
        node = self._root
        if node is None:
            return None
        while node.left is not None:
            node = node.left
        return node.key

    def maximum(self) -> Optional[K]:
        node = self._root
        if node is None:
            return None
        while node.right is not None:
            node = node.right
        return node.key

    # ------------------------------------------------------------------
    # Introspection (used by tests and the index ablation benchmark)
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Number of stored values (not distinct keys)."""
        return self._value_count

    @property
    def key_count(self) -> int:
        return self._key_count

    @property
    def height(self) -> int:
        return _height(self._root)

    def check_invariants(self) -> None:
        """Raise AssertionError if BST ordering or AVL balance is violated."""

        def check(node: Optional[_Node[K, V]]) -> Tuple[int, Optional[K], Optional[K]]:
            if node is None:
                return 0, None, None
            left_height, left_min, left_max = check(node.left)
            right_height, right_min, right_max = check(node.right)
            if left_max is not None:
                assert left_max < node.key, "left subtree violates ordering"
            if right_min is not None:
                assert node.key < right_min, "right subtree violates ordering"
            assert abs(left_height - right_height) <= 1, "unbalanced node"
            height = 1 + max(left_height, right_height)
            assert node.height == height, "stale height"
            minimum = left_min if left_min is not None else node.key
            maximum = right_max if right_max is not None else node.key
            return height, minimum, maximum

        check(self._root)
