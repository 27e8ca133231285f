"""Attribute schema and wildcard attribute combinations.

This module provides the vocabulary of the paper's data model:

* :class:`AttributeSchema` — the ordered list of attributes of the monitored
  system together with the element set of every attribute (Table I of the
  paper: Location x 33, Access Type x 4, OS x 4, Website x 20).
* :class:`AttributeCombination` — a tuple such as ``(L1, *, *, Site1)``
  where ``*`` is a wildcard meaning "any element".  The most fine-grained
  combinations (no wildcard at all) are the *leaf* combinations; every other
  combination covers the set of leaves it matches.

Attribute combinations form a lattice ordered by the parent/child relation:
``p`` is a *parent* of ``c`` when ``p`` can be obtained from ``c`` by
replacing exactly one specified attribute with a wildcard.  ``p`` is an
*ancestor* of ``c`` when ``p`` matches every leaf that ``c`` matches and
specifies a strict subset of ``c``'s attributes with identical elements.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

__all__ = ["WILDCARD", "AttributeSchema", "AttributeCombination"]

#: The textual wildcard used by the paper's notation, e.g. ``(L1, *, *, Site1)``.
WILDCARD = "*"


class AttributeSchema:
    """Ordered attributes of a monitored system and their element sets.

    The schema is immutable.  Elements are identified both by their string
    name and by a dense integer *code* (their index in the element tuple),
    which is what the vectorized dataset operations use.

    Parameters
    ----------
    attributes:
        Mapping from attribute name to the sequence of its elements, in
        order.  A regular ``dict`` preserves insertion order, which defines
        the attribute order of the schema.

    Examples
    --------
    >>> schema = AttributeSchema({"location": ["L1", "L2"], "os": ["android", "ios"]})
    >>> schema.names
    ('location', 'os')
    >>> schema.size('location')
    2
    >>> schema.n_leaves
    4
    """

    __slots__ = ("_names", "_elements", "_name_index", "_element_index")

    def __init__(self, attributes: Mapping[str, Sequence[str]]):
        if not attributes:
            raise ValueError("schema needs at least one attribute")
        names: List[str] = []
        elements: List[Tuple[str, ...]] = []
        for name, elems in attributes.items():
            elems = tuple(elems)
            if not elems:
                raise ValueError(f"attribute {name!r} has no elements")
            if len(set(elems)) != len(elems):
                raise ValueError(f"attribute {name!r} has duplicate elements")
            if WILDCARD in elems:
                raise ValueError(f"attribute {name!r} uses the reserved element {WILDCARD!r}")
            names.append(name)
            elements.append(elems)
        self._names: Tuple[str, ...] = tuple(names)
        self._elements: Tuple[Tuple[str, ...], ...] = tuple(elements)
        self._name_index: Dict[str, int] = {n: i for i, n in enumerate(self._names)}
        self._element_index: Tuple[Dict[str, int], ...] = tuple(
            {e: i for i, e in enumerate(elems)} for elems in self._elements
        )

    # -- basic introspection -------------------------------------------------

    @property
    def names(self) -> Tuple[str, ...]:
        """Attribute names, in schema order."""
        return self._names

    @property
    def n_attributes(self) -> int:
        """Number of attributes (``n`` in the paper)."""
        return len(self._names)

    def elements(self, attribute) -> Tuple[str, ...]:
        """Element names of *attribute* (given by name or index)."""
        return self._elements[self.index_of(attribute)]

    def size(self, attribute) -> int:
        """``l(attr)``: the number of elements of *attribute*."""
        return len(self.elements(attribute))

    @property
    def sizes(self) -> Tuple[int, ...]:
        """Element counts per attribute, in schema order."""
        return tuple(len(e) for e in self._elements)

    @property
    def n_leaves(self) -> int:
        """Size of the most fine-grained cuboid (product of all sizes)."""
        total = 1
        for s in self.sizes:
            total *= s
        return total

    def index_of(self, attribute) -> int:
        """Resolve an attribute given by name or index to its index."""
        if isinstance(attribute, int):
            if not 0 <= attribute < self.n_attributes:
                raise IndexError(f"attribute index {attribute} out of range")
            return attribute
        try:
            return self._name_index[attribute]
        except KeyError:
            raise KeyError(f"unknown attribute {attribute!r}") from None

    # -- element encoding ----------------------------------------------------

    def encode(self, attribute, element: str) -> int:
        """Integer code of *element* within *attribute*."""
        idx = self.index_of(attribute)
        try:
            return self._element_index[idx][element]
        except KeyError:
            raise KeyError(
                f"unknown element {element!r} for attribute {self._names[idx]!r}"
            ) from None

    def decode(self, attribute, code: int) -> str:
        """Element name for integer *code* within *attribute*."""
        idx = self.index_of(attribute)
        elems = self._elements[idx]
        if not 0 <= code < len(elems):
            raise IndexError(f"code {code} out of range for attribute {self._names[idx]!r}")
        return elems[code]

    def combination(
        self, indices: Sequence[int], codes: Sequence[int]
    ) -> "AttributeCombination":
        """Decode ``codes[p]`` of attribute ``indices[p]``; the others are ``*``."""
        values: List[Optional[str]] = [None] * len(self._names)
        for attr_index, code in zip(indices, codes):
            values[attr_index] = self.decode(attr_index, int(code))
        return AttributeCombination(values)

    # -- leaf enumeration ----------------------------------------------------

    def iter_leaf_values(self) -> Iterator[Tuple[str, ...]]:
        """Iterate all leaf value tuples in lexicographic (row-major) order."""
        return itertools.product(*self._elements)

    def leaf(self, values: Sequence[str]) -> "AttributeCombination":
        """Build the fully-specified (leaf) combination for *values*."""
        ac = AttributeCombination(values)
        if ac.layer != self.n_attributes:
            raise ValueError("a leaf combination must specify every attribute")
        self.validate(ac)
        return ac

    def validate(self, combination: "AttributeCombination") -> None:
        """Raise if *combination* does not fit this schema."""
        if len(combination.values) != self.n_attributes:
            raise ValueError(
                f"combination has {len(combination.values)} positions, "
                f"schema has {self.n_attributes} attributes"
            )
        for i, value in enumerate(combination.values):
            if value is not None and value not in self._element_index[i]:
                raise KeyError(
                    f"unknown element {value!r} for attribute {self._names[i]!r}"
                )

    # -- dunder --------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, AttributeSchema)
            and self._names == other._names
            and self._elements == other._elements
        )

    def __hash__(self) -> int:
        return hash((self._names, self._elements))

    def __repr__(self) -> str:
        parts = ", ".join(f"{n}[{len(e)}]" for n, e in zip(self._names, self._elements))
        return f"AttributeSchema({parts})"


@dataclass(frozen=True)
class AttributeCombination:
    """A (possibly wildcarded) attribute combination such as ``(L1, *, *, Site1)``.

    ``values`` holds one entry per schema attribute; ``None`` is the wildcard.
    Instances are immutable, hashable, and ordered lexicographically with
    wildcards sorting first, so combination sets have a deterministic order.
    """

    values: Tuple[Optional[str], ...]

    def __init__(self, values: Iterable[Optional[str]]):
        normalized = tuple(None if v in (None, WILDCARD) else v for v in values)
        object.__setattr__(self, "values", normalized)

    # -- structure -----------------------------------------------------------

    @property
    def layer(self) -> int:
        """Number of specified (non-wildcard) attributes; the BFS layer index."""
        return sum(1 for v in self.values if v is not None)

    @property
    def specified_indices(self) -> Tuple[int, ...]:
        """Indices of the specified attributes (the combination's cuboid)."""
        return tuple(i for i, v in enumerate(self.values) if v is not None)

    @property
    def is_total(self) -> bool:
        """True for the all-wildcard combination covering the entire system."""
        return self.layer == 0

    def is_leaf(self, schema: AttributeSchema) -> bool:
        """True when every attribute of *schema* is specified."""
        return self.layer == len(schema.names) == len(self.values)

    # -- lattice relations ---------------------------------------------------

    def matches(self, leaf_values: Sequence[Optional[str]]) -> bool:
        """True when this combination covers the (leaf) value tuple."""
        if len(leaf_values) != len(self.values):
            raise ValueError("value tuple length does not match combination arity")
        return all(v is None or v == w for v, w in zip(self.values, leaf_values))

    def is_ancestor_of(self, other: "AttributeCombination") -> bool:
        """Strict ancestor: covers *other* and is strictly coarser."""
        if len(other.values) != len(self.values):
            raise ValueError("combination arities differ")
        if self.layer >= other.layer:
            return False
        return all(v is None or v == w for v, w in zip(self.values, other.values))

    def is_descendant_of(self, other: "AttributeCombination") -> bool:
        """Strict descendant: the converse of :meth:`is_ancestor_of`."""
        return other.is_ancestor_of(self)

    def parents(self) -> List["AttributeCombination"]:
        """Direct parents: one specified attribute replaced by a wildcard.

        The total combination (layer 0) has no parents, matching the paper's
        ``Parents()`` — layer-1 combinations are the roots of the DAG in
        Fig. 7.
        """
        result = []
        for i in self.specified_indices:
            values = list(self.values)
            values[i] = None
            result.append(AttributeCombination(values))
        return result

    def children(self, schema: AttributeSchema) -> List["AttributeCombination"]:
        """Direct children: one wildcard attribute bound to each of its elements."""
        schema.validate(self)
        result = []
        for i, v in enumerate(self.values):
            if v is not None:
                continue
            for element in schema.elements(i):
                values = list(self.values)
                values[i] = element
                result.append(AttributeCombination(values))
        return result

    def ancestors(self) -> List["AttributeCombination"]:
        """All strict ancestors (every sub-specification), excluding layer 0."""
        spec = self.specified_indices
        result = []
        for r in range(1, len(spec)):
            for keep in itertools.combinations(spec, r):
                values: List[Optional[str]] = [None] * len(self.values)
                for i in keep:
                    values[i] = self.values[i]
                result.append(AttributeCombination(values))
        return result

    def n_covered_leaves(self, schema: AttributeSchema) -> int:
        """Number of leaf combinations covered (product of free attribute sizes)."""
        schema.validate(self)
        total = 1
        for i, v in enumerate(self.values):
            if v is None:
                total *= schema.size(i)
        return total

    # -- formatting ----------------------------------------------------------

    @classmethod
    def parse(cls, text: str) -> "AttributeCombination":
        """Parse the paper's notation, e.g. ``"(L1, *, *, Site1)"``."""
        inner = text.strip()
        if inner.startswith("(") and inner.endswith(")"):
            inner = inner[1:-1]
        parts = [p.strip() for p in inner.split(",")]
        if parts == [""]:
            raise ValueError(f"cannot parse combination from {text!r}")
        return cls(parts)

    def __str__(self) -> str:
        return "(" + ", ".join(WILDCARD if v is None else v for v in self.values) + ")"

    def sort_key(self) -> Tuple:
        """Deterministic ordering key (wildcards first, then element names)."""
        return tuple(("", "") if v is None else ("~", v) for v in self.values)

    def __lt__(self, other: "AttributeCombination") -> bool:
        return self.sort_key() < other.sort_key()
