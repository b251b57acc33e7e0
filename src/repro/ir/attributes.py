"""Attribute system for the SSA+Regions IR.

Attributes are immutable pieces of compile-time information attached to
operations (e.g. the value of a constant, the bounds of a stencil field).
Types are themselves attributes marked with :class:`TypeAttribute`, mirroring
the MLIR/xDSL design where ``i32`` and ``42 : i32`` live in the same
attribute universe.

Every attribute must be hashable and comparable by value so that rewrites and
CSE can treat them as plain data.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence


class Attribute:
    """Base class of all attributes.

    Subclasses must set ``name`` (``dialect.attrname``) and should be
    immutable after construction.  Equality and hashing are structural,
    derived from :meth:`parameters`.
    """

    name: str = "builtin.abstract"

    __slots__ = ("_hash",)

    def parameters(self) -> tuple:
        """Return the tuple of values that define this attribute."""
        raise NotImplementedError

    def __eq__(self, other: object) -> bool:
        if self is other:
            return True
        if type(self) is not type(other) or hash(self) != hash(other):
            return False
        return self.parameters() == other.parameters()  # type: ignore[union-attr]

    def __hash__(self) -> int:
        # Computed once: attributes are immutable after construction.
        try:
            return self._hash
        except AttributeError:
            self._hash = hash((type(self).__name__, self.parameters()))
            return self._hash

    def __setstate__(self, state: "dict | tuple") -> None:
        """Unpickle without the cached hash: ``str`` hashes differ per process."""
        fields, slots = state if isinstance(state, tuple) else (state, None)
        for name, value in {**(fields or {}), **(slots or {})}.items():
            if name != "_hash":
                object.__setattr__(self, name, value)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        params = ", ".join(repr(p) for p in self.parameters())
        return f"{type(self).__name__}({params})"


class TypeAttribute(Attribute):
    """Marker base class: attributes that can be used as SSA value types."""

    name = "builtin.abstract_type"


class Data(Attribute):
    """An attribute wrapping a single python value."""

    __slots__ = ("data",)

    def __init__(self, data: Any):
        self.data = data

    def parameters(self) -> tuple:
        return (self.data,)


class IntAttr(Data):
    """A bare integer attribute (no associated IR type)."""

    name = "builtin.int"

    def __init__(self, data: int):
        super().__init__(int(data))


class StringAttr(Data):
    """A string attribute."""

    name = "builtin.string"

    def __init__(self, data: str):
        super().__init__(str(data))


class BoolAttr(Data):
    """A boolean attribute."""

    name = "builtin.bool"

    def __init__(self, data: bool):
        super().__init__(bool(data))


class UnitAttr(Attribute):
    """An attribute that carries no data; its presence is the information."""

    name = "builtin.unit"

    def parameters(self) -> tuple:
        return ()


class ArrayAttr(Attribute):
    """An ordered, immutable collection of attributes."""

    name = "builtin.array"

    __slots__ = ("data",)

    def __init__(self, data: Iterable[Attribute]):
        self.data: tuple[Attribute, ...] = tuple(data)

    def parameters(self) -> tuple:
        return (self.data,)

    def __iter__(self) -> Iterator[Attribute]:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)

    def __getitem__(self, index: int) -> Attribute:
        return self.data[index]


class DictionaryAttr(Attribute):
    """A name -> attribute mapping."""

    name = "builtin.dictionary"

    __slots__ = ("data",)

    def __init__(self, data: dict[str, Attribute]):
        self.data: dict[str, Attribute] = dict(data)

    def parameters(self) -> tuple:
        return (tuple(sorted(self.data.items(), key=lambda kv: kv[0])),)

    def __getitem__(self, key: str) -> Attribute:
        return self.data[key]

    def __contains__(self, key: str) -> bool:
        return key in self.data


class SymbolRefAttr(Attribute):
    """A reference to a symbol (e.g. a function) by name."""

    name = "builtin.symbol_ref"

    __slots__ = ("root",)

    def __init__(self, root: str | StringAttr):
        self.root = root.data if isinstance(root, StringAttr) else str(root)

    def parameters(self) -> tuple:
        return (self.root,)

    @property
    def string_value(self) -> str:
        return self.root


class IntegerAttr(Attribute):
    """An integer value together with its IR integer/index type."""

    name = "builtin.integer"

    __slots__ = ("value", "type")

    def __init__(self, value: int, type: TypeAttribute):
        self.value = int(value)
        self.type = type

    def parameters(self) -> tuple:
        return (self.value, self.type)


class FloatAttr(Attribute):
    """A floating point value together with its IR float type."""

    name = "builtin.float"

    __slots__ = ("value", "type")

    def __init__(self, value: float, type: TypeAttribute):
        self.value = float(value)
        self.type = type

    def parameters(self) -> tuple:
        return (self.value, self.type)


class DenseArrayAttr(Attribute):
    """A dense array of integers or floats (used for static index lists)."""

    name = "builtin.dense_array"

    __slots__ = ("data", "element_type")

    def __init__(self, data: Sequence[int | float], element_type: TypeAttribute):
        self.data: tuple = tuple(data)
        self.element_type = element_type

    def parameters(self) -> tuple:
        return (self.data, self.element_type)

    def __iter__(self) -> Iterator:
        return iter(self.data)

    def __len__(self) -> int:
        return len(self.data)
