"""The minimal type system the IR carries.

The pointer analysis itself is untyped (objects and pointers are abstract),
but the frontend and verifier use types to decide which variables are
pointers, how many fields a struct has, and which ``FIELD`` offsets are legal.
Types are interned singletons where practical so ``is``/``==`` are cheap.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Tuple


class Type:
    """Base class for IR types."""


class IntType(Type):
    """A machine integer. One width is enough for analysis purposes."""

    _instance: Optional["IntType"] = None

    def __new__(cls) -> "IntType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "i64"


class VoidType(Type):
    """The type of functions that return nothing."""

    _instance: Optional["VoidType"] = None

    def __new__(cls) -> "VoidType":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "void"


class PointerType(Type):
    """Pointer to *pointee*.  ``PointerType.opaque()`` gives ``ptr`` (unknown
    pointee), which is what most analysis-facing code uses."""

    _cache: Dict[Optional[Type], "PointerType"] = {}

    def __new__(cls, pointee: Optional[Type] = None) -> "PointerType":
        cached = cls._cache.get(pointee)
        if cached is None:
            cached = super().__new__(cls)
            cached.pointee = pointee
            cls._cache[pointee] = cached
        return cached

    @classmethod
    def opaque(cls) -> "PointerType":
        return cls(None)

    def __repr__(self) -> str:
        if self.pointee is None:
            return "ptr"
        return f"{self.pointee!r}*"


class StructType(Type):
    """A named aggregate with an ordered list of field types."""

    def __init__(self, name: str, fields: Optional[List[Type]] = None):
        self.name = name
        self.fields: List[Type] = fields or []

    def __repr__(self) -> str:
        return f"%struct.{self.name}"


class FunctionType(Type):
    """Signature of a function: return type and parameter types."""

    def __init__(self, ret: Type, params: Tuple[Type, ...]):
        self.ret = ret
        self.params = params

    def __repr__(self) -> str:
        params = ", ".join(repr(param) for param in self.params)
        return f"{self.ret!r}({params})"


INT = IntType()
VOID = VoidType()
PTR = PointerType.opaque()
