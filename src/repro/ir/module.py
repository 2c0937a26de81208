"""The Module: a whole program plus its value/object registries.

A module owns every function, top-level variable and abstract memory object,
and assigns each a dense integer id.  Ids index the bit-set universes used by
every solver, so they are allocated once (:meth:`Module.renumber`) after the
IR has been built and transformed, and only *grow* afterwards (Andersen's
analysis derives field objects lazily).

Global variables are modelled uniformly: the frontend creates a synthetic
``__module_init__`` function that allocates global objects, runs initialiser
stores, and finally calls ``main``.  The analyses treat ``__module_init__``
as the program entry, which gives globals flow-sensitive treatment for free.
"""

from __future__ import annotations

from typing import Dict, Iterator, List, Optional, Tuple

from repro.errors import IRError
from repro.ir.function import Function
from repro.ir.instructions import Instruction
from repro.ir.values import FunctionObject, MemObject, ObjectKind, Variable

INIT_FUNCTION = "__module_init__"


class Module:
    """A program: functions, globals, and dense id registries."""

    def __init__(self, name: str = "module"):
        self.name = name
        self.functions: Dict[str, Function] = {}
        self.variables: List[Variable] = []
        self.objects: List[MemObject] = []
        self._field_cache: Dict[Tuple[int, int], MemObject] = {}
        self._numbered = False
        self._next_inst_id = 0

    # -------------------------------------------------------------- functions

    def add_function(self, function: Function) -> Function:
        if function.name in self.functions:
            raise IRError(f"duplicate function @{function.name}")
        function.module = self
        self.functions[function.name] = function
        return function

    def get_function(self, name: str) -> Function:
        try:
            return self.functions[name]
        except KeyError:
            raise IRError(f"no function named @{name}") from None

    def entry_function(self) -> Function:
        """The analysis entry: ``__module_init__`` if present, else ``main``."""
        if INIT_FUNCTION in self.functions:
            return self.functions[INIT_FUNCTION]
        if "main" in self.functions:
            return self.functions["main"]
        raise IRError("module has neither __module_init__ nor main")

    def function_object(self, function: Function) -> FunctionObject:
        """The address-taken object for *function* (created on first use)."""
        if function.obj is None:
            function.obj = FunctionObject(function)
            self._register_object(function.obj)
        return function.obj

    # ---------------------------------------------------------------- objects

    def _register_object(self, obj: MemObject) -> MemObject:
        obj.id = len(self.objects)
        self.objects.append(obj)
        return obj

    def new_object(
        self,
        name: str,
        kind: ObjectKind,
        alloc_site: Optional[object] = None,
        num_fields: int = 0,
    ) -> MemObject:
        return self._register_object(
            MemObject(name, kind, alloc_site=alloc_site, num_fields=num_fields)
        )

    def field_object(self, base: MemObject, offset: int) -> MemObject:
        """The field object ``base.f_offset``, collapsing fields-of-fields.

        Implements the paper's ``FIELD-ADDR`` rules: field objects are
        always rooted at a non-field base, with flattened offsets, and
        offset 0 of an object is the object itself (matching SVF, where a
        pointer to an aggregate aliases its first field).
        """
        if base.is_field():
            assert base.base is not None
            offset += base.offset
            base = base.base
        if offset == 0:
            return base
        if base.num_fields and offset >= base.num_fields:
            # Out-of-bounds / unknown offsets collapse to the base object
            # (field-insensitive fallback, sound).
            return base
        key = (base.id, offset)
        field = self._field_cache.get(key)
        if field is None:
            field = MemObject(f"{base.name}.f{offset}", ObjectKind.FIELD, base=base, offset=offset)
            field.is_singleton = base.is_singleton
            self._register_object(field)
            self._field_cache[key] = field
        return field

    # -------------------------------------------------------------- variables

    def register_variable(self, var: Variable) -> Variable:
        if var.id == -1:
            var.id = len(self.variables)
            self.variables.append(var)
        return var

    # -------------------------------------------------------------- numbering

    def register_instruction(self, inst: Instruction) -> None:
        """Assign a module-unique label (the paper's ℓ) to *inst*."""
        if inst.id == -1:
            inst.id = self._next_inst_id
            self._next_inst_id += 1

    def renumber(self) -> None:
        """(Re)assign dense ids to every instruction and variable.

        Deterministic: functions in insertion order, blocks in order,
        instructions in order.  Objects keep their registration order.
        Idempotent; call after the last IR-mutating pass.
        """
        self._next_inst_id = 0
        for var in self.variables:
            var.id = -1
        self.variables = []
        for function in self.functions.values():
            for param in function.params:
                self.register_variable(param)
            for block in function.blocks:
                for inst in block.instructions:
                    inst.id = -1
        for function in self.functions.values():
            for block in function.blocks:
                for inst in block.instructions:
                    self.register_instruction(inst)
                    result = inst.result()
                    if result is not None:
                        self.register_variable(result)
                    for operand in inst.operands():
                        if isinstance(operand, Variable):
                            self.register_variable(operand)
        self._numbered = True

    def instructions(self) -> Iterator[Instruction]:
        for function in self.functions.values():
            yield from function.instructions()

    def __repr__(self) -> str:
        return f"<module {self.name}: {len(self.functions)} functions, {len(self.objects)} objects>"
