"""Basic blocks: straight-line instruction sequences ended by a terminator."""

from __future__ import annotations

from typing import Iterator, List, Optional, TYPE_CHECKING

from repro.ir.instructions import BranchInst, Instruction, PhiInst

if TYPE_CHECKING:
    from repro.ir.function import Function


class BasicBlock:
    """A CFG node. Instructions run in order; the last one is a terminator
    (:class:`BranchInst` or :class:`RetInst`) once the block is complete."""

    __slots__ = ("name", "function", "instructions")

    def __init__(self, name: str, function: "Function"):
        self.name = name
        self.function = function
        self.instructions: List[Instruction] = []

    def append(self, inst: Instruction) -> Instruction:
        if self.is_terminated():
            raise ValueError(f"block {self.name} is already terminated")
        inst.block = self
        self.instructions.append(inst)
        return inst

    def insert_front(self, inst: Instruction) -> Instruction:
        """Insert *inst* before all existing instructions (after any phis if
        *inst* is not a phi — phis must stay grouped at the block head)."""
        inst.block = self
        if isinstance(inst, PhiInst):
            self.instructions.insert(0, inst)
        else:
            index = 0
            while index < len(self.instructions) and isinstance(self.instructions[index], PhiInst):
                index += 1
            self.instructions.insert(index, inst)
        return inst

    def terminator(self) -> Optional[Instruction]:
        if self.instructions and self.instructions[-1].is_terminator():
            return self.instructions[-1]
        return None

    def is_terminated(self) -> bool:
        return self.terminator() is not None

    def successors(self) -> List["BasicBlock"]:
        term = self.terminator()
        if isinstance(term, BranchInst):
            # Deduplicate: both arms of a conditional may share a target.
            seen: List[BasicBlock] = []
            for target in term.targets:
                if target not in seen:
                    seen.append(target)
            return seen
        return []

    def predecessors(self) -> List["BasicBlock"]:
        return [block for block in self.function.blocks if self in block.successors()]

    def phis(self) -> List[PhiInst]:
        return [inst for inst in self.instructions if isinstance(inst, PhiInst)]

    def __iter__(self) -> Iterator[Instruction]:
        return iter(self.instructions)

    def __len__(self) -> int:
        return len(self.instructions)

    def __repr__(self) -> str:
        return f"<block {self.function.name}:{self.name}>"
