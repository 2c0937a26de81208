"""Benchmark inputs: seeded mini-C programs and edit scripts.

The generator is the suite generator of ``repro.bench.workloads`` carried
over statement for statement (same random draws, same text), so that the
benchmark's inputs stay fixed while the program under test changes.  It
adds one knob, an identifier prefix, which the benchmark uses two ways:

- **seeds.**  Seed 0 generates the suite programs exactly as the suite
  defines them.  Seed ``s > 0`` prefixes every identifier with ``s<s>_``.
  The program's shape is kept, because reseeding the generator moves the
  analysis cost of a suite config by up to 2x (mruby SFS: 2.4-4.4 s over
  five seeds), which would swamp any change the benchmark is meant to
  see.  What the seed does change is every name, so no cache keyed on
  text can carry over, and the constants the edit-mix edits assign.
- **units.**  The edit-mix program is four generated units, each with
  its own prefix (``u0_`` ...), whose ``main`` functions are called from
  one shared ``main``.  Units share no identifier, so no value can flow
  between them.

Nothing here imports ``repro``: the parent process only generates text.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Dict, List, Tuple


@dataclass(frozen=True)
class Config:
    """One generator configuration (the suite's ``WorkloadConfig`` knobs)."""

    name: str
    seed: int
    functions: int
    stmts: int
    globals_: int
    handlers: int
    indirect: float
    fields: int = 4
    store_rate: float = 0.25
    branch_rate: float = 0.25
    loop_rate: float = 0.1
    malloc_rate: float = 0.15
    recursion_rate: float = 0.02


def _suite(name: str, seed: int, functions: int, stmts: int, globals_: int,
           handlers: int, indirect: float) -> Config:
    return Config(name, seed, functions, stmts, globals_, handlers, indirect)


#: The suite configs the workloads use, as ``repro.bench.workloads.SUITE``
#: defines them.
SUITE: Dict[str, Config] = {cfg.name: cfg for cfg in [
    _suite("du", 101, 6, 8, 4, 1, 0.05),
    _suite("astyle", 109, 14, 12, 7, 3, 0.25),
    _suite("tmux", 110, 15, 12, 8, 2, 0.12),
    _suite("mruby", 111, 16, 11, 8, 2, 0.10),
    _suite("lynx", 114, 21, 13, 10, 3, 0.20),
    _suite("hyriseConsole", 115, 23, 14, 10, 4, 0.22),
]}


class Unit:
    """Generated source of one program or unit, plus what edits need.

    ``functions`` maps each worker function's name to its lines (header
    to closing brace); ``header`` and ``main`` hold the remaining lines.
    """

    def __init__(self, prefix: str):
        self.prefix = prefix
        self.header: List[str] = []
        self.functions: Dict[str, List[str]] = {}
        self.main: List[str] = []

    def lines(self) -> List[str]:
        out = list(self.header)
        for body in self.functions.values():
            out.extend(body)
        out.extend(self.main)
        return out

    def source(self) -> str:
        return "\n".join(self.lines()) + "\n"


class _Generator:
    """Emits one deterministic mini-C translation unit.

    Every random draw happens in the same order as in the suite
    generator; ``p`` (the prefix) only changes the spelling of names.
    """

    def __init__(self, config: Config, prefix: str, main_name: str):
        self.config = config
        self.p = prefix
        self.main_name = main_name
        self.rng = random.Random(config.seed)
        self.unit = Unit(prefix)
        self.lines: List[str] = self.unit.header
        self._label = 0

    def emit(self, line: str, indent: int = 0) -> None:
        self.lines.append("    " * indent + line)

    def fresh(self, hint: str) -> str:
        self._label += 1
        return f"{self.p}{hint}{self._label}"

    def any_global(self) -> str:
        return f"{self.p}g{self.rng.randrange(self.config.globals_)}"

    def field(self) -> str:
        return f"{self.p}f{self.rng.randrange(self.config.fields)}"

    def generate(self) -> Unit:
        cfg, p = self.config, self.p
        fields = "".join(f" struct {p}node *{p}f{i};"
                         for i in range(cfg.fields))
        self.emit(f"struct {p}node {{ int val;{fields} }};")
        self.emit("")
        for i in range(cfg.globals_):
            self.emit(f"struct {p}node *{p}g{i};")
        for i in range(cfg.handlers):
            self.emit(f"fnptr {p}h{i};")
        self.emit("")
        for index in range(cfg.functions):
            name = f"{p}fn{index}"
            self.lines = self.unit.functions[name] = []
            self._function(index)
        self.lines = self.unit.main
        self._main()
        return self.unit

    def _ptr_expr(self, locals_: List[str]) -> str:
        rng = self.rng
        choice = rng.random()
        pool = locals_ + [self.any_global()]
        base = rng.choice(pool)
        if choice < 0.35:
            return base
        if choice < 0.7:
            return f"{base}->{self.field()}"
        if choice < 0.85:
            return self.any_global()
        return f"{base}->{self.field()}->{self.field()}"

    def _statement(self, locals_: List[str], indent: int, depth: int,
                   fn_index: int, in_loop: bool = False) -> None:
        cfg, rng, p = self.config, self.rng, self.p
        roll = rng.random()
        if roll < cfg.branch_rate and depth < 3:
            self.emit(f"if ({rng.choice(locals_)} != null) {{", indent)
            then_scope = list(locals_)
            for __ in range(rng.randrange(1, 3)):
                self._statement(then_scope, indent + 1, depth + 1, fn_index,
                                in_loop)
            if in_loop and rng.random() < 0.25:
                self.emit(rng.choice(["break;", "continue;"]), indent + 1)
            self.emit("} else {", indent)
            else_scope = list(locals_)
            for __ in range(rng.randrange(1, 3)):
                self._statement(else_scope, indent + 1, depth + 1, fn_index,
                                in_loop)
            self.emit("}", indent)
            return
        roll -= cfg.branch_rate
        if roll < cfg.loop_rate and depth < 3:
            counter = self.fresh("i")
            bound = rng.randrange(2, 8)
            self.emit(f"int {counter};", indent)
            body_scope = list(locals_)
            if rng.random() < 0.25:
                self.emit(f"{counter} = 0;", indent)
                self.emit("do {", indent)
                for __ in range(rng.randrange(1, 3)):
                    self._statement(body_scope, indent + 1, depth + 1,
                                    fn_index, True)
                self.emit(f"{counter} += 1;", indent + 1)
                self.emit(f"}} while ({counter} < {bound});", indent)
            else:
                self.emit(f"for ({counter} = 0; {counter} < {bound}; "
                          f"{counter}++) {{", indent)
                for __ in range(rng.randrange(1, 3)):
                    self._statement(body_scope, indent + 1, depth + 1,
                                    fn_index, True)
                self.emit("}", indent)
            return
        roll -= cfg.loop_rate
        if roll < cfg.malloc_rate:
            name = self.fresh("m")
            self.emit(f"struct {p}node *{name} = (struct {p}node*)"
                      f"malloc(sizeof(struct {p}node));", indent)
            self.emit(f"{name}->{self.field()} = {rng.choice(locals_)};",
                      indent)
            locals_.append(name)
            return
        roll -= cfg.malloc_rate
        if roll < 0.2 and fn_index > 0:
            self._call_stmt(locals_, indent, fn_index)
            return
        if rng.random() < cfg.store_rate:
            target = rng.choice(locals_ + [self.any_global()])
            if rng.random() < 0.5:
                self.emit(f"{target}->{self.field()} = "
                          f"{self._ptr_expr(locals_)};", indent)
            else:
                self.emit(f"{self.any_global()} = "
                          f"{self._ptr_expr(locals_)};", indent)
        else:
            name = self.fresh("v")
            self.emit(f"struct {p}node *{name} = {self._ptr_expr(locals_)};",
                      indent)
            locals_.append(name)

    def _call_stmt(self, locals_: List[str], indent: int,
                   fn_index: int) -> None:
        cfg, rng, p = self.config, self.rng, self.p
        args = f"{rng.choice(locals_)}, {self._ptr_expr(locals_)}"
        name = self.fresh("r")
        if rng.random() < cfg.indirect and cfg.handlers:
            callee = f"{p}h{rng.randrange(cfg.handlers)}"
        elif rng.random() < cfg.recursion_rate:
            callee = f"{p}fn{rng.randrange(cfg.functions)}"
        else:
            callee = f"{p}fn{rng.randrange(fn_index)}"
        self.emit(f"struct {p}node *{name} = {callee}({args});", indent)
        locals_.append(name)

    def _function(self, index: int) -> None:
        p = self.p
        self.emit(f"struct {p}node *{p}fn{index}(struct {p}node *{p}a, "
                  f"struct {p}node *{p}b) {{")
        locals_ = [f"{p}a", f"{p}b"]
        for __ in range(self.config.stmts):
            self._statement(locals_, 1, 0, index)
        self.emit(f"return {self.rng.choice(locals_)};", 1)
        self.emit("}")
        self.emit("")

    def _main(self) -> None:
        cfg, rng, p = self.config, self.rng, self.p
        self.emit(f"int {self.main_name}() {{")
        for i in range(cfg.globals_):
            self.emit(f"{p}g{i} = (struct {p}node*)"
                      f"malloc(sizeof(struct {p}node));", 1)
        for __ in range(cfg.globals_):
            self.emit(f"{self.any_global()}->{self.field()} = "
                      f"{self.any_global()};", 1)
        for i in range(cfg.handlers):
            self.emit(f"{p}h{i} = {p}fn{rng.randrange(cfg.functions)};", 1)
        self.emit(f"int {p}i;", 1)
        self.emit(f"for ({p}i = 0; {p}i < 8; {p}i = {p}i + 1) {{", 1)
        for __ in range(max(2, cfg.functions // 3)):
            target = rng.randrange(cfg.functions)
            self.emit(f"{self.any_global()} = {p}fn{target}("
                      f"{self.any_global()}, {self.any_global()});", 2)
        self.emit("}", 1)
        self.emit("return 0;", 1)
        self.emit("}")


def seed_prefix(seed: int) -> str:
    """Identifier prefix of a seed: none for 0, ``s<seed>_`` otherwise."""
    return f"s{seed}_" if seed else ""


def generate_unit(config: Config, prefix: str = "",
                  main_name: str = "main") -> Unit:
    return _Generator(config, prefix, main_name).generate()


def batch_source(name: str, seed: int) -> str:
    """Source text of suite program *name* under *seed*."""
    return generate_unit(SUITE[name], seed_prefix(seed)).source()


# ------------------------------------------------------------------ edit mix

#: The edit-mix program's four units.  They are smaller than the smallest
#: suite program because one ``update_source`` of a 2000-line, 33-function
#: four-unit program takes 3.4-6.6 s on a 2-CPU host, and 48 of them
#: must fit in one run; twelve functions of six statements take ~0.5 s.
EDIT_UNITS = tuple(Config(f"unit{k}", 301 + k, functions=3, stmts=6,
                          globals_=3, handlers=1, indirect=0.05)
                   for k in range(4))


class ComposedProgram:
    """Independent units called from one ``main``; editable in place."""

    def __init__(self, configs: List[Config], seed: int):
        base = seed_prefix(seed)
        self.units = [
            generate_unit(cfg, f"{base}u{k}_", main_name=f"{base}u{k}_main")
            for k, cfg in enumerate(configs)]
        self.driver = ["int main() {"]
        self.driver += [f"    {unit.prefix}main();" for unit in self.units]
        self.driver += ["    return 0;", "}"]

    def source(self) -> str:
        lines: List[str] = []
        for unit in self.units:
            lines.extend(unit.lines())
        lines.extend(self.driver)
        return "\n".join(lines) + "\n"

    def insert(self, unit: int, function: str, statement: List[str]) -> None:
        """Insert *statement* lines just before *function*'s ``return``."""
        body = self.units[unit].functions[function]
        at = max(i for i, line in enumerate(body)
                 if line.startswith("    return "))
        body[at:at] = ["    " + line for line in statement]


@dataclass(frozen=True)
class Edit:
    """One single-function edit and the source it produces."""

    index: int
    unit: int
    function: str
    kind: str  # "scalar" or "pointer"
    statement: Tuple[str, ...]
    source: str


#: Seed of the edit positions and stored fields, which every seed shares.
EDIT_SCRIPT_SEED = 1_000_003


def edit_script(seed: int, edits: int) -> Tuple[str, List[Edit]]:
    """The edit-mix base source and its *edits* cumulative edits.

    Edit positions are uniform over the worker functions of all units,
    drawn as shuffled rounds over every function, so each function is
    edited equally often.  Kinds alternate between a scalar declaration
    (``int sN; sN = k;``) and a pointer store (``a->fK = b;``) on the
    function's two parameters.  Positions and fields are drawn once, for
    every seed: with a per-seed order, the session's peak RSS ranged over
    112-121 MiB across ten seeds.  *seed* renames, as for batch programs,
    and draws the constants ``k``.
    """
    rng = random.Random(EDIT_SCRIPT_SEED)
    constants = random.Random(seed)
    program = ComposedProgram(list(EDIT_UNITS), seed)
    base = program.source()
    targets = [(k, name) for k, unit in enumerate(program.units)
               for name in unit.functions]
    order: List[Tuple[int, str]] = []
    script: List[Edit] = []
    for index in range(edits):
        if not order:
            order = list(targets)
            rng.shuffle(order)
        unit, function = order.pop()
        p = program.units[unit].prefix
        if index % 2 == 0:
            kind = "scalar"
            statement = (f"int {p}s{index};",
                         f"{p}s{index} = {constants.randrange(1, 100)};")
        else:
            kind = "pointer"
            field = rng.randrange(EDIT_UNITS[unit].fields)
            statement = (f"{p}a->{p}f{field} = {p}b;",)
        program.insert(unit, function, list(statement))
        script.append(Edit(index, unit, function, kind, statement,
                           program.source()))
    return base, script
