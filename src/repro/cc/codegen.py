"""SRISC code generator for minicc.

Strategy: a classic accumulator machine.  Every expression leaves its value
in ``t0``; binary operators stash the left operand on the real stack and
pop it into ``t1``.  Locals live at fixed offsets from a frame pointer
(``fp``) so stack pushes during expression evaluation never disturb
addressing.  Every function has exactly one ``ret`` (a shared epilogue),
which is precisely the canonical form the SOFIA transformer wants.

Calling convention: arguments in ``a0..a7`` (spilled to the callee's frame
on entry, so recursion just works), result in ``a0``, ``ra``/``fp`` saved
in the frame.

Builtins map to the MMIO console: ``print_int(x)``, ``print_char(x)``,
``print_word(x)``, ``exit(x)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from ..errors import CompileError
from ..isa.program import MMIO_EXIT, MMIO_PUTCHAR, MMIO_PUTINT, MMIO_PUTWORD
from . import ast_nodes as ast

_BUILTINS = {"print_int": MMIO_PUTINT, "print_char": MMIO_PUTCHAR,
             "print_word": MMIO_PUTWORD, "exit": MMIO_EXIT}

_SIMPLE_BINOPS = {"+": "add", "-": "sub", "*": "mul", "/": "div",
                  "%": "rem", "&": "and", "|": "or", "^": "xor",
                  "<<": "sll", ">>": "sra"}


@dataclass
class _GlobalInfo:
    name: str
    is_array: bool


@dataclass
class _LocalInfo:
    offset: int
    is_array: bool


class _FunctionContext:
    """Per-function state: frame layout, scopes, loop labels."""

    def __init__(self, fn: ast.Function) -> None:
        self.fn = fn
        self.slots: Dict[int, _LocalInfo] = {}   # id(decl node) -> info
        self.frame_locals = 0                     # bytes of locals
        self.scopes: List[Dict[str, _LocalInfo]] = []
        self.loop_stack: List[Tuple[str, str]] = []  # (continue, break)

    def allocate(self, node_id: int, words: int, is_array: bool) -> _LocalInfo:
        info = _LocalInfo(offset=self.frame_locals, is_array=is_array)
        self.slots[node_id] = info
        self.frame_locals += 4 * words
        return info

    @property
    def frame_size(self) -> int:
        # locals + saved ra + saved fp, kept 8-byte aligned
        size = self.frame_locals + 8
        return (size + 7) & ~7

    def push_scope(self) -> None:
        self.scopes.append({})

    def pop_scope(self) -> None:
        self.scopes.pop()

    def declare(self, name: str, info: _LocalInfo, line: int) -> None:
        scope = self.scopes[-1]
        if name in scope:
            raise CompileError(f"duplicate declaration of {name!r}", line)
        scope[name] = info

    def lookup(self, name: str) -> Optional[_LocalInfo]:
        for scope in reversed(self.scopes):
            if name in scope:
                return scope[name]
        return None


class CodeGenerator:
    """Emits SRISC assembly text for a parsed minicc program."""

    def __init__(self, program: ast.Program) -> None:
        self.program = program
        self.lines: List[str] = []
        self.globals: Dict[str, _GlobalInfo] = {}
        self.functions: Dict[str, ast.Function] = {}
        self._label_counter = 0

    # -- helpers ---------------------------------------------------------

    def emit(self, text: str) -> None:
        self.lines.append(f"    {text}")

    def emit_label(self, label: str) -> None:
        self.lines.append(f"{label}:")

    def new_label(self, hint: str) -> str:
        self._label_counter += 1
        return f"__L{self._label_counter}_{hint}"

    # -- top level ----------------------------------------------------------

    def generate(self) -> str:
        for var in self.program.globals:
            self.globals[var.name] = _GlobalInfo(var.name,
                                                 var.size is not None)
        for fn in self.program.functions:
            if fn.name in _BUILTINS:
                raise CompileError(
                    f"{fn.name!r} is a builtin and cannot be redefined",
                    fn.line)
            if fn.name in self.globals:
                raise CompileError(
                    f"{fn.name!r} is already a global variable", fn.line)
            self.functions[fn.name] = fn
        if "main" not in self.functions:
            raise CompileError("program has no main() function")
        if self.functions["main"].params:
            raise CompileError("main() must take no parameters")

        self.lines.append(".entry __start")
        self.lines.append(".text")
        self.emit_label("__start")
        self.emit("call main")
        self.emit(f"li t0, 0x{MMIO_EXIT:08X}")
        self.emit("sw a0, 0(t0)")
        self.emit("halt")
        for fn in self.program.functions:
            self._function(fn)
        if self.program.globals:
            self.lines.append(".data")
            for var in self.program.globals:
                self._global_var(var)
        return "\n".join(self.lines) + "\n"

    def _global_var(self, var: ast.GlobalVar) -> None:
        count = var.size if var.size is not None else 1
        init = list(var.init) + [0] * (count - len(var.init))
        self.emit_label(var.name)
        for chunk_start in range(0, count, 8):
            chunk = init[chunk_start:chunk_start + 8]
            self.emit(".word " + ", ".join(str(v) for v in chunk))

    # -- functions ----------------------------------------------------------

    def _function(self, fn: ast.Function) -> None:
        ctx = _FunctionContext(fn)
        self._prescan(fn, ctx)
        frame = ctx.frame_size
        self.emit_label(fn.name)
        self.emit(f"addi sp, sp, -{frame}")
        self.emit(f"sw ra, {frame - 4}(sp)")
        self.emit(f"sw fp, {frame - 8}(sp)")
        self.emit("mv fp, sp")

        ctx.push_scope()
        for index, param in enumerate(fn.params):
            info = ctx.slots[-(index + 1)]
            ctx.declare(param, info, fn.line)
            self.emit(f"sw a{index}, {info.offset}(fp)")
        epilogue = f"__epilogue_{fn.name}"
        self._block(fn.body, ctx, epilogue, new_scope=False)
        ctx.pop_scope()

        self.emit("li a0, 0")  # implicit `return 0`
        self.emit_label(epilogue)
        self.emit("mv sp, fp")
        self.emit(f"lw ra, {frame - 4}(sp)")
        self.emit(f"lw fp, {frame - 8}(sp)")
        self.emit(f"addi sp, sp, {frame}")
        self.emit("ret")

    def _prescan(self, fn: ast.Function, ctx: _FunctionContext) -> None:
        """Assign a frame slot to every parameter and declaration."""
        for index in range(len(fn.params)):
            # parameters use negative pseudo-ids (one slot each)
            ctx.allocate(-(index + 1), 1, is_array=False)

        def walk(stmt) -> None:
            if isinstance(stmt, ast.Decl):
                words = stmt.size if stmt.size is not None else 1
                ctx.allocate(id(stmt), words, stmt.size is not None)
            elif isinstance(stmt, ast.BlockStmt):
                for child in stmt.body:
                    walk(child)
            elif isinstance(stmt, ast.If):
                walk(stmt.then)
                if stmt.otherwise is not None:
                    walk(stmt.otherwise)
            elif isinstance(stmt, ast.While):
                walk(stmt.body)
            elif isinstance(stmt, ast.DoWhile):
                walk(stmt.body)
            elif isinstance(stmt, ast.For):
                walk(stmt.body)

        walk(fn.body)

    # -- statements -------------------------------------------------------------

    def _block(self, block: ast.BlockStmt, ctx: _FunctionContext,
               epilogue: str, new_scope: bool = True) -> None:
        if new_scope:
            ctx.push_scope()
        for stmt in block.body:
            self._statement(stmt, ctx, epilogue)
        if new_scope:
            ctx.pop_scope()

    def _statement(self, stmt, ctx: _FunctionContext, epilogue: str) -> None:
        if isinstance(stmt, ast.BlockStmt):
            self._block(stmt, ctx, epilogue)
        elif isinstance(stmt, ast.ExprStmt):
            self._expr(stmt.expr, ctx)
        elif isinstance(stmt, ast.Decl):
            info = ctx.slots[id(stmt)]
            ctx.declare(stmt.name, info, stmt.line)
            if stmt.init is not None:
                self._expr(stmt.init, ctx)
                self.emit(f"sw t0, {info.offset}(fp)")
        elif isinstance(stmt, ast.If):
            otherwise = self.new_label("else")
            end = self.new_label("endif")
            self._expr(stmt.cond, ctx)
            self.emit(f"beq t0, zero, {otherwise if stmt.otherwise else end}")
            self._statement(stmt.then, ctx, epilogue)
            if stmt.otherwise is not None:
                self.emit(f"jmp {end}")
                self.emit_label(otherwise)
                self._statement(stmt.otherwise, ctx, epilogue)
            self.emit_label(end)
        elif isinstance(stmt, ast.While):
            cond = self.new_label("while")
            end = self.new_label("endwhile")
            self.emit_label(cond)
            self._expr(stmt.cond, ctx)
            self.emit(f"beq t0, zero, {end}")
            ctx.loop_stack.append((cond, end))
            self._statement(stmt.body, ctx, epilogue)
            ctx.loop_stack.pop()
            self.emit(f"jmp {cond}")
            self.emit_label(end)
        elif isinstance(stmt, ast.DoWhile):
            top = self.new_label("do")
            cond = self.new_label("docond")
            end = self.new_label("enddo")
            self.emit_label(top)
            ctx.loop_stack.append((cond, end))
            self._statement(stmt.body, ctx, epilogue)
            ctx.loop_stack.pop()
            self.emit_label(cond)
            self._expr(stmt.cond, ctx)
            self.emit(f"bne t0, zero, {top}")
            self.emit_label(end)
        elif isinstance(stmt, ast.For):
            cond = self.new_label("for")
            step = self.new_label("forstep")
            end = self.new_label("endfor")
            if stmt.init is not None:
                self._expr(stmt.init, ctx)
            self.emit_label(cond)
            if stmt.cond is not None:
                self._expr(stmt.cond, ctx)
                self.emit(f"beq t0, zero, {end}")
            ctx.loop_stack.append((step, end))
            self._statement(stmt.body, ctx, epilogue)
            ctx.loop_stack.pop()
            self.emit_label(step)
            if stmt.step is not None:
                self._expr(stmt.step, ctx)
            self.emit(f"jmp {cond}")
            self.emit_label(end)
        elif isinstance(stmt, ast.Return):
            if stmt.value is not None:
                self._expr(stmt.value, ctx)
                self.emit("mv a0, t0")
            else:
                self.emit("li a0, 0")
            self.emit(f"jmp {epilogue}")
        elif isinstance(stmt, ast.Break):
            if not ctx.loop_stack:
                raise CompileError("break outside a loop", stmt.line)
            self.emit(f"jmp {ctx.loop_stack[-1][1]}")
        elif isinstance(stmt, ast.Continue):
            if not ctx.loop_stack:
                raise CompileError("continue outside a loop", stmt.line)
            self.emit(f"jmp {ctx.loop_stack[-1][0]}")
        else:  # pragma: no cover - parser produces only the above
            raise CompileError(f"unknown statement {stmt!r}")

    # -- expressions --------------------------------------------------------------

    def _push(self) -> None:
        self.emit("addi sp, sp, -4")
        self.emit("sw t0, 0(sp)")

    def _pop(self, reg: str) -> None:
        self.emit(f"lw {reg}, 0(sp)")
        self.emit("addi sp, sp, 4")

    def _expr(self, expr, ctx: _FunctionContext) -> None:
        """Evaluate ``expr`` into t0."""
        if isinstance(expr, ast.Num):
            self.emit(f"li t0, {expr.value & 0xFFFFFFFF}")
        elif isinstance(expr, ast.Var):
            self._load_var(expr, ctx)
        elif isinstance(expr, ast.Index):
            self._address_of(expr, ctx)
            self.emit("lw t0, 0(t2)")
        elif isinstance(expr, ast.Unary):
            self._unary(expr, ctx)
        elif isinstance(expr, ast.Binary):
            self._binary(expr, ctx)
        elif isinstance(expr, ast.Assign):
            self._assign(expr, ctx)
        elif isinstance(expr, ast.Call):
            self._call(expr, ctx)
        elif isinstance(expr, ast.PostOp):
            self._post_op(expr, ctx)
        elif isinstance(expr, ast.Conditional):
            otherwise = self.new_label("ternelse")
            end = self.new_label("ternend")
            self._expr(expr.cond, ctx)
            self.emit(f"beq t0, zero, {otherwise}")
            self._expr(expr.then, ctx)
            self.emit(f"jmp {end}")
            self.emit_label(otherwise)
            self._expr(expr.otherwise, ctx)
            self.emit_label(end)
        else:  # pragma: no cover
            raise CompileError(f"unknown expression {expr!r}")

    def _load_var(self, expr: ast.Var, ctx: _FunctionContext) -> None:
        info = ctx.lookup(expr.name)
        if info is not None:
            if info.is_array:
                raise CompileError(
                    f"array {expr.name!r} used as a scalar", expr.line)
            self.emit(f"lw t0, {info.offset}(fp)")
            return
        ginfo = self.globals.get(expr.name)
        if ginfo is None:
            raise CompileError(f"undeclared variable {expr.name!r}",
                               expr.line)
        if ginfo.is_array:
            raise CompileError(
                f"array {expr.name!r} used as a scalar", expr.line)
        self.emit(f"la t2, {expr.name}")
        self.emit("lw t0, 0(t2)")

    def _address_of(self, expr: ast.Index, ctx: _FunctionContext) -> None:
        """Leave the element address in t2 (clobbers t0)."""
        info = ctx.lookup(expr.name)
        ginfo = self.globals.get(expr.name)
        if info is not None:
            if not info.is_array:
                raise CompileError(f"{expr.name!r} is not an array",
                                   expr.line)
        elif ginfo is not None:
            if not ginfo.is_array:
                raise CompileError(f"{expr.name!r} is not an array",
                                   expr.line)
        else:
            raise CompileError(f"undeclared array {expr.name!r}", expr.line)
        self._expr(expr.index, ctx)
        self.emit("slli t0, t0, 2")
        if info is not None:
            self.emit(f"addi t2, fp, {info.offset}")
            self.emit("add t2, t2, t0")
        else:
            self.emit(f"la t2, {expr.name}")
            self.emit("add t2, t2, t0")

    def _unary(self, expr: ast.Unary, ctx: _FunctionContext) -> None:
        self._expr(expr.operand, ctx)
        if expr.op == "-":
            self.emit("sub t0, zero, t0")
        elif expr.op == "!":
            self.emit("sltiu t0, t0, 1")
        elif expr.op == "~":
            self.emit("li t1, -1")
            self.emit("xor t0, t0, t1")
        else:  # pragma: no cover
            raise CompileError(f"unknown unary {expr.op!r}", expr.line)

    def _binary(self, expr: ast.Binary, ctx: _FunctionContext) -> None:
        if expr.op == "&&":
            end = self.new_label("andend")
            self._expr(expr.left, ctx)
            self.emit("sltu t0, zero, t0")
            self.emit(f"beq t0, zero, {end}")
            self._expr(expr.right, ctx)
            self.emit("sltu t0, zero, t0")
            self.emit_label(end)
            return
        if expr.op == "||":
            end = self.new_label("orend")
            self._expr(expr.left, ctx)
            self.emit("sltu t0, zero, t0")
            self.emit(f"bne t0, zero, {end}")
            self._expr(expr.right, ctx)
            self.emit("sltu t0, zero, t0")
            self.emit_label(end)
            return
        self._expr(expr.left, ctx)
        self._push()
        self._expr(expr.right, ctx)
        self._pop("t1")
        op = expr.op
        if op in _SIMPLE_BINOPS:
            self.emit(f"{_SIMPLE_BINOPS[op]} t0, t1, t0")
        elif op == "==":
            self.emit("sub t0, t1, t0")
            self.emit("sltiu t0, t0, 1")
        elif op == "!=":
            self.emit("sub t0, t1, t0")
            self.emit("sltu t0, zero, t0")
        elif op == "<":
            self.emit("slt t0, t1, t0")
        elif op == ">":
            self.emit("slt t0, t0, t1")
        elif op == "<=":
            self.emit("slt t0, t0, t1")
            self.emit("xori t0, t0, 1")
        elif op == ">=":
            self.emit("slt t0, t1, t0")
            self.emit("xori t0, t0, 1")
        else:  # pragma: no cover
            raise CompileError(f"unknown operator {op!r}", expr.line)

    def _assign(self, expr: ast.Assign, ctx: _FunctionContext) -> None:
        target = expr.target
        if isinstance(target, ast.Var):
            self._expr(expr.value, ctx)
            info = ctx.lookup(target.name)
            if info is not None:
                if info.is_array:
                    raise CompileError(
                        f"cannot assign to array {target.name!r}",
                        target.line)
                self.emit(f"sw t0, {info.offset}(fp)")
                return
            ginfo = self.globals.get(target.name)
            if ginfo is None:
                raise CompileError(
                    f"undeclared variable {target.name!r}", target.line)
            if ginfo.is_array:
                raise CompileError(
                    f"cannot assign to array {target.name!r}", target.line)
            self.emit(f"la t2, {target.name}")
            self.emit("sw t0, 0(t2)")
            return
        assert isinstance(target, ast.Index)
        self._expr(expr.value, ctx)
        self._push()
        self._address_of(target, ctx)
        self._pop("t0")
        self.emit("sw t0, 0(t2)")

    def _post_op(self, expr: ast.PostOp, ctx: _FunctionContext) -> None:
        """Postfix ++/--: leave the *old* value in t0, store the new one."""
        delta = 1 if expr.op == "+" else -1
        target = expr.target
        if isinstance(target, ast.Var):
            info = ctx.lookup(target.name)
            if info is not None:
                if info.is_array:
                    raise CompileError(
                        f"cannot increment array {target.name!r}",
                        target.line)
                self.emit(f"lw t0, {info.offset}(fp)")
                self.emit(f"addi t1, t0, {delta}")
                self.emit(f"sw t1, {info.offset}(fp)")
                return
            ginfo = self.globals.get(target.name)
            if ginfo is None:
                raise CompileError(
                    f"undeclared variable {target.name!r}", target.line)
            if ginfo.is_array:
                raise CompileError(
                    f"cannot increment array {target.name!r}", target.line)
            self.emit(f"la t2, {target.name}")
            self.emit("lw t0, 0(t2)")
            self.emit(f"addi t1, t0, {delta}")
            self.emit("sw t1, 0(t2)")
            return
        assert isinstance(target, ast.Index)
        self._address_of(target, ctx)   # element address in t2
        self.emit("lw t0, 0(t2)")
        self.emit(f"addi t1, t0, {delta}")
        self.emit("sw t1, 0(t2)")

    def _call(self, expr: ast.Call, ctx: _FunctionContext) -> None:
        if expr.name in _BUILTINS:
            if len(expr.args) != 1:
                raise CompileError(
                    f"{expr.name}() takes exactly one argument", expr.line)
            self._expr(expr.args[0], ctx)
            self.emit(f"li t2, 0x{_BUILTINS[expr.name]:08X}")
            self.emit("sw t0, 0(t2)")
            return
        fn = self.functions.get(expr.name)
        if fn is None:
            raise CompileError(f"call to undefined function {expr.name!r}",
                               expr.line)
        if len(expr.args) != len(fn.params):
            raise CompileError(
                f"{expr.name}() expects {len(fn.params)} argument(s), "
                f"got {len(expr.args)}", expr.line)
        for arg in expr.args:
            self._expr(arg, ctx)
            self._push()
        for index in range(len(expr.args) - 1, -1, -1):
            self._pop(f"a{index}")
        self.emit(f"call {expr.name}")
        self.emit("mv t0, a0")
