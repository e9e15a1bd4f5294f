"""minicc front-end tests: lexer and parser."""

import pytest

from repro.cc import ast_nodes as ast
from repro.cc import parse_source, tokenize
from repro.errors import CompileError


class TestLexer:
    def test_keywords_and_identifiers(self):
        tokens = tokenize("int foo while whilex")
        kinds = [(t.kind, t.text) for t in tokens[:-1]]
        assert kinds == [("kw", "int"), ("ident", "foo"),
                         ("kw", "while"), ("ident", "whilex")]

    def test_numbers(self):
        tokens = tokenize("0 42 0x1F 0XFF")
        assert [t.value for t in tokens[:-1]] == [0, 42, 31, 255]

    def test_char_literals(self):
        tokens = tokenize(r"'a' '\n' '\\'")
        assert [t.value for t in tokens[:-1]] == [97, 10, 92]

    def test_bad_char_literal(self):
        with pytest.raises(CompileError):
            tokenize("'ab'")

    @pytest.mark.parametrize("text, column", [
        ("0X", 1), ("0x", 1), ("0xg", 1), ("int a = 0x;", 9)])
    def test_hex_prefix_without_digits(self, text, column):
        with pytest.raises(CompileError) as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (1, column)

    @pytest.mark.parametrize("text", ["'\\n", "'\\", "'a", "'"])
    def test_char_literal_cut_off_by_end_of_input(self, text):
        with pytest.raises(CompileError) as info:
            tokenize(text)
        assert (info.value.line, info.value.column) == (1, 1)

    def test_operators_longest_match(self):
        tokens = tokenize("a <<= b << c <= d < e")
        ops = [t.text for t in tokens if t.kind == "op"]
        assert ops == ["<<=", "<<", "<=", "<"]

    def test_comments_stripped(self):
        tokens = tokenize("int a; // trailing\n/* block\nspan */ int b;")
        idents = [t.text for t in tokens if t.kind == "ident"]
        assert idents == ["a", "b"]

    def test_unterminated_comment(self):
        with pytest.raises(CompileError) as info:
            tokenize("int a;\n  /* no end")
        assert (info.value.line, info.value.column) == (2, 3)

    def test_line_numbers(self):
        tokens = tokenize("int a;\nint b;")
        b_token = [t for t in tokens if t.text == "b"][0]
        assert b_token.line == 2

    def test_unexpected_character(self):
        with pytest.raises(CompileError):
            tokenize("int a @ b;")


class TestParser:
    def test_global_scalar_and_array(self):
        program = parse_source("int x; int y = 5; int t[3] = {1, 2};")
        assert [g.name for g in program.globals] == ["x", "y", "t"]
        assert program.globals[1].init == (5,)
        assert program.globals[2].size == 3
        assert program.globals[2].init == (1, 2)

    def test_too_many_initializers(self):
        with pytest.raises(CompileError):
            parse_source("int t[1] = {1, 2};")

    def test_negative_global_init(self):
        program = parse_source("int x = -7;")
        assert program.globals[0].init == (-7,)

    def test_function_params(self):
        program = parse_source("int f(int a, int b) { return a + b; }")
        assert program.function("f").params == ("a", "b")

    def test_void_params(self):
        program = parse_source("int f(void) { return 1; }")
        assert program.function("f").params == ()

    def test_too_many_params(self):
        params = ", ".join(f"int p{i}" for i in range(9))
        with pytest.raises(CompileError):
            parse_source(f"int f({params}) {{ return 0; }}")

    def test_duplicate_param(self):
        with pytest.raises(CompileError):
            parse_source("int f(int a, int a) { return 0; }")

    def test_duplicate_top_level(self):
        with pytest.raises(CompileError):
            parse_source("int x; int x;")

    def test_precedence(self):
        program = parse_source("int f() { return 1 + 2 * 3; }")
        ret = program.function("f").body.body[0]
        assert isinstance(ret.value, ast.Binary)
        assert ret.value.op == "+"
        assert ret.value.right.op == "*"

    def test_compound_assignment_desugars(self):
        program = parse_source("int f(int a) { a += 2; return a; }")
        stmt = program.function("f").body.body[0]
        assert isinstance(stmt.expr, ast.Assign)
        assert isinstance(stmt.expr.value, ast.Binary)
        assert stmt.expr.value.op == "+"

    def test_assignment_needs_lvalue(self):
        with pytest.raises(CompileError):
            parse_source("int f() { 3 = 4; return 0; }")

    def test_ternary(self):
        program = parse_source("int f(int a) { return a ? 1 : 2; }")
        ret = program.function("f").body.body[0]
        assert isinstance(ret.value, ast.Conditional)

    def test_local_array_initializer_rejected(self):
        with pytest.raises(CompileError):
            parse_source("int f() { int t[2] = 5; return 0; }")

    def test_control_statements_parse(self):
        program = parse_source("""
        int f(int n) {
            int s = 0;
            for (int i = 0; i < n; i += 1) {
                if (i == 3) continue;
                while (s > 100) break;
                s += i;
            }
            return s;
        }
        """)
        assert program.function("f") is not None

    def test_unterminated_block(self):
        with pytest.raises(CompileError):
            parse_source("int f() { return 0;")

    def test_empty_statement(self):
        program = parse_source("int f() { ;; return 0; }")
        assert program.function("f") is not None
