"""Lexer for minicc, the C subset used to author SOFIA workloads.

Token kinds: ``int``/keywords, identifiers, integer literals (decimal, hex,
char constants), punctuation and multi-character operators.  ``//`` and
``/* */`` comments are stripped.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from ..errors import CompileError

KEYWORDS = {"int", "void", "if", "else", "while", "do", "for", "return",
            "break", "continue"}

# ASCII-only character classes: unicode lookalikes such as '²' satisfy
# str.isdigit() but are not valid C source (found by the fuzz suite).
_DIGITS = frozenset("0123456789")
_ALPHA = frozenset(
    "abcdefghijklmnopqrstuvwxyzABCDEFGHIJKLMNOPQRSTUVWXYZ_")
_ALNUM = _ALPHA | _DIGITS

#: multi-character operators, longest first
_OPERATORS = ["<<=", ">>=", "==", "!=", "<=", ">=", "&&", "||", "<<", ">>",
              "++", "--",
              "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
              "+", "-", "*", "/", "%", "<", ">", "=", "!", "~", "&", "|",
              "^", "(", ")", "{", "}", "[", "]", ";", ",", "?", ":"]


@dataclass(frozen=True)
class Token:
    kind: str      # "kw", "ident", "num", "op", "eof"
    text: str
    value: int = 0
    line: int = 0
    column: int = 0

    def __str__(self) -> str:  # pragma: no cover - diagnostics only
        return f"{self.kind}({self.text!r})"


def _strip_comments(source: str) -> str:
    out = []
    i, n = 0, len(source)
    while i < n:
        if source.startswith("//", i):
            while i < n and source[i] != "\n":
                i += 1
        elif source.startswith("/*", i):
            end = source.find("*/", i + 2)
            if end < 0:
                raise CompileError("unterminated block comment",
                                   source.count("\n", 0, i) + 1,
                                   i - source.rfind("\n", 0, i))
            # keep newlines so line numbers stay right
            out.append("\n" * source.count("\n", i, end))
            i = end + 2
        else:
            out.append(source[i])
            i += 1
    return "".join(out)


def tokenize(source: str) -> List[Token]:
    """Convert minicc source text into a token list ending with EOF."""
    text = _strip_comments(source)
    tokens: List[Token] = []
    line, column = 1, 1
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch.isspace():
            column += 1
            i += 1
            continue
        if ch in _ALPHA:
            start = i
            while i < n and text[i] in _ALNUM:
                i += 1
            word = text[start:i]
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line=line, column=column))
            column += i - start
            continue
        if ch in _DIGITS:
            start = i
            if text.startswith("0x", i) or text.startswith("0X", i):
                i += 2
                while i < n and text[i] in "0123456789abcdefABCDEF":
                    i += 1
                if i == start + 2:
                    raise CompileError("hex literal has no digits", line,
                                       column)
                value = int(text[start:i], 16)
            else:
                while i < n and text[i] in _DIGITS:
                    i += 1
                value = int(text[start:i])
            tokens.append(Token("num", text[start:i], value=value,
                                line=line, column=column))
            column += i - start
            continue
        if ch == "'":
            if i + 3 < n and text[i + 1] == "\\" and text[i + 3] == "'":
                escapes = {"n": 10, "t": 9, "0": 0, "\\": 92, "'": 39}
                esc = text[i + 2]
                if esc not in escapes:
                    raise CompileError(f"bad escape '\\{esc}'", line, column)
                tokens.append(Token("num", text[i:i + 4],
                                    value=escapes[esc], line=line,
                                    column=column))
                i += 4
                column += 4
                continue
            if i + 2 < n and text[i + 2] == "'":
                tokens.append(Token("num", text[i:i + 3],
                                    value=ord(text[i + 1]), line=line,
                                    column=column))
                i += 3
                column += 3
                continue
            raise CompileError("bad character literal", line, column)
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("op", op, line=line, column=column))
                i += len(op)
                column += len(op)
                break
        else:
            raise CompileError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("eof", "", line=line, column=column))
    return tokens
