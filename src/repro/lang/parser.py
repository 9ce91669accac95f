"""Recursive-descent parser for MiniJ."""

from __future__ import annotations

from repro.lang import ast_nodes as A
from repro.lang.errors import MiniJSyntaxError
from repro.lang.lexer import Token, tokenize

_BASE_TYPES = {"int": "I", "boolean": "I", "void": "V"}

#: binary operator precedence, loosest first (Java-like)
_BINARY_LEVELS = [
    ["||"],
    ["&&"],
    ["|"],
    ["^"],
    ["&"],
    ["==", "!="],
    ["<", "<=", ">", ">=", "instanceof"],
    ["<<", ">>", ">>>"],
    ["+", "-"],
    ["*", "/", "%"],
]


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.pos = 0

    # -- token plumbing -----------------------------------------------------

    @property
    def cur(self) -> Token:
        return self.tokens[self.pos]

    def peek(self, offset: int = 1) -> Token:
        return self.tokens[min(self.pos + offset, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.cur
        self.pos += 1
        return tok

    def at(self, kind: str, text: str | None = None) -> bool:
        return self.cur.kind == kind and (text is None or self.cur.text == text)

    def accept(self, kind: str, text: str | None = None) -> Token | None:
        if self.at(kind, text):
            return self.advance()
        return None

    def expect(self, kind: str, text: str | None = None) -> Token:
        if not self.at(kind, text):
            want = text if text is not None else kind
            raise MiniJSyntaxError(
                f"expected {want!r}, found {self.cur.text or self.cur.kind!r}",
                self.cur.line,
                self.cur.col,
            )
        return self.advance()

    # -- types ---------------------------------------------------------------

    def parse_type(self, *, allow_void: bool = False) -> str:
        tok = self.advance()
        if tok.kind == "kw" and tok.text in _BASE_TYPES:
            desc = _BASE_TYPES[tok.text]
        elif tok.kind == "ident":
            desc = f"L{tok.text};"
        else:
            raise MiniJSyntaxError(f"expected a type, found {tok.text!r}", tok.line, tok.col)
        dims = 0
        while self.at("punct", "[") and self.peek().text == "]":
            self.advance()
            self.advance()
            dims += 1
        if desc == "V":
            if not allow_void or dims:
                raise MiniJSyntaxError("void is not a value type here", tok.line, tok.col)
        return "[" * dims + desc

    # -- declarations ----------------------------------------------------------

    def parse_program(self) -> A.Program:
        classes = []
        while not self.at("eof"):
            classes.append(self.parse_class())
        return A.Program(classes)

    def parse_class(self) -> A.ClassDecl:
        kw = self.expect("kw", "class")
        name = self.expect("ident").text
        super_name = "Object"
        if self.accept("kw", "extends"):
            super_name = self.expect("ident").text
        self.expect("punct", "{")
        fields: list[A.FieldDecl] = []
        methods: list[A.MethodDecl] = []
        while not self.accept("punct", "}"):
            self.parse_member(fields, methods)
        return A.ClassDecl(name, super_name, fields, methods, kw.line)

    def parse_member(self, fields, methods) -> None:
        start = self.cur
        static = bool(self.accept("kw", "static"))
        native = bool(self.accept("kw", "native"))
        if native and not static:
            static = bool(self.accept("kw", "static")) or static
        desc = self.parse_type(allow_void=True)
        name = self.expect("ident").text
        if self.at("punct", "("):
            self.advance()
            params: list[A.Param] = []
            if not self.at("punct", ")"):
                while True:
                    pdesc = self.parse_type()
                    pname = self.expect("ident").text
                    params.append(A.Param(pname, pdesc))
                    if not self.accept("punct", ","):
                        break
            self.expect("punct", ")")
            if native:
                self.expect("punct", ";")
                body = None
            else:
                body = self.parse_block()
            methods.append(
                A.MethodDecl(name, desc, params, body, static, native, start.line)
            )
        else:
            if native:
                raise MiniJSyntaxError("fields cannot be native", start.line, start.col)
            if desc == "V":
                raise MiniJSyntaxError("fields cannot be void", start.line, start.col)
            fields.append(A.FieldDecl(name, desc, static, start.line))
            while self.accept("punct", ","):
                extra = self.expect("ident")
                fields.append(A.FieldDecl(extra.text, desc, static, extra.line))
            self.expect("punct", ";")

    # -- statements ----------------------------------------------------------------

    def parse_block(self) -> A.Block:
        brace = self.expect("punct", "{")
        stmts: list[A.Stmt] = []
        while not self.accept("punct", "}"):
            stmts.append(self.parse_stmt())
        return A.Block(line=brace.line, stmts=stmts)

    def _looks_like_decl(self) -> bool:
        if self.at("kw") and self.cur.text in ("int", "boolean"):
            return True
        if self.cur.kind != "ident":
            return False
        # 'Foo x', 'Foo[] x', 'Foo[][] x' ... vs the expression 'foo[i]'/'foo.x'
        j = 1
        while self.peek(j).text == "[" and self.peek(j + 1).text == "]":
            j += 2
        return self.peek(j).kind == "ident"

    def parse_stmt(self) -> A.Stmt:
        tok = self.cur
        if self.at("punct", "{"):
            return self.parse_block()
        if self.accept("kw", "if"):
            self.expect("punct", "(")
            cond = self.parse_expr()
            self.expect("punct", ")")
            then = self.parse_stmt()
            els = self.parse_stmt() if self.accept("kw", "else") else None
            return A.If(line=tok.line, cond=cond, then=then, els=els)
        if self.accept("kw", "while"):
            self.expect("punct", "(")
            cond = self.parse_expr()
            self.expect("punct", ")")
            return A.While(line=tok.line, cond=cond, body=self.parse_stmt())
        if self.accept("kw", "for"):
            self.expect("punct", "(")
            init = None if self.at("punct", ";") else self.parse_simple_stmt()
            self.expect("punct", ";")
            cond = None if self.at("punct", ";") else self.parse_expr()
            self.expect("punct", ";")
            update = None if self.at("punct", ")") else self.parse_simple_stmt()
            self.expect("punct", ")")
            return A.For(
                line=tok.line, init=init, cond=cond, update=update, body=self.parse_stmt()
            )
        if self.accept("kw", "return"):
            value = None if self.at("punct", ";") else self.parse_expr()
            self.expect("punct", ";")
            return A.Return(line=tok.line, value=value)
        if self.accept("kw", "synchronized"):
            self.expect("punct", "(")
            lock = self.parse_expr()
            self.expect("punct", ")")
            return A.Sync(line=tok.line, lock=lock, body=self.parse_block())
        if self.accept("kw", "break"):
            self.expect("punct", ";")
            return A.Break(line=tok.line)
        if self.accept("kw", "continue"):
            self.expect("punct", ";")
            return A.Continue(line=tok.line)
        stmt = self.parse_simple_stmt()
        self.expect("punct", ";")
        return stmt

    def parse_simple_stmt(self) -> A.Stmt:
        """A declaration, assignment, ++/--, or expression statement."""
        tok = self.cur
        if self._looks_like_decl():
            desc = self.parse_type()
            name = self.expect("ident").text
            init = self.parse_expr() if self.accept("punct", "=") else None
            return A.LocalDecl(line=tok.line, desc=desc, name=name, init=init)
        expr = self.parse_expr()
        if self.at("punct") and self.cur.text in (
            "=", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^="
        ):
            op = self.advance().text
            value = self.parse_expr()
            self._check_lvalue(expr)
            return A.Assign(line=tok.line, target=expr, op=op, value=value)
        if self.at("punct") and self.cur.text in ("++", "--"):
            op = self.advance().text
            self._check_lvalue(expr)
            return A.Assign(
                line=tok.line,
                target=expr,
                op="+=" if op == "++" else "-=",
                value=A.IntLit(line=tok.line, value=1),
            )
        return A.ExprStmt(line=tok.line, expr=expr)

    def _check_lvalue(self, expr: A.Expr) -> None:
        if not isinstance(expr, (A.Name, A.Member, A.Index)):
            raise MiniJSyntaxError("not an assignable target", expr.line)

    # -- expressions ---------------------------------------------------------------

    def parse_expr(self) -> A.Expr:
        return self._parse_binary(0)

    def _parse_binary(self, level: int) -> A.Expr:
        if level >= len(_BINARY_LEVELS):
            return self.parse_unary()
        ops = _BINARY_LEVELS[level]
        left = self._parse_binary(level + 1)
        while (self.cur.kind == "punct" and self.cur.text in ops) or (
            "instanceof" in ops and self.at("kw", "instanceof")
        ):
            tok = self.advance()
            if tok.text == "instanceof":
                cls = self.expect("ident").text
                left = A.InstanceOf(line=tok.line, operand=left, class_name=cls)
            else:
                right = self._parse_binary(level + 1)
                left = A.Binary(line=tok.line, op=tok.text, left=left, right=right)
        return left

    def parse_unary(self) -> A.Expr:
        tok = self.cur
        if self.at("punct", "-") or self.at("punct", "!") or self.at("punct", "~"):
            self.advance()
            return A.Unary(line=tok.line, op=tok.text, operand=self.parse_unary())
        return self.parse_postfix()

    def parse_postfix(self) -> A.Expr:
        expr = self.parse_primary()
        while True:
            if self.accept("punct", "."):
                name = self.expect("ident").text
                if self.at("punct", "("):
                    expr = A.Call(
                        line=expr.line, target=expr, name=name, args=self.parse_args()
                    )
                else:
                    expr = A.Member(line=expr.line, target=expr, name=name)
            elif self.at("punct", "[") and not (self.peek().text == "]"):
                self.advance()
                idx = self.parse_expr()
                self.expect("punct", "]")
                expr = A.Index(line=expr.line, array=expr, index=idx)
            else:
                return expr

    def parse_args(self) -> list[A.Expr]:
        self.expect("punct", "(")
        args: list[A.Expr] = []
        if not self.at("punct", ")"):
            while True:
                args.append(self.parse_expr())
                if not self.accept("punct", ","):
                    break
        self.expect("punct", ")")
        return args

    def parse_primary(self) -> A.Expr:
        tok = self.cur
        if self.accept("punct", "("):
            expr = self.parse_expr()
            self.expect("punct", ")")
            return expr
        if tok.kind == "int":
            self.advance()
            return A.IntLit(line=tok.line, value=int(tok.text, 0))
        if tok.kind == "string":
            self.advance()
            return A.StrLit(line=tok.line, value=tok.text)
        if self.accept("kw", "true"):
            return A.IntLit(line=tok.line, value=1)
        if self.accept("kw", "false"):
            return A.IntLit(line=tok.line, value=0)
        if self.accept("kw", "null"):
            return A.NullLit(line=tok.line)
        if self.accept("kw", "this"):
            return A.This(line=tok.line)
        if self.accept("kw", "new"):
            if self.at("kw") and self.cur.text in ("int", "boolean"):
                self.advance()
                self.expect("punct", "[")
                size = self.parse_expr()
                self.expect("punct", "]")
                return A.NewArray(line=tok.line, elem_desc="I", size=size)
            cls = self.expect("ident").text
            if self.accept("punct", "("):
                self.expect("punct", ")")
                return A.New(line=tok.line, class_name=cls)
            self.expect("punct", "[")
            size = self.parse_expr()
            self.expect("punct", "]")
            return A.NewArray(line=tok.line, elem_desc=f"L{cls};", size=size)
        if tok.kind == "ident":
            self.advance()
            return A.Name(line=tok.line, ident=tok.text)
        raise MiniJSyntaxError(
            f"unexpected token {tok.text or tok.kind!r}", tok.line, tok.col
        )


def parse(source: str) -> A.Program:
    return _Parser(tokenize(source)).parse_program()
