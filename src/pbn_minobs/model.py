"""Network definitions: Boolean rules, structure matrices and the model file format.

State encoding convention: logical 1 is delta_2^1 and logical 0 is delta_2^2,
so the state (b_1, ..., b_n) has delta index 1 + sum_r (1 - b_r) * 2^(n-r).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import reduce
from pathlib import Path

import numpy as np

from .errors import ModelFormatError, ResourceLimitError
from .stp import LogicalMatrix, dimension_cap, khatri_rao

PROB_SUM_TOL = 1e-9


# ---------------------------------------------------------------------------
# Boolean expressions
# ---------------------------------------------------------------------------

class BoolExpr:
    """Base class for Boolean rule syntax trees."""

    def evaluate(self, bits) -> int:
        """Evaluate on a 1-based assignment (``bits[i-1]`` is variable i), in {1, 0}."""
        raise NotImplementedError

    def table(self, assignments: np.ndarray) -> np.ndarray:
        """Evaluate on a (rows, n) bool matrix of assignments at once."""
        raise NotImplementedError

    def max_var(self) -> int:
        raise NotImplementedError


@dataclass(frozen=True)
class Var(BoolExpr):
    index: int

    def evaluate(self, bits):
        return 1 if bits[self.index - 1] else 0

    def table(self, assignments):
        return assignments[:, self.index - 1]

    def max_var(self):
        return self.index

    def __str__(self):
        return f"x{self.index}"


@dataclass(frozen=True)
class Const(BoolExpr):
    value: bool

    def evaluate(self, bits):
        return 1 if self.value else 0

    def table(self, assignments):
        return np.full(assignments.shape[0], self.value, dtype=bool)

    def max_var(self):
        return 0

    def __str__(self):
        return "1" if self.value else "0"


@dataclass(frozen=True)
class Not(BoolExpr):
    arg: BoolExpr

    def evaluate(self, bits):
        return 1 - self.arg.evaluate(bits)

    def table(self, assignments):
        return ~self.arg.table(assignments)

    def max_var(self):
        return self.arg.max_var()

    def __str__(self):
        return f"!{self.arg}"


_BIN_OPS = ("&", "^", "|", "->", "<->")


@dataclass(frozen=True)
class BinOp(BoolExpr):
    op: str
    lhs: BoolExpr
    rhs: BoolExpr

    def evaluate(self, bits):
        a = bool(self.lhs.evaluate(bits))
        b = bool(self.rhs.evaluate(bits))
        if self.op == "&":
            return int(a and b)
        if self.op == "|":
            return int(a or b)
        if self.op == "^":
            return int(a != b)
        if self.op == "->":
            return int((not a) or b)
        if self.op == "<->":
            return int(a == b)
        raise AssertionError(f"unknown operator {self.op}")

    def table(self, assignments):
        a = self.lhs.table(assignments)
        b = self.rhs.table(assignments)
        if self.op == "&":
            return a & b
        if self.op == "|":
            return a | b
        if self.op == "^":
            return a ^ b
        if self.op == "->":
            return ~a | b
        if self.op == "<->":
            return a == b
        raise AssertionError(f"unknown operator {self.op}")

    def max_var(self):
        return max(self.lhs.max_var(), self.rhs.max_var())

    def __str__(self):
        return f"({self.lhs} {self.op} {self.rhs})"


_TOKEN_RE = re.compile(
    r"\s*(?:(?P<var>x(?P<vnum>\d+))|(?P<const>[01])|(?P<op><->|->|[!&^|()]))"
)

# Binary operators from loosest to tightest binding; '!' binds tighter than all.
_PRECEDENCE_LEVELS = ("<->", "->", "|", "^", "&")


class _ExprParser:
    def __init__(self, text: str, n_vars: int, line: int | None = None, col_base: int = 1):
        self.text = text
        self.n_vars = n_vars
        self.line = line
        self.col_base = col_base
        self.pos = 0
        self.tokens: list[tuple[str, str, int]] = []
        self._tokenize()
        self.cursor = 0

    def _fail(self, message: str, col: int) -> ModelFormatError:
        return ModelFormatError(message, line=self.line, col=self.col_base + col)

    def _tokenize(self) -> None:
        pos = 0
        while pos < len(self.text):
            m = _TOKEN_RE.match(self.text, pos)
            if m is None:
                rest = self.text[pos:].lstrip()
                if not rest:
                    break
                raise self._fail(f"unexpected character {rest[0]!r}", self.text.index(rest[0], pos))
            if m.group("var"):
                self.tokens.append(("var", m.group("vnum"), m.start("var")))
            elif m.group("const"):
                self.tokens.append(("const", m.group("const"), m.start("const")))
            else:
                self.tokens.append(("op", m.group("op"), m.start("op")))
            pos = m.end()

    def _peek(self):
        return self.tokens[self.cursor] if self.cursor < len(self.tokens) else None

    def _next(self):
        tok = self._peek()
        if tok is not None:
            self.cursor += 1
        return tok

    def parse(self) -> BoolExpr:
        if not self.tokens:
            raise self._fail("empty expression", 0)
        expr = self._parse_level(0)
        trailing = self._peek()
        if trailing is not None:
            raise self._fail(f"unexpected token {trailing[1]!r}", trailing[2])
        return expr

    def _parse_level(self, level: int) -> BoolExpr:
        if level == len(_PRECEDENCE_LEVELS):
            return self._parse_unary()
        op = _PRECEDENCE_LEVELS[level]
        expr = self._parse_level(level + 1)
        while True:
            tok = self._peek()
            if tok is None or tok[0] != "op" or tok[1] != op:
                return expr
            self._next()
            rhs = self._parse_level(level + 1)
            expr = BinOp(op, expr, rhs)

    def _parse_unary(self) -> BoolExpr:
        tok = self._peek()
        if tok is None:
            raise self._fail("expression ends unexpectedly", len(self.text))
        if tok[0] == "op" and tok[1] == "!":
            self._next()
            return Not(self._parse_unary())
        return self._parse_atom()

    def _parse_atom(self) -> BoolExpr:
        tok = self._next()
        if tok is None:
            raise self._fail("expression ends unexpectedly", len(self.text))
        kind, text, col = tok
        if kind == "var":
            index = int(text)
            if not 1 <= index <= self.n_vars:
                raise self._fail(f"variable x{index} out of range [1, {self.n_vars}]", col)
            return Var(index)
        if kind == "const":
            return Const(text == "1")
        if kind == "op" and text == "(":
            inner = self._parse_level(0)
            closing = self._next()
            if closing is None or closing[1] != ")":
                raise self._fail("missing ')'", col)
            return inner
        raise self._fail(f"unexpected token {text!r}", col)


def parse_bool_expr(text: str, n_vars: int, line: int | None = None, col_base: int = 1) -> BoolExpr:
    """Parse a rule over x1..x``n_vars`` with precedence ! > & > ^ > | > -> > <->."""
    return _ExprParser(text, n_vars, line=line, col_base=col_base).parse()


# ---------------------------------------------------------------------------
# State coding and structure matrices
# ---------------------------------------------------------------------------

def decode_state(k: int, n: int) -> tuple[int, ...]:
    """Delta index in [1, 2^n] to the bit tuple (b_1, ..., b_n), each in {1, 0}."""
    if not 1 <= k <= (1 << n):
        raise ValueError(f"state index {k} out of range [1, {1 << n}]")
    return tuple(1 - ((k - 1) >> (n - r)) & 1 for r in range(1, n + 1))


def encode_state(bits) -> int:
    """Bit tuple back to its delta index (inverse of :func:`decode_state`)."""
    k = 1
    n = len(bits)
    for r, b in enumerate(bits, start=1):
        if b not in (0, 1):
            raise ValueError(f"bits must be 0 or 1, got {b!r}")
        k += (1 - b) << (n - r)
    return k


def assignment_table(n: int) -> np.ndarray:
    """All 2^n assignments in delta-index order; entry (k-1, r-1) is variable r of state k."""
    idx = np.arange(1 << n)
    cols = [((idx >> (n - r)) & 1) == 0 for r in range(1, n + 1)]
    return np.stack(cols, axis=1)


def structure_matrix(expr: BoolExpr, n: int) -> LogicalMatrix:
    """The unique 2 x 2^n logical matrix acting on x1 |x ... |x xn as ``expr`` does."""
    if expr.max_var() > n:
        raise ValueError(f"expression references x{expr.max_var()} but n = {n}")
    values = expr.table(assignment_table(n))
    return LogicalMatrix(2, np.where(values, 1, 2))


def assemble_network(per_node) -> LogicalMatrix:
    """Khatri-Rao fold of per-node 2 x 2^n matrices into the network matrix."""
    mats = list(per_node)
    if not mats:
        raise ValueError("need at least one per-node matrix")
    cols = mats[0].cols
    for m in mats:
        if m.rows != 2 or m.cols != cols:
            raise ValueError(f"per-node matrices must all be 2x{cols}, got {m.rows}x{m.cols}")
    return reduce(khatri_rao, mats)


# ---------------------------------------------------------------------------
# The model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PbnModel:
    """A validated network: n state nodes, q outputs, m subnetworks.

    ``transitions[v]`` is the 2^n x 2^n structure matrix of subnetwork v+1,
    ``output`` the 2^q x 2^n output matrix, ``probs`` the switching
    distribution.
    """

    n: int
    q: int
    transitions: tuple[LogicalMatrix, ...]
    output: LogicalMatrix
    probs: tuple[float, ...]

    def __post_init__(self):
        size = 1 << self.n
        if self.n <= 0 or self.q <= 0:
            raise ModelFormatError("node and output counts must be positive")
        if not self.transitions:
            raise ModelFormatError("need at least one subnetwork")
        for v, mat in enumerate(self.transitions, start=1):
            if mat.rows != size or mat.cols != size:
                raise ModelFormatError(
                    f"subnetwork {v} matrix is {mat.rows}x{mat.cols}, expected {size}x{size}"
                )
        if self.output.rows != (1 << self.q) or self.output.cols != size:
            raise ModelFormatError(
                f"output matrix is {self.output.rows}x{self.output.cols}, "
                f"expected {1 << self.q}x{size}"
            )
        p = self.probs
        if len(p) != len(self.transitions):
            raise ModelFormatError(
                f"probability vector has {len(p)} entries for {len(self.transitions)} subnetworks"
            )
        if not all(0.0 <= x <= 1.0 for x in p):
            raise ModelFormatError("probabilities must lie in [0, 1]")
        if abs(sum(p) - 1.0) > PROB_SUM_TOL:
            raise ModelFormatError(f"probabilities sum to {sum(p)!r}, expected 1")
        if not any(x > 0.0 for x in p):
            raise ModelFormatError("at least one subnetwork probability must be positive")

    @property
    def m(self) -> int:
        return len(self.transitions)

    @property
    def state_count(self) -> int:
        return 1 << self.n

    @property
    def active(self) -> tuple[int, ...]:
        """0-based indices of the subnetworks with positive probability."""
        return tuple(v for v, x in enumerate(self.probs) if x > 0.0)


# ---------------------------------------------------------------------------
# Model file parsing
# ---------------------------------------------------------------------------

_HEADER_RE = re.compile(r"(states|outputs|subnetworks|p)\s*:\s*(.*)$")
_SECTION_RE = re.compile(r"\[\s*(net\s+(\d+)|output)\s*\]$")
_RULE_RE = re.compile(r"x(\d+)'\s*=\s*(?=\S)")
_OUTPUT_RULE_RE = re.compile(r"y(\d+)\s*=\s*(?=\S)")
_LITERAL_RE = re.compile(r"([LH])\s*=\s*delta(\d+)\s*\[([^\]]*)\]$")


class _Block:
    def __init__(self, line: int):
        self.line = line
        self.rules: dict[int, BoolExpr] = {}
        self.rule_lines: dict[int, int] = {}
        self.literal: LogicalMatrix | None = None


def parse_model(text: str) -> PbnModel:
    """Parse a model document (see the README for the format) into a model."""
    header: dict[str, object] = {}
    header_lines: dict[str, int] = {}
    nets: dict[int, _Block] = {}
    output_block: _Block | None = None
    current: _Block | None = None
    current_is_output = False

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        stripped = line.strip()
        if not stripped:
            continue
        indent = len(line) - len(line.lstrip())

        sec = _SECTION_RE.match(stripped)
        if sec:
            if sec.group(1) == "output":
                if output_block is not None:
                    raise ModelFormatError("duplicate [output] section", line=line_no)
                output_block = _Block(line_no)
                current, current_is_output = output_block, True
            else:
                k = int(sec.group(2))
                if k in nets:
                    raise ModelFormatError(f"duplicate [net {k}] section", line=line_no)
                nets[k] = _Block(line_no)
                current, current_is_output = nets[k], False
            continue

        if current is None:
            m = _HEADER_RE.match(stripped)
            if not m:
                raise ModelFormatError(
                    f"expected a header line or section, got {stripped!r}", line=line_no
                )
            key, value = m.group(1), m.group(2).strip()
            if key in header:
                raise ModelFormatError(f"duplicate header key {key!r}", line=line_no)
            if key == "p":
                try:
                    probs = tuple(float(tok) for tok in value.split())
                except ValueError:
                    raise ModelFormatError(f"invalid probability vector {value!r}", line=line_no)
                if not all(math.isfinite(x) for x in probs):
                    raise ModelFormatError(
                        f"probabilities must be finite, got {value!r}", line=line_no
                    )
                header[key] = probs
            else:
                try:
                    header[key] = int(value)
                except ValueError:
                    raise ModelFormatError(f"invalid integer for {key!r}: {value!r}", line=line_no)
            header_lines[key] = line_no
            continue

        n = header.get("states")
        if n is None:
            if header:
                raise ModelFormatError("missing header key 'states'")
            raise ModelFormatError("'states:' must appear before any section", line=line_no)

        lit = _LITERAL_RE.match(stripped)
        if lit:
            kind, rows, body = lit.group(1), int(lit.group(2)), lit.group(3)
            if current.rules:
                raise ModelFormatError(
                    "matrix literal and rule forms cannot be mixed in one section",
                    line=line_no,
                )
            if current.literal is not None:
                raise ModelFormatError("duplicate matrix literal", line=line_no)
            expected_kind = "H" if current_is_output else "L"
            if kind != expected_kind:
                raise ModelFormatError(
                    f"expected a {expected_kind} literal in this section", line=line_no
                )
            try:
                entries = [int(tok) for tok in body.split()]
            except ValueError:
                raise ModelFormatError(f"invalid matrix literal body {body!r}", line=line_no)
            try:
                current.literal = LogicalMatrix(rows, entries)
            except ValueError as exc:
                raise ModelFormatError(str(exc), line=line_no)
            continue

        rule_re = _OUTPUT_RULE_RE if current_is_output else _RULE_RE
        m = rule_re.match(stripped)
        if not m:
            what = "y<j> =" if current_is_output else "x<i>' ="
            raise ModelFormatError(f"expected '{what} <expr>', got {stripped!r}", line=line_no)
        if current.literal is not None:
            raise ModelFormatError(
                "matrix literal and rule forms cannot be mixed in one section", line=line_no
            )
        target = int(m.group(1))
        if target in current.rules:
            name = f"y{target}" if current_is_output else f"x{target}"
            raise ModelFormatError(f"duplicate rule for {name}", line=line_no)
        expr_text = stripped[m.end():]
        col_base = indent + m.end() + 1
        current.rules[target] = parse_bool_expr(expr_text, int(n), line=line_no, col_base=col_base)
        current.rule_lines[target] = line_no

    for key in ("states", "outputs", "subnetworks", "p"):
        if key not in header:
            raise ModelFormatError(f"missing header key {key!r}")
    n = int(header["states"])
    q = int(header["outputs"])
    m_count = int(header["subnetworks"])
    probs = header["p"]
    if n <= 0 or q <= 0 or m_count <= 0:
        raise ModelFormatError("states, outputs and subnetworks must be positive")
    if len(probs) != m_count:
        raise ModelFormatError(
            f"p has {len(probs)} entries but subnetworks is {m_count}",
            line=header_lines["p"],
        )
    cap = dimension_cap()
    # n >= cap.bit_length() already means 2^n > cap, without forming 2^n.
    if n >= cap.bit_length() or n << n > cap:
        raise ResourceLimitError(
            f"states: {n} needs a 2^{n}x{n} assignment table, exceeding the entry cap {cap}"
        )

    size = 1 << n
    transitions = []
    for k in range(1, m_count + 1):
        block = nets.get(k)
        if block is None:
            raise ModelFormatError(f"missing [net {k}] section")
        transitions.append(_finish_block(block, size, n, k, is_output=False, label=f"[net {k}]"))
    extra = sorted(set(nets) - set(range(1, m_count + 1)))
    if extra:
        raise ModelFormatError(
            f"[net {extra[0]}] out of range: subnetworks is {m_count}",
            line=nets[extra[0]].line,
        )

    if output_block is None:
        raise ModelFormatError("missing [output] section")
    output = _finish_block(output_block, size, n, q, is_output=True, label="[output]")

    try:
        return PbnModel(n=n, q=q, transitions=tuple(transitions), output=output, probs=probs)
    except ModelFormatError as exc:
        if exc.line is None and "probabilit" in exc.message:
            raise ModelFormatError(exc.message, line=header_lines["p"])
        raise


def _finish_block(
    block: _Block, size: int, n: int, count: int, is_output: bool, label: str
) -> LogicalMatrix:
    if block.literal is not None:
        lit = block.literal
        if is_output:
            # count >= lit.rows.bit_length() already means 2^count > lit.rows,
            # so a huge outputs: value never forms 2^count.
            rows_ok = count < lit.rows.bit_length() and lit.rows == 1 << count
            rows = f"2^{count}"
        else:
            rows_ok, rows = lit.rows == size, size
        if not rows_ok or lit.cols != size:
            raise ModelFormatError(
                f"matrix literal is {lit.rows}x{lit.cols}, expected {rows}x{size}",
                line=block.line,
            )
        return lit
    expected = count if is_output else n
    name = "y" if is_output else "x"
    extra = sorted(t for t in block.rules if not 1 <= t <= expected)
    if extra:
        raise ModelFormatError(
            f"rule target {name}{extra[0]} out of range [1, {expected}]",
            line=block.rule_lines[extra[0]],
        )
    # Every target is in range, so the first gap lies at or below len + 1.
    missing = next(i for i in range(1, len(block.rules) + 2) if i not in block.rules)
    if missing <= expected:
        raise ModelFormatError(
            f"{label} is missing a rule for {name}{missing}", line=block.line
        )
    per_node = [structure_matrix(block.rules[i], n) for i in range(1, expected + 1)]
    return assemble_network(per_node)


def parse_model_file(path) -> PbnModel:
    return parse_model(Path(path).read_text(encoding="utf-8"))


def render_model(model: PbnModel) -> str:
    """Canonical matrix-literal rendering; ``parse_model`` round-trips it."""
    lines = [
        f"states: {model.n}",
        f"outputs: {model.q}",
        f"subnetworks: {model.m}",
        "p: " + " ".join(repr(float(x)) for x in model.probs),
    ]
    for k, mat in enumerate(model.transitions, start=1):
        lines.append(f"[net {k}]")
        lines.append(f"L = delta{mat.rows}[" + " ".join(str(int(i)) for i in mat.col_index) + "]")
    lines.append("[output]")
    h = model.output
    lines.append(f"H = delta{h.rows}[" + " ".join(str(int(i)) for i in h.col_index) + "]")
    return "\n".join(lines) + "\n"
