import re
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from pbn_minobs import (
    LogicalMatrix,
    ModelFormatError,
    PbnModel,
    ResourceLimitError,
    assemble_network,
    decode_state,
    encode_state,
    parse_bool_expr,
    parse_model,
    render_model,
    structure_matrix,
)
import pbn_minobs.model as model_module
from pbn_minobs.cli import EXIT_VALIDATION, main
from pbn_minobs.model import BinOp, Const, Not, Var, assignment_table
from pbn_minobs.sensors import extend_output, single_variable_output

from conftest import (
    APOPTOSIS_H,
    APOPTOSIS_L,
    APOPTOSIS_P,
    MODEL_PATH,
    random_expr,
    random_model,
)


def test_parse_bundled_model(apoptosis):
    assert (apoptosis.n, apoptosis.q, apoptosis.m) == (3, 1, 4)
    assert apoptosis.probs == APOPTOSIS_P
    for mat, expected in zip(apoptosis.transitions, APOPTOSIS_L):
        assert mat == LogicalMatrix(8, expected)
    assert apoptosis.output == LogicalMatrix(2, APOPTOSIS_H)


def test_each_distinct_rule_text_is_parsed_once(monkeypatch):
    calls = []

    def counting_parse(text, *args, **kwargs):
        calls.append(text)
        return parse_bool_expr(text, *args, **kwargs)

    monkeypatch.setattr(model_module, "parse_bool_expr", counting_parse)
    model = parse_model(MODEL_PATH.read_text())
    # 13 rules, 5 distinct texts: !x2, !x1 & !x3, x2, x1 and the output rule.
    assert len(calls) == len(set(calls)) == 5
    assert model.transitions == tuple(LogicalMatrix(8, cols) for cols in APOPTOSIS_L)
    assert model.output == LogicalMatrix(2, APOPTOSIS_H)


def test_matrix_literal_form(apoptosis):
    text = (
        "states: 3\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nL = delta8[7 7 4 4 7 5 4 2]\n"
        "[output]\nH = delta2[2 1 1 2 2 1 2 1]\n"
    )
    model = parse_model(text)
    assert model.transitions[0] == apoptosis.transitions[0]
    assert model.output == apoptosis.output


# L bodies for the literal reader, each with whether it is plain: ASCII digits
# and blanks, read in one numpy call.  That call clamps values past int64 to
# 2^63 - 1, so a plain body holding that value is read per token like the rest.
LITERAL_BODIES = [
    ("1 2", True),
    ("2\t1", True),
    (" \t1 \t 2\t ", True),
    ("0001 00000000000000000000000000002", True),
    ("1 " + "9" * 18, True),
    ("1 " + "9" * 19, True),
    ("1 " + "9" * 20, True),
    (f"1 {2**63 - 2}", True),
    (f"1 {2**63 - 1}", True),
    (f"1 {2**63}", True),
    ("0 1", True),
    ("1 3", True),
    ("+5 1", False),
    ("1_0 1", False),
    ("\u0663 1", False),  # ARABIC-INDIC DIGIT THREE
    ("\uff11 \uff12", False),  # FULLWIDTH DIGIT ONE, TWO
    ("-3 1", False),
    ("1\xa02", False),
    ("1 2 x", False),
    ("1 2.0", False),
    (" \t ", False),
    ("", False),
]


@pytest.mark.parametrize("rows", [2, 2**63 - 1])
@pytest.mark.parametrize("body, plain", LITERAL_BODIES)
def test_literal_body_reads_as_int_per_token(body, plain, rows, monkeypatch):
    assert bool(model_module._PLAIN_BODY_RE.fullmatch(body)) == plain
    try:
        entries = [int(tok) for tok in body.split()]
    except ValueError:
        expected = f"line 6: invalid matrix literal body {body!r}"
    else:
        try:
            expected = LogicalMatrix(rows, entries).col_index.tolist()
        except ValueError as exc:
            expected = f"line 6: {exc}"
    built = []  # the matrices the parser builds from literals, L first

    def record(*args):
        built.append(LogicalMatrix(*args))
        return built[-1]

    monkeypatch.setattr(model_module, "LogicalMatrix", record)
    text = (
        "states: 1\noutputs: 1\nsubnetworks: 1\np: 1\n"
        f"[net 1]\nL = delta{rows}[{body}]\n[output]\nH = delta2[1 2]\n"
    )
    outcome = None
    try:
        parse_model(text)
    except ModelFormatError as err:
        outcome = str(err)
    if built:  # L was read; a shape other than 2 x 2 is refused after that, on line 5
        outcome = built[0].col_index.tolist()
    assert outcome == expected
    if built:
        assert built[0].col_index.dtype == np.int64


def test_probability_vector_must_sum_to_one():
    text = (
        "states: 1\noutputs: 1\nsubnetworks: 2\np: 0.5 0.4\n"
        "[net 1]\nx1' = x1\n[net 2]\nx1' = !x1\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError, match="sum"):
        parse_model(text)


def test_probability_out_of_range():
    text = (
        "states: 1\noutputs: 1\nsubnetworks: 2\np: 1.5 -0.5\n"
        "[net 1]\nx1' = x1\n[net 2]\nx1' = !x1\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError, match=r"\[0, 1\]"):
        parse_model(text)


def test_syntax_error_reports_line_and_col():
    text = (
        "states: 2\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nx1' = x1 &\nx2' = x2\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert err.value.line == 6
    assert err.value.col is not None


def test_variable_index_out_of_range():
    text = (
        "states: 2\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nx1' = x3\nx2' = x2\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError, match="x3 out of range"):
        parse_model(text)


def test_mixing_rules_and_literal_rejected():
    text = (
        "states: 1\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nx1' = x1\nL = delta2[1 2]\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError, match="mixed"):
        parse_model(text)


def test_missing_subnetwork_rejected():
    text = (
        "states: 1\noutputs: 1\nsubnetworks: 2\np: 0.5 0.5\n"
        "[net 1]\nx1' = x1\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError, match=r"missing \[net 2\]"):
        parse_model(text)


def test_duplicate_rule_rejected():
    text = (
        "states: 2\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nx1' = x1\nx1' = x2\nx2' = x2\n[output]\ny1 = x1\n"
    )
    with pytest.raises(ModelFormatError, match="duplicate rule"):
        parse_model(text)


def test_expression_precedence():
    n = 3
    or_over_and = parse_bool_expr("x1 | x2 & x3", n)
    assert str(or_over_and) == "(x1 | (x2 & x3))"
    imp_left = parse_bool_expr("x1 -> x2 -> x3", n)
    assert str(imp_left) == "((x1 -> x2) -> x3)"
    iff_loosest = parse_bool_expr("x1 <-> x2 -> x3", n)
    assert str(iff_loosest) == "(x1 <-> (x2 -> x3))"
    not_tightest = parse_bool_expr("!x1 & x2 ^ x3", n)
    assert str(not_tightest) == "((!x1 & x2) ^ x3)"


def one_rule_model(net_rule: str, output_rule: str = "x1") -> str:
    """A one-node model whose net rule is on line 6 and output rule on line 8."""
    return (
        "states: 1\noutputs: 1\nsubnetworks: 1\np: 1\n"
        f"[net 1]\nx1' = {net_rule}\n[output]\ny1 = {output_rule}\n"
    )


# 140 nested parentheses overflow the parser, 1000 '!' too, and both are refused
# at the rule's first column; a 1000-term chain parses but overflows when its
# table is evaluated, and is refused with its line alone.
DEEP_RULES = {
    "parentheses": ("(" * 140 + "x1" + ")" * 140, True),
    "negations": ("!" * 1000 + "x1", True),
    "chain": (" & ".join(["x1"] * 1000), False),
}


@pytest.mark.parametrize("rule, in_parser", DEEP_RULES.values(), ids=DEEP_RULES.keys())
def test_rule_nested_too_deeply_is_refused_with_its_line(rule, in_parser, tmp_path, capsys):
    # The net rule starts at column 7 of line 6, the output rule at column 6 of line 8.
    for text, line, col in ((one_rule_model(rule), 6, 7), (one_rule_model("x1", rule), 8, 6)):
        with pytest.raises(ModelFormatError, match="nested too deeply") as err:
            parse_model(text)
        assert (err.value.line, err.value.col) == (line, col if in_parser else None)
    path = tmp_path / "deep.pbn"
    path.write_text(one_rule_model(rule))
    place = "line 6, col 7: " if in_parser else "line 6: "
    for argv in (
        ["validate", str(path)],
        ["analyze", str(path)],
        ["reach", str(path), "--target", "S2"],
        ["simulate", str(path), "--pair", "1,2"],
    ):
        assert main(argv) == EXIT_VALIDATION
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: " + place), (argv, err)


@pytest.mark.parametrize("rule, in_parser", DEEP_RULES.values(), ids=DEEP_RULES.keys())
def test_too_deep_rule_repeated_in_two_blocks_is_refused_where_first_read(rule, in_parser):
    # The rule is read first in [output] (line 6, col 6), but [net 2] (line 10) is
    # evaluated first: a rule too deep to parse is refused where it is first parsed,
    # one too deep to walk where it is first evaluated.
    text = (
        "states: 1\noutputs: 1\nsubnetworks: 2\np: 0.5 0.5\n"
        f"[output]\ny1 = {rule}\n[net 1]\nx1' = x1\n[net 2]\nx1' = {rule}\n"
    )
    with pytest.raises(ModelFormatError, match="nested too deeply") as err:
        parse_model(text)
    assert (err.value.line, err.value.col) == ((6, 6) if in_parser else (10, None))


@pytest.mark.parametrize("rule", [r for r, in_parser in DEEP_RULES.values() if in_parser])
def test_direct_parse_of_a_too_deep_rule_names_its_column(rule):
    with pytest.raises(ModelFormatError, match="nested too deeply") as err:
        parse_bool_expr(rule, 1)
    assert (err.value.line, err.value.col) == (None, 1)
    with pytest.raises(ModelFormatError) as err:
        parse_bool_expr(rule, 1, line=3, col_base=9)
    assert str(err.value) == "line 3, col 9: rule is nested too deeply to evaluate"


def test_every_walk_of_a_rule_too_deep_to_walk_is_refused():
    # The chain parses (its operators are read in a loop) but nests 999 levels deep.
    expr = parse_bool_expr(DEEP_RULES["chain"][0], 1)
    walks = {
        "structure_matrix": lambda: structure_matrix(expr, 1),
        "str": lambda: str(expr),
        "max_var": expr.max_var,
        "evaluate": lambda: expr.evaluate((1,)),
        "table": lambda: expr.table(assignment_table(1)),
    }
    for name, walk in walks.items():
        with pytest.raises(ModelFormatError) as err:
            walk()
        assert (str(err.value), err.value.line, err.value.col) == (
            "rule is nested too deeply to evaluate", None, None
        ), name


REFERENCE_OPS = {
    "&": lambda a, b: a and b,
    "|": lambda a, b: a or b,
    "^": lambda a, b: a != b,
    "->": lambda a, b: (not a) or b,
    "<->": lambda a, b: a == b,
}


def _reference_walks(expr, bits):
    """(value on ``bits``, text, highest variable) of a rule, by plain recursion on its type."""
    if isinstance(expr, Var):
        return bool(bits[expr.index - 1]), f"x{expr.index}", expr.index
    if isinstance(expr, Const):
        return expr.value, "1" if expr.value else "0", 0
    if isinstance(expr, Not):
        value, text, top = _reference_walks(expr.arg, bits)
        return not value, "!" + text, top
    a, ta, ma = _reference_walks(expr.lhs, bits)
    b, tb, mb = _reference_walks(expr.rhs, bits)
    return REFERENCE_OPS[expr.op](a, b), f"({ta} {expr.op} {tb})", max(ma, mb)


def test_walks_of_random_rules_match_plain_recursion():
    rng = np.random.default_rng(4242)
    # The last 60 rules have tables of 64-256 rows, more than one machine word.
    for draw in range(360):
        n = int(rng.integers(1, 6)) if draw < 300 else 6 + draw % 3
        expr = random_expr(rng, n, depth=int(rng.integers(1, 6)))
        table = assignment_table(n)
        expected = [_reference_walks(expr, row) for row in table]
        assert [expr.evaluate(row) for row in table] == [int(v) for v, _, _ in expected]
        assert expr.table(table).tolist() == [v for v, _, _ in expected]
        assert str(expr) == expected[0][1]
        assert expr.max_var() == expected[0][2]
        assert structure_matrix(expr, n).col_index.tolist() == [1 if v else 2 for v, _, _ in expected]


@pytest.mark.parametrize("rows", [0, 1, 7, 9, 65])
def test_table_reads_assignment_matrices_of_any_row_count(rows):
    rng = np.random.default_rng(rows)
    for _ in range(20):
        n = int(rng.integers(1, 6))
        expr = random_expr(rng, n, depth=4)
        assignments = rng.random((rows, n)) < 0.5
        expected = [_reference_walks(expr, row)[0] for row in assignments]
        got = expr.table(assignments)
        assert got.dtype == bool and got.shape == (rows,)
        assert got.tolist() == expected
        assert [expr.evaluate(row) for row in assignments] == [int(v) for v in expected]


def test_deep_rules_below_the_limit_keep_their_matrices():
    for rule, plain in (
        ("(" * 60 + "!x1" + ")" * 60, "!x1"),
        (" & ".join(["x1"] * 300), "x1"),
        ("!" * 301 + "x1", "!x1"),
    ):
        model = parse_model(one_rule_model(rule, rule))
        expected = parse_model(one_rule_model(plain, plain))
        assert model.transitions == expected.transitions
        assert model.output == expected.output


def test_structure_matrix_examples():
    neg_x2 = parse_bool_expr("!x2", 3)
    assert structure_matrix(neg_x2, 3) == LogicalMatrix(2, [2, 2, 1, 1, 2, 2, 1, 1])
    ident = parse_bool_expr("x1", 1)
    assert structure_matrix(ident, 1) == LogicalMatrix(2, [1, 2])
    out_rule = parse_bool_expr("(x2 & !x3) | ((x1 <-> x3) & !x2)", 3)
    assert structure_matrix(out_rule, 3) == LogicalMatrix(2, APOPTOSIS_H)


def test_structure_matrix_matches_direct_evaluation():
    rng = np.random.default_rng(11)
    for _ in range(150):
        n = int(rng.integers(1, 6))
        expr = random_expr(rng, n)
        mat = structure_matrix(expr, n)
        for k in range(1, (1 << n) + 1):
            bits = decode_state(k, n)
            assert mat.column(k) == (1 if expr.evaluate(bits) else 2)


def test_assemble_network_reproduces_subnetworks():
    rules_net1 = ["!x2", "!x1 & !x3", "x2"]
    mats = [structure_matrix(parse_bool_expr(r, 3), 3) for r in rules_net1]
    assert assemble_network(mats) == LogicalMatrix(8, APOPTOSIS_L[0])
    rules_net4 = ["x1", "x2", "x2"]
    mats = [structure_matrix(parse_bool_expr(r, 3), 3) for r in rules_net4]
    assert assemble_network(mats) == LogicalMatrix(8, APOPTOSIS_L[3])


def test_assemble_identity_rules_to_identity():
    n = 4
    mats = [structure_matrix(Var(i), n) for i in range(1, n + 1)]
    assert assemble_network(mats) == LogicalMatrix.identity(1 << n)


def test_assemble_reproduces_vector_function_pointwise():
    rng = np.random.default_rng(12)
    for _ in range(30):
        n = int(rng.integers(1, 5))
        exprs = [random_expr(rng, n) for _ in range(n)]
        net = assemble_network([structure_matrix(e, n) for e in exprs])
        for k in range(1, (1 << n) + 1):
            bits = decode_state(k, n)
            image_bits = tuple(e.evaluate(bits) for e in exprs)
            assert net.column(k) == encode_state(image_bits)


def reference_khatri_rao(a, b):
    """Column-wise Kronecker product of two logical matrices through the checking constructor."""
    return LogicalMatrix(a.rows * b.rows, (a.col_index - 1) * b.rows + b.col_index)


def reference_matrix(exprs, n):
    """Per-node matrices by pointwise evaluation, folded by :func:`reference_khatri_rao`."""
    states = [decode_state(k, n) for k in range(1, (1 << n) + 1)]
    per_node = [LogicalMatrix(2, [1 if e.evaluate(b) else 2 for b in states]) for e in exprs]
    return reduce(reference_khatri_rao, per_node)


def _operators(expr, seen):
    """Collect the operators and constants of ``expr`` into ``seen``."""
    if isinstance(expr, Const):
        seen.add(str(expr))
    elif isinstance(expr, Not):
        seen.add("!")
        _operators(expr.arg, seen)
    elif isinstance(expr, BinOp):
        seen.add(expr.op)
        _operators(expr.lhs, seen)
        _operators(expr.rhs, seen)
    return seen


def test_parsed_rule_models_match_checked_khatri_rao_folds():
    rng = np.random.default_rng(19)
    seen = set()
    for _ in range(320):
        n, m, q = int(rng.integers(1, 7)), int(rng.integers(1, 4)), int(rng.integers(1, 4))
        nets = [[random_expr(rng, n) for _ in range(n)] for _ in range(m)]
        outputs = [random_expr(rng, n) for _ in range(q)]
        lines = [f"states: {n}", f"outputs: {q}", f"subnetworks: {m}", "p: 1" + " 0" * (m - 1)]
        for k, rules in enumerate(nets, start=1):
            lines += [f"[net {k}]"] + [f"x{i}' = {e}" for i, e in enumerate(rules, start=1)]
        lines += ["[output]"] + [f"y{j} = {e}" for j, e in enumerate(outputs, start=1)]
        model = parse_model("\n".join(lines) + "\n")
        expected = [reference_matrix(rules, n) for rules in nets] + [reference_matrix(outputs, n)]
        for got, want in zip(model.transitions + (model.output,), expected):
            assert got == want
            assert got.col_index.dtype == np.int64 and not got.col_index.flags.writeable
        for e in (*outputs, *(e for rules in nets for e in rules)):
            _operators(e, seen)
    assert seen == {"!", "&", "|", "^", "->", "<->", "0", "1"}


def test_measurement_outputs_match_checked_khatri_rao_folds():
    rng = np.random.default_rng(20)
    for n in range(1, 9):
        for m in range(1, n + 1):
            reading = single_variable_output(m, n)
            assert reading == structure_matrix(Var(m), n) == reference_matrix([Var(m)], n)
        for _ in range(4):
            model = random_model(rng, n=n, q=int(rng.integers(1, 4)))
            added = tuple(int(v) for v in rng.integers(1, n + 1, int(rng.integers(1, 4))))
            extended = extend_output(model, added)
            readings = [reference_matrix([Var(v)], n) for v in added]
            assert extended.output == reduce(reference_khatri_rao, [model.output] + readings)
            assert (extended.q, extended.transitions) == (model.q + len(added), model.transitions)


def test_state_coding_examples():
    assert decode_state(1, 3) == (1, 1, 1)
    assert decode_state(8, 3) == (0, 0, 0)
    assert decode_state(4, 3) == (1, 0, 0)
    assert encode_state((1, 0, 0)) == 4


def test_state_coding_round_trip():
    for n in range(1, 13):
        for k in range(1, (1 << n) + 1):
            assert encode_state(decode_state(k, n)) == k


def test_state_coding_range_errors():
    with pytest.raises(ValueError):
        decode_state(0, 3)
    with pytest.raises(ValueError):
        decode_state(9, 3)


def test_render_round_trip_bundled(apoptosis):
    assert parse_model(render_model(apoptosis)) == apoptosis


@settings(derandomize=True, deadline=None, max_examples=200)
@given(
    st.integers(1, 5),
    st.integers(1, 4),
    st.integers(1, 3),
    st.integers(0, 2**32 - 1),
)
def test_render_round_trip(n, m, q, seed):
    # random_model gives some subnetworks probability zero in about 40% of draws with m > 1.
    model = random_model(np.random.default_rng(seed), n=n, m=m, q=q)
    assert parse_model(render_model(model)) == model


def _model_tokens(text: str) -> list[str]:
    """A model text as numbers, words, runs of blanks and single characters."""
    return re.findall(r"\d+|[A-Za-z_]+|\s+|.", text)


# The bundled file without its comment lines, in its rule form and in the
# matrix-literal form that ``render_model`` writes.
RULE_TEXT = re.sub(r"(?m)^#.*\n", "", MODEL_PATH.read_text(encoding="utf-8"))
BASE_TOKENS = [_model_tokens(RULE_TEXT), _model_tokens(render_model(parse_model(RULE_TEXT)))]


def _size_positions(tokens: list[str]) -> list[int]:
    """The header sizes, which drive every allocation the parser makes."""
    return [
        k
        for k, token in enumerate(tokens)
        if token.isdigit() and tokens[k - 3] in ("states", "outputs", "subnetworks")
    ]


@st.composite
def mutated_model_text(draw, base: list[str]) -> str:
    """The model text ``base`` (tokens) with one to three mutations.

    A header size may become any nonnegative integer; any token may become
    another token of the text or up to three arbitrary characters.
    """
    tokens = list(base)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            position = draw(st.sampled_from(_size_positions(base)))
            tokens[position] = str(draw(st.integers(min_value=0)))
        else:
            position = draw(st.integers(0, len(tokens) - 1))
            tokens[position] = draw(
                st.one_of(st.sampled_from(sorted(set(base))), st.text(max_size=3))
            )
    return "".join(tokens)


# Refusals about something absent from the whole document have no line to name.
WHOLE_DOCUMENT_ERROR = re.compile(r"missing (\[net \d+\]|\[output\]) section|missing header key '\w+'")


@settings(derandomize=True, deadline=None, max_examples=450)
@given(st.one_of(*map(mutated_model_text, BASE_TOKENS), st.text(max_size=200)))
def test_mutated_model_text_parses_or_is_refused(text):
    try:
        assert isinstance(parse_model(text), PbnModel)
    except ModelFormatError as err:
        assert err.line is not None or WHOLE_DOCUMENT_ERROR.fullmatch(err.message), err.message
    except ResourceLimitError:
        pass
