import re

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
from pbn_minobs.model import Var

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


def test_matrix_literal_form(apoptosis):
    text = (
        "states: 3\noutputs: 1\nsubnetworks: 1\np: 1.0\n"
        "[net 1]\nL = delta8[7 7 4 4 7 5 4 2]\n"
        "[output]\nH = delta2[2 1 1 2 2 1 2 1]\n"
    )
    model = parse_model(text)
    assert model.transitions[0] == apoptosis.transitions[0]
    assert model.output == apoptosis.output


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


def test_render_round_trip(apoptosis):
    assert parse_model(render_model(apoptosis)) == apoptosis
    rng = np.random.default_rng(13)
    for _ in range(25):
        model = random_model(rng)
        assert parse_model(render_model(model)) == model


# The bundled file without its comment lines, as numbers, words, runs of
# blanks and single characters.
MODEL_TOKENS = re.findall(
    r"\d+|[A-Za-z_]+|\s+|.",
    re.sub(r"(?m)^#.*\n", "", MODEL_PATH.read_text(encoding="utf-8")),
)
# The header sizes, which drive every allocation the parser makes.
SIZE_POSITIONS = [
    k
    for k, token in enumerate(MODEL_TOKENS)
    if token.isdigit() and MODEL_TOKENS[k - 3] in ("states", "outputs", "subnetworks")
]


@st.composite
def mutated_model_text(draw) -> str:
    """The bundled file with one to three mutations.

    A header size may become any nonnegative integer; any token may become
    another token of the file or up to three arbitrary characters.
    """
    tokens = list(MODEL_TOKENS)
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            position = draw(st.sampled_from(SIZE_POSITIONS))
            tokens[position] = str(draw(st.integers(min_value=0)))
        else:
            position = draw(st.integers(0, len(tokens) - 1))
            tokens[position] = draw(
                st.one_of(st.sampled_from(sorted(set(MODEL_TOKENS))), st.text(max_size=3))
            )
    return "".join(tokens)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(mutated_model_text())
def test_mutated_model_text_parses_or_is_refused(text):
    try:
        assert isinstance(parse_model(text), PbnModel)
    except (ModelFormatError, ResourceLimitError):
        pass
