"""Error-path and edge coverage that the mainline tests do not reach."""

import numpy as np
import pytest

from pbn_minobs import (
    InfeasibleCoverError,
    LogicalMatrix,
    ModelFormatError,
    PbnModel,
    ResourceLimitError,
    StateSet,
    assemble_network,
    build_augmented,
    encode_state,
    global_min_sensors,
    minimal_targets,
    parse_model,
    partition_states,
    stp,
    structure_matrix,
)
from pbn_minobs.cli import EXIT_RESOURCE, EXIT_VALIDATION, main
from pbn_minobs.model import Var
from pbn_minobs.stp import dimension_cap

BASE = "states: 1\noutputs: 1\nsubnetworks: 1\np: 1.0\n[net 1]\nx1' = x1\n[output]\ny1 = x1\n"


@pytest.mark.parametrize(
    "text,needle",
    [
        (BASE.replace("states: 1\n", ""), "missing header key 'states'"),
        (BASE.replace("[net 1]", "[net 2]"), "missing [net 1]"),
        (BASE.replace("[output]\ny1 = x1\n", ""), "missing [output]"),
        ("states: 1\n" + BASE, "duplicate header key"),
        (BASE + "[output]\ny1 = x1\n", "duplicate [output]"),
        (BASE.replace("p: 1.0", "p: 1.0 0.0"), "but subnetworks is 1"),
        (BASE.replace("p: 1.0", "p: one"), "invalid probability vector"),
        (BASE.replace("states: 1", "states: one"), "invalid integer"),
        (BASE.replace("x1' = x1", "L = delta2[1 5]"), "column indices"),
        (BASE.replace("x1' = x1", "L = delta2[x y]"), "invalid matrix literal"),
        (BASE.replace("x1' = x1", "H = delta2[1 2]"), "expected a L literal"),
        (BASE.replace("x1' = x1", "L = delta4[1 2 3 4]"), "expected 2x2"),
        (BASE.replace("x1' = x1", "x2' = x1"), "out of range"),
        (BASE.replace("x1' = x1", "nonsense"), "expected"),
        (BASE.replace("y1 = x1", "y1 = x1\ny2 = x1"), "out of range"),
        ("junk\n" + BASE, "expected a header line"),
        (BASE + "[net 3]\nx1' = x1\n", "out of range: subnetworks is 1"),
        (BASE.replace("[net 1]\nx1' = x1\n", "[net 1]\n"), "missing a rule for x1"),
        (BASE.replace("outputs: 1", "outputs: 100000000000000000000"), "missing a rule for y2"),
        (
            BASE.replace("outputs: 1", "outputs: 100000000000000000000").replace(
                "y1 = x1", "H = delta2[1 2]"
            ),
            "line 7: matrix literal is 2x2, expected 2^100000000000000000000x2",
        ),
        (
            BASE.replace("subnetworks: 1\np: 1.0", "subnetworks: 2\np: nan 1.0")
            + "[net 2]\nx1' = !x1\n",
            "line 4: probabilities must be finite",
        ),
        (
            BASE.replace("subnetworks: 1\np: 1.0", "subnetworks: 2\np: 0.5 0.4")
            + "[net 2]\nx1' = !x1\n",
            "line 4: probabilities sum to",
        ),
        (
            BASE.replace("subnetworks: 1\np: 1.0", "subnetworks: 2\np: 1.5 -0.5")
            + "[net 2]\nx1' = !x1\n",
            "line 4: probabilities must lie in [0, 1]",
        ),
        ("outputs: 1\n\n[net 1]\nx1' = x1\n", "line 3: missing header key 'states'"),
        (
            "states: 0\noutputs: -1\nsubnetworks: 1\np: 1.0\n[net 1]\n[output]\n",
            "line 1: states must be positive, got 0",
        ),
        (BASE.replace("subnetworks: 1", "subnetworks: 0"), "line 3: subnetworks must be positive"),
    ],
)
def test_parse_failures(text, needle):
    with pytest.raises(ModelFormatError) as err:
        parse_model(text)
    assert needle in str(err.value)


def test_assignment_table_checked_against_dimension_cap(monkeypatch):
    # states: 3 needs an 8x3 assignment table; 24 entries exceed a cap of 20.
    text = BASE.replace("states: 1", "states: 3").replace(
        "x1' = x1", "x1' = x1\nx2' = x2\nx3' = x3"
    )
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "20")
    with pytest.raises(ResourceLimitError, match="assignment table.*entry cap 20"):
        parse_model(text)
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "4096")
    assert parse_model(text).n == 3
    with pytest.raises(ResourceLimitError, match="entry cap 4096"):
        parse_model(BASE.replace("states: 1", "states: 100000000000000000000"))


def test_rule_form_n14_is_refused_at_the_khatri_rao_cap(tmp_path, monkeypatch, capsys):
    # Its 2^14 x 14 assignment table is under the default cap; the network matrix is not.
    monkeypatch.delenv("PBN_MINOBS_MAX_DIM", raising=False)
    rules = "".join(f"x{i}' = x{i}\n" for i in range(1, 15))
    path = tmp_path / "n14.pbn"
    path.write_text(BASE.replace("states: 1", "states: 14").replace("x1' = x1\n", rules))
    assert main(["validate", str(path)]) == EXIT_RESOURCE
    assert capsys.readouterr().err == (
        "resource limit: Khatri-Rao result of size 8192x16384 exceeds the entry cap 67108864 "
        "(override with PBN_MINOBS_MAX_DIM)\n"
    )


def test_output_indices_past_int64_are_refused_with_the_block_line(tmp_path, monkeypatch, capsys):
    # 2^70 x 2 entries pass this cap, but column 2 of y1..y70 = x1 is delta_{2^70}^{2^70}.
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", str(10**24))
    rules = "".join(f"y{j} = x1\n" for j in range(1, 71))
    path = tmp_path / "out70.pbn"
    path.write_text(BASE.replace("outputs: 1", "outputs: 70").replace("y1 = x1\n", rules))
    message = "[output] has 70 rules: its 2^70 rows exceed 64-bit indices"
    with pytest.raises(ModelFormatError) as err:
        parse_model(path.read_text())
    assert (err.value.line, err.value.message) == (7, message)
    assert main(["validate", str(path)]) == EXIT_VALIDATION
    assert capsys.readouterr().err == f"error: line 7: {message}\n"


def test_section_before_states_rejected():
    with pytest.raises(ModelFormatError, match="must appear before"):
        parse_model("[net 1]\nx1' = x1\n")


def test_encode_state_rejects_non_bits():
    with pytest.raises(ValueError):
        encode_state((1, 2, 0))


def test_structure_matrix_variable_range():
    with pytest.raises(ValueError, match="x3"):
        structure_matrix(Var(3), 2)


def test_assemble_network_validation():
    with pytest.raises(ValueError):
        assemble_network([])
    with pytest.raises(ValueError, match="2x4"):
        assemble_network([LogicalMatrix(2, [1, 2, 1, 2]), LogicalMatrix(2, [1, 2])])


def test_dimension_cap_env_validation(monkeypatch):
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "not-a-number")
    with pytest.raises(ValueError, match="integer"):
        dimension_cap()
    monkeypatch.setenv("PBN_MINOBS_MAX_DIM", "-5")
    with pytest.raises(ValueError, match="positive"):
        dimension_cap()


def test_stp_accepts_logical_operands():
    a = LogicalMatrix(2, [2, 1])
    assert np.array_equal(stp(a, a), np.eye(2))


def test_logical_matrix_column_range():
    with pytest.raises(ValueError):
        LogicalMatrix(2, [1, 2]).column(3)


def test_stochastic_matrix_guards(apoptosis):
    aug = build_augmented(apoptosis)
    q = aug.q_matrix
    with pytest.raises(ValueError):
        q.column_dict(0)
    with pytest.raises(ValueError):
        q.entry(65, 1)
    with pytest.raises(ValueError):
        q.column_dict(65)
    assert q.entry(29, 29) == pytest.approx(0.1, abs=1e-12)
    assert q.entry(1, 29) == 0.0


def test_all_candidates_infeasible_raises(apoptosis):
    from dataclasses import replace

    report = minimal_targets(apoptosis)
    # Pair (1, 1) is diagonal: no measurement separates it, so no candidate has a cover.
    diagonal = StateSet.from_indices(report.system.pair_count, [1])
    broken = replace(report, candidates=tuple(c | diagonal for c in report.candidates))
    with pytest.raises(InfeasibleCoverError, match="not separated by any state variable"):
        global_min_sensors(broken)


def test_single_node_network_end_to_end():
    model = PbnModel(
        n=1,
        q=1,
        transitions=(LogicalMatrix(2, [2, 1]), LogicalMatrix.identity(2)),
        output=LogicalMatrix(2, [1, 1]),
        probs=(0.5, 0.5),
    )
    part = partition_states(model)
    assert part.s1.indices() == (2,)
    report = minimal_targets(model)
    assert not report.observable
    plan = global_min_sensors(report)
    assert plan.min_size == 1
    assert plan.extended_observable


def test_state_set_repr_truncates():
    s = StateSet.from_indices(64, range(1, 20))
    assert "..." in repr(s)
    assert repr(StateSet.from_indices(4, [2])) == "StateSet(4, {2})"
