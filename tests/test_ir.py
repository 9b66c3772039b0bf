import pytest

from gatedepth.ir import BARRIER, MEASURE, Circuit, Gate, is_multi_qubit, validate


def test_two_qubit_unitary_is_multi_qubit():
    assert is_multi_qubit(Gate("cz", (0, 1)))


def test_single_qubit_unitary_is_not_multi_qubit():
    assert not is_multi_qubit(Gate("x", (3,)))


def test_barrier_never_multi_qubit():
    assert not is_multi_qubit(Gate("barrier", (0, 1, 2), (), BARRIER))


def test_measure_never_multi_qubit():
    assert not is_multi_qubit(Gate("measure", (0,), (), MEASURE))


def test_validate_empty_circuit_ok():
    assert validate(Circuit(1)) == []


def test_validate_out_of_range_index():
    c = Circuit(3, (Gate("x", (5,)),))
    violations = validate(c)
    assert len(violations) == 1
    assert violations[0].gate_index == 0
    assert "out of range" in violations[0].message


def test_validate_duplicate_operand():
    c = Circuit(3, (Gate("cz", (1, 1)),))
    assert any("duplicate" in v.message for v in validate(c))


def test_validate_barrier_with_params():
    c = Circuit(2, (Gate("barrier", (0, 1), (0.5,), BARRIER),))
    assert any("parameter" in v.message for v in validate(c))


def test_validate_measure_arity():
    c = Circuit(2, (Gate("measure", (0, 1), (), MEASURE),))
    assert any("exactly one qubit" in v.message for v in validate(c))


def test_structural_equality():
    a = Circuit(2, (Gate("x", (0,)),))
    b = Circuit(2, (Gate("x", (0,)),))
    assert a == b


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        Gate("x", (0,), (), "classical")


def test_from_columns_rejects_columns_of_unequal_length():
    with pytest.raises(ValueError, match="^circuit columns differ in length$"):
        Circuit.from_columns(1, ["x", "x"], ["unitary"], [(0,), (0,)], [(), ()])


def test_validate_no_qubits_and_a_gate_without_operands():
    assert [(v.gate_index, v.message) for v in validate(Circuit(0))] == [
        (-1, "num_qubits must be positive, got 0")]
    assert [(v.gate_index, v.message) for v in validate(Circuit(1, (Gate("x", ()),)))] == [
        (0, "gate 'x' has no qubit operands")]
