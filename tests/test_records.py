"""dkit's records: value equality and immutability without dataclasses.

The records are NamedTuples or classes on the one ``dkit.record.Record``
base, which writes immutability, equality, hash and repr once, because
importing ``dataclasses`` (which imports ``inspect``) and generating the
methods of each decorated class cost every start of the command line.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import dkit
from dkit import (
    Analysis,
    CausalityReport,
    CharPoly,
    ConsistencyResult,
    DescriptorSystem,
    InputSignal,
    JordanBlockSpec,
    Matrix,
    Mode,
    NilpotentBlockSpec,
    Pencil,
    Trajectory,
    TransformedInput,
    VerificationReport,
    WeierstrassDecomposition,
    analyze,
    build_report,
    check_consistency,
    solve,
)
from dkit.causality import OracleCounterexample
from dkit.cli import SystemFile, parse_system_file
from dkit.record import Record

SRC = Path(__file__).parent.parent / "src"
DIAG = str(Path(__file__).parent / "data" / "diag_system.json")


def _builds():
    """For each record type, a function that builds a new record from one
    fixed set of field values on every call, and the name of a field."""
    sf = parse_system_file(DIAG)
    a = analyze(sf.system())
    w, tin, signal, block = a.w, a.tin, sf.signal(), a.w.jordan_blocks[0]
    traj = solve(a, signal, sf.Y0, sf.K)
    cons = check_consistency(a, signal, sf.Y0)
    rep = build_report(a.system, w, tin)
    other = InputSignal(signal.k0, signal.samples)
    ce = (0, 1, 0, signal, other, traj.states[0], traj.states[1])
    return {
        "Pencil": (lambda: Pencil(sf.F, sf.G), "F"),
        "DescriptorSystem": (lambda: DescriptorSystem(sf.F, sf.G, sf.B, sf.C), "B"),
        "InputSignal": (lambda: InputSignal(signal.k0, signal.samples), "k0"),
        "CharPoly": (lambda: CharPoly(*a.system.char_poly), "n"),
        "JordanBlockSpec": (lambda: JordanBlockSpec(block.eigenvalue, block.size), "size"),
        "NilpotentBlockSpec": (lambda: NilpotentBlockSpec(2), "size"),
        "WeierstrassDecomposition": (lambda: WeierstrassDecomposition(
            w.P, w.Q, w.jordan_blocks, w.nilpotent_blocks), "Q"),
        "VerificationReport": (lambda: VerificationReport(*a.verification), "residual_F"),
        "TransformedInput": (lambda: TransformedInput(*tin), "B_p"),
        "Analysis": (lambda: Analysis(a.system, w, a.verification), "w"),
        "ConsistencyResult": (lambda: ConsistencyResult(*cons), "consistent"),
        "Trajectory": (lambda: Trajectory(traj.k0, traj.states, traj.outputs,
                                          traj.z_p, traj.z_q), "states"),
        "CausalityReport": (lambda: CausalityReport(*rep), "state_input_causal"),
        "OracleCounterexample": (lambda: OracleCounterexample(*ce), "diverged_at"),
        "SystemFile": (lambda: SystemFile(*sf), "mode"),
    }


RECORDS = ("Analysis", "CausalityReport", "CharPoly", "ConsistencyResult", "DescriptorSystem",
           "InputSignal", "JordanBlockSpec", "NilpotentBlockSpec", "OracleCounterexample",
           "Pencil", "SystemFile", "Trajectory", "TransformedInput", "VerificationReport",
           "WeierstrassDecomposition")


@pytest.mark.parametrize("name", RECORDS)
def test_records_are_values_and_immutable(name):
    build, field = _builds()[name]
    first, second = build(), build()
    assert type(first).__name__ == name
    assert first is not second
    assert first == second and not first != second
    assert hash(first) == hash(second)
    with pytest.raises(AttributeError):
        setattr(first, field, None)
    with pytest.raises(AttributeError):
        first.new_attribute = None
    assert getattr(first, field) is getattr(second, field)


def test_a_system_and_its_signal_cannot_change_under_an_analysis():
    sf = parse_system_file(DIAG)
    a, signal = analyze(sf.system()), sf.signal()
    with pytest.raises(AttributeError):
        a.system.B = a.system.B.scale(2)
    with pytest.raises(AttributeError):
        signal.k0 = 1
    assert a.system.B is sf.B and signal.k0 == sf.k0


def test_every_exported_class_is_a_namedtuple_or_a_record():
    classes = [obj for obj in map(vars(dkit).get, dkit.__all__)
               if isinstance(obj, type) and not issubclass(obj, Exception)
               and obj not in (Mode, Matrix)]
    assert DescriptorSystem in classes and CharPoly in classes
    assert [c.__name__ for c in classes if not issubclass(c, (tuple, Record))] == []


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    code = ("import sys, dkit.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
