"""The solver commands' stdout, byte for byte, against checked-in
files: how a root is certified decides which points are evaluated,
never a printed digit."""

import pathlib

import pytest

from sigma_density import cli

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = {
    "table_kmax10.txt": ["table", "--kmax", "10"],
    "eta_limit.txt": ["eta-limit"],
    # a sign test of R_7(1) escalates to the full zeta kernel
    "thresholds_k7_eps1e-13.txt": ["thresholds", "--k", "7", "--eps", "1e-13"],
    # the thresholds tie, so the selector solves them again at eps/100
    "thresholds_k1_eps1e-2.txt": ["thresholds", "--k", "1", "--eps", "1e-2"],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_equals_the_golden_file(capsysbinary, name):
    assert cli.main(GOLDEN[name]) == 0
    assert capsysbinary.readouterr().out == (DATA / name).read_bytes()
