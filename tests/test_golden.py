"""The CLI's stdout, byte for byte, against checked-in files: how a
root, a T bracket or a cover cell is certified decides which points are
evaluated and how, never a printed digit."""

import pathlib

import pytest

from sigma_density import cli

DATA = pathlib.Path(__file__).parent / "data"

GOLDEN = {
    # the root of T_3(m_k, .) at the default eps, and every parameter echoed
    "eta_k3.txt": ["eta", "--k", "3"],
    "table_kmax10.txt": ["table", "--kmax", "10"],
    "eta_limit.txt": ["eta-limit"],
    # 44 steps; the residual is the last level of T at k = inf
    "eta_limit_eps1e-13.txt": ["eta-limit", "--eps", "1e-13"],
    # a sign test of R_7(1) is undecided at the sign size and takes the
    # sign of the printed full-size T bracket
    "thresholds_k7_eps1e-13.txt": ["thresholds", "--k", "7", "--eps", "1e-13"],
    # the thresholds' brackets overlap, and m_min is still the proved rule
    "thresholds_k1_eps1e-2.txt": ["thresholds", "--k", "1", "--eps", "1e-2"],
    # every cover claim's cells and min_slack, the gap lemma and the selector's signs
    "verify_all.txt": ["verify", "--suite", "all"],
    "density_k1_r1.5.txt": ["density", "--k", "1", "--r", "1.5"],
    "density_k5_r1.87.txt": ["density", "--k", "5", "--r", "1.87"],
    # T is tiny and positive at every level
    "density_k2_r40.txt": ["density", "--k", "2", "--r", "40"],
    # zeta((k + 1) r) = zeta(58.9) is a direct sum with an integral tail
    "density_k30_r1.9.txt": ["density", "--k", "30", "--r", "1.9"],
    # the gap scan runs through t_levels
    "census_k1_r2_bound1000.txt": ["census", "--k", "1", "--r", "2.0", "--bound", "1000"],
    "approximate_k2_r1.9_x0.5_steps1000.txt": [
        "approximate", "--k", "2", "--r", "1.9", "--x", "0.5", "--steps", "1000"
    ],
    # both TSV writers: the census's one value a line, and an envelope's
    # key/value lines, with a walk's arrays through the blocked float writer
    "census_k1_r2_bound1000.tsv": ["--format", "tsv", "census", "--k", "1", "--r", "2.0", "--bound", "1000"],
    "density_k1_r1.5.tsv": ["--format", "tsv", "density", "--k", "1", "--r", "1.5"],
    "approximate_k2_r1.9_x0.5_steps1000.tsv": [
        "--format", "tsv", "approximate", "--k", "2", "--r", "1.9", "--x", "0.5", "--steps", "1000"
    ],
}


@pytest.mark.parametrize("name", GOLDEN)
def test_stdout_equals_the_golden_file(capsysbinary, name):
    assert cli.main(GOLDEN[name]) == 0
    assert capsysbinary.readouterr().out == (DATA / name).read_bytes()
