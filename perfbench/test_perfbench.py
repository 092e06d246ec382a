"""Tests of the benchmark itself.  Run from the repository root:

    python -m pytest perfbench -q
"""

import os
import pytest

import cpuclock
import run
import spans
import workloads

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_is_deterministic_and_seed_dependent(workload):
    assert workloads.plan(workload, 7, 12) == workloads.plan(workload, 7, 12)
    assert workloads.plan(workload, 7, 12) != workloads.plan(workload, 8, 12)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_plan_mix_does_not_depend_on_the_seed(workload):
    def mix(seed):
        sized = ("census", "approximate")
        return sorted((a[0], a[-1] if a[0] in sized else "") for a in workloads.plan(workload, seed, 12))

    assert mix(1) == mix(2)


def test_census_rounds_cover_every_k_and_r_stratum():
    lo, hi = workloads.CENSUS_R
    third = (hi - lo) / 3
    seconds = workloads.FIXED_SECONDS["census"] + workloads.UNIT_SECONDS["census"] * 5

    def pairs(seed):
        requests = workloads.plan("census", seed, seconds)
        big = [argv for argv in requests if argv[0] == "census" and argv[-1] == str(workloads.CENSUS_BOUND)]
        return [(int(argv[2]), int((float(argv[4]) - lo) // third)) for argv in big]

    rounds = [sorted(pairs(3)[start : start + 3]) for start in range(0, 15, 3)]
    assert len(rounds) == 5
    for pairing in rounds:
        assert sorted(k for k, _ in pairing) == [1, 2, 3]
        assert sorted(s for _, s in pairing) == [0, 1, 2]
    # Three rounds in a row pair each k with each stratum once.
    assert sorted(rounds[0] + rounds[1] + rounds[2]) == [(k, s) for k in (1, 2, 3) for s in (0, 1, 2)]
    # The pairing of each round does not depend on the seed.
    assert rounds == [sorted(pairs(4)[start : start + 3]) for start in range(0, 15, 3)]


def _span(name, start, end, parent):
    return [name, start, end, parent, 0, None]


def test_self_times_subtract_the_union_of_children():
    tree = [
        _span("root", 0.0, 10.0, -1),
        _span("a", 1.0, 3.0, 0),
        _span("b", 4.0, 8.0, 0),
        _span("c", 5.0, 6.0, 2),
        _span("d", 7.0, 9.0, 2),  # overruns its parent: only 7..8 counts
        _span("e", 2.0, 4.0, 1),  # overruns a: only 2..3 counts
    ]
    assert spans.self_times(tree) == pytest.approx([4.0, 1.0, 2.0, 1.0, 2.0, 2.0])


def test_self_times_merge_overlapping_children():
    tree = [_span("p", 0.0, 10.0, -1), _span("x", 1.0, 5.0, 0), _span("y", 3.0, 6.0, 0)]
    assert spans.self_times(tree)[0] == pytest.approx(5.0)


@pytest.fixture(scope="module")
def cli():
    return run._import_cli(os.path.join(ROOT, "src"))


def test_tracing_reaches_names_imported_into_density_and_solver(cli, tmp_path):
    from sigma_density import density, solver, zeta

    block = [argv for argv in workloads.plan("solve", 1, 1)[:30] if argv[0] in run.SOLVER_COMMANDS]
    tracer = spans.Tracer()
    with spans.installed(tracer), cpuclock.Sampler() as sampler:
        for index, argv in enumerate(block):
            tracer.request = index
            assert run.execute(cli, argv, str(tmp_path / f"{index}.json"), sampler).code == 0
    names = [s[spans.NAME] for s in tracer.spans]

    def parent_name(span):
        return names[span[spans.PARENT]] if span[spans.PARENT] >= 0 else None

    zeta_parents = {parent_name(s) for s in tracer.spans if s[spans.NAME] == "zeta.zeta_iv"}
    log_g_parents = {parent_name(s) for s in tracer.spans if s[spans.NAME] == "zeta.log_g_iv"}
    assert "solver.eta_limit" in zeta_parents  # solver's own zeta_iv binding
    assert "density.t_func" in log_g_parents  # density's own log_g_iv binding
    assert "solver.eta" in log_g_parents  # solver's own log_g_iv binding

    metrics = spans.layer_metrics(tracer.spans, [1] * len(block), 1.0, 0.0)
    assert metrics["zeta.zeta_iv.calls"] > 0
    assert metrics["solver.zeta_calls_per_root"] > 0
    assert list(metrics) == list(spans.PER_LAYER)
    # The originals are back once tracing ends.
    assert density.log_g_iv is zeta.log_g_iv and solver.zeta_iv is zeta.zeta_iv
    assert not hasattr(zeta.zeta_iv, "__wrapped__")


def _census_envelope(values, gap):
    return {
        "parameters": {"k": 1, "r": 2.0, "bound": 10},
        "result": {"values": values, "analytic_gaps": [gap]},
    }


def test_census_check_rejects_values_inside_a_gap_and_counts_edge_hits_apart():
    gap = [1, 1.2, 1.25]
    assert workloads.check(["census"], _census_envelope([1.0, 1.2, 1.25], gap)) == (0, 10, 0)
    one_ulp_inside = 1.25 * (1 - 2.0**-53)
    with pytest.raises(workloads.KnownDefect) as defect:
        workloads.check(["census"], _census_envelope([1.0, 1.1, one_ulp_inside], gap))
    assert defect.value.work == (0, 10, 0)
    with pytest.raises(workloads.CheckFailed):
        workloads.check(["census"], _census_envelope([1.0, 1.25 * (1 - 16 * 2.0**-52)], gap))
    with pytest.raises(workloads.CheckFailed):
        workloads.check(["census"], _census_envelope([1.0, 1.22], gap))


def test_scaled_time_reads_at_the_reference_speed():
    reference = cpuclock.REFERENCE_S
    assert cpuclock.scaled(2.0, [reference, reference]) == pytest.approx(2.0)
    # A host half as fast doubles the loop's time and the request's.
    assert cpuclock.scaled(2.0, [1.5 * reference, 2 * reference, 2.5 * reference]) == pytest.approx(1.0)


def test_eta_limit_check_uses_the_published_rounding():
    def envelope(lo, hi):
        return {"parameters": {"eps": 1e-9}, "result": {"value": [lo, hi], "boundary": False}}

    assert workloads.check(["eta-limit"], envelope(1.8877909263, 1.8877909272)) == (1, 0, 0)
    with pytest.raises(workloads.CheckFailed):
        workloads.check(["eta-limit"], envelope(1.8877911, 1.88779115))


def test_refuses_to_run_without_the_program(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert run.main(["--workload", "point", "--seed", "1", "--seconds", "1"]) != 0
    assert capsys.readouterr().out == ""
