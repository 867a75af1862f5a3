"""The public namespace, the benchmark's tracing hooks and the README's CLI examples stay in step with src."""

import importlib.util
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import cfqmc
from cfqmc import bench, cli, estimators, gp, interpolate, kernels, points
from cfqmc.points import halton

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
README = Path(__file__).resolve().parent.parent / "README.md"
TRACING = PERFBENCH / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_output_check_covers_every_rule_and_method(tmp_path):
    # The output check gives each rule its campaign and integrate cells,
    # and every (rule, method) pair needs integrate runs.
    spec = importlib.util.spec_from_file_location("output_check", Path(__file__).resolve().parent / "output_check.py")
    check = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(check)
    assert set(check.CAMPAIGN_CELLS) == set(bench.SEQUENCES)
    assert set(check.INTEGRATE_CELLS) == set(bench.SEQUENCES)
    flags = [dict(zip(argv[1::2], argv[2::2])) for argv in check.runs(tmp_path) if argv[0] == "integrate"]
    assert {(f["--sequence"], f["--method"]) for f in flags} == {(s, m) for s in bench.SEQUENCES for m in bench.METHODS}


def test_benchmark_workloads_prepare_and_check(tmp_path, monkeypatch):
    # The workloads call cfqmc's API directly: `prepare` parses the CLI
    # arguments and the campaign config, and the GP reference check calls
    # both predictive means. A renamed or deleted name fails here rather
    # than in `perfbench/run.py`.
    spec = importlib.util.spec_from_file_location("perfbench_workloads", PERFBENCH / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, workloads)  # its dataclasses look the module up
    spec.loader.exec_module(workloads)
    for workload in workloads.WORKLOADS.values():
        workload.prepare(0)
    assert workloads.GPSpread(0, tmp_path).reference_problems() == []


def readme_cli_commands() -> list[list[str]]:
    """The argument lists of the ``cfqmc ...`` lines in the README's CLI
    block, continuation lines joined."""
    block = README.read_text().split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("cfqmc ")]


def test_readme_cli_examples_parse_and_run(tmp_path, monkeypatch, capsys):
    # Every example parses, and those that need no config or data file run
    # in order, so `wce --in points.csv` reads what the first example wrote.
    commands = readme_cli_commands()
    assert len(commands) == 8
    parser = cli.build_parser()
    for argv in commands:
        parser.parse_args(argv)
    monkeypatch.chdir(tmp_path)
    runnable = [argv for argv in commands if argv[0] in ("points", "wce", "integrate")]
    assert [argv[0] for argv in runnable] == ["points", "points", "wce", "wce", "integrate"]
    for argv in runnable:
        assert cli.main(argv) == 0, (argv, capsys.readouterr().err)


def test_readme_library_quick_start_runs():
    # The quick start unpacks `cf_estimate`'s return value and prints the
    # integrand's evaluation count: the whole 512-evaluation budget. The
    # integrand's integral is (sqrt(pi / 3) erf(sqrt(3) / 2))^2.
    block = README.read_text().split("\n## Library quick start\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    src = str(Path(cfqmc.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    result = subprocess.run([sys.executable, "-c", block], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    estimate_line, wce_line = result.stdout.splitlines()
    estimate, count = estimate_line.split()
    assert abs(float(estimate) - 0.6360187064) < 1e-4 and count == "512"
    assert float(wce_line) > 0.0


def test_every_exported_name_resolves():
    missing = [name for name in cfqmc.__all__ if not hasattr(cfqmc, name)]
    assert missing == []


def test_tracing_hooks_install_and_restore():
    # The tracer looks up every call site it wraps by module attribute, so a
    # renamed or deleted site fails here rather than in `perfbench/run.py --trace 1`.
    tracing = load_tracing()
    sites = [(owner, attr) for owner, attr, _ in tracing._patches(tracing.Tracer())]
    before = [getattr(owner, attr) for owner, attr in sites]
    with tracing.Tracer().recording(0):
        pass
    assert [getattr(owner, attr) for owner, attr in sites] == before


def test_grid_factorization_reused_across_fits():
    # A campaign fits every replicate and method on a handful of grids, all
    # replicates of a cell in one call; the axis Gram behind each grid is
    # assembled and factorized once.
    tracing = load_tracing()
    interpolate._FACTORS.clear()
    cfg = bench.CampaignConfig(
        families=("gaussian",), dims=(1, 2), methods=("QMC", "QMC+CF"), n_grid=(32, 128), replicates=3
    )
    tracer = tracing.Tracer()
    with tracer.recording(0):
        bench.run_campaign(cfg)
    names = [span[0] for span in tracer.spans]
    shapes = tracer.counters[0]["shapes"]
    assert names.count("interpolate.fit") == 2 * 2
    assert len(shapes) == 4
    assert names.count("kernels.gram") == len(shapes)


def count_point_builds(monkeypatch) -> dict[str, int]:
    """Live counts of the campaign's ``halton`` and ``midpoint_grid`` calls."""
    calls = {"halton": 0, "midpoint_grid": 0}

    def counting(name):
        build = getattr(bench, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return build(*args, **kwargs)

        return counted

    for name in calls:
        monkeypatch.setattr(bench, name, counting(name))
    return calls


def test_campaign_point_sets_built_once_per_cell(monkeypatch):
    # Replicates and methods only shift a cell's point sets: the Halton base
    # sets and the node grid are built once per (d, N) however many
    # replicates run, and one multi-column fit per cell serves them all.
    tracing = load_tracing()
    calls = count_point_builds(monkeypatch)
    cells = 2 * 2  # dims x n_grid, one family
    seen = []
    for replicates in (2, 5):
        cfg = bench.CampaignConfig(dims=(1, 2), methods=("QMC", "QMC+CF"), n_grid=(32, 128), replicates=replicates)
        calls.update(dict.fromkeys(calls, 0))
        tracer = tracing.Tracer()
        with tracer.recording(0):
            bench.run_campaign(cfg)
        assert tracer.run_metrics(0)["interpolate.fit_calls"] == cells
        seen.append(dict(calls))
    assert seen[0] == seen[1]
    assert 0 < seen[0]["halton"] <= 2 * cells
    assert 0 < seen[0]["midpoint_grid"] <= cells


def test_campaign_point_sets_shared_across_families_and_k(monkeypatch):
    # A cell's point sets depend only on the sequence, the split and d, so
    # every family and k value at one (d, N) reads the same ones.
    calls = count_point_builds(monkeypatch)
    seen = []
    for families, k_values in ((("gaussian",), (1,)), (("gaussian", "oscillatory"), (0, 2))):
        cfg = bench.CampaignConfig(
            families=families, dims=(1, 2), k_values=k_values, n_grid=(32, 128), replicates=2
        )
        calls.update(dict.fromkeys(calls, 0))
        table = bench.run_campaign(cfg)
        assert all(row.replicates == 2 for row in table.rows)
        seen.append(dict(calls))
    assert seen[0] == seen[1]


def test_grid_evaluation_blocks_fit_the_cache_bound(monkeypatch):
    # At d = 2, m = 32 a row holds 4 * 2 * 32 floats: a 2048-point stack is
    # cut into blocks of a multiple of 8 rows within the block bound.
    # (d = 1 evaluates from moment tables, without blocks.)
    d, m, n = 2, 32, 2048
    interp = interpolate.fit(
        kernels.KernelSpec(1, d), points.midpoint_grid(m, d), np.sin(np.arange(m**d))[:, None]
    )
    grid_values = interpolate._grid_values
    rows = []

    def recording(beta, block, *args):
        rows.append(block.shape[0])
        return grid_values(beta, block, *args)

    monkeypatch.setattr(interpolate, "_grid_values", recording)
    interpolate.evaluate(interp, np.random.default_rng(0).random((n, d))[None])
    assert sum(rows) == n and len(rows) > 1
    assert all(r % 8 == 0 and r * 4 * d * m * 8 <= kernels.BLOCK_BYTES for r in rows)


def test_moment_evaluation_blocks_fit_the_bound(monkeypatch):
    # A d = 1 fit at k = 2 evaluates from moment tables of degree 7, about
    # 10 * 8 floats of temporaries a point: the 2 x 4096 points of a
    # two-column fit are cut into blocks within the block bound.
    m, n = 64, 4096
    interp = interpolate.fit(
        kernels.KernelSpec(2, 1, 0.3), points.midpoint_grid(m, 1), np.sin(np.outer(np.arange(m), [1.0, 2.0]))
    )
    axis_values = interpolate._axis_values
    rows = []

    def recording(spec, tables, x, col):
        rows.append(len(x))
        return axis_values(spec, tables, x, col)

    monkeypatch.setattr(interpolate, "_axis_values", recording)
    interpolate.evaluate(interp, np.random.default_rng(0).random((2, n, 1)))
    assert sum(rows) == 2 * n and len(rows) > 1
    assert all(r * 10 * 8 * 8 <= kernels.BLOCK_BYTES for r in rows)


def test_grid_evaluation_counted_as_kernel_entries():
    # Grid surrogates take their axis kernel values from `kernel_cross`, so a
    # traced evaluation of n rows at d = 2 records d n m kernel entries, over
    # more than one evaluation block.
    d, m, n = 2, 32, 600
    interp = interpolate.fit(
        kernels.KernelSpec(1, d, 0.6), points.midpoint_grid(m, d), np.cos(np.arange(m**d))[:, None]
    )
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.recording(0):
        interpolate.evaluate(interp, np.random.default_rng(1).random((n, d))[None])
    assert tracer.run_metrics(0)["kernels.cross_entries"] == d * n * m


def test_sor_solves_shared_across_test_points_and_methods(monkeypatch):
    # Within a seed every test point and method reads one table of SoR
    # solves: QMC solves its 64 points, QMC+CF its 16 grid nodes (its 48
    # evaluation points are QMC's first 48), MC+CF its 48 MC points (the
    # nodes are already solved). Solving per test point would take 1,152.
    tracing = load_tracing()
    build = gp.reparametrized_integrand
    built = []

    def recording(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(gp, "reparametrized_integrand", recording)
    data, test_z = gp.synthetic_dataset(n=80, p=4, n_test=3, seed=0)
    cfg = gp.GPConfig(test_points=test_z, n_subset=40)
    methods = ("QMC", "QMC+CF", "MC+CF")
    tracer = tracing.Tracer()
    with tracer.recording(0):
        gp.run_prediction_study(data, cfg, methods, 64, [0, 1])
    metrics = tracer.run_metrics(0)
    assert metrics["gp.sor_solves"] == 2 * (64 + 48 + 16)
    assert metrics["interpolate.fit_calls"] == 2 * 2  # one per seed and CF method, for all test points
    assert metrics["gp.integrand_builds"] == len(built) == 2 * len(methods) * 3
    assert [f.eval_count for f in built] == [64] * len(built)


def test_gp_point_generation_traced():
    # The GP study draws its points through `bench.CellPoints`, where the
    # tracer counts them: per seed QMC's Halton set and shift (2 calls),
    # QMC+CF's and its grid (3), MC's draw (1) and MC+CF's draw and grid (2).
    tracing = load_tracing()
    data, test_z = gp.synthetic_dataset(n=40, p=3, n_test=2, seed=0)
    cfg = gp.GPConfig(test_points=test_z, n_subset=20)
    seeds = [0, 1, 2]
    tracer = tracing.Tracer()
    with tracer.recording(0):
        gp.run_prediction_study(data, cfg, bench.METHODS, 64, seeds)
    assert tracer.run_metrics(0)["points.calls"] == len(seeds) * (2 + 3 + 1 + 2)


def test_wce_pair_sum_covers_half_the_kernel_matrix():
    # The kernel matrix is symmetric, so the pair sum computes its upper block
    # triangle only: the whole matrix would be N^2 entries.
    tracing = load_tracing()
    n = 1024
    tracer = tracing.Tracer()
    with tracer.recording(0):
        estimators.worst_case_error(kernels.KernelSpec(1, 2), halton(n, 2))
    counts = tracer.counters[0]
    assert 0 < counts["cross_entries"] <= 0.6 * n**2
    assert 0 < counts["max_block_bytes"] <= kernels.BLOCK_BYTES


def test_wce_pair_blocks_fit_the_bound_past_2048_points():
    # At N = 4096 a block of 64 rows of N floats would hold 2 MiB, so the
    # pair sum takes 32-row blocks of 1 MiB, filled in 8-row kernel tiles
    # whose temporaries hold a quarter of that.
    tracing = load_tracing()
    n = 4096
    tracer = tracing.Tracer()
    with tracer.recording(0):
        estimators.worst_case_error(kernels.KernelSpec(1, 2), halton(n, 2))
    assert tracer.counters[0]["max_block_bytes"] == kernels.BLOCK_BYTES // 4 == 8 * n * 8


@pytest.mark.parametrize("n", [2048, 4096])
def test_wce_counts_every_pair_sum_entry(n):
    # The tiles are copied into one workspace; the traced entries are still
    # those of the summation blocks, rows x (N - start) each.
    tracing = load_tracing()
    tracer = tracing.Tracer()
    with tracer.recording(0):
        estimators.worst_case_error(kernels.KernelSpec(2, 2), halton(n, 2))
    blocks = kernels.row_blocks(n, max(8 * n, kernels.BLOCK_BYTES // estimators._PAIR_ROWS))
    assert len(blocks) == n // min(64, 2**17 // n)
    assert tracer.counters[0]["cross_entries"] == sum((b.stop - b.start) * (n - b.start) for b in blocks)
