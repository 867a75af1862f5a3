"""The public namespace and the benchmark's tracing hooks stay in step with src."""

import importlib.util
from pathlib import Path

import cfqmc
from cfqmc import bench, interpolate

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


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
    # A campaign fits every replicate and method on a handful of grids; the
    # axis Gram behind each grid is assembled and factorized once.
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
    assert names.count("interpolate.fit") == 2 * 2 * 3
    assert len(shapes) == 4
    assert names.count("kernels.gram") == len(shapes)
