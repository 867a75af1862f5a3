"""The standing output check: every output of ``output_check.py``'s fixed
runs against the committed fixtures, line by line.

Two kinds of lines round by the BLAS thread count, so a 2-thread run
compares every line but them: those that d = 1 CF fits decide (a d = 1
campaign's CF rows and slopes and its SVG, and the estimates of d = 1 CF
integrate runs), whose solve rounds by it, and the GP study's values, whose
SoR solves do. A 1-thread run compares every line.
"""

import os
import subprocess
import sys
from pathlib import Path

from cfqmc.bench import CF_METHODS

TESTS = Path(__file__).resolve().parent
FIXTURES = TESTS / "output_fixtures"


def d1_cf(dim: str, method: str) -> bool:
    return dim in ("1", "d=1") and method in CF_METHODS


def thread_bound_lines(name: str, lines: list[str]) -> dict[int, str]:
    """The lines of output ``name`` that round by the BLAS thread count, by
    index: "d1-cf" for those that d = 1 CF fits decide, "gp" for the GP
    study's values."""
    if name.startswith(("gp/", "gp-data/")):
        return dict.fromkeys(range(len(lines)), "gp")
    if name.endswith(".svg"):  # a panel's axes span every row of the panel
        return dict.fromkeys(range(len(lines)), "d1-cf") if name.endswith("-d1/campaign.svg") else {}
    if name.endswith("campaign.csv"):  # rows and slopes: family,dim,method,...
        return {i: "d1-cf" for i, line in enumerate(lines) if d1_cf(*(line.split(",") + ["", ""])[1:3])}
    if name != "transcript.txt":
        return {}
    kinds = {}
    for i, line in enumerate(lines):
        if line.startswith("$ cfqmc "):
            run = line.split()
            flags = dict(zip(run[3::2], run[4::2])) if run[2] == "integrate" else {}
        elif line.startswith("method=") and d1_cf(flags.get("--dim"), flags.get("--method")):
            kinds[i] = "d1-cf"
        elif line.startswith("slope ") and d1_cf(*line.split()[2:4]):
            kinds[i] = "d1-cf"
        elif run[2] == "gp" and line.startswith(("sd ", "QMC+CF sd")):
            kinds[i] = "gp"
    return kinds


def compare(out: Path, uncompared: set[str]) -> list[str]:
    """The first differing line of each output in ``out`` against its
    fixture, as messages, leaving out the ``thread_bound_lines`` of the
    kinds in ``uncompared``."""
    names = sorted(
        {p.relative_to(root).as_posix() for root in (FIXTURES, out) for p in root.rglob("*") if p.is_file()}
    )
    found = []
    for name in names:
        want_path, got_path = FIXTURES / name, out / name
        if not (want_path.exists() and got_path.exists()):
            found.append(f"{name}: only in {'the fixtures' if want_path.exists() else 'the output'}")
            continue
        want, got = want_path.read_text().splitlines(), got_path.read_text().splitlines()
        kinds = thread_bound_lines(name, want)
        skipped = {i for i, kind in kinds.items() if kind in uncompared}
        if len(want) != len(got):
            found.append(f"{name}: {len(got)} lines, the fixture {len(want)}")
        differ = [i for i, (w, g) in enumerate(zip(want, got)) if w != g and i not in skipped]
        if differ:
            i = differ[0]
            found.append(f"{name}:{i + 1} ({len(differ)} lines differ):\n  fixture: {want[i]}\n  output:  {got[i]}")
    return found


def run_outputs(tmp_path: Path, threads: str) -> Path:
    """The check's outputs with ``threads`` BLAS threads, from a fresh
    interpreter; the environment sets the count too, in case numpy loads
    before the script can."""
    out = tmp_path / f"threads-{threads}"
    run = subprocess.run(
        [sys.executable, str(TESTS / "output_check.py"), str(out), "--threads", threads],
        capture_output=True,
        text=True,
        env=dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads, MKL_NUM_THREADS=threads),
        timeout=300,
    )
    assert run.returncode == 0, run.stderr
    return out


def test_outputs_match_fixtures_at_one_thread(tmp_path):
    found = compare(run_outputs(tmp_path, "1"), set())
    assert not found, "\n".join(found)


def test_outputs_match_fixtures_at_two_threads(tmp_path):
    found = compare(run_outputs(tmp_path, "2"), {"d1-cf", "gp"})
    assert not found, "\n".join(found)
