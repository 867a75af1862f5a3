"""The standing output check: small fixed runs of every cfqmc command.

``python tests/output_check.py DIR [--threads T]`` runs them in one
interpreter with T BLAS threads (1 if not given), on the ``src`` tree beside
this file. It writes what they print to ``DIR/transcript.txt``, after a
``$ cfqmc ...`` line per run, and the files they write beside it.
``tests/test_outputs.py`` runs it and compares DIR line by line with the
committed fixtures in ``tests/output_fixtures``. A change that moves
outputs on purpose regenerates those with

    python tests/output_check.py tests/output_fixtures

and says in CHANGES.md which lines moved, and why.
"""

import argparse
import contextlib
import io
import math
import os
import random
import sys
import warnings
from pathlib import Path

# cfqmc's bench.SEQUENCES and bench.METHODS, written out because cfqmc
# loads only once the thread counts are set; tests/test_tooling.py checks them
SEQUENCES = ("halton-rr-shift", "sobol-dshift", "lattice", "lattice-tent")
METHODS = ("MC", "QMC", "QMC+CF", "MC+CF")

# one campaign per (sequence, d), so a d = 2 SVG does not read d = 1 rows;
# each sequence takes two families and its own support radius, and the two
# lattice rules the same cells, so their rows differ by the tent fold alone
CAMPAIGN_CELLS = {
    "halton-rr-shift": "families = gaussian, discontinuous\nsupport_radius = 1.0\n",
    "sobol-dshift": "families = oscillatory, continuous\nsupport_radius = 0.7\n",
    "lattice": "families = product_peak, corner_peak\nsupport_radius = 0.4\nassumed_alpha = 2.0\n",
    "lattice-tent": "families = product_peak, corner_peak\nsupport_radius = 0.4\nassumed_alpha = 2.0\n",
}
# the family and k of each sequence's integrate runs
INTEGRATE_CELLS = {
    "halton-rr-shift": ("gaussian", 0),
    "sobol-dshift": ("continuous", 1),
    "lattice": ("oscillatory", 2),
    "lattice-tent": ("product_peak", 1),
}
CAMPAIGN_GRID = (
    f"methods = {', '.join(METHODS)}\nk_values = 0, 1, 2\nn_grid = 16, 32, 64, 128, 512\nreplicates = 3\n"
)


def write_gp_data(path: Path) -> None:
    """A 60-row covariates+response CSV with a header, from a seeded
    generator: three covariates in [-1, 1] and a Gaussian bump of them plus
    noise, each cell to six decimals."""
    rng = random.Random(29)
    lines = ["x1,x2,x3,y"]
    for _ in range(60):
        x = [rng.uniform(-1.0, 1.0) for _ in range(3)]
        y = math.exp(-sum(v * v for v in x)) + 0.1 * rng.gauss(0.0, 1.0)
        lines.append(",".join(f"{v:.6f}" for v in x + [y]))
    path.write_text("\n".join(lines) + "\n")


def runs(out: Path) -> list[list[str]]:
    """The command lines of the check, in run order; ``out`` is where they
    write. Writes the campaign configs and the GP data they read."""
    argvs = []
    for seq, cells in CAMPAIGN_CELLS.items():
        for d in (1, 2):
            name = out / f"campaign-{seq}-d{d}"
            name.mkdir(parents=True, exist_ok=True)
            (name / "campaign.cfg").write_text(f"{cells}dims = {d}\nsequence = {seq}\n{CAMPAIGN_GRID}")
            argvs.append(["bench", "--config", str(name / "campaign.cfg"), "--out-dir", str(name)])
    gp = "gp --synthetic --n-test 3 --methods QMC,QMC+CF,MC,MC+CF --budget 64 --seeds 3 --out-dir"
    argvs.append(gp.split() + [str(out / "gp")])
    write_gp_data(out / "gp-data.csv")
    gp = "--n-test 3 --methods QMC,QMC+CF --budget 64 --seeds 3 --n-train-cap 50 --n-subset 50 --out-dir"
    argvs.append(["gp", "--data", str(out / "gp-data.csv")] + gp.split() + [str(out / "gp-data")])
    for seq, flags in (
        ("halton", "--n 32 --dim 2 --scramble"),
        ("sobol", "--n 32 --dim 3 --scramble --shift-seed 4"),
        ("lattice", "--n 31 --dim 2 --shift-seed 1 --fold"),
    ):
        argvs.append(f"points --seq {seq} {flags} --metrics --out".split() + [str(out / f"points-{seq}.csv")])
    argvs += [
        "wce --seq halton --n 64 --dim 2 --kernel-k 0".split(),
        "wce --seq sobol --n 64 --dim 3 --kernel-k 2 --scramble --shift-seed 5 --support 0.6".split(),
        "wce --seq lattice --n 61 --dim 2 --shift-seed 2 --fold".split(),
        ["wce", "--in", str(out / "points-sobol.csv"), "--kernel-k", "1", "--support", "0.8"],
    ]
    for seq, (family, k) in INTEGRATE_CELLS.items():
        for d in (1, 2):
            for method in METHODS:
                argvs.append(
                    f"integrate --family {family} --dim {d} --method {method} --n 128 --k {k} "
                    f"--seed {d} --sequence {seq} --support 0.8".split()
                )
    return argvs


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("out", type=Path)
    parser.add_argument("--threads", default="1")
    args = parser.parse_args()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = args.threads
    # numpy reads the thread counts when it loads, so cfqmc loads after
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from cfqmc.cli import main as cfqmc

    warnings.simplefilter("ignore")  # d = 2 budget splits warn of discarded evaluations
    out = args.out.resolve()
    out.mkdir(parents=True, exist_ok=True)
    transcript = []
    for argv in runs(out):
        printed = io.StringIO()
        with contextlib.redirect_stdout(printed):
            code = cfqmc(argv)
        if code:
            sys.stderr.write(f"cfqmc {' '.join(argv)} exited {code}\n")
            return code
        transcript += [f"$ cfqmc {' '.join(argv)}", printed.getvalue().rstrip("\n")]
    # paths as on a POSIX host, under <out>
    text = "\n".join(transcript).replace(str(out), "<out>").replace(os.sep, "/")
    (out / "transcript.txt").write_text(text + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
