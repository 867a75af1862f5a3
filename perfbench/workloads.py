"""The three benchmark workloads, driven through the ``cfqmc`` command line.

Each workload makes its inputs from the workload seed and runs one iteration
through ``cfqmc.cli.main`` (``execute``, the timed part). ``inspect`` then
reads the outputs back, checks them and digests them, and
``reference_problems`` runs the checks that need one extra computation per
run. Output files go to the directory ``run.py`` passes in.

Sizes are scaled down from the acceptance criteria so that one iteration
takes seconds, not tens of seconds (see README.md for the sizes and why).
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import re
import statistics
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from numpy.polynomial import polynomial as npoly
from scipy.spatial import cKDTree

from cfqmc import bench, cli, gp

REFERENCE_SEED0 = Path(__file__).resolve().parent / "reference_seed0.json"


@dataclass
class Outcome:
    """What one iteration produced, as read back from its outputs."""

    attempted: int
    failed: int
    digest: str
    problems: list[str] = field(default_factory=list)
    quality: dict[str, float] = field(default_factory=dict)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one ``cfqmc`` command in-process; returns (exit code, its output)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf), warnings.catch_warnings():
        warnings.simplefilter("ignore")
        code = cli.main(argv)
    return code, buf.getvalue()


def _digest(*parts: bytes) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(len(part).to_bytes(8, "big"))
        h.update(part)
    return h.hexdigest()


class CampaignRates:
    """The criterion-6 campaign (``cfqmc bench``), with N capped at 2048."""

    name = "campaign-rates"
    families = ("gaussian", "oscillatory")
    dims = (1, 2)
    methods = ("QMC", "QMC+CF")
    n_grid = tuple(2**i for i in range(4, 12))  # 16 ... 2048
    replicates = 10

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.config = out_dir / "campaign.cfg"
        self.config.write_text(self.config_text(seed))
        self.code, self.log = 0, ""

    @classmethod
    def config_text(cls, seed: int) -> str:
        return (
            f"families = {', '.join(cls.families)}\n"
            f"dims = {', '.join(map(str, cls.dims))}\n"
            f"methods = {', '.join(cls.methods)}\n"
            "sequence = halton-rr-shift\n"
            "k_values = 1\n"
            f"n_grid = {', '.join(map(str, cls.n_grid))}\n"
            f"replicates = {cls.replicates}\n"
            f"seed_base = {seed}\n"
        )

    @classmethod
    def prepare(cls, seed: int) -> None:
        """The set-up the CLI does before any estimate: parse arguments and config."""
        cli.build_parser().parse_args(["bench", "--config", "campaign.cfg", "--out-dir", "."])
        bench.parse_config(cls.config_text(seed))

    def execute(self) -> None:
        self.code, self.log = _cli(["bench", "--config", str(self.config), "--out-dir", str(self.out_dir)])

    def inspect(self) -> Outcome:
        cells = len(self.families) * len(self.dims) * len(self.methods)
        attempted = cells * len(self.n_grid) * self.replicates
        csv_path = self.out_dir / "campaign.csv"
        if self.code != 0:
            return Outcome(attempted, attempted, "", [f"cfqmc bench exited {self.code}: {self.log[-500:]}"])
        rows, slopes = bench.read_csv(csv_path)
        problems = []
        done = 0
        for row in rows:
            done += row.replicates
            if row.replicates != self.replicates:
                problems.append(
                    f"{row.family} d={row.dim} {row.method} N={row.n_total}: "
                    f"{row.replicates} of {self.replicates} replicates"
                )
        if len(rows) != cells * len(self.n_grid):
            problems.append(f"{len(rows)} rows, expected {cells * len(self.n_grid)}")
        slope = {(s.family, s.dim, s.method): s.slope for s in slopes if s.k == 1}
        gains = []
        for family in self.families:
            for d in self.dims:
                q, c = slope.get((family, d, "QMC")), slope.get((family, d, "QMC+CF"))
                if q is None or c is None:
                    problems.append(f"{family} d={d}: slope missing")
                    continue
                gains.append(q - c)
                # criterion 6a (d = 1) and 6b (d = 2)
                if d == 1 and not (-1.4 <= q <= -0.7 and c <= q - 0.5):
                    problems.append(f"{family} d=1: QMC slope {q:.3f}, CF slope {c:.3f} miss criterion 6a")
                if d == 2 and not c <= q - 0.25:
                    problems.append(f"{family} d=2: QMC slope {q:.3f}, CF slope {c:.3f} miss criterion 6b")
        digest = _digest(csv_path.read_bytes(), (self.out_dir / "campaign.svg").read_bytes())
        quality = {"bench.cf_rate_gain": min(gains)} if gains else {}
        return Outcome(attempted, attempted - done, digest, problems, quality)

    def reference_problems(self) -> list[str]:
        return []


class GPSpread:
    """The criterion-10 GP study (``cfqmc gp --synthetic``) on 10 test points
    and 5 randomization seeds."""

    name = "gp-spread"
    methods = ("QMC", "QMC+CF", "MC+CF")
    budget = 256
    seeds = 5
    n_test = 10

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        self.code, self.log = 0, ""

    @classmethod
    def argv(cls, seed: int, out_dir) -> list[str]:
        return [
            "gp", "--synthetic", "--methods", ",".join(cls.methods),
            "--budget", str(cls.budget), "--seeds", str(cls.seeds),
            "--n-test", str(cls.n_test), "--seed-base", str(seed), "--out-dir", str(out_dir),
        ]

    @classmethod
    def prepare(cls, seed: int) -> None:
        """The set-up the CLI does before any prediction: parse arguments and
        synthesize the dataset."""
        cli.build_parser().parse_args(cls.argv(seed, "."))
        gp.synthetic_dataset(seed=seed, n_test=cls.n_test)

    def execute(self) -> None:
        self.code, self.log = _cli(self.argv(self.seed, self.out_dir))

    def inspect(self) -> Outcome:
        attempted = self.n_test * self.seeds * len(self.methods)
        if self.code != 0:
            return Outcome(attempted, attempted, "", [f"cfqmc gp exited {self.code}: {self.log[-500:]}"])
        est_path = self.out_dir / "predictions.csv"
        sd_path = self.out_dir / "prediction_sd.csv"
        problems = []
        predictions = [ln.split(",") for ln in est_path.read_text().splitlines()[1:]]
        for t_idx, method, n, seed, est in predictions:
            if int(n) != self.budget or not math.isfinite(float(est)):
                problems.append(f"prediction {t_idx} {method} seed {seed}: N={n}, estimate={est}")
        sd = {}
        for ln in sd_path.read_text().splitlines()[1:]:
            t_idx, method, value = ln.split(",")
            sd[(int(t_idx), method)] = float(value)
        points = range(self.n_test)
        # Criterion 10 asks for QMC+CF to win on 80% of 20 test points x 10
        # seeds. At 10 x 5 the win count against QMC ranged from 6 to 10 over
        # seeds 0-19, so any win-count threshold fails some seeds with nothing
        # wrong. The geometric mean of the sd ratios (0.57-0.85 over the same
        # seeds) is steadier: it must be below 1 against each rival.
        for rival in ("QMC", "MC+CF"):
            ratios = [sd[(i, "QMC+CF")] / sd[(i, rival)] for i in points]
            geo = math.exp(statistics.fmean(math.log(r) for r in ratios))
            if not geo < 1.0:
                problems.append(f"QMC+CF spread is not below {rival}'s: geometric-mean sd ratio {geo:.3f}")
        ratio = statistics.median(sd[(i, "QMC+CF")] / sd[(i, "QMC")] for i in points)
        digest = _digest(est_path.read_bytes(), sd_path.read_bytes())
        return Outcome(attempted, attempted - len(predictions), digest, problems, {"gp.cf_sd_ratio": ratio})

    def reference_problems(self) -> list[str]:
        """SoR on the full training set must match the exact GP at theta = (1.3, 1.1)."""
        data, test_z = gp.synthetic_dataset(seed=self.seed, n_test=self.n_test)
        cfg = gp.GPConfig(test_points=test_z, n_subset=100)
        theta = (1.3, 1.1)
        full = gp.gp_predictive_mean_full(data, cfg, theta, test_z[0])
        sor = gp.gp_predictive_mean_sor(data, cfg, theta, test_z[0], np.arange(data.n))
        if abs(sor - full) > 1e-6 * abs(full):
            return [f"SoR mean {sor!r} differs from full GP {full!r} by more than 1e-6 relative"]
        return []


# (sequence, CLI flags before --shift-seed, flags after it)
_SEQUENCES = (
    ("halton", ["--scramble"], []),  # reverse-radix scramble + uniform shift
    ("sobol", ["--scramble"], []),  # digital shift
    ("lattice", [], ["--fold"]),  # uniform shift + tent fold
)
_GEOMETRY = re.compile(
    r"fill_distance=(\S+) separation_radius=(\S+) mesh_ratio=(\S+) fill_resolution=(\d+)"
)
_WCE = re.compile(r"worst_case_error = (\S+)")
_GEOMETRY_KEYS = ("fill_distance", "separation_radius", "mesh_ratio", "fill_resolution")


class PointScoring:
    """Generate, score and read back point sets: ``cfqmc points --metrics``
    then ``cfqmc wce --in`` at k = 0, 1, 2, for three randomized sequences,
    at d = 2 with N = 2048 (the largest kernel blocks) and d = 4 with
    N = 1024 (where ``geometry`` searches a 33^4 fill grid)."""

    name = "point-scoring"
    shapes = ((2, 2048), (4, 1024))  # (d, N)
    k_values = (0, 1, 2)

    def __init__(self, seed: int, out_dir: Path):
        self.seed = seed
        self.out_dir = out_dir
        combos = [(seq, d, n) for seq in _SEQUENCES for d, n in self.shapes]
        shift_seeds = np.random.default_rng(seed).integers(0, 2**31, size=len(combos))
        self.sets = []  # (label, points argv, csv path)
        for ((seq, before, after), d, n), shift_seed in zip(combos, shift_seeds):
            label = f"{seq}-d{d}-n{n}"
            path = out_dir / f"{label}.csv"
            argv = ["points", "--seq", seq, "--n", str(n), "--dim", str(d), *before,
                    "--shift-seed", str(shift_seed), *after, "--metrics", "--out", str(path)]
            self.sets.append((label, argv, path))
        self.results: list[tuple[str, int, str]] = []

    @classmethod
    def prepare(cls, seed: int) -> None:
        """The set-up the CLI does before generating points: parse arguments."""
        cli.build_parser().parse_args(cls(seed, Path(".")).sets[0][1])

    def execute(self) -> None:
        self.results = []
        for label, argv, path in self.sets:
            self.results.append((label, *_cli(argv)))
            for k in self.k_values:
                argv = ["wce", "--in", str(path), "--kernel-k", str(k)]
                self.results.append((f"{label}/wce_k{k}", *_cli(argv)))

    def values(self) -> dict[str, float]:
        """Every printed geometry and WCE value, keyed ``<set>/<quantity>``."""
        out = {}
        for key, code, log in self.results:
            if code != 0:
                continue
            if "/wce_" in key:
                match = _WCE.search(log)
                if match:
                    out[key] = float(match.group(1))
            else:
                match = _GEOMETRY.search(log)
                if match:
                    for name, text in zip(_GEOMETRY_KEYS, match.groups()):
                        out[f"{key}/{name}"] = float(text)
        return out

    def inspect(self) -> Outcome:
        attempted = len(self.sets) * (1 + len(self.k_values))
        problems = [f"cfqmc {key}: exit {code}: {log[-300:]}" for key, code, log in self.results if code]
        values = self.values()
        expected = len(self.sets) * (len(_GEOMETRY_KEYS) + len(self.k_values))
        if len(values) != expected:
            problems.append(f"read {len(values)} printed values, expected {expected}")
        parts = [json.dumps(values, sort_keys=True).encode()]
        parts += [path.read_bytes() for _, _, path in self.sets if path.exists()]
        failed = attempted - sum(1 for _, code, _ in self.results if code == 0)
        return Outcome(attempted, failed, _digest(*parts), problems)

    def reference_problems(self) -> list[str]:
        """Printed values against an independent recomputation from the CSV
        files, and at seed 0 against the values recorded in the repository."""
        values = self.values()
        (self.out_dir / "values.json").write_text(json.dumps(values, indent=1, sort_keys=True) + "\n")
        reference, floors = {}, {}
        for label, _, path in self.sets:
            pts = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 2:]
            res = int(values.get(f"{label}/fill_resolution", 0))
            reference.update({f"{label}/{k}": v for k, v in _reference_geometry(pts, res).items()})
            for k, (value, floor) in _reference_wce(pts).items():
                reference[f"{label}/wce_k{k}"] = value
                floors[f"{label}/wce_k{k}"] = floor
        problems = _compare(values, reference, floors, "independent reference")
        if self.seed == 0:
            recorded = json.loads(REFERENCE_SEED0.read_text())
            problems += _compare(values, recorded, floors, REFERENCE_SEED0.name)
        return problems


def _compare(values: dict, reference: dict, floors: dict, source: str) -> list[str]:
    """Within 1e-9 relative of the reference. A WCE value also gets one unit
    of its last printed digit (it is printed with 12 decimals) and its
    float64 floor (see ``_reference_wce``)."""
    problems = []
    for key, ref in sorted(reference.items()):
        got = values.get(key)
        slack = 1e-12 + floors[key] if key in floors else 0.0
        if got is None or not abs(got - ref) <= 1e-9 * abs(ref) + slack:
            problems.append(f"{key} = {got!r}, {source} has {ref!r}")
    return problems


def _reference_wce(pts: np.ndarray, block: int = 256) -> dict[int, tuple[float, float]]:
    """Worst-case error e of the equal-weight rule at k = 0, 1, 2, support 1,
    each with its float64 floor.

    The pieces phi_k(r) = (1 - r)^(2k+1) * (1, 3r + 1, 8r^2 + 5r + 1)[k] are
    written out here and integrated with numpy's polynomial tools; the pair
    sum runs over row blocks with all three k sharing each distance block.

    e^2 = D - 2S + P cancels terms of size ~1 down to e^2, so any float64
    evaluation, this one or the program's in another summation order, is
    only good to about 32 eps (D + 2S + P) in e^2, i.e. that over 2e in e.
    For e ~ 4e-5 this is ~1e-10, far above 1e-9 relative.
    """
    n, d = pts.shape
    tails = ([1.0], [1.0, 3.0], [1.0, 5.0, 8.0])
    pair = np.zeros(3)
    for start in range(0, n, block):
        rows = pts[start : start + block]
        acc = np.ones((3, rows.shape[0], n))
        for i in range(d):
            r = np.abs(rows[:, i, None] - pts[None, :, i])
            w = 1.0 - r
            w3 = w * w * w
            acc[0] *= w
            acc[1] *= w3 * (3.0 * r + 1.0)
            acc[2] *= w3 * w * w * ((8.0 * r + 5.0) * r + 1.0)
        pair += acc.sum(axis=(1, 2))
    out = {}
    for k, tail in enumerate(tails):
        antider = npoly.polyint(npoly.polymul(npoly.polypow([1.0, -1.0], 2 * k + 1), tail))
        double = (2.0 * npoly.polyval(1.0, npoly.polyint(antider))) ** d
        single = np.prod(npoly.polyval(pts, antider) + npoly.polyval(1.0 - pts, antider), axis=1)
        terms = (double, 2.0 * float(np.mean(single)), pair[k] / (n * n))
        e = math.sqrt(max(terms[0] - terms[1] + terms[2], 0.0))
        floor = 32 * np.finfo(float).eps * sum(terms)
        out[k] = (e, floor / (2.0 * e) if e > 0.0 else math.sqrt(floor))
    return out


def _reference_geometry(pts: np.ndarray, res: int) -> dict[str, float]:
    """Fill distance over the (res + 1)^d boundary-inclusive grid, half the
    distance between the closest two points, and their ratio."""
    d = pts.shape[1]
    axis = np.linspace(0.0, 1.0, res + 1)
    grid = np.stack([g.reshape(-1) for g in np.meshgrid(*([axis] * d), indexing="ij")], axis=1)
    tree = cKDTree(pts)
    fill = float(np.max(tree.query(grid, k=1)[0]))
    separation = 0.5 * float(np.min(tree.query(pts, k=2)[0][:, 1]))
    return {"fill_distance": fill, "separation_radius": separation, "mesh_ratio": fill / separation}


WORKLOADS = {w.name: w for w in (CampaignRates, GPSpread, PointScoring)}
