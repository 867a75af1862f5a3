"""Command-line front end.

Subcommands: ``points`` (generate/randomize/export point sets), ``wce``
(closed-form worst-case error), ``integrate`` (single integration run),
``bench`` (convergence campaign from a config file), ``gp`` (predictive-mean
study). Exit codes: 0 success, 1 usage error, 2 runtime/numerical error.
Randomized runs require explicit seeds; every run prints its resolved
configuration (seeds included) before any results.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

from . import bench as bench_mod
from .directions import load_direction_file
from .estimators import worst_case_error
from .genz import DEBUG_FAMILIES, FAMILIES, as_integrand, random_genz
from .kernels import SMOOTHNESS_LEVELS, KernelSpec
from .plotting import emit_svg
from .points import (
    SOBOL_BITS,
    baker_fold,
    digital_shift,
    geometry,
    geometry_max_dim,
    halton,
    korobov_vector,
    lattice,
    random_shift,
    read_points_csv,
    sobol,
    write_points_csv,
)
from .seeding import rng_for, seed_for

USAGE_ERROR = 1
RUNTIME_ERROR = 2


class _Parser(argparse.ArgumentParser):
    """argparse variant honoring the exit-code contract (usage errors -> 1)."""

    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"error: {message}\n")
        raise SystemExit(USAGE_ERROR)


def _usage_error(message: str) -> SystemExit:
    sys.stderr.write(f"error: {message}\n")
    return SystemExit(USAGE_ERROR)


def _print_config(args: argparse.Namespace, command: str) -> None:
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func" and v is not None}
    print(f"config[{command}]: " + " ".join(f"{k}={v}" for k, v in shown.items()))


def _usage_checked(flag: str, build, *args, **kwargs):
    """``build(*args, **kwargs)``, the call that defines the limits of
    ``flag``'s value, with its ValueError raised as a usage error naming
    the flag."""
    try:
        return build(*args, **kwargs)
    except ValueError as exc:
        raise _usage_error(f"{flag}: {exc}")


def _generate_points(args) -> "PointSet":
    if args.n < 1:
        raise _usage_error(f"--n must be >= 1, got {args.n}")
    if args.dim < 1:
        raise _usage_error(f"--dim must be >= 1, got {args.dim}")
    if args.gen is not None and args.seq != "lattice":
        raise _usage_error(f"--gen applies to lattice points only, not {args.seq}")
    if args.directions is not None and args.seq != "sobol":
        raise _usage_error(f"--directions applies to sobol points only, not {args.seq}")
    if args.seq == "halton":
        ps = halton(args.n, args.dim, scramble=args.scramble)
    elif args.seq == "sobol":
        table = load_direction_file(args.directions) if args.directions else None
        if args.scramble and args.shift_seed is None:
            raise _usage_error("sobol --scramble needs --shift-seed for the digital shift")
        if args.scramble and args.shift_seed < 0:  # the digital shift's generator takes no negative seed
            raise _usage_error(f"--shift-seed must be >= 0 for sobol --scramble, got {args.shift_seed}")
        if args.n.bit_length() > SOBOL_BITS:
            raise _usage_error(f"--n must be below 2**{SOBOL_BITS} for sobol points, got {args.n}")
        ps = _usage_checked("--dim", sobol, args.n, args.dim, table)
        ps = digital_shift(ps, args.shift_seed) if args.scramble else ps
    elif args.seq == "lattice":
        if args.scramble:
            raise _usage_error("--scramble does not apply to lattice points")
        gen = korobov_vector(args.n, args.dim) if args.gen is None else args.gen.split(",")
        try:
            gen = np.array(gen, dtype=np.int64)
        except (ValueError, OverflowError):
            gen = ()
        if len(gen) != args.dim:
            raise _usage_error(f"--gen must be {args.dim} comma-separated 64-bit integers, got {args.gen!r}")
        ps = lattice(args.n, args.dim, gen)
    else:  # pragma: no cover - argparse choices guard this
        raise _usage_error(f"unknown sequence {args.seq!r}")
    if args.shift_seed is not None and not (args.seq == "sobol" and args.scramble):
        delta = rng_for(args.shift_seed, "cli-shift", args.dim).random(args.dim)
        ps = random_shift(ps, delta)
    if args.fold:
        ps = baker_fold(ps)
    return ps


def _cmd_points(args) -> int:
    _print_config(args, "points")
    if args.metrics and args.dim > (limit := geometry_max_dim()):
        raise _usage_error(f"--metrics supports --dim up to {limit}, got {args.dim}")
    ps = _generate_points(args)
    write_points_csv(ps, args.out)
    print(f"wrote {len(ps)} points (dim={ps.dim}) to {args.out}")
    if args.metrics:
        g = geometry(ps)
        print(
            f"fill_distance={g.fill_distance:.12g} separation_radius={g.separation_radius:.12g} "
            f"mesh_ratio={g.mesh_ratio:.12g} fill_resolution={g.fill_resolution}"
        )
    return 0


def _cmd_wce(args) -> int:
    if args.infile is None and args.seq is None:
        args.seq = "halton"
    _print_config(args, "wce")
    if args.infile:
        generating = {
            "--seq": args.seq is not None,
            "--n": args.n is not None,
            "--dim": args.dim is not None,
            "--scramble": args.scramble,
            "--shift-seed": args.shift_seed is not None,
            "--fold": args.fold,
        }
        if any(generating.values()):
            flags = ", ".join(flag for flag, given in generating.items() if given)
            raise _usage_error(f"--in reads points from {args.infile}, so {flags} cannot apply")
        try:
            ps = read_points_csv(args.infile)
        except (OSError, ValueError) as exc:
            raise _usage_error(f"cannot use input file {args.infile}: {exc}")
        if len(ps) == 0:
            raise _usage_error(f"input file {args.infile} holds no points")
        dim = ps.dim
    else:
        if args.n is None or args.dim is None:
            raise _usage_error("either --in or both --n and --dim are required")
        ps = _generate_points(args)
        dim = args.dim
    spec = _usage_checked("--support", KernelSpec, k=args.kernel_k, dim=dim, support_radius=args.support)
    value = worst_case_error(spec, ps)
    print(f"worst_case_error = {value:.12f}")
    return 0


def _cmd_integrate(args) -> int:
    _print_config(args, "integrate")
    if args.dim < 1:
        raise _usage_error(f"--dim must be >= 1, got {args.dim}")
    spec = _usage_checked("--support", KernelSpec, k=args.k, dim=args.dim, support_radius=args.support)
    split = _usage_checked("--n", bench_mod.split_budget, args.n, 0.5, dim=args.dim)
    _usage_checked("--dim", bench_mod.check_dim_limits, [args.family], args.sequence, [args.method], args.dim)
    inst = _usage_checked(
        "--difficulty", random_genz, args.family, args.dim, seed_for(args.seed, "instance"), args.difficulty
    )
    integrand = as_integrand(inst)
    cell = bench_mod.CellPoints(args.sequence, split, args.dim)
    pts = _usage_checked("--n", cell.points, args.method, *bench_mod.replicate_draws(args.seed, args.dim))
    estimate = float(cell.estimate(args.method, [integrand], [pts], spec)[0])
    m_nodes = split.n_nodes if args.method in bench_mod.CF_METHODS else 0
    print(
        f"method={args.method} estimate={estimate:.17g} exact={inst.exact:.17g} "
        f"abs_error={abs(estimate - inst.exact):.6g} N_total={split.consumed} "
        f"M_nodes={m_nodes} seed={args.seed}"
    )
    if args.out:
        with open(args.out, "w") as fh:
            fh.write("method,estimate,exact,abs_error,N_total,M_nodes,seed\n")
            fh.write(
                f"{args.method},{estimate:.17g},{inst.exact:.17g},"
                f"{abs(estimate - inst.exact):.17g},{split.consumed},{m_nodes},{args.seed}\n"
            )
        print(f"wrote report to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    try:
        text = Path(args.config).read_text()
    except OSError as exc:
        raise _usage_error(f"cannot read config {args.config}: {exc}")
    try:
        cfg = bench_mod.parse_config(text)
    except ValueError as exc:
        raise _usage_error(str(exc))
    print("config[bench]:")
    print(bench_mod.format_config(cfg), end="")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    table = bench_mod.run_campaign(cfg)
    csv_path = out_dir / "campaign.csv"
    svg_path = out_dir / "campaign.svg"
    bench_mod.emit_csv(table, csv_path)
    emit_svg(table, svg_path)
    print(f"wrote {csv_path} and {svg_path} ({len(table.rows)} rows, {len(table.slopes)} slopes)")
    for s in table.slopes:
        print(
            f"slope {s.family} d={s.dim} {s.method} k={s.k}: "
            f"{s.slope:.3f} (intercept {s.intercept:.3f}, residual {s.residual:.3f})"
        )
    return 0


def _cmd_gp(args) -> int:
    from . import gp as gp_mod  # gp needs scipy, which no other command loads

    _print_config(args, "gp")
    methods = tuple(m.strip() for m in args.methods.split(","))
    for m in methods:
        if m not in bench_mod.METHODS:
            raise _usage_error(f"unknown method {m!r}; expected one of {bench_mod.METHODS}")
    if len(set(methods)) != len(methods):
        raise _usage_error(f"--methods names a method twice: {args.methods}")
    if args.seeds < 2:
        raise _usage_error(f"--seeds must be >= 2 for a spread over seeds, got {args.seeds}")
    if args.n_test < 1:
        raise _usage_error(f"--n-test must be >= 1, got {args.n_test}")
    if args.n_subset < 1:
        raise _usage_error(f"--n-subset must be >= 1, got {args.n_subset}")
    if args.n_train_cap < 2:  # standardization needs two rows
        raise _usage_error(f"--n-train-cap must be >= 2, got {args.n_train_cap}")
    if args.budget < (least := 2 * gp_mod.GP_NODE_GRID_M**2):
        raise _usage_error(f"--budget must be >= {least}, twice the surrogate's nodes, got {args.budget}")
    if args.data:
        data = gp_mod.load_dataset(args.data, args.n_train_cap, args.seed_base)
        rng = rng_for(args.seed_base, "gp-test-rows", data.n)
        test_z = data.covariates[rng.choice(data.n, size=min(args.n_test, data.n), replace=False)]
    else:
        data, test_z = gp_mod.synthetic_dataset(seed=args.seed_base, n_test=args.n_test)
    if args.n_test > len(test_z):
        raise _usage_error(f"--n-test must be <= {len(test_z)}, the rows test points are drawn from, got {args.n_test}")
    _usage_checked("--n-subset", gp_mod.default_subset_indices, data, args.n_subset)
    cfg = gp_mod.GPConfig(test_points=test_z, n_subset=args.n_subset)
    seeds = list(range(args.seeds))
    study = gp_mod.run_prediction_study(data, cfg, methods, args.budget, seeds)
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    est_path = out_dir / "predictions.csv"
    sd_path = out_dir / "prediction_sd.csv"
    gp_mod.write_prediction_csv(study, est_path, sd_path)
    print(f"wrote {est_path} and {sd_path}")
    for t_idx, method, sd in study.spread:
        print(f"sd test_index={t_idx} method={method}: {sd:.6g}")
    if "QMC+CF" in methods:
        sd_map = {(t_idx, method): sd for t_idx, method, sd in study.spread}
        n_test = len(cfg.test_points)
        for rival in methods:
            if rival != "QMC+CF":
                wins = sum(sd_map[(t, "QMC+CF")] <= sd_map[(t, rival)] for t in range(n_test))
                print(f"QMC+CF sd <= {rival} sd at {wins}/{n_test} test points")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="cfqmc", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_pts = sub.add_parser("points", help="generate and randomize point sets")
    p_pts.add_argument("--seq", choices=("halton", "sobol", "lattice"), required=True)
    p_pts.add_argument("--n", type=int, required=True)
    p_pts.add_argument("--dim", type=int, required=True)
    p_pts.add_argument("--scramble", action="store_true")
    p_pts.add_argument("--shift-seed", dest="shift_seed", type=int, default=None)
    p_pts.add_argument("--fold", action="store_true")
    p_pts.add_argument("--gen", type=str, default=None, help="lattice generator, comma ints")
    p_pts.add_argument("--directions", type=str, default=None, help="direction-number file")
    p_pts.add_argument("--metrics", action="store_true")
    p_pts.add_argument("--out", type=str, required=True)
    p_pts.set_defaults(func=_cmd_points)

    p_wce = sub.add_parser("wce", help="closed-form worst-case integration error")
    p_wce.add_argument("--in", dest="infile", type=str, default=None)
    p_wce.add_argument("--seq", choices=("halton", "sobol", "lattice"), default=None, help="halton if not given")
    p_wce.add_argument("--n", type=int, default=None)
    p_wce.add_argument("--dim", type=int, default=None)
    p_wce.add_argument("--scramble", action="store_true")
    p_wce.add_argument("--shift-seed", dest="shift_seed", type=int, default=None)
    p_wce.add_argument("--fold", action="store_true")
    p_wce.add_argument("--kernel-k", dest="kernel_k", type=int, choices=SMOOTHNESS_LEVELS, default=1)
    p_wce.add_argument("--support", type=float, default=1.0)
    p_wce.set_defaults(func=_cmd_wce, gen=None, directions=None)

    p_int = sub.add_parser("integrate", help="one integration run on a test family")
    p_int.add_argument("--family", choices=FAMILIES + DEBUG_FAMILIES, required=True)
    p_int.add_argument("--dim", type=int, required=True)
    p_int.add_argument("--method", choices=bench_mod.METHODS, required=True)
    p_int.add_argument("--n", type=int, required=True)
    p_int.add_argument("--k", type=int, choices=SMOOTHNESS_LEVELS, default=1)
    p_int.add_argument("--seed", type=int, required=True)
    p_int.add_argument("--sequence", choices=bench_mod.SEQUENCES, default="halton-rr-shift")
    p_int.add_argument("--support", type=float, default=1.0)
    p_int.add_argument("--difficulty", type=float, default=7.0)
    p_int.add_argument("--out", type=str, default=None)
    p_int.set_defaults(func=_cmd_integrate)

    p_bench = sub.add_parser("bench", help="run a convergence campaign from a config file")
    p_bench.add_argument("--config", type=str, required=True)
    p_bench.add_argument("--out-dir", dest="out_dir", type=str, required=True)
    p_bench.set_defaults(func=_cmd_bench)

    p_gp = sub.add_parser("gp", help="predictive-mean marginalization study")
    group = p_gp.add_mutually_exclusive_group(required=True)
    group.add_argument("--data", type=str, default=None)
    group.add_argument("--synthetic", action="store_true")
    p_gp.add_argument("--n-test", dest="n_test", type=int, default=20)
    p_gp.add_argument("--methods", type=str, default="QMC,QMC+CF")
    p_gp.add_argument("--budget", type=int, default=256)
    p_gp.add_argument("--seeds", type=int, default=10)
    p_gp.add_argument("--seed-base", dest="seed_base", type=int, default=0)
    p_gp.add_argument("--n-train-cap", dest="n_train_cap", type=int, default=1000)
    p_gp.add_argument("--n-subset", dest="n_subset", type=int, default=100)
    p_gp.add_argument("--out-dir", dest="out_dir", type=str, required=True)
    p_gp.set_defaults(func=_cmd_gp)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OSError, ValueError, RuntimeError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return RUNTIME_ERROR


if __name__ == "__main__":
    raise SystemExit(main())
