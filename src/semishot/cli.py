"""Command-line interface: generate, adapt, eval, benchmark.

Every JSON artifact embeds the tool version and the configuration:
every flag as parsed (defaults included), with the values a command
resolves (tau, marginal, dataset name, solver and shot lists) in place
of their raw flags, so runs are reproducible from their outputs alone.
Exit codes: 0 success, 2 usage/config/data error or out of memory, 3
solver or numeric failure. Load notes on a dataset (``Dataset.warnings``)
go to stderr as ``warning:`` lines.

``main`` first sets glibc's malloc thresholds, once per process
(``_tune_malloc``); importing the package leaves the allocator alone.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import inspect
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .data import (
    Dataset,
    SupportSet,
    UnlabeledSet,
    _prototype_blob,
    _write_file,
    _write_json,
    load_dataset,
    load_prototypes,
    save_dataset,
    save_prototypes,
)
from .errors import ConfigError, DegeneratePlanError, SemishotError, SolverError
from .experiment import (
    DEFAULT_SYNTHETIC_TAU,
    SOLVER_NAMES,
    SamplingSpec,
    SyntheticSpec,
    _MAX_SYNTHETIC_VALUES,
    _resolve_tau,
    _sample,
    evaluate_prototypes,
    fit_solver,
    rows_to_csv,
    rows_to_json,
    run_benchmark,
    silhouette_score,
    synthetic_dataset,
)
from .objectives import LambdaPolicy
from .solvers import MARGINAL_SOURCES, SolverConfig
from .zeroshot import DEFAULT_TAU

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_SOLVER = 3

_SOLVER_ERRORS = (SolverError, DegeneratePlanError)

_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3  # glibc's mallopt parameters


@functools.cache
def _tune_malloc() -> None:
    """Start glibc's malloc where its dynamic thresholds converge.

    Freeing an mmapped chunk of up to DEFAULT_MMAP_THRESHOLD_MAX (4 MiB
    times sizeof(long)) raises glibc's mmap threshold to the chunk's size
    and its trim threshold to twice that. Below that ceiling the heap one
    in-process command frees can go back to the OS, to be faulted in
    again by the next (600-1000 minor faults per perfbench sweep or study
    op). At the ceiling a process holds ~1 MB more. Without a C library
    handle or mallopt, or if mallopt refuses a value, nothing changes.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # TypeError: CDLL(None) on Windows
        return
    mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
    ceiling = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)
    if mallopt(_M_MMAP_THRESHOLD, ceiling):
        mallopt(_M_TRIM_THRESHOLD, 2 * ceiling)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process (parsing does not
    change it). Defaults are the library's own."""
    cfg = SolverConfig()
    bench_defaults = inspect.signature(run_benchmark).parameters
    parser = argparse.ArgumentParser(
        prog="semishot",
        description="Few-shot prototype adaptation with text anchors and "
                    "transport-based pseudo-labels.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="write a synthetic dataset")
    gen.add_argument("--classes", type=int, default=SyntheticSpec.class_count)
    gen.add_argument("--dim", type=int, default=SyntheticSpec.dim)
    gen.add_argument("--pool", type=int, default=SyntheticSpec.pool_size)
    gen.add_argument("--seed", type=int, default=SyntheticSpec.seed)
    gen.add_argument("--separation", type=float, default=SyntheticSpec.separation,
                     help="minimum pairwise center angle in radians")
    gen.add_argument("--noise", type=float, default=SyntheticSpec.noise)
    gen.add_argument("--text-noise", type=float, default=SyntheticSpec.text_noise)
    gen.add_argument("--marginal", type=str, default=None,
                     help="comma-separated class probabilities "
                          "(default: built-in imbalanced profile for 5 "
                          "classes, uniform otherwise)")
    gen.add_argument("--tau", type=float, default=DEFAULT_SYNTHETIC_TAU,
                     help="temperature stored in the manifest")
    gen.add_argument("--out", type=Path, required=True, help="output directory")

    def _fit_flags(p):
        p.add_argument("--tau", type=float, default=None,
                       help=f"temperature (default: manifest value, else {DEFAULT_TAU})")
        p.add_argument("--t-bcm", type=int, default=cfg.bcm_iters,
                       help="block-coordinate rounds")
        p.add_argument("--t-ot", type=int, default=cfg.ot_iters,
                       help="transport scaling rounds per pseudo-label step")
        p.add_argument("--ratio-r", type=float, default=cfg.marginal_ratio,
                       help="marginal floor ratio for unseen classes")
        p.add_argument("--lambda-mode", choices=("adaptive", "fixed"),
                       default=LambdaPolicy.mode)
        p.add_argument("--lambda-text", type=float, default=None,
                       help="fixed text-penalty weight (lambda-mode fixed)")
        p.add_argument("--lambda-unlabeled", type=float, default=None,
                       help="fixed unlabeled weight (lambda-mode fixed)")
        p.add_argument("--marginal-source", choices=MARGINAL_SOURCES,
                       default=cfg.marginal_source)
        p.add_argument("--unlabeled-mult", type=int,
                       default=SamplingSpec.unlabeled_multiplier)

    adapt = sub.add_parser("adapt", help="fit prototypes on a sampled split")
    adapt.add_argument("--data", type=Path, required=True, help="dataset manifest")
    adapt.add_argument("--solver", choices=SOLVER_NAMES, required=True)
    _fit_flags(adapt)
    adapt.add_argument("--shots", type=int, default=1)
    adapt.add_argument("--seed", type=int, default=SamplingSpec.seed)
    adapt.add_argument("--stratified", action="store_true",
                       help="force exactly --shots per class (contrast mode)")
    adapt.add_argument("--out", type=Path, required=True, help="output directory")

    ev = sub.add_parser("eval", help="score saved prototypes on a dataset pool")
    ev.add_argument("--data", type=Path, required=True, help="dataset manifest")
    ev.add_argument("--prototypes", type=Path, required=True,
                    help="prototype manifest written by adapt")
    ev.add_argument("--tau", type=float, default=None)
    ev.add_argument("--silhouette", action="store_true",
                    help="also compute the pool silhouette (O(n^2))")
    ev.add_argument("--out", type=Path, default=None,
                    help="report path (default: stdout)")

    # no prefix matching: --shots and --seed would otherwise silently
    # stand for --shots-grid and --seeds
    bench = sub.add_parser("benchmark", help="run a (solver, shots, seed) grid",
                           allow_abbrev=False)
    bench.add_argument("--data", type=Path, default=None,
                       help="dataset manifest (default: built-in synthetic)")
    bench.add_argument("--eval-data", type=Path, default=None,
                       help="manifest of a fixed held-out eval split; default "
                            "re-splits the pool remainder per seed")
    bench.add_argument("--gen-seed", type=int, default=SyntheticSpec.seed,
                       help="seed for the built-in synthetic dataset")
    bench.add_argument("--name", type=str, default=None,
                       help="dataset label in result rows")
    bench.add_argument("--solvers", type=str,
                       default=",".join(SOLVER_NAMES),
                       help="comma-separated solver names")
    bench.add_argument("--shots-grid", type=str,
                       default=",".join(map(str, bench_defaults["shot_grid"].default)),
                       help="comma-separated shot counts")
    bench.add_argument("--seeds", type=int, default=bench_defaults["seeds"].default)
    _fit_flags(bench)
    bench.add_argument("--threads", type=int, default=None,
                       help="accepted and echoed in the JSON config; cells run serially")
    bench.add_argument("--no-timing", action="store_true",
                       help="write runtime_ms as 0 for byte-stable output")
    bench.add_argument("--out-csv", type=Path, required=True)
    bench.add_argument("--out-json", type=Path, default=None)
    return parser


def _config(args, **resolved) -> dict:
    """Every parsed flag of ``args`` (paths as strings), with the values
    the command resolved in place of the raw flags."""
    flags = {k: str(v) if isinstance(v, Path) else v for k, v in vars(args).items()}
    return {**flags, **resolved}


def _parse_marginal(args) -> tuple[float, ...]:
    if args.marginal is not None:
        try:
            return tuple(float(tok) for tok in args.marginal.split(","))
        except ValueError:
            raise ConfigError(f"could not parse --marginal {args.marginal!r}")
    # SyntheticSpec's bound at its least dim, 2, before the list is built
    if not 2 <= args.classes <= _MAX_SYNTHETIC_VALUES // 2:
        raise ConfigError(f"--classes must be in [2, {_MAX_SYNTHETIC_VALUES // 2}], "
                          f"got {args.classes}")
    if args.classes == len(SyntheticSpec.marginal):
        return SyntheticSpec.marginal
    return tuple([1.0 / args.classes] * args.classes)


def cmd_generate(args) -> int:
    marginal = _parse_marginal(args)
    spec = SyntheticSpec(
        class_count=args.classes,
        dim=args.dim,
        separation=args.separation,
        noise=args.noise,
        marginal=marginal,
        text_noise=args.text_noise,
        pool_size=args.pool,
        seed=args.seed,
    )
    dataset = synthetic_dataset(spec, tau=args.tau)
    out: Path = args.out
    save_dataset(dataset, out / "manifest.json")
    _write_json(out / "generate_report.json",
                {"version": __version__, "config": _config(args, marginal=list(marginal))})
    print(f"wrote dataset ({dataset.n} x {dataset.dim}, "
          f"{dataset.class_count} classes) to {out}")
    return EXIT_OK


def _solver_config(args, tau: float, class_count: int) -> SolverConfig:
    if args.lambda_mode == "fixed":
        if args.lambda_text is None or args.lambda_unlabeled is None:
            raise ConfigError(
                "--lambda-mode fixed needs --lambda-text and --lambda-unlabeled")
        lambdas = LambdaPolicy.fixed(
            np.full(class_count, args.lambda_text),
            np.full(class_count, args.lambda_unlabeled),
        )
    else:
        if args.lambda_text is not None or args.lambda_unlabeled is not None:
            raise ConfigError(
                "--lambda-text/--lambda-unlabeled require --lambda-mode fixed")
        lambdas = LambdaPolicy.adaptive()
    return SolverConfig(
        tau=tau,
        bcm_iters=args.t_bcm,
        ot_iters=args.t_ot,
        marginal_ratio=args.ratio_r,
        marginal_source=args.marginal_source,
        lambdas=lambdas,
    )


def _adapt_split(dataset: Dataset, args) -> tuple[SupportSet, UnlabeledSet,
                                                  np.ndarray | None]:
    """Sample the adapt command's support and unlabeled sets.

    The unlabeled set comes from the dataset's dedicated unlabeled rows
    when it has them; otherwise it is drawn from the pool remainder.
    --unlabeled-mult 0 always means an empty unlabeled set. Returns the
    true unlabeled marginal when hidden labels are available (needed
    for --marginal-source oracle).
    """
    use_dedicated = dataset.unlabeled_count > 0 and args.unlabeled_mult > 0
    mult = 0 if use_dedicated else args.unlabeled_mult
    spec = SamplingSpec(shots=args.shots, unlabeled_multiplier=mult,
                        seed=args.seed, stratified=args.stratified)
    split, unlabeled = _sample(dataset.pool(), spec)
    if use_dedicated:
        return split.support, UnlabeledSet.from_embeddings(dataset.unlabeled), None
    return split.support, unlabeled, split.oracle_marginal


def _file_id(path) -> tuple[int, int] | str:
    """(device, inode) of the file at ``path``, links followed, else its resolved path."""
    try:
        stat = os.stat(path)
    except OSError:
        return str(Path(path).resolve())
    return stat.st_dev, stat.st_ino


def _refuse_overwrite(command: str, writes, reads) -> None:
    """Raise ConfigError when a file that ``command`` would write, each a
    (flag, value, path) of ``writes``, is a path that cannot be resolved
    or the same file, link or not, as one of the ``files`` that a loader
    read, each a (kind, manifest, files) of ``reads``, or as an earlier
    entry of ``writes``."""
    owners = {_file_id(path): f"a file of {kind} {manifest}"
              for kind, manifest, files in reads for path in files}
    for flag, value, path in writes:
        try:
            target = str(Path(path).resolve())
        except (OSError, RuntimeError) as exc:  # RuntimeError: a symlink loop before 3.13
            raise ConfigError(f"{command} {flag} {value}: cannot resolve {path}: {exc}") from None
        key = _file_id(target)
        if key in owners:
            raise ConfigError(f"{command} {flag} {value} would overwrite {target}, "
                              f"{owners[key]}")
        owners[key] = f"the {flag} file"


def _load(manifest: Path, files: list) -> Dataset:
    """``load_dataset(manifest, files=files)``, with each of its load
    notes printed as one ``warning:`` line on stderr."""
    dataset = load_dataset(manifest, files=files)
    for note in dataset.warnings:
        print(f"warning: {manifest}: {note}", file=sys.stderr)
    return dataset


def cmd_adapt(args) -> int:
    files = []
    dataset = _load(args.data, files)
    out: Path = args.out
    manifest, report_path = out / "prototypes.json", out / "fit_report.json"
    _refuse_overwrite("adapt", [("--out", out, path) for path in (
        manifest, _prototype_blob(manifest), report_path)], [("dataset", args.data, files)])
    tau = _resolve_tau(args.tau, dataset)
    cfg = _solver_config(args, tau, dataset.class_count)
    support, unlabeled, oracle_marginal = _adapt_split(dataset, args)
    fit = fit_solver(args.solver, dataset, support, unlabeled, cfg,
                     oracle_marginal)
    config = _config(args, tau=tau)
    save_prototypes(fit.prototypes, manifest, extra={"version": __version__, "config": config})
    report = {
        "version": __version__,
        "config": config,
        "objective_trace": fit.objective_trace.tolist(),
        "runtime_ms": fit.runtime_ms,
        "support_size": support.n,
        "unlabeled_size": unlabeled.count,
    }
    if fit.marginal is not None:
        report["marginal"] = fit.marginal.tolist()
    if fit.ot_residuals is not None:
        report["ot_residuals"] = fit.ot_residuals.tolist()
    _write_json(report_path, report)
    print(f"adapted {args.solver} prototypes "
          f"({support.class_count} x {support.dim}) to {out}")
    return EXIT_OK


def cmd_eval(args) -> int:
    data_files, proto_files = [], []
    dataset = _load(args.data, data_files)
    prototypes = load_prototypes(args.prototypes, files=proto_files)
    if args.out is not None:
        _refuse_overwrite("eval", [("--out", args.out, args.out)],
                          [("dataset", args.data, data_files),
                           ("prototypes", args.prototypes, proto_files)])
    tau = _resolve_tau(args.tau, dataset)
    report = evaluate_prototypes(prototypes, dataset.pool(), tau)
    payload = {
        "version": __version__,
        "config": _config(args, tau=tau),
        "aca": report.aca,
        "acc": report.acc,
        "per_class_recall": [None if np.isnan(r) else float(r)
                             for r in report.per_class_recall],
    }
    if args.silhouette:
        payload["silhouette"] = silhouette_score(dataset.embeddings, dataset.labels)
    _write_json(args.out, payload)
    return EXIT_OK


def cmd_benchmark(args) -> int:
    if args.threads is not None and args.threads < 1:
        raise ConfigError(f"--threads must be >= 1, got {args.threads}")
    data_files, eval_files = [], []
    if args.data is not None:
        dataset = _load(args.data, data_files)
        name = args.name or Path(args.data).parent.name or "dataset"
    else:
        dataset = synthetic_dataset(SyntheticSpec(seed=args.gen_seed))
        name = args.name or "synthetic"
    tau = _resolve_tau(args.tau, dataset)
    cfg = _solver_config(args, tau, dataset.class_count)
    solvers = tuple(tok for tok in args.solvers.split(",") if tok)
    try:
        shot_grid = tuple(int(tok) for tok in args.shots_grid.split(",") if tok)
    except ValueError:
        raise ConfigError(f"could not parse --shots-grid {args.shots_grid!r}")
    eval_set = None if args.eval_data is None else _load(args.eval_data, eval_files).pool()
    _refuse_overwrite("benchmark", [(flag, path, path) for flag, path in (
        ("--out-csv", args.out_csv), ("--out-json", args.out_json)) if path is not None],
        [("dataset", args.data, data_files), ("dataset", args.eval_data, eval_files)])

    rows = run_benchmark(
        dataset, solvers=solvers, shot_grid=shot_grid, seeds=args.seeds,
        cfg=cfg, unlabeled_multiplier=args.unlabeled_mult,
        include_timing=not args.no_timing, dataset_name=name, eval_set=eval_set)

    _write_file(args.out_csv, rows_to_csv(rows).encode())
    if args.out_json is not None:
        config = _config(args, tau=tau, name=name, solvers=list(solvers),
                         shots_grid=list(shot_grid))
        _write_json(args.out_json, rows_to_json(rows, {"version": __version__, **config}))
    failed = sum(1 for r in rows if r.error)
    print(f"benchmark wrote {len(rows)} rows to {args.out_csv} "
          f"({failed} failed cells)")
    if failed == len(rows):
        print("all benchmark cells failed", file=sys.stderr)
        return EXIT_SOLVER
    return EXIT_OK


_COMMANDS = {
    "generate": cmd_generate,
    "adapt": cmd_adapt,
    "eval": cmd_eval,
    "benchmark": cmd_benchmark,
}


def main(argv=None) -> int:
    _tune_malloc()
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except _SOLVER_ERRORS as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER
    except SemishotError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # a size flag or a manifest asked for too much
        print(f"error: out of memory: {exc}", file=sys.stderr)
        return EXIT_CONFIG


def run() -> None:
    raise SystemExit(main())
