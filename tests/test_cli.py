import argparse
import ctypes
import hashlib
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import types
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import semishot
from semishot import cli, load_dataset, load_prototypes
from semishot.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, build_parser, main
from semishot.experiment import CSV_HEADER, SOLVER_NAMES


GEN_FLAGS = ["--classes", "3", "--dim", "16", "--pool", "150",
             "--noise", "0.25", "--text-noise", "0.1",
             "--marginal", "0.5,0.3,0.2", "--seed", "0"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "synth"
    assert main(["generate", *GEN_FLAGS, "--out", str(out)]) == EXIT_OK
    return out


def read_files(directory):
    return {p.name: p.read_bytes() for p in sorted(directory.iterdir())}


# Artifacts pinned byte for byte; a change that moves them on purpose
# rewrites these files and says so.
GOLDEN = Path(__file__).parent / "goldens"


def normalised(path, **dirs):
    """The text of the JSON report at ``path`` with each directory of
    ``dirs`` echoed as <its name> and without a timed top-level
    ``runtime_ms`` line."""
    text = path.read_text()
    for name, directory in dirs.items():
        text = text.replace(str(directory), f"<{name}>")
    return re.sub(r'\n  "runtime_ms": [^\n]*', "", text)


def _child_env(**extra):
    """``os.environ`` with ``extra``, and the package directory of the
    semishot under test first on the child's path, so that the child
    runs this tree, not an installed copy."""
    src = str(Path(semishot.__file__).resolve().parents[1])
    return {**os.environ, **extra,
            "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def test_python_dash_m_runs_the_cli():
    done = subprocess.run([sys.executable, "-m", "semishot", "--help"], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "benchmark" in done.stdout


_CHAIN = """
import sys
from semishot.cli import main
for argv in (["generate", "--out", "data"],
             ["eval", "--data", "data/manifest.json", "--prototypes", "data/manifest.json",
              "--silhouette", "--out", "eval.json"]):
    if main(argv) != 0:
        sys.exit(f"{argv[0]} failed")
"""


def test_eval_silhouette_bytes_do_not_depend_on_blas_threads(tmp_path):
    # generate and eval --silhouette on a default-size pool (1500 x 64),
    # in two processes under OPENBLAS_NUM_THREADS 1 and 2: the silhouette's
    # block products are large enough for OpenBLAS to split them over
    # threads. Under another BLAS the variable is ignored, and this only
    # checks that two processes write the same bytes.
    reports = []
    for threads in ("1", "2"):
        run = tmp_path / f"threads-{threads}"
        run.mkdir()
        done = subprocess.run([sys.executable, "-c", _CHAIN], cwd=run,
                              env=_child_env(OPENBLAS_NUM_THREADS=threads),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        reports.append((run / "eval.json").read_bytes())
    assert "silhouette" in json.loads(reports[0])
    assert reports[0] == reports[1]


_REPEATS = """
import resource
from pathlib import Path
from semishot.cli import main
assert main(["generate", "--out", "data"]) == 0
faults = []
for _ in range(12):
    Path("out.csv").unlink(missing_ok=True)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    assert main(["benchmark", "--data", "data/manifest.json", "--seeds", "5",
                 "--no-timing", "--out-csv", "out.csv"]) == 0
    faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
print(faults)
"""


def test_repeated_in_process_commands_take_no_fresh_pages(tmp_path):
    # Twelve in-process sweep benchmarks on one dataset, in a fresh
    # process because fault counts depend on the heap's history. With
    # main() setting glibc's malloc thresholds, a command reuses the heap
    # the previous one freed; without, a heap that is trimmed after one
    # call is trimmed after every call and faulted back in (600-750
    # minor faults each). Which heaps get trimmed depends on the lengths
    # of paths, so two working directories of different name lengths
    # run. A heap may still grow once after warm-up, in any call.
    try:
        ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):
        pytest.skip("no mallopt in this C library")
    for name in ("w", "wwwwwwww"):
        run = tmp_path / name
        run.mkdir()
        done = subprocess.run([sys.executable, "-c", _REPEATS], cwd=run, env=_child_env(),
                              capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        faults = json.loads(done.stdout.splitlines()[-1])
        assert sum(f > 64 for f in faults[3:]) <= 1, faults


@pytest.fixture
def untuned():
    """main() tunes malloc again on its next call, during the test and after."""
    cli._tune_malloc.cache_clear()
    yield
    cli._tune_malloc.cache_clear()


def _no_c_library(name):
    raise OSError("no C library handle")


def _refusing_mallopt(param, value):
    return 0


@pytest.mark.parametrize("library", [
    _no_c_library,
    lambda name: types.SimpleNamespace(),
    lambda name: types.SimpleNamespace(mallopt=_refusing_mallopt),
], ids=["no-handle", "no-mallopt", "refused"])
def test_cli_runs_unchanged_where_malloc_cannot_be_tuned(dataset_dir, tmp_path, monkeypatch,
                                                         untuned, library):
    out = tmp_path / "bench.csv"
    argv = ["benchmark", "--data", str(dataset_dir / "manifest.json"), "--seeds", "2",
            "--shots-grid", "1,2", "--no-timing", "--out-csv", str(out)]
    assert main(argv) == EXIT_OK
    expected = out.read_bytes()
    out.unlink()
    cli._tune_malloc.cache_clear()
    monkeypatch.setattr(ctypes, "CDLL", library)
    assert main(argv) == EXIT_OK
    assert out.read_bytes() == expected


def test_malloc_is_tuned_once_per_process(dataset_dir, tmp_path, monkeypatch, untuned):
    calls = []

    def mallopt(param, value):
        calls.append((param, value))
        return 1

    monkeypatch.setattr(ctypes, "CDLL", lambda name: types.SimpleNamespace(mallopt=mallopt))
    for k in range(3):
        assert main(["benchmark", "--data", str(dataset_dir / "manifest.json"), "--seeds", "1",
                     "--shots-grid", "1", "--out-csv", str(tmp_path / f"{k}.csv")]) == EXIT_OK
    ceiling = 4 * 1024 * 1024 * ctypes.sizeof(ctypes.c_long)  # DEFAULT_MMAP_THRESHOLD_MAX
    assert calls == [(cli._M_MMAP_THRESHOLD, ceiling), (cli._M_TRIM_THRESHOLD, 2 * ceiling)]


_IMPORT_ONLY = """
import ctypes
opened = []
real = ctypes.CDLL
ctypes.CDLL = lambda name, *args, **kwargs: opened.append(name) or real(name, *args, **kwargs)
import semishot, semishot.cli
assert None not in opened, opened
try:
    semishot.cli.main(["--version"])
except SystemExit:
    pass
assert opened.count(None) == 1, opened
"""


def test_importing_the_package_leaves_malloc_alone():
    # a library does not retune its host process; only main() does
    done = subprocess.run([sys.executable, "-c", _IMPORT_ONLY], env=_child_env(),
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


# ---------------------------------------------------------------- generate


def test_generate_writes_loadable_dataset(dataset_dir):
    ds = load_dataset(dataset_dir / "manifest.json")
    assert (ds.n, ds.dim, ds.class_count) == (150, 16, 3)
    assert ds.tau == pytest.approx(0.025)
    report = json.loads((dataset_dir / "generate_report.json").read_text())
    assert report["config"]["classes"] == 3
    assert report["version"] == semishot.__version__


def test_generate_report_matches_its_golden(dataset_dir):
    assert normalised(dataset_dir / "generate_report.json", data=dataset_dir) == (
        GOLDEN / "generate_report.json").read_text()


def test_generate_dataset_matches_its_golden(dataset_dir):
    # the manifest byte for byte and the sha256 of each blob it names
    assert (dataset_dir / "manifest.json").read_text() == (
        GOLDEN / "generate_manifest.json").read_text()
    hashes = "".join(
        f"{hashlib.sha256((dataset_dir / name).read_bytes()).hexdigest()}  {name}\n"
        for name in ("embeddings.f32", "labels.u32", "prototypes.f32", "unlabeled.f32"))
    assert hashes == (GOLDEN / "generate_blobs.sha256").read_text()


def test_generate_deterministic_bytes(dataset_dir, tmp_path):
    again = tmp_path / "again"
    assert main(["generate", *GEN_FLAGS, "--out", str(again)]) == EXIT_OK
    first = read_files(dataset_dir)
    second = read_files(again)
    # the report echoes --out, so compare everything else byte-for-byte
    for name in ("manifest.json", "embeddings.f32", "labels.u32",
                 "prototypes.f32"):
        assert first[name] == second[name], name


def test_generate_rejects_bad_flags(tmp_path, capsys):
    assert main(["generate", "--classes", "0", "--out",
                 str(tmp_path / "x")]) == EXIT_CONFIG
    assert "error:" in capsys.readouterr().err
    assert main(["generate", "--marginal", "0.5,oops", "--out",
                 str(tmp_path / "y")]) == EXIT_CONFIG
    # a noise or a marginal sum past the float64 range fails without a
    # RuntimeWarning (pytest turns one into an error) or all-zero prototypes
    for flags in (["--text-noise", "1e300"], ["--noise", "1e300"],
                  ["--classes", "3", "--marginal", "1e308,1e308,0"]):
        assert main(["generate", *flags, "--out", str(tmp_path / "z")]) == EXIT_CONFIG, flags
    assert not (tmp_path / "z").exists()


@pytest.mark.parametrize("flag", ["--noise", "--text-noise"])
def test_generate_with_overflowing_noise_fails_without_a_warning(tmp_path, capsys, flag):
    # a noise of 1e308 overflows the draw itself: the rows are refused as
    # non-finite, and no RuntimeWarning reaches stderr first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(["generate", flag, "1e308", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG and not caught
    err = capsys.readouterr().err
    assert "Warning" not in err and "contains non-finite entries" in err
    assert not (tmp_path / "x").exists()


def test_generate_names_the_text_prototypes_that_fail(tmp_path, capsys):
    # the noise overflows the norm of every text prototype, not of a pool row
    assert main(["generate", "--text-noise", "1e300",
                 "--out", str(tmp_path / "x")]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "text prototypes rows [0, 1, 2, 3, 4] have norm below" in err
    assert "embeddings" not in err


def _limited(argv, limit_mb):
    """``python -m semishot *argv`` in a child process whose address
    space is limited to ``limit_mb`` MiB before exec, so that no process
    runs on an oversized request unlimited."""
    resource = pytest.importorskip("resource")
    limit = limit_mb << 20
    return subprocess.run([sys.executable, "-m", "semishot", *argv],
                          preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                                (limit, limit)),
                          env=_child_env(OPENBLAS_NUM_THREADS="1"),
                          capture_output=True, text=True, timeout=60)


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("flags", [["--pool", "1500000"], ["--dim", "80000"]],
                         ids=["pool", "dim"])
def test_generate_out_of_memory_is_one_error_line(tmp_path, flags):
    # each pool is under SyntheticSpec's ceiling and more than the
    # child's 512 MiB address space holds, so its first allocation fails
    done = _limited(["generate", *flags, "--out", str(tmp_path / "x")], 512)
    assert done.returncode == EXIT_CONFIG, done.stderr
    assert done.stderr.startswith("error: out of memory: ")
    assert len(done.stderr.splitlines()) == 1
    assert not (tmp_path / "x").exists()


@pytest.mark.skipif(sys.platform != "linux", reason="RLIMIT_AS is enforced on Linux")
@pytest.mark.parametrize("argv, message", [
    (["generate", "--pool", "2000000000", "--out", "{tmp}/x"],
     "pool_size x dim must be <= 134217728 values, got 2000000000 x 64"),
    (["generate", "--dim", "100000000", "--out", "{tmp}/x"],
     "pool_size x dim must be <= 134217728 values, got 1500 x 100000000"),
    (["generate", "--classes", "100000000", "--out", "{tmp}/x"],
     "--classes must be in [2, 67108864], got 100000000"),
    (["benchmark", "--seeds", "1000000000000", "--out-csv", "{tmp}/b.csv"],
     "benchmark grid must be <= 1048576 rows: at most 52428 seeds for this grid"),
], ids=["pool", "dim", "classes", "seeds"])
def test_oversized_requests_fail_typed_before_they_allocate(tmp_path, argv, message):
    # the boundary refuses each before it allocates: one config error
    # line, not the out-of-memory backstop, and no output
    done = _limited([arg.format(tmp=tmp_path) for arg in argv], 1536)
    assert (done.returncode, done.stderr) == (EXIT_CONFIG, f"error: {message}\n")
    assert not any(tmp_path.iterdir())


def test_parser_defaults_are_the_librarys(tmp_path):
    # one source per default: the CLI's fit, draw, grid and synthetic
    # family flags start where the library's own defaults do
    cfg = semishot.SolverConfig()
    grid = inspect.signature(semishot.run_benchmark).parameters
    library = {
        "t_bcm": cfg.bcm_iters, "t_ot": cfg.ot_iters, "ratio_r": cfg.marginal_ratio,
        "marginal_source": cfg.marginal_source,
        "unlabeled_mult": semishot.SamplingSpec(shots=1).unlabeled_multiplier,
    }
    parser = build_parser()
    for argv in (["adapt", "--data", "d", "--solver", "sstext", "--out", "o"],
                 ["benchmark", "--out-csv", "b.csv"]):
        args = vars(parser.parse_args(argv))
        assert {name: args[name] for name in library} == library
    assert grid["unlabeled_multiplier"].default == library["unlabeled_mult"]
    bench = parser.parse_args(["benchmark", "--out-csv", "b.csv"])
    assert (bench.shots_grid, bench.seeds) == (
        ",".join(map(str, grid["shot_grid"].default)), grid["seeds"].default)
    spec = semishot.SyntheticSpec()
    gen = parser.parse_args(["generate", "--out", "g"])
    assert (gen.classes, gen.dim, gen.pool) == (spec.class_count, spec.dim, spec.pool_size)


# ---------------------------------------------------------------- adapt


@pytest.mark.parametrize("subdir", ["", "./"], ids=["same-dir", "same-dir-by-alias"])
def test_adapt_refuses_to_overwrite_its_dataset(tmp_path, capsys, subdir):
    data = tmp_path / "col"
    assert main(["generate", *GEN_FLAGS, "--out", str(data)]) == EXIT_OK
    before = read_files(data)
    code = main(["adapt", "--data", str(data / "manifest.json"), "--solver", "sstextu",
                 "--out", str(data) + "/" + subdir])
    assert code == EXIT_CONFIG
    assert "prototypes.f32, a file of dataset" in capsys.readouterr().err
    assert read_files(data) == before  # nothing written, nothing changed
    # a directory inside the dataset's is fine
    assert main(["adapt", "--data", str(data / "manifest.json"), "--solver", "sstextu",
                 "--out", str(data / "fit")]) == EXIT_OK
    assert all((data / name).read_bytes() == blob for name, blob in before.items())


def test_adapt_writes_prototypes_and_trace(dataset_dir, tmp_path):
    out = tmp_path / "fit"
    code = main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                 "--solver", "sstextu", "--shots", "2",
                 "--unlabeled-mult", "8", "--seed", "1",
                 "--out", str(out)])
    assert code == EXIT_OK
    protos = load_prototypes(out / "prototypes.json")
    assert protos.shape == (3, 16)
    report = json.loads((out / "fit_report.json").read_text())
    assert len(report["objective_trace"]) == 4  # default 3 rounds + start
    assert len(report["ot_residuals"]) == 3
    assert report["support_size"] == 6
    assert report["unlabeled_size"] == 24
    assert report["config"]["t_ot"] == 10


def test_adapt_without_unlabeled_reduces_to_labeled_solver(dataset_dir,
                                                           tmp_path):
    shared = ["--data", str(dataset_dir / "manifest.json"), "--shots", "2",
              "--seed", "3"]
    a = tmp_path / "a"
    b = tmp_path / "b"
    assert main(["adapt", *shared, "--solver", "sstextu",
                 "--unlabeled-mult", "0", "--out", str(a)]) == EXIT_OK
    assert main(["adapt", *shared, "--solver", "sstext",
                 "--out", str(b)]) == EXIT_OK
    assert (a / "prototypes.f32").read_bytes() == (b / "prototypes.f32").read_bytes()


def test_adapt_zero_transport_rounds(dataset_dir, tmp_path):
    out = tmp_path / "t0"
    code = main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                 "--solver", "sstextu", "--t-ot", "0", "--shots", "1",
                 "--unlabeled-mult", "4", "--out", str(out)])
    assert code == EXIT_OK
    report = json.loads((out / "fit_report.json").read_text())
    assert report["config"]["t_ot"] == 0


def test_adapt_oracle_marginal_source(dataset_dir, tmp_path):
    code = main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                 "--solver", "sstextu", "--marginal-source", "oracle",
                 "--shots", "1", "--unlabeled-mult", "6",
                 "--out", str(tmp_path / "oracle")])
    assert code == EXIT_OK
    report = json.loads((tmp_path / "oracle" / "fit_report.json").read_text())
    assert sum(report["marginal"]) == pytest.approx(1.0)


def test_adapt_lambda_flag_validation(dataset_dir, tmp_path, capsys):
    base = ["adapt", "--data", str(dataset_dir / "manifest.json"),
            "--solver", "sstext", "--out", str(tmp_path / "z")]
    assert main([*base, "--lambda-mode", "fixed"]) == EXIT_CONFIG
    assert main([*base, "--lambda-text", "0.5"]) == EXIT_CONFIG
    capsys.readouterr()
    assert main([*base, "--lambda-mode", "fixed", "--lambda-text", "0.5",
                 "--lambda-unlabeled", "0.25"]) == EXIT_OK


def test_adapt_exhausted_pool_is_config_error(dataset_dir, tmp_path):
    code = main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                 "--solver", "sstext", "--shots", "45",
                 "--unlabeled-mult", "8", "--out", str(tmp_path / "x")])
    assert code == EXIT_CONFIG


def test_adapt_non_finite_objective_is_a_solver_failure(dataset_dir, tmp_path, capsys):
    # weights near the float64 limits overflow the objective or the step:
    # the fit fails at its first round, with no RuntimeWarning, instead of
    # writing -Infinity into the report
    out = tmp_path / "huge"
    for text, unl in (("1e308", "1e308"), ("1e-320", "1"), ("1e-10", "1e308"),
                      ("1e-308", "1")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                         "--solver", "sstextu", "--lambda-mode", "fixed",
                         "--lambda-text", text, "--lambda-unlabeled", unl,
                         "--out", str(out)])
        assert code == EXIT_SOLVER, (text, unl)
        assert "objective is not finite at round 1" in capsys.readouterr().err
        assert not (out / "fit_report.json").exists()


@pytest.mark.parametrize("command", ["adapt", "benchmark"])
def test_subnormal_tau_fails_the_fit_without_a_warning(dataset_dir, tmp_path, capsys, command):
    # scores divided by tau=1e-320 overflow in the solvers' round loop;
    # the finiteness check after them is the only signal
    flags = {"adapt": ["--solver", "sstextu", "--out", str(tmp_path / "fit")],
             "benchmark": ["--no-timing", "--seeds", "1", "--shots-grid", "1",
                           "--out-csv", str(tmp_path / "b.csv")]}[command]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main([command, "--data", str(dataset_dir / "manifest.json"),
                     "--tau", "1e-320", *flags])
    assert code == EXIT_SOLVER and not caught
    err = capsys.readouterr().err
    assert "Warning" not in err and "Traceback" not in err
    if command == "adapt":
        assert "similarity matrix contains non-finite entries" in err


# ---------------------------------------------------------------- eval


def test_adapt_and_eval_match_their_goldens(dataset_dir, tmp_path):
    # each solver's fit report, prototype manifest and prototype blob,
    # then eval --silhouette of the sstextu prototypes
    data = ["--data", str(dataset_dir / "manifest.json")]
    got, hashes = {}, ""
    for solver in ("sstext", "sstextu"):
        fit = tmp_path / solver
        assert main(["adapt", *data, "--solver", solver, "--shots", "2",
                     "--unlabeled-mult", "8", "--seed", "1", "--out", str(fit)]) == EXIT_OK
        got[f"adapt_{solver}.json"] = normalised(fit / "fit_report.json",
                                                 data=dataset_dir, tmp=tmp_path)
        got[f"prototypes_{solver}.json"] = normalised(fit / "prototypes.json",
                                                      data=dataset_dir, tmp=tmp_path)
        blob = hashlib.sha256((fit / "prototypes.f32").read_bytes()).hexdigest()
        hashes += f"{blob}  adapt_{solver}/prototypes.f32\n"
    got["prototypes.sha256"] = hashes
    assert main(["eval", *data, "--prototypes", str(fit / "prototypes.json"), "--silhouette",
                 "--out", str(tmp_path / "eval.json")]) == EXIT_OK
    got["eval.json"] = normalised(tmp_path / "eval.json", data=dataset_dir, tmp=tmp_path)
    assert got == {name: (GOLDEN / name).read_text() for name in got}


def test_adapt_stratified_matches_its_goldens(dataset_dir, tmp_path):
    # a stratified draw takes its own path through the sampler: each
    # solver's fit report and prototype blob on it
    got, hashes = {}, ""
    for solver in ("sstext", "sstextu"):
        fit = tmp_path / solver
        assert main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                     "--solver", solver, "--shots", "3", "--unlabeled-mult", "8",
                     "--seed", "4", "--stratified", "--out", str(fit)]) == EXIT_OK
        got[f"adapt_{solver}_stratified.json"] = normalised(
            fit / "fit_report.json", data=dataset_dir, tmp=tmp_path)
        blob = hashlib.sha256((fit / "prototypes.f32").read_bytes()).hexdigest()
        hashes += f"{blob}  adapt_{solver}_stratified/prototypes.f32\n"
    got["prototypes_stratified.sha256"] = hashes
    assert got == {name: (GOLDEN / name).read_text() for name in got}


def test_eval_reports_to_stdout(dataset_dir, tmp_path, capsys):
    fit = tmp_path / "fit"
    main(["adapt", "--data", str(dataset_dir / "manifest.json"),
          "--solver", "sstext", "--shots", "2", "--out", str(fit)])
    capsys.readouterr()
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(fit / "prototypes.json")])
    assert code == EXIT_OK
    payload = json.loads(capsys.readouterr().out)
    assert 0.0 <= payload["aca"] <= 1.0
    assert 0.0 <= payload["acc"] <= 1.0
    assert len(payload["per_class_recall"]) == 3
    assert "silhouette" not in payload


def test_eval_silhouette_and_file_output(dataset_dir, tmp_path):
    fit = tmp_path / "fit"
    main(["adapt", "--data", str(dataset_dir / "manifest.json"),
          "--solver", "simpleshot", "--shots", "4", "--out", str(fit)])
    out = tmp_path / "report.json"
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(fit / "prototypes.json"),
                 "--silhouette", "--out", str(out)])
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert -1.0 <= payload["silhouette"] <= 1.0


def test_eval_shape_mismatch(dataset_dir, tmp_path):
    other = tmp_path / "other"
    main(["generate", "--classes", "3", "--dim", "8", "--pool", "60",
          "--marginal", "0.5,0.3,0.2", "--out", str(other)])
    fit = tmp_path / "fit8"
    main(["adapt", "--data", str(other / "manifest.json"),
          "--solver", "sstext", "--out", str(fit)])
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(fit / "prototypes.json")])
    assert code == EXIT_CONFIG


@pytest.mark.parametrize("target", ["prototypes.json", "prototypes.f32"])
def test_eval_refuses_to_overwrite_its_prototypes(dataset_dir, tmp_path, capsys, target):
    fit = tmp_path / "fit"
    assert main(["adapt", "--data", str(dataset_dir / "manifest.json"), "--solver", "sstext",
                 "--out", str(fit)]) == EXIT_OK
    before = [read_files(fit), read_files(dataset_dir)]
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(fit / "prototypes.json"), "--out", str(fit / target)])
    assert code == EXIT_CONFIG
    assert (f"eval --out {fit / target} would overwrite {(fit / target).resolve()}, "
            f"a file of prototypes {fit / 'prototypes.json'}\n") in capsys.readouterr().err
    assert [read_files(fit), read_files(dataset_dir)] == before  # nothing changed


@pytest.mark.parametrize("key, value", [("embeddings", 5), ("labels", "report.json")],
                         ids=["not-a-name", "names-the-report"])
def test_eval_out_ignores_prototype_manifest_keys_it_never_reads(dataset_dir, tmp_path,
                                                                 key, value):
    # load_prototypes reads only the "prototypes" blob: another blob key
    # of its manifest is neither a file it read nor a name it checked
    fit = tmp_path / "fit"
    assert main(["adapt", "--data", str(dataset_dir / "manifest.json"), "--solver", "sstext",
                 "--out", str(fit)]) == EXIT_OK
    manifest = fit / "prototypes.json"
    manifest.write_text(json.dumps({**json.loads(manifest.read_text()), key: value}))
    out = fit / "report.json"
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(manifest), "--out", str(out)])
    assert code == EXIT_OK
    assert set(json.loads(out.read_text())) >= {"aca", "acc", "per_class_recall"}


def test_eval_missing_file(dataset_dir, tmp_path):
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------- benchmark


BENCH_FLAGS = ["--solvers", "zeroshot,sstext", "--shots-grid", "1,2",
               "--seeds", "2", "--unlabeled-mult", "0", "--no-timing",
               "--threads", "1"]


@pytest.mark.parametrize("command", ["adapt", "eval", "benchmark"])
def test_load_notes_are_warning_lines_on_stderr(dataset_dir, tmp_path, capsys, command):
    # a stored row of norm 1.5 is renormalised on load, and the note the
    # load makes reaches stderr; the command still succeeds
    data = tmp_path / "data"
    data.mkdir()
    for path in dataset_dir.iterdir():
        (data / path.name).write_bytes(path.read_bytes())
    rows = np.fromfile(data / "embeddings.f32", dtype="<f4").reshape(150, 16)
    rows[3] *= np.float32(1.5) / np.linalg.norm(rows[3])
    rows.tofile(data / "embeddings.f32")
    manifest = str(data / "manifest.json")
    argv = {"adapt": ["adapt", "--data", manifest, "--solver", "sstext",
                      "--out", str(tmp_path / "fit")],
            "eval": ["eval", "--data", manifest,
                     "--prototypes", str(dataset_dir / "manifest.json")],
            "benchmark": ["benchmark", "--data", manifest, *BENCH_FLAGS,
                          "--out-csv", str(tmp_path / "rows.csv")]}[command]
    assert main(argv) == EXIT_OK
    notes = [line for line in capsys.readouterr().err.splitlines()
             if line.startswith("warning:")]
    assert len(notes) == 1, notes
    assert notes[0].startswith(f"warning: {manifest}: embeddings: 1 rows deviated")
    assert "first: row 3, norm 1.5)" in notes[0]


def test_benchmark_grid_csv(dataset_dir, tmp_path):
    csv_path = tmp_path / "rows.csv"
    json_path = tmp_path / "rows.json"
    code = main(["benchmark", "--data", str(dataset_dir / "manifest.json"),
                 *BENCH_FLAGS, "--out-csv", str(csv_path),
                 "--out-json", str(json_path)])
    assert code == EXIT_OK
    lines = csv_path.read_text().splitlines()
    assert lines[0] == CSV_HEADER
    assert len(lines) == 1 + 2 * 2 * 2
    doc = json.loads(json_path.read_text())
    assert doc["config"]["solvers"] == ["zeroshot", "sstext"]
    assert doc["config"]["no_timing"] is True
    assert len(doc["rows"]) == 8
    assert all(row["error"] == "" for row in doc["rows"])


def test_benchmark_matches_the_committed_golden_csv(tmp_path):
    # built-in synthetic family, generator seed 0, default grid, 3 seeds;
    # the committed CSV was written before the batched scoring pass, the
    # JSON before the scoring pass lost its unmasked path
    out = tmp_path / "golden.csv"
    assert main(["benchmark", "--gen-seed", "0", "--seeds", "3", "--no-timing",
                 "--out-csv", str(out), "--out-json", str(tmp_path / "golden.json")]) == EXIT_OK
    assert out.read_bytes() == (Path(__file__).parent / "benchmark_golden.csv").read_bytes()
    assert normalised(tmp_path / "golden.json", tmp=tmp_path) == (
        GOLDEN / "benchmark.json").read_text()


def test_benchmark_byte_identical_across_runs_and_threads(dataset_dir,
                                                          tmp_path):
    paths = [tmp_path / f"r{i}.csv" for i in range(3)]
    data = ["--data", str(dataset_dir / "manifest.json")]
    base = ["benchmark", *data, "--solvers", "sstextu,sstext",
            "--shots-grid", "1", "--seeds", "3", "--unlabeled-mult", "6",
            "--no-timing"]
    assert main([*base, "--threads", "1", "--out-csv", str(paths[0])]) == EXIT_OK
    assert main([*base, "--threads", "1", "--out-csv", str(paths[1])]) == EXIT_OK
    assert main([*base, "--threads", "4", "--out-csv", str(paths[2])]) == EXIT_OK
    blobs = [p.read_bytes() for p in paths]
    assert blobs[0] == blobs[1] == blobs[2]


def test_benchmark_fixed_eval_split(dataset_dir, tmp_path):
    holdout = tmp_path / "holdout"
    main(["generate", *GEN_FLAGS[:-2], "--seed", "9", "--out", str(holdout)])
    csv_path = tmp_path / "fixed.csv"
    code = main(["benchmark", "--data", str(dataset_dir / "manifest.json"),
                 "--eval-data", str(holdout / "manifest.json"),
                 "--solvers", "zeroshot", "--shots-grid", "1", "--seeds", "3",
                 "--unlabeled-mult", "0", "--no-timing", "--threads", "1",
                 "--out-csv", str(csv_path)])
    assert code == EXIT_OK
    acas = {line.split(",")[5] for line in
            csv_path.read_text().splitlines()[1:]}
    assert len(acas) == 1  # support-free solver, fixed eval split


def test_benchmark_eval_data_mismatch(dataset_dir, tmp_path):
    other = tmp_path / "dim8"
    main(["generate", "--classes", "3", "--dim", "8", "--pool", "60",
          "--marginal", "0.5,0.3,0.2", "--out", str(other)])
    code = main(["benchmark", "--data", str(dataset_dir / "manifest.json"),
                 "--eval-data", str(other / "manifest.json"), *BENCH_FLAGS,
                 "--out-csv", str(tmp_path / "x.csv")])
    assert code == EXIT_CONFIG


def test_benchmark_all_failed_cells(dataset_dir, tmp_path, capsys):
    csv_path = tmp_path / "failed.csv"
    code = main(["benchmark", "--data", str(dataset_dir / "manifest.json"),
                 "--solvers", "sstext", "--shots-grid", "45", "--seeds", "2",
                 "--unlabeled-mult", "8", "--no-timing", "--threads", "1",
                 "--out-csv", str(csv_path)])
    assert code == EXIT_SOLVER
    assert "all benchmark cells failed" in capsys.readouterr().err
    lines = csv_path.read_text().splitlines()
    assert len(lines) == 3  # rows are still written for post-mortems
    assert "SamplingError" in lines[1]


@pytest.mark.parametrize("flags", [["--tau", "1e-320"],
                                   ["--lambda-mode", "fixed", "--lambda-text", "1e308",
                                    "--lambda-unlabeled", "1e308"]],
                         ids=["subnormal-tau", "huge-lambdas"])
def test_benchmark_with_timing_reports_failed_fits(dataset_dir, tmp_path, capsys, flags):
    # timing on (no --no-timing): a failed cell's runtime is 0, as it is
    # without timing, instead of being read off its error
    csv_path = tmp_path / "timed.csv"
    code = main(["benchmark", "--data", str(dataset_dir / "manifest.json"),
                 "--shots-grid", "1,2", "--seeds", "2", "--unlabeled-mult", "8",
                 *flags, "--out-csv", str(csv_path)])
    assert code in (EXIT_OK, EXIT_SOLVER)
    assert "Traceback" not in capsys.readouterr().err
    rows = [line.split(",") for line in csv_path.read_text().splitlines()[1:]]
    failed = [row for row in rows if row[8]]
    assert len(rows) == 4 * 2 * 2 and failed
    assert all(row[7] == "0.000" for row in failed)


@pytest.mark.parametrize("clash", ["data-manifest", "data-blob", "data-blob-by-alias",
                                   "eval-manifest", "eval-blob", "json-over-csv"])
def test_benchmark_refuses_to_overwrite_its_inputs(tmp_path, capsys, monkeypatch, clash):
    data, held = tmp_path / "d", tmp_path / "held"
    for out, seed in ((data, "0"), (held, "9")):
        assert main(["generate", *GEN_FLAGS[:-2], "--seed", seed, "--out", str(out)]) == EXIT_OK
    before = [read_files(data), read_files(held)]
    outs = {"--out-csv": tmp_path / "rows.csv", "--out-json": tmp_path / "rows.json"}
    flag, target = {
        "data-manifest": ("--out-csv", data / "manifest.json"),
        "data-blob": ("--out-json", data / "embeddings.f32"),
        "data-blob-by-alias": ("--out-json", held / ".." / "d" / "labels.u32"),
        "eval-manifest": ("--out-json", held / "manifest.json"),
        "eval-blob": ("--out-csv", held / "prototypes.f32"),
        "json-over-csv": ("--out-json", outs["--out-csv"]),
    }[clash]
    outs[flag] = target
    monkeypatch.setattr("semishot.cli.run_benchmark", None)  # no fit may run
    code = main(["benchmark", "--data", str(data / "manifest.json"),
                 "--eval-data", str(held / "manifest.json"), *BENCH_FLAGS,
                 *(arg for pair in outs.items() for arg in (pair[0], str(pair[1])))])
    assert code == EXIT_CONFIG
    assert f"benchmark {flag} {target} would overwrite {target.resolve()}, " in (
        capsys.readouterr().err)
    assert [read_files(data), read_files(held)] == before  # nothing changed
    assert not any(path.exists() for path in outs.values() if path.parent == tmp_path)


def _fitted_dataset(tmp_path):
    """A generated dataset and an adapt output of it, under ``tmp_path``."""
    data, fit = tmp_path / "data", tmp_path / "fit"
    assert main(["generate", *GEN_FLAGS, "--out", str(data)]) == EXIT_OK
    assert main(["adapt", "--data", str(data / "manifest.json"), "--solver", "sstext",
                 "--out", str(fit)]) == EXIT_OK
    return data, fit


def test_adapt_refuses_a_directory_that_links_to_its_dataset(tmp_path, capsys):
    data, _ = _fitted_dataset(tmp_path)
    alias = tmp_path / "alias"
    alias.symlink_to(data, target_is_directory=True)
    before = read_files(data)
    code = main(["adapt", "--data", str(data / "manifest.json"), "--solver", "sstextu",
                 "--out", str(alias)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: adapt --out {alias} would overwrite {(data / 'prototypes.f32').resolve()}, "
        f"a file of dataset {data / 'manifest.json'}\n")
    assert read_files(data) == before  # nothing written, nothing changed


def test_eval_refuses_a_link_to_a_dataset_blob(tmp_path, capsys):
    data, fit = _fitted_dataset(tmp_path)
    out = tmp_path / "eval.json"
    out.symlink_to(data / "embeddings.f32")
    before = [read_files(data), read_files(fit)]
    code = main(["eval", "--data", str(data / "manifest.json"),
                 "--prototypes", str(fit / "prototypes.json"), "--out", str(out)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: eval --out {out} would overwrite {(data / 'embeddings.f32').resolve()}, "
        f"a file of dataset {data / 'manifest.json'}\n")
    assert [read_files(data), read_files(fit)] == before


def test_eval_refuses_the_target_of_a_linked_blob(tmp_path, capsys):
    # the manifest's embeddings blob is a symlink into another directory;
    # writing its target would change the dataset as well
    data, fit = _fitted_dataset(tmp_path)
    store = tmp_path / "store"
    store.mkdir()
    (data / "embeddings.f32").rename(store / "emb.f32")
    (data / "embeddings.f32").symlink_to(store / "emb.f32")
    before = [read_files(store), read_files(fit)]
    code = main(["eval", "--data", str(data / "manifest.json"),
                 "--prototypes", str(fit / "prototypes.json"), "--out", str(store / "emb.f32")])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: eval --out {store / 'emb.f32'} would overwrite "
        f"{(store / 'emb.f32').resolve()}, a file of dataset {data / 'manifest.json'}\n")
    assert [read_files(store), read_files(fit)] == before


@pytest.mark.parametrize("via_link", [False, True], ids=["absent-dir", "linked-dir"])
def test_benchmark_resolves_an_out_csv_that_ends_in_dotdot(tmp_path, capsys, monkeypatch,
                                                           via_link):
    # a name ".." is resolved in full: past a symlink it is the parent of
    # the link's target, not of the link
    data, _ = _fitted_dataset(tmp_path)
    (tmp_path / "held" / "inner").mkdir(parents=True)
    if via_link:
        (tmp_path / "hop").symlink_to(tmp_path / "held" / "inner", target_is_directory=True)
        csv_path, json_path = tmp_path / "hop" / "..", tmp_path / "held"
    else:
        csv_path, json_path = tmp_path / "held" / "absent" / "..", tmp_path / "held"
    monkeypatch.setattr("semishot.cli.run_benchmark", None)  # no fit may run
    before = sorted(tmp_path.rglob("*"))
    code = main(["benchmark", "--data", str(data / "manifest.json"), *BENCH_FLAGS,
                 "--out-csv", str(csv_path), "--out-json", str(json_path)])
    assert code == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: benchmark --out-json {json_path} would overwrite {json_path.resolve()}, "
        f"the --out-csv file\n")
    assert sorted(tmp_path.rglob("*")) == before  # nothing written


@pytest.mark.parametrize("command, flag, name", [
    ("adapt", "--out", "loop"), ("benchmark", "--out-csv", "loop/x.csv"),
    ("generate", "--out", "file"), ("adapt", "--out", "file"),
    ("generate", "--out", "file/sub"), ("benchmark", "--out-csv", "dir"),
    ("eval", "--out", "dir")])
def test_an_unwritable_output_path_is_a_config_error(dataset_dir, tmp_path, capsys,
                                                      command, flag, name):
    # a self-loop symlink, an existing file where a directory must go, a
    # path under a file, a directory where a file must go: one error line
    # naming the path, no traceback
    (tmp_path / "loop").symlink_to(tmp_path / "loop")
    (tmp_path / "file").write_text("")
    (tmp_path / "dir").mkdir()
    data = str(dataset_dir / "manifest.json")
    lead = {"generate": GEN_FLAGS, "adapt": ["--data", data, "--solver", "sstext"],
            "eval": ["--data", data, "--prototypes", data],
            "benchmark": ["--data", data, *BENCH_FLAGS]}[command]
    out = tmp_path / name
    assert main([command, *lead, flag, str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(out) in err and err.count("\n") == 1, err


def test_benchmark_flag_validation(dataset_dir, tmp_path):
    data = ["--data", str(dataset_dir / "manifest.json")]
    out = ["--out-csv", str(tmp_path / "v.csv")]
    assert main(["benchmark", *data, "--solvers", "protonet", *out]) == EXIT_CONFIG
    assert main(["benchmark", *data, "--shots-grid", "a,b", *out]) == EXIT_CONFIG
    assert main(["benchmark", *data, "--solvers", "", *out]) == EXIT_CONFIG
    # a grid that cannot run, or would repeat its cells, is a config
    # error, not a set of failed cells
    for flags in (["--seeds", "0"], ["--seeds", "-2"], ["--shots-grid", "0"],
                  ["--shots-grid", "1,0"], ["--unlabeled-mult", "-1"],
                  ["--threads", "0"], ["--shots-grid", "1,1,1"]):
        assert main(["benchmark", *data, *flags, *out]) == EXIT_CONFIG, flags


@pytest.mark.parametrize("flags", [["--stratified"], ["--shots", "7"],
                                   ["--seed", "9"]],
                         ids=["stratified", "shots", "seed"])
def test_benchmark_rejects_split_flags(dataset_dir, tmp_path, flags):
    # the grid sets shots and seeds itself; these adapt-only flags would
    # be ignored, or taken as prefixes of --shots-grid and --seeds
    with pytest.raises(SystemExit) as info:
        main(["benchmark", "--data", str(dataset_dir / "manifest.json"),
              *flags, "--out-csv", str(tmp_path / "v.csv")])
    assert info.value.code == EXIT_CONFIG


# ---------------------------------------------------------------- misc


def test_every_report_echoes_every_flag(dataset_dir, tmp_path):
    parser = build_parser()
    subparsers = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices
    data = ["--data", str(dataset_dir / "manifest.json")]
    fit = tmp_path / "fit"
    runs = {
        "generate": (["--out", str(tmp_path / "gen")],
                     tmp_path / "gen" / "generate_report.json"),
        "adapt": ([*data, "--solver", "sstext", "--out", str(fit)], fit / "fit_report.json"),
        "eval": ([*data, "--prototypes", str(fit / "prototypes.json"),
                  "--out", str(tmp_path / "eval.json")], tmp_path / "eval.json"),
        "benchmark": ([*data, *BENCH_FLAGS, "--out-csv", str(tmp_path / "b.csv"),
                       "--out-json", str(tmp_path / "b.json")], tmp_path / "b.json"),
    }
    for command, (flags, report) in runs.items():
        assert main([command, *flags]) == EXIT_OK
        config = json.loads(report.read_text())["config"]
        dests = {a.dest for a in subparsers[command]._actions if a.dest != "help"}
        assert set(config) - {"version"} == dests | {"command"}, command
        assert config["command"] == command


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == semishot.__version__


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2


# ---------------------------------------------------------------- fuzz

# Flag values the fuzz draws: zero, negative, huge, subnormal, non-finite
# and non-numeric. Sizes, round counts and seed counts draw from SMALL,
# so that no example allocates or loops much; a huge integer goes only
# to flags whose size a draw or a check refuses first, or that are only
# echoed (--threads starts no thread). OVERSIZED goes to the sizes that a
# boundary ceiling bounds (pool, dim, classes, seeds); an example that
# draws it runs only in a child process limited to 1.5 GiB before exec.
EDGE = ("0", "-1", "1e308", "5e-324", "nan", "inf", "-inf", "abc", "0.5", "1")
HUGE = str(10 ** 20)
OVERSIZED = str(10 ** 12)
SMALL = ("0", "-1", "1", "2", "3", "5e-324", "nan", "abc")

OUTPUT_HAZARDS = ("{tmp}/file", "{tmp}/dir", "{tmp}/loop", "{tmp}/file/sub")

FIT_FLAGS = {
    "--tau": EDGE, "--t-bcm": SMALL, "--t-ot": SMALL, "--ratio-r": EDGE,
    "--lambda-mode": ("adaptive", "fixed", "abc"), "--lambda-text": EDGE,
    "--lambda-unlabeled": EDGE,
    "--marginal-source": ("support_estimate", "support_raw", "oracle", "abc"),
    "--unlabeled-mult": (*EDGE, HUGE, "8"),
}

# each command's leading argv, then the optional flags it draws from;
# None marks a flag without a value. {data}, {protos} and {tmp} are the
# fuzz dataset, a prototype manifest fitted on it and the example's own
# directory: every output goes under {tmp}, to a new path or to one of
# OUTPUT_HAZARDS, which each example prepares: an existing file, a
# directory, a self-loop symlink and a path under a file.
FUZZ = {
    "generate": (["--out", "{tmp}/gen"], {
        "--classes": (*SMALL, OVERSIZED), "--dim": (*SMALL, OVERSIZED),
        "--pool": (*SMALL, "40", OVERSIZED),
        "--seed": (*EDGE, HUGE), "--separation": EDGE, "--noise": EDGE,
        "--text-noise": EDGE, "--tau": EDGE,
        "--marginal": ("0.5,0.5", "1,5e-324", "nan,1", "1e308,1e308", "0,1", "abc", ""),
    }),
    "adapt": (["--data", "{data}", "--solver", "sstextu", "--out", "{tmp}/fit"], {
        **FIT_FLAGS, "--solver": SOLVER_NAMES, "--shots": (*EDGE, HUGE, "2"),
        "--seed": (*EDGE, HUGE), "--stratified": None,
    }),
    "eval": (["--data", "{data}", "--prototypes", "{protos}"], {
        "--tau": EDGE, "--silhouette": None, "--out": ("{tmp}/eval.json",),
    }),
    "benchmark": (["--out-csv", "{tmp}/b.csv", "--out-json", "{tmp}/b.json"], {
        **FIT_FLAGS, "--data": ("{data}",), "--eval-data": ("{data}",),
        "--gen-seed": (*EDGE, HUGE), "--name": ("x", ""),
        "--solvers": ("sstextu", "zeroshot,simpleshot", "sstext,sstext", "abc", ""),
        "--shots-grid": ("1", "1,2", "0", "-1", "2,2", "abc", "", HUGE),
        "--seeds": (*SMALL, OVERSIZED), "--threads": (*EDGE, HUGE), "--no-timing": None,
    }),
}


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory):
    """The fuzz's own 120-row dataset and a prototype manifest fitted on
    it, apart from the files other tests read."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["generate", "--classes", "3", "--dim", "8", "--pool", "120",
                 "--out", str(root / "data")]) == EXIT_OK
    data = root / "data" / "manifest.json"
    assert main(["adapt", "--data", str(data), "--solver", "sstext", "--shots", "2",
                 "--out", str(root / "fit")]) == EXIT_OK
    return {"data": str(data), "protos": str(root / "fit" / "prototypes.json")}


def _refuse_constant(token):
    raise AssertionError(f"JSON holds {token}")


@pytest.mark.parametrize("command", FUZZ)
@settings(max_examples=30, deadline=None)
@given(draw=st.data())
def test_cli_fuzz_exits_with_a_documented_code(fuzz_inputs, command, draw):
    # any mix of edge values, repeats included: nothing but argparse's
    # SystemExit leaves main, the exit code is documented, no warning is
    # raised and every JSON written holds only finite numbers
    lead, table = FUZZ[command]
    argv = [command, *lead]
    for flag in draw.draw(st.lists(st.sampled_from(sorted(table)), max_size=6)):
        argv.append(flag)
        if table[flag] is not None:
            argv.append(draw.draw(st.sampled_from(table[flag])))
    argv = [draw.draw(st.one_of(st.just(arg), st.sampled_from(OUTPUT_HAZARDS)))
            if arg.startswith("{tmp}/") else arg for arg in argv]
    with tempfile.TemporaryDirectory() as tmp:
        (Path(tmp) / "file").write_text("")
        (Path(tmp) / "dir").mkdir()
        (Path(tmp) / "loop").symlink_to(Path(tmp) / "loop")
        argv = [arg.format(tmp=tmp, **fuzz_inputs) for arg in argv]
        if OVERSIZED in argv:
            done, caught = _limited(argv, 1536), []
            code, out, err = done.returncode, done.stdout, done.stderr
        else:
            out, err = io.StringIO(), io.StringIO()
            with warnings.catch_warnings(record=True) as caught, \
                    redirect_stdout(out), redirect_stderr(err):
                warnings.simplefilter("always")
                try:
                    code = main(argv)
                except SystemExit as exc:  # argparse's usage error
                    code = exc.code
            out, err = out.getvalue(), err.getvalue()
        assert code in (EXIT_OK, EXIT_CONFIG, EXIT_SOLVER), (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert "Traceback" not in err and "Warning" not in err
        reports = [path.read_text() for path in Path(tmp).rglob("*.json")]
        if command == "eval" and code == EXIT_OK and "--out" not in argv:
            reports.append(out)
        for text in reports:
            json.loads(text, parse_constant=_refuse_constant)
