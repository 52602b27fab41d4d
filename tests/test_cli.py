import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import semishot
from semishot import load_dataset, load_prototypes
from semishot.cli import EXIT_CONFIG, EXIT_OK, EXIT_SOLVER, main
from semishot.experiment import CSV_HEADER


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


def test_python_dash_m_runs_the_cli():
    # the package directory of the semishot under test goes first on the
    # child's path, so the child runs this tree, not an installed copy
    src = str(Path(semishot.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-m", "semishot", "--help"], env=env,
                          capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert "benchmark" in done.stdout


# ---------------------------------------------------------------- generate


def test_generate_writes_loadable_dataset(dataset_dir):
    ds = load_dataset(dataset_dir / "manifest.json")
    assert (ds.n, ds.dim, ds.class_count) == (150, 16, 3)
    assert ds.tau == pytest.approx(0.025)
    report = json.loads((dataset_dir / "generate_report.json").read_text())
    assert report["config"]["classes"] == 3
    assert report["version"] == semishot.__version__


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


# ---------------------------------------------------------------- adapt


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
    # weights near the float64 limit overflow the objective: the fit
    # fails at its first round instead of writing -Infinity into the report
    out = tmp_path / "huge"
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = main(["adapt", "--data", str(dataset_dir / "manifest.json"),
                     "--solver", "sstextu", "--lambda-mode", "fixed",
                     "--lambda-text", "1e308", "--lambda-unlabeled", "1e308",
                     "--out", str(out)])
    assert code == EXIT_SOLVER
    assert "objective is not finite at round 1" in capsys.readouterr().err
    assert not (out / "fit_report.json").exists()


# ---------------------------------------------------------------- eval


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


def test_eval_missing_file(dataset_dir, tmp_path):
    code = main(["eval", "--data", str(dataset_dir / "manifest.json"),
                 "--prototypes", str(tmp_path / "nope.json")])
    assert code == EXIT_CONFIG


# ---------------------------------------------------------------- benchmark


BENCH_FLAGS = ["--solvers", "zeroshot,sstext", "--shots-grid", "1,2",
               "--seeds", "2", "--unlabeled-mult", "0", "--no-timing",
               "--threads", "1"]


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


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--version"])
    assert info.value.code == 0
    assert capsys.readouterr().out.strip() == semishot.__version__


def test_missing_subcommand_is_usage_error():
    with pytest.raises(SystemExit) as info:
        main([])
    assert info.value.code == 2
