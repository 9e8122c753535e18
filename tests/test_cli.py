"""End-to-end CLI behavior: output schemas, determinism, config handling,
and exit codes."""

import csv
import json
import os
import re
from dataclasses import asdict

import numpy as np
import pytest

from lexdiv.cli import DEFAULT_SEED, CliError, _parse_conditions, main
from lexdiv.indices import IndexKind, IndexSpec, evaluate
from lexdiv.sampling import STREAM_LAYOUT, ScoreMatrix, stream_seed
from lexdiv.stats import compare_correlations, pearson

pytestmark = pytest.mark.usefixtures("clean_seed_env")

BOM = b"\xef\xbb\xbf"  # the UTF-8 byte-order mark


@pytest.fixture()
def clean_seed_env(monkeypatch):
    monkeypatch.delenv("LEXDIV_SEED", raising=False)


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "texts"
    d.mkdir()
    rng = np.random.default_rng(17)
    for i in range(6):
        toks = [f"w{v}" for v in rng.zipf(1.4, 320) % 500]
        (d / f"text{i:02d}.txt").write_text(" ".join(toks))
    return d


@pytest.fixture()
def scores_csv(tmp_path):
    p = tmp_path / "quality.csv"
    lines = ["id,score"] + [f"text{i:02d},{2.0 + 0.4 * i}" for i in range(6)]
    p.write_text("\n".join(lines) + "\n")
    return p


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def assert_one_line_error(rc, capsys, message, code=1):
    """The command exited with ``code`` and one ``lexdiv: error:`` line;
    argparse's errors (code 2) print the usage before it."""
    assert rc == code
    err = capsys.readouterr().err
    if code == 2:
        assert err.startswith("usage: lexdiv ")
        err = err[err.index("lexdiv: error: "):]
    assert err.startswith("lexdiv: error: ")
    assert message in err
    assert err.count("\n") == 1


# -------------------------------------------------------------------- index

def test_index_csv_schema(corpus_dir, tmp_path):
    out = tmp_path / "scores.csv"
    rc = main(["index", "--corpus", str(corpus_dir), "--index", "mtld",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["text_id", "index", "param", "score", "flags"]
    assert len(rows) == 7
    assert rows[1][0] == "text00"
    assert rows[1][1] == "mtld"
    assert rows[1][2] == "mtld[factor=0.72]"
    float(rows[1][3])


def test_index_json_format(corpus_dir, capsys):
    rc = main(["index", "--corpus", str(corpus_dir), "--index", "ttr",
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 6
    assert set(payload[0]) == {"text_id", "index", "param", "score", "flags"}


def test_index_stochastic_uses_default_seed(corpus_dir, tmp_path):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (out1, out2):
        assert main(["index", "--corpus", str(corpus_dir), "--index",
                     "mttrss", "--out", str(out)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_index_stochastic_stream_per_text(tmp_path, capsys):
    """Texts with identical tokens still get their own (seed, text) streams."""
    d = tmp_path / "twins"
    d.mkdir()
    toks = "a b c a b d a e b c".split()
    for name in ("one", "two"):
        (d / f"{name}.txt").write_text(" ".join(toks))
    rc = main(["index", "--corpus", str(d), "--index", "mttrss", "--n", "4",
               "--s", "3", "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    spec = IndexSpec(IndexKind.MTTRSS, n=4, s=3)
    for row in payload:
        rng = stream_seed(DEFAULT_SEED, row["text_id"], "index", spec.label())
        assert row["score"] == evaluate(toks, spec, rng=rng)[0]
    assert payload[0]["score"] != payload[1]["score"]


def test_seed_env_override(corpus_dir, tmp_path, monkeypatch):
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    main(["index", "--corpus", str(corpus_dir), "--index", "mttrss",
          "--out", str(out1)])
    monkeypatch.setenv("LEXDIV_SEED", str(DEFAULT_SEED + 1))
    main(["index", "--corpus", str(corpus_dir), "--index", "mttrss",
          "--out", str(out2)])
    assert out1.read_bytes() != out2.read_bytes()


def test_non_integer_seed_env_is_one_line(corpus_dir, tmp_path, capsys,
                                          monkeypatch):
    monkeypatch.setenv("LEXDIV_SEED", "abc")
    out = tmp_path / "a.csv"
    rc = main(["index", "--corpus", str(corpus_dir), "--index", "mttrss",
               "--out", str(out)])
    assert_one_line_error(rc, capsys, "LEXDIV_SEED must be an integer, got 'abc'")
    assert not out.exists()


def test_unknown_index_is_runtime_error(corpus_dir, capsys):
    rc = main(["index", "--corpus", str(corpus_dir), "--index", "vocd"])
    assert rc == 1
    assert "unknown index" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["index", "--index", "hdd", "--n", "50"],
    ["index", "--index", "mattr", "--n", "0"],
    ["weights", "--index", "hdd", "--N", "10", "--n", "4"],
    ["weights", "--index", "ttr", "--N", "0"],
    ["weights", "--index", "msttr", "--N", "5", "--n", "0"],
])
def test_index_errors_are_one_line(tmp_path, capsys, argv):
    (tmp_path / "six.txt").write_text("a b c a b d")
    if argv[0] == "index":
        argv = argv + ["--corpus", str(tmp_path)]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("lexdiv: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


@pytest.mark.parametrize("raw, message", [
    ("24:240", "range must be start:stop:step, got '24:240'"),
    ("20:5:5", "range '20:5:5' is empty: start exceeds stop"),
])
def test_parse_conditions_refuses_a_bad_range(raw, message):
    with pytest.raises(CliError, match=re.escape(message)):
        _parse_conditions(raw)


@pytest.mark.parametrize("argv", [
    ["evaluate-parameter", "--index", "mattr", "--params", "20:5:5"],
    ["evaluate-length", "--index", "ttr", "--method", "random",
     "--truncate", "280", "--conditions", "30:20:5"],
])
def test_empty_range_is_refused_naming_it(corpus_dir, tmp_path, capsys,
                                          argv):
    out = tmp_path / "scores.csv"
    rc = main([*argv, "--corpus", str(corpus_dir), "--out", str(out)])
    raw = argv[argv.index("--params" if "--params" in argv
                          else "--conditions") + 1]
    assert_one_line_error(rc, capsys, f"range {raw!r} is empty")
    assert not out.exists()


def test_missing_corpus_is_one_line(capsys):
    rc = main(["index", "--index", "ttr"])
    assert_one_line_error(rc, capsys, "--corpus is required")


def test_parse_conditions_rejects_non_positive_step():
    calls = []

    def cast(value):  # fails fast if the range loop ever starts
        calls.append(value)
        assert len(calls) <= 3, "range loop ran"
        return int(value)

    for raw in ("10:100:0", "100:10:-10"):
        with pytest.raises(CliError, match="step must be > 0"):
            _parse_conditions(raw, cast=cast)
        calls.clear()


@pytest.mark.parametrize("argv", [
    ["evaluate-length", "--index", "ttr", "--method", "random",
     "--truncate", "280", "--conditions", "60,x"],
    ["evaluate-parameter", "--index", "mattr", "--params", "10,y"],
    ["evaluate-parameter", "--index", "mattr", "--params", "10:y:5"],
])
def test_non_numeric_conditions_are_one_line(corpus_dir, tmp_path, capsys, argv):
    out = tmp_path / "x.csv"
    assert main(argv + ["--corpus", str(corpus_dir), "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("lexdiv: error: not a number: ")
    assert err.count("\n") == 1
    assert not out.exists()


def test_missing_corpus_dir(tmp_path, capsys):
    rc = main(["index", "--corpus", str(tmp_path / "nope"), "--index", "ttr"])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_byte_order_mark_leaves_scores_as_they_were(corpus_dir, tmp_path):
    """A corpus file saved with a byte-order mark scores byte for byte as
    the same file without one."""
    marked = tmp_path / "marked"
    marked.mkdir()
    for path in corpus_dir.iterdir():
        (marked / path.name).write_bytes(BOM + path.read_bytes())
    outs = [tmp_path / "plain.csv", tmp_path / "marked.csv"]
    for corpus, out in zip((corpus_dir, marked), outs):
        assert main(["index", "--corpus", str(corpus), "--index", "ttr",
                     "--out", str(out)]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_corpus_that_is_a_file_is_one_line(corpus_dir, capsys):
    path = corpus_dir / "text00.txt"
    rc = main(["index", "--corpus", str(path), "--index", "ttr"])
    assert_one_line_error(rc, capsys, f"corpus {path} is not a directory")


@pytest.mark.parametrize("command", ["index", "stats", "profiles",
                                     "hdd-curve"])
def test_output_that_is_a_directory_is_one_line(corpus_dir, tmp_path, capsys,
                                                command):
    """Every command checks its --out before it runs, not only the two
    experiments."""
    scores = tmp_path / "scores.csv"
    assert evaluate_length(corpus_dir, scores) == 0
    adir = tmp_path / "adir"
    adir.mkdir()
    flags = {"index": ["--corpus", str(corpus_dir), "--index", "ttr"],
             "stats": ["anova", "--from", str(scores)],
             "profiles": ["--from", str(scores)],
             "hdd-curve": ["--N", "60", "--f-max", "4"]}[command]
    rc = main([command, *flags, "--out", str(adir)])
    assert_one_line_error(rc, capsys, f"--out {adir}: is a directory")
    assert not any(adir.iterdir()) and not any(tmp_path.glob("*.tmp"))


def test_bad_flag_exits_2(corpus_dir):
    with pytest.raises(SystemExit) as exc:
        main(["index", "--corpus", str(corpus_dir)])  # --index missing
    assert exc.value.code == 2


# ---------------------------------------------------------- evaluate-length

def evaluate_length(corpus_dir, out, threads="1", extra=()):
    return main([
        "evaluate-length", "--corpus", str(corpus_dir), "--index", "ttr",
        "--method", "random", "--truncate", "280", "--iters", "15",
        "--threads", threads, "--out", str(out), *extra,
    ])


def test_evaluate_length_outputs(corpus_dir, tmp_path):
    out = tmp_path / "scores.csv"
    icc_out = tmp_path / "icc.json"
    rc = evaluate_length(corpus_dir, out, extra=["--icc-out", str(icc_out)])
    assert rc == 0
    rows = read_csv(out)
    assert rows[0] == ["text_id", "condition", "score"]
    assert len(rows) == 1 + 6 * 4  # 6 texts x default 4 lengths
    assert {r[1] for r in rows[1:]} == {"280", "140", "93", "70"}
    icc = json.loads(icc_out.read_text())
    assert icc["mode"] == "agreement"
    assert -1.0 <= icc["estimate"] <= 1.0
    meta = json.loads((tmp_path / "scores.csv.meta.json").read_text())
    assert meta["config"]["method"] == "random"
    assert meta["config"]["master_seed"] == DEFAULT_SEED


def test_evaluate_length_rejects_negative_condition(corpus_dir, tmp_path, capsys):
    out = tmp_path / "neg.csv"
    rc = evaluate_length(corpus_dir, out, extra=["--conditions", "4,-1"])
    # the run's fault, not a text's: no text is named
    assert_one_line_error(rc, capsys, "error: condition -1 must be >= 1\n")
    assert not out.exists()


def test_evaluate_length_runs_one_condition(corpus_dir, tmp_path, capsys,
                                            monkeypatch):
    """One condition writes one column and its sidecar, as
    evaluate-parameter writes one value; with --icc-out, whose ICC needs
    two columns, it is one error line before any scoring, and nothing is
    written."""
    out = tmp_path / "one.csv"
    assert evaluate_length(corpus_dir, out, extra=["--conditions", "100"]) == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 6 and {r[1] for r in rows[1:]} == {"100"}
    meta = json.loads((tmp_path / "one.csv.meta.json").read_text())
    assert meta["config"]["conditions"] == [100]
    assert meta["matrix_meta"]["conditions"] == [100]

    refuse_library_calls(monkeypatch)
    out, icc = tmp_path / "icc-run.csv", tmp_path / "icc.json"
    rc = evaluate_length(corpus_dir, out,
                         extra=["--conditions", "100", "--icc-out", str(icc)])
    assert_one_line_error(rc, capsys,
                          "error: need at least 2 rows and 2 columns\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "one.csv", "one.csv.meta.json", "texts"]


def test_evaluate_length_sidecar_records_maas_variant(corpus_dir, tmp_path):
    for variant, label in (("natural_log_a", "maas"),
                           ("base10_a_squared", "maas[base10_a_squared]")):
        out = tmp_path / f"{variant}.csv"
        rc = main(["evaluate-length", "--corpus", str(corpus_dir), "--index",
                   "maas", "--maas-variant", variant, "--method", "parallel",
                   "--truncate", "280", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / f"{variant}.csv.meta.json").read_text())
        assert meta["config"]["maas_variant"] == variant
        assert meta["matrix_meta"]["index"] == label


@pytest.mark.parametrize("truncate, extra", [
    ("0", []), ("-4", ["--conditions", "1,2"])])
def test_truncation_below_one_is_refused_by_name(
        corpus_dir, tmp_path, capsys, truncate, extra):
    out = tmp_path / "scores.csv"
    rc = main(["evaluate-length", "--corpus", str(corpus_dir), "--index",
               "ttr", "--method", "random", "--truncate", truncate,
               "--out", str(out), *extra])
    assert_one_line_error(
        rc, capsys, f"error: truncation length must be >= 1, got {truncate}\n")
    assert list(tmp_path.glob("scores.csv*")) == []


def test_evaluate_length_sidecar_records_versions_and_layout(corpus_dir, tmp_path):
    out = tmp_path / "scores.csv"
    assert evaluate_length(corpus_dir, out) == 0
    meta = json.loads((tmp_path / "scores.csv.meta.json").read_text())
    assert set(meta["versions"]) == {"lexdiv", "numpy", "python"}
    assert meta["versions"]["numpy"] == np.__version__
    assert meta["config"]["threads"] == 1
    assert meta["config"]["maas_variant"] is None  # shaped no TTR score
    assert meta["matrix_meta"]["stream_layout"] == 10
    assert meta["matrix_meta"]["estimator"] == "exact"  # random TTR


def test_evaluate_length_sidecar_records_estimator(corpus_dir, tmp_path):
    out = tmp_path / "mattr.csv"
    rc = main(["evaluate-length", "--corpus", str(corpus_dir), "--index",
               "mattr", "--n", "20", "--method", "random", "--truncate", "280",
               "--iters", "5", "--out", str(out)])
    assert rc == 0
    meta = json.loads((tmp_path / "mattr.csv.meta.json").read_text())
    assert meta["matrix_meta"]["estimator"] == "monte_carlo"
    out = tmp_path / "mttrss.csv"
    rc = main(["evaluate-length", "--corpus", str(corpus_dir), "--index",
               "mttrss", "--n", "20", "--s", "3", "--method", "alternating",
               "--truncate", "280", "--iters", "5", "--out", str(out)])
    assert rc == 0
    meta = json.loads((tmp_path / "mttrss.csv.meta.json").read_text())
    assert meta["matrix_meta"]["estimator"] == "exact"
    assert meta["matrix_meta"]["estimators"] == ["single_draw"] + ["exact"] * 3


def test_evaluate_length_thread_count_invariant(corpus_dir, tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    assert evaluate_length(corpus_dir, out1, threads="1") == 0
    assert evaluate_length(corpus_dir, out2, threads="3") == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_length_rerun_byte_identical(corpus_dir, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    assert evaluate_length(corpus_dir, out1) == 0
    assert evaluate_length(corpus_dir, out2) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_evaluate_length_profiles_output(corpus_dir, tmp_path):
    out = tmp_path / "scores.csv"
    prof = tmp_path / "profiles.csv"
    rc = evaluate_length(corpus_dir, out,
                         extra=["--profiles-out", str(prof), "--select", "4"])
    assert rc == 0
    rows = read_csv(prof)
    assert rows[0] == ["series", "x", "y"]
    assert len({r[0] for r in rows[1:]}) == 4


def test_evaluate_length_short_text_fails_cleanly(corpus_dir, tmp_path, capsys):
    (corpus_dir / "short.txt").write_text("a b c")
    rc = evaluate_length(corpus_dir, tmp_path / "x.csv")
    assert rc == 1
    err = capsys.readouterr().err
    assert "short" in err
    assert not (tmp_path / "x.csv").exists()  # no partial outputs


def test_failed_icc_write_leaves_no_output(corpus_dir, tmp_path, capsys,
                                           monkeypatch):
    """The scores CSV and its sidecar are written before the ICC; when the
    ICC cannot be written, both are removed, and so is its temporary
    file."""
    out, icc = tmp_path / "scores.csv", tmp_path / "icc.json"
    original = os.replace

    def replace(src, dst):
        if str(dst) == str(icc):
            raise OSError(28, "No space left on device")
        return original(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    rc = evaluate_length(corpus_dir, out, extra=["--icc-out", str(icc)])
    assert_one_line_error(rc, capsys, "No space left on device")
    assert [p.name for p in tmp_path.iterdir()] == ["texts"]


def test_evaluate_length_rejects_repeated_conditions(corpus_dir, tmp_path, capsys):
    out = tmp_path / "dup.csv"
    rc = evaluate_length(corpus_dir, out, extra=["--conditions", "50,50,25"])
    assert_one_line_error(rc, capsys, "repeated column labels ['50']")
    assert not out.exists()


def refuse_library_calls(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("scored before the run was refused")

    monkeypatch.setattr("lexdiv.cli.run_method", fail)
    monkeypatch.setattr("lexdiv.cli.parameter_sweep", fail)


def test_repeated_labels_refused_before_scoring(corpus_dir, tmp_path, capsys,
                                                monkeypatch):
    """Repeated column labels follow from the conditions, so a command
    refuses them before it scores a cell, however many iterations."""
    refuse_library_calls(monkeypatch)
    out = tmp_path / "dup.csv"
    rc = main(["evaluate-length", "--corpus", str(corpus_dir), "--index",
               "mattr", "--n", "20", "--method", "alternating", "--truncate",
               "280", "--conditions", "2,4,4", "--iters", "100000000",
               "--out", str(out)])
    assert_one_line_error(rc, capsys, "repeated column labels ['70']")
    assert not out.exists()
    rc = main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
               "mattr", "--params", "20,20", "--out", str(out)])
    assert_one_line_error(rc, capsys, "repeated column labels ['20']")
    assert not out.exists()


def test_bad_sweep_value_refused_before_scoring(corpus_dir, tmp_path, capsys,
                                                monkeypatch):
    """Every sweep value is checked before the first one is scored."""
    def fail(*args):
        raise AssertionError("scored before checking every value")

    monkeypatch.setattr("lexdiv.indices._prev_occurrence", fail)
    out = tmp_path / "sweep.csv"
    for index, params, message in (
            ("mtld", "0.7,1.5", "factor must be in (0, 1), got 1.5"),
            ("mattr", "10,0", "n must be >= 1, got 0"),
            ("mattr", "10,400", "parameter values [400] exceed the length")):
        rc = main(["evaluate-parameter", "--corpus", str(corpus_dir),
                   "--index", index, "--params", params, "--out", str(out)])
        assert_one_line_error(rc, capsys, message)
        assert not out.exists()


def test_icc_without_two_rows_and_columns_refused_before_scoring(
        corpus_dir, tmp_path, capsys, monkeypatch):
    """--icc-out needs 2 texts and 2 columns, which are known once the
    corpus is loaded: a run that cannot have an ICC scores nothing."""
    refuse_library_calls(monkeypatch)
    one_text = tmp_path / "one"
    one_text.mkdir()
    (one_text / "a.txt").write_text((corpus_dir / "text00.txt").read_text())
    out, icc = tmp_path / "scores.csv", tmp_path / "icc.json"
    for argv in (
            ["evaluate-length", "--corpus", str(one_text), "--index", "ttr",
             "--method", "random", "--truncate", "300", "--iters", "20000"],
            ["evaluate-parameter", "--corpus", str(one_text), "--index",
             "mattr", "--params", "20,40"],
            ["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
             "mattr", "--params", "20"]):
        rc = main(argv + ["--out", str(out), "--icc-out", str(icc)])
        assert_one_line_error(rc, capsys, "need at least 2 rows and 2 columns")
        assert not out.exists() and not icc.exists()


EXPERIMENTS = (
    ["evaluate-length", "--index", "ttr", "--method", "random",
     "--truncate", "280", "--iters", "20000"],
    ["evaluate-parameter", "--index", "mattr", "--params", "20,40"],
)


@pytest.mark.parametrize("command", EXPERIMENTS, ids=lambda c: c[0])
def test_select_below_one_refused_before_scoring(corpus_dir, tmp_path, capsys,
                                                 monkeypatch, command):
    """A profile count below 1 is known from the flags, so a run that
    would write profiles scores nothing."""
    refuse_library_calls(monkeypatch)
    out, prof = tmp_path / "scores.csv", tmp_path / "profiles.csv"
    rc = main([*command, "--corpus", str(corpus_dir), "--out", str(out),
               "--profiles-out", str(prof), "--select", "0"])
    assert_one_line_error(rc, capsys, "profile count must be >= 1, got 0")
    assert not out.exists() and not prof.exists()


@pytest.mark.parametrize("command", EXPERIMENTS, ids=lambda c: c[0])
@pytest.mark.parametrize("flag", ["--out", "--icc-out", "--profiles-out"])
def test_missing_output_directory_refused_before_scoring(
        corpus_dir, tmp_path, capsys, monkeypatch, command, flag):
    """An output whose directory does not exist, or that is a directory, is
    named with its flag before any scoring, not as a temporary file or an
    IsADirectoryError after it."""
    refuse_library_calls(monkeypatch)
    (tmp_path / "adir").mkdir()
    for bad, error in ((tmp_path / "nodir" / "x.out",
                        f"no directory {tmp_path / 'nodir'}"),
                       (tmp_path / "adir", "is a directory")):
        paths = {"--out": tmp_path / "scores.csv",
                 "--icc-out": tmp_path / "icc.json",
                 "--profiles-out": tmp_path / "profiles.csv", flag: bad}
        argv = [*command, "--corpus", str(corpus_dir)]
        for name, path in paths.items():
            argv += [name, str(path)]
        rc = main(argv)
        assert_one_line_error(rc, capsys, f"{flag} {bad}: {error}")
        assert sorted(p.name for p in tmp_path.rglob("*")
                      if p.parent != corpus_dir) == ["adir", "texts"]


@pytest.mark.parametrize("command", EXPERIMENTS, ids=lambda c: c[0])
@pytest.mark.parametrize("flag, name, first", [
    ("--icc-out", "scores.csv", "--out"),
    ("--profiles-out", "scores.csv", "--out"),
    ("--profiles-out", "icc.json", "--icc-out"),
    ("--icc-out", "scores.csv.meta.json", "the sidecar of --out"),
    ("--profiles-out", "scores.csv.meta.json", "the sidecar of --out"),
])
def test_outputs_naming_one_file_refused_before_scoring(
        corpus_dir, tmp_path, capsys, monkeypatch, command, flag, name,
        first):
    """Two outputs of one command that resolve to the same file, the
    scores' sidecar included, are refused with both flags before any
    scoring: otherwise the later write replaces the earlier."""
    refuse_library_calls(monkeypatch)
    (tmp_path / "adir").mkdir()
    same = tmp_path / "adir" / ".." / name
    paths = {"--out": tmp_path / "scores.csv",
             "--icc-out": tmp_path / "icc.json",
             "--profiles-out": tmp_path / "profiles.csv", flag: same}
    argv = [*command, "--corpus", str(corpus_dir)]
    for option, path in paths.items():
        argv += [option, str(path)]
    rc = main(argv)
    assert_one_line_error(rc, capsys, f"{flag} {same}: same file as {first}")
    assert sorted(p.name for p in tmp_path.rglob("*")
                  if p.parent != corpus_dir) == ["adir", "texts"]


# ------------------------------------------------------- evaluate-parameter

def test_evaluate_parameter_and_stats(corpus_dir, tmp_path, scores_csv, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["evaluate-parameter", "--corpus", str(corpus_dir),
               "--index", "mattr", "--params", "20:60:20",
               "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    assert {r[1] for r in rows[1:]} == {"20", "40", "60"}

    rc = main(["stats", "icc", "--from", str(out), "--mode", "consistency"])
    assert rc == 0
    icc = json.loads(capsys.readouterr().out)
    assert icc["mode"] == "consistency"

    rc = main(["stats", "anova", "--from", str(out)])
    assert rc == 0
    anova = json.loads(capsys.readouterr().out)
    assert anova["df1"] == 2

    rc = main(["stats", "compare-corr", "--from", str(out),
               "--criterion", str(scores_csv)])
    assert rc == 0
    comp = json.loads(capsys.readouterr().out)
    assert comp["r_large"] >= comp["r_small"]
    assert comp["df"] == 3


@pytest.mark.parametrize("index, extra, s", [
    ("mttrss", [], 10), ("mttrss", ["--s", "4"], 4), ("mttrrs", [], 10),
    ("mattr", [], None)])
def test_evaluate_parameter_sidecar_records_the_segment_count(
        corpus_dir, tmp_path, index, extra, s):
    """A sweep's sidecar records the s that scored its cells: the given
    one, else the kind's default, and none for a kind without segments."""
    out = tmp_path / "sweep.csv"
    rc = main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
               index, "--params", "3,4", *extra, "--out", str(out)])
    assert rc == 0
    meta = json.loads((tmp_path / "sweep.csv.meta.json").read_text())
    assert meta["config"]["s"] == s
    assert meta["config"]["maas_variant"] is None


def test_evaluate_parameter_sidecar_records_layout(corpus_dir, tmp_path):
    """A sweep scores each (text, value) once, which is one draw of MTTRSS
    and MTTRRS, and draws no iterations."""
    for index, estimator in (("hdd", "exact"), ("mttrss", "single_draw")):
        out = tmp_path / f"{index}.csv"
        rc = main(["evaluate-parameter", "--corpus", str(corpus_dir),
                   "--index", index, "--params", "20,40", "--out", str(out)])
        assert rc == 0
        meta = json.loads((tmp_path / f"{index}.csv.meta.json").read_text())
        assert meta["matrix_meta"]["stream_layout"] == STREAM_LAYOUT
        assert meta["matrix_meta"]["estimators"] == [estimator] * 2
        assert meta["config"]["iterations"] is None


def test_evaluate_parameter_rejects_repeated_params(corpus_dir, tmp_path, capsys):
    out = tmp_path / "dup.csv"
    rc = main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
               "mattr", "--params", "10,10,20", "--out", str(out)])
    assert_one_line_error(rc, capsys, "repeated column labels ['10']")
    assert not out.exists()


def test_evaluate_parameter_every_text_excluded(corpus_dir, tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    rc = main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
               "mattr", "--params", "10,20", "--min-length", "1000",
               "--out", str(out)])
    assert_one_line_error(rc, capsys, "shorter than min_length 1000")
    assert not out.exists()


def test_stats_compare_corr_requires_criterion(tmp_path, corpus_dir, capsys):
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40", "--out", str(out)])
    rc = main(["stats", "compare-corr", "--from", str(out)])
    assert rc == 1
    assert "criterion" in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("text00,abc", "non-numeric score 'abc'"),
    ("text00", "malformed row"),
])
def test_stats_compare_corr_checks_criterion_rows(tmp_path, corpus_dir, capsys,
                                                  row, message):
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40", "--out", str(out)])
    crit = tmp_path / "crit.csv"
    crit.write_text(f"id,score\n{row}\n")
    rc = main(["stats", "compare-corr", "--from", str(out),
               "--criterion", str(crit)])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("lexdiv: error: ")
    assert f"crit.csv:2: {message}" in err
    assert err.count("\n") == 1


def test_stats_compare_corr_names_texts_without_criterion(
        tmp_path, corpus_dir, capsys):
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40", "--out", str(out)])
    crit = tmp_path / "crit.csv"
    crit.write_text("id,score\n" + "".join(f"text{i:02d},{i}\n"
                                          for i in range(4)))
    rc = main(["stats", "compare-corr", "--from", str(out),
               "--criterion", str(crit)])
    assert_one_line_error(rc, capsys,
                          "criterion missing for texts: ['text04', 'text05']")


@pytest.mark.parametrize("csv_kind", ["scores", "criterion"])
def test_non_utf8_csv_is_one_line(tmp_path, corpus_dir, scores_csv, capsys,
                                  csv_kind):
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40", "--out", str(out)])
    bad = out if csv_kind == "scores" else scores_csv
    bad.write_bytes(bad.read_bytes().replace(b"text01", b"text\xff1"))
    rc = main(["stats", "compare-corr", "--from", str(out),
               "--criterion", str(scores_csv)])
    assert_one_line_error(rc, capsys, f"{bad}: not UTF-8 text")


def test_csv_inputs_take_a_byte_order_mark_and_blank_rows(
        tmp_path, corpus_dir, scores_csv, capsys):
    """A score CSV and a criterion CSV each with a byte-order mark and a
    blank row give the same result as without them."""
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40", "--out", str(out)])
    argv = ["stats", "compare-corr", "--from", str(out),
            "--criterion", str(scores_csv)]
    assert main(argv) == 0
    want = capsys.readouterr().out
    for path in (out, scores_csv):
        path.write_bytes(BOM + path.read_bytes().replace(b"\n", b"\n\n", 2))
    assert main(argv) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("cols, message", [
    (["--col-a", "20", "--col-b", "nope"],
     "no column 'nope'; the columns are 20, 40"),
    (["--col-a", "20"], "--col-a and --col-b go together"),
    (["--col-b", "40"], "--col-a and --col-b go together"),
])
def test_stats_compare_corr_checks_columns(tmp_path, corpus_dir, scores_csv,
                                           capsys, cols, message):
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40", "--out", str(out)])
    rc = main(["stats", "compare-corr", "--from", str(out),
               "--criterion", str(scores_csv), *cols])
    assert_one_line_error(rc, capsys, message)


def test_stats_compare_corr_compares_named_columns(tmp_path, corpus_dir,
                                                   scores_csv, capsys):
    out = tmp_path / "sweep.csv"
    main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
          "mattr", "--params", "20,40,60", "--out", str(out)])
    rc = main(["stats", "compare-corr", "--from", str(out),
               "--criterion", str(scores_csv), "--col-a", "60",
               "--col-b", "40"])
    assert rc == 0
    result = json.loads(capsys.readouterr().out)
    values = ScoreMatrix.from_long_csv(out).values
    y = [2.0 + 0.4 * i for i in range(6)]
    want = asdict(compare_correlations(values[:, 2], values[:, 1], y))
    # column 40 correlates more with the criterion here, so its r is r_large
    assert want["r_large"] == pearson(values[:, 1], y)
    assert result == dict(want, col_large_candidate="40",
                          col_small_candidate="60")


def test_stats_compare_corr_labels_follow_the_correlations(tmp_path, capsys):
    """``col_large_candidate`` names the column of ``r_large`` whichever
    order the columns are given in."""
    scores, crit = tmp_path / "scores.csv", tmp_path / "crit.csv"
    weak, strong, y = [3, 1, 4, 1, 5], [1.1, 2.0, 2.9, 4.2, 5.0], [1, 2, 3, 4, 5]
    scores.write_text("text_id,condition,score\n" + "".join(
        f"t{i},{col},{v}\n" for i in range(5)
        for col, v in (("X", weak[i]), ("Y", strong[i]))))
    crit.write_text("id,score\n" + "".join(f"t{i},{y[i]}\n" for i in range(5)))
    results = []
    for a, b in (("X", "Y"), ("Y", "X")):
        assert main(["stats", "compare-corr", "--from", str(scores),
                     "--criterion", str(crit), "--col-a", a, "--col-b", b]) == 0
        results.append(capsys.readouterr().out)
    assert results[0] == results[1]
    result = json.loads(results[0])
    assert result["r_large"] == compare_correlations(strong, weak, y).r_large
    assert (result["col_large_candidate"], result["col_small_candidate"]) == (
        "Y", "X")


# ------------------------------------------------------------------- others

def test_profiles_subcommand(corpus_dir, tmp_path):
    scores = tmp_path / "scores.csv"
    evaluate_length(corpus_dir, scores)
    out = tmp_path / "profiles.csv"
    rc = main(["profiles", "--from", str(scores), "--select", "4",
               "--center", "--out", str(out)])
    assert rc == 0
    rows = read_csv(out)
    ys = [float(r[2]) for r in rows[1:]]
    assert len(rows) > 1
    assert abs(sum(ys)) < 1e-9  # centered columns sum to ~0


def test_profiles_of_one_column_refused(corpus_dir, tmp_path, capsys,
                                        monkeypatch):
    """Profiles compare pairs of columns: ``profiles`` refuses a one-column
    score file, and an experiment of one column refuses --profiles-out
    before it scores anything; nothing is written."""
    one = tmp_path / "one.csv"
    assert evaluate_length(corpus_dir, one, extra=["--conditions", "70"]) == 0
    made = sorted(p.name for p in tmp_path.iterdir())
    message = "profiles need at least 2 columns, got 1"
    prof = tmp_path / "profiles.csv"
    rc = main(["profiles", "--from", str(one), "--out", str(prof)])
    assert_one_line_error(rc, capsys, message)
    refuse_library_calls(monkeypatch)
    out = tmp_path / "scores.csv"
    for argv in (
            ["evaluate-length", "--index", "ttr", "--method", "random",
             "--truncate", "280", "--conditions", "70"],
            ["evaluate-parameter", "--index", "mattr", "--params", "20"]):
        rc = main([*argv, "--corpus", str(corpus_dir), "--out", str(out),
                   "--profiles-out", str(prof)])
        assert_one_line_error(rc, capsys, message)
    assert sorted(p.name for p in tmp_path.iterdir()) == made


@pytest.mark.parametrize("command", ["stats", "profiles"])
@pytest.mark.parametrize("content, error", [
    ("", ": expected long-form score CSV"),
    ("text_id,condition,score\na,1,0.5\nb,1\n", ":3: malformed row ['b', '1']"),
    ("text_id,condition,score\na,1,0.5,9\n", ":2: malformed row"),
    ("text_id,condition,score\na,1,0.5\nb,1,high\n",
     ":3: non-numeric score 'high'"),
    ("text_id,condition,score,note\na,1,0.5,x\n",
     ": expected long-form score CSV"),
    ("text_id,condition,score\n", ": no score rows"),
], ids=["empty", "short-row", "long-row", "non-numeric", "extra-column",
        "no-rows"])
def test_malformed_score_csv_is_one_line(tmp_path, capsys, command, content,
                                         error):
    """A score CSV that cannot be read is one error naming its path and
    line, from every command that reads one."""
    source, out = tmp_path / "scores.csv", tmp_path / "profiles.csv"
    source.write_text(content)
    argv = (["stats", "icc"] if command == "stats"
            else ["profiles", "--out", str(out)])
    rc = main([*argv, "--from", str(source)])
    assert_one_line_error(rc, capsys, f"{source}{error}")
    assert not out.exists()


def test_hdd_curve_csv_and_svg(tmp_path):
    csv_out = tmp_path / "curve.csv"
    svg_out = tmp_path / "curve.svg"
    assert main(["hdd-curve", "--N", "60", "--f-max", "4",
                 "--out", str(csv_out)]) == 0
    assert main(["hdd-curve", "--N", "60", "--f-max", "4", "--format", "svg",
                 "--out", str(svg_out)]) == 0
    rows = read_csv(csv_out)
    assert {r[0] for r in rows[1:]} == {"f=1", "f=2", "f=3", "f=4"}
    assert svg_out.read_text().startswith("<svg")


@pytest.mark.parametrize("select", ["0", "-1", "-4"])
def test_profiles_select_below_one_is_one_line(corpus_dir, tmp_path, capsys,
                                               select):
    scores = tmp_path / "scores.csv"
    evaluate_length(corpus_dir, scores)
    out = tmp_path / "profiles.csv"
    rc = main(["profiles", "--from", str(scores), "--select", select,
               "--out", str(out)])
    assert_one_line_error(rc, capsys, "profile count must be >= 1")
    assert not out.exists()


def test_evaluate_length_select_below_one_is_one_line(corpus_dir, tmp_path,
                                                      capsys):
    out, prof = tmp_path / "scores.csv", tmp_path / "profiles.csv"
    rc = evaluate_length(corpus_dir, out,
                         extra=["--profiles-out", str(prof), "--select", "0"])
    assert_one_line_error(rc, capsys, "profile count must be >= 1")
    assert not out.exists() and not prof.exists()


def test_evaluate_length_threads_below_one_is_one_line(corpus_dir, tmp_path,
                                                       capsys):
    out = tmp_path / "scores.csv"
    rc = evaluate_length(corpus_dir, out, threads="0")
    assert_one_line_error(rc, capsys, "threads must be >= 1, got 0")
    assert not out.exists()


@pytest.mark.parametrize("flags, message", [
    (["--n-step", "0"], "--n-step and --f-max must be >= 1"),
    (["--f-max", "0"], "--n-step and --f-max must be >= 1"),
    (["--n-min", "61"], "--n-min 61 exceeds --N 60"),
    (["--f-max", "61"], "--f-max 61 exceeds --N 60"),
])
def test_hdd_curve_rejects_empty_or_invalid_grid(tmp_path, capsys, flags,
                                                 message):
    out = tmp_path / "curve.csv"
    rc = main(["hdd-curve", "--N", "60", *flags, "--out", str(out)])
    assert_one_line_error(rc, capsys, message)
    assert not out.exists()


def test_weights_subcommand(capsys):
    rc = main(["weights", "--index", "mattr", "--N", "10", "--n", "4"])
    assert rc == 0
    assert capsys.readouterr().out.strip() == "1,2,3,4,4,4,4,3,2,1"


def test_parameters_the_index_does_not_use_are_one_error_line(
        corpus_dir, tmp_path, capsys):
    """An --n, --s, --factor or --maas-variant that the index does not use
    is refused before anything is written, so no sidecar records it."""
    out = tmp_path / "scores.csv"
    rc = evaluate_length(corpus_dir, out, extra=["--n", "5"])
    assert_one_line_error(rc, capsys, "error: ttr does not take n=5\n")
    rc = main(["evaluate-length", "--corpus", str(corpus_dir), "--index",
               "hdd", "--maas-variant", "base10_a_squared", "--method",
               "random", "--truncate", "280", "--out", str(out)])
    assert_one_line_error(
        rc, capsys, "error: hdd does not take maas_variant='base10_a_squared'\n")
    rc = main(["evaluate-parameter", "--corpus", str(corpus_dir), "--index",
               "mattr", "--params", "10,20", "--s", "5", "--out", str(out)])
    assert_one_line_error(rc, capsys, "error: mattr does not take s=5\n")
    assert not out.exists()
    assert not (tmp_path / "scores.csv.meta.json").exists()
    rc = main(["weights", "--index", "ttr", "--N", "10", "--n", "3"])
    assert_one_line_error(rc, capsys, "error: ttr does not take n=3\n")


def test_config_file_provides_defaults(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"# defaults\ncorpus = {corpus_dir}\nindex = ttr\n")
    for flag in (["--config", str(cfg)], [f"--config={cfg}"]):
        rc = main(flag + ["index", "--format", "json"])
        assert rc == 0
        payload = json.loads(capsys.readouterr().out)
        assert len(payload) == 6


def test_config_file_flag_wins(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus_dir}\nindex = ttr\n")
    rc = main(["--config", str(cfg), "index", "--index", "guiraud",
               "--format", "json"])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload[0]["index"] == "guiraud"


def test_config_file_on_off_flag(corpus_dir, tmp_path, capsys):
    """``center = false`` leaves --center off; only true and false are
    accepted."""
    scores, cfg = tmp_path / "scores.csv", tmp_path / "run.cfg"
    assert evaluate_length(corpus_dir, scores) == 0
    argv = ["profiles", "--from", str(scores), "--select", "4"]
    outputs = {}
    for name, config, flags in (("off", None, []), ("on", None, ["--center"]),
                                ("false", "false", []), ("true", "true", [])):
        out = tmp_path / f"{name}.csv"
        prefix = []
        if config is not None:
            cfg.write_text(f"center = {config}\n")
            prefix = ["--config", str(cfg)]
        assert main([*prefix, *argv, *flags, "--out", str(out)]) == 0
        outputs[name] = out.read_bytes()
    assert outputs["false"] == outputs["off"] != outputs["on"] == outputs["true"]
    cfg.write_text("center = yes\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), *argv, "--out", str(tmp_path / "x.csv")])
    assert_one_line_error(exc.value.code, capsys,
                          "center: expected true or false, got 'yes'", code=2)


def test_config_file_checks_choices(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("method = bogus\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "evaluate-length", "--corpus",
              str(corpus_dir), "--index", "ttr", "--truncate", "280",
              "--out", str(tmp_path / "x.csv")])
    assert_one_line_error(exc.value.code, capsys,
                          "method: invalid choice 'bogus'", code=2)


def test_config_file_choices_are_the_running_commands(corpus_dir, tmp_path,
                                                      capsys):
    """``--format`` takes csv/json in ``index`` and csv/svg in ``profiles``
    and ``hdd-curve``: a config value is checked against the flag of the
    command that runs."""
    scores, cfg = tmp_path / "scores.csv", tmp_path / "run.cfg"
    assert evaluate_length(corpus_dir, scores) == 0
    cfg.write_text("format = svg\n")
    for argv in (["profiles", "--from", str(scores), "--select", "4"],
                 ["hdd-curve", "--N", "40", "--f-max", "3"]):
        out = tmp_path / f"{argv[0]}.svg"
        assert main(["--config", str(cfg), *argv, "--out", str(out)]) == 0
        assert out.read_text().startswith("<svg")
    cfg.write_text(f"format = json\ncorpus = {corpus_dir}\n")
    assert main(["--config", str(cfg), "index", "--index", "ttr"]) == 0
    assert len(json.loads(capsys.readouterr().out)) == 6


def test_config_file_refuses_a_key_of_no_flag(corpus_dir, tmp_path, capsys):
    """A misspelt key is refused as argparse refuses an unknown flag; a
    key of another command's flag is left alone."""
    cfg = tmp_path / "run.cfg"
    cfg.write_text("index = ttr\ncorpsu = /nonexistent\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "weights", "--N", "4"])
    assert_one_line_error(exc.value.code, capsys,
                          f"{cfg}:2: 'corpsu' names no flag of any command",
                          code=2)
    cfg.write_text(f"index = ttr\ncorpus = {corpus_dir}\n")
    assert main(["--config", str(cfg), "weights", "--N", "4"]) == 0


def test_config_file_takes_a_byte_order_mark(corpus_dir, tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_bytes(BOM + f"corpus = {corpus_dir}\nindex = ttr\n".encode())
    assert main(["--config", str(cfg), "index"]) == 0
    assert capsys.readouterr().out.startswith("text_id,index,param")


def test_config_flag_without_file_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--config"])
    assert_one_line_error(exc.value.code, capsys,
                          "--config needs a file argument", code=2)


def test_config_file_unknown_index_exits_2(corpus_dir, tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"corpus = {corpus_dir}\nindex = bogus\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "index"])
    assert exc.value.code == 2


def test_config_file_malformed(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("this is not a pair\n")
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "weights", "--index", "ttr", "--N", "5"])
    assert exc.value.code == 2


@pytest.mark.parametrize("content, message", [
    (None, "No such file or directory"),
    (b"corpus = \xff\xfe\n", "not UTF-8 text"),
])
def test_config_file_unreadable_is_one_line(tmp_path, capsys, content, message):
    cfg = tmp_path / "run.cfg"
    if content is not None:
        cfg.write_bytes(content)
    with pytest.raises(SystemExit) as exc:
        main(["--config", str(cfg), "weights", "--index", "ttr", "--N", "5"])
    assert_one_line_error(exc.value.code, capsys, f"--config {cfg}: {message}",
                          code=2)
