import re

import pytest

from lexdiv.corpus import (
    Corpus,
    CorpusError,
    Text,
    attach_scores,
    load_corpus,
    read_scores,
    tokens_of,
    truncate,
    write_atomic,
)


@pytest.fixture()
def corpus_dir(tmp_path):
    d = tmp_path / "texts"
    d.mkdir()
    (d / "alpha.txt").write_text("The cat SAT on the Mat")
    (d / "beta.txt").write_text("a b c d e")
    (d / "tiny.txt").write_text("x y")
    return d


def test_load_folds_case_by_default(corpus_dir):
    corpus = load_corpus(corpus_dir)
    assert corpus.get("alpha").tokens == ("the", "cat", "sat", "on", "the", "mat")


def test_load_preserve_case(corpus_dir):
    corpus = load_corpus(corpus_dir, case_policy="preserve")
    assert corpus.get("alpha").tokens[0] == "The"
    assert corpus.get("alpha").tokens[2] == "SAT"


def test_filename_stem_is_id(corpus_dir):
    corpus = load_corpus(corpus_dir)
    assert sorted(t.id for t in corpus) == ["alpha", "beta", "tiny"]


def test_min_length_excludes_with_warning(corpus_dir, caplog):
    with caplog.at_level("WARNING"):
        corpus = load_corpus(corpus_dir, min_length=5)
    assert sorted(t.id for t in corpus) == ["alpha", "beta"]
    assert any("min_length" in r.message for r in caplog.records)


def test_min_length_excluding_every_file_is_error(corpus_dir):
    with pytest.raises(CorpusError, match=re.escape(
            f"every file in {corpus_dir} is empty or shorter than min_length 7")):
        load_corpus(corpus_dir, min_length=7)


def test_empty_file_excluded(corpus_dir, caplog):
    (corpus_dir / "empty.txt").write_text("   \n  ")
    with caplog.at_level("WARNING"):
        corpus = load_corpus(corpus_dir)
    assert "empty" not in {t.id for t in corpus}


def test_duplicate_stem_is_error(corpus_dir):
    (corpus_dir / "alpha.tokens").write_text("q r s")
    with pytest.raises(CorpusError, match="duplicate id"):
        load_corpus(corpus_dir)


def test_unknown_case_policy(corpus_dir):
    with pytest.raises(CorpusError, match="case policy"):
        load_corpus(corpus_dir, case_policy="upper")


def test_empty_dir_is_error(tmp_path):
    d = tmp_path / "nothing"
    d.mkdir()
    with pytest.raises(CorpusError, match="no token files"):
        load_corpus(d)


@pytest.mark.parametrize("name", ["alpha.txt", "missing"])
def test_corpus_path_that_is_no_directory_is_error(corpus_dir, name):
    path = corpus_dir / name
    with pytest.raises(CorpusError) as excinfo:
        load_corpus(path)
    assert str(excinfo.value) == f"corpus {path} is not a directory"


def test_undecodable_file_is_error(corpus_dir):
    (corpus_dir / "bad.txt").write_bytes(b"\xff\xfe\x00ab")
    with pytest.raises(CorpusError, match="unreadable"):
        load_corpus(corpus_dir)


def test_read_scores_names_the_line_of_the_file(tmp_path):
    """A quoted id may span lines; a later row is named by its line in the
    file, not by its row count."""
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text('id,score\n"two\nlines",1\n\nbeta,high\n')
    with pytest.raises(CorpusError, match=re.escape(
            f"{csv_path}:5: non-numeric score 'high'")):
        read_scores(csv_path)


def test_write_atomic_leaves_nothing_when_the_write_fails(tmp_path):
    out = tmp_path / "out.txt"
    out.write_text("old")
    with pytest.raises(UnicodeEncodeError):
        write_atomic(out, "a\nb\udc80\n")  # a lone surrogate has no UTF-8
    assert out.read_text() == "old"
    assert [p.name for p in tmp_path.iterdir()] == ["out.txt"]


def test_write_atomic_gives_the_mode_open_gives(tmp_path):
    write_atomic(tmp_path / "atomic.txt", "x")
    (tmp_path / "plain.txt").write_text("x")
    assert ((tmp_path / "atomic.txt").stat().st_mode
            == (tmp_path / "plain.txt").stat().st_mode)


def test_attach_scores(corpus_dir, tmp_path):
    corpus = load_corpus(corpus_dir)
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("id,score\nalpha,3.5\nbeta,2.0\n")
    scored = attach_scores(corpus, csv_path)
    assert scored.get("alpha").score == 3.5
    assert scored.get("tiny").score is None


def test_attach_scores_bad_header(corpus_dir, tmp_path):
    corpus = load_corpus(corpus_dir)
    csv_path = tmp_path / "scores.csv"
    for content in ("text,quality\nalpha,3.5\n",
                    "id,score,note\nalpha,3.5,x\n"):
        csv_path.write_text(content)
        error = re.escape(f"{csv_path}: expected header")
        with pytest.raises(CorpusError, match=error):
            attach_scores(corpus, csv_path)


def test_attach_scores_non_numeric_reports_line(corpus_dir, tmp_path):
    corpus = load_corpus(corpus_dir)
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("id,score\nalpha,3.5\nbeta,high\n")
    with pytest.raises(CorpusError, match=":3"):
        attach_scores(corpus, csv_path)


def test_attach_scores_refuses_duplicate_id(corpus_dir, tmp_path):
    corpus = load_corpus(corpus_dir)
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("id,score\nalpha,3.5\nbeta,2.0\nalpha,5.0\n")
    with pytest.raises(CorpusError, match=re.escape(
            f"{csv_path}:4: duplicate id 'alpha'")):
        attach_scores(corpus, csv_path)


def test_attach_scores_unmatched_row_warns(corpus_dir, tmp_path, caplog):
    corpus = load_corpus(corpus_dir)
    csv_path = tmp_path / "scores.csv"
    csv_path.write_text("id,score\nghost,1.0\n")
    with caplog.at_level("WARNING"):
        attach_scores(corpus, csv_path)
    assert any("unmatched" in r.message for r in caplog.records)


def test_truncate():
    t = Text(id="t", tokens=("a", "b", "c", "d"))
    assert truncate(t, 2).tokens == ("a", "b")
    assert truncate(t, 2).id == "t"
    with pytest.raises(CorpusError):
        truncate(t, 5)
    with pytest.raises(CorpusError):
        truncate(t, 0)


def test_text_invariants():
    with pytest.raises(CorpusError, match="empty token sequence"):
        Text(id="t", tokens=())
    with pytest.raises(CorpusError, match="empty token string"):
        Text(id="t", tokens=("a", ""))


def test_corpus_duplicate_ids():
    a = Text(id="x", tokens=("a",))
    b = Text(id="x", tokens=("b",))
    with pytest.raises(CorpusError, match="duplicate"):
        Corpus(texts=(a, b))


def test_tokens_of_accepts_both():
    t = Text(id="t", tokens=("a", "b"))
    assert tokens_of(t) == ("a", "b")
    assert tokens_of(["a", "b"]) == ["a", "b"]


def test_empty_corpus_is_refused():
    with pytest.raises(CorpusError, match="empty corpus"):
        Corpus(texts=())
