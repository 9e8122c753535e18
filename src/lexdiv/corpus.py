"""Corpus ingestion, and the one reader and one writer of lexdiv's files."""

from __future__ import annotations

import csv
import io
import logging
import os
import secrets
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

log = logging.getLogger(__name__)

CASE_POLICIES = ("fold", "preserve")


class CorpusError(Exception):
    pass


def read_text(path, prefix: str = "") -> str:
    """The text of a UTF-8 file, a leading byte-order mark dropped and
    newlines kept as they are (as ``csv`` needs them).  A file that cannot
    be read or decoded is a ``CorpusError`` naming it, after ``prefix``."""
    try:
        with open(path, encoding="utf-8-sig", newline="") as fh:
            return fh.read()
    except OSError as e:
        reason = e.strerror or str(e)
    except UnicodeDecodeError:
        reason = "not UTF-8 text"
    raise CorpusError(f"{prefix}{path}: {reason}")


def read_rows(path, header: list, expected: str):
    """``(line, row)`` for each row of a CSV file whose stripped header is
    ``header``, blank rows skipped; ``line`` is the row's last line in the
    file.  A wrong header is refused as "expected ``expected``", and a row
    of another width naming its line."""
    reader = csv.reader(io.StringIO(read_text(path), newline=""))
    got = next(reader, None)
    if got is None or [h.strip() for h in got] != header:
        raise CorpusError(f"{path}: expected {expected}, got {got}")
    for row in reader:
        if not row:
            continue
        if len(row) != len(header):
            raise CorpusError(f"{path}:{reader.line_num}: malformed row {row}")
        yield reader.line_num, row


def csv_text(header: list, rows) -> str:
    """The CSV text of ``header`` and ``rows``, lines ended by ``\\r\\n``."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_atomic(path, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8, newlines as they are, whole or
    not at all: into a temporary file beside it, then renamed over it."""
    tmp = Path(path).with_name(f"{secrets.token_hex(8)}.tmp")
    # a new name, as mkstemp's, with the umask's mode, as open() gives
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
    try:
        with open(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


@dataclass(frozen=True)
class Text:
    """An identified, ordered token sequence with an optional quality score."""

    id: str
    tokens: tuple[str, ...]
    score: Optional[float] = None

    def __post_init__(self):
        if not self.tokens:
            raise CorpusError(f"text {self.id!r}: empty token sequence")
        if not all(self.tokens):
            raise CorpusError(f"text {self.id!r}: empty token string")

    def __len__(self):
        return len(self.tokens)


@dataclass(frozen=True)
class Corpus:
    texts: tuple[Text, ...]

    def __post_init__(self):
        if not self.texts:
            raise CorpusError("empty corpus")
        ids = [t.id for t in self.texts]
        if len(ids) != len(set(ids)):
            dup = sorted({i for i in ids if ids.count(i) > 1})
            raise CorpusError(f"duplicate text ids: {dup}")

    def __len__(self):
        return len(self.texts)

    def __iter__(self):
        return iter(self.texts)

    def get(self, text_id: str) -> Text:
        for t in self.texts:
            if t.id == text_id:
                return t
        raise KeyError(text_id)

    @property
    def min_text_length(self) -> int:
        return min(len(t) for t in self.texts)


def _tokenize(raw: str, case_policy: str) -> tuple[str, ...]:
    if case_policy == "fold":
        raw = raw.lower()
    return tuple(raw.split())


def load_corpus(dir_path, case_policy: str = "fold", min_length: int = 0) -> Corpus:
    """Load one text per file from a directory of whitespace-tokenized UTF-8 files.

    The filename stem is the text id.  Files shorter than ``min_length``
    tokens (and empty files) are excluded with a warning; excluding every
    file is an error.
    """
    if case_policy not in CASE_POLICIES:
        raise CorpusError(f"unknown case policy {case_policy!r}")
    if min_length < 0:
        raise CorpusError("min_length must be nonnegative")
    dir_path = Path(dir_path)
    if not dir_path.is_dir():
        raise CorpusError(f"corpus {dir_path} is not a directory")
    files = sorted(p for p in dir_path.iterdir() if p.is_file())
    if not files:
        raise CorpusError(f"no token files in {dir_path}")

    texts = []
    seen = {}
    for path in files:
        raw = read_text(path, prefix="unreadable file ")
        text_id = path.stem
        if text_id in seen:
            raise CorpusError(f"duplicate id {text_id!r}: {seen[text_id]} and {path}")
        seen[text_id] = path
        tokens = _tokenize(raw, case_policy)
        if not tokens:
            log.warning("excluding empty file %s", path)
            continue
        if len(tokens) < min_length:
            log.warning(
                "excluding %s: %d tokens < min_length %d", path, len(tokens), min_length
            )
            continue
        texts.append(Text(id=text_id, tokens=tokens))
    if not texts:
        raise CorpusError(f"every file in {dir_path} is empty or shorter "
                          f"than min_length {min_length}")
    return Corpus(texts=tuple(texts))


def read_scores(csv_path) -> dict:
    """Scores by text id from a CSV with header ``id,score`` and one
    ``id,score`` row per text; a malformed row is an error naming its line."""
    scores = {}
    for lineno, (text_id, raw) in read_rows(csv_path, ["id", "score"],
                                            "header 'id,score'"):
        if text_id in scores:
            raise CorpusError(f"{csv_path}:{lineno}: duplicate id {text_id!r}")
        try:
            scores[text_id] = float(raw)
        except ValueError:
            raise CorpusError(
                f"{csv_path}:{lineno}: non-numeric score {raw!r}") from None
    return scores


def attach_scores(corpus: Corpus, csv_path) -> Corpus:
    """Attach quality scores from a CSV with header ``id,score``.

    Unmatched CSV rows are reported with a warning; texts without a row
    keep ``score=None``.
    """
    scores = read_scores(csv_path)
    known = {t.id for t in corpus.texts}
    unmatched = sorted(set(scores) - known)
    if unmatched:
        log.warning("%d unmatched score row(s): %s", len(unmatched), unmatched)

    texts = tuple(
        replace(t, score=scores[t.id]) if t.id in scores else t for t in corpus.texts
    )
    return replace(corpus, texts=texts)


def truncate(text: Text, length: int) -> Text:
    """Return a Text holding the first ``length`` tokens, same id."""
    if length < 1:
        raise CorpusError(f"truncation length must be >= 1, got {length}")
    if length > len(text):
        raise CorpusError(
            f"text {text.id!r} shorter than truncation length "
            f"({len(text)} < {length})"
        )
    return replace(text, tokens=text.tokens[:length])


def tokens_of(text_or_tokens) -> Sequence:
    """Accept a Text or a plain token sequence."""
    if isinstance(text_or_tokens, Text):
        return text_or_tokens.tokens
    return text_or_tokens
