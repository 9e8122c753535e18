"""Corpus ingestion: tokenized text files, case policy, length filtering."""

from __future__ import annotations

import csv
import logging
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

log = logging.getLogger(__name__)

CASE_POLICIES = ("fold", "preserve")


class CorpusError(Exception):
    pass


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
        try:
            raw = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            raise CorpusError(f"unreadable file {path}: {e}") from e
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
    csv_path = Path(csv_path)
    scores = {}
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip() for h in header] != ["id", "score"]:
            raise CorpusError(f"{csv_path}: expected header 'id,score', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise CorpusError(f"{csv_path}:{lineno}: malformed row {row}")
            text_id, raw = row[0], row[1]
            if text_id in scores:
                raise CorpusError(
                    f"{csv_path}:{lineno}: duplicate id {text_id!r}")
            try:
                scores[text_id] = float(raw)
            except ValueError:
                raise CorpusError(
                    f"{csv_path}:{lineno}: non-numeric score {raw!r}"
                ) from None
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
