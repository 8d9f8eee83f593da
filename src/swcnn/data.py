"""Dataset ingestion and vocabulary files.

The distributed corpora are CSV files: every field double-quoted with
embedded quotes doubled, the first field a 1-based class index, the
remaining fields text (title, body, ...) that may contain the literal
two-character sequence backslash-n.  The loader concatenates the text
fields with a single space; labels stay 1-based in records, and
``to_samples`` checks them against the class count and makes them 0-based.

Vocabulary files are plain text: a ``kind=`` header line, then one
``token<TAB>frequency`` line per id, in id order.  A vocabulary has at
least one entry and no token twice, and each frequency fits the u64 a
model container stores it in.
"""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass
from pathlib import Path

from swcnn.errors import DataError, UsageError
from swcnn.textpipe import NGRAM123, WORD, Vocabulary, tokenize


@dataclass(frozen=True)
class DatasetRecord:
    label: int  # 1-based, as distributed
    text: str


def load_csv(path) -> list[DatasetRecord]:
    try:
        stream = open(path, newline="", encoding="utf-8")
    except OSError as exc:
        raise DataError(f"cannot open dataset: {exc}") from exc
    records = []
    with stream:
        # strict: a stray or unterminated quote is an error, not text
        reader = csv.reader(stream, strict=True)
        try:
            for row in reader:
                if not row:
                    raise DataError(f"{path}: line {reader.line_num}: empty record")
                try:
                    label = int(row[0])
                except ValueError:
                    raise DataError(
                        f"{path}: line {reader.line_num}: label {row[0]!r} is not an integer"
                    ) from None
                if label < 1:
                    raise DataError(
                        f"{path}: line {reader.line_num}: label must be >= 1, got {label}"
                    )
                records.append(DatasetRecord(label=label, text=" ".join(row[1:])))
        except csv.Error as exc:
            raise DataError(f"{path}: line {reader.line_num}: {exc}") from exc
        except UnicodeDecodeError:
            raise _utf8_error(path) from None
    if not records:
        raise DataError(f"{path}: no records")
    return records


def _utf8_error(path) -> DataError:
    # UTF-8 never puts a newline byte inside a multi-byte sequence, so the
    # file can be decoded line by line to locate the first bad byte
    with open(path, "rb") as stream:
        for lineno, raw in enumerate(stream, start=1):
            try:
                raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                return DataError(f"{path}: line {lineno}: not valid UTF-8 ({exc.reason})")
    return DataError(f"{path}: not valid UTF-8")


def read_lines(path, what: str) -> list[str]:
    """The lines of a small UTF-8 text file, without their newlines."""
    try:
        with open(path, encoding="utf-8") as stream:
            return stream.read().split("\n")
    except OSError as exc:
        raise DataError(f"cannot open {what}: {exc}") from exc
    except UnicodeDecodeError:
        raise _utf8_error(path) from None


def to_samples(path, records, n_classes: int) -> list[tuple[list[str], int]]:
    """(tokens, 0-based label) pairs of the records read from ``path``; a
    label above ``n_classes`` raises ``DataError`` naming the file and record."""
    for number, record in enumerate(records, start=1):
        if record.label > n_classes:
            raise DataError(f"{path}: record {number}: label {record.label} outside 1..{n_classes}")
    return [(tokenize(r.text), r.label - 1) for r in records]


def n_classes_of(records) -> int:
    if not records:
        raise DataError("empty dataset")
    return max(r.label for r in records)


def atomic_write(path, write_body, binary: bool = False) -> None:
    """Write ``path`` through a temporary sibling and a rename, so a reader
    never sees a partial file; ``write_body(out)`` writes the content.

    The file gets the mode a plain ``open`` gives a new file: 0o666 less
    the umask.  A file that cannot be written raises ``UsageError``
    naming ``path``.
    """
    path = Path(path)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.{os.urandom(4).hex()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb" if binary else "w", encoding=None if binary else "utf-8") as out:
                write_body(out)
            os.replace(tmp, path)
        except BaseException:
            if os.path.exists(tmp):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise UsageError(f"cannot write {path}: {exc.strerror or exc}") from None


def save_vocab(vocab: Vocabulary, path) -> None:
    def body(out):
        out.write(f"kind={vocab.kind}\n")
        for token, freq in vocab.entries:
            out.write(f"{token}\t{freq}\n")

    atomic_write(path, body)


def load_vocab(path) -> Vocabulary:
    header, *lines = read_lines(path, "vocabulary")
    if not header.startswith("kind="):
        raise DataError(f"{path}: missing kind= header")
    kind = header[len("kind=") :]
    if kind not in (WORD, NGRAM123):
        raise DataError(f"{path}: unknown vocabulary kind {kind!r}")
    entries = []
    first_line: dict[str, int] = {}
    for lineno, line in enumerate(lines, start=2):
        if not line:
            continue
        token, sep, freq = line.rpartition("\t")
        if not sep:
            raise DataError(f"{path}: line {lineno}: expected token<TAB>frequency")
        try:
            count = int(freq)
        except ValueError:
            raise DataError(f"{path}: line {lineno}: bad frequency {freq!r}") from None
        # a model container stores each frequency as a u64
        if not 0 <= count < 2**64:
            raise DataError(f"{path}: line {lineno}: frequency {count} outside [0, 2**64)")
        if token in first_line:
            raise DataError(f"{path}: line {lineno}: duplicate token {token!r} "
                            f"(first on line {first_line[token]})")
        first_line[token] = lineno
        entries.append((token, count))
    if not entries:
        raise DataError(f"{path}: no vocabulary entries")
    return Vocabulary(kind=kind, entries=tuple(entries))
