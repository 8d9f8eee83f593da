import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from helpers import word_vocab, write_corrupted, write_csv
from swcnn.data import (
    DatasetRecord, atomic_write, load_csv, load_vocab, n_classes_of, save_vocab, to_samples,
)
from swcnn.errors import DataError, UsageError
from swcnn.model import RegionEmbedding
from swcnn.serialize import load_model, save_model
from swcnn.textpipe import BOW_NGRAM, BOW_WORD, NGRAM123, RegionSpec, build_vocab
from swcnn.train import ModelTemplate, TrainConfig, init_model

# one cut (byte < 0) or one overwritten byte of a valid file, at any offset
corruptions = given(st.integers(min_value=0), st.integers(min_value=-1, max_value=255))
corruption_settings = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)


class TestLoadCsv:
    def test_label_and_field_concatenation(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"3","Title","Body"\n', encoding="utf-8")
        records = load_csv(path)
        assert records[0].label == 3
        assert records[0].text == "Title Body"

    def test_doubled_quotes(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"1","He said ""hi"""\n', encoding="utf-8")
        assert load_csv(path)[0].text == 'He said "hi"'

    def test_literal_backslash_n_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"2","line one\\nline two"\n', encoding="utf-8")
        records = load_csv(path)
        assert "\\n" in records[0].text
        tokens, label = to_samples(path, records, 2)[0]
        assert label == 1
        assert tokens == ["line", "one", "line", "two"]

    def test_empty_line_errors_with_line_number(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"1","a"\n\n"2","b"\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_csv(path)

    def test_non_integer_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"x","text"\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 1"):
            load_csv(path)

    def test_label_below_one(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text('"0","text"\n', encoding="utf-8")
        with pytest.raises(DataError, match=">= 1"):
            load_csv(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b'"1","fine"\n"2","caf\xe9"\n')
        with pytest.raises(DataError, match=r"d\.csv: line 2: not valid UTF-8"):
            load_csv(path)

    @pytest.mark.parametrize("bad_line,reason", [
        ('"2","a b\n', "unexpected end of data"),  # a quote never closed
        ('"2","a"b\n', "',' expected after '\"'"),  # text after a closing quote
    ])
    def test_stray_quote_names_file_and_line(self, tmp_path, bad_line, reason):
        path = tmp_path / "d.csv"
        path.write_text('"1","fine"\n' + bad_line, encoding="utf-8")
        with pytest.raises(DataError) as caught:
            load_csv(path)
        assert str(caught.value) == f"{path}: line 2: {reason}"

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_csv(tmp_path / "absent.csv")

    def test_writer_helper_round_trip(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [(2, "a \"quoted\" field", "tail"), (1, "plain")])
        records = load_csv(path)
        assert records[0].text == 'a "quoted" field tail'
        assert records[1].label == 1

    def test_n_classes(self, tmp_path):
        path = tmp_path / "d.csv"
        write_csv(path, [(2, "x"), (4, "y"), (1, "z")])
        assert n_classes_of(load_csv(path)) == 4

    def test_no_records_names_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_bytes(b"")
        with pytest.raises(DataError, match=r"d\.csv: no records"):
            load_csv(path)


class TestAtomicWrite:
    def test_failed_write_names_path_and_leaves_nothing(self, tmp_path):
        def body(out):
            out.write("partial")
            raise OSError(28, "No space left on device")

        path = tmp_path / "out.txt"
        with pytest.raises(UsageError, match=r"cannot write .*out\.txt: No space left"):
            atomic_write(path, body)
        assert list(tmp_path.iterdir()) == []

    def test_missing_directory_names_path(self, tmp_path):
        path = tmp_path / "absent" / "out.txt"
        with pytest.raises(UsageError, match=r"cannot write .*absent/out\.txt"):
            atomic_write(path, lambda out: out.write("x"))
        assert list(tmp_path.iterdir()) == []


VALID_CSV = '"1","the cat sat"\n"2","a ""quoted"" dog","tail"\n"3","x\\ny caf\u00e9"\n'.encode()


@corruption_settings
@corruptions
@example(offset=0, byte=-1)  # empty file
@example(offset=1, byte=ord("0"))  # label 0
@example(offset=29, byte=0xFF)  # invalid UTF-8
def test_corrupt_csv_is_records_or_a_data_error(tmp_path, offset, byte):
    """Accepted records also give samples and a class count."""
    path = tmp_path / "d.csv"
    write_corrupted(path, VALID_CSV, offset, byte)
    try:
        records = load_csv(path)
        n_classes = n_classes_of(records)
        samples = to_samples(path, records, n_classes)
    except DataError:
        return
    assert all(isinstance(r, DatasetRecord) and r.label >= 1 for r in records)
    assert len(samples) == len(records) and n_classes >= 1


class TestVocabFiles:
    def test_round_trip(self, tmp_path):
        vocab = build_vocab([["b", "a", "a"], ["c", "b", "a"]], "word", 10)
        path = tmp_path / "w.vocab"
        save_vocab(vocab, path)
        assert load_vocab(path) == vocab

    def test_ngram_keys_with_spaces_survive(self, tmp_path):
        vocab = build_vocab([["x", "y", "z"]], NGRAM123, 100)
        path = tmp_path / "g.vocab"
        save_vocab(vocab, path)
        loaded = load_vocab(path)
        assert loaded == vocab
        assert "x y z" in loaded.index

    def test_missing_header(self, tmp_path):
        path = tmp_path / "w.vocab"
        path.write_text("a\t3\n", encoding="utf-8")
        with pytest.raises(DataError, match="kind"):
            load_vocab(path)

    def test_invalid_utf8_names_file_and_line(self, tmp_path):
        path = tmp_path / "v.vocab"
        path.write_bytes(b"kind=word\nok\t3\n\xff\xfe\t1\n")
        with pytest.raises(DataError, match=r"v\.vocab: line 3: not valid UTF-8"):
            load_vocab(path)

    def test_bad_frequency(self, tmp_path):
        path = tmp_path / "w.vocab"
        path.write_text("kind=word\na\tNaNish\n", encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_vocab(path)

    def test_header_only_names_file(self, tmp_path):
        path = tmp_path / "w.vocab"
        path.write_text("kind=word\n\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"w\.vocab: no vocabulary entries"):
            load_vocab(path)

    def test_duplicate_token_names_both_lines(self, tmp_path):
        path = tmp_path / "w.vocab"
        path.write_text("kind=word\na\t3\n\na\t2\n", encoding="utf-8")
        with pytest.raises(DataError, match=r"w\.vocab: line 4: duplicate token 'a' "
                                             r"\(first on line 2\)"):
            load_vocab(path)

    @pytest.mark.parametrize("freq", [-3, 2**64])
    def test_frequency_outside_u64_names_line(self, tmp_path, freq):
        path = tmp_path / "w.vocab"
        path.write_text(f"kind=word\na\t9\nb\t{freq}\n", encoding="utf-8")
        with pytest.raises(DataError, match=rf"w\.vocab: line 3: frequency {freq} outside"):
            load_vocab(path)


VALID_VOCABS = {
    "word": "kind=word\nthe\t18446744073709551615\nof\t25\nand\t13\n".encode(),
    NGRAM123: (
        "kind=ngram123\nthe\t18446744073709551615\nthe cat\t12\ncaf\u00e9 au lait\t4\n"
    ).encode(),
}


def save_in_a_model(vocab, path):
    """A model whose one tv embedding reads ``vocab``, saved and loaded again."""
    representation = BOW_NGRAM if vocab.kind == NGRAM123 else BOW_WORD
    spec = RegionSpec(representation, 2, len(vocab))
    tv = RegionEmbedding(spec=spec, vocab=vocab, W=np.zeros((len(vocab), 2)),
                         b=np.zeros(2))
    template = ModelTemplate(base_vocab=word_vocab(3), n_classes=2, region_size=1,
                             embed_dim=2, pooling_k=1, tv_embeddings=(tv,))
    save_model(init_model(template, TrainConfig(epochs=1, decay_epoch=1),
                          np.random.default_rng(0)), path)
    return load_model(path).tvs[0].embedding.vocab


@corruption_settings
@pytest.mark.parametrize("kind", sorted(VALID_VOCABS))
@corruptions
# a header alone, a frequency of -5 or -2, a frequency of 28446744073709551615 >= 2**64
@example(offset=len("kind=word\n"), byte=-1)
@example(offset=len("kind=word\nthe\t18446744073709551615\nof\t"), byte=ord("-"))
@example(offset=len("kind=word\nthe\t"), byte=ord("2"))
@example(offset=len("kind=ngram123\n"), byte=-1)
@example(offset=len("kind=ngram123\nthe\t18446744073709551615\nthe cat\t"), byte=ord("-"))
@example(offset=len("kind=ngram123\nthe\t"), byte=ord("2"))
def test_corrupt_vocab_is_a_vocabulary_or_a_data_error(tmp_path, kind, offset, byte):
    """An accepted vocabulary also survives a model container round trip."""
    path = tmp_path / "v.vocab"
    write_corrupted(path, VALID_VOCABS[kind], offset, byte)
    try:
        vocab = load_vocab(path)
    except DataError as exc:
        assert "v.vocab" in str(exc)
    else:
        assert save_in_a_model(vocab, tmp_path / "m.swcn") == vocab
