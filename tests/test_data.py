import pytest

from helpers import write_csv
from swcnn.data import load_csv, load_vocab, n_classes_of, save_vocab, to_samples
from swcnn.errors import DataError
from swcnn.textpipe import NGRAM123, build_vocab


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
        tokens, label = to_samples(records)[0]
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
