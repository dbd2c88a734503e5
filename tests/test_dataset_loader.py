"""Unit tests for CSV I/O."""

import pytest

from repro.dataset import Dataset, read_csv, write_csv


class TestCsvRoundtrip:
    def test_roundtrip(self, tmp_path, zip_dataset):
        path = tmp_path / "data.csv"
        write_csv(zip_dataset, path)
        loaded = read_csv(path)
        assert loaded == zip_dataset

    def test_empty_fields_become_missing_token(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("a,b\n1,\n,2\n")
        loaded = read_csv(path, missing_token="<NaN>")
        assert loaded.column("b") == ["<NaN>", "2"]
        assert loaded.column("a") == ["1", "<NaN>"]

    def test_empty_file_raises(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(ValueError, match="header"):
            read_csv(path)

    def test_values_with_commas_and_quotes(self, tmp_path):
        d = Dataset.from_rows(["a"], [['he said "hi, there"']])
        path = tmp_path / "q.csv"
        write_csv(d, path)
        assert read_csv(path) == d

    def test_utf8_bom_is_not_part_of_the_first_attribute(self, tmp_path):
        path = tmp_path / "bom.csv"
        path.write_bytes(b"\xef\xbb\xbfa,b\n1,2\n")
        loaded = read_csv(path)
        assert loaded.attributes == ("a", "b")
        assert loaded.column("a") == ["1"]

    def test_header_only(self, tmp_path):
        path = tmp_path / "h.csv"
        path.write_text("a,b\n")
        loaded = read_csv(path)
        assert loaded.num_rows == 0
        assert loaded.attributes == ("a", "b")
