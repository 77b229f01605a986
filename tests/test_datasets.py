import tracemalloc

import numpy as np
import pytest

from telhaz.datasets import _read_lines, builtin, builtin_names, load, save


class TestBuiltins:
    def test_names(self):
        assert builtin_names() == ("melanoma_46", "service_86")

    def test_melanoma_invariants(self):
        data = builtin("melanoma_46")
        values = data.sample.values
        assert data.sample.n == 46
        assert values[0] == 13.0 and values[-1] == 234.0
        assert float(values.sum()) == 2885.0  # pinned transcription checksum
        assert np.all(np.diff(values) >= 0.0)

    def test_service_invariants(self):
        data = builtin("service_86")
        values = data.sample.values
        assert data.sample.n == 86
        assert values[0] == 220.0 and values[-1] == 1659.0
        assert float(values.sum()) == 64132.0  # pinned transcription checksum
        assert np.all(np.diff(values) >= 0.0)

    def test_duplicates_preserved(self):
        values = builtin("melanoma_46").sample.values
        assert np.count_nonzero(values == 19.0) == 2
        assert np.count_nonzero(values == 65.0) == 2

    def test_unknown_name(self):
        with pytest.raises(KeyError):
            builtin("nonexistent")


class TestLoad:
    def test_whitespace_and_newlines(self, tmp_path):
        path = tmp_path / "plain.txt"
        path.write_text("1 2 3\n4\n5 6\n")
        data = load(path)
        assert data.sample.values.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert data.name == "plain"

    def test_single_column_csv(self, tmp_path):
        path = tmp_path / "col.csv"
        path.write_text("3.5\n1.25\n7\n")
        assert load(path).sample.values.tolist() == [1.25, 3.5, 7.0]

    def test_sorts_input(self, tmp_path):
        path = tmp_path / "d.txt"
        path.write_text("9 1 5\n")
        assert load(path).sample.values.tolist() == [1.0, 5.0, 9.0]

    def test_non_numeric_token_names_line(self, tmp_path, monkeypatch):
        (tmp_path / "d1").mkdir()
        (tmp_path / "d1" / "bad.txt").write_text("1 2\nabc 4\n")
        monkeypatch.chdir(tmp_path)
        with pytest.raises(ValueError, match=r"^d1/bad\.txt:2: non-numeric token 'abc'$"):
            load("d1/bad.txt")

    def test_nonpositive_value_rejected(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("1 -2 3\n")
        with pytest.raises(ValueError, match="finite and > 0"):
            load(path)

    def test_too_few_values(self, tmp_path):
        path = tmp_path / "one.txt"
        path.write_text("42\n")
        with pytest.raises(ValueError, match="at least 3"):
            load(path)

    def test_round_trip(self, tmp_path):
        for name in builtin_names():
            original = builtin(name)
            path = tmp_path / f"{name}.txt"
            save(original, path)
            reloaded = load(path)
            assert reloaded.sample.values.tolist() == original.sample.values.tolist()

    @pytest.mark.parametrize(
        "text, want",
        [
            ("3.5,1.25\n7, 2\n", [1.25, 2.0, 3.5, 7.0]),
            ("1\t2  3\n\n 4\x0c5\x0b6 \n", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]),
            ("1_000 2_5.5\n3e-2\n", [0.03, 25.5, 1000.0]),
            ("1\r\n2\r\n3.25\r\n", [1.0, 2.0, 3.25]),
        ],
        ids=["csv", "whitespace", "underscores", "crlf"],
    )
    def test_chunked_read_equals_line_by_line(self, tmp_path, text, want):
        path = tmp_path / "d.txt"
        path.write_bytes(text.encode())
        assert load(path).sample.values.tolist() == sorted(_read_lines(path)) == want

    def test_chunked_read_spanning_chunks(self, tmp_path):
        # ~1.9 MB: about thirty chunks, each cut at a line end
        values = np.random.default_rng(3).exponential(size=100_000)
        path = tmp_path / "big.txt"
        path.write_text("".join(f"{v!r}{',' if i % 3 else ' '}\n" for i, v in enumerate(values.tolist())))
        got = load(path).sample.values
        assert got.tolist() == sorted(_read_lines(path)) == np.sort(values).tolist()

    def test_first_offender_named(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1 2\n-3 4\n5\n6\n7 abc\n")
        with pytest.raises(ValueError, match=r"bad\.txt:2: value must be finite and > 0, got -3$"):
            load(path)
        lines = ["1.5"] * 100_000
        lines[70_000] = "nan"
        path.write_text("\n".join(lines))
        with pytest.raises(ValueError, match=r"bad\.txt:70001: value must be finite and > 0, got nan$"):
            load(path)

    def test_memory_bounded(self, tmp_path):
        # one Python float per line peaked at ~6.1x the sample's 0.8 MB
        path = tmp_path / "big.txt"
        values = np.random.default_rng(4).exponential(size=100_000)
        path.write_text("".join(f"{v!r}\n" for v in values.tolist()))
        tracemalloc.start()
        try:
            data = load(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * data.sample.values.nbytes
