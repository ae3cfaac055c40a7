"""Tests for serialisation (JSON / CSV / query text round-trips)."""

import io

import pytest

from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ContextualError, ReproError
from repro.io import (
    dump_pdb_csv,
    dump_pdb_json,
    dump_query,
    load_pdb,
    load_pdb_csv,
    load_pdb_json,
    load_query,
    save_pdb,
)
from repro.queries.builders import path_query


def _pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase(
        {
            Fact("R1", ("a", "b")): "1/2",
            Fact("R2", ("b", "c")): "997/1000",
            Fact("U", ("x",)): "1",
        }
    )


class TestJsonRoundTrip:
    def test_round_trip(self):
        original = _pdb()
        buffer = io.StringIO()
        dump_pdb_json(original, buffer)
        buffer.seek(0)
        loaded = load_pdb_json(buffer)
        assert loaded == original

    def test_probabilities_exact(self):
        buffer = io.StringIO()
        dump_pdb_json(_pdb(), buffer)
        buffer.seek(0)
        loaded = load_pdb_json(buffer)
        fact = Fact("R2", ("b", "c"))
        assert loaded.probability(fact).denominator == 1000

    def test_invalid_json(self):
        with pytest.raises(ReproError):
            load_pdb_json(io.StringIO("not json"))

    def test_wrong_shape(self):
        with pytest.raises(ReproError):
            load_pdb_json(io.StringIO('{"rows": []}'))

    def test_malformed_entry(self):
        with pytest.raises(ReproError):
            load_pdb_json(
                io.StringIO('{"facts": [{"relation": "R"}]}')
            )

    def test_duplicate_fact(self):
        text = (
            '{"facts": ['
            '{"relation": "R", "constants": ["a"], "probability": "1/2"},'
            '{"relation": "R", "constants": ["a"], "probability": "1/3"}'
            "]}"
        )
        with pytest.raises(ReproError):
            load_pdb_json(io.StringIO(text))

    def test_empty(self):
        with pytest.raises(ReproError):
            load_pdb_json(io.StringIO('{"facts": []}'))


class TestCsvRoundTrip:
    def test_round_trip(self):
        original = _pdb()
        buffer = io.StringIO()
        dump_pdb_csv(original, buffer)
        buffer.seek(0)
        loaded = load_pdb_csv(buffer)
        assert loaded == original


class TestPathBased:
    def test_json_file(self, tmp_path):
        path = tmp_path / "db.json"
        save_pdb(_pdb(), path)
        assert load_pdb(path) == _pdb()

    def test_csv_file(self, tmp_path):
        path = tmp_path / "db.csv"
        save_pdb(_pdb(), path)
        assert load_pdb(path) == _pdb()

    def test_unknown_extension(self, tmp_path):
        with pytest.raises(ReproError):
            save_pdb(_pdb(), tmp_path / "db.xml")
        with pytest.raises(ReproError):
            load_pdb(tmp_path / "db.xml")


class TestQueryRoundTrip:
    def test_round_trip(self):
        query = path_query(3)
        buffer = io.StringIO()
        dump_query(query, buffer)
        buffer.seek(0)
        assert load_query(buffer) == query


class TestBrokenFixtures:
    """Hardened load paths: every failure is a ContextualError naming
    the source file and the offending record."""

    def _write(self, tmp_path, name, text):
        path = tmp_path / name
        path.write_text(text)
        return path

    def test_truncated_json_names_file_and_position(self, tmp_path):
        path = self._write(
            tmp_path, "torn.json",
            '{"facts": [{"relation": "R", "constants": ["a"], "prob',
        )
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        message = str(failure.value)
        assert "torn.json" in message
        assert "line" in message  # decoder position, not just "invalid"

    def test_wrong_schema_names_file(self, tmp_path):
        path = self._write(tmp_path, "wrong.json", '{"rows": []}')
        with pytest.raises(ContextualError, match="wrong.json"):
            load_pdb(path)

    def test_malformed_entry_names_record(self, tmp_path):
        for entry, reason in (
            ('{"relation": "S"}', "missing"),
            # Wrong field types: never a bare TypeError.
            ('{"relation": 7, "constants": ["a"], "probability": "1/2"}',
             "'relation'"),
            ('{"relation": "", "constants": ["a"], "probability": "1/2"}',
             "'relation'"),
            ('{"relation": "S", "constants": [["x"]], '
             '"probability": "1/2"}', "'constants'"),
        ):
            path = self._write(
                tmp_path, "bad-entry.json",
                '{"facts": ['
                '{"relation": "R", "constants": ["a"], "probability": "1/2"},'
                + entry + "]}",
            )
            with pytest.raises(ContextualError) as failure:
                load_pdb(path)
            message = str(failure.value)
            assert "bad-entry.json" in message
            assert "facts[1]" in message
            assert reason in message

    def test_string_constants_rejected_not_exploded(self, tmp_path):
        # A bare string would silently become one fact per character.
        path = self._write(
            tmp_path, "string-constants.json",
            '{"facts": [{"relation": "R", "constants": "ab", '
            '"probability": "1/2"}]}',
        )
        with pytest.raises(ContextualError, match=r"facts\[0\]"):
            load_pdb(path)

    def test_invalid_probability_names_record(self, tmp_path):
        path = self._write(
            tmp_path, "bad-prob.json",
            '{"facts": [{"relation": "R", "constants": ["a"], '
            '"probability": "one half"}]}',
        )
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        message = str(failure.value)
        assert "facts[0]" in message
        assert "one half" in message

    def test_duplicate_fact_names_record(self, tmp_path):
        path = self._write(
            tmp_path, "dup.json",
            '{"facts": ['
            '{"relation": "R", "constants": ["a"], "probability": "1/2"},'
            '{"relation": "R", "constants": ["a"], "probability": "1/3"}'
            "]}",
        )
        with pytest.raises(ContextualError, match=r"facts\[1\]"):
            load_pdb(path)

    def test_csv_short_row_names_file_and_row(self, tmp_path):
        path = self._write(
            tmp_path, "short.csv", "R,1/2,a\nS,2/3\n"
        )
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        message = str(failure.value)
        assert "short.csv" in message
        assert "row 2" in message

    def test_csv_bad_probability_names_row(self, tmp_path):
        path = self._write(
            tmp_path, "bad.csv", "R,1/2,a\nS,2/zero,b\n"
        )
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        assert "row 2" in str(failure.value)

    @pytest.mark.parametrize("label", ["3/2", "-1/2"])
    def test_csv_out_of_range_probability_names_row(self, tmp_path, label):
        path = self._write(
            tmp_path, "range.csv", f"R,1/2,a\nS,{label},b\n"
        )
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        message = str(failure.value)
        assert "range.csv: row 2" in message
        assert "outside [0, 1]" in message
        assert failure.value.phase == "io.load"

    @pytest.mark.parametrize("label", ['"3/2"', '"-1/2"', "2"])
    def test_out_of_range_probability_names_record(self, tmp_path, label):
        path = self._write(
            tmp_path, "range.json",
            '{"facts": ['
            '{"relation": "R", "constants": ["a"], "probability": "1/2"},'
            '{"relation": "R", "constants": ["b"], "probability": '
            + label + "}]}",
        )
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        message = str(failure.value)
        assert "range.json" in message
        assert "facts[1]" in message
        assert "outside [0, 1]" in message
        assert failure.value.phase == "io.load"

    def test_empty_query_file_named(self, tmp_path):
        path = self._write(tmp_path, "empty-query.txt", "   \n")
        with pytest.raises(ContextualError, match="empty-query.txt"):
            with open(path, encoding="utf-8") as stream:
                load_query(stream)

    def test_anonymous_stream_gets_placeholder(self):
        with pytest.raises(ContextualError, match="<stream>"):
            load_pdb_json(io.StringIO("not json"))

    def test_errors_carry_the_io_phase(self, tmp_path):
        path = self._write(tmp_path, "wrong.json", "[]")
        with pytest.raises(ContextualError) as failure:
            load_pdb(path)
        assert failure.value.phase == "io.load"
