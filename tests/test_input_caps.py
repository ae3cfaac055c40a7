"""Size caps on query text and RPQ regexes.

Query text is capped at ``MAX_QUERY_ATOMS`` (256) atoms and a regex at
``MAX_RPQ_NESTING`` (100) levels of groups and postfix operators.  Past
either cap the input is a ``ParseError`` — a 400 from the daemon, an
``error:`` line and exit 1 from the CLI, a load-time rejection in a
batch file — instead of a ``RecursionError`` deep in the pipeline.
"""

import io
import json

import pytest

from repro.cli import load_batch_file, main
from repro.core.estimator import PQEEngine
from repro.db.fact import Fact
from repro.db.probabilistic import ProbabilisticDatabase
from repro.errors import ContextualError, ParseError
from repro.graphs.rpq import MAX_RPQ_NESTING, parse_rpq
from repro.queries.parser import MAX_QUERY_ATOMS, parse_query
from repro.serve import PQEServer, ServerConfig

DEEP_GROUPS = "(" * 300 + "a" + ")" * 300
DEEP_STARS = "a" + "*" * 1000


def star(atoms: int) -> str:
    """``Q :- R(x, y0), …, R(x, y<atoms-1>)``: a self-join star."""
    return "Q :- " + ", ".join(f"R(x, y{i})" for i in range(atoms))


@pytest.fixture
def pdb() -> ProbabilisticDatabase:
    return ProbabilisticDatabase({
        Fact("R", ("a", "b")): "1/2",
        Fact("R", ("a", "c")): "1/3",
    })


class TestQueryAtoms:
    def test_the_cap_is_256(self):
        assert MAX_QUERY_ATOMS == 256

    def test_a_256_atom_star_still_answers_lifted(self, pdb):
        answer = PQEEngine(seed=1).probability(
            parse_query(star(MAX_QUERY_ATOMS)), pdb
        )
        assert answer.method == "lifted"

    def test_257_atoms_are_a_parse_error(self):
        with pytest.raises(ParseError, match="256"):
            parse_query(star(MAX_QUERY_ATOMS + 1))

    def test_the_daemon_answers_400(self, pdb):
        server = PQEServer(pdb, ServerConfig())
        status, body = server.handle({"query": star(1200)})
        assert status == 400
        assert body["reason"] == "bad_request"

    def test_the_cli_exits_1(self, tmp_path, capsys):
        path = tmp_path / "facts.csv"
        path.write_text("R,1/2,a,b\n")
        code = main(["--data", str(path), "--query", star(257)])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestRegexNesting:
    @pytest.mark.parametrize(
        "regex", [DEEP_GROUPS, DEEP_STARS], ids=["groups", "stars"]
    )
    def test_deep_regexes_are_parse_errors(self, regex):
        with pytest.raises(ParseError, match="nests deeper"):
            parse_rpq(regex)

    def test_the_cap_counts_groups_and_postfix_operators(self):
        parse_rpq("(" * 50 + "a" + ")*" * 50)
        with pytest.raises(ParseError):
            parse_rpq("(" * 50 + "a*" + ")*" * 50)
        parse_rpq("a" + "?" * MAX_RPQ_NESTING)

    def test_the_cli_exits_1(self, tmp_path, capsys):
        path = tmp_path / "g.csv"
        path.write_text("a,1/2,s,t\n")
        code = main([
            "--data", str(path), "--rpq", DEEP_GROUPS,
            "--source", "s", "--target", "t",
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_a_batch_entry_is_rejected_at_load(self):
        pdb = ProbabilisticDatabase({Fact("a", ("s", "t")): "1/2"})
        entries = [
            {"query": "a", "task": "rpq", "source": "s", "target": "t"},
            {"query": DEEP_STARS, "task": "rpq", "source": "s",
             "target": "t"},
        ]
        with pytest.raises(ContextualError, match="batch entry 1"):
            load_batch_file(io.StringIO(json.dumps(entries)), pdb)
