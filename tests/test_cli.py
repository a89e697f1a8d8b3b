"""CLI surface: subcommands, output routing, exit codes, root override."""

import pytest

from wbforge.cli import main
from wbforge.fixtures import MUTATIONS, fixture_path, load_bundle
from wbforge.rdf import serialize_canonical

SCHEMA = fixture_path("age-record", "wbs")
INSTANCES = fixture_path("age-record", "wbi")


def test_check_counts_line(capsys):
    assert main(["check", str(SCHEMA)]) == 0
    out = capsys.readouterr().out
    assert out == "classes=3 statements=1 qualifiers=2 references=1 patterns=2 flags=0\n"


def test_expand_writes_report(capsys):
    assert main(["expand", str(SCHEMA)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0].startswith("IRI")
    assert "prop/direct/hasAgeRecord" in out


def test_axioms_matches_golden(capsys):
    assert main(["axioms", str(SCHEMA)]) == 0
    assert capsys.readouterr().out == fixture_path("age-record", "ofn").read_text()


def test_axioms_flags_change_output(capsys):
    main(["axioms", str(SCHEMA)])
    default = capsys.readouterr().out
    main(["axioms", str(SCHEMA), "--no-exact-card"])
    split = capsys.readouterr().out
    main(["axioms", str(SCHEMA), "--no-nl"])
    bare = capsys.readouterr().out
    assert "ExactCardinality" in default
    assert "ExactCardinality" not in split and "MinCardinality" in split
    assert not any(l.startswith("# ") for l in bare.splitlines())


def test_shapes_and_export_match_goldens(capsys):
    assert main(["shapes", str(SCHEMA)]) == 0
    assert capsys.readouterr().out == fixture_path("age-record", "shex").read_text()
    assert main(["export", str(SCHEMA), str(INSTANCES)]) == 0
    assert capsys.readouterr().out == fixture_path("age-record", "nt").read_text()


def test_output_file(tmp_path):
    target = tmp_path / "out.ofn"
    assert main(["axioms", str(SCHEMA), "-o", str(target)]) == 0
    assert target.read_text() == fixture_path("age-record", "ofn").read_text()


def test_validate_pass_and_fail(tmp_path, capsys):
    nt = fixture_path("age-record", "nt")
    assert main(["validate", str(SCHEMA), str(nt)]) == 0
    assert capsys.readouterr().out == "errors=0 warnings=0\n"

    mutated = tmp_path / "broken.nt"
    mut = next(m for m in MUTATIONS["age-record"] if m.code == "DomainViolation")
    mutated.write_text(serialize_canonical(mut.apply(load_bundle("age-record"))))
    assert main(["validate", str(SCHEMA), str(mutated)]) == 1
    out = capsys.readouterr().out
    assert "DomainViolation" in out and "errors=1" in out


def test_validate_tsv(tmp_path, capsys):
    nt = fixture_path("age-record", "nt")
    assert main(["validate", str(SCHEMA), str(nt), "--tsv"]) == 0
    assert capsys.readouterr().out == "severity\tcode\tfocus\tdetail\n"


def test_infer_round_trip(tmp_path, capsys):
    # dropping a wdt edge and inferring restores the original bytes
    bundle = load_bundle("age-record")
    g = bundle.graph.copy()
    wdt = [t for t in g if "/prop/direct/" in t.p.value]
    for t in wdt:
        g.discard(t)
    gap = tmp_path / "gap.nt"
    gap.write_text(serialize_canonical(g))
    assert main(["infer", str(SCHEMA), str(gap)]) == 0
    assert capsys.readouterr().out == fixture_path("age-record", "nt").read_text()


def test_root_flag_rebases_output(capsys):
    assert main(["export", str(SCHEMA), str(INSTANCES),
                 "--root", "http://other.example/"]) == 0
    out = capsys.readouterr().out
    assert "http://other.example/entity/" in out
    assert "http://wikibase.example/" not in out


def test_root_env_fallback(capsys, monkeypatch):
    monkeypatch.setenv("WBFORGE_ROOT", "http://fromenv.example/")
    main(["export", str(SCHEMA), str(INSTANCES)])
    assert "http://fromenv.example/entity/" in capsys.readouterr().out
    # explicit flag wins over the environment
    main(["export", str(SCHEMA), str(INSTANCES), "--root", "http://flag.example/"])
    assert "http://flag.example/entity/" in capsys.readouterr().out


def test_missing_file_exits_2(capsys):
    assert main(["check", "/no/such/file.wbs"]) == 2
    assert "wbforge:" in capsys.readouterr().err


def test_directory_as_schema_exits_2(tmp_path, capsys):
    assert main(["check", str(tmp_path)]) == 2
    assert "wbforge:" in capsys.readouterr().err


def test_non_utf8_schema_exits_2(tmp_path, capsys):
    latin1 = tmp_path / "latin1.wbs"
    latin1.write_bytes("class ex:Caf\xe9\n".encode("latin-1"))
    assert main(["check", str(latin1)]) == 2
    assert "wbforge:" in capsys.readouterr().err


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.wbs"
    bad.write_text("statement without pieces")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "wbforge:" in err and "line" in err


def test_export_data_error_exits_2(tmp_path, capsys):
    # missing required reference is a data error, not a crash
    bad = tmp_path / "bad.wbi"
    bad.write_text(
        "prefix rec: <http://records.example/vocab/>\n"
        "item wd:a1 : rec:Agent { rec:hasAgeRecord -> item wd:cat30s }\n"
        "item wd:cat30s : rec:AgeCategory { }\n")
    assert main(["export", str(SCHEMA), str(bad)]) == 2
    assert "wbforge:" in capsys.readouterr().err


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(SCHEMA)])
    assert exc.value.code == 2
