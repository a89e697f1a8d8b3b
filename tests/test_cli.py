"""CLI surface: subcommands, output routing, exit codes, root override."""

import gc
import io
import os
import stat
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

import pytest

import wbforge
from wbforge import cli
from wbforge.cli import build_parser, main
from wbforge.dsl import parse_schema
from wbforge.errors import WbforgeError
from wbforge.fixtures import FIXTURE_NAMES, MUTATIONS, fixture_path, load_bundle
from wbforge.rdf import parse_ntriples, serialize_canonical
from wbforge.validator import render_report, render_report_tsv, validate

from test_exporter import NAME_RECORD_PAIR

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


# exits 2 once the output passes 1,000 bytes: SIGXFSZ is ignored, so the
# write fails with EFBIG; the limits are this child process's own
_WRITE_UNDER_FSIZE_LIMIT = """
import resource, signal, sys
from wbforge.cli import main
signal.signal(signal.SIGXFSZ, signal.SIG_IGN)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, 1000))
sys.exit(main(sys.argv[1:]))
"""


def test_a_failed_output_write_leaves_the_old_file(tmp_path):
    pytest.importorskip("resource")
    keep = tmp_path / "keep.nt"
    old = fixture_path("name-record", "nt").read_bytes()
    keep.write_bytes(old)
    assert fixture_path("age-record", "nt").stat().st_size > 1000
    env = {**os.environ, "PYTHONPATH": str(Path(wbforge.__file__).parents[1]),
           "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run(
        [sys.executable, "-c", _WRITE_UNDER_FSIZE_LIMIT,
         "export", str(SCHEMA), str(INSTANCES), "-o", str(keep)],
        env=env, capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"wbforge: ") and b"Traceback" not in proc.stderr
    assert keep.read_bytes() == old
    assert [p.name for p in tmp_path.iterdir()] == ["keep.nt"]


def test_a_write_that_cannot_encode_leaves_the_old_file(tmp_path):
    keep = tmp_path / "keep.nt"
    keep.write_text("old\n")
    with pytest.raises(UnicodeEncodeError):
        cli._write("new \udcff\n", str(keep))     # a lone surrogate has no UTF-8 form
    assert keep.read_text() == "old\n"
    assert [p.name for p in tmp_path.iterdir()] == ["keep.nt"]


def test_output_keeps_modes_and_writes_through_a_symlink(tmp_path):
    plain = tmp_path / "plain.ofn"
    with open(plain, "w"):
        pass
    new = tmp_path / "new.ofn"
    assert main(["axioms", str(SCHEMA), "-o", str(new)]) == 0
    assert new.stat().st_mode == plain.stat().st_mode     # as open(path, "w") makes it
    target = tmp_path / "target.ofn"
    target.write_text("old\n")
    target.chmod(0o640)
    link = tmp_path / "link.ofn"
    link.symlink_to(target.name)
    assert main(["axioms", str(SCHEMA), "-o", str(link)]) == 0
    assert link.is_symlink() and target.read_text() == new.read_text()
    assert target.stat().st_mode & 0o7777 == 0o640
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "link.ofn", "new.ofn", "plain.ofn", "target.ofn"]


def test_output_onto_an_existing_file_needs_no_fchmod(tmp_path, monkeypatch):
    # os.fchmod exists on Windows only from Python 3.13
    monkeypatch.delattr(os, "fchmod", raising=False)
    target = tmp_path / "target.nt"
    target.write_text("old\n")
    target.chmod(0o640)
    assert main(["export", str(SCHEMA), str(INSTANCES), "-o", str(target)]) == 0
    assert target.read_bytes() == fixture_path("age-record", "nt").read_bytes()
    assert target.stat().st_mode & 0o7777 == 0o640
    assert [p.name for p in tmp_path.iterdir()] == ["target.nt"]


def test_output_to_a_device_is_written_in_place():
    assert main(["axioms", str(SCHEMA), "-o", os.devnull]) == 0
    assert stat.S_ISCHR(os.stat(os.devnull).st_mode)


def _non_ascii_pair(d: Path) -> dict[str, str]:
    """The name record with a vocabulary IRI, an item IRI and a spelling outside
    ASCII (`ł` is outside Latin-1 too), its export, and a copy of the export
    that lacks the item's types; paths by role."""
    paths = {}
    for ext in ("wbs", "wbi"):
        text = (fixture_path("name-record", ext).read_text(encoding="utf-8")
                .replace("/vocab/", "/vocäb/").replace('"J. Bte."', '"Zoë Łoś"')
                .replace("item wd:a1 ", "item <http://records.example/zoë> "))
        paths[ext] = str(d / f"u.{ext}")
        Path(paths[ext]).write_text(text, encoding="utf-8")
    paths["nt"], paths["bad"] = str(d / "u.nt"), str(d / "bad.nt")
    assert main(["export", paths["wbs"], paths["wbi"], "-o", paths["nt"]]) == 0
    with open(paths["nt"], encoding="utf-8", newline="") as fh:
        lines = fh.readlines()
    typed = "<http://records.example/zoë> <http://www.w3.org/1999/02/22-rdf-syntax-ns#type>"
    with open(paths["bad"], "w", encoding="utf-8", newline="") as fh:
        fh.writelines(line for line in lines if not line.startswith(typed))
    return paths


# every subcommand on non-ASCII data: (argv by path role, exit status)
_NON_ASCII_RUNS = [
    (["check", "wbs"], 0),
    (["expand", "wbs"], 0),
    (["axioms", "wbs"], 0),
    (["shapes", "wbs"], 0),
    (["export", "wbs", "wbi"], 0),
    (["validate", "wbs", "nt"], 0),
    (["validate", "wbs", "bad"], 1),
    (["validate", "wbs", "bad", "--tsv"], 1),
    (["infer", "wbs", "bad"], 0),
]


def _stdout_bytes(paths: dict[str, str], env: dict[str, str]) -> list[tuple[int, bytes]]:
    base = {k: v for k, v in os.environ.items()
            if k not in ("PYTHONIOENCODING", "PYTHONUTF8", "LC_ALL", "LC_CTYPE", "LANG")}
    base["PYTHONPATH"] = str(Path(wbforge.__file__).parents[1])
    base["PYTHONDONTWRITEBYTECODE"] = "1"
    results = []
    for argv, _ in _NON_ASCII_RUNS:
        proc = subprocess.run(
            [sys.executable, "-m", "wbforge.cli", *(paths.get(a, a) for a in argv)],
            env={**base, **env}, capture_output=True, timeout=60)
        assert b"Traceback" not in proc.stderr, proc.stderr
        results.append((proc.returncode, proc.stdout))
    return results


@pytest.fixture(scope="module")
def non_ascii(tmp_path_factory):
    """The non-ASCII files, and each run's exit status and stdout under UTF-8."""
    paths = _non_ascii_pair(tmp_path_factory.mktemp("non-ascii"))
    utf8 = _stdout_bytes(paths, {"PYTHONUTF8": "1"})
    assert [code for code, _ in utf8] == [status for _, status in _NON_ASCII_RUNS]
    assert sum(not out.isascii() for _, out in utf8) >= 5   # axioms, shapes, export, ...
    return paths, utf8


@pytest.mark.parametrize("env", [{"PYTHONIOENCODING": "ascii"},
                                 {"PYTHONIOENCODING": "latin-1"},
                                 {"PYTHONUTF8": "0", "LC_ALL": "C"}],
                         ids=["ascii", "latin-1", "C-locale"])
def test_stdout_bytes_do_not_depend_on_its_encoding(non_ascii, env):
    paths, utf8 = non_ascii
    assert _stdout_bytes(paths, env) == utf8


def test_stdout_gets_utf8_bytes_after_the_text_it_holds(non_ascii):
    paths, _ = non_ascii
    raw = io.BytesIO()
    out = io.TextIOWrapper(raw, encoding="ascii", newline="\r\n")
    with redirect_stdout(out):
        print("before")
        assert main(["export", paths["wbs"], paths["wbi"]]) == 0
        out.flush()
    with open(paths["nt"], "rb") as fh:
        assert raw.getvalue() == b"before\r\n" + fh.read()


def test_a_stdout_with_no_buffer_gets_the_text():
    out = io.StringIO()
    with redirect_stdout(out):
        assert main(["export", str(SCHEMA), str(INSTANCES)]) == 0
    assert out.getvalue() == fixture_path("age-record", "nt").read_text(encoding="utf-8")


@pytest.mark.parametrize("via_symlink", [False, True])
def test_output_in_a_missing_directory_names_the_path_asked_for(tmp_path, capsys, via_symlink):
    target = tmp_path / "nonexist" / "x.nt"
    if via_symlink:
        target = tmp_path / "link.nt"
        target.symlink_to(tmp_path / "nonexist" / "x.nt")
    assert main(["export", str(SCHEMA), str(INSTANCES), "-o", str(target)]) == 2
    assert capsys.readouterr() == (
        "", f"wbforge: [Errno 2] No such file or directory: {str(target)!r}\n")
    assert [p.name for p in tmp_path.iterdir()] == (["link.nt"] if via_symlink else [])


@pytest.mark.parametrize("command", ["validate", "infer"])
@pytest.mark.parametrize("line, message", [
    ('<http://x.example/s> <http://x.example/p> "x"@en .',
     "language tags are not supported: @en"),
    ('<> <http://x.example/p> "x" .', "not an absolute IRI: ''"),
    ('_:b <http://x.example/p> "x" .', "blank nodes are not supported"),
])
def test_a_graph_fault_names_its_file_and_line(tmp_path, capsys, command, line, message):
    good = fixture_path("age-record", "nt").read_text()
    nt = tmp_path / "g.nt"
    nt.write_text(f"{good}{line}\n{good}")
    assert main([command, str(SCHEMA), str(nt)]) == 2
    assert capsys.readouterr() == (
        "", f"wbforge: {nt}:{good.count(chr(10)) + 1}: {message}\n")


def test_infer_onto_its_own_input_writes_what_a_separate_output_gets(tmp_path):
    b = load_bundle("age-record")
    g = b.graph.copy()
    for t in [t for t in g if "/prop/direct/" in t.p.value]:
        g.discard(t)
    graph, separate = tmp_path / "g.nt", tmp_path / "separate.nt"
    graph.write_text(serialize_canonical(g))
    assert main(["infer", str(SCHEMA), str(graph), "-o", str(separate)]) == 0
    assert main(["infer", str(SCHEMA), str(graph), "-o", str(graph)]) == 0
    assert graph.read_bytes() == separate.read_bytes()
    assert separate.read_bytes() == fixture_path("age-record", "nt").read_bytes()


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


@pytest.mark.parametrize("via", ["flag", "env"])
def test_undecodable_root_exits_2_without_traceback(via):
    # argv and the environment decode the byte 0xff to the lone surrogate U+DCFF
    root = "http://x/\udcff/"
    env = {**os.environ, "PYTHONPATH": str(Path(wbforge.__file__).parents[1])}
    argv = [sys.executable, "-m", "wbforge.cli", "export", str(SCHEMA), str(INSTANCES)]
    if via == "flag":
        argv += ["--root", root]
    else:
        env["WBFORGE_ROOT"] = root
    proc = subprocess.run(argv, env=env, capture_output=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stderr.startswith(b"wbforge: ") and b"Traceback" not in proc.stderr
    assert proc.stdout == b""


@pytest.mark.parametrize("command", [["check", str(SCHEMA)],
                                     ["export", str(SCHEMA), str(INSTANCES)]])
def test_root_that_is_no_iri_exits_2_naming_the_root(command, capsys):
    assert main(command + ["--root", "http://x y/"]) == 2
    captured = capsys.readouterr()
    assert captured.err == ("wbforge: namespace root is not an absolute IRI: "
                            "'http://x y/'\n")
    assert captured.out == ""


def test_a_root_holding_a_no_break_space_exports_and_validates(tmp_path, capsys):
    root = "http://x\u00a0y/"          # U+00A0 is allowed in an IRIREF and in an Iri
    nt = tmp_path / "out.nt"
    assert main(["export", str(SCHEMA), str(INSTANCES), "--root", root, "-o", str(nt)]) == 0
    assert "\u00a0" in nt.read_text(encoding="utf-8")
    assert main(["validate", str(SCHEMA), str(nt), "--root", root]) == 0
    assert capsys.readouterr().out == "errors=0 warnings=0\n"


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
    assert capsys.readouterr().err == f"wbforge: {latin1}:1: not UTF-8 (byte 0xe9)\n"


@pytest.mark.parametrize("command, kind, newline, copies", [
    ("check", "wbs", "\r\n", 1),
    ("export", "wbi", "\n", 1),
    # past the first 64 KiB, so the place is counted over the whole file
    ("validate", "nt", "\n", 40),
    ("infer", "nt", "\r", 1),
])
def test_a_file_that_is_not_utf8_names_its_path_and_line(tmp_path, capsys, command, kind,
                                                       newline, copies):
    good = fixture_path("age-record", kind).read_text().replace("\n", newline) * copies
    bad = tmp_path / f"bad.{kind}"
    bad.write_bytes(good.encode() + b"# caf\xc3\xa9 \xff\n" + good.encode())
    out = tmp_path / "out"
    out.write_bytes(b"kept\n")
    argv = [command, str(bad)] if kind == "wbs" else [command, str(SCHEMA), str(bad)]
    assert main(argv + ["-o", str(out)]) == 2
    line = good.count(newline) + 1
    assert capsys.readouterr() == ("", f"wbforge: {bad}:{line}: not UTF-8 (byte 0xff)\n")
    assert out.read_bytes() == b"kept\n"


def test_parse_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.wbs"
    bad.write_text("statement without pieces")
    assert main(["check", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"wbforge: {bad}:1:") and ": expected " in err


def test_export_data_error_exits_2(tmp_path, capsys):
    # a missing required qualifier is a data error, not a crash; it names its file and statement
    bad = tmp_path / "bad.wbi"
    bad.write_text(
        "prefix rec: <http://records.example/vocab/>\n"
        "item wd:a1 : rec:Agent { rec:hasAgeRecord -> item wd:cat30s }\n"
        "item wd:cat30s : rec:AgeCategory { }\n")
    assert main(["export", str(SCHEMA), str(bad)]) == 2
    assert capsys.readouterr().err == (f"wbforge: {bad}: item <http://wikibase.example/entity/a1>, "
                                       "statement 1: required hasAgeRecord/ageValue is missing\n")


def test_an_export_item_error_names_its_file(tmp_path, capsys):
    bad = tmp_path / "bad.wbi"
    bad.write_text("item wd:a1 : wd:Ghost { }\n")
    assert main(["export", str(SCHEMA), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {bad}: name 'http://wikibase.example/entity/Ghost' does not resolve "
        "against the schema (class not declared)\n")


def test_export_delimiter_in_reference_target_exits_2(tmp_path, capsys):
    # a declared item whose IRI holds the statement preimage's delimiters
    bad = tmp_path / "bad.wbi"
    bad.write_text(
        "prefix rec: <http://records.example/vocab/>\n"
        "item wd:a1 : rec:Agent {\n"
        "  rec:hasAgeRecord -> item wd:cat30s {\n"
        "    qualifier rec:ageValue = decimal 34\n"
        "    reference { rec:isDirectlyBasedOn -> item <http://records.example/d;x> }\n"
        "  }\n"
        "}\n"
        "item wd:cat30s : rec:AgeCategory { }\n"
        "item <http://records.example/d;x> : rec:SourceDocument { }\n")
    assert main(["export", str(SCHEMA), str(bad)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {bad}: item <http://wikibase.example/entity/a1>, statement 1: "
        "reference target <http://records.example/d;x> contains '|' or ';'\n")


def test_export_of_two_statements_minting_one_reference_name_exits_2(tmp_path, capsys):
    pair = tmp_path / "pair.wbi"
    pair.write_text(NAME_RECORD_PAIR)
    assert main(["export", str(fixture_path("name-record", "wbs")), str(pair)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"wbforge: {pair}: item <http://wikibase.example/entity/a154832>, statement 1: "
        "reference node <http://wikibase.example/reference/"
        "5ba0c313d09e58bbf9f2e3ebd6e32c92365dc116-764d46f3> would be shared by a statement "
        "of <http://wikibase.example/entity/a26779> and one of "
        "<http://wikibase.example/entity/a154832>\n")


_AT_TIME = "    qualifier rec:atTime = datetime 1851-02-03T00:00:00Z\n"
_SOURCE = "    reference { rec:isDirectlyBasedOn -> item wd:parishRegister }\n"


@pytest.mark.parametrize("old, new, message", [
    (_AT_TIME, _AT_TIME + _AT_TIME.replace("1851", "1852"),
     "hasNameRecord/atTime: a qualifier given twice"),
    (_SOURCE, _SOURCE * 2, "hasNameRecord: two references give the same snaks"),
    (_SOURCE, _SOURCE.replace("}", "rec:isDirectlyBasedOn -> item wd:parishRegister }"),
     "hasNameRecord: a reference gives one snak twice"),
], ids=["qualifier", "reference", "snak"])
def test_export_of_a_repeat_the_graph_would_hold_once_exits_2(old, new, message, tmp_path,
                                                              capsys):
    # a graph with the repeat would fail its own validation
    instances = tmp_path / "repeat.wbi"
    instances.write_text(fixture_path("name-record", "wbi").read_text().replace(old, new))
    nt = tmp_path / "out.nt"
    nt.write_text("kept\n")
    schema = fixture_path("name-record", "wbs")
    assert main(["export", str(schema), str(instances), "-o", str(nt)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {instances}: item <http://wikibase.example/entity/a1>, statement 1: "
        f"{message}\n")
    assert nt.read_text() == "kept\n"


def test_a_relative_item_iri_holding_braces_and_a_bar_is_refused_before_export(tmp_path, capsys):
    # N-Triples wants absolute IRIs without `{ } | ^` or a backtick, so export must not write one
    instances = tmp_path / "i.wbi"
    instances.write_text(fixture_path("sex-record", "wbi").read_text().replace(
        "item wd:a1 :", "item <rel{a}|b> :"))
    nt = tmp_path / "out.nt"
    schema = fixture_path("sex-record", "wbs")
    assert main(["export", str(schema), str(instances), "-o", str(nt)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {instances}:5:6: expected a resolvable name "
        "(not an absolute IRI: 'rel{a}|b')\n")
    assert not nt.exists()


def test_unknown_subcommand_usage_error():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate", str(SCHEMA)])
    assert exc.value.code == 2


def test_an_item_iri_holding_a_backslash_is_refused_before_export(tmp_path, capsys):
    # exported raw, `c\b` read back as `c` + U+0008: two false HashMismatch warnings
    instances = tmp_path / "i.wbi"
    instances.write_text(INSTANCES.read_text().replace(
        "wd:census1850", "<http://wikibase.example/entity/c\\b>"))
    nt = tmp_path / "out.nt"
    assert main(["export", str(SCHEMA), str(instances), "-o", str(nt)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {instances}:8:47: expected a resolvable name "
        "(not an absolute IRI: 'http://wikibase.example/entity/c\\\\b')\n")
    assert not nt.exists()


def test_exported_literal_holding_blank_node_syntax_reads_back(tmp_path, capsys):
    schema = tmp_path / "s.wbs"
    schema.write_text("prefix ex: <http://example.org/>\nclass ex:Person\n"
                      "statement ex:name {\n  subject ex:Person\n  object string\n}\n")
    instances = tmp_path / "i.wbi"
    instances.write_text("prefix ex: <http://example.org/>\n"
                         'item wd:a : ex:Person {\n  ex:name -> string "see _:note"\n}\n')
    nt = tmp_path / "out.nt"
    assert main(["export", str(schema), str(instances), "-o", str(nt)]) == 0
    assert main(["validate", str(schema), str(nt)]) == 0
    assert capsys.readouterr().out == "errors=0 warnings=0\n"
    assert main(["infer", str(schema), str(nt)]) == 0


# `main` shares one parser across calls; what one call asks for must not
# reach the next


def _run(argv, capsys):
    code = main(argv)
    return code, capsys.readouterr().out


def test_main_builds_its_parser_once_and_leaves_it_as_built(monkeypatch, capsys):
    builds = []

    def counting_build():
        builds.append(1)
        return build_parser()

    monkeypatch.setattr(cli, "build_parser", counting_build)
    cli._parser.cache_clear()
    try:
        for argv in (["check", str(SCHEMA)], ["axioms", str(SCHEMA), "--no-nl"],
                     ["expand", str(SCHEMA), "--root", "http://other.example/"]) * 5:
            assert _run(argv, capsys)[0] == 0
        with pytest.raises(SystemExit):
            main(["axioms"])
        with pytest.raises(SystemExit):
            main(["check", "--help"])
        assert len(builds) == 1
        shared = cli._parser()
    finally:
        cli._parser.cache_clear()
    # every default the shared parser fills in is still the built one
    fresh = build_parser()
    for argv in (["expand", "s"], ["axioms", "s"], ["shapes", "s"], ["export", "s", "i"],
                 ["validate", "s", "g"], ["infer", "s", "g"], ["check", "s"]):
        assert vars(shared.parse_args(argv)) == vars(fresh.parse_args(argv))


def test_axioms_flags_do_not_reach_the_next_call(capsys):
    assert _run(["axioms", str(SCHEMA), "--no-exact-card", "--no-nl"], capsys)[0] == 0
    assert _run(["axioms", str(SCHEMA)], capsys) == (
        0, fixture_path("age-record", "ofn").read_text())


def test_tsv_does_not_reach_the_next_validate(tmp_path, capsys):
    mutated = tmp_path / "broken.nt"
    mut = next(m for m in MUTATIONS["age-record"] if m.code == "DomainViolation")
    mutated.write_text(serialize_canonical(mut.apply(load_bundle("age-record"))))
    graph = parse_ntriples(mutated.read_text())
    report = validate(parse_schema(SCHEMA.read_text()), graph)
    assert _run(["validate", str(SCHEMA), str(mutated), "--tsv"], capsys) == (
        1, render_report_tsv(report))
    assert _run(["validate", str(SCHEMA), str(mutated)], capsys) == (1, render_report(report))


def test_root_does_not_reach_the_next_call(capsys, monkeypatch):
    monkeypatch.delenv("WBFORGE_ROOT", raising=False)
    code, out = _run(["export", str(SCHEMA), str(INSTANCES), "--root", "http://other.example/"],
                     capsys)
    assert code == 0 and "http://other.example/entity/" in out
    assert _run(["export", str(SCHEMA), str(INSTANCES)], capsys) == (
        0, fixture_path("age-record", "nt").read_text())


@pytest.mark.parametrize("argv, status", [
    (["axioms"], 2),
    (["axioms", str(SCHEMA), "--bogus"], 2),
    (["frobnicate"], 2),
    (["axioms", "--help"], 0),
    (["--help"], 0),
])
def test_a_call_after_a_usage_exit_gives_the_same_bytes(argv, status, capsys):
    code, before = _run(["axioms", str(SCHEMA), "--no-exact-card"], capsys)
    assert code == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == status
    capsys.readouterr()
    assert _run(["axioms", str(SCHEMA), "--no-exact-card"], capsys) == (0, before)


def test_an_unknown_string_escape_exits_2(tmp_path, capsys):
    schema = tmp_path / "escape.wbs"
    schema.write_text('class wikibase:Item "\\q"\n', encoding="utf-8")
    assert main(["check", str(schema)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {schema}:1:21: expected 'prefix', 'flag', 'class', 'controlled' "
        "or 'statement'\n")
    instances = tmp_path / "escape.wbi"
    instances.write_text('prefix rec: <http://records.example/vocab/>\n'
                         'item wd:a1 : rec:Agent {\n  rec:hasAgeRecord -> string "\\q"\n}\n',
                         encoding="utf-8")
    assert main(["export", str(SCHEMA), str(instances)]) == 2
    assert capsys.readouterr().err == (
        f"wbforge: {instances}:3:30: expected a valid escape (found \\q)\n")


@pytest.mark.parametrize("command", ["check", "expand", "axioms", "shapes", "export",
                                     "validate", "infer"])
@pytest.mark.parametrize("axioms_first", [False, True])
def test_every_subcommand_refuses_inverse_existential_on_a_data_object(
        tmp_path, capsys, command, axioms_first):
    clauses = ["object decimal", "axioms { InverseExistential }"]
    if axioms_first:
        clauses.reverse()
    schema = tmp_path / "q.wbs"
    schema.write_text("prefix ex: <http://example.org/>\nclass ex:A\n"
                      f"statement ex:q {{ subject ex:A {' '.join(clauses)} }}\n")
    instances = tmp_path / "q.wbi"
    instances.write_text("prefix ex: <http://example.org/>\n")
    graph = tmp_path / "q.nt"
    graph.write_text("")
    extra = {"export": [str(instances)], "validate": [str(graph)], "infer": [str(graph)]}
    assert main([command, str(schema), *extra.get(command, [])]) == 2
    out, err = capsys.readouterr()
    assert (out, err) == ("", "wbforge: pattern InverseExistential is not applicable to q\n")


# `main` runs its command with the cyclic collector off and gives the
# caller back the collector as it found it


class _Escape(BaseException):
    """Stands for what no handler in `main` catches, such as a deadline's signal."""


@pytest.mark.parametrize("enabled", [True, False], ids=["caller-on", "caller-off"])
@pytest.mark.parametrize("outcome, status", [
    (0, 0), (1, 1), (WbforgeError("bad data"), 2), (_Escape(), None),
], ids=["exit-0", "exit-1", "exit-2", "escape"])
def test_main_runs_its_command_without_the_collector_and_restores_the_callers(
        monkeypatch, enabled, outcome, status):
    seen = []

    def recording_run(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, BaseException):
            raise outcome
        return outcome

    monkeypatch.setattr(cli, "run", recording_run)
    was, threshold = gc.isenabled(), gc.get_threshold()
    (gc.enable if enabled else gc.disable)()
    try:
        if status is None:
            with pytest.raises(_Escape):
                main(["check", str(SCHEMA)])
        else:
            assert main(["check", str(SCHEMA)]) == status
        after = gc.isenabled(), gc.get_threshold()
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False]
    assert after == (enabled, threshold)


def _assert_no_run_leaves_cyclic_garbage(runs, statuses, capsys):
    """Each run of `runs` exits with a status in `statuses` and leaves no
    unreachable object behind.

    Under DEBUG_SAVEALL every unreachable object a collection finds, made by
    the run or found by a collection inside it, is kept in gc.garbage. The
    parser that every run shares is built first: argparse leaves cycles
    behind while it builds one, once per process.
    """
    cli._parser()
    flags, kept = gc.get_debug(), len(gc.garbage)
    gc.collect()
    gc.set_debug(flags | gc.DEBUG_SAVEALL)
    try:
        for argv in runs:
            assert main(argv) in statuses, argv
            capsys.readouterr()
            gc.collect()
            assert len(gc.garbage) == kept, argv
    finally:
        gc.set_debug(flags)
        del gc.garbage[kept:]


def test_no_run_that_succeeds_leaves_cyclic_garbage(tmp_path, capsys):
    # The premise of running without the collector: were a run to make
    # reference cycles (say, one per triple), memory would grow without bound
    # under the CLI.
    runs = []
    for name in FIXTURE_NAMES:
        wbs, wbi, nt = (str(fixture_path(name, ext)) for ext in ("wbs", "wbi", "nt"))
        runs += [["check", wbs], ["expand", wbs], ["axioms", wbs], ["shapes", wbs],
                 ["export", wbs, wbi], ["validate", wbs, nt], ["infer", wbs, nt]]
        for i, mutation in enumerate(MUTATIONS.get(name, ())):
            mutated = tmp_path / f"{name}-{i}.nt"
            mutated.write_text(serialize_canonical(mutation.apply(load_bundle(name))),
                               encoding="utf-8")
            runs.append(["validate", wbs, str(mutated)])
    _assert_no_run_leaves_cyclic_garbage(runs, (0, 1), capsys)


def test_no_run_that_fails_leaves_cyclic_garbage(tmp_path, capsys):
    # a failed parse or export ends in a caught exception, whose traceback
    # holds the frames it passed through: none of them may hold it in turn
    files = {
        "bad.wbs": "class\n",
        "bad.wbi": "item\n",
        "bad.nt": "<http://x.example/a> <http://x.example/b> .\n",
        "undeclared.wbi": (INSTANCES.read_text(encoding="utf-8")
                           .replace("rec:hasAgeRecord", "rec:hasNoRecord", 1)),
    }
    for name, text in files.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
    bad = {name: str(tmp_path / name) for name in files}
    runs = [["check", bad["bad.wbs"]], ["export", str(SCHEMA), bad["bad.wbi"]],
            ["validate", str(SCHEMA), bad["bad.nt"]], ["infer", str(SCHEMA), bad["bad.nt"]],
            ["export", str(SCHEMA), bad["undeclared.wbi"]]]
    _assert_no_run_leaves_cyclic_garbage(runs, (2,), capsys)
