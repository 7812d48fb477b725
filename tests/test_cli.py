import hashlib
import io
import itertools
import json
import re
import warnings

import pytest

from pcsplab.cli import main
from pcsplab.errors import FormatError
from pcsplab.polymorphisms import BlockTable, dictator, format_poly_table, parse_poly_table
from pcsplab.properties import properties_for_template
from pcsplab.solvers import (
    Instance,
    format_coloring,
    format_instance,
    generate_planted,
    parse_instance,
    solve_via_relaxation,
)
from pcsplab.structures import named_template, parse_structure


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_template_classify(capsys):
    code, out, _ = run(capsys, "template", "classify", "D1plus")
    assert code == 0 and out.strip() == "NP-hard"
    code, out, _ = run(capsys, "template", "classify", "LO_3")
    assert code == 0 and out.strip() == "open"
    code, _, err = run(capsys, "template", "classify", "NOSUCH")
    assert code == 2 and "NOSUCH" in err


def test_template_classify_refuses_a_four_element_structure(capsys):
    code, out, err = run(capsys, "template", "classify", "CH")
    assert (code, out) == (2, "")
    assert err == "error: classification needs a 3-element symmetric single ternary structure\n"


def test_template_show(capsys):
    code, out, _ = run(capsys, "template", "show", "D2plus")
    assert code == 0
    assert "domain: 3" in out
    assert "digraph arcs: 0->1 1->2" in out
    assert "plus-closed: yes" in out
    assert "classification: NP-hard" in out


def test_template_show_from_file(tmp_path, capsys):
    path = tmp_path / "one_in_three.txt"
    path.write_text("domain 2\nrel 3\nt 0 0 1\nt 0 1 0\nt 1 0 0\n")
    code, out, _ = run(capsys, "template", "show", str(path))
    assert code == 0 and "domain: 2" in out


def test_hom_compare(capsys):
    code, out, _ = run(capsys, "hom", "compare", "1in3", "NAE")
    assert code == 0 and out.strip() == "strictly_below"
    code, out, _ = run(capsys, "hom", "compare", "NAE", "T2")
    assert code == 0 and out.strip() == "incomparable"


def test_hom_lattice_named(tmp_path, capsys):
    out_file = tmp_path / "lattice.dot"
    code, out, _ = run(capsys, "hom", "lattice", "--named3", "--out", str(out_file))
    assert code == 0
    dot = out_file.read_text()
    assert "T1plus" in dot and "digraph" in dot


def test_poly_enumerate(capsys):
    code, out, err = run(capsys, "poly", "enumerate", "1in3", "1in3", "1")
    assert code == 0
    assert out.strip() == "01"
    assert "count 1" in err


def test_poly_enumerate_cap(capsys):
    code, _, err = run(capsys, "poly", "enumerate", "1in3", "1in3", "7")
    assert code == 2 and "cap" in err


@pytest.mark.parametrize(
    "argv, message",
    [
        (["poly", "enumerate", "1in3", "T1", "6"], "arity 6 exceeds the default cap 5; pass --force\n"),
        (["verify", "lemmas", "T1", "--max-arity", "6"], "max arity 6 exceeds the default cap 5; pass --force\n"),
        (["verify", "selector", "T1", "--max-arity", "6"], "max arity 6 exceeds the default cap 5\n"),
    ],
    ids=["poly enumerate", "verify lemmas", "verify selector"],
)
def test_arity_cap_refused_before_any_enumeration(capsys, monkeypatch, argv, message):
    # the cap is the command line's rule alone: it refuses before any library call enumerates a table
    from pcsplab import polymorphisms, properties

    def refuse(*args, **kwargs):
        raise AssertionError("enumerated before the arity check")

    for module in (polymorphisms, properties):
        monkeypatch.setattr(module, "enumerate_polymorphisms", refuse)
        monkeypatch.setattr(module, "enumerate_orbits", refuse)
    assert run(capsys, *argv) == (2, "", message)


def test_poly_enumerate_rejects_nonpositive_arity(capsys):
    for arity in ("0", "-1"):
        code, out, err = run(capsys, "poly", "enumerate", "1in3", "NAE", arity)
        assert (code, out, err) == (2, "", "error: arity must be >= 1\n")


def test_poly_search_sym(capsys):
    code, out, _ = run(capsys, "poly", "search-sym", "1in3", "T2", "7")
    assert code == 0 and "f(0)=" in out
    code, out, _ = run(capsys, "poly", "search-sym", "1in3", "T2", "6")
    assert code == 1 and "none" in out


def test_poly_search_sym_json(capsys):
    code, out, _ = run(capsys, "poly", "search-sym", "1in3", "T2", "7", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["found"] is True and len(payload["values"]) == 8


# exact stdout of the search --json schemas: search-sym carries "trace", search-block does not
SEARCH_JSON_PINS = [
    (("search-sym", "1in3", "T2", "6"), 1, '{"found": false, "nodes": 1, "values": null, "trace": {"events": []}}\n'),
    (("search-sym", "1in3", "T2", "7"), 0,
     '{"found": true, "nodes": 4, "values": [0, 1, 2, 0, 1, 2, 0, 1], "trace": null}\n'),
    (("search-block", "1in3", "NAE", "3", "2"), 0,
     '{"found": true, "nodes": 5, "values": [1, 0, 0, 1, 0, 0, 1, 0, 0, 1, 0, 0]}\n'),
]


@pytest.mark.parametrize("argv, code, stdout", SEARCH_JSON_PINS)
def test_poly_search_json_pinned(capsys, argv, code, stdout):
    assert run(capsys, "poly", *argv, "--json")[:2] == (code, stdout)


def test_poly_search_block(capsys):
    code, out, _ = run(capsys, "poly", "search-block", "1in3", "NAE", "3", "2")
    assert code == 0 and "g(0,*):" in out
    code, out, _ = run(capsys, "poly", "search-block", "1in3", "CHplus", "23", "24")
    assert code == 1 and "none" in out and "symmetric arity-23 subproblem" in out


def test_poly_verify_table(tmp_path, capsys):
    good = tmp_path / "good.poly"
    good.write_text(format_poly_table(dictator(2, 1)))
    code, out, _ = run(capsys, "poly", "verify", str(good), "--template", "1in3", "1in3")
    assert code == 0 and "valid" in out

    bad = tmp_path / "bad.poly"
    bad.write_text("poly 1 2\n0 0\n1 0\n")
    code, out, _ = run(capsys, "poly", "verify", str(bad), "--template", "1in3", "1in3")
    assert code == 1 and "not a polymorphism" in out


def test_poly_verify_needs_a_table_or_the_replay(capsys):
    code, out, err = run(capsys, "poly", "verify")
    assert (code, out) == (2, "")
    assert err == "poly verify needs a table file plus --template SRC TGT, or --appendix-b\n"


def test_poly_verify_arity_10_dictator_against_nae(tmp_path, capsys):
    # the same tables as the CI step: a dictator holds, and flipping its full-set value breaks (full, {}, {})
    table = dictator(10, 1)
    good = tmp_path / "dictator.poly"
    good.write_text(format_poly_table(table))
    assert run(capsys, "poly", "verify", str(good), "--template", "1in3", "NAE")[:2] == (0, "valid polymorphism\n")
    flipped = tmp_path / "flipped.poly"
    flipped.write_text(format_poly_table(BlockTable((1,) * 10, 2, table.values[:-1] + (1 - table.values[-1],))))
    assert run(capsys, "poly", "verify", str(flipped), "--template", "1in3", "NAE")[:2] == (1, "not a polymorphism\n")


def test_poly_verify_appendix_b(capsys):
    code, out, _ = run(capsys, "poly", "verify", "--appendix-b")
    assert code == 0
    for line in (
        "force f(7) = 1 via (7, 8, 8)",
        "force f(9) = 2 via (7, 7, 9)",
        "force f(5) = 3 via (5, 9, 9)",
        "force f(13) = 0 via (5, 5, 13)",
        "force f(2) = 1 via (2, 8, 13)",
        "force f(14) = 2 via (2, 7, 14)",
        "force f(0) = 3 via (0, 9, 14)",
        "contradiction at f(6)",
        "  f(6) = 0 refuted: empty candidates at f(9)",
        "  f(6) = 1 refuted: empty candidates at f(4)",
        "  f(6) = 2 refuted: empty candidates at f(8)",
        "  f(6) = 3 refuted: empty candidates at f(3)",
        "no symmetric polymorphism of arity 23 exists",
    ):
        assert line in out


def test_verify_lemmas(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "D2plus", "--max-arity", "3")
    assert code == 0
    assert "D2_unions: ok" in out


def test_verify_lemmas_json(capsys):
    code, out, _ = run(capsys, "verify", "lemmas", "CH", "--max-arity", "2", "--json")
    assert code == 0
    records = json.loads(out)
    assert [record["property"] for record in records] == list(properties_for_template("CH"))
    keys = {"template", "property", "arities", "examined", "counterexamples", "elapsed_ms"}
    assert all(set(record) == keys for record in records)
    code, text, _ = run(capsys, "verify", "lemmas", "CH", "--max-arity", "2")
    assert code == 0
    examined = [int(re.search(r"\(examined (\d+), ", line).group(1)) for line in text.splitlines()]
    assert [record["examined"] for record in records] == examined


def test_verify_lemmas_bound_guard(capsys):
    code, _, err = run(capsys, "verify", "lemmas", "D1plus", "--max-arity", "99")
    assert code == 2 and "cap" in err


def test_verify_empty_arity_range_is_an_error(capsys):
    for action in ("lemmas", "selector"):
        code, out, err = run(capsys, "verify", action, "T1", "--max-arity", "0")
        assert code == 2 and out == "" and err.startswith("error:"), action


def test_verify_selector_bound_guard(capsys):
    # the selector has no --force, so its message must not offer one
    code, out, err = run(capsys, "verify", "selector", "T1", "--max-arity", "6")
    assert code == 2 and out == ""
    assert err == "max arity 6 exceeds the default cap 5\n"


def test_verify_lemmas_unknown_template(capsys):
    code, _, err = run(capsys, "verify", "lemmas", "T2", "--max-arity", "2")
    assert code == 2 and "no catalog properties" in err


def test_verify_selector(capsys):
    code, out, _ = run(capsys, "verify", "selector", "T1", "--max-arity", "2")
    assert code == 0 and "SEL_T1" in out and "ok" in out


def test_verify_selector_unknown_template(capsys):
    code, out, err = run(capsys, "verify", "selector", "NAE")
    assert (code, out) == (2, "")
    assert err == "no selector for template 'NAE'\n"


def test_verify_selector_json(capsys):
    code, out, _ = run(capsys, "verify", "selector", "D1plus", "--max-arity", "2", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload[0]["selector"] == "SEL_D1" and payload[0]["violations"] == []


def test_gen_and_solve_round_trip(tmp_path, capsys):
    instance_file = tmp_path / "planted.hyp"
    code, _, _ = run(capsys, "gen", "20", "30", "42", "--out", str(instance_file))
    assert code == 0
    text = instance_file.read_text()
    instance = parse_instance(text)
    assert instance.variable_count == 20 and len(instance.edges) == 30

    code, out, _ = run(capsys, "solve", "T2", str(instance_file))
    assert code == 0
    assert out.count("v ") == 20


# SHA-256 of exit code and stdout of `gen 240 180 S | solve T [--prefer nae]`
# over the cases below, recorded when hnf_solve's pivot key took the column's
# count of entries; the cyclic-route stdout was the same under the old key
GEN_SOLVE_DIGEST = "e4fd229e6b7fbacf68315e5df1235f40b23f461c5d8ee07ead2373b48546b3ba"


def test_gen_solve_pinned(monkeypatch, capsys):
    sha = hashlib.sha256()
    for seed in ("1", "2"):
        code, instance_text, _ = run(capsys, "gen", "240", "180", seed)
        assert code == 0
        for target in ("T2", "NAE", "Splus"):
            for prefer in ((), ("--prefer", "nae")):
                monkeypatch.setattr("sys.stdin", io.StringIO(instance_text))
                code, out, _ = run(capsys, "solve", target, *prefer)
                sha.update(f"{code}\n{out}".encode())
    assert sha.hexdigest() == GEN_SOLVE_DIGEST


# SHA-256 of `gen` stdout, recorded before the second zero of an edge was
# drawn by index into the zeros
@pytest.mark.parametrize(
    "argv, digest",
    [
        (("240", "180", "7"), "40a38af43802c24513a82eda9c53e546637032a80fed56551fb6b7a31784fdc1"),
        (("1000", "2000", "3"), "7c236409b6e098086c35c163f08aad29e90976a6af2f8e7883ad2a9325843909"),
    ],
)
def test_gen_stdout_pinned(capsys, argv, digest):
    code, out, _ = run(capsys, "gen", *argv)
    assert code == 0 and hashlib.sha256(out.encode()).hexdigest() == digest


def test_one_parser_serves_successive_calls(monkeypatch, capsys):
    # main() parses every call with the module's one parser: no option of one
    # call may leak into the next.  Both routes reach C, with different colorings.
    instance, planted = generate_planted(20, 30, 1)
    outputs = {}
    for route, prefer in (("nae", ("--prefer", "nae")), ("t2", ())):
        monkeypatch.setattr("sys.stdin", io.StringIO(format_instance(instance, planted)))
        code, outputs[route], _ = run(capsys, "solve", "C", *prefer)
        assert code == 0
        assert outputs[route] == format_coloring(solve_via_relaxation(instance, named_template("C"), prefer=route))
    assert outputs["nae"] != outputs["t2"]

    code, out, _ = run(capsys, "hom", "lattice", "--all3")
    assert code == 0 and out.count(" [label=") == 21
    code, out, _ = run(capsys, "hom", "lattice")
    assert code == 0 and out.count(" [label=") == 19

    with pytest.raises(SystemExit) as exc:
        main(["solve", "T2", "--prefer", "sat"])
    assert exc.value.code == 2 and "--prefer" in capsys.readouterr().err
    code, out, _ = run(capsys, "template", "classify", "T2")
    assert (code, out) == (0, "P\n")


def test_solve_insoluble_edge(tmp_path, capsys):
    path = tmp_path / "bad.hyp"
    path.write_text(format_instance(Instance(1, ((1, 1, 1),))))
    code, out, _ = run(capsys, "solve", "NAE", str(path))
    assert code == 1 and "no NAE-coloring found" in out


def test_solve_unsupported_target(tmp_path, capsys):
    path = tmp_path / "ok.hyp"
    path.write_text(format_instance(Instance(3, ((1, 2, 3),))))
    code, _, err = run(capsys, "solve", "LO_3", str(path))
    assert code == 2 and "relaxation" in err


def test_solve_parse_error(tmp_path, capsys):
    path = tmp_path / "broken.hyp"
    path.write_text("p hyp3 2\n")
    code, _, err = run(capsys, "solve", "T2", str(path))
    assert code == 2 and "error" in err


@pytest.mark.parametrize(
    "parse, text, message",
    [
        (parse_structure, "domain x\n", "line 1: invalid literal"),
        (parse_structure, "domain 2\nrel 3\n\nt 0 0 x\n", "line 4: invalid literal"),
        (parse_instance, "p hyp3 x 1\n", "line 1: invalid literal"),
        (parse_instance, "p hyp3 2 1\ne 1 2 x\n", "line 2: invalid literal"),
        (parse_poly_table, "poly 1 2\n0 x\n1 1\n", "line 2: invalid literal"),
        (parse_poly_table, "poly -1 2\n", "line 1: arity must be >= 1"),
        (parse_poly_table, "poly 20000 2\n0 0\n", r"expected 2\*\*20000 table rows, got 1"),
        (parse_poly_table, "", "missing poly header"),
        (parse_poly_table, "poly 1 2\n0 0 0\n1 1\n", "line 2: expected '<bits> <value>'"),
        (parse_poly_table, "poly 1 2\n2 0\n1 1\n", "line 2: bad subset bits"),
        (parse_structure, "domain 2\ndomain 2\n", "line 2: bad domain header"),
        (parse_structure, "domain 2\nt 0 0 1\n", "line 2: tuple before any rel header"),
        (parse_structure, "", "missing domain header"),
        (parse_instance, "p hyp3 3 1\ne 1 2\n", "line 2: edge needs three entries"),
        (parse_instance, "", "missing problem header"),
    ],
    ids=[
        "structure-domain", "structure-tuple", "instance-header", "instance-edge", "table-value", "table-arity", "table-rows",
        "table-empty", "table-row-fields", "table-bits", "structure-second-domain", "structure-tuple-first",
        "structure-empty", "instance-short-edge", "instance-empty",
    ],
)
def test_parsers_name_the_line_of_a_bad_field(parse, text, message):
    with pytest.raises(FormatError, match=message):
        parse(text)


def test_poly_table_parser_skips_comments_and_blank_lines():
    table = parse_poly_table("# c\n\npoly 1 2\n0 0  # empty set\n1 1\n")
    assert table.values == (0, 1)


def test_solve_bad_field_names_its_line(tmp_path, capsys):
    path = tmp_path / "broken.hyp"
    path.write_text("p hyp3 3 1\ne 1 2 three\n")
    code, out, err = run(capsys, "solve", "T2", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: line 2: invalid literal")


def test_search_time_budget_zero(capsys):
    code, _, err = run(capsys, "poly", "search-sym", "1in3", "CHplus", "23", "--time-budget", "0")
    assert code == 2 and "budget" in err


def test_search_budget_covers_building_the_network(capsys):
    # at arity 2000 the network has 334,334 triples; a zero budget stops before any is built
    code, out, err = run(capsys, "poly", "search-sym", "1in3", "T2", "2000", "--time-budget", "0")
    assert (code, out) == (2, "")
    assert err == "aborted: search ran past its time budget after 0 nodes, while building its network\n"


def test_search_budget_covers_loading_the_target(monkeypatch, capsys):
    # the clock passes the deadline while the target loads, so the network build stops the search before the
    # wlog colours are found: a deadline taken after loading would let the search run on
    from pcsplab import cli, errors, symmetric

    now = [0.0]
    load = cli._load_structure

    def slow_load(arg):
        now[0] += 1.0
        return load(arg)

    def no_wlog(target):
        raise AssertionError("the wlog colours were found past the time budget")

    monkeypatch.setattr(errors.time, "monotonic", lambda: now[0])
    monkeypatch.setattr(cli, "_load_structure", slow_load)
    monkeypatch.setattr(symmetric, "_wlog_colors", no_wlog)
    code, out, err = run(capsys, "poly", "search-sym", "1in3", "LO_60", "5", "--time-budget", "0.5")
    assert (code, out) == (2, "")
    assert err == "aborted: search ran past its time budget after 0 nodes, while building its network\n"


@pytest.mark.parametrize("budget", ["nan", "-1"])
def test_time_budget_must_be_seconds_at_least_zero(capsys, budget):
    # no clock ever passes a NaN deadline, so it would turn the budget off
    with pytest.raises(SystemExit) as exc:
        main(["poly", "search-sym", "1in3", "T2", "2000", "--time-budget", budget])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--time-budget" in err


def test_search_sym_large_linear_order_within_budget(capsys):
    # the budget's clock also runs while the wlog colours are found from the automorphisms of LO_9
    code, out, _ = run(capsys, "poly", "search-sym", "1in3", "LO_9", "5", "--time-budget", "5")
    assert code == 0 and out.startswith("f(0)=")


@pytest.mark.parametrize("target", ["LO_12", "NAE_9"])
def test_search_sym_large_targets_within_budget(capsys, target):
    # support rows are built per mask that occurs, and the orbits never list NAE_9's 9! automorphisms
    code, out, _ = run(capsys, "poly", "search-sym", "1in3", target, "5", "--time-budget", "5")
    assert code == 0 and out.startswith("f(0)=")


def test_poly_enumerate_time_budget(capsys):
    code, _, err = run(capsys, "poly", "enumerate", "1in3", "D1plus", "5", "--force", "--time-budget", "0.001")
    assert code == 2 and "aborted:" in err and "budget" in err


def test_poly_enumerate_abort_builds_the_print_order_at_most_once(capsys, monkeypatch):
    # the command line builds its print order on the first table and the enumerator builds its own after the
    # network, so an abort in the network build builds none
    from pcsplab import polymorphisms

    calls = []
    original = polymorphisms.subset_masks
    monkeypatch.setattr(polymorphisms, "subset_masks", lambda n: calls.append(n) or original(n))
    code, out, err = run(capsys, "poly", "enumerate", "1in3", "NAE", "12", "--force", "--time-budget", "0")
    assert code == 2 and out == "" and "aborted:" in err
    assert calls == []


def test_poly_enumerate_past_cap_notice(capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = run(capsys, "poly", "enumerate", "1in3", "T1", "6", "--force", "--time-budget", "0.05")
    assert code == 2 and "aborted:" in err
    assert err.startswith("note: arity 6 is past the default cap 5")
    assert "UserWarning" not in err and ".py:" not in err and not caught


def test_verify_lemmas_past_cap_notice(capsys):
    # the same one-line notice as poly enumerate, and no library warning with a source location
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "verify", "lemmas", "CH", "--max-arity", "6", "--force")
    assert code == 0 and out.count(": ok (examined 224, ") == 3
    assert err == "note: arity 6 is past the default cap 5; table space is large\n" and not caught


def test_hom_lattice_time_budget(capsys):
    code, out, err = run(capsys, "hom", "lattice", "--all3", "--time-budget", "0.01")
    assert code == 2 and out == "" and err.startswith("aborted: ") and "budget" in err


def test_verify_selector_time_budget(capsys):
    code, out, err = run(capsys, "verify", "selector", "T1", "--max-arity", "4", "--time-budget", "0.01")
    assert code == 2 and out == "" and err.startswith("aborted: ") and "budget" in err


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["template"])
    assert exc.value.code == 2


def test_verify_lemmas_has_no_jobs_option(capsys):
    # the fact suite is one enumeration pass in one process
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemmas", "CH", "--jobs", "2"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lemmas", "--help"])
    assert exc.value.code == 0 and "--jobs" not in capsys.readouterr().out


def test_hom_lattice_has_no_jobs_option(capsys):
    # the lattice is built by class insertion in one process
    with pytest.raises(SystemExit) as exc:
        main(["hom", "lattice", "--jobs", "2"])
    assert exc.value.code == 2 and "--jobs" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["hom", "lattice", "--help"])
    assert exc.value.code == 0 and "--jobs" not in capsys.readouterr().out


def test_poly_search_sym_json_failure_carries_trace(capsys):
    code, out, _ = run(capsys, "poly", "search-sym", "1in3", "T2", "6", "--json")
    assert code == 1
    payload = json.loads(out)
    assert payload["found"] is False and "trace" in payload


def test_poly_verify_appendix_b_json(capsys):
    code, out, _ = run(capsys, "poly", "verify", "--appendix-b", "--json")
    assert code == 0
    payload = json.loads(out)
    assert payload["automorphism_transitive"] is True
    head = payload["certificates"][0]
    assert [(f["weight"], f["color"]) for f in head["forced"]] == [
        (7, 1), (9, 2), (5, 3), (13, 0), (2, 1), (14, 2), (0, 3)
    ]
    assert head["contradiction_weight"] == 6
    assert all(cert["complete"] for cert in payload["certificates"])
    # exact stdout, recorded before the certificate dicts moved into ForcingCertificate.to_dict
    assert hashlib.sha256(out.encode()).hexdigest() == "ce9110748d79001521d8118d1abf213fa7a4abd945ef7980d25ca5c570f24dbf"


def test_solve_reads_stdin(monkeypatch, capsys):
    instance, planted = generate_planted(6, 8, 99)
    monkeypatch.setattr("sys.stdin", io.StringIO(format_instance(instance, planted)))
    code = main(["solve", "NAE"])
    out = capsys.readouterr().out
    assert code == 0 and out.count("v ") == 6


def test_solve_time_budget_zero_aborts(monkeypatch, capsys):
    instance, planted = generate_planted(240, 180, 7)
    for prefer, unit in (((), "columns"), (("--prefer", "nae"), "rows")):  # Splus admits both routes
        monkeypatch.setattr("sys.stdin", io.StringIO(format_instance(instance, planted)))
        code, out, err = run(capsys, "solve", "Splus", *prefer, "--time-budget", "0")
        assert (code, out) == (2, "")
        assert err.startswith("aborted: solve ran past its time budget after 0 of ") and unit in err


def test_solve_time_budget_must_be_seconds(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["solve", "NAE", "--time-budget", "nan"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2 and out == "" and "--time-budget" in err


def test_solve_failure_label_names_target(tmp_path, capsys):
    path = tmp_path / "bad.hyp"
    path.write_text(format_instance(Instance(1, ((1, 1, 1),))))
    code, out, _ = run(capsys, "solve", "T2", str(path))
    assert code == 1 and "no T2-coloring found" in out


SEARCH_SYM, SEARCH_BLOCK = ("search-sym", "NAE", "NAE", "4"), ("search-block", "NAE", "NAE", "2", "2")
VERIFY = ("verify", "{table}", "--template", "NAE", "NAE")


@pytest.mark.parametrize(
    "argv",
    [
        SEARCH_SYM,
        (*SEARCH_SYM, "--json"),
        SEARCH_BLOCK,
        (*SEARCH_BLOCK, "--json"),
        ("enumerate", "NAE", "NAE", "2"),
        VERIFY,
        (*VERIFY, "--json"),
    ],
    ids=[
        "text-search-sym", "json-search-sym", "text-search-block", "json-search-block",
        "text-enumerate", "text-verify", "json-verify",
    ],
)
def test_poly_search_rejects_other_sources(tmp_path, capsys, argv):
    # weight tables are checked and searched only against the exactly-one-1 source, on every poly command that takes a pair
    table = tmp_path / "dictator.poly"
    table.write_text(format_poly_table(dictator(2, 1)))
    code, out, err = run(capsys, "poly", *(arg.format(table=table) for arg in argv))
    assert (code, out) == (2, "")
    assert err == "error: partition compatibility requires the exactly-one-1 Boolean source\n"


@pytest.mark.parametrize(
    "argv", [("search-sym", "1in3", "{target}", "4"), ("enumerate", "1in3", "{target}", "2")], ids=["search-sym", "enumerate"]
)
def test_poly_refuses_a_pair_without_a_homomorphism(tmp_path, capsys, argv):
    # 1in3 repeats a value in every tuple, so it has no homomorphism to the six rainbow triples on 3 elements
    target = tmp_path / "rainbow.txt"
    target.write_text("domain 3\nrel 3\n" + "".join(f"t {a} {b} {c}\n" for a, b, c in itertools.permutations(range(3))))
    code, out, err = run(capsys, "poly", *(arg.format(target=target) for arg in argv))
    assert (code, out) == (2, "")
    assert err == "error: invalid template: no homomorphism from source to target\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("search-sym", "1in3", "T2", "0"), "arity must be >= 1"),
        (("search-block", "1in3", "T2", "0", "3"), "block sizes must be >= 1"),
        (("search-block", "1in3", "T2", "3", "0"), "block sizes must be >= 1"),
    ],
    ids=["sym-0", "block-0-3", "block-3-0"],
)
def test_poly_search_refuses_an_empty_shape(capsys, argv, message):
    # the blocks (0, 3) have 4 cells, so without its guard that search would build a network and run
    code, out, err = run(capsys, "poly", *argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}\n"
