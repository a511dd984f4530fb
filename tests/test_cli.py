from __future__ import annotations

import argparse
import gc
import io
import json
import os
import re
import shlex
import subprocess
import sys
import warnings
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import SRC, run_python
from securedom import FAMILY_KINDS, REDUCTION_KIND_NAMES
from securedom.cli import build_parser, main
from securedom.graph import MAX_VERTICES
from securedom.report import METHODS
from securedom.verify import VARIANTS

P4 = "0 1\n1 2\n2 3\n"
BOWTIE = "0 1\n0 2\n1 2\n2 3\n2 4\n3 4\n"
LADDER3 = "p 6 7\n0 1\n1 2\n3 4\n4 5\n0 3\n1 4\n2 5\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(content, name="g.el"):
        path = tmp_path / name
        path.write_text(content)
        return str(path)

    return write


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gamma_exact_on_ladder(graph_file, capsys):
    code, out, _ = run(capsys, "gamma", "--variant", "scds", "--in", graph_file(LADDER3))
    assert code == 0
    assert "value 4" in out
    assert "method exact_search" in out


def test_gamma_auto_dispatches_to_block_formula(graph_file, capsys):
    code, out, _ = run(capsys, "gamma", "--variant", "scds", "--method", "auto", "--in", graph_file(BOWTIE))
    assert code == 0
    assert "value 3" in out
    assert "method block_formula" in out


def test_gamma_json_payload(graph_file, capsys):
    code, out, _ = run(capsys, "--format", "json", "gamma", "--in", graph_file(BOWTIE))
    assert code == 0
    payload = json.loads(out)
    assert payload["command"] == "gamma"
    assert payload["graph"] == {"n": 5, "m": 6}
    assert payload["value"] == 3
    assert payload["witness"] == "0,2,3"


# One quick run of each subcommand, with the input file as {graph}.
ONE_RUN_EACH = {
    "gamma": ["--in", "{graph}"],
    "verify": ["--in", "{graph}", "--set", "1,2"],
    "recognize": ["--in", "{graph}"],
    "family": ["--kind", "ladder", "--n", "3"],
    "reduce": ["--kind", "dm_to_scdm", "--in", "{graph}", "--param", "2"],
    "check-equivalence": ["--kind", "dm_to_scdm", "--in", "{graph}"],
    "crosscheck": ["--grid", "families"],
}


def test_every_subcommand_names_itself_in_its_json(graph_file, capsys):
    (sub,) = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    assert sorted(ONE_RUN_EACH) == sorted(sub.choices)
    path = graph_file(P4)
    for command, flags in ONE_RUN_EACH.items():
        code, out, _ = run(capsys, "--format", "json", command, *(f.format(graph=path) for f in flags))
        assert code == 0, command
        assert json.loads(out)["command"] == command


def test_gamma_accepts_family_input(capsys):
    code, out, _ = run(capsys, "gamma", "--family", "ladder", "--n", "3")
    assert code == 0
    assert "value 4" in out


def test_json_output_is_deterministic_apart_from_elapsed(graph_file, capsys):
    path = graph_file(BOWTIE)
    payloads = []
    for _ in range(2):
        code, out, _ = run(capsys, "--format", "json", "gamma", "--in", path)
        assert code == 0
        payload = json.loads(out)
        payload.pop("elapsed_ms")
        payloads.append(json.dumps(payload, sort_keys=True))
    assert payloads[0] == payloads[1]


def test_verify_reports_reason(graph_file, capsys):
    code, out, _ = run(capsys, "verify", "--variant", "scds", "--in", graph_file(P4), "--set", "1,2")
    assert code == 0
    assert "verdict false" in out
    assert "reason vertex 0 has no valid defender" in out
    code, out, _ = run(capsys, "verify", "--variant", "scds", "--in", graph_file(P4), "--set", "0,1,2,3")
    assert code == 0
    assert "verdict true" in out


def test_verify_runs_the_check_once_on_a_rejected_set(graph_file, capsys, monkeypatch):
    import securedom.verify as verify

    calls = []
    original = verify._first_undefended

    def counted(*args):
        calls.append(args[1])
        return original(*args)

    monkeypatch.setattr(verify, "_first_undefended", counted)
    # {1, 2} is a connected dominating set of P4 that only the swap rule rejects
    code, out, _ = run(capsys, "verify", "--variant", "scds", "--in", graph_file(P4), "--set", "1,2")
    assert code == 0
    assert "reason vertex 0 has no valid defender" in out
    assert calls == ["scds"]


def test_verify_stds_empty_set_on_empty_graph(graph_file, capsys):
    code, out, err = run(capsys, "verify", "--variant", "stds", "--set", "", "--in", graph_file("p 0 0\n"))
    assert code == 0
    assert "verdict false" in out
    assert "reason set is empty" in out
    assert "Traceback" not in err


def test_verify_not_dominated_reason(graph_file, capsys):
    code, out, _ = run(capsys, "verify", "--variant", "ds", "--in", graph_file(P4), "--set", "0")
    assert code == 0
    assert "verdict false" in out
    assert "not dominated" in out


def test_recognize_classes_and_obstruction(graph_file, capsys):
    code, out, _ = run(capsys, "--format", "json", "recognize", "--in", graph_file(BOWTIE))
    assert code == 0
    payload = json.loads(out)
    assert payload["classes"]["block_graph"] is True
    assert payload["classes"]["split"] is False
    assert payload["split_obstruction"] == {"kind": "2K2", "vertices": [0, 1, 3, 4]}


def test_family_emits_edge_list_and_witness(capsys):
    code, out, _ = run(capsys, "family", "--kind", "subdivided_wheel", "--n", "3", "--emit-witness")
    assert code == 0
    assert out.startswith("p 7 9\n")
    assert "witness 0,2,4,6" in out
    assert "value 4" in out


def test_reduce_emits_parameter_and_provenance(graph_file, capsys):
    code, out, _ = run(capsys, "reduce", "--kind", "dm_to_scdm", "--in", graph_file(P4), "--param", "2")
    assert code == 0
    assert "p 5 7" in out
    assert "parameter 3" in out
    assert "4 x" in out


def test_check_equivalence_verdict(graph_file, capsys):
    code, out, _ = run(capsys, "check-equivalence", "--kind", "dm_to_scdm", "--in", graph_file(P4))
    assert code == 0
    assert "verdict all-match" in out


def test_crosscheck_families_grid(capsys):
    code, out, _ = run(capsys, "crosscheck", "--grid", "families")
    assert code == 0
    assert "10/10 checks passed" in out


def test_parse_error_exit_code(graph_file, capsys):
    code, _, err = run(capsys, "gamma", "--in", graph_file("0 0\n"))
    assert code == 1
    assert "parse error" in err
    code, _, err = run(capsys, "gamma", "--in", str(graph_file("")) + ".missing")
    assert code == 1


def test_domain_error_exit_code(graph_file, capsys):
    disconnected = graph_file("0 1\n2 3\n")
    code, _, err = run(capsys, "gamma", "--variant", "scds", "--in", disconnected)
    assert code == 2
    assert "connected" in err
    code, _, err = run(capsys, "gamma", "--variant", "ds", "--method", "block", "--in", graph_file(P4))
    assert code == 2
    code, _, err = run(capsys, "gamma", "--variant", "scds", "--method", "threshold", "--in", graph_file(P4))
    assert code == 2
    assert "threshold" in err


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(P4))
    code, out, _ = run(capsys, "gamma", "--variant", "ds", "--in", "-")
    assert code == 0
    assert "value 2" in out


def test_verify_rejects_out_of_range_set(graph_file, capsys):
    code, _, err = run(capsys, "verify", "--variant", "ds", "--in", graph_file(P4), "--set", "9")
    assert code == 2
    assert "outside range" in err


def test_family_rejects_bad_parameter(capsys):
    code, _, err = run(capsys, "family", "--kind", "ladder", "--n", "2")
    assert code == 2
    assert "needs n >=" in err


# One step above graph.MAX_VERTICES (1e7) for each size parameter:
# ladder has 2n vertices, star n + 1.
ABOVE_VERTEX_CAP = [
    ["family", "--kind", "ladder", "--n", "5000001"],
    ["family", "--kind", "complete", "--n", "10000001"],
    ["gamma", "--family", "star", "--n", "10000000"],
]


def test_size_parameters_above_the_vertex_cap_are_refused_before_building():
    # Under a 512 MiB address-space limit, building any of these graphs runs
    # out of memory, which also exits 2; the cap text shows that each run
    # was refused before anything was built.
    result = run_python(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from securedom.cli import main\n"
        f"print([main(argv) for argv in {ABOVE_VERTEX_CAP!r}])\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr([2] * len(ABOVE_VERTEX_CAP))
    assert result.stderr.count("the cap is 10000000") == len(ABOVE_VERTEX_CAP), result.stderr


# Above families.MAX_EDGES (2e7) with vertex counts far below MAX_VERTICES:
# K_20000 has about 2e8 edges, and K_6326 is the first complete graph over.
ABOVE_EDGE_CAP = [
    ["family", "--kind", "complete", "--n", "20000"],
    ["gamma", "--family", "complete", "--n", "20000"],
    ["family", "--kind", "complete", "--n", "6326"],
]


def test_dense_families_above_the_edge_cap_are_refused_before_building():
    # Under a 512 MiB address-space limit, building K_20000 runs out of
    # memory, which also exits 2; the cap texts show that each run was
    # refused before anything was built.
    result = run_python(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from securedom.cli import main\n"
        f"print([main(argv) for argv in {ABOVE_EDGE_CAP!r}])\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr([2] * len(ABOVE_EDGE_CAP))
    assert result.stderr.splitlines() == [
        "error: family complete with n=20000 would have 199990000 edges; the cap is 20000000",
        "error: family complete with n=20000 would have 199990000 edges; the cap is 20000000",
        "error: family complete with n=6326 would have 20005975 edges; the cap is 20000000",
    ]


# Edge-list text from lines that are mostly well formed, with every
# malformed class mixed in.  Ids stay below 10 so each exact solve is quick.
_FUZZ_TOKENS = st.sampled_from(["0", "3", "7", "-1", "p", "#", "x", "1.5", "+2", "10000000"])
_FUZZ_LINES = st.one_of(
    st.tuples(st.integers(0, 7), st.integers(0, 7)).map(lambda e: f"{e[0]} {e[1]}"),
    st.tuples(st.integers(0, 9), st.integers(0, 20)).map(lambda h: f"p {h[0]} {h[1]}"),
    st.lists(_FUZZ_TOKENS, max_size=4).map(" ".join),
    st.just("# comment"),
)
_FUZZ_TEXTS = st.builds(
    lambda lines, sep: sep.join(lines),
    st.lists(_FUZZ_LINES, max_size=14),
    st.sampled_from(["\n", "\r\n", " \t\n"]),
)
_FUZZ_COMMANDS = st.one_of(
    st.just(["recognize"]),
    st.builds(
        lambda variant, method: ["gamma", "--variant", variant, "--method", method],
        st.sampled_from(VARIANTS),
        st.sampled_from(METHODS),
    ),
)


@settings(max_examples=150, deadline=None)
@given(text=_FUZZ_TEXTS, command=_FUZZ_COMMANDS, fmt=st.sampled_from(["text", "json"]))
def test_fuzzed_edge_lists_end_in_a_documented_exit_code(text, command, fmt):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["--format", fmt, *command, "--in", "-"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if code == 0:
        assert out.getvalue()
    else:
        assert out.getvalue() == ""
        prefix = "parse error: " if code == 1 else "error: "
        assert err.getvalue().splitlines()[-1].startswith(prefix)


# Integer flag values from a small range, or above every cap.  Never just
# below MAX_VERTICES: a family that size would really be built.  Values go in
# as --flag=value, so argparse takes "-2,-2" for a value, not an option.
def _flag_ints(low: int, high: int):
    return st.one_of(st.integers(low, high), st.sampled_from([MAX_VERTICES + 1, 2**31, 10**12]))


_FLAG_COMMANDS = st.one_of(
    st.builds(
        lambda variant, ids: ["verify", "--in", "-", "--variant", variant, "--set=" + ",".join(map(str, ids))],
        st.sampled_from(VARIANTS),
        st.lists(_flag_ints(-3, 7), max_size=5),
    ),
    st.builds(
        lambda kind, param: ["reduce", "--in", "-", "--kind", kind, f"--param={param}"],
        st.sampled_from(REDUCTION_KIND_NAMES),
        _flag_ints(-3, 8),
    ),
    st.builds(
        lambda kind, cap: ["check-equivalence", "--in", "-", "--kind", kind, f"--max-output-n={cap}"],
        st.sampled_from(REDUCTION_KIND_NAMES),
        _flag_ints(-3, 14),
    ),
    st.builds(
        lambda kind, n, emit: ["family", "--kind", kind, f"--n={n}", *emit],
        st.sampled_from(FAMILY_KINDS),
        _flag_ints(-3, 12),
        st.sampled_from([[], ["--emit-witness"]]),
    ),
    st.builds(
        lambda grid, max_n: ["crosscheck", "--grid", grid, "--count", "1", f"--max-n={max_n}"],
        st.sampled_from(["trees", "block", "threshold"]),
        _flag_ints(-3, 14),
    ),
)


# Each example gets a wall-clock budget: a flag that slips past a cap would
# build or search something large and blow it.
@settings(max_examples=200, deadline=2000)
@given(text=st.sampled_from([P4, BOWTIE, LADDER3]), command=_FLAG_COMMANDS, fmt=st.sampled_from(["text", "json"]))
def test_fuzzed_flags_end_in_a_documented_exit_code(text, command, fmt):
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(text)), redirect_stdout(out), redirect_stderr(err):
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = main(["--format", fmt, *command])
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code in (0, 3):
        assert out.getvalue()
    else:
        assert out.getvalue() == ""
        prefix = "parse error: " if code == 1 else "error: "
        assert err.getvalue().splitlines()[-1].startswith(prefix)


def test_check_equivalence_split_kind_recognizes_partition(graph_file, capsys):
    # P4 is split (middle edge clique, endpoints independent)
    code, out, _ = run(capsys, "check-equivalence", "--kind", "dm_split_to_scdm_split", "--in", graph_file(P4))
    assert code == 0
    assert "verdict all-match" in out


@pytest.mark.parametrize(
    ("text", "message"),
    [
        ("0 1\n2 3\n", "error: input is not a split graph: induced 2K2 on vertices [0, 1, 2, 3]\n"),
        (P4, "error: parameter must be at least 1\n"),
    ],
)
def test_split_reduce_reports_splitness_before_the_parameter(graph_file, capsys, text, message):
    code, out, err = run(
        capsys, "reduce", "--kind", "dm_split_to_scdm_split", "--param", "0", "--in", graph_file(text)
    )
    assert (code, out, err) == (2, "", message)


@pytest.mark.parametrize("kind", ["scdm_to_scdb", "stdm_to_stdb"])
@pytest.mark.parametrize(
    ("param", "message"),
    [
        ("0", "error: parameter must be at least 1\n"),
        ("1", "error: bipartite reduction requires a connected input\n"),
    ],
)
def test_bipartite_reduce_reports_the_parameter_before_connectivity(graph_file, capsys, kind, param, message):
    code, out, err = run(capsys, "reduce", "--kind", kind, "--param", param, "--in", graph_file("0 1\n2 3\n"))
    assert (code, out, err) == (2, "", message)


def test_check_equivalence_refuses_oversized_output(graph_file, capsys):
    # a 20-vertex path reduces to 21 vertices, one over the exact-solve guard
    big = "\n".join(f"{i} {i + 1}" for i in range(19))
    code, _, err = run(capsys, "check-equivalence", "--kind", "dm_to_scdm", "--in", graph_file(big))
    assert code == 2
    assert "refused" in err


def test_check_equivalence_output_cap_also_bounds_both_searches(capsys):
    # K20 reduces to K21: the cap of 21 admits the output, and the target
    # search must take the same cap instead of the exact search's default 20
    code, out, _ = run(
        capsys, "check-equivalence", "--kind", "dm_to_scdm", "--family", "complete", "--n", "20", "--max-output-n", "21"
    )
    assert code == 0
    assert "verdict all-match" in out


def test_crosscheck_grid_refusal_names_the_exact_cap(capsys):
    # --max-n bounds the grid's instances; the exact search's cap stays 20
    code, out, err = run(capsys, "crosscheck", "--grid", "trees", "--max-n", "25", "--count", "1", "--seed", "18")
    assert code == 2
    assert out == ""
    assert err == "error: trees grid refused: instance n=21 is above the exact search cap of 20\n"


def test_gamma_refuses_family_and_file_input_together(graph_file, capsys):
    code, out, err = run(capsys, "gamma", "--family", "ladder", "--n", "3", "--in", graph_file(BOWTIE))
    assert code == 2
    assert out == ""
    assert err == "error: pass either --in FILE or --family KIND --n N, not both\n"


def test_gamma_on_a_header_with_too_few_edges_is_refused_before_any_formula(tmp_path):
    # p 9999999 1 cannot be connected, so auto goes straight to the exact
    # search's size refusal; the block formula used to run out of memory
    # under a 512 MiB address-space limit first.
    path = tmp_path / "header.el"
    path.write_text("p 9999999 1\n0 1\n")
    result = run_python(
        "import resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from securedom.cli import main\n"
        f"print(main(['gamma', '--in', {str(path)!r}]))\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "2"
    assert result.stderr == "error: exact search refused for n=9999999 > 20; raise max_n to override\n"


# Texts of a few bytes whose per-vertex arrays outgrow 512 MiB: a header
# that claims 9,999,999 vertices, and one edge to the id 9,999,999.
TOO_LARGE_FOR_MEMORY = [
    ("p 9999999 1\n0 1\n", ["recognize"]),
    ("p 9999999 1\n0 1\n", ["reduce", "--kind", "dm_to_scdm", "--param", "1"]),
    ("0 9999999\n", ["recognize"]),
    ("0 9999999\n", ["verify", "--set", "0"]),
    ("0 9999999\n", ["gamma"]),
]


def test_inputs_too_large_for_memory_exit_2_without_a_traceback(tmp_path):
    runs = []
    for i, (text, argv) in enumerate(TOO_LARGE_FOR_MEMORY):
        path = tmp_path / f"{i}.el"
        path.write_text(text)
        runs.append([*argv, "--in", str(path)])
    result = run_python(
        "import contextlib, io, resource\n"
        "resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))\n"
        "from securedom.cli import main\n"
        "results = []\n"
        f"for argv in {runs!r}:\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        results.append((main(argv), out.getvalue()))\n"
        "print(results)\n"
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == repr([(2, "")] * len(TOO_LARGE_FOR_MEMORY))
    assert "Traceback" not in result.stderr
    assert result.stderr.splitlines() == (
        ["error: input is too large for the available memory"] * len(TOO_LARGE_FOR_MEMORY)
    )


def test_gamma_without_input_is_a_domain_error(capsys):
    code, _, err = run(capsys, "gamma")
    assert code == 2
    assert "no input graph" in err


# Arabic-Indic three and four: int() reads them as 3 and 4.
ARABIC_INDIC_EDGES = "\u0663 \u0664\n0 3\n"


def test_non_ascii_input_is_a_parse_error(tmp_path, capsys, monkeypatch):
    (tmp_path / "bin.el").write_bytes(b"0 1\n\xff\xfe\n")
    (tmp_path / "digits.el").write_text(ARABIC_INDIC_EDGES, encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(ARABIC_INDIC_EDGES))
    for source in (tmp_path / "bin.el", tmp_path / "digits.el", "-"):
        code, out, err = run(capsys, "recognize", "--in", str(source))
        assert (code, out) == (1, "")
        assert err.startswith("parse error: input is not ASCII edge-list text: ")


def _package_env() -> dict[str, str]:
    """The environment of a fresh ``python -m securedom`` on this checkout."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)}


def test_non_ascii_stdin_bytes_are_refused_in_a_fresh_process():
    env = _package_env()
    done = subprocess.run(
        [sys.executable, "-m", "securedom", "recognize", "--in", "-"],
        input=ARABIC_INDIC_EDGES.encode("utf-8"),
        env=env,
        capture_output=True,
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (1, b"")
    assert done.stderr.startswith(b"parse error: input is not ASCII edge-list text: ")


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_a_reader_that_closes_early_ends_in_exit_1_without_a_traceback(fmt):
    # The ladder's edge list is megabytes, far above a pipe's 64 KiB, so the
    # writer is still printing when the pipe closes.
    env = _package_env()
    with subprocess.Popen(
        [sys.executable, "-m", "securedom", "--format", fmt, "family", "--kind", "ladder", "--n", "100000"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    ) as child:
        assert child.stdout.read(16)
        child.stdout.close()
        err = child.stderr.read()
        assert child.wait(timeout=120) == 1
    assert b"Traceback" not in err and b"Exception ignored" not in err, err


def _exact_search_takes_all_1100_vertices(variant: str, text: str) -> None:
    """A fresh ``gamma --method exact`` on edge-list ``text`` answers with
    all 1100 vertices, exit 0 and no stderr."""
    done = subprocess.run(
        [sys.executable, "-m", "securedom", "gamma", "--method", "exact", "--max-n", "5000", "--variant", variant, "--in", "-"],
        input=text,
        env=_package_env(),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert (done.returncode, done.stderr) == (0, "")
    assert done.stdout.splitlines()[:3] == ["value 1100", "witness " + ",".join(map(str, range(1100))), "method exact_search"]


@pytest.mark.parametrize("variant", ["ds", "sds"])
def test_exact_search_answers_an_edgeless_graph_above_the_recursion_limit(variant):
    # an isolated vertex dominates only itself, so it lies in every
    # dominating set: the ds and sds searches force all 1100 and test that
    # set alone, with no pick left to make
    _exact_search_takes_all_1100_vertices(variant, "p 1100 0\n")


def test_exact_search_walks_more_picks_than_the_recursion_limit():
    # tds on a perfect matching forces no vertex and needs every one: the
    # witness takes 1100 picks of the walk, past Python's default limit of
    # 1000 nested calls
    matching = "".join(f"{2 * i} {2 * i + 1}\n" for i in range(550))
    _exact_search_takes_all_1100_vertices("tds", "p 1100 550\n" + matching)


def test_verify_refuses_non_ascii_digits_in_the_set(graph_file, capsys):
    path = graph_file("0 1\n1 2\n")
    code, out, err = run(capsys, "verify", "--in", path, "--set=\u0662")
    assert (code, out) == (1, "")
    assert err == "parse error: bad vertex id '\u0662' in set\n"
    # a negative ASCII id is still a domain error
    code, _, err = run(capsys, "verify", "--in", path, "--set=-2,3")
    assert code == 2
    assert err == "error: vertex -2 outside range 0..2\n"


def test_verify_names_the_empty_range_of_an_empty_graph(graph_file, capsys):
    path = graph_file("p 0 0\n")
    code, out, err = run(capsys, "verify", "--in", path, "--set=0")
    assert (code, out) == (2, "")
    assert err == "error: vertex 0 outside range: the graph has no vertices\n"
    # the tokens are read left to right, so a bad id before it still exits 1
    code, _, err = run(capsys, "verify", "--in", path, "--set=a,0")
    assert (code, err) == (1, "parse error: bad vertex id 'a' in set\n")
    code, _, err = run(capsys, "verify", "--in", path, "--set=0,a")
    assert code == 2


ONE_OF_EACH_COMMAND = [
    ["gamma"],
    ["verify", "--set", "0,2,3"],
    ["recognize"],
    ["family", "--kind", "ladder", "--n", "3"],
    ["reduce", "--kind", "dm_to_scdm", "--param", "1"],
    ["check-equivalence", "--kind", "dm_to_scdm"],
    ["crosscheck", "--grid", "families"],
]


@pytest.mark.parametrize("argv", ONE_OF_EACH_COMMAND, ids=lambda argv: argv[0])
def test_every_command_reports_one_elapsed_time_in_json_only(graph_file, capsys, argv):
    if argv[0] not in ("family", "crosscheck"):
        argv = [*argv, "--in", graph_file(BOWTIE)]
    code, out, _ = run(capsys, "--format", "json", *argv)
    assert code == 0
    assert out.count('"elapsed_ms"') == 1
    elapsed = json.loads(out)["elapsed_ms"]
    assert type(elapsed) is float and elapsed >= 0
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "elapsed" not in out


def test_failed_reverification_is_an_internal_error(graph_file, capsys, monkeypatch):
    monkeypatch.setattr("securedom.verify.check_variant", lambda graph, variant, members: False)
    code, out, err = run(capsys, "gamma", "--variant", "scds", "--in", graph_file(BOWTIE))
    assert code == 4
    assert out == ""
    assert err == (
        "internal error: block_formula witness failed scds re-verification (witness of 3 vertices, "
        "sha256 c54d94ef5f237b683906170673868d81dfe0dd2b15129d53446c0779e07d71bc)\n"
    )
    code, _, err = run(capsys, "family", "--kind", "ladder", "--n", "3", "--emit-witness")
    assert code == 4
    assert err.startswith("internal error: ladder formula witness")
    assert re.search(r"re-verification \(witness of \d+ vertices, sha256 [0-9a-f]{64}\)\n$", err)
    assert "Traceback" not in err


def test_solver_invariant_failure_is_an_internal_error(graph_file, capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("block witness size disagrees with the formula")

    monkeypatch.setattr("securedom.report.gamma", broken)
    code, _, err = run(capsys, "gamma", "--in", graph_file(BOWTIE))
    assert code == 4
    assert err == "internal error: block witness size disagrees with the formula\n"


def test_crosscheck_rejects_negative_count(capsys):
    code, out, err = run(capsys, "crosscheck", "--grid", "trees", "--count", "-1")
    assert code == 2
    assert out == ""
    assert "--count must be nonnegative" in err


@pytest.mark.parametrize("collecting", [True, False])
def test_commands_run_with_the_collector_paused_and_restore_it(graph_file, capsys, monkeypatch, collecting):
    from securedom import cli
    from securedom.graph import DomainError, ParseError

    outcomes = [
        (0, None),
        (1, ParseError("bad line")),
        (2, DomainError("wrong class")),
        (3, None),
        (4, RuntimeError("broken invariant")),
    ]
    seen = []
    path = graph_file(P4)
    was = gc.isenabled()
    show = warnings.showwarning
    try:
        (gc.enable if collecting else gc.disable)()
        for code, error in outcomes:
            def handler(args, code=code, error=error):
                seen.append(gc.isenabled())
                if error is not None:
                    raise error
                return {}, [], code

            monkeypatch.setattr(cli, "_cmd_recognize", handler)
            assert run(capsys, "recognize", "--in", path)[0] == code
            assert gc.isenabled() is collecting
            assert warnings.showwarning is show

        def crash(args):
            seen.append(gc.isenabled())
            raise KeyError("uncaught")

        monkeypatch.setattr(cli, "_cmd_recognize", crash)
        with pytest.raises(KeyError):
            main(["recognize", "--in", path])
        assert gc.isenabled() is collecting
        assert warnings.showwarning is show
    finally:
        (gc.enable if was else gc.disable)()
    assert seen == [False] * 6


def test_cli_warnings_are_one_stable_line_each(graph_file):
    duplicate = graph_file("0 1\n1 2\n1 0\n", "dup.el")
    mismatch = graph_file("p 4 5\n0 1\n1 2\n", "header.el")
    for path, expected in (
        (duplicate, "warning: 1 duplicate edge(s) collapsed\n"),
        (mismatch, "warning: header declares 5 edges but 2 unique edges parsed\n"),
    ):
        result = run_python(
            "import sys\n"
            "from securedom.cli import main\n"
            f"sys.exit(main(['gamma', '--variant', 'ds', '--in', {path!r}]))\n"
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == expected
    # warning filters still apply to the command's warnings
    result = run_python(
        "import sys\n"
        "from securedom.cli import main\n"
        f"sys.exit(main(['recognize', '--in', {duplicate!r}]))\n",
        "-W",
        "ignore",
    )
    assert (result.returncode, result.stderr) == (0, "")
    result = run_python(
        "from securedom.cli import main\n"
        f"main(['recognize', '--in', {duplicate!r}])\n",
        "-W",
        "error",
    )
    assert result.returncode == 1
    assert result.stderr.splitlines()[-1] == "UserWarning: 1 duplicate edge(s) collapsed"


LADDER4 = "p 8 10\n0 1\n1 2\n2 3\n4 5\n5 6\n6 7\n0 4\n1 5\n2 6\n3 7\n"


def _readme_command_lines() -> list[list[str]]:
    """The ``securedom`` lines of README's "Command line" block, split as a
    shell would, comments dropped."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True) for line in block.splitlines() if line.startswith("securedom ")]


def test_readme_library_example_runs_as_written():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    example = readme.split("## Library example", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    done = run_python(example)
    assert (done.returncode, done.stderr) == (0, ""), done.stderr
    assert done.stdout == "4 [0, 1, 2, 3] block_formula\n"


def test_readme_command_lines_run_as_written(tmp_path):
    # the README's commands read graph.el; a ladder on 8 vertices is small
    # enough for every exact search they start and has the vertex 7 of --set
    (tmp_path / "graph.el").write_text(LADDER4)
    env = _package_env()
    commands = _readme_command_lines()
    for argv in commands:
        done = subprocess.run(
            [sys.executable, "-m", *argv], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120
        )
        assert done.returncode == 0, (argv, done.stderr)
    subcommands = {build_parser().parse_args(argv[1:]).command for argv in commands}
    assert subcommands == {"gamma", "verify", "recognize", "family", "reduce", "check-equivalence", "crosscheck"}
