from __future__ import annotations

import json

import pytest

from securedom.cli import main

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


def test_bench_reports_timing(capsys):
    code, out, _ = run(capsys, "--format", "json", "bench", "--method", "threshold", "--n", "2000")
    assert code == 0
    payload = json.loads(out)
    assert payload["value"] == 2
    assert payload["elapsed_ms"] >= 0


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


def test_check_equivalence_split_kind_recognizes_partition(graph_file, capsys):
    # P4 is split (middle edge clique, endpoints independent)
    code, out, _ = run(capsys, "check-equivalence", "--kind", "dm_split_to_scdm_split", "--in", graph_file(P4))
    assert code == 0
    assert "verdict all-match" in out


def test_check_equivalence_refuses_oversized_output(graph_file, capsys):
    # a 20-vertex path reduces to 21 vertices, one over the exact-solve guard
    big = "\n".join(f"{i} {i + 1}" for i in range(19))
    code, _, err = run(capsys, "check-equivalence", "--kind", "dm_to_scdm", "--in", graph_file(big))
    assert code == 2
    assert "refused" in err


def test_gamma_without_input_is_a_domain_error(capsys):
    code, _, err = run(capsys, "gamma")
    assert code == 2
    assert "no input graph" in err


def test_non_ascii_input_is_a_parse_error(tmp_path, capsys):
    path = tmp_path / "bin.el"
    path.write_bytes(b"0 1\n\xff\xfe\n")
    code, _, err = run(capsys, "gamma", "--in", str(path))
    assert code == 1
    assert "not ASCII" in err
