import json
import math

import numpy as np
import pytest

from interlace import ParseError, ValidationError, parse_ensemble, serialize_ensemble
from interlace.cli import main
from interlace.generate import gen_instance


def write(tmp_path, name, doc):
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return str(p)


def test_parse_minimal_file(tmp_path):
    path = write(tmp_path, "m.json", {"dim": 1, "matrices": [[[[2.0, 0.0]]]]})
    ef = parse_ensemble(path)
    ens = ef.ensemble()
    assert ens.dim == 1
    assert ens[0].entries[0, 0] == 2.0


def test_parse_rejects_mismatched_dims(tmp_path):
    path = write(tmp_path, "bad.json", {"dim": 2, "matrices": [[[[1.0, 0.0]]]]})
    with pytest.raises(ValidationError):
        parse_ensemble(path)


def test_parse_rejects_non_hermitian(tmp_path):
    doc = {
        "dim": 2,
        "matrices": [[[[0.0, 0.0], [1.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
    }
    path = write(tmp_path, "nh.json", doc)
    with pytest.raises(ValidationError, match="NotHermitian"):
        parse_ensemble(path)


def test_parse_rejects_bad_json(tmp_path):
    p = tmp_path / "garbage.json"
    p.write_text("{not json")
    with pytest.raises(ParseError):
        parse_ensemble(str(p))


@pytest.mark.parametrize(
    "doc",
    [
        {"dim": True, "matrices": [[[[1.0, 0.0]]]]},
        {"dim": 1, "matrices": [[[[True, False]]]]},
        {"dim": 1, "matrices": [[[[1.0, False]]]]},
    ],
)
def test_parse_rejects_booleans(tmp_path, doc):
    with pytest.raises(ParseError):
        parse_ensemble(write(tmp_path, "b.json", doc))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 10**400])
def test_cli_rejects_non_finite_entries(tmp_path, capsys, bad):
    doc = {
        "dim": 2,
        "matrices": [[[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [bad, 0.0]]]],
        "distributions": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}],
    }
    path = write(tmp_path, "nonfinite.json", doc)
    with pytest.raises(ParseError, match="finite"):
        parse_ensemble(path)
    assert main(["discrepancy", "--input", path]) == 1
    assert capsys.readouterr().err.startswith("error:")


def test_gen_is_deterministic_and_round_trips(tmp_path):
    a = serialize_ensemble(gen_instance("psd-trace-capped", 3, 4, 0.25, seed=9))
    b = serialize_ensemble(gen_instance("psd-trace-capped", 3, 4, 0.25, seed=9))
    assert a == b
    p = tmp_path / "i.json"
    p.write_text(a)
    ef = parse_ensemble(str(p))
    assert serialize_ensemble(ef) == a


def test_gen_rank_one_matrices():
    ef = gen_instance("rank-one", 4, 5, 0.25, seed=3)
    for M in ef.matrices:
        w = np.linalg.eigvalsh(M)
        assert w[-2] <= 1e-10


def test_cli_discrepancy_exit_codes(tmp_path, capsys):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "psd-trace-capped", "--dim", "3", "--count", "4",
                 "--epsilon", "0.3", "--seed", "1", "--out", str(inst)]) == 0
    assert main(["discrepancy", "--input", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "achieved_recomputed" in out
    # injected violation must flip the exit code and print the inequality
    assert main(["discrepancy", "--input", str(inst), "--inject-violation"]) == 2
    assert "VIOLATED" in capsys.readouterr().out


def test_cli_mcp_eval_non_real_rooted_pair(tmp_path, capsys):
    doc = {
        "dim": 2,
        "matrices": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
    }
    path = write(tmp_path, "h.json", doc)
    assert main(["mcp-eval", "--input", path, "--signs", "1,1"]) == 0
    out = capsys.readouterr().out
    assert "[2, 0, 1]" in out
    assert "real_rooted" in out and "False" in out


def test_cli_input_error_exit_code(tmp_path, capsys):
    missing = str(tmp_path / "nope.json")
    assert main(["discrepancy", "--input", missing]) == 1


def test_cli_lyapunov_and_partition(tmp_path, capsys):
    lyap = tmp_path / "lyap.json"
    assert main(["gen", "--kind", "lyapunov", "--dim", "3", "--count", "5",
                 "--epsilon", "0.2", "--seed", "2", "--out", str(lyap)]) == 0
    assert main(["lyapunov", "--input", str(lyap)]) == 0
    ksr = tmp_path / "ksr.json"
    assert main(["gen", "--kind", "ksr", "--dim", "3", "--count", "5",
                 "--seed", "2", "--out", str(ksr)]) == 0
    assert main(["partition", "--input", str(ksr)]) == 0
    out = capsys.readouterr().out
    assert "block[0]" in out


def test_cli_json_report(tmp_path):
    inst = tmp_path / "i.json"
    rep = tmp_path / "rep.json"
    main(["gen", "--kind", "psd-trace-capped", "--dim", "2", "--count", "3",
          "--epsilon", "0.4", "--seed", "5", "--out", str(inst)])
    assert main(["discrepancy", "--input", str(inst), "--json", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert doc["command"] == "discrepancy"
    assert doc["failures"] == []
    assert "achieved_recomputed" in doc


def test_cli_verify_single_suite(capsys):
    assert main(["verify", "--suite", "oracle", "--seed", "3", "--scale", "0.1"]) == 0
    out = capsys.readouterr().out
    assert "[PASS] oracle/oracle-linear-mode" in out


def test_cli_discrepancy_fair_signs_diag_pair(tmp_path, capsys):
    doc = {
        "dim": 2,
        "matrices": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]],
            [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
        "distributions": [
            {"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
            {"values": [-1.0, 1.0], "probs": [0.5, 0.5]},
        ],
    }
    path = write(tmp_path, "pair.json", doc)
    assert main(["discrepancy", "--input", path]) == 0
    out = capsys.readouterr().out
    assert "sigma" in out and "1.0" in out
    assert "bound" in out and "4.0" in out


def test_cli_epsilon_override(tmp_path):
    doc = {
        "dim": 2,
        "matrices": [[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "weights": [0.5],
        "epsilon_override": 0.5,
    }
    path = write(tmp_path, "ly.json", doc)
    assert main(["lyapunov", "--input", path]) == 0
    doc["epsilon_override"] = 0.1  # below the actual maximum trace
    path = write(tmp_path, "ly2.json", doc)
    assert main(["lyapunov", "--input", path]) == 1


@pytest.mark.parametrize("command", ["lyapunov", "partition"])
@pytest.mark.parametrize("cap", [0.1, math.nan, math.inf])
def test_cli_bad_epsilon_override_is_input_error(tmp_path, capsys, command, cap):
    doc = {
        "dim": 2,
        "matrices": [[[[0.25, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]],
        "weights": [0.5],
        "proportions": [1.0],
        "epsilon_override": cap,
    }
    path = write(tmp_path, "cap.json", doc)
    assert main([command, "--input", path]) == 1
    assert "declared trace cap" in capsys.readouterr().err
