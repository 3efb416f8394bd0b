import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from interlace import ParseError, ValidationError, parse_ensemble, serialize_ensemble, solve_kls
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


def test_cli_discrepancy_exit_codes(tmp_path, capsys, monkeypatch):
    inst = tmp_path / "inst.json"
    assert main(["gen", "--kind", "psd-trace-capped", "--dim", "3", "--count", "4",
                 "--epsilon", "0.3", "--seed", "1", "--out", str(inst)]) == 0
    assert main(["discrepancy", "--input", str(inst)]) == 0
    out = capsys.readouterr().out
    assert "achieved_recomputed" in out

    # a bound below the achieved norm must flip the exit code and print the inequality
    def violated(*args, **kwargs):
        res = solve_kls(*args, **kwargs)
        return dataclasses.replace(res, bound=res.achieved - 1.0)

    monkeypatch.setattr("interlace.cli.solve_kls", violated)
    assert main(["discrepancy", "--input", str(inst)]) == 2
    assert "VIOLATED" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flag, bad, name",
    [("--epsilon", "nan", "epsilon"), ("--epsilon", "inf", "epsilon"),
     ("--signs", "nan,1,1", "--signs"), ("--signs", "1,inf,1", "--signs")],
)
def test_cli_rejects_non_finite_arguments(tmp_path, capsys, flag, bad, name):
    inst = str(tmp_path / "inst.json")
    gen = ["gen", "--kind", "psd-trace-capped", "--dim", "2", "--count", "3", "--out", inst]
    assert main(gen) == 0
    argv = gen + [flag, bad] if flag == "--epsilon" else ["mcp-eval", "--input", inst, flag, bad]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and name in err, err


@pytest.mark.parametrize("kind", ["psd-trace-capped", "rank-one", "lyapunov", "ksr"])
@pytest.mark.parametrize("flag, bad", [("--dim", "0"), ("--count", "0"), ("--count", "-2")])
def test_cli_gen_rejects_sizes_below_one(capsys, kind, flag, bad):
    sizes = {"--dim": "2", "--count": "3", flag: bad}
    assert main(["gen", "--kind", kind] + [x for item in sizes.items() for x in item]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and flag in err, err


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf", "-0.5"])
def test_cli_verify_rejects_bad_scale_before_running(capsys, bad):
    assert main(["verify", "--suite", "oracle", f"--scale={bad}"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "", cap.out
    assert cap.err.startswith("error:") and "--scale" in cap.err, cap.err


def test_cli_discrepancy_rejects_negative_compare_random(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--kind", "psd-trace-capped", "--dim", "2", "--count", "3", "--out", inst]) == 0
    capsys.readouterr()
    assert main(["discrepancy", "--input", inst, "--compare-random", "-3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "--compare-random" in err, err
    # zero still means no sampling
    assert main(["discrepancy", "--input", inst, "--compare-random", "0"]) == 0
    assert "random_outcomes_norms" not in capsys.readouterr().out


@pytest.mark.parametrize("command", ["verify", "gen", "discrepancy"])
def test_cli_rejects_negative_seed(tmp_path, capsys, command):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--kind", "psd-trace-capped", "--dim", "2", "--count", "3", "--out", inst]) == 0
    capsys.readouterr()
    argv = {
        "verify": ["verify", "--suite", "oracle"],
        "gen": ["gen", "--kind", "ksr", "--dim", "2", "--count", "3"],
        "discrepancy": ["discrepancy", "--input", inst, "--compare-random", "3"],
    }[command]
    assert main(argv + ["--seed", "-1"]) == 1
    cap = capsys.readouterr()
    assert cap.out == "", cap.out
    assert cap.err.startswith("error:") and "--seed" in cap.err, cap.err


@pytest.mark.parametrize("kind, d, m", [("ksr", 2, 0), ("psd-trace-capped", 0, 3), ("lyapunov", -1, -1)])
def test_gen_instance_rejects_sizes_below_one(kind, d, m):
    with pytest.raises(ValueError, match=f"d={d}, m={m}"):
        gen_instance(kind, d, m, 0.25, 0)


def test_gen_instance_rejects_sizes_above_the_guard():
    from interlace import SizeGuard
    from interlace.mixedchar import MAX_DIM

    with pytest.raises(SizeGuard):
        gen_instance("psd-trace-capped", MAX_DIM + 1, 3, 0.25, 0)


def test_cli_gen_without_out_prints_a_readable_instance(tmp_path, capsys):
    assert main(["gen", "--kind", "lyapunov", "--dim", "2", "--count", "3", "--seed", "4"]) == 0
    p = tmp_path / "printed.json"
    p.write_text(capsys.readouterr().out)
    ef = parse_ensemble(str(p))
    assert len(ef.matrices) == 3 and len(ef.weights) == 3
    assert serialize_ensemble(ef) == serialize_ensemble(gen_instance("lyapunov", 2, 3, 0.25, 4))


def _mcp_eval_report(tmp_path, *flags):
    inst, rep = str(tmp_path / "inst.json"), tmp_path / "rep.json"
    assert main(["gen", "--kind", "psd-trace-capped", "--dim", "3", "--count", "4", "--seed", "2", "--out", inst]) == 0
    assert main(["mcp-eval", "--input", inst, "--json", str(rep), *flags]) == 0
    return parse_ensemble(inst).ensemble(), json.loads(rep.read_text())


def test_cli_mcp_eval_quadratic_reports_the_certified_max_root(tmp_path):
    from interlace import maxroot_certified, quadratic_mixed_char_poly

    ens, doc = _mcp_eval_report(tmp_path, "--quadratic")
    assert doc["polynomial"] == "quadratic mixed characteristic" and doc["real_rooted"] is True
    assert doc["maxroot"] == maxroot_certified([quadratic_mixed_char_poly(ens)], rootedness_tol=1e-7)[0].hi


def test_cli_mcp_eval_real_rooted_prints_max_and_min_root(tmp_path):
    from interlace import mixed_char_poly

    ens, doc = _mcp_eval_report(tmp_path)
    assert doc["real_rooted"] is True
    roots = np.roots(mixed_char_poly(ens, np.ones(len(ens))).coeffs[::-1]).real
    assert doc["maxroot"] == pytest.approx(roots.max(), abs=1e-7)
    assert doc["minroot"] == pytest.approx(roots.min(), abs=1e-7)


def test_cli_discrepancy_compare_random_reports_the_samples(tmp_path, capsys):
    inst = str(tmp_path / "inst.json")
    assert main(["gen", "--kind", "psd-trace-capped", "--dim", "2", "--count", "3", "--out", inst]) == 0
    assert main(["discrepancy", "--input", inst, "--compare-random", "5", "--seed", "3"]) == 0
    line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("random_outcomes_norms"))
    assert "min " in line and "over 5 samples" in line, line


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


@pytest.mark.parametrize("bad", ["10", "inf", "nan", "-1", "0.0011"])
def test_cli_mcp_eval_rejects_bad_tol_before_solving(tmp_path, capsys, bad):
    # x^2 + 2 has no real root; a loose --tol used to report it real-rooted
    doc = {
        "dim": 2,
        "matrices": [
            [[[1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [-1.0, 0.0]]],
            [[[-1.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [1.0, 0.0]]],
        ],
    }
    path = write(tmp_path, "h.json", doc)
    assert main(["mcp-eval", "--input", path, "--signs", "1,1", f"--tol={bad}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:") and "--tol" in captured.err, captured.err


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
@pytest.mark.parametrize("cap", [0.1, math.nan, math.inf, 1e13])
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


def test_rank_one_completion_takes_one_piece_under_a_huge_cap():
    from interlace import rank_one_completion

    pieces = rank_one_completion(np.diag([0.25, 0.0]), 1e13)
    np.testing.assert_allclose(sum(B.entries for B in pieces), np.diag([0.75, 1.0]))


_VALID = {
    "dim": 1,
    "matrices": [[[[0.25, 0.0]]], [[[0.5, 0.0]]]],
    "weights": [0.5, 0.25],
    "distributions": [{"values": [-1.0, 1.0], "probs": [0.5, 0.5]}] * 2,
    "proportions": [0.5, 0.5],
    "epsilon_override": 0.75,
}
_NOT_A_NUMBER = st.one_of(
    st.booleans(), st.text(max_size=3), st.just(math.nan), st.just(math.inf),
    st.just(-math.inf), st.just(10**400), st.lists(st.integers(), max_size=2),
    st.dictionaries(st.text(max_size=2), st.integers(), max_size=2),
)
# null is also junk, except for a whole optional section, where it means absent
_JUNK = st.one_of(_NOT_A_NUMBER, st.none(), st.integers(), st.floats(allow_nan=False))
# (path into the valid document, junk for that place); every path holds a number
_NUMERIC_SLOTS = [
    ("weights", 0), ("proportions", 1), ("epsilon_override",),
    ("distributions", 0, "values", 1), ("distributions", 1, "probs", 0),
    ("matrices", 0, 0, 0, 0), ("matrices", 1, 0, 0, 1),
]
_ANY_SLOTS = _NUMERIC_SLOTS + [
    ("weights",), ("proportions",), ("distributions",), ("distributions", 0),
    ("distributions", 1, "probs"), ("matrices",), ("matrices", 0), ("matrices", 0, 0, 0), ("dim",),
]


def _replaced(path, value):
    doc = json.loads(json.dumps(_VALID))
    *head, last = path
    target = doc
    for key in head:
        target = target[key]
    target[last] = value
    return doc


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_ANY_SLOTS), _JUNK)
def test_parse_fuzz_rejects_malformed_fields_as_input_errors(tmp_path, slot, junk):
    path = write(tmp_path, "fuzz.json", _replaced(slot, junk))
    try:
        ef = parse_ensemble(path)
        ef.ensemble()
        if ef.distributions is not None:
            ef.finite_distributions()
    except (ParseError, ValidationError):
        pass


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(st.sampled_from(_NUMERIC_SLOTS), _NOT_A_NUMBER)
def test_parse_rejects_non_numbers_in_numeric_fields(tmp_path, slot, junk):
    path = write(tmp_path, "fuzz.json", _replaced(slot, junk))
    with pytest.raises(ParseError):
        parse_ensemble(path)


def test_cli_lyapunov_rejects_boolean_weights_and_cap(tmp_path, capsys):
    doc = {**_VALID, "weights": [True, 0.5], "epsilon_override": True}
    assert main(["lyapunov", "--input", write(tmp_path, "b.json", doc)]) == 1
    assert capsys.readouterr().err.startswith("error:")


@pytest.mark.parametrize("command", ["discrepancy", "lyapunov", "partition"])
def test_cli_json_reports_certificate_band_and_margin(tmp_path, command):
    kind = {"discrepancy": "psd-trace-capped", "lyapunov": "lyapunov", "partition": "ksr"}[command]
    inst, rep = tmp_path / "i.json", tmp_path / "rep.json"
    assert main(["gen", "--kind", kind, "--dim", "3", "--count", "5", "--epsilon", "0.2",
                 "--seed", "4", "--out", str(inst)]) == 0
    assert main([command, "--input", str(inst), "--json", str(rep)]) == 0
    doc = json.loads(rep.read_text())
    assert 0.0 <= doc["certificate_max_band"] <= 1e-9
    assert doc["certificate_min_margin"] >= -1e-9


@pytest.mark.parametrize("command", ["discrepancy", "hermitian", "lyapunov", "partition"])
def test_cli_json_lists_the_levels_that_fell_back_to_their_own_report(tmp_path, command):
    # every level past 0 of these seeded solves is decided at its parent's
    # max root, so the list is empty, and it is a JSON list
    kind = {"discrepancy": "psd-trace-capped", "hermitian": "psd-trace-capped",
            "lyapunov": "lyapunov", "partition": "ksr"}[command]
    inst, rep = tmp_path / "i.json", tmp_path / "rep.json"
    assert main(["gen", "--kind", kind, "--dim", "3", "--count", "6", "--epsilon", "0.2",
                 "--seed", "4", "--out", str(inst)]) == 0
    assert main([command, "--input", str(inst), "--json", str(rep)]) == 0
    assert json.loads(rep.read_text())["certificate_fallback_levels"] == []


def test_cli_partition_rejects_nan_proportions(tmp_path, capsys):
    inst = tmp_path / "ksr.json"
    assert main(["gen", "--kind", "ksr", "--dim", "2", "--count", "4", "--out", str(inst)]) == 0
    assert main(["partition", "--input", str(inst), "--proportions", "nan,nan"]) == 1
    assert capsys.readouterr().err.startswith("error: BadProportions:")


def _eig_norm(M) -> float:
    return float(np.max(np.abs(np.linalg.eigvalsh(M))))


@pytest.mark.parametrize(
    "command, dim",
    [pytest.param(c, 3, id=c) for c in ("discrepancy", "hermitian", "lyapunov", "partition")]
    # the lift's table is built from its d x d parts, so d = 8 is in reach
    + [pytest.param("hermitian", 8, id="hermitian-d8")],
)
def test_cli_reported_norms_match_a_plain_numpy_eigensolve(tmp_path, command, dim):
    kind = {"discrepancy": "psd-trace-capped", "hermitian": "psd-trace-capped",
            "lyapunov": "lyapunov", "partition": "ksr"}[command]
    inst, rep = tmp_path / "i.json", tmp_path / "rep.json"
    assert main(["gen", "--kind", kind, "--dim", str(dim), "--count", "6", "--epsilon", "0.3",
                 "--seed", "11", "--out", str(inst)]) == 0
    doc = json.loads(inst.read_text())
    if command == "hermitian":  # make the instance indefinite
        doc["matrices"] = [[[[-x for x in e] for e in row] for row in M] if i % 2 else M
                           for i, M in enumerate(doc["matrices"])]
        inst.write_text(json.dumps(doc))
    mats = [np.array([[complex(*e) for e in row] for row in M]) for M in doc["matrices"]]
    assert main([command, "--input", str(inst), "--json", str(rep)]) == 0
    out = json.loads(rep.read_text())
    if command == "partition":
        for k in range(len(out["proportions"])):
            block_sum = sum((mats[i] for i in out[f"block[{k}]"]), np.zeros_like(mats[0]))
            assert abs(out[f"block[{k}]_norm"] - _eig_norm(block_sum)) <= 1e-12
        return
    if command == "lyapunov":
        chosen = set(out["selected_indices"])
        coeffs = [float(i in chosen) - t for i, t in enumerate(doc["weights"])]
    else:
        means = [float(np.dot(dd["values"], dd["probs"])) for dd in doc["distributions"]]
        coeffs = [s - mu for s, mu in zip(out["outcome"], means)]
    deviation = sum(c * A for c, A in zip(coeffs, mats))
    assert abs(out["achieved_recomputed"] - _eig_norm(deviation)) <= 1e-12
