"""Command-line interface tests: exit codes, artifacts, determinism."""

import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

import apadmm
from apadmm import RunConfig, SparsePcaSpec, generate, run
from apadmm.cli import TRACE_COLUMNS, load_run, main, save_states, trace_csv

SMALL = ["--N", "12", "--K", "3", "--M", "6", "--p", "0.2",
         "--instance-seed", "3"]


def run_cli(argv):
    return main(argv)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


# -- run ---------------------------------------------------------------------

def test_run_converged_writes_trace_and_summary(tmp_path, capsys):
    out = str(tmp_path / "trace.csv")
    rc = run_cli(["run", *SMALL, "--algo", "sync_padmm", "--seed", "5",
                  "--init", "random_ball", "--out", out])
    assert rc == 0
    line = capsys.readouterr().out.strip().splitlines()[-1]
    summary = json.loads(line)
    assert summary["termination"] == "converged"
    assert summary["trace"] == out
    assert summary["states"] is None
    with open(out) as fh:
        header = fh.readline().strip()
        first = fh.readline().strip().split(",")
    assert header == "iter,L,f,feas_gap,prox_grad_norm,e,set_size"
    assert first[0] == "1"
    # floats are written with repr and survive a round trip
    assert repr(float(first[1])) == first[1]
    on_disk = json.loads(read(str(tmp_path / "trace.summary.json")))
    assert on_disk == summary


def test_run_full_trace_then_check_passes(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    rc = run_cli(["run", *SMALL, "--algo", "async_padmm", "--seed", "4",
                  "--delay-bound", "2", "--init", "random_ball",
                  "--full-trace", "--max-iters", "80", "--epsilon", "1e-9",
                  "--out", out])
    assert rc in (0, 2)
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["states"] == str(tmp_path / "t.states.npz")
    rc = run_cli(["check", out])
    captured = capsys.readouterr().out
    assert rc == 0
    assert "PASS dual_identity" in captured
    assert "FAIL" not in captured


def test_check_replays_at_the_staleness_bound(tmp_path, capsys):
    # penalties certified at a delay below the bound: the stored run must
    # be replayed at the bound it was held to, not at the certified delay
    path = tmp_path / "cfg.json"
    path.write_text('{"delay_bound": 3, "cert_delay": 1.0, '
                    '"enforcement": "observe"}')
    out = str(tmp_path / "t.csv")
    rc = run_cli(["run", *SMALL, "--config", str(path), "--seed", "4",
                  "--max-iters", "80", "--full-trace", "--out", out])
    assert rc == 2
    capsys.readouterr()
    assert run_cli(["check", out]) == 0
    captured = capsys.readouterr().out
    assert "PASS dual_difference" in captured
    assert "FAIL" not in captured


def test_check_fails_a_state_file_with_a_nan_dual_row(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    run_cli(["run", "--preset", "desk", "--full-trace", "--max-iters", "80",
             "--out", out])
    capsys.readouterr()
    npz = str(tmp_path / "t.states.npz")
    with np.load(npz) as data:
        arrays = dict(data)
    arrays["y_hist"][40] = np.nan
    np.savez_compressed(npz, **arrays)
    assert run_cli(["check", out]) == 1
    captured = capsys.readouterr().out
    assert "FAIL dual_identity worst_slack=nan failing at [40]\n" in captured
    assert "FAIL dual_difference worst_slack=nan failing at [40, 41]\n" in captured


def test_check_without_states_names_the_requirement(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    run_cli(["run", *SMALL, "--algo", "sync_padmm", "--seed", "5",
             "--init", "random_ball", "--out", out])
    capsys.readouterr()
    rc = run_cli(["check", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert "--full-trace" in err


def test_check_refuses_exact_admm_traces(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    run_cli(["run", *SMALL, "--algo", "sync_admm", "--seed", "5",
             "--init", "random_ball", "--full-trace", "--out", out])
    capsys.readouterr()
    rc = run_cli(["check", out])
    err = capsys.readouterr().err
    assert rc == 1
    assert "proximal" in err


def test_run_exit_code_for_max_iters(tmp_path, capsys):
    out = str(tmp_path / "t.csv")
    rc = run_cli(["run", *SMALL, "--algo", "async_padmm", "--max-iters", "3",
                  "--epsilon", "1e-14", "--init", "random_ball", "--out", out])
    assert rc == 2
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])[
        "termination"] == "max_iters"


def test_run_exit_code_for_staleness_abort(tmp_path, capsys):
    cfg = {
        "algorithm": "async_padmm",
        "delay_bound": 2,
        "enforcement": "enforce",
        "init": "random_ball",
        "seed": 5,
        "max_iters": 50,
        "uplink": [{"loss": 1.0}, 0, 0],
        "compute_delay": {"kind": "constant", "value": 0.0},
        "instance": {"dim": 12, "num_components": 3, "rows": 6,
                     "nonzero_prob": 0.2, "seed": 3},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(cfg))
    rc = run_cli(["run", "--config", str(path),
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 3
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["termination"] == "staleness_violation"
    assert summary["staleness_violations"] == 1


def test_run_exit_code_for_infeasible_stepsize(tmp_path, capsys):
    rc = run_cli(["run", *SMALL, "--rho", "0.1",
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 4
    assert json.loads(capsys.readouterr().out.strip().splitlines()[-1])[
        "termination"] == "infeasible_stepsize"


def test_run_rejects_unknown_config_key(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"stepsize": 3.0}')
    rc = run_cli(["run", "--config", str(path),
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "stepsize" in capsys.readouterr().err


def test_run_rejects_wrong_length_delay_bound_list(tmp_path, capsys):
    rc = run_cli(["run", "--K", "3", "--delay-bound", "1,2",
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    assert "delay_bound" in capsys.readouterr().err


@pytest.mark.parametrize("config,needle", [
    ('{"compute_delay": {"kind": "uniform"}}', "compute_delay"),
    ('{"uplink": {"delay": 1, "los": 0.5}}', "'los'"),
    ('{"rho_safety": 1.5}', "unknown config key 'rho_safety'"),
    ('{"window": 1.0}', "unknown config key 'window'"),
    ('{"compute_delay": {"kind": "uniform", "hi": "x"}}',
     "compute_delay.hi must be a number"),
    ('{"epsilon": "x"}', "epsilon must be a positive number, not 'x'"),
    ('{"delay_bound": null}',
     "delay_bound must be a finite nonnegative number, not None"),
    ('{"compute_delay": {"kind": "uniform", "hi": -1}}',
     "compute_delay.hi must be a finite nonnegative number, not -1"),
    ('{"rho": "x"}', "rho must be 'auto', a positive number"),
    ('{"rho": null}', "rho must be 'auto', a positive number"),
    ('{"rho": [1, 2]}', "rho needs 1 or 3 entries, got 2"),
    ('{"force": "no"}', "force must be true or false, not 'no'"),
    ('{"seed": 1.5}', "seed must be an integer of at least 0, not 1.5"),
    ('{"seed": -1}', "seed must be an integer of at least 0, not -1"),
    ('{"seed": true}', "seed must be an integer of at least 0, not True"),
    ('{"max_iters": 2.5}', "max_iters must be an integer of at least 1, not 2.5"),
    ('{"max_iters": Infinity}',
     "max_iters must be an integer of at least 1, not inf"),
    ('{"compute_delay": NaN}',
     "compute_delay.value must be a finite nonnegative number, not nan"),
    ('{"compute_delay": NaN, "enforcement": "observe"}',
     "compute_delay.value must be a finite nonnegative number, not nan"),
    ('{"compute_delay": NaN, "algorithm": "sync_padmm"}',
     "compute_delay.value must be a finite nonnegative number, not nan"),
    ('{"compute_delay": Infinity, "algorithm": "sync_padmm"}',
     "compute_delay.value must be a finite nonnegative number, not inf"),
    ('{"downlink": {"delay": {"kind": "uniform", "hi": Infinity}}}',
     "downlink.delay.hi must be a finite nonnegative number, not inf"),
    ('{"delay_bound": Infinity, "algorithm": "sync_padmm"}',
     "delay_bound must be a finite nonnegative number, not inf"),
], ids=["delay_missing_key", "link_unknown_key", "removed_knob",
        "removed_window", "delay_mistyped_value", "epsilon_mistyped",
        "delay_bound_null", "delay_out_of_range", "rho_mistyped", "rho_null",
        "rho_wrong_length", "force_mistyped", "seed_fractional",
        "seed_negative", "seed_bool", "max_iters_fractional",
        "max_iters_infinite", "compute_delay_nan", "compute_delay_nan_observed",
        "sync_compute_delay_nan", "sync_compute_delay_infinite",
        "downlink_delay_infinite", "sync_delay_bound_infinite"])
def test_run_rejects_malformed_config_values(tmp_path, capsys, config, needle):
    # JSON NaN and Infinity parse to floats; none of these may run
    path = tmp_path / "cfg.json"
    path.write_text(config)
    out = tmp_path / "t.csv"
    rc = run_cli(["run", *SMALL, "--config", str(path), "--out", str(out)])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ")
    assert needle in line
    assert not out.exists()


@pytest.mark.parametrize("argv,flag", [
    (["check", "t.csv", "--dual-tol", "1e-3"], "--dual-tol"),
    (["bench", "--preset", "table1", "--desk"], "--desk"),
], ids=["check_tolerance", "bench_desk"])
def test_removed_flags_are_rejected_by_the_parser(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        run_cli(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: %s" % flag in capsys.readouterr().err


@pytest.mark.parametrize("instance,flags,needle", [
    ({"rows": [20, 30]}, [], "rows needs 1 or 5 entries, got 2"),
    ({"nonzero_prob": [0.1, 0.2, 0.3]}, [], "nonzero_prob needs 1 or 5 entries, got 3"),
    ({"dim": 50.5}, [], "dim must be an integer of at least 1, not 50.5"),
    ({"num_components": 2.5}, [], "num_components must be an integer of at least 1, not 2.5"),
    ({"dim": True}, [], "dim must be an integer of at least 1, not True"),
    ({}, ["--instance-seed", "-1"], "seed must be an integer of at least 0, not -1"),
    ({"seed": "a"}, [], "seed must be an integer of at least 0, not 'a'"),
    ({"rows": 2.5}, [], "rows must be an integer of at least 1, not 2.5"),
    ({"nonzero_prob": "0.5"}, [], "nonzero_prob must be a number in [0, 1], not '0.5'"),
    ({"nonzero_prob": True}, [], "nonzero_prob must be a number in [0, 1], not True"),
    ({"nonzero_prob": [True, "1"]}, ["--K", "2"],
     "nonzero_prob must be a number in [0, 1], not True"),
    ({"l1_weight": "0.5"}, [], "l1_weight must be nonnegative and finite, not '0.5'"),
    ({"l1_weight": True}, [], "l1_weight must be nonnegative and finite, not True"),
], ids=["rows_wrong_length", "nonzero_prob_wrong_length", "dim_fractional",
        "components_fractional", "dim_bool", "seed_negative", "seed_mistyped",
        "rows_fractional", "nonzero_prob_string", "nonzero_prob_bool",
        "nonzero_prob_list_of_bool_and_string", "l1_weight_string",
        "l1_weight_bool"])
def test_run_rejects_a_bad_instance_before_drawing_it(tmp_path, capsys, instance,
                                                      flags, needle):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"instance": instance}))
    out = tmp_path / "t.csv"
    assert run_cli(["run", "--config", str(path), *flags, "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: bad instance: %s\n" % needle
    assert not out.exists()


def test_run_rejects_mistyped_full_trace_before_writing(tmp_path, capsys):
    # a non-empty string is truthy: unchecked, it would turn on full tracing
    path = tmp_path / "cfg.json"
    path.write_text('{"full_trace": "no"}')
    rc = run_cli(["run", *SMALL, "--config", str(path),
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "full_trace must be true or false, not 'no'" in err
    assert not (tmp_path / "t.states.npz").exists()


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_run_rejects_a_non_finite_l1_weight_by_name(tmp_path, capsys, lam):
    rc = run_cli(["run", "--N", "12", "--K", "3", "--M", "6", "--lam", lam,
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "l1_weight must be nonnegative and finite, not " + lam in err
    assert not (tmp_path / "t.csv").exists()


def test_run_rejects_malformed_json(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text("{not json")
    rc = run_cli(["run", "--config", str(path),
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1


def test_dump_config_round_trips(tmp_path, capsys):
    args = ["run", "--preset", "desk", "--seed", "9", "--dump-config"]
    assert run_cli(args) == 0
    first = capsys.readouterr().out
    cfg = json.loads(first)
    assert cfg["seed"] == 9
    assert cfg["instance"]["dim"] == 50
    # feeding the dump back reproduces it byte for byte
    path = tmp_path / "dump.json"
    path.write_text(first)
    assert run_cli(["run", "--config", str(path), "--dump-config"]) == 0
    assert capsys.readouterr().out == first


def test_dump_config_shows_each_run_flag_at_its_key(capsys):
    assert run_cli([
        "run", "--algo", "sync_padmm", "--rho", "8,9", "--seed", "4",
        "--max-iters", "123", "--epsilon", "0.01", "--delay-bound", "1,2",
        "--observe", "--init", "zero", "--force", "--full-trace",
        "--N", "7", "--K", "2", "--M", "4", "--p", "0.3", "--lam", "0.25",
        "--instance-seed", "9", "--dump-config"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "algorithm": "sync_padmm", "rho": [8.0, 9.0], "seed": 4,
        "max_iters": 123, "epsilon": 0.01, "delay_bound": [1.0, 2.0],
        "cert_delay": None, "enforcement": "observe", "init": "zero",
        "force": True, "full_trace": True, "compute_delay": None,
        "downlink": None, "uplink": None,
        "instance": {"dim": 7, "num_components": 2, "rows": 4,
                     "nonzero_prob": 0.3, "l1_weight": 0.25, "seed": 9}}


def test_run_flag_overrides_config_file(tmp_path, capsys):
    path = tmp_path / "cfg.json"
    path.write_text('{"seed": 3, "max_iters": 77}')
    run_cli(["run", "--config", str(path), "--seed", "8", "--dump-config"])
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["seed"] == 8
    assert cfg["max_iters"] == 77


def test_run_without_init_flag_starts_from_the_random_ball(capsys):
    run_cli(["run", "--dump-config"])
    assert json.loads(capsys.readouterr().out)["init"] == "random_ball"
    run_cli(["run", "--init", "zero", "--dump-config"])
    assert json.loads(capsys.readouterr().out)["init"] == "zero"


def test_run_comma_lists_for_rho_and_delay(tmp_path, capsys):
    run_cli(["run", "--rho", "8,9,10", "--delay-bound", "1,2,3",
             "--dump-config"])
    cfg = json.loads(capsys.readouterr().out)
    assert cfg["rho"] == [8.0, 9.0, 10.0]
    assert cfg["delay_bound"] == [1.0, 2.0, 3.0]


def test_run_trace_is_byte_deterministic(tmp_path):
    outs = []
    for name in ("a.csv", "b.csv"):
        out = str(tmp_path / name)
        run_cli(["run", *SMALL, "--algo", "async_padmm", "--seed", "11",
                 "--delay-bound", "2", "--init", "random_ball",
                 "--max-iters", "60", "--epsilon", "1e-9", "--out", out])
        outs.append(read(out))
    assert outs[0] == outs[1]


# -- certify -----------------------------------------------------------------

def test_certify_reports_minimum_when_rho_omitted(capsys):
    rc = run_cli(["certify", "--L", "1", "--T", "0", "--class", "general"])
    assert rc == 0
    record = json.loads(capsys.readouterr().out)
    assert 7.0 < record["min_rho"] < 8.0
    assert record["margin"] > 0.0


def test_certify_verdict_exit_codes(capsys):
    assert run_cli(["certify", "--L", "1", "--T", "0", "--class", "general",
                    "--rho", "8"]) == 0
    assert json.loads(capsys.readouterr().out)["margin"] == 7.640625
    assert run_cli(["certify", "--L", "1", "--T", "0", "--class", "general",
                    "--rho", "7"]) == 4


def test_certify_validates_inputs(capsys):
    assert run_cli(["certify", "--L", "-1", "--T", "0",
                    "--class", "general"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("flags,needle", [
    (["--L", "nan", "--T", "0"], "lipschitz"),
    (["--L", "inf", "--T", "0"], "lipschitz"),
    (["--L", "1", "--T", "nan"], "delay bound"),
    (["--L", "1", "--T", "0", "--rho", "nan"], "rho"),
], ids=["L_nan", "L_inf", "T_nan", "rho_nan"])
def test_certify_rejects_non_finite_inputs(capsys, flags, needle):
    assert run_cli(["certify", "--class", "general", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and needle in err


@pytest.mark.parametrize("flags,needle", [
    (["--L", "1", "--T", "1e200"], "delay_bound=1e+200"),
    (["--L", "1e-300", "--T", "3"], "lipschitz=1e-300"),
    (["--L", "1e200", "--T", "3"], "no certified penalty"),
], ids=["T_huge", "L_tiny", "L_huge"])
def test_certify_reports_out_of_range_inputs(capsys, flags, needle):
    # finite inputs whose margin overflows or divides by zero in floating point
    assert run_cli(["certify", "--class", "general", *flags]) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: margin out of floating-point range")
    assert needle in err


@pytest.mark.parametrize("rho", ["1e-160", "1e-300"])
def test_certify_reports_a_tiny_penalty_infeasible(capsys, rho):
    # the margin's terms overflow, and it is certainly negative
    assert run_cli(["certify", "--class", "general", "--L", "1", "--T", "3",
                    "--rho", rho]) == 4
    record = json.loads(capsys.readouterr().out)
    assert record["margin"] == -math.inf and record["feasible"] is False


# -- bench -------------------------------------------------------------------

CAMPAIGN = {
    "seeds": 2,
    "cells": [
        {"algorithm": "async_padmm", "dim": 10, "num_components": 2,
         "delay_bound": 1, "rows": 5, "nonzero_prob": 0.3},
        {"algorithm": "sync_padmm", "dim": 10, "num_components": 2,
         "delay_bound": 1, "rows": 5, "nonzero_prob": 0.3},
    ],
}


def test_bench_campaign_file(tmp_path, capsys):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(CAMPAIGN))
    out = str(tmp_path / "results.csv")
    rc = run_cli(["bench", "--campaign", str(path), "--max-iters", "3000",
                  "--out", out])
    assert rc == 0
    lines = read(out).decode().strip().split("\n")
    assert lines[0].startswith("algorithm,N,K,T,lambda")
    assert len(lines) == 3
    # same campaign, same bytes
    out2 = str(tmp_path / "results2.csv")
    run_cli(["bench", "--campaign", str(path), "--max-iters", "3000",
             "--out", out2])
    assert read(out) == read(out2)


def test_bench_empty_campaign_fails(tmp_path, capsys):
    path = tmp_path / "campaign.json"
    path.write_text("{}")
    assert run_cli(["bench", "--campaign", str(path),
                    "--out", str(tmp_path / "r.csv")]) == 1
    capsys.readouterr()


def with_last_cell(**changes):
    cells = [CAMPAIGN["cells"][0], dict(CAMPAIGN["cells"][1], **changes)]
    return {"seeds": 2, "cells": cells}


# bad campaign files, and what the error must say
BAD_CAMPAIGNS = {
    "unknown_algorithm": (with_last_cell(algorithm="bogus"),
                          "campaign cell 1: unknown algorithm 'bogus'"),
    "zero_dim": (with_last_cell(dim=0),
                 "campaign cell 1: dim must be an integer of at least 1, not 0"),
    "rows_list_of_wrong_length": (with_last_cell(rows=[5, 5, 5]),
                                  "campaign cell 1: rows needs 1 or 2 entries, got 3"),
    "delay_bound_list_of_wrong_length": (
        with_last_cell(delay_bound=[1, 2, 3]),
        "campaign cell 1: delay_bound needs 1 or 2 entries, got 3"),
    "delay_bound_not_a_number": (
        with_last_cell(delay_bound="x"),
        "campaign cell 1: delay_bound must be a finite nonnegative number, not 'x'"),
    "seeds_not_a_count": (dict(CAMPAIGN, seeds="x"),
                          "seeds must be a count of at least 1 or a nonempty "
                          "list of seeds, not 'x'"),
    "cell_not_an_object": ({"cells": [CAMPAIGN["cells"][0], 5]},
                           "campaign cell 1 must be an object, not 5"),
    "cells_not_a_list": ({"cells": 5}, "lists no cells"),
}


@pytest.mark.parametrize("kind", sorted(BAD_CAMPAIGNS))
def test_bench_reports_a_bad_campaign_before_the_first_run(tmp_path, capsys, kind):
    campaign, needle = BAD_CAMPAIGNS[kind]
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(campaign))
    out = tmp_path / "r.csv"
    assert run_cli(["bench", "--campaign", str(path), "--progress",
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    # no progress line: the error comes before the first run
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and needle in line
    assert not out.exists()


@pytest.mark.parametrize("source", ["preset", "campaign"])
@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_bench_rejects_a_seed_count_below_one(tmp_path, capsys, source, seeds):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(CAMPAIGN))
    picked = (["--preset", "table1"] if source == "preset"
              else ["--campaign", str(path)])
    out = tmp_path / "r.csv"
    assert run_cli(["bench", *picked, "--seeds", seeds, "--progress",
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: seed count must be an integer of at least 1, "
                            "not %s\n" % seeds)
    assert not out.exists()


@pytest.mark.parametrize("flag,value,needle", [
    ("--max-iters", "0", "max_iters must be an integer of at least 1, not 0"),
    ("--epsilon", "-1", "epsilon must be a positive number, not -1.0"),
    ("--epsilon", "nan", "epsilon must be a positive number, not nan"),
], ids=["zero_max_iters", "negative_epsilon", "nan_epsilon"])
def test_bench_rejects_a_bad_run_argument_without_blaming_a_cell(
        tmp_path, capsys, flag, value, needle):
    out = tmp_path / "r.csv"
    assert run_cli(["bench", "--preset", "table1", flag, value, "--progress",
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % needle
    assert not out.exists()


def test_bench_refuses_paper_scale_for_a_campaign_file(tmp_path, capsys):
    # a campaign file gives its cells' sizes itself; --paper picks a
    # preset's scale, so with a file it would be silently ignored
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps(CAMPAIGN))
    out = tmp_path / "r.csv"
    assert run_cli(["bench", "--campaign", str(path), "--paper",
                    "--out", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --paper applies only to a preset, not to a "
                            "campaign file\n")
    assert not out.exists()


def test_bench_requires_preset_or_campaign():
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench"])
    assert exc.value.code == 2


def test_bench_preset_and_campaign_conflict(tmp_path):
    path = tmp_path / "c.json"
    path.write_text(json.dumps(CAMPAIGN))
    with pytest.raises(SystemExit) as exc:
        run_cli(["bench", "--preset", "table1", "--campaign", str(path)])
    assert exc.value.code == 2


def test_bench_progress_lines_on_stderr(tmp_path, capsys):
    path = tmp_path / "campaign.json"
    path.write_text(json.dumps({"seeds": 1, "cells": CAMPAIGN["cells"][:1]}))
    rc = run_cli(["bench", "--campaign", str(path), "--max-iters", "2000",
                  "--progress", "--out", str(tmp_path / "r.csv")])
    assert rc == 0
    assert "seed" in capsys.readouterr().err


# -- stored runs -------------------------------------------------------------

def stored_run(tmp_path, rows):
    """An async run of exactly ``rows`` updates, written the way ``run`` writes it."""
    problem = generate(SparsePcaSpec(dim=12, num_components=3, rows=6,
                                     nonzero_prob=0.2, seed=3))
    result = run(problem, RunConfig(
        delay_bound=2, max_iters=rows, epsilon=1e-14, full_trace=True,
        enforcement="observe", compute_delay={"kind": "uniform", "hi": 1.5}))
    assert len(result.trace) == rows
    path = str(tmp_path / ("run%d.csv" % rows))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_csv(result.trace))
    save_states(path[:-4] + ".states.npz", problem, result, "async_padmm")
    return problem, result, path


def test_load_run_round_trips_a_stored_run(tmp_path):
    problem, result, path = stored_run(tmp_path, 10)
    loaded, trace, rho, delay_bounds, algorithm = load_run(path)
    assert algorithm == "async_padmm"
    np.testing.assert_array_equal(rho, result.rho)
    np.testing.assert_array_equal(delay_bounds, result.delay_bounds)
    np.testing.assert_array_equal(delay_bounds, [2.0] * 3)
    for a, b in zip(loaded.data, problem.data, strict=True):
        np.testing.assert_array_equal(a, b)
    np.testing.assert_array_equal(loaded.lipschitz, problem.lipschitz)
    for column in ("lagrangian", "objective", "feas_gap", "prox_grad_norm",
                   "measure", "sim_time", "collected"):
        assert getattr(trace, column) == getattr(result.trace, column)
    assert len(trace.states) == len(result.trace.states) == 11
    for got, want in zip(trace.states, result.trace.states):
        assert type(got.iteration) is int
        assert got.iteration == want.iteration
        for name in ("x", "x_local", "y", "stale_index"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


def rewrite(npz, spoil):
    with np.load(npz) as data:
        arrays = dict(data)
    spoil(arrays)
    np.savez_compressed(npz, **arrays)


def nan_in_B_1(arrays):
    arrays["B_1"] = arrays["B_1"].copy()
    arrays["B_1"][0, 0] = np.nan


def write_bytes(npz, content):
    with open(npz, "wb") as fh:
        fh.write(content)


def spoil_row(csv, column, value):
    """Set one column of the first data row of a trace CSV."""
    lines = read(csv).decode().split("\n")
    parts = lines[1].split(",")
    parts[TRACE_COLUMNS.index(column)] = value
    lines[1] = ",".join(parts)
    write_bytes(csv, "\n".join(lines).encode())


# how to spoil a stored run's state file or trace, and what the error must say
MALFORMED = {
    "nan_B_1": ("states", lambda npz: rewrite(npz, nan_in_B_1),
                "data matrix 1 contains non-finite entries"),
    "short_B_2": ("states",
                  lambda npz: rewrite(npz, lambda a: a.update(B_2=a["B_2"][:, :10])),
                  "components disagree on dimension: [10, 12]"),
    "no_rho": ("states", lambda npz: rewrite(npz, lambda a: a.pop("rho")),
               "rho is not a file in the archive"),
    "random_bytes": ("states",
                     lambda npz: write_bytes(npz, np.random.default_rng(0).bytes(300)),
                     "pickled"),
    "empty": ("states", lambda npz: write_bytes(npz, b""), "No data left in file"),
    "truncated_zip": ("states", lambda npz: write_bytes(npz, read(npz)[:500]),
                      "not a zip file"),
    "directory": ("states", lambda npz: (os.remove(npz), os.mkdir(npz)),
                  "Is a directory"),
    "short_y_history": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(y_hist=a["y_hist"][:10])),
        "is shorter than"),
    "trace_value_not_a_number": (
        "trace", lambda csv: spoil_row(csv, "L", "abc"),
        "could not convert string to float: 'abc'"),
    "trace_set_size_not_an_integer": (
        "trace", lambda csv: spoil_row(csv, "set_size", "1.5"),
        "invalid literal for int() with base 10: '1.5'"),
    "trace_iter_not_an_integer": (
        "trace", lambda csv: spoil_row(csv, "iter", "1.5"),
        "invalid literal for int() with base 10: '1.5'"),
    "trace_not_utf8": (
        "trace", lambda csv: write_bytes(csv, read(csv) + b"\xff\xfe\n"),
        "'utf-8' codec can't decode byte 0xff"),
}


@pytest.mark.parametrize("kind", sorted(MALFORMED))
def test_check_reports_a_malformed_run_file_by_name(tmp_path, capsys, kind):
    which, spoil, needle = MALFORMED[kind]
    _, _, path = stored_run(tmp_path, 10)
    target, what = ((path[:-4] + ".states.npz", "cannot load state file")
                    if which == "states" else (path, "cannot read trace file"))
    spoil(target)
    assert run_cli(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "Traceback" not in captured.err
    (line,) = captured.err.splitlines()
    assert line.startswith("error: %s %r: " % (what, target))
    assert needle in line


def test_check_reads_a_state_file_written_before_the_dual_became_the_gradient_record(
        tmp_path, capsys):
    # older files also held each state's collected gradients and its
    # iteration number; new files do not, and old ones load and check
    # with the same verdicts
    _, result, path = stored_run(tmp_path, 10)
    assert run_cli(["check", path]) == 0
    verdicts = capsys.readouterr().out
    states = result.trace.states
    old = {"grad_hist": np.stack([-s.y for s in states]),
           "iteration_hist": np.arange(1, len(states) + 1, dtype=np.int64)}
    npz = path[:-4] + ".states.npz"
    with np.load(npz) as data:
        assert not set(old) & set(data.files)
    rewrite(npz, lambda arrays: arrays.update(old))
    with np.load(npz) as data:
        assert set(old) <= set(data.files)
    assert run_cli(["check", path]) == 0
    assert capsys.readouterr().out == verdicts
    assert verdicts.count("PASS") == 5


def test_check_reports_snapshots_that_do_not_fit_the_trace(tmp_path, capsys):
    _, _, path = stored_run(tmp_path, 10)
    npz = path[:-4] + ".states.npz"

    def drop_rows(arrays):
        for name in ("x", "x_local", "y", "stale"):
            arrays[name + "_hist"] = arrays[name + "_hist"][:5]

    rewrite(npz, drop_rows)
    assert run_cli(["check", path]) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    assert err.startswith("error: cannot check %r: trace has no per-iteration "
                          "state snapshots" % path)


def test_load_run_reads_each_stored_array_once(tmp_path, monkeypatch):
    # every NpzFile subscript decompresses the member again, so the number
    # of reads must not grow with the number of rows
    original = np.lib.npyio.NpzFile.__getitem__
    reads = []

    def counting(self, key):
        reads.append(key)
        return original(self, key)

    counts = []
    for rows in (10, 60):
        _, _, path = stored_run(tmp_path, rows)
        reads.clear()
        monkeypatch.setattr(np.lib.npyio.NpzFile, "__getitem__", counting)
        load_run(path)
        monkeypatch.undo()
        counts.append(len(reads))
    assert counts[0] == counts[1] > 0


# -- misc --------------------------------------------------------------------

def test_check_rejects_missing_file(tmp_path, capsys):
    assert run_cli(["check", str(tmp_path / "nope.csv")]) == 1
    capsys.readouterr()


def test_module_entry_point_smoke():
    # the child imports the same apadmm package this process imported
    src = os.path.dirname(os.path.dirname(apadmm.__file__))
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + (os.pathsep + path if path else ""))
    proc = subprocess.run(
        [sys.executable, "-m", "apadmm", "certify", "--L", "1", "--T", "2",
         "--class", "concave"],
        capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    assert "min_rho" in proc.stdout
