"""Command-line interface tests: exit codes, artifacts, determinism."""

import json
import os
import subprocess
import sys
import zipfile
from array import array

import numpy as np
import pytest

import apadmm
from apadmm import RunConfig, SparsePcaSpec, generate, problems, run
from apadmm.cli import (TRACE_COLUMNS, _parse_trace_csv, load_run, main,
                        save_states, trace_csv)
from apadmm.problems import _NONZERO_MEMBERS, ConsensusProblem
from reference import dense, one_block_bound, traced_peak

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


def test_check_passes_a_run_that_stopped_before_its_first_row(tmp_path, capsys):
    # a zero bound trips at the first update: one stored state and no row,
    # so no check has a row to fail and the lower bound has no floor
    out = str(tmp_path / "t.csv")
    assert run_cli(["run", "--preset", "desk", "--delay-bound", "0",
                    "--full-trace", "--out", out]) == 3
    capsys.readouterr()
    assert run_cli(["check", out]) == 0
    assert capsys.readouterr().out == (
        "SKIP dual_identity (trace too short)\n"
        "SKIP descent (trace too short)\n"
        "PASS telescoped_descent worst_slack=1.000e-06\n"
        "SKIP dual_difference (trace too short)\n"
        "SKIP lower_bound (trace too short)\n")


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


def refuse_constant(name):
    raise ValueError("not RFC 8259 JSON: %s" % name)


def test_run_summary_is_strict_json(tmp_path, capsys):
    # a rejected run has no final measure: null, not Infinity
    out = str(tmp_path / "t.csv")
    assert run_cli(["run", *SMALL, "--rho", "1", "--out", out]) == 4
    printed = json.loads(capsys.readouterr().out.strip().splitlines()[-1],
                         parse_constant=refuse_constant)
    on_disk = json.loads(read(str(tmp_path / "t.summary.json")),
                         parse_constant=refuse_constant)
    assert printed == on_disk
    assert printed["termination"] == "infeasible_stepsize"
    assert printed["final_e"] is None


def unwritable(tmp_path, where, name):
    """An --out path that cannot be written, and the reason its error gives."""
    return {"missing_directory": (str(tmp_path / "missing" / name),
                                  "no such directory"),
            "directory": (str(tmp_path), "is a directory"),
            "empty": ("", "empty path")}[where]


@pytest.mark.parametrize("where", ["missing_directory", "directory", "empty"])
def test_run_refuses_an_unwritable_out_before_building_the_instance(
        tmp_path, capsys, monkeypatch, where):
    out, reason = unwritable(tmp_path, where, "t.csv")

    def no_instance(spec):
        raise AssertionError("an instance was built")

    monkeypatch.setattr(apadmm.cli, "generate", no_instance)
    assert run_cli(["run", *SMALL, "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write %r: %s\n" % (out, reason)
    assert os.listdir(tmp_path) == []


def test_run_reports_a_failed_write_without_a_traceback(tmp_path, capsys):
    # the summary path is a directory, so the last write fails
    os.mkdir(tmp_path / "t.summary.json")
    assert run_cli(["run", *SMALL, "--out", str(tmp_path / "t.csv")]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: [Errno 21] Is a directory: ")
    assert len(err.splitlines()) == 1


def test_run_rejects_an_unknown_preset_in_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        run_cli(["run", "--preset", "nope"])
    assert exc.value.code == 2
    assert "invalid choice: 'nope'" in capsys.readouterr().err


@pytest.mark.parametrize("subcommand, flag", [("run", "--config"),
                                              ("bench", "--campaign")])
def test_an_undecodable_json_file_is_reported_by_name(
        tmp_path, capsys, subcommand, flag):
    path = tmp_path / "c.json"
    path.write_bytes(b'{"seeds": 1}\xff\n')
    assert run_cli([subcommand, flag, str(path),
                    "--out", str(tmp_path / "o.csv")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    (line,) = captured.err.splitlines()
    assert line.startswith("error: cannot read %r: 'utf-8' codec can't decode "
                           % str(path))


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
    ('{"rho_safety": 1.5}', "config has unknown key 'rho_safety'"),
    ('{"window": 1.0}', "config has unknown key 'window'"),
    ('{"instance": {"dims": 5}}', "instance has unknown key 'dims'"),
    ('{"compute_delay": {"kind": "uniform", "hi": "x"}}',
     "compute_delay.hi must be a finite nonnegative number, not 'x'"),
    ('{"epsilon": "x"}', "epsilon must be a finite positive number, not 'x'"),
    ('{"delay_bound": null}',
     "delay_bound must be a finite nonnegative number, not None"),
    ('{"compute_delay": {"kind": "uniform", "hi": -1}}',
     "compute_delay.hi must be a finite nonnegative number, not -1"),
    ('{"rho": "x"}', "rho must be a finite positive number, not 'x'"),
    ('{"rho": null}', "rho must be a finite positive number, not None"),
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
        "removed_window", "instance_unknown_key", "delay_mistyped_value",
        "epsilon_mistyped", "delay_bound_null", "delay_out_of_range", "rho_mistyped", "rho_null",
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
    ({"l1_weight": "0.5"}, [], "l1_weight must be a finite nonnegative number, not '0.5'"),
    ({"l1_weight": True}, [], "l1_weight must be a finite nonnegative number, not True"),
    ({}, ["--K", str(10 ** 30)], "num_components must be an integer of at most %d, "
     "not %d" % (sys.maxsize, 10 ** 30)),
], ids=["rows_wrong_length", "nonzero_prob_wrong_length", "dim_fractional",
        "components_fractional", "dim_bool", "seed_negative", "seed_mistyped",
        "rows_fractional", "nonzero_prob_string", "nonzero_prob_bool",
        "nonzero_prob_list_of_bool_and_string", "l1_weight_string",
        "l1_weight_bool", "components_past_an_index"])
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


def test_run_rejects_an_infinite_epsilon_before_writing(tmp_path, capsys):
    # an infinite threshold would pass the first row and exit 0
    rc = run_cli(["run", "--preset", "desk", "--epsilon", "inf", "--full-trace",
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: epsilon must be a finite positive number, not inf\n"
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("dump", [False, True], ids=["run", "dump_config"])
@pytest.mark.parametrize("flags,message", [
    (["--epsilon", "-1"], "epsilon must be a finite positive number, not -1.0"),
    (["--N", "0"], "bad instance: dim must be an integer of at least 1, not 0"),
], ids=["negative_epsilon", "zero_dim"])
def test_run_checks_its_config_before_drawing_or_dumping_it(
        tmp_path, capsys, monkeypatch, flags, message, dump):
    def no_generate(spec):
        raise AssertionError("generate called for a bad config")

    monkeypatch.setattr(apadmm.cli, "generate", no_generate)
    out = tmp_path / "t.csv"
    argv = ["run", *flags, "--out", str(out)] + (["--dump-config"] if dump else [])
    assert run_cli(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: %s\n" % message
    assert os.listdir(tmp_path) == []


@pytest.mark.parametrize("lam", ["nan", "inf"])
def test_run_rejects_a_non_finite_l1_weight_by_name(tmp_path, capsys, lam):
    rc = run_cli(["run", "--N", "12", "--K", "3", "--M", "6", "--lam", lam,
                  "--out", str(tmp_path / "t.csv")])
    assert rc == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "l1_weight must be a finite nonnegative number, not " + lam in err
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
    (["--L", "1", "--T", "nan"], "delay_bound"),
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
    # and RFC 8259 has no -Infinity, so the record writes it as null
    assert run_cli(["certify", "--class", "general", "--L", "1", "--T", "3",
                    "--rho", rho]) == 4
    record = json.loads(capsys.readouterr().out, parse_constant=refuse_constant)
    assert record["margin"] is None and record["feasible"] is False


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
                          "campaign cell 1: algorithm must be one of async_padmm, "
                          "sync_padmm, sync_admm, not 'bogus'"),
    "zero_dim": (with_last_cell(dim=0),
                 "campaign cell 1: dim must be an integer of at least 1, not 0"),
    "components_past_an_index": (
        with_last_cell(num_components=10 ** 30),
        "campaign cell 1: num_components must be an integer of at most %d, not %d"
        % (sys.maxsize, 10 ** 30)),
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
    "no_cells": ({"seeds": 2}, "campaign is missing key 'cells'"),
    # only cells and seeds: a mistyped seeds or a run option is not ignored;
    # the first unknown key in the file's order is named
    "unknown_key": ({"cells": CAMPAIGN["cells"], "seed": 2, "max_iters": 5},
                    "campaign has unknown key 'seed'"),
    "cell_missing_dim": (
        {"cells": [{k: v for k, v in CAMPAIGN["cells"][0].items() if k != "dim"}]},
        "campaign cell 0 is missing key 'dim'"),
    "cell_unknown_key": (with_last_cell(seed=1),
                         "campaign cell 1 has unknown key 'seed'"),
    # no penalty is certified at this age, whatever the data
    "uncertifiable_delay_bound": (
        with_last_cell(algorithm="async_padmm", delay_bound=1e200),
        "campaign cell 1: margin out of floating-point range at "
        "delay_bound=5e+199"),
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
    ("--epsilon", "-1", "epsilon must be a finite positive number, not -1.0"),
    ("--epsilon", "nan", "epsilon must be a finite positive number, not nan"),
    # an infinite threshold would pass the first row and exit 0
    ("--epsilon", "inf", "epsilon must be a finite positive number, not inf"),
], ids=["zero_max_iters", "negative_epsilon", "nan_epsilon", "inf_epsilon"])
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


@pytest.mark.parametrize("where", ["missing_directory", "directory", "empty"])
def test_bench_refuses_an_unwritable_out_before_the_first_run(
        tmp_path, capsys, where):
    out, reason = unwritable(tmp_path, where, "c.csv")
    assert run_cli(["bench", "--preset", "table2", "--seeds", "1",
                    "--progress", "--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot write %r: %s\n" % (out, reason)
    assert os.listdir(tmp_path) == []


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
    for a, b in zip(dense(loaded), dense(problem), strict=True):
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


def test_save_states_stores_every_member_uncompressed(tmp_path):
    _, _, path = stored_run(tmp_path, 10)
    with zipfile.ZipFile(path[:-4] + ".states.npz") as archive:
        members = archive.infolist()
    assert {m.filename for m in members} >= {
        "x_hist.npy", "x_local_hist.npy", "y_hist.npy", "stale_hist.npy",
        "rho.npy", "delay_bounds.npy", "algorithm.npy", "data_dim.npy",
        "data_rows.npy", "data_indptr.npy", "data_cols.npy", "data_values.npy"}
    assert not any(m.filename.startswith("B_") for m in members)
    assert all(m.compress_type == zipfile.ZIP_STORED for m in members)


def bits(problem, trace, rho, delay_bounds, algorithm):
    """Every bit of a loaded run: its data, bounds, operator, states and trace."""
    arrays = [*dense(problem), problem.lipschitz, np.float64(problem.l1_weight),
              np.float64(problem.radius), rho, delay_bounds]
    arrays += [a for part in problem.operator for a in part[2:] if a is not None]
    for state in trace.states:
        arrays += [state.x, state.x_local, state.y, state.stale_index]
    columns = [getattr(trace, name) for name in (
        "lagrangian", "objective", "feas_gap", "prox_grad_norm",
        "measure", "sim_time", "collected")]
    return ([(a.dtype.str, a.shape, a.tobytes()) for a in arrays],
            [state.iteration for state in trace.states], columns, algorithm)


def test_a_compressed_state_file_loads_and_checks_bit_for_bit(tmp_path, capsys):
    # files written before save_states stopped compressing still load, to
    # the same bits, and check with the same lines
    _, _, path = stored_run(tmp_path, 40)
    npz = path[:-4] + ".states.npz"
    raw = load_run(path)
    assert run_cli(["check", path]) == 0
    lines = capsys.readouterr().out
    with np.load(npz) as data:
        np.savez_compressed(npz, **data)
    with zipfile.ZipFile(npz) as archive:
        assert {m.compress_type for m in archive.infolist()} == {
            zipfile.ZIP_DEFLATED}
    old = load_run(path)
    assert run_cli(["check", path]) == 0
    assert capsys.readouterr().out == lines
    assert lines.count("PASS") == 5
    assert bits(*old) == bits(*raw)


def dense_format(arrays):
    """Rewrite a state file's members as files held them before the nonzeros:
    one dense matrix B_k per component."""
    for k, B in enumerate(dense(ConsensusProblem(arrays))):
        arrays["B_%d" % k] = B
    for name in _NONZERO_MEMBERS:
        del arrays[name]


def test_a_dense_format_state_file_fails_by_name(tmp_path, capsys):
    # files that held each component as a dense B_k, before the nonzeros
    # were stored, no longer load: check names the first missing member
    problem, _, path = stored_run(tmp_path, 40)
    npz = path[:-4] + ".states.npz"
    with np.load(npz) as data:
        arrays = dict(data)
    dense_format(arrays)
    assert ([arrays["B_%d" % k].tobytes() for k in range(3)]
            == [B.tobytes() for B in dense(problem)])
    np.savez(npz, **arrays)
    assert run_cli(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot load state file %r: 'data_dim is not "
                            "a file in the archive'\n" % npz)


def save_a_run(path, problem, iterations=3):
    """Store a short async run of ``problem`` at ``path``; returns the result."""
    result = run(problem, RunConfig(
        delay_bound=1, max_iters=iterations, epsilon=1e-14, full_trace=True,
        enforcement="observe"))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(trace_csv(result.trace))
    save_states(path[:-4] + ".states.npz", problem, result, "async_padmm")
    return result


def test_the_stored_nonzeros_round_trip_every_shape_bit_for_bit(tmp_path):
    # unequal row counts, a row with no nonzeros and a component that is
    # all zero, whose bound is floored at eps
    rng = np.random.default_rng(5)
    data = [np.where(rng.random((m, 9)) < 0.4, rng.standard_normal((m, 9)), 0.0)
            for m in (3, 5, 4)]
    data[0][1] = 0.0
    data[0][2, 0] = -0.0
    data[2][:] = 0.0
    problem = ConsensusProblem(data, l1_weight=0.05)
    assert problem.lipschitz[2] == np.finfo(float).eps
    assert not np.diff(problem.operator.D.indptr)[1]
    path = str(tmp_path / "edge.csv")
    save_a_run(path, problem)
    loaded = load_run(path)[0]
    assert [B.shape for B in dense(loaded)] == [(3, 9), (5, 9), (4, 9)]
    for a, b in zip(dense(loaded), dense(problem), strict=True):
        assert a.tobytes() == b.tobytes()
    assert loaded.lipschitz.tobytes() == problem.lipschitz.tobytes()
    for got, want in zip(loaded.operator, problem.operator, strict=True):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:], strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.dtype, a.tobytes()) == (b.dtype, b.tobytes())


@pytest.mark.parametrize("shape", [
    dict(dim=50, num_components=5, rows=20),
    dict(dim=500, num_components=10, rows=100),
    dict(dim=500, num_components=5, rows=[100, 60, 100, 140, 60]),
], ids=["desk", "paper", "ragged"])
def test_the_loaded_operator_is_the_stored_nonzeros_array_by_array(
        tmp_path, monkeypatch, shape):
    # D and segments are built from the stored members directly, not from
    # dense blocks scanned back, and equal the generated problem's: every
    # array's dtype, bytes and read-only flag, the bounds to the bit
    problem = generate(SparsePcaSpec(seed=3, **shape))
    path = str(tmp_path / "run.csv")
    save_a_run(path, problem, iterations=1)
    monkeypatch.setattr(problems, "_scan", None)
    loaded = load_run(path)[0]
    monkeypatch.undo()
    assert loaded.dim == problem.dim and type(loaded.dim) is int
    assert loaded.lipschitz.tobytes() == problem.lipschitz.tobytes()
    assert not loaded.lipschitz.flags.writeable
    for got, want in zip(loaded.operator, problem.operator, strict=True):
        assert got[:2] == want[:2]
        for a, b in zip(got[2:], want[2:], strict=True):
            assert (a is None) == (b is None)
            if a is not None:
                assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
                assert not a.flags.writeable


def test_the_stored_data_grows_with_the_nonzeros_not_with_its_shape(tmp_path):
    sizes, counts = [], []
    for p in (0.02, 0.2):
        problem = generate(SparsePcaSpec(dim=300, num_components=2, rows=40,
                                         nonzero_prob=p, seed=4))
        path = str(tmp_path / ("p%g.csv" % p))
        save_a_run(path, problem, iterations=1)
        sizes.append(os.path.getsize(path[:-4] + ".states.npz"))
        counts.append(len(problem.operator.D.data))
    dense = 2 * 40 * 300 * 8
    assert sizes[0] < dense / 2
    # a value and a 32-bit column per nonzero, and the archive's overhead
    assert 0 < sizes[1] - sizes[0] <= 12 * (counts[1] - counts[0])


@pytest.mark.parametrize("rows,message", [
    (["1,2,3,4,5,6,7", "2,2,3,4,5,x,7", "3,2,3"],
     "malformed row '2,2,3,4,5,x,7': could not convert string to float: 'x'"),
    (["1,2,3,4,5,6,7", "2.5,y,3,4,5,6,7", "3,2,3,4,5,z,7"],
     "malformed row '2.5,y,3,4,5,6,7': could not convert string to float: 'y'"),
    (["1,2,3,4,5,6,7", "2.5,2,3,4,5,6,7.5"],
     "malformed row '2.5,2,3,4,5,6,7.5': invalid literal for int() with base 10: '2.5'"),
    (["1,2,3", "2,2,3,4,5,x,7"],
     "malformed row '1,2,3': not enough values to unpack (expected 7, got 3)"),
    (["1,2,3,4,5,6,7", "2,2,3,4,5,6,7", "3,2,3,4,5,6,7,8"],
     "malformed row '3,2,3,4,5,6,7,8': too many values to unpack"),
    # out of range for the column's storage: a 64-bit count, a double
    (["1,2,3,4,5,6,7", "2,2,3,4,5,6,%d" % 2 ** 63, "3,2,3,4,5,6,x"],
     "malformed row '2,2,3,4,5,6,%d': int too big to convert" % 2 ** 63),
    (["1,2,3,4,5,6,7", "1%s,2,3,4,5,6,7" % ("0" * 400), "3,x,3,4,5,6,7"],
     "malformed row '1%s,2,3,4,5,6,7': int too large to convert to float"
     % ("0" * 400)),
])
def test_the_trace_parse_names_the_first_bad_row(rows, message):
    # the first bad row in the file; within it, a row of the wrong width
    # first, then L, f, feas_gap, prox_grad_norm, e, iter and set_size
    text = ",".join(TRACE_COLUMNS) + "\n" + "\n".join(rows) + "\n"
    with pytest.raises(ValueError) as info:
        _parse_trace_csv(text)
    assert str(info.value).startswith(message)
    trace = _parse_trace_csv(text.split("\n")[0] + "\n1,2,3.5,-0.0,4,5,6\n")
    columns = (trace.lagrangian, trace.objective, trace.feas_gap,
               trace.prox_grad_norm, trace.measure, trace.sim_time, trace.collected)
    expected = (array("d", [2.0]), array("d", [3.5]), array("d", [-0.0]),
                array("d", [4.0]), array("d", [5.0]), array("d", [1.0]),
                array("q", [6]))
    assert ([(c.typecode, c.tobytes()) for c in columns]
            == [(e.typecode, e.tobytes()) for e in expected])
    assert type(trace.sim_time[0]) is float and type(trace.collected[0]) is int


def test_load_run_holds_one_dense_component_at_a_time(tmp_path):
    """Loading a 2-row run at N = 500, M = 100, K = 20 peaks at a few
    times the operator, a few blocks and the states and operator it
    returns, not at the 8 MB of all K dense matrices."""
    problem = generate(SparsePcaSpec(dim=500, num_components=20, rows=100,
                                     seed=2))
    path = str(tmp_path / "paper.csv")
    save_a_run(path, problem, iterations=2)
    (loaded, trace, *_), peak = traced_peak(lambda: load_run(path))
    assert len(trace) == 2
    D, segments = loaded.operator
    kept = sum(a.nbytes for a in (*D[2:], *segments[2:4], loaded.lipschitz))
    kept += sum(a.nbytes for s in trace.states
                for a in (s.x, s.x_local, s.y, s.stale_index))
    assert peak <= one_block_bound(loaded, kept) < 20 * 100 * 500 * 8


def rewrite(npz, spoil):
    with np.load(npz) as data:
        arrays = dict(data)
    spoil(arrays)
    np.savez_compressed(npz, **arrays)


def set_entry(name, index, value):
    """A spoiler that sets one entry of a stored array, relative to the old one."""
    def spoil(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][index] = value(arrays[name])
    return spoil


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
    "data_cols_negative": (
        "states", lambda npz: rewrite(npz, set_entry("data_cols", 4, lambda a: -1)),
        "data_cols holds a column outside 0 to 11"),
    "data_cols_past_dim": (
        "states", lambda npz: rewrite(npz, set_entry("data_cols", -1, lambda a: 12)),
        "data_cols holds a column outside 0 to 11"),
    "data_cols_unordered": (
        "states", lambda npz: rewrite(npz, set_entry("data_cols", 1, lambda a: a[0])),
        "data_cols are not increasing within each row"),
    "data_indptr_decreasing": (
        "states", lambda npz: rewrite(npz, set_entry("data_indptr", 3, lambda a: a[-1])),
        "data_indptr must start at 0 and never decrease"),
    "data_indptr_short": (
        "states", lambda npz: rewrite(npz, set_entry("data_indptr", -1, lambda a: a[-1] - 1)),
        "data_indptr ends at"),
    "data_rows_too_many": (
        "states", lambda npz: rewrite(npz, set_entry("data_rows", 0, lambda a: a[0] + 1)),
        "data_rows must be one row count of at least 0 per component, adding up "
        "to the 18 rows of data_indptr, not [7 6 6]"),
    "data_rows_negative": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(
            data_rows=np.array([-6, 12, 12]))),
        "data_rows must be one row count of at least 0"),
    "data_values_nan": (
        "states", lambda npz: rewrite(npz, set_entry("data_values", 2, lambda a: np.nan)),
        "data_values holds non-finite entries"),
    "data_values_zero": (
        "states", lambda npz: rewrite(npz, set_entry("data_values", 3, lambda a: 0.0)),
        "data_values holds a zero: stored nonzeros are never 0"),
    "data_values_negative_zero": (
        "states", lambda npz: rewrite(npz, set_entry("data_values", -1, lambda a: -0.0)),
        "data_values holds a zero: stored nonzeros are never 0"),
    "data_values_integer": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(
            data_values=a["data_values"].astype(np.int64))),
        "data_values must be a vector of float64, not int64 of shape"),
    "data_dim_zero": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(data_dim=np.int64(0))),
        "data_dim must be an integer of at least 1, not 0"),
    "data_dim_too_big": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(data_dim=np.int64(2 ** 44))),
        "Unable to allocate"),
    "no_data_indptr": (
        "states", lambda npz: rewrite(npz, lambda a: a.pop("data_indptr")),
        "data_indptr is not a file in the archive"),
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
        "y_hist is shorter than x_hist: 10 snapshots, not 11"),
    "x_hist_one_dimensional": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(x_hist=a["x_hist"][:, 0])),
        "x_hist has shape (11,), expected (11, 12)"),
    "x_local_hist_short_dimension": (
        "states",
        lambda npz: rewrite(npz, lambda a: a.update(x_local_hist=a["x_local_hist"][..., :10])),
        "x_local_hist has shape (11, 3, 10), expected (11, 3, 12)"),
    "y_hist_one_component_short": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(y_hist=a["y_hist"][:, :2])),
        "y_hist has shape (11, 2, 12), expected (11, 3, 12)"),
    "y_hist_longer": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(
            y_hist=np.concatenate([a["y_hist"], a["y_hist"][:1]]))),
        "y_hist has shape (12, 3, 12), expected (11, 3, 12)"),
    "stale_hist_flat": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(stale_hist=a["stale_hist"].ravel())),
        "stale_hist has shape (33,), expected (11, 3)"),
    "stale_hist_float": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(
            stale_hist=np.where(np.arange(11)[:, None] == 6, 5.5, a["stale_hist"]))),
        "stale_hist holds float64, not integer, stale indices"),
    "algorithm_unknown": (
        "states", lambda npz: rewrite(npz, lambda a: a.update(algorithm=np.str_("bogus"))),
        "algorithm must be one of async_padmm, sync_padmm, sync_admm, not 'bogus'"),
    "no_data_matrices": (
        "states", lambda npz: rewrite(npz, lambda a: (
            dense_format(a), [a.pop("B_%d" % k) for k in range(3)])),
        "data_dim is not a file in the archive"),
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
    assert err == ("error: cannot check %r: trace has 5 state snapshots for 10 "
                   "rows; expected 11\n" % path)


@pytest.mark.parametrize("name", ["rho", "delay_bounds"])
@pytest.mark.parametrize("entries", [1, 2])
def test_check_refuses_a_per_component_array_of_the_wrong_length(
        tmp_path, capsys, name, entries):
    # K = 3; a 1-entry array must not pass by checking component 0 alone
    _, _, path = stored_run(tmp_path, 10)
    rewrite(path[:-4] + ".states.npz",
            lambda arrays: arrays.update({name: arrays[name][:entries]}))
    assert run_cli(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: cannot check %r: %s needs 3 entries, got %d\n"
                            % (path, name, entries))


def test_check_reports_the_shape_of_a_two_dimensional_rho(tmp_path, capsys):
    _, _, path = stored_run(tmp_path, 10)
    rewrite(path[:-4] + ".states.npz",
            lambda arrays: arrays.update(rho=arrays["rho"][None, :]))
    assert run_cli(["check", path]) == 1
    assert capsys.readouterr().err == (
        "error: cannot check %r: rho needs 3 entries, got an array of shape "
        "(1, 3)\n" % path)


@pytest.mark.parametrize("name, k, value, message", [
    ("delay_bounds", 2, -1.0,
     "delay_bounds[2] must be a finite nonnegative number, not -1.0"),
    ("rho", 1, np.nan, "rho[1] must be a finite positive number, not nan"),
])
def test_check_names_a_bad_per_component_entry_by_its_index(
        tmp_path, capsys, name, k, value, message):
    _, _, path = stored_run(tmp_path, 10)

    def spoil(arrays):
        arrays[name] = arrays[name].copy()
        arrays[name][k] = value

    rewrite(path[:-4] + ".states.npz", spoil)
    assert run_cli(["check", path]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: cannot check %r: %s\n" % (path, message)


def test_check_names_a_stale_index_past_the_stored_states(tmp_path, capsys):
    # row 5 is iteration 6, so it may read iterations 1 to 6 only: an index
    # of a later stored state is refused like one past them all, and one
    # before the start is not clamped to the initial state
    _, _, path = stored_run(tmp_path, 10)
    npz = path[:-4] + ".states.npz"
    with np.load(npz) as data:
        stored = dict(data)
    for index in (10 ** 6, 20, 7, 0, -3):
        stale = stored["stale_hist"].copy()
        stale[5, 0] = index
        np.savez(npz, **dict(stored, stale_hist=stale))
        assert run_cli(["check", path]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: cannot check %r: row 5, component 0: stale index %d is not "
            "an iteration the row could read; row 5 reads iterations 1 to 6\n"
            % (path, index))


def test_load_run_reads_each_stored_array_once(tmp_path, monkeypatch):
    # every NpzFile subscript reads the member from the file again, so the
    # number of reads must not grow with the number of rows
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
