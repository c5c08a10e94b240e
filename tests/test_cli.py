"""End-to-end CLI runs through main(), checking artifacts, manifests,
determinism, and the exit-code contract."""

import csv
import importlib.util
import json
import os
import re
import shlex
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import pytest

import semsched.cli as cli
import semsched.experiments as experiments
import semsched.mdp as mdp
import semsched.sim as sim
from semsched.cli import (
    EXIT_CONFIG,
    EXIT_NOT_CONVERGED,
    EXIT_OK,
    EXIT_PARTIAL,
    EXIT_STAMP,
    main,
)
from semsched.core import MetricKind, SystemParams, params_stamp
from semsched.mdp import rvia_solve
from semsched.policies import format_policy, greedy_policy
from test_core import config_text
from test_policies import split_lines

SMALL = SystemParams(
    p_s=0.8, p_v=0.25, p_q=0.3, p_e=0.1, B=2, delta_max=6,
    allow_tight_truncation=True,
)


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "small.cfg"
    path.write_text(config_text(SMALL), encoding="utf-8")
    return str(path)


def read(path):
    with open(path, "rb") as fh:
        return fh.read()


def strict_json(path):
    """The JSON file at `path`, refusing the NaN and Infinity that
    json.dumps writes for non-finite floats."""
    def reject(constant):
        raise ValueError(f"{path} holds {constant}")

    return json.loads(read(path), parse_constant=reject)


def csv_rows(path):
    """The CSV table at `path` read back with csv.reader, its `#` comment
    lines skipped: the column names first, then one list per row."""
    with open(path, encoding="utf-8", newline="") as fh:
        return list(csv.reader(line for line in fh if not line.startswith("#")))


def solve_header(path):
    """The `key = value` header of a written solve file."""
    return split_lines(read(path).decode())[0]


class TestSolve:
    def test_writes_table_thresholds_and_manifest(self, tmp_path, cfg, capsys):
        out = str(tmp_path / "policy.txt")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        assert "gain " in capsys.readouterr().out
        header = solve_header(out)
        assert header["converged"] == "1"
        assert header["params_stamp"] == params_stamp(SMALL)
        manifest = json.loads(read(out + ".manifest.json"))
        assert manifest["subcommand"] == "solve"
        assert manifest["params_stamp"] == params_stamp(SMALL)
        assert out in manifest["outputs"]
        assert out + ".thresholds" in manifest["outputs"]
        # the table settles within 128 sweeps, long before the span does
        residual_span = float(header["residual_span"])
        assert residual_span >= 1e-9
        solved = mdp.rvia_solve(SMALL, MetricKind.QVAOI)
        assert manifest["solver"] == {
            "iterations": int(header["iterations"]),
            "evaluations": 1,  # the first greedy table is already optimal
            "residual_span": residual_span,
            "gain_lo": solved.gain_lo,
            "gain_hi": solved.gain_hi,
            "stop": "certificate",
        }
        assert solved.gain_lo <= float(header["gain"]) <= solved.gain_hi

    def test_manifest_names_a_span_stop(self, tmp_path, cfg, monkeypatch):
        monkeypatch.setattr(mdp, "_CERT_EVERY", 10**9)  # no certificate check
        out = str(tmp_path / "policy.txt")
        assert main(["solve", "--config", cfg, "--out", out]) == EXIT_OK
        header = solve_header(out)
        residual_span = float(header["residual_span"])
        assert residual_span < 1e-9
        assert "stop" not in header  # derived, not stored in the result file
        solver = json.loads(read(out + ".manifest.json"))["solver"]
        solved = mdp.rvia_solve(SMALL, MetricKind.QVAOI)
        assert solver == {
            "iterations": int(header["iterations"]),
            "evaluations": 0,
            "residual_span": residual_span,
            "gain_lo": solved.gain_lo,
            "gain_hi": solved.gain_hi,
            "stop": "span",
        }
        assert solved.gain_lo <= float(header["gain"]) <= solved.gain_hi

    def test_no_single_gain_exits_3_before_sweeping(self, tmp_path, capsys):
        # no harvest and no versions: each version lag is stranded at battery 0
        path = tmp_path / "stranded.cfg"
        path.write_text(config_text(replace(SMALL, p_e=0.0, p_v=0.0)), encoding="utf-8")
        out = tmp_path / "policy.txt"
        rc = main(["solve", "--config", str(path), "--kind", "vaoi", "--out", str(out)])
        assert rc == EXIT_NOT_CONVERGED
        err = capsys.readouterr().err
        # lags 0 and delta_max = 6 are both stranded, so the gap is 6
        assert "closed classes stranded at an empty battery differ in average cost" in err
        assert "by 6.000e+00;" in err
        assert "after 0 iterations" not in err
        assert not out.exists()

    def test_repeat_runs_are_byte_identical(self, tmp_path, cfg):
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        main(["solve", "--config", cfg, "--out", a])
        main(["solve", "--config", cfg, "--out", b])
        assert read(a) == read(b)

    def test_scalar_overrides_change_the_stamp(self, tmp_path, cfg):
        out = str(tmp_path / "p.txt")
        assert main(["solve", "--config", cfg, "--out", out, "--pe", "0.2"]) == EXIT_OK
        assert solve_header(out)["params_stamp"] != params_stamp(SMALL)


class TestSimulate:
    def test_csv_with_replication_means(self, tmp_path, cfg):
        out = str(tmp_path / "sim.csv")
        rc = main([
            "simulate", "--config", cfg, "--out", out,
            "--horizon", "20000", "--warmup", "1000",
            "--seed", "7", "--reps", "2",
        ])
        assert rc == EXIT_OK
        lines = read(out).decode().splitlines()
        data = [l for l in lines if l and not l.startswith("#")]
        assert len(data) == 1 + 2  # header + one row per replication
        assert sum(l.startswith("# mean_") for l in lines) == 4

    def test_a_comma_in_the_policy_name_stays_in_one_field(self, tmp_path, cfg):
        pol = tmp_path / "a,b.txt"
        pol.write_text(format_policy(greedy_policy(SMALL)), encoding="utf-8")
        out = str(tmp_path / "sim.csv")
        rc = main([
            "simulate", "--config", cfg, "--out", out, "--policy", str(pol),
            "--horizon", "2000", "--warmup", "0", "--reps", "2",
        ])
        assert rc == EXIT_OK
        header, *rows = csv_rows(out)
        assert len(header) == 28
        assert [len(row) for row in rows] == [28, 28]
        assert [row[header.index("policy")] for row in rows] == ["a,b.txt"] * 2

    def test_same_seed_same_bytes(self, tmp_path, cfg):
        argv = [
            "simulate", "--config", cfg, "--horizon", "20000",
            "--warmup", "1000", "--seed", "7", "--reps", "2",
        ]
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        main(argv + ["--out", a])
        main(argv + ["--out", b])
        assert read(a) == read(b)
        c = str(tmp_path / "c.csv")
        main(argv[:-2] + ["--seed", "8", "--out", c])
        assert read(a) != read(c)

    def test_solved_policy_file_feeds_the_simulator(self, tmp_path, cfg):
        pol = str(tmp_path / "policy.txt")
        main(["solve", "--config", cfg, "--out", pol])
        out = str(tmp_path / "sim.csv")
        rc = main([
            "simulate", "--config", cfg, "--out", out, "--policy", pol,
            "--horizon", "20000", "--warmup", "1000", "--reps", "2",
        ])
        assert rc == EXIT_OK
        assert "policy.txt" in read(out).decode()

    def test_manifest_records_the_simulated_slots(self, tmp_path, cfg):
        out = str(tmp_path / "sim.csv")
        rc = main([
            "simulate", "--config", cfg, "--out", out,
            "--horizon", "3000", "--warmup", "100", "--reps", "3",
        ])
        assert rc == EXIT_OK
        record = json.loads(read(out + ".manifest.json"))["simulation"]
        assert set(record) == {"slots", "seconds", "slots_per_s", "rewalked_slots"}
        assert record["slots"] == 3 * 3000
        assert record["seconds"] >= 0 and record["slots_per_s"] > 0
        assert 0 <= record["rewalked_slots"] <= record["slots"]

    def test_manifest_sums_the_rewalked_slots(self, tmp_path, cfg, monkeypatch):
        # lanes of two slots rarely merge, so some lanes are walked again
        monkeypatch.setattr(sim, "_LANES", 1500)
        out = str(tmp_path / "sim.csv")
        rc = main([
            "simulate", "--config", cfg, "--out", out,
            "--horizon", "3000", "--warmup", "100", "--seed", "5", "--reps", "3",
        ])
        assert rc == EXIT_OK
        record = json.loads(read(out + ".manifest.json"))["simulation"]
        policy = greedy_policy(SMALL)
        want = sum(
            sim.simulate(SMALL, policy, sim.SimConfig(horizon=3000, seed=5 + r, warmup=100))
            .rewalked_slots
            for r in range(3)
        )
        assert record["rewalked_slots"] == want > 0

    def test_stamped_policy_rejects_other_params(self, tmp_path, cfg):
        pol = str(tmp_path / "policy.txt")
        main(["solve", "--config", cfg, "--out", pol])
        rc = main([
            "simulate", "--config", cfg, "--out", str(tmp_path / "s.csv"),
            "--policy", pol, "--pe", "0.2",
            "--horizon", "1000", "--warmup", "0", "--reps", "2",
        ])
        assert rc == EXIT_STAMP


class TestTrace:
    def test_replays_an_event_table(self, tmp_path, cfg):
        events = tmp_path / "events.txt"
        events.write_text("0 1 0\n1 0 0\n0 0 1\n", encoding="utf-8")
        out = str(tmp_path / "trace.txt")
        rc = main(["trace", "--config", cfg, "--out", out, str(events)])
        assert rc == EXIT_OK
        body = read(out).decode().splitlines()
        assert body[0].split() == [
            "delivered", "new_version", "query", "aoi", "vaoi", "qaoi", "qvaoi",
        ]
        assert len(body) == 4

    def test_malformed_events_exit_config(self, tmp_path, cfg):
        events = tmp_path / "events.txt"
        events.write_text("0 1\n", encoding="utf-8")
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "t.txt"), str(events)])
        assert rc == EXIT_CONFIG

    def test_missing_file_exits_config(self, tmp_path, cfg):
        rc = main(["trace", "--config", cfg, "--out", str(tmp_path / "t.txt"),
                   str(tmp_path / "nope.txt")])
        assert rc == EXIT_CONFIG


class TestCompare:
    def test_single_cell_grid(self, tmp_path, cfg):
        out = str(tmp_path / "cmp.csv")
        rc = main([
            "compare", "--config", cfg, "--out", out,
            "--pe", "0.1", "--pq", "0.3",
        ])
        assert rc == EXIT_OK
        text = read(out).decode()
        for name in ("greedy", "aoi", "vaoi", "qaoi", "qvaoi"):
            assert name in text
        manifest = json.loads(read(out + ".manifest.json"))
        assert manifest["options"]["mode"] == "exact"
        assert manifest["options"]["pe"] == [0.1]
        evaluation = manifest["evaluation"]
        assert set(evaluation) == {"rows"}
        rows = evaluation["rows"]
        assert [r["policy"] for r in rows] == ["greedy", "aoi", "vaoi", "qaoi", "qvaoi"]
        for r in rows:
            assert (r["p_e"], r["p_q"], r["eval"]) == (0.1, 0.3, "exact")
            assert "reason" not in r
        # 7 * 3 * 2 = 42 same-family states; the age-family policies are
        # metered on QVAoI at each of the 7 meter levels of their own chain
        sizes = {r["policy"]: r["evaluation_chain_size"] for r in rows}
        assert sizes["greedy"] == sizes["vaoi"] == sizes["qvaoi"] == 42
        assert sizes["aoi"] == sizes["qaoi"] == 7 * 42
        # greedy is not solved; the solved rows carry their solver's counts
        assert (rows[0]["iterations"], rows[0]["evaluations"], rows[0]["stop"]) == (
            None, None, None)
        for r in rows[1:]:
            assert r["iterations"] >= 1 and r["evaluations"] >= 0
            assert r["stop"] in ("span", "certificate")

    def test_solved_rows_carry_their_gain_bracket(self, tmp_path, cfg):
        out = str(tmp_path / "cmp.csv")
        rc = main(["compare", "--config", cfg, "--out", out, "--pe", "0.1", "--pq", "0.3"])
        assert rc == EXIT_OK
        rows = json.loads(read(out + ".manifest.json"))["evaluation"]["rows"]
        assert (rows[0]["policy"], rows[0]["gain_lo"], rows[0]["gain_hi"]) == (
            "greedy", None, None)
        cell = replace(SMALL, p_e=0.1, p_q=0.3)
        for r in rows[1:]:
            gain = rvia_solve(cell, MetricKind(r["policy"])).gain
            assert r["gain_lo"] <= gain <= r["gain_hi"]

    def test_failed_solves_keep_their_counts(self, tmp_path):
        path = tmp_path / "stranded.cfg"
        path.write_text(config_text(replace(SMALL, p_v=0.0)), encoding="utf-8")
        out = str(tmp_path / "cmp.csv")
        rc = main(["compare", "--config", str(path), "--out", out, "--pe", "0", "--pq", "0.3"])
        assert rc == EXIT_PARTIAL
        rows = json.loads(read(out + ".manifest.json"))["evaluation"]["rows"]
        failed = {r["policy"]: r for r in rows if r["eval"] == "none"}
        assert set(failed) == {"vaoi", "qvaoi"}
        lines = [l for l in read(out).decode().splitlines() if not l.startswith("#")]
        errors = {f[2]: f[7] for f in (l.split(",", 7) for l in lines[1:])}
        for name, r in failed.items():
            assert errors[name].startswith("closed classes stranded at an empty battery")
            assert (r["iterations"], r["evaluations"], r["stop"]) == (0, 0, None)
            assert (r["gain_lo"], r["gain_hi"]) == (None, None)  # no sweep, no bracket

    def test_every_row_carries_the_solve_record(self, tmp_path, cfg):
        solve = str(tmp_path / "policy.txt")
        assert main(["solve", "--config", cfg, "--out", solve]) == EXIT_OK
        keys = list(strict_json(solve + ".manifest.json")["solver"])
        # no versions: vaoi and qvaoi are stranded at p_e 0 and fail there
        path = tmp_path / "stranded.cfg"
        path.write_text(
            config_text(replace(SystemParams(), p_v=0.0, delta_max=28)), encoding="utf-8"
        )
        out = str(tmp_path / "cmp.csv")
        rc = main(["compare", "--config", str(path), "--out", out,
                   "--pe", "0,0.05", "--pq", "0.2"])
        assert rc == EXIT_PARTIAL
        rows = strict_json(out + ".manifest.json")["evaluation"]["rows"]
        lines = [l for l in read(out).decode().splitlines() if not l.startswith("#")]
        errors = [l.split(",", 7)[7] for l in lines[1:]]
        assert len(rows) == len(errors) == 10
        head = ["p_e", "p_q", "policy", "eval", "evaluation_chain_size"]
        for r, error in zip(rows, errors):
            assert list(r) == head + keys
            if r["policy"] == "greedy":
                assert [r[k] for k in keys] == [None] * len(keys)
            if error:
                # the message prints the stranded classes' cost gap as {:.3e}
                gap = re.search(r"differ in average cost by (\S+);", error)[1]
                assert f"{r['residual_span']:.3e}" == gap
        failed = [(r["p_e"], r["policy"]) for r, error in zip(rows, errors) if error]
        assert failed == [(0.0, "vaoi"), (0.0, "qvaoi")]

    def test_default_grid(self, tmp_path, cfg):
        out = str(tmp_path / "cmp.csv")
        assert main(["compare", "--config", cfg, "--out", out]) == EXIT_OK
        lines = [l for l in read(out).decode().splitlines() if not l.startswith("#")]
        assert lines[0].startswith("p_e,p_q,policy,")
        cells = list(dict.fromkeys(tuple(map(float, l.split(",")[:2])) for l in lines[1:]))
        assert cells == [(0.05, 0.2), (0.05, 0.4), (0.2, 0.2), (0.2, 0.4)]
        manifest = json.loads(read(out + ".manifest.json"))
        assert manifest["options"]["pe"] == [0.05, 0.2]
        assert manifest["options"]["pq"] == [0.2, 0.4]
        rows = manifest["evaluation"]["rows"]
        assert list(dict.fromkeys((r["p_e"], r["p_q"]) for r in rows)) == cells


class TestRegions:
    def test_one_map_per_charging_rate(self, tmp_path, cfg):
        out = str(tmp_path / "regions")
        rc = main([
            "regions", "--config", cfg, "--out", out,
            "--kind", "greedy", "--pe", "0.1,0.2",
        ])
        assert rc == EXIT_OK
        manifest = json.loads(read(out + ".manifest.json"))
        assert f"{out}.pe0.1.csv" in manifest["outputs"]
        assert f"{out}.pe0.2.csv" in manifest["outputs"]
        assert f"{out}.pe0.1.thresholds" in manifest["outputs"]

    def test_greedy_maps_bypass_the_solver(self, tmp_path, cfg, monkeypatch):
        def no_solve(*args, **kwargs):
            raise AssertionError("greedy was solved")

        monkeypatch.setattr(cli, "rvia_solve", no_solve)
        out = str(tmp_path / "regions")
        assert main(["regions", "--config", cfg, "--out", out, "--kind", "greedy"]) == EXIT_OK
        rows = [l for l in read(f"{out}.pe0.1.csv").decode().splitlines()
                if not l.startswith("#")]
        expect = greedy_policy(SMALL).actions.reshape(7, 3, 2)[:, :, 1]
        assert rows[1:] == [f"{m},{b},{expect[m, b]}" for m in range(7) for b in range(3)]

    def test_solved_maps_write_stamped_thresholds(self, tmp_path, cfg):
        out = str(tmp_path / "regions")
        assert main(["regions", "--config", cfg, "--out", out, "--kind", "vaoi"]) == EXIT_OK
        header, _ = split_lines(read(f"{out}.pe0.1.thresholds").decode())
        assert header["kind"] == "vaoi"
        assert header["params_stamp"] == params_stamp(SMALL)
        assert "# policy = vaoi" in read(f"{out}.pe0.1.csv").decode()

    @pytest.mark.parametrize("rates", ["0.2,0.20", "0.2,0.2000001", "0.1,0.2,0.1"])
    def test_rates_sharing_an_output_name_are_config_errors(self, tmp_path, cfg, capsys, rates):
        out = tmp_path / "regions"
        rc = main(["regions", "--config", cfg, "--out", str(out), "--kind", "greedy",
                   "--pe", rates])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert f"{out}.pe0" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]


class TestSweep:
    def test_ratio_table(self, tmp_path, cfg):
        out = str(tmp_path / "sweep.csv")
        rc = main([
            "sweep", "--config", cfg, "--out", out,
            "--kind", "greedy", "--target", "3.0",
            "--pq", "0.3", "--tol", "0.05",
        ])
        assert rc == EXIT_OK
        data = [l for l in read(out).decode().splitlines() if l and not l.startswith("#")]
        assert len(data) == 2  # header + one point

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--tol", "0"], "--tol must be in (0, 1), got 0.0"),
            (["--tol", "-0.01"], "--tol must be in (0, 1)"),
            (["--tol", "1"], "--tol must be in (0, 1), got 1.0"),
            (["--tol", "inf"], "--tol must be in (0, 1), got inf"),
            (["--pq", "0"], "sweep needs p_q > 0"),
            (["--pq", "0.3,0"], "sweep needs p_q > 0"),
            (["--pq", ""], "bad rate list"),
            (["--target", "nan"], "--target must be finite"),
            (["--target", "inf"], "--target must be finite"),
        ],
    )
    def test_degenerate_settings_are_config_errors(self, tmp_path, cfg, capsys, flags, message):
        out = tmp_path / "s.csv"
        args = ["sweep", "--config", cfg, "--out", str(out), "--kind", "greedy",
                "--target", "3.0", "--pq", "0.3", "--tol", "0.05"]
        rc = main(args + flags)  # argparse keeps the last --pq / --tol / --target
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert message in err and "Traceback" not in err
        assert not out.exists()

    def test_unreachable_target_is_partial(self, tmp_path, cfg):
        rc = main([
            "sweep", "--config", cfg, "--out", str(tmp_path / "s.csv"),
            "--kind", "greedy", "--target", "0.0",
            "--pq", "0.3", "--tol", "0.05",
        ])
        assert rc == EXIT_PARTIAL


class TestBadInput:
    def test_malformed_config_reports_the_line(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("p_s = 0.8\np_e = banana\n", encoding="utf-8")
        rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o.txt")])
        assert rc == EXIT_CONFIG
        assert "line 2" in capsys.readouterr().err

    def test_non_utf8_config_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_bytes(b"\xff\xfe")
        rc = main(["solve", "--config", str(bad), "--out", str(tmp_path / "o.txt")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "not UTF-8 text" in err and "Traceback" not in err

    def test_state_space_past_the_ceiling_exits_before_building(
        self, tmp_path, capsys, monkeypatch
    ):
        # B = 1 and delta_max 262,144 give 2^20 + 4 states
        def build(*args):
            raise AssertionError("built a model past the state-count ceiling")

        monkeypatch.setattr(mdp, "_build_model", build)
        path = tmp_path / "huge.cfg"
        path.write_text(config_text(replace(SMALL, B=1, delta_max=262_144)),
                        encoding="utf-8")
        out = tmp_path / "o.txt"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        assert rc == EXIT_CONFIG
        assert "1048580 states, above the ceiling of 1048576" in capsys.readouterr().err
        assert not out.exists()

    def test_out_of_range_override(self, tmp_path, cfg):
        rc = main(["solve", "--config", cfg, "--out", str(tmp_path / "o.txt"),
                   "--pe", "1.5"])
        assert rc == EXIT_CONFIG

    def test_bad_rate_list(self, tmp_path, cfg):
        rc = main([
            "compare", "--config", cfg, "--out", str(tmp_path / "o.csv"),
            "--pe", "0.1,x", "--pq", "0.3",
        ])
        assert rc == EXIT_CONFIG

    @pytest.mark.parametrize(
        "args",
        [
            ["compare", "--pe", ""],
            ["compare", "--pq", ""],
            ["regions", "--kind", "greedy", "--pe", ""],
        ],
    )
    def test_empty_rate_lists_are_config_errors(self, tmp_path, cfg, capsys, args):
        rc = main(args + ["--config", cfg, "--out", str(tmp_path / "o")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "bad rate list" in err and "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]

    def test_out_of_range_rate_in_list(self, tmp_path, cfg):
        rc = main([
            "regions", "--config", cfg, "--out", str(tmp_path / "r"),
            "--kind", "greedy", "--pe", "0.1,1.7",
        ])
        assert rc == EXIT_CONFIG

    def test_warmup_exceeding_horizon_is_a_config_error(self, tmp_path, cfg, capsys):
        rc = main([
            "simulate", "--config", cfg, "--policy", "greedy",
            "--horizon", "1000", "--seed", "1", "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == EXIT_CONFIG
        assert "warmup must be < horizon" in capsys.readouterr().err

    def test_single_rep_is_a_config_error(self, tmp_path, cfg, capsys):
        rc = main([
            "simulate", "--config", cfg, "--policy", "greedy",
            "--horizon", "50000", "--reps", "1", "--seed", "1",
            "--out", str(tmp_path / "s.csv"),
        ])
        assert rc == EXIT_CONFIG
        assert "n_reps" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["compare", "--pe", "0.1", "--pq", "0.3"],
        ["regions", "--kind", "greedy"],
        ["sweep", "--kind", "greedy", "--target", "3.0", "--pq", "0.3"],
    ], ids=lambda argv: argv[0])
    def test_every_table_has_one_layout(self, tmp_path, cfg, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", cfg, "--out", str(tmp_path / "o"),
                  "--emit-gnuplot-ready"])
        assert exc.value.code == EXIT_CONFIG
        assert "unrecognized arguments: --emit-gnuplot-ready" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]

    @pytest.mark.parametrize("tight", [False, True])
    def test_subnormal_success_rate_is_a_param_error(self, tmp_path, capsys, tight):
        # 1/p_s overflows to inf, so the truncation guard has no finite value
        path = tmp_path / "tiny.cfg"
        path.write_text(
            config_text(replace(SMALL, p_s=1e-310, allow_tight_truncation=tight)),
            encoding="utf-8",
        )
        out = tmp_path / "o.txt"
        rc = main(["solve", "--config", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert "Traceback" not in err
        if tight:
            assert rc == EXIT_OK
        else:
            assert rc == EXIT_CONFIG
            assert "p_s=1e-310" in err
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["compare", "--pe", "0.05", "--pq", "1e-320"],
        ["sweep", "--target", "25", "--pq", "1e-320"],
    ], ids=lambda argv: argv[0])
    def test_subnormal_query_rate_is_a_param_error(self, tmp_path, cfg, capsys, argv):
        # query-gated costs scale with p_q and lose their precision below
        # the smallest normal float; small.cfg's allow_tight_truncation
        # does not waive it
        rc = main([*argv, "--config", cfg, "--out", str(tmp_path / "o.csv")])
        err = capsys.readouterr().err
        assert rc == EXIT_CONFIG
        assert err.startswith("invalid parameters: p_q=1e-320 is subnormal")
        assert "Traceback" not in err
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]

    def test_subcommand_is_required(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    @pytest.mark.parametrize("argv, flag", [
        (["sweep", "--kind", "greedy", "--target", "3.0"], "--pe"),
        (["trace", "events.txt"], "--pe"),
        (["trace", "events.txt"], "--pq"),
    ])
    def test_rate_flags_that_change_nothing_are_rejected(self, tmp_path, cfg, capsys, argv, flag):
        # sweep sets p_e per bisection point; a trace replays given events
        out = tmp_path / "out.txt"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--config", cfg, "--out", str(out), flag, "0.3"])
        assert exc.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {flag} 0.3" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [tmp_path / "small.cfg"]


class TestMalformedPolicyFiles:
    def solve(self, tmp_path):
        pol = tmp_path / "policy.txt"
        assert main(["solve", "--out", str(pol), "--pe", "0.2", "--pq", "0.3"]) == EXIT_OK
        return pol.read_text(encoding="utf-8").splitlines()

    def simulate(self, tmp_path, lines):
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return main([
            "simulate", "--policy", str(bad), "--pe", "0.2", "--pq", "0.3",
            "--horizon", "20000", "--warmup", "1000", "--reps", "2",
            "--out", str(tmp_path / "sim.csv"),
        ])

    def test_truncated_solve_output_is_rejected(self, tmp_path, capsys):
        lines = self.solve(tmp_path)
        body = lines.index("metric battery query action bias") + 1
        assert self.simulate(tmp_path, lines[: body + 200]) == EXIT_CONFIG
        assert "row(s) missing" in capsys.readouterr().err
        assert not (tmp_path / "sim.csv").exists()

    def test_header_less_file_is_a_config_error(self, tmp_path, capsys):
        lines = [l for l in self.solve(tmp_path) if "=" not in l]
        assert self.simulate(tmp_path, lines) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "missing header key(s): kind, params_stamp, delta_max, B" in err
        assert "Traceback" not in err

    def test_geometry_above_the_state_ceiling_is_a_config_error(self, tmp_path, capsys):
        lines = [
            l.split(" = ")[0] + f" = {10**12}" if l.startswith(("delta_max =", "B =")) else l
            for l in self.solve(tmp_path)
        ]
        assert self.simulate(tmp_path, lines) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "above the ceiling" in err
        assert "Traceback" not in err

    def test_matching_stamp_with_another_geometry_is_a_stamp_mismatch(
        self, tmp_path, cfg, capsys
    ):
        # stamped with the config's parameters, laid out for delta_max 7
        wide = greedy_policy(replace(SMALL, delta_max=7))
        pol = tmp_path / "policy.txt"
        pol.write_text(format_policy(replace(wide, params_stamp=params_stamp(SMALL))))
        rc = main(["simulate", "--config", cfg, "--policy", str(pol),
                   "--out", str(tmp_path / "s.csv"), "--horizon", "1000", "--warmup", "0"])
        assert rc == EXIT_STAMP
        err = capsys.readouterr().err
        assert err.startswith("stamp mismatch: ") and "Traceback" not in err
        assert not (tmp_path / "s.csv").exists()

    def test_binary_file_is_a_config_error(self, tmp_path, capsys):
        bad = tmp_path / "bad.txt"
        bad.write_bytes(b"\xff\xfe\x00policy")
        rc = main(["simulate", "--policy", str(bad), "--out", str(tmp_path / "s.csv")])
        assert rc == EXIT_CONFIG
        assert "not UTF-8 text" in capsys.readouterr().err


class TestRunSettings:
    def compare(self, tmp_path, cfg, *extra):
        return main([
            "compare", "--config", cfg, "--out", str(tmp_path / "c.csv"),
            "--pe", "0.1", "--pq", "0.3", *extra,
        ])

    def test_compare_rejects_bad_windows(self, tmp_path, cfg, capsys):
        assert self.compare(tmp_path, cfg, "--horizon", "0") == EXIT_CONFIG
        assert "horizon must be >= 1" in capsys.readouterr().err
        assert self.compare(tmp_path, cfg, "--horizon", "100", "--warmup", "100") == EXIT_CONFIG
        assert "warmup must be < horizon" in capsys.readouterr().err

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_jobs_below_one_are_config_errors(self, tmp_path, cfg, capsys, jobs):
        assert self.compare(tmp_path, cfg, "--jobs", jobs) == EXIT_CONFIG
        assert "--jobs must be >= 1" in capsys.readouterr().err
        out = tmp_path / "s.csv"
        rc = main([
            "simulate", "--config", cfg, "--horizon", "2000", "--warmup", "0",
            "--reps", "2", "--jobs", jobs, "--out", str(out),
        ])
        assert rc == EXIT_CONFIG
        assert "--jobs must be >= 1" in capsys.readouterr().err
        assert not out.exists() and not (tmp_path / "c.csv").exists()

    def test_seeds_outside_the_key_range_are_rejected(self, tmp_path, cfg, capsys):
        assert self.compare(tmp_path, cfg, "--seed", "-1") == EXIT_CONFIG
        sim = [
            "simulate", "--config", cfg, "--horizon", "2000", "--warmup", "0",
            "--reps", "2", "--out", str(tmp_path / "s.csv"),
        ]
        assert main(sim + ["--seed", "-1"]) == EXIT_CONFIG
        # replication 1 would run under seed 2**64, which no Philox key holds
        assert main(sim + ["--seed", str(2**64 - 1)]) == EXIT_CONFIG
        assert "outside [0, 2**64)" in capsys.readouterr().err
        assert main(sim + ["--seed", str(2**64 - 2)]) == EXIT_OK

    def test_compare_simulates_only_under_simulated_mode(self, tmp_path, cfg):
        def evals(*extra):
            assert self.compare(tmp_path, cfg, "--horizon", "5000", "--warmup", "100",
                                *extra) == EXIT_OK
            text = read(tmp_path / "c.csv").decode()
            return text, {r.split(",")[6] for r in text.splitlines()[-5:]}

        exact, modes = evals("--seed", "1")
        assert modes == {"exact"}
        assert evals("--seed", "2")[0] == exact
        simulated, modes = evals("--mode", "simulated", "--seed", "1")
        assert modes == {"simulated"}
        assert evals("--mode", "simulated", "--seed", "2")[0] != simulated


EVERY_COMMAND = pytest.mark.parametrize("argv", [
    ["solve"],
    ["simulate", "--horizon", "2000", "--warmup", "0", "--reps", "2"],
    ["compare", "--pe", "0.1", "--pq", "0.3"],
    ["regions", "--kind", "greedy"],
    ["sweep", "--kind", "greedy", "--target", "3.0", "--pq", "0.3"],
    ["trace", "EVENTS"],
], ids=lambda argv: argv[0])


def run_small(tmp_path, cfg, argv):
    """main(argv) on the small config, writing to tmp_path/o; EVENTS in
    argv stands for a two-slot event table. Returns the exit code."""
    events = tmp_path / "events.txt"
    events.write_text("0 1 0\n1 0 1\n", encoding="utf-8")
    argv = [str(events) if a == "EVENTS" else a for a in argv]
    return main(argv + ["--config", cfg, "--out", str(tmp_path / "o")])


class TestManifestTimings:
    @EVERY_COMMAND
    def test_duration_survives_a_wall_clock_step_back(
        self, tmp_path, cfg, monkeypatch, argv
    ):
        # every read of the wall clock lands an hour before the last one
        clock = iter(range(10**9, 0, -3600))
        monkeypatch.setattr(cli.time, "time", lambda: float(next(clock)))
        assert run_small(tmp_path, cfg, argv) == EXIT_OK
        # strict: a non-finite float would make the manifest invalid JSON
        # (failed compare rows: test_every_row_carries_the_solve_record)
        assert strict_json(tmp_path / "o.manifest.json")["duration_s"] >= 0


class TestManifestOutputs:
    @EVERY_COMMAND
    def test_outputs_are_exactly_the_files_the_run_wrote(self, tmp_path, cfg, argv):
        assert run_small(tmp_path, cfg, argv) == EXIT_OK
        outputs = strict_json(tmp_path / "o.manifest.json")["outputs"]
        assert outputs and len(set(outputs)) == len(outputs)
        assert {Path(path).parent for path in outputs} == {tmp_path}
        # the inputs and the manifest, and no temp file left behind
        rest = {"small.cfg", "events.txt", "o.manifest.json"}
        assert sorted(os.listdir(tmp_path)) == sorted(rest | {Path(p).name for p in outputs})

    def test_a_failed_regions_cell_writes_and_lists_nothing(self, tmp_path):
        # no versions: vaoi is stranded at p_e 0 and fails there
        path = tmp_path / "stranded.cfg"
        path.write_text(
            config_text(replace(SystemParams(), p_v=0.0, delta_max=28)), encoding="utf-8"
        )
        out = str(tmp_path / "o")
        rc = main(["regions", "--config", str(path), "--out", out,
                   "--kind", "vaoi", "--pe", "0,0.05"])
        assert rc == EXIT_PARTIAL
        outputs = strict_json(out + ".manifest.json")["outputs"]
        assert outputs == [out + ".pe0.05.csv", out + ".pe0.05.thresholds"]
        assert sorted(os.listdir(tmp_path)) == sorted(
            ["stranded.cfg", "o.manifest.json", "o.pe0.05.csv", "o.pe0.05.thresholds"]
        )


class TestCsvTables:
    # the commands whose --out is a CSV table; regions writes one
    # <out>.pe<rate>.csv per charging rate
    CSV_OUT = {"simulate", "compare", "sweep"}

    @EVERY_COMMAND
    def test_every_row_has_the_width_of_the_column_line(self, tmp_path, cfg, argv):
        assert run_small(tmp_path, cfg, argv) == EXIT_OK
        outputs = strict_json(tmp_path / "o.manifest.json")["outputs"]
        tables = [path for path in outputs if path.endswith(".csv")
                  or (path == str(tmp_path / "o") and argv[0] in self.CSV_OUT)]
        assert bool(tables) == (argv[0] in self.CSV_OUT | {"regions"})
        for path in tables:
            header, *rows = csv_rows(path)
            assert rows and all(len(row) == len(header) for row in rows), path


class TestFileModes:
    @EVERY_COMMAND
    @pytest.mark.parametrize("umask", [0o022, 0o077], ids=oct)
    def test_outputs_get_the_mode_of_a_plain_open(self, tmp_path, cfg, argv, umask):
        # a file that open() creates gets 0o666 less the umask, not the
        # 0o600 of the temp file it is written through
        previous = os.umask(umask)
        try:
            assert run_small(tmp_path, cfg, argv) == EXIT_OK
        finally:
            os.umask(previous)
        manifest = tmp_path / "o.manifest.json"
        written = [manifest, *map(Path, json.loads(read(manifest))["outputs"])]
        modes = {path.name: oct(path.stat().st_mode & 0o777) for path in written}
        assert modes == {path.name: oct(0o666 & ~umask) for path in written}


class TestBenchmarkHooks:
    """The traced benchmark wraps names that `semsched.cli` and
    `semsched.experiments` hold; a rename must fail here, not silently
    drop spans from the benchmark."""

    def test_compare_traces_a_well_formed_span_tree(self, tmp_path, cfg):
        path = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
        spec = importlib.util.spec_from_file_location("perfbench_spans", path)
        spans = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(spans)
        saved = {m: dict(vars(m)) for m in (cli, experiments)}
        try:
            rec = spans.Recorder("test")
            spans.install(rec)
            argv = ["compare", "--config", cfg, "--out", str(tmp_path / "c.csv"),
                    "--pe", "0.1", "--pq", "0.3"]
            assert rec.call("cli.main", cli.main, (argv,)) == EXIT_OK
        finally:
            for module, names in saved.items():
                for name, value in names.items():
                    setattr(module, name, value)
        assert spans.tree_problems(rec.spans) == []
        names = {s["name"] for s in rec.spans}
        assert {"experiments.comparison_grid", "mdp.solve", "mdp.eval_same",
                "mdp.eval_cross"} <= names


SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_process(*args, code=None):
    """`python -m semsched *args`, or `python -c code`, in a fresh process."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [SRC, env.get("PYTHONPATH")]))
    argv = ["-c", code] if code is not None else ["-m", "semsched", *args]
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True, text=True, timeout=120,
    )


class TestProcess:
    """Real `semsched` processes, exit included: the in-process tests above
    never reach interpreter shutdown."""

    def test_solve_writes_its_files_and_exits_0(self, tmp_path, cfg):
        out = tmp_path / "policy.txt"
        proc = run_process("solve", "--config", cfg, "--out", str(out))
        assert proc.returncode == EXIT_OK, proc.stderr
        assert re.fullmatch(r"gain \S+ after \d+ iterations\n", proc.stdout)
        assert proc.stdout.startswith(f"gain {solve_header(out)['gain']} ")
        assert (tmp_path / "policy.txt.thresholds").read_text(encoding="utf-8")
        manifest = json.loads(read(str(out) + ".manifest.json"))
        assert manifest["solver"]["stop"] == "certificate"

    def test_bad_config_exits_2(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("p_e = banana\n", encoding="utf-8")
        proc = run_process("solve", "--config", str(bad), "--out", str(tmp_path / "o.txt"))
        assert proc.returncode == EXIT_CONFIG
        assert "config error: line 1" in proc.stderr
        assert not (tmp_path / "o.txt").exists()

    def test_stamp_mismatch_exits_4(self, tmp_path, cfg):
        pol = str(tmp_path / "policy.txt")
        assert run_process("solve", "--config", cfg, "--out", pol).returncode == EXIT_OK
        proc = run_process(
            "simulate", "--config", cfg, "--out", str(tmp_path / "s.csv"),
            "--policy", pol, "--pe", "0.2", "--horizon", "1000", "--warmup", "0",
            "--reps", "2",
        )
        assert proc.returncode == EXIT_STAMP
        assert "stamp mismatch" in proc.stderr

    def test_two_workers_write_the_same_bytes_as_one(self, tmp_path, cfg):
        outs = []
        for jobs in ("1", "2"):
            out = str(tmp_path / f"sim{jobs}.csv")
            proc = run_process(
                "simulate", "--config", cfg, "--out", out, "--horizon", "20000",
                "--warmup", "1000", "--seed", "7", "--reps", "3", "--jobs", jobs,
            )
            assert proc.returncode == EXIT_OK, proc.stderr
            outs.append(read(out))
        assert outs[0] == outs[1]

    def test_only_the_cli_freezes_the_import_time_heap(self):
        code = "import gc, {}; print(gc.get_freeze_count())"
        frozen = run_process(code=code.format("semsched.cli"))
        assert frozen.returncode == 0, frozen.stderr
        assert int(frozen.stdout) > 0
        library = run_process(code=code.format("semsched.experiments"))
        assert library.returncode == 0, library.stderr
        assert int(library.stdout) == 0

    def test_the_simulator_imports_without_scipy(self):
        # only the solver and the evaluator need scipy, and only the
        # table writers in experiments need csv
        code = ("import sys, semsched.core, semsched.metrics, semsched.policies, "
                "semsched.sim; print('scipy' in sys.modules, 'csv' in sys.modules)")
        done = run_process(code=code)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False False"


class TestReadme:
    """The README is the documented way to rerun the experiments; a renamed
    or removed flag must fail here."""

    def test_documented_commands_parse(self):
        readme = Path(__file__).resolve().parents[1] / "README.md"
        blocks = re.findall(r"^```[^\n]*\n(.*?)^```", readme.read_text(encoding="utf-8"),
                            re.M | re.S)
        commands = [line for block in blocks for line in block.splitlines()
                    if line.startswith("semsched ")]
        assert len(commands) >= 10
        parser = cli._build_parser()
        for line in commands:
            try:
                parser.parse_args(shlex.split(line, comments=True)[1:])
            except SystemExit:
                pytest.fail(f"README command does not parse: {line}")
