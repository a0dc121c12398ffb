"""End-to-end command-line behavior through main(argv)."""
import importlib.util
import json
import os
import shutil
from concurrent.futures import ProcessPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from clqsim import cli
from clqsim.cli import ConfigError, ExperimentConfig, _coupling_pvalue, main, run_batch
from clqsim.engine import run
from clqsim.instances import figure1_instance, lower_bound_family, tandem_instance
from clqsim.metrics import SERIES_BLOCK, series_to_csv, time_averaged_series
from clqsim.model import (
    ArrivalModel,
    NetworkInstance,
    ScheduleSet,
    SingleQueueInstance,
    instance_to_dict,
    save_instance,
)


@pytest.fixture()
def fig1_file(tmp_path):
    path = tmp_path / "fig1.json"
    save_instance(figure1_instance(), str(path))
    return str(path)


def _config(tmp_path, **overrides):
    doc = {
        "instance": "fig1.json",
        "policies": ["ucb"],
        "horizon": 200,
        "seeds": {"base": 0, "count": 3},
        "out_dir": "out",
        "coupling_seeds": 200,
    }
    doc.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(doc))
    return str(path)


class TestSlackness:
    def test_stabilizable_exit_zero(self, fig1_file, capsys):
        assert main(["slackness", fig1_file]) == 0
        assert "0.1" in capsys.readouterr().out

    def test_overloaded_exit_two(self, tmp_path):
        uniform = lower_bound_family(3, 0.1)[-1]
        path = tmp_path / "uniform.json"
        save_instance(uniform, str(path))
        assert main(["slackness", str(path)]) == 2

    def test_malformed_json_exit_one(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        assert main(["slackness", str(path)]) == 1

    def test_missing_file_exit_one(self, tmp_path):
        assert main(["slackness", str(tmp_path / "absent.json")]) == 1

    def test_schedule_cap_exit_one(self, tmp_path, capsys):
        # The downward closure of 13 all-on servers holds 2**13 schedules.
        k = 13
        inst = NetworkInstance(
            n=1,
            k=k,
            arrivals=ArrivalModel.bernoulli_single(0.3),
            mu=(0.5,) * k,
            schedules=ScheduleSet.closure([(1,) * k], k),
            server_queue=(0,) * k,
            transitions=NetworkInstance.exit_only_transitions(1, k),
        )
        path = tmp_path / "wide.json"
        save_instance(inst, str(path))
        assert main(["slackness", str(path)]) == 1
        assert capsys.readouterr().out == "error: 8192 schedules exceeds cap 4096\n"
        # With no epsilon in the config, simulate and clq solve the same LP.
        cfg = _config(tmp_path, instance="wide.json", policies=["round-robin"], seeds=[0])
        for command in ("simulate", "clq"):
            assert main([command, "-c", cfg]) == 1
            assert capsys.readouterr().out == "error: 8192 schedules exceeds cap 4096\n"


_MULTI_DOC = {
    "kind": "multi",
    "n": 2,
    "k": 2,
    "lambda": {"support": [[0, 0], [1, 0], [0, 1]], "probs": [0.6, 0.2, 0.2]},
    "mu": [0.6, 0.6],
    "schedules": [[1, 0], [0, 1], [0, 0]],
    "server_queue": [0, 1],
}


class TestMistypedInstanceFields:
    @pytest.mark.parametrize("command", ["simulate", "slackness"])
    @pytest.mark.parametrize(
        "doc, field",
        [
            ({"kind": "single", "k": 2, "lambda": 0.3, "mu": 5}, "mu"),
            ({"kind": "single", "k": 2, "lambda": 0.3, "mu": "0.5"}, "mu"),
            ({"kind": "single", "k": 2.5, "lambda": 0.3, "mu": [0.5, 0.6]}, "k"),
            ({"kind": "single", "k": 2, "lambda": [0.3], "mu": [0.5, 0.6]}, "lambda"),
            ({"kind": "single", "k": True, "lambda": 0.3, "mu": [0.5]}, "k"),
            (dict(_MULTI_DOC, server_queue="01"), "server_queue"),
            (dict(_MULTI_DOC, n="2"), "n"),
            (dict(_MULTI_DOC, schedules=[[1, 0], "01", [0, 0]]), "schedules"),
            (dict(_MULTI_DOC, mu=[0.6, None]), "mu"),
            (dict(_MULTI_DOC, transitions=[[0, 0, 1], 1]), "transitions"),
            (dict(_MULTI_DOC, **{"lambda": {"support": "10", "probs": [1.0]}}), "lambda.support"),
            (dict(_MULTI_DOC, **{"lambda": {"support": [[0, 0]], "probs": 1.0}}), "lambda.probs"),
        ],
    )
    def test_exit_one_naming_the_field(self, tmp_path, capsys, command, doc, field):
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        argv = ["slackness", str(tmp_path / "bad.json")]
        if command == "simulate":
            argv = ["simulate", "-c", _config(tmp_path, instance="bad.json")]
        assert main(argv) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: instance field {field!r} must be ")
        assert out.count("\n") == 1


class TestSimulate:
    def test_horizon_one(self, tmp_path, fig1_file):
        cfg = _config(tmp_path, horizon=1, seeds=[0])
        assert main(["simulate", "-c", cfg]) == 0
        series = (tmp_path / "out" / "series_ucb.csv").read_text()
        lines = series.strip().splitlines()
        assert len(lines) == 2  # header + T=1
        row = lines[1].split(",")
        assert row[0] == "1" and float(row[1]) == 0.0  # starts empty

    def test_outputs_exist(self, tmp_path, fig1_file):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        out = tmp_path / "out"
        assert (out / "series_ucb.csv").exists()
        assert (out / "manifest.json").exists()
        for seed in range(3):
            assert (out / f"trace_ucb_{seed}.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config_sha256"]
        assert "numpy" in manifest["versions"]
        # Paths are echoed relative to the config file's directory.
        assert (manifest["config"]["instance"], manifest["config"]["out_dir"]) == ("fig1.json", "out")

    def test_rerun_byte_identical(self, tmp_path, fig1_file):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        first = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in os.listdir(tmp_path / "out")
        }
        assert main(["simulate", "-c", cfg]) == 0
        second = {
            name: (tmp_path / "out" / name).read_bytes()
            for name in os.listdir(tmp_path / "out")
        }
        assert first == second

    def test_worker_count_invariance(self, tmp_path, fig1_file, monkeypatch):
        cfg = _config(tmp_path, seeds={"base": 0, "count": 4})
        monkeypatch.setenv("CLQ_WORKERS", "1")
        assert main(["simulate", "-c", cfg]) == 0
        serial = (tmp_path / "out" / "series_ucb.csv").read_bytes()
        monkeypatch.setenv("CLQ_WORKERS", "3")
        assert main(["simulate", "-c", cfg]) == 0
        assert (tmp_path / "out" / "series_ucb.csv").read_bytes() == serial

    def test_every_series_file_worker_invariant(self, tmp_path, fig1_file, monkeypatch):
        # Three row blocks per file, the last one short; with two workers every
        # file's blocks are rendered in the pool.
        monkeypatch.setattr("clqsim.cli.ProcessPoolExecutor", _CountingPool)
        monkeypatch.setattr(_CountingPool, "mapped", [])
        cfg = _config(
            tmp_path,
            policies=["ucb", "round-robin"],
            benchmark="oracle-best",
            epsilon=0.1,
            include_delta=True,
            horizon=2 * SERIES_BLOCK + 1235,
            seeds=[0, 1],
            write_traces=False,
        )
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("CLQ_WORKERS", workers)
            assert main(["simulate", "-c", cfg]) == 0
            out = tmp_path / "out"
            outs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        assert sorted(outs[0]) == [
            "manifest.json", "series_oracle-best.csv", "series_round-robin.csv", "series_ucb.csv"
        ]
        assert outs[0] == outs[1]
        assert ("render_series_block", 9) in _CountingPool.mapped
        # Each file holds its own policy's series, as series_to_csv renders it inline.
        policies = ["ucb", "round-robin", "oracle-best"]
        series = run_batch(ExperimentConfig.from_json(cfg), [figure1_instance()], policies, False, 0.1)
        for policy in policies:
            bench = series["oracle-best"] if policy != "oracle-best" else None
            series_to_csv(series[policy], str(tmp_path / "inline.csv"), bench)
            assert (tmp_path / "inline.csv").read_bytes() == outs[0][f"series_{policy}.csv"], policy

    def test_one_pool_per_simulate(self, tmp_path, fig1_file, monkeypatch):
        # The batch and the render blocks share one pool.
        monkeypatch.setattr("clqsim.cli.ProcessPoolExecutor", _CountingPool)
        monkeypatch.setattr(_CountingPool, "mapped", [])
        monkeypatch.setattr(_CountingPool, "started", 0)
        monkeypatch.setenv("CLQ_WORKERS", "2")
        cfg = _config(tmp_path, benchmark="oracle-best", horizon=SERIES_BLOCK + 1, seeds=[0, 1])
        assert main(["simulate", "-c", cfg]) == 0
        assert _CountingPool.started == 1
        assert _CountingPool.mapped == [("_simulate_job", 4), ("render_series_block", 4)]

    def test_unknown_key_exit_one(self, tmp_path, fig1_file):
        cfg = _config(tmp_path, horizons=5)
        assert main(["simulate", "-c", cfg]) == 1

    def test_unknown_policy_exit_one(self, tmp_path, fig1_file):
        cfg = _config(tmp_path, policies=["greedy"])
        assert main(["simulate", "-c", cfg]) == 1


class TestFixedServerRange:
    """A fixed server outside an instance's range, configured or benchmark,
    fails before any job runs or any file is written."""

    @pytest.mark.parametrize(
        "command, server, overrides",
        [
            ("simulate", 7, {"policies": ["ucb", "fixed:7"], "seeds": [0, 1]}),
            ("simulate", 5, {"benchmark": "fixed:5"}),
            ("verify", 7, {"policies": ["ucb", "fixed:7"]}),
            ("clq", 3, {"instance": {"family": "lower-bound", "k": 3, "epsilon": 0.1}, "policies": ["fixed:3"]}),
            ("clq", 5, {"benchmark": "fixed:5"}),
        ],
    )
    def test_exit_one_before_any_run(self, tmp_path, fig1_file, capsys, monkeypatch, command, server, overrides):
        runs = []
        monkeypatch.setenv("CLQ_WORKERS", "1")
        monkeypatch.setattr(cli, "run", lambda *args: runs.append(args) or run(*args))
        cfg = _config(tmp_path, **overrides)
        assert main([command, "-c", cfg]) == 1
        assert capsys.readouterr().out == f"error: fixed server {server} outside range\n"
        assert runs == []
        out = tmp_path / "out"
        assert not out.exists() or not any(out.iterdir())


class _CountingPool(ProcessPoolExecutor):
    """A real process pool that counts its starts and records (function name,
    job count) per map."""

    mapped: list = []
    started = 0

    def __init__(self, *args, **kwargs):
        type(self).started += 1
        super().__init__(*args, **kwargs)

    def map(self, fn, jobs, chunksize=1):
        jobs = list(jobs)
        self.mapped.append((fn.__name__, len(jobs)))
        return super().map(fn, jobs, chunksize=chunksize)


class TestBatchFold:
    @pytest.mark.parametrize(
        "inst, policies, include_delta",
        [
            (tandem_instance(2, (0.8, 0.6), 0.5), ["bp-ucb", "oracle-bp"], True),
            (figure1_instance(), ["ucb", "oracle-best"], False),
        ],
    )
    def test_run_batch_equals_time_averaged_series(self, monkeypatch, inst, policies, include_delta):
        monkeypatch.setenv("CLQ_WORKERS", "1")
        cfg = ExperimentConfig(
            instance="unused.json",
            policies=policies,
            horizon=300,
            seeds=[0, 1, 2],
            epsilon=0.1,
            include_delta=include_delta,
            write_traces=False,
        )
        batch = run_batch(cfg, [inst], policies, False, 0.1)
        for policy in policies:
            traces = [run(inst, policy, cfg.horizon, seed) for seed in cfg.seeds]
            want = time_averaged_series(traces, epsilon=0.1, include_delta=include_delta)
            got = batch[policy]
            assert (got.horizon, got.n_traces) == (want.horizon, want.n_traces)
            for name in (
                "avg_queue_mean",
                "avg_queue_se",
                "sar_mean",
                "sar_se",
                "delta_mean",
            ):
                a, b = getattr(got, name), getattr(want, name)
                assert (a is None) == (b is None), name
                assert a is None or np.array_equal(a, b), name
            assert (got.delta_mean is not None) == include_delta


class TestClqReport:
    def test_oracle_against_itself(self, tmp_path, fig1_file, capsys):
        cfg = _config(
            tmp_path,
            policies=["oracle-best"],
            benchmark="oracle-best",
            epsilon=0.1,
        )
        assert main(["clq", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "oracle-best: CLQ = 0.0" in out

    def test_bounds_table_present(self, tmp_path, fig1_file, capsys):
        cfg = _config(tmp_path, epsilon=0.1)
        assert main(["clq", "-c", cfg]) == 0
        out = capsys.readouterr().out
        assert "ucb_clq_upper" in out
        assert "36036.74591495101" in out


    def test_network_slackness_solved_once(self, tmp_path, capsys, monkeypatch):
        from clqsim import cli

        calls = []
        solve = cli.slackness_of
        monkeypatch.setattr(cli, "slackness_of", lambda inst: calls.append(inst) or solve(inst))
        save_instance(tandem_instance(3, (0.8, 0.7, 0.6), 0.4), str(tmp_path / "tandem.json"))
        cfg = _config(tmp_path, instance="tandem.json", policies=["mw-ucb"], benchmark="oracle-mw")
        assert main(["clq", "-c", cfg]) == 0
        assert len(calls) == 1
        out = capsys.readouterr().out
        assert f"bounds at epsilon = {solve(calls[0])!r}:" in out


class TestVerify:
    def test_clean_run_passes(self, tmp_path, fig1_file):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        assert main(["verify", "-c", cfg]) == 0

    def test_family_config_passes(self, tmp_path, capsys):
        # simulate writes no trace file for a family, so verify expects none.
        cfg = _config(tmp_path, instance={"family": "lower-bound", "k": 2, "epsilon": 0.1})
        assert main(["simulate", "-c", cfg]) == 1
        assert main(["clq", "-c", cfg]) == 0
        capsys.readouterr()
        assert main(["verify", "-c", cfg]) == 0
        assert capsys.readouterr().out.splitlines()[-1].startswith("all checks passed")

    def test_corrupted_trace_fails(self, tmp_path, fig1_file, capsys):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_ucb_1.csv"
        lines = trace.read_text().splitlines()
        parts = lines[30].split(",")
        parts[1] = str(int(parts[1]) + 2)
        lines[30] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", "-c", cfg]) == 3
        out = capsys.readouterr().out
        assert "FAIL" in out and "seed=1" in out

    def test_trace_not_starting_empty_fails(self, tmp_path, fig1_file, capsys):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_ucb_0.csv"
        rows = ["t,q_0,schedule,arrivals,services,transitions"]
        rows += [f"{t},5,0,0,0," for t in range(1, 201)]
        trace.write_text("\n".join(rows) + "\n")
        assert main(["verify", "-c", cfg]) == 3
        out = capsys.readouterr().out
        assert "FAIL check=trace-file-replay policy=ucb seed=0: line 2:" in out
        assert "all checks passed" not in out

    def test_trace_file_of_another_run_fails(self, tmp_path, fig1_file, capsys):
        # All-zero rows replay on their own; they are not this seed's run.
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_ucb_0.csv"
        rows = ["t,q_0,schedule,arrivals,services,transitions"]
        rows += [f"{t},0,0,0,0," for t in range(1, 201)]
        trace.write_text("\n".join(rows) + "\n")
        assert main(["verify", "-c", cfg]) == 3
        out = capsys.readouterr().out
        assert "FAIL check=trace-file-replay policy=ucb seed=0:" in out
        assert "differs from the re-run" in out

    def test_missing_trace_file_fails(self, tmp_path, fig1_file, capsys):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        os.remove(tmp_path / "out" / "trace_ucb_1.csv")
        assert main(["verify", "-c", cfg]) == 3
        fails = [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]
        assert fails == [
            "FAIL check=trace-file-replay policy=ucb seed=1: missing trace file trace_ucb_1.csv"
        ]

    def test_malformed_transitions_cell_fails(self, tmp_path, capsys):
        save_instance(tandem_instance(2, (0.8, 0.6), 0.5), str(tmp_path / "tandem.json"))
        cfg = _config(tmp_path, instance="tandem.json", policies=["bp-ucb"])
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_bp-ucb_2.csv"
        lines = trace.read_text().splitlines()
        parts = lines[30].split(",")
        want = parts[-1]
        parts[-1] = "0>1>2"
        lines[30] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", "-c", cfg]) == 3
        out = capsys.readouterr().out
        assert (
            "FAIL check=trace-file-replay policy=bp-ucb seed=2: "
            f"line 31: transitions '0>1>2' differs from the re-run ('{want}')"
        ) in out

    @staticmethod
    def _fails(capsys):
        return [line for line in capsys.readouterr().out.splitlines() if line.startswith("FAIL")]

    def test_truncated_benchmark_trace_fails(self, tmp_path, fig1_file, capsys):
        cfg = _config(tmp_path, benchmark="oracle-best", seeds={"base": 0, "count": 2}, horizon=300)
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_oracle-best_0.csv"
        trace.write_text("\n".join(trace.read_text().splitlines()[:100]) + "\n")
        capsys.readouterr()
        assert main(["verify", "-c", cfg]) == 3
        assert self._fails(capsys) == [
            "FAIL check=trace-file-replay policy=oracle-best seed=0: 99 data rows for horizon 300"
        ]

    @pytest.mark.parametrize(
        "line, edit, detail",
        [
            (41, lambda row: row + ",junk", "line 41: malformed row"),
            (
                2,
                lambda row: row.replace(",0,", ",00,", 1),
                "line 2: q_0 '00' differs from the re-run ('0')",
            ),
            (1, lambda row: row.replace("q_0", "queue_0"), "missing header"),
        ],
        ids=["extra-cell", "zero-padded-q", "renamed-header"],
    )
    def test_edited_trace_line_fails(self, tmp_path, fig1_file, capsys, line, edit, detail):
        cfg = _config(tmp_path, benchmark="oracle-best", seeds={"base": 0, "count": 2}, horizon=300)
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_ucb_1.csv"
        lines = trace.read_text().splitlines()
        lines[line - 1] = edit(lines[line - 1])
        trace.write_text("\n".join(lines) + "\n")
        capsys.readouterr()
        assert main(["verify", "-c", cfg]) == 3
        assert self._fails(capsys) == [f"FAIL check=trace-file-replay policy=ucb seed=1: {detail}"]

    @staticmethod
    def _corrupt(path):
        lines = path.read_text().splitlines()
        parts = lines[30].split(",")
        parts[1] = str(int(parts[1]) + 2)
        lines[30] = ",".join(parts)
        path.write_text("\n".join(lines) + "\n")

    @pytest.mark.parametrize("corrupt", [False, True])
    def test_worker_count_invariance(self, tmp_path, fig1_file, capsys, monkeypatch, corrupt):
        cfg = _config(tmp_path, policies=["ucb", "round-robin"], seeds={"base": 0, "count": 4})
        assert main(["simulate", "-c", cfg]) == 0
        if corrupt:
            for name in ("trace_round-robin_3.csv", "trace_ucb_2.csv", "trace_ucb_0.csv"):
                self._corrupt(tmp_path / "out" / name)
        capsys.readouterr()
        outs = []
        for workers in ("1", "2"):
            monkeypatch.setenv("CLQ_WORKERS", workers)
            assert main(["verify", "-c", cfg]) == (3 if corrupt else 0)
            outs.append(capsys.readouterr().out)
        assert outs[0] == outs[1]
        if corrupt:
            fails = [line.split(":")[0] for line in outs[0].splitlines() if line.startswith("FAIL")]
            assert fails == [
                "FAIL check=trace-file-replay policy=ucb seed=0",
                "FAIL check=trace-file-replay policy=ucb seed=2",
                "FAIL check=trace-file-replay policy=round-robin seed=3",
            ]
        else:
            assert outs[0].endswith("all checks passed (65 checks)\n")

    @staticmethod
    def _edit_manifest(out, edit):
        path = out / "manifest.json"
        doc = json.loads(path.read_text())
        edit(doc)
        path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")

    @pytest.mark.parametrize(
        "edit, fail",
        [
            (
                lambda out: TestVerify._edit_manifest(
                    out, lambda doc: doc.update(config_sha256="0" * 64)
                ),
                "FAIL check=manifest policy=- seed=-: config_sha256 '000",
            ),
            (
                lambda out: TestVerify._edit_manifest(
                    out, lambda doc: doc["config"].update(horizon=5)
                ),
                "FAIL check=manifest policy=- seed=-: config.horizon 5 differs from the config (300)",
            ),
            (
                lambda out: os.remove(out / "series_oracle-best.csv"),
                "FAIL check=series-file policy=oracle-best seed=-: "
                "missing series file series_oracle-best.csv",
            ),
        ],
        ids=["zeroed-config-sha256", "manifest-horizon-5", "deleted-benchmark-series"],
    )
    def test_edited_outputs_fail(self, tmp_path, fig1_file, capsys, edit, fail):
        cfg = _config(
            tmp_path, benchmark="oracle-best", epsilon=0.1, seeds={"base": 0, "count": 2}, horizon=300
        )
        assert main(["simulate", "-c", cfg]) == 0
        capsys.readouterr()
        assert main(["verify", "-c", cfg]) == 0
        assert capsys.readouterr().out.endswith("all checks passed (33 checks)\n")
        edit(tmp_path / "out")
        assert main(["verify", "-c", cfg]) == 3
        fails = self._fails(capsys)
        assert len(fails) == 1 and fails[0].startswith(fail), fails

    def test_moved_result_directory_passes(self, tmp_path, capsys):
        script = Path(__file__).resolve().parents[1] / "scripts" / "figure1_experiment.py"
        spec = importlib.util.spec_from_file_location("figure1_experiment", script)
        experiment = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(experiment)
        assert experiment.run(["--horizon", "300", "--seeds", "2", "--out", str(tmp_path / "a")]) == 0
        moved = tmp_path / "elsewhere" / "b"
        shutil.copytree(tmp_path / "a", moved)
        capsys.readouterr()
        for out in (tmp_path / "a", moved):
            assert main(["verify", "-c", str(out / "config.json")]) == 0
            assert capsys.readouterr().out.endswith("all checks passed (33 checks)\n")

    def test_missing_manifest_fails(self, tmp_path, fig1_file, capsys):
        cfg = _config(tmp_path, write_traces=False)
        assert main(["simulate", "-c", cfg]) == 0
        os.remove(tmp_path / "out" / "manifest.json")
        capsys.readouterr()
        assert main(["verify", "-c", cfg]) == 3
        fails = self._fails(capsys)
        assert len(fails) == 1
        assert fails[0].startswith("FAIL check=manifest policy=- seed=-: unreadable manifest.json: ")

    def test_coupling_pvalue_pinned(self):
        assert _coupling_pvalue(figure1_instance(), 10_000) == 0.4835077748076769
        inst = SingleQueueInstance(2, 0.5, (0.3, 0.7))
        assert _coupling_pvalue(inst, 10_000) == 0.15917124425502707

    def test_coupling_horizon_beyond_server_0(self):
        with pytest.raises(ValueError):
            _coupling_pvalue(figure1_instance(), 100, horizon=7)

    def test_coupling_blocks_within_byte_budget(self, monkeypatch):
        # At k = 2000 one seed's per-server draws take 80 kB, so 600 seeds
        # in one block would hold 48 MB.
        sizes, draw = [], cli.seed_block_uniforms

        def spy(*args):
            out = draw(*args)
            sizes.append(out.nbytes)
            return out

        monkeypatch.setattr(cli, "seed_block_uniforms", spy)
        inst = SingleQueueInstance(2000, 0.5, (0.6,) + (0.4,) * 1999)
        _coupling_pvalue(inst, 600)
        assert len(sizes) > 4 and max(sizes) <= cli.COUPLING_BLOCK_BYTES


class TestMakeInstance:
    def test_figure1(self, tmp_path):
        out = tmp_path / "fig1.json"
        assert main(["make-instance", "figure1", "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["k"] == 5 and doc["lambda"] == 0.45

    def test_lower_bound_directory(self, tmp_path):
        out = tmp_path / "fam"
        rc = main(
            ["make-instance", "lower-bound", "--out", str(out), "--k", "3", "--epsilon", "0.1"]
        )
        assert rc == 0
        files = sorted(os.listdir(out))
        assert files == [f"lower_bound_{i}.json" for i in range(4)]

    def test_tandem(self, tmp_path):
        out = tmp_path / "tandem.json"
        rc = main(
            [
                "make-instance",
                "tandem",
                "--out",
                str(out),
                "--n",
                "2",
                "--mu",
                "0.8,0.6",
                "--lambda0",
                "0.5",
            ]
        )
        assert rc == 0
        assert main(["slackness", str(out)]) == 0

    def test_random_network(self, tmp_path):
        out = tmp_path / "net.json"
        rc = main(
            [
                "make-instance",
                "random-network",
                "--out",
                str(out),
                "--n",
                "3",
                "--k",
                "4",
                "--epsilon",
                "0.1",
                "--seed",
                "7",
            ]
        )
        assert rc == 0
        assert main(["slackness", str(out)]) == 0

    def test_bad_parameters_exit_one(self, tmp_path):
        out = tmp_path / "bad.json"
        rc = main(["make-instance", "lower-bound", "--out", str(out), "--k", "3", "--epsilon", "0.9"])
        assert rc == 1

    def test_negative_seed_exit_one(self, tmp_path, capsys):
        out = tmp_path / "net.json"
        argv = ["--out", str(out), "--n", "2", "--k", "3", "--epsilon", "0.1", "--seed", "-1"]
        assert main(["make-instance", "random-network", *argv]) == 1
        assert capsys.readouterr().out == "error: seed must be non-negative, got -1\n"
        assert not out.exists()


_NET = {"family": "random-network", "n": 2, "k": 3, "epsilon": 0.1, "seed": 7}
_TANDEM = {"family": "tandem", "n": 2, "mu": [0.8, 0.6], "lambda0": 0.5}


class TestFamilyFields:
    """Family spec fields are checked, never truncated or coerced."""

    @pytest.mark.parametrize("spec", [_NET, _TANDEM, dict(_NET, epsilon=1 / 8, seed=0)])
    def test_well_typed_specs_run(self, tmp_path, spec):
        assert main(["simulate", "-c", _config(tmp_path, instance=spec, policies=["mw-ucb"])]) == 0

    @pytest.mark.parametrize(
        "spec, field",
        [
            (dict(_NET, k=3.6), "k"),
            (dict(_NET, seed=7.9), "seed"),
            (dict(_NET, k="3"), "k"),
            (dict(_NET, seed=True), "seed"),
            (dict(_NET, seed=-1), "seed"),
            (dict(_NET, n=2.0), "n"),
            (dict(_NET, epsilon="0.1"), "epsilon"),
            (dict(_NET, epsilon=True), "epsilon"),
            ({"family": "lower-bound", "k": 3.0, "epsilon": 0.1}, "k"),
            (dict(_TANDEM, mu=[0.8, "0.6"]), "mu"),
            (dict(_TANDEM, mu=[0.8, False]), "mu"),
            (dict(_TANDEM, mu=0.8), "mu"),
            (dict(_TANDEM, lambda0="0.5"), "lambda0"),
            (dict(_TANDEM, lambda0=False), "lambda0"),
        ],
    )
    def test_bad_field_exit_one(self, tmp_path, capsys, spec, field):
        cfg = _config(tmp_path, instance=spec, policies=["mw-ucb"])
        assert main(["simulate", "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: {field}") and out.count("\n") == 1
        assert not os.path.exists(tmp_path / "out")

    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    @pytest.mark.parametrize(
        "spec, message",
        [
            ({"family": "tandem"}, "family 'tandem' needs field 'mu'"),
            ({"family": "tandem", "mu": [0.8, 0.6], "n": 2}, "family 'tandem' needs field 'lambda0'"),
            ({"family": "lower-bound", "k": 2}, "family 'lower-bound' needs field 'epsilon'"),
            ({"family": "random-multi", "epsilon": 0.1}, "family 'random-multi' needs field 'k'"),
            ({"kind": "single"}, "instance field 'k' is missing"),
            ({"kind": "single", "k": 2, "mu": [0.5, 0.6]}, "instance field 'lambda' is missing"),
            ({"kind": "multi", "n": 2, "k": 2}, "instance field 'lambda' is missing"),
            ({"family": ["tandem"]}, "unknown family ['tandem']"),
        ],
    )
    def test_missing_field_named(self, tmp_path, capsys, command, spec, message):
        cfg = _config(tmp_path, instance=spec, policies=["mw-ucb"])
        assert main([command, "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith(f"error: {message}") and out.count("\n") == 1

    def test_make_instance_missing_field(self, tmp_path, capsys):
        out = tmp_path / "tandem.json"
        assert main(["make-instance", "tandem", "--out", str(out), "--n", "2", "--lambda0", "0.5"]) == 1
        assert capsys.readouterr().out == "error: family 'tandem' needs field 'mu'\n"
        assert not out.exists()


class _RecordingPool:
    """Stands in for ProcessPoolExecutor: records max_workers, runs jobs in-process."""

    sizes: list = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, jobs, chunksize=1):
        return map(fn, jobs)


class TestWorkerCount:
    """CLQ_WORKERS is an integer >= 1, and the pool never exceeds the usable CPUs."""

    @pytest.fixture()
    def pool(self, monkeypatch):
        monkeypatch.setattr("clqsim.cli.ProcessPoolExecutor", _RecordingPool)
        monkeypatch.setattr("clqsim.cli.os.sched_getaffinity", lambda pid: {0, 1, 2})
        monkeypatch.setattr(_RecordingPool, "sizes", [])
        return _RecordingPool.sizes

    @pytest.mark.parametrize(
        "value, size",
        [(None, 3), ("", 3), ("1000", 3), ("3", 3), ("2", 2), ("1", None)],
    )
    def test_pool_size(self, tmp_path, fig1_file, monkeypatch, pool, value, size):
        if value is None:
            monkeypatch.delenv("CLQ_WORKERS", raising=False)
        else:
            monkeypatch.setenv("CLQ_WORKERS", value)
        cfg = _config(tmp_path, policies=["ucb", "oracle-best"], horizon=20, write_traces=False)
        assert main(["clq", "-c", cfg]) == 0
        assert pool == ([] if size is None else [size])

    def test_capped_at_job_count(self, tmp_path, fig1_file, monkeypatch, pool):
        monkeypatch.setenv("CLQ_WORKERS", "1000")
        cfg = _config(tmp_path, horizon=20, seeds=[0, 1], write_traces=False)
        assert main(["clq", "-c", cfg]) == 0
        assert pool == [2]

    @pytest.mark.parametrize("value", ["abc", "0", "-2", "1.5", " 2", "2e3"])
    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    def test_bad_value_exit_one(self, tmp_path, fig1_file, capsys, monkeypatch, pool, value, command):
        monkeypatch.setenv("CLQ_WORKERS", value)
        assert main([command, "-c", _config(tmp_path, horizon=20, write_traces=False)]) == 1
        out = capsys.readouterr().out
        assert out == f"error: CLQ_WORKERS must be an integer >= 1, got {value!r}\n"
        assert pool == []


class TestOutOfMemory:
    # 10**15 periods ask for petabytes, which every allocator refuses at once.
    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    def test_huge_horizon_exit_one(self, tmp_path, fig1_file, capsys, monkeypatch, command):
        monkeypatch.setenv("CLQ_WORKERS", "1")
        cfg = _config(tmp_path, horizon=10**15, seeds=[0], write_traces=False, coupling_seeds=0)
        assert main([command, "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: out of memory: ") and out.count("\n") == 1


class TestConfigParsing:
    def test_seed_range_expansion(self, tmp_path, fig1_file):
        cfg = ExperimentConfig.from_json(_config(tmp_path, seeds={"base": 5, "count": 3}))
        assert cfg.seeds == [5, 6, 7]

    def test_relative_paths_resolved(self, tmp_path, fig1_file):
        cfg = ExperimentConfig.from_json(_config(tmp_path))
        assert os.path.isabs(cfg.instance)
        assert os.path.isabs(cfg.out_dir)

    def test_missing_keys(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"policies": ["ucb"], "horizon": 5})

    def test_rejects_zero_horizon(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict(
                {"instance": "x.json", "policies": ["ucb"], "horizon": 0}
            )

    @pytest.mark.parametrize(
        "key, value",
        [
            ("horizon", "50"),
            ("horizon", 50.0),
            ("horizon", True),
            ("coupling_seeds", "200"),
            ("coupling_seeds", 1.5),
            ("coupling_seeds", False),
            ("coupling_seeds", -5),
            ("snapshot_stride", "5"),
            ("snapshot_stride", 1.0),
            ("snapshot_stride", -1),
            ("seeds", [0.7, 1.9]),
            ("seeds", [0, True]),
            ("seeds", {"base": 0.5, "count": 2}),
            ("seeds", {"base": 0, "count": "3"}),
            ("seeds", {"start": 5, "count": 3}),
            ("seeds", 3),
            ("seeds", [-1]),
            ("seeds", [0, 4, -3]),
            ("seeds", {"base": -2, "count": 5}),
            ("epsilon", "0.1"),
            ("epsilon", True),
            ("epsilon", 0),
            ("epsilon", -0.1),
            ("epsilon", float("inf")),
            ("benchmark", 5),
            ("policies", "ucb"),
            ("policies", []),
            ("policies", ["ucb", 5]),
            ("policies", ["ucb", "ucb"]),
            ("out_dir", 5),
            ("instance", 5),
            ("instance", ["x.json"]),
            ("include_delta", "false"),
            ("include_delta", 0),
            ("write_traces", "no"),
            ("write_traces", 1),
            pytest.param("snapshot_stride", 5, id="snapshot_stride-nonzero"),
            pytest.param("seeds", [0, 0, 0], id="seeds-repeated"),
        ],
    )
    def test_rejects_bad_integer_fields(self, key, value):
        doc = {"instance": "x.json", "policies": ["ucb"], "horizon": 5, key: value}
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(doc)

    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    def test_repeated_policy_exit_one(self, tmp_path, fig1_file, capsys, command):
        # Folding one policy's seeds twice would shrink its standard error.
        cfg = _config(tmp_path, policies=["ucb", "oracle-best", "ucb"], seeds=[0, 1], epsilon=0.1)
        assert main([command, "-c", cfg]) == 1
        assert capsys.readouterr().out == "error: policies lists 'ucb' more than once\n"

    def test_zero_coupling_seeds_accepted(self):
        cfg = ExperimentConfig.from_dict(
            {"instance": "x.json", "policies": ["ucb"], "horizon": 5, "coupling_seeds": 0}
        )
        assert cfg.coupling_seeds == 0

    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    @pytest.mark.parametrize(
        "overrides",
        [
            {"horizon": "50"},
            {"coupling_seeds": "200"},
            {"coupling_seeds": -5},
            {"seeds": [0.7, 1.9]},
            {"seeds": [-1]},
            {"seeds": {"base": -1, "count": 2}},
            {"snapshot_stride": "5"},
            {"epsilon": "0.1"},
            {"epsilon": True},
            {"benchmark": 5},
            {"policies": "ucb"},
            {"out_dir": 5},
            {"instance": 5},
            {"include_delta": "false"},
            {"write_traces": "no"},
            {"snapshot_stride": 5},
            {"seeds": [0, 0, 0]},
        ],
    )
    def test_bad_integer_field_exit_one(self, tmp_path, fig1_file, capsys, command, overrides):
        cfg = _config(tmp_path, **overrides)
        assert main([command, "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1


class TestInstanceValidation:
    @staticmethod
    def _tandem_doc():
        return instance_to_dict(tandem_instance(3, (0.8, 0.7, 0.6), 0.4))

    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    def test_arrival_mass_short_of_one(self, tmp_path, capsys, command):
        doc = self._tandem_doc()
        total = sum(doc["lambda"]["probs"])
        doc["lambda"]["probs"] = [0.6 * p / total for p in doc["lambda"]["probs"]]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        cfg = _config(tmp_path, instance="bad.json", policies=["mw-ucb"])
        assert main([command, "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: invalid instance: arrival probabilities sum to")
        assert out.count("\n") == 1

    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    def test_missing_zero_schedule(self, tmp_path, capsys, command):
        doc = self._tandem_doc()
        doc["schedules"] = [s for s in doc["schedules"] if any(s)]
        (tmp_path / "bad.json").write_text(json.dumps(doc))
        cfg = _config(tmp_path, instance="bad.json", policies=["mw-ucb"])
        assert main([command, "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: invalid instance: ")
        assert "schedule set lacks the all-zero schedule" in out
        assert out.count("\n") == 1


class TestStabilityScript:
    @staticmethod
    def _run(argv):
        script = Path(__file__).resolve().parents[1] / "scripts" / "stability_experiment.py"
        spec = importlib.util.spec_from_file_location("stability_experiment", script)
        experiment = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(experiment)
        return experiment.run(argv)

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--seeds", "0"], "error: need at least one seed\n"),
            (["--seeds", "-2"], "error: need at least one seed\n"),
            (["--horizon", "0"], "error: horizon must be at least 1\n"),
            (["--horizon", "-5", "--seeds", "0"], "error: horizon must be at least 1\n"),
        ],
        ids=["seeds-0", "seeds-negative", "horizon-0", "horizon-negative"],
    )
    def test_bad_input_rejected(self, capsys, argv, message):
        assert self._run(argv) == 1
        out = capsys.readouterr()
        assert (out.out, out.err) == (message, "")

    def test_small_run_reports_both_cases(self, capsys):
        assert self._run(["--horizon", "50", "--seeds", "1"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 6 and "nan" not in "".join(lines)
