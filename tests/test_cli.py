"""End-to-end command-line behavior through main(argv)."""
import json
import os

import pytest

from clqsim.cli import ConfigError, ExperimentConfig, _coupling_pvalue, main
from clqsim.instances import figure1_instance, lower_bound_family, tandem_instance
from clqsim.model import SingleQueueInstance, save_instance


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

    def test_unknown_key_exit_one(self, tmp_path, fig1_file):
        cfg = _config(tmp_path, horizons=5)
        assert main(["simulate", "-c", cfg]) == 1

    def test_unknown_policy_exit_one(self, tmp_path, fig1_file):
        cfg = _config(tmp_path, policies=["greedy"])
        assert main(["simulate", "-c", cfg]) == 1


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


class TestVerify:
    def test_clean_run_passes(self, tmp_path, fig1_file):
        cfg = _config(tmp_path)
        assert main(["simulate", "-c", cfg]) == 0
        assert main(["verify", "-c", cfg]) == 0

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

    def test_malformed_transitions_cell_fails(self, tmp_path, capsys):
        save_instance(tandem_instance(2, (0.8, 0.6), 0.5), str(tmp_path / "tandem.json"))
        cfg = _config(tmp_path, instance="tandem.json", policies=["bp-ucb"])
        assert main(["simulate", "-c", cfg]) == 0
        trace = tmp_path / "out" / "trace_bp-ucb_2.csv"
        lines = trace.read_text().splitlines()
        parts = lines[30].split(",")
        parts[-1] = "0>1>2"
        lines[30] = ",".join(parts)
        trace.write_text("\n".join(lines) + "\n")
        assert main(["verify", "-c", cfg]) == 3
        out = capsys.readouterr().out
        assert "FAIL check=trace-file-replay policy=bp-ucb seed=2: line 31: malformed row" in out

    def test_coupling_pvalue_pinned(self):
        inst = SingleQueueInstance(2, 0.5, (0.3, 0.7))
        assert _coupling_pvalue(inst, 10_000) == 0.15917124425502707


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
        ],
    )
    def test_rejects_bad_integer_fields(self, key, value):
        doc = {"instance": "x.json", "policies": ["ucb"], "horizon": 5, key: value}
        with pytest.raises(ConfigError, match=key):
            ExperimentConfig.from_dict(doc)

    def test_zero_coupling_seeds_accepted(self):
        cfg = ExperimentConfig.from_dict(
            {"instance": "x.json", "policies": ["ucb"], "horizon": 5, "coupling_seeds": 0}
        )
        assert cfg.coupling_seeds == 0

    @pytest.mark.parametrize("command", ["simulate", "clq", "verify"])
    @pytest.mark.parametrize(
        "overrides", [{"horizon": "50"}, {"coupling_seeds": "200"}, {"coupling_seeds": -5}]
    )
    def test_bad_integer_field_exit_one(self, tmp_path, fig1_file, capsys, command, overrides):
        cfg = _config(tmp_path, **overrides)
        assert main([command, "-c", cfg]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and out.count("\n") == 1
