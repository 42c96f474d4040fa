"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import main


class TestTables:
    def test_tables_prints_both(self, capsys):
        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "Table 2" in out
        assert "purchase100" in out


class TestStudy:
    def test_minimal_run(self, capsys):
        code = main(["study", "--rounds", "2", "--nodes", "6"])
        assert code == 0
        out = capsys.readouterr().out
        lines = [l for l in out.splitlines() if l.strip() and l.lstrip()[0].isdigit()]
        assert len(lines) == 2  # one row per round

    def test_writes_json_and_csv(self, tmp_path, capsys):
        out_json = tmp_path / "run.json"
        out_csv = tmp_path / "run.csv"
        code = main([
            "study", "--rounds", "2", "--nodes", "6",
            "--out", str(out_json), "--csv", str(out_csv),
        ])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert len(payload["rounds"]) == 2
        assert out_csv.read_text().count("\n") >= 2

    def test_dynamic_flag_recorded(self, tmp_path):
        out_json = tmp_path / "run.json"
        main([
            "study", "--rounds", "1", "--nodes", "6", "--dynamic",
            "--out", str(out_json),
        ])
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["dynamic"] is True
        assert payload["metadata"]["sampler"] == "peerswap"

    def test_fresh_sampler_option(self, tmp_path):
        out_json = tmp_path / "run.json"
        main([
            "study", "--rounds", "1", "--nodes", "6", "--sampler", "fresh",
            "--out", str(out_json),
        ])
        payload = json.loads(out_json.read_text())
        assert payload["metadata"]["sampler"] == "fresh"

    def test_arena_dtype_flag(self, tmp_path):
        out_json = tmp_path / "run.json"
        code = main([
            "study", "--rounds", "1", "--nodes", "6",
            "--arena-dtype", "float32",
            "--out", str(out_json),
        ])
        assert code == 0
        payload = json.loads(out_json.read_text())
        assert "engine" not in payload["metadata"]
        assert payload["metadata"]["executor"] == "serial"

    @pytest.mark.parametrize(
        "flags",
        [
            ["--engine", "flat"], ["--workers", "2"], ["--executor", "process"],
            ["--executor", "sharded"], ["--shards", "2"],
            ["--shard-partition", "balanced"],
        ],
        ids=[
            "engine", "workers", "process", "sharded", "shards",
            "shard-partition",
        ],
    )
    def test_removed_flags_rejected(self, flags):
        with pytest.raises(SystemExit):
            main(["study", "--rounds", "1", "--nodes", "6", *flags])

    def test_rejects_unknown_dataset(self):
        with pytest.raises(SystemExit):
            main(["study", "--dataset", "imagenet"])

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--nodes", "1"], "need at least two nodes"),
            (["--train-batch", "-1"], "train_batch must be >= 0"),
            (["--drop-prob", "1.5"], "drop_prob must be in [0, 1)"),
            (["--eval-batch", "-1"], "per-node observer loop"),
        ],
    )
    def test_bad_config_value_is_a_usage_error(self, flags, message, capsys):
        assert main(["study", *flags]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestFigure:
    def test_figure10_tiny(self, capsys):
        code = main(["figure", "--id", "10", "--scale", "tiny"])
        assert code == 0
        out = capsys.readouterr().out
        assert "curves" in out
        assert "static-2reg" in out

    def test_rejects_unknown_figure(self):
        with pytest.raises(SystemExit):
            main(["figure", "--id", "99"])


class TestFigurePlot:
    def test_plot_flag_renders_chart(self, capsys):
        code = main(["figure", "--id", "10", "--scale", "tiny", "--plot"])
        assert code == 0
        out = capsys.readouterr().out
        assert "o=static-2reg" in out
        assert "|" in out  # chart body


class TestStudyCheckpointResume:
    def _cli_config(self, rounds=3):
        from repro.experiments import scaled_config

        return scaled_config(
            "purchase100", "tiny",
            name="cli-purchase100", n_nodes=6, rounds=rounds,
            protocol="samo", dynamic=False,
        )

    def test_checkpoint_flag_writes_resumable_file(self, tmp_path, capsys):
        ck = tmp_path / "run.ckpt"
        code = main([
            "study", "--rounds", "2", "--nodes", "6",
            "--checkpoint", str(ck),
        ])
        assert code == 0
        assert ck.exists()
        from repro import Study

        resumed = Study.resume(ck)
        assert resumed.rounds_completed == 2
        resumed.close()

    def test_resume_continues_bit_identically(self, tmp_path):
        ref_json = tmp_path / "ref.json"
        assert main([
            "study", "--rounds", "3", "--nodes", "6", "--out", str(ref_json),
        ]) == 0
        # Interrupt the same study at round 1 via the session API, then
        # let the CLI finish it from the checkpoint.
        from repro import Study

        study = Study(self._cli_config()).build()
        rounds = study.iter_rounds()
        next(rounds)
        ck = tmp_path / "run.ckpt"
        study.checkpoint(ck)
        study.close()
        resumed_json = tmp_path / "resumed.json"
        assert main([
            "study", "--resume", str(ck), "--out", str(resumed_json),
        ]) == 0
        assert json.loads(ref_json.read_text()) == json.loads(
            resumed_json.read_text()
        )

    def test_resume_of_unloadable_checkpoint_is_a_usage_error(
        self, tmp_path, capsys
    ):
        """A checkpoint whose stored config this build no longer loads
        (legacy-mode dropout) ends in a message, not a traceback."""
        import pickle

        from repro.core.study import CHECKPOINT_FORMAT, CHECKPOINT_VERSION

        config = self._cli_config().to_dict()
        config["model"].update(dropout=0.25, dropout_mode="legacy")
        ck = tmp_path / "legacy.ckpt"
        ck.write_bytes(pickle.dumps({
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "config": config,
        }))
        assert main(["study", "--resume", str(ck)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "workspace trainer" in err

    def test_out_json_round_trips_through_runresult(self, tmp_path):
        """Regression for the CLI writers: --out is RunResult.to_json
        (stable bytes) and --csv rows match the records."""
        import csv as csv_module

        from repro.metrics.records import RunResult

        out_json = tmp_path / "run.json"
        out_csv = tmp_path / "run.csv"
        assert main([
            "study", "--rounds", "2", "--nodes", "6",
            "--out", str(out_json), "--csv", str(out_csv),
        ]) == 0
        result = RunResult.from_json(out_json.read_text())
        assert len(result.rounds) == 2
        assert result.to_json() == out_json.read_text()
        with out_csv.open() as handle:
            rows = list(csv_module.DictReader(handle))
        assert len(rows) == 2
        for row, record in zip(rows, result.rounds):
            assert int(row["round_index"]) == record.round_index
            assert float(row["mia_accuracy"]) == record.mia_accuracy
            assert float(row["model_spread"]) == record.model_spread


class TestReport:
    def test_reports_result_and_trace(self, tmp_path, capsys):
        from repro.metrics.records import RoundRecord, RunResult

        record = RoundRecord(0, 0.5, 0.9, 0.4, 0.6, 0.1, 0.7)
        result = tmp_path / "run.json"
        result.write_text(RunResult(config_name="r", rounds=[record]).to_json())
        trace = tmp_path / "spans.jsonl"
        trace.write_text(
            json.dumps({"span_id": "a", "name": "study.round"}) + "\n"
            + json.dumps({"span_id": "b", "parent_id": "a", "name": "wake"})
            + "\n"
        )
        assert main(["report", str(result), "--trace", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "r: 1 rounds, max_test=0.500, max_mia=0.600" in out
        assert "study.round" in out and "  wake" in out

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ("{truncated", "is not a saved RunResult"),
            ('{"rounds": []}', "is not a saved RunResult"),
        ],
        ids=["missing", "not-json", "not-a-result"],
    )
    def test_bad_result_file_is_a_usage_error(
        self, tmp_path, capsys, content, message
    ):
        path = tmp_path / "run.json"
        if content is not None:
            path.write_text(content)
        assert main(["report", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize(
        "content, message",
        [
            (None, "No such file"),
            ('{"span_id": "a", "name": "x"}\n{oops\n', "spans.jsonl:2"),
            ('[1, 2]\n', "not a span record"),
        ],
        ids=["missing", "not-json", "not-a-span"],
    )
    def test_bad_trace_file_is_a_usage_error(
        self, tmp_path, capsys, content, message
    ):
        path = tmp_path / "spans.jsonl"
        if content is not None:
            path.write_text(content)
        assert main(["report", "--trace", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err


class TestServe:
    def test_serve_parses_and_forwards_options(self, monkeypatch):
        captured = {}

        def fake_serve(**kwargs):
            captured.update(kwargs)
            return 0

        import repro.service

        monkeypatch.setattr(repro.service, "serve", fake_serve)
        code = main([
            "serve", "--host", "0.0.0.0", "--port", "0",
            "--job-workers", "3", "--rate-capacity", "7",
            "--rate-refill", "1.5",
            "--checkpoint-dir", "/tmp/ck", "--state-dir", "/tmp/state",
        ])
        assert code == 0
        assert captured == {
            "host": "0.0.0.0",
            "port": 0,
            "job_workers": 3,
            "rate_capacity": 7,
            "rate_refill": 1.5,
            "checkpoint_dir": "/tmp/ck",
            "state_dir": "/tmp/state",
        }

    def test_serve_defaults(self, monkeypatch):
        captured = {}

        def fake_serve(**kwargs):
            captured.update(kwargs)
            return 0

        import repro.service

        monkeypatch.setattr(repro.service, "serve", fake_serve)
        assert main(["serve"]) == 0
        assert captured["host"] == "127.0.0.1"
        assert captured["port"] == 8000
        assert captured["checkpoint_dir"] is None
        assert captured["state_dir"] is None


class TestCampaign:
    def test_grid_campaign_runs_and_persists(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        summary = tmp_path / "summary.csv"
        code = main([
            "campaign", "--dataset", "purchase100", "--scale", "tiny",
            "--set", "rounds=2", "--set", "n_nodes=6",
            "--grid", "seed=0,1", "--jobs", "1",
            "--out-dir", str(out_dir), "--summary", str(summary),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "campaign: 2 studies" in out
        result_files = sorted(
            p.name for p in out_dir.glob("*.json") if not p.name.startswith(".")
        )
        assert len(result_files) == 2
        assert (out_dir / ".campaign-manifest.json").exists()
        assert summary.read_text().count("\n") == 3  # header + 2 studies

    def test_campaign_resumes_from_out_dir(self, tmp_path, capsys):
        out_dir = tmp_path / "camp"
        args = [
            "campaign", "--dataset", "purchase100", "--scale", "tiny",
            "--set", "rounds=2", "--set", "n_nodes=6",
            "--grid", "seed=0", "--jobs", "1", "--out-dir", str(out_dir),
        ]
        assert main(args) == 0
        (path,) = (
            p for p in out_dir.glob("*.json") if not p.name.startswith(".")
        )
        mtime = path.stat().st_mtime_ns
        assert main(args) == 0  # second run loads from disk
        assert path.stat().st_mtime_ns == mtime

    def test_campaign_without_grid_errors(self, capsys):
        assert main(["campaign"]) == 2
        assert "--grid" in capsys.readouterr().err

    def test_bad_grid_spec_errors(self, capsys):
        assert main(["campaign", "--grid", "seed"]) == 2

    @pytest.mark.parametrize(
        "args, message",
        [
            (["--grid", "executor=sharded"],
             "executor must be 'serial' or 'batched'"),
            (["--grid", "seed=1,2", "--set", "n_nodes=1"],
             "need at least two nodes"),
            (["--grid", "no_such_knob=1"], "unknown StudyConfig field"),
            (["--grid", "seed=0", "--jobs", "-1"], "--jobs must be >= 0"),
        ],
    )
    def test_bad_config_value_is_a_usage_error(self, args, message, capsys):
        assert main(["campaign", *args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert "studies" not in captured.out  # rejected before any run


class TestFlagSurface:
    """Every flag of ``repro study`` and ``repro campaign`` keeps its
    name, default and choices: a parser built another way (say, from
    ``StudyConfig``'s field table) must leave this class passing."""

    @pytest.fixture
    def parse(self, monkeypatch):
        """``parse(argv)`` -> (``vars`` of the namespace ``main`` hands
        the command, ``{flag: dest}``, ``{flag: choices}``)."""
        import argparse

        import repro.cli as cli

        parsers = {}
        add_parser = argparse._SubParsersAction.add_parser

        def recording_add_parser(self, name, **kwargs):
            parsers[name] = add_parser(self, name, **kwargs)
            return parsers[name]

        monkeypatch.setattr(
            argparse._SubParsersAction, "add_parser", recording_add_parser
        )
        seen = {}

        def capture(args):
            seen["args"] = args
            return 0

        monkeypatch.setattr(cli, "_run_study", capture)
        monkeypatch.setattr(cli, "_run_campaign", capture)

        def parse(argv):
            assert main(argv) == 0
            actions = [
                a for a in parsers[argv[0]]._actions if a.dest != "help"
            ]
            return (
                vars(seen["args"]),
                {flag: a.dest for a in actions for flag in a.option_strings},
                {a.option_strings[0]: list(a.choices) for a in actions if a.choices},
            )

        return parse

    def test_study_flags(self, parse):
        defaults, flags, choices = parse(["study"])
        assert defaults == {
            "command": "study", "dataset": "purchase100", "scale": "tiny",
            "protocol": "samo", "sampler": None, "dynamic": False,
            "nodes": None, "view_size": None, "rounds": None, "beta": None,
            "dp_epsilon": None, "dropout": 0.0, "canaries": 0,
            "drop_prob": 0.0, "failure_prob": 0.0, "executor": "serial",
            "train_batch": 0,
            "arena_dtype": "float64", "eval_batch": 0, "seed": 0,
            "checkpoint": None, "resume": None, "out": None, "csv": None,
            "telemetry": False, "trace_out": None,
        }
        assert flags == {
            f"--{dest.replace('_', '-')}": dest
            for dest in defaults
            if dest != "command"
        }
        assert choices == {
            "--dataset": ["cifar10", "cifar100", "fashion_mnist", "purchase100"],
            "--scale": ["tiny", "small", "paper"],
            "--protocol": ["samo", "base_gossip", "base_gossip_partial"],
            "--sampler": ["static", "peerswap", "fresh"],
            "--executor": ["serial", "batched"],
            "--arena-dtype": ["float32", "float64"],
        }

    def test_campaign_flags(self, parse):
        defaults, flags, choices = parse(["campaign"])
        assert defaults == {
            "command": "campaign", "dataset": "purchase100", "scale": "tiny",
            "seed": 0, "name": None, "set": [], "grid": [], "jobs": 0,
            "out_dir": None, "summary": None,
        }
        assert flags == {
            f"--{dest.replace('_', '-')}": dest
            for dest in defaults
            if dest != "command"
        }
        assert choices == {
            "--dataset": ["cifar10", "cifar100", "fashion_mnist", "purchase100"],
            "--scale": ["tiny", "small", "paper"],
        }
