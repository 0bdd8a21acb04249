"""End-to-end command line tests: exit codes, reports, pipelines."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concord
import concord.cli as cli
from concord.cli import _build_parser, _parse_floats, main
from concord.errors import ConfigurationError
from concord.graph import DEFAULT_PRIOR_P_ONE
from concord.inference import LbpConfig
from concord.model import RelationshipKind
from concord.partition import PartitionConfig
from concord.priors import TEMPERATURE_GRID, TrainConfig

DEMO = Path(__file__).resolve().parents[1] / "demo"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, json.loads(out) if out.strip() else None


class TestStats:
    def test_small_graph(self, capsys):
        code, report = run(capsys, "stats", "--n", "4")
        assert code == 0
        assert report["variables"] == 6
        assert report["ternary_factors"] == 4
        assert report["edges"] == 18
        assert report["config"]["relationship"] == "equivalence"

    def test_closed_form_scales(self, capsys):
        code, report = run(capsys, "stats", "--n", "1000")
        assert code == 0
        assert report["variables"] == 499500
        assert report["ternary_factors"] == 166167000
        assert report["edges"] == 499000500

    def test_missing_n_is_usage_error(self, capsys):
        assert main(["stats"]) == 1

    def test_unknown_relationship_is_usage_error(self):
        assert main(["stats", "--n", "4", "--relationship", "sibling"]) == 1

    def test_unknown_command_is_usage_error(self):
        assert main(["transmogrify"]) == 1

    def test_output_file(self, tmp_path, capsys):
        out = tmp_path / "stats.json"
        code, _ = run(capsys, "stats", "--n", "3", "--output", str(out))
        assert code == 0
        assert json.loads(out.read_text())["variables"] == 3


class TestConfigFile:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        code, report = run(capsys, "stats", "--config", str(cfg))
        assert code == 0
        assert report["variables"] == 6

    def test_config_path_is_echoed(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        code, report = run(capsys, "stats", "--config", str(cfg))
        assert code == 0
        assert report["config"]["config"] == str(cfg)
        assert run(capsys, "stats", "--n", "4")[1]["config"]["config"] is None

    def test_flags_override_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4}))
        code, report = run(capsys, "stats", "--config", str(cfg), "--n", "5")
        assert code == 0
        assert report["variables"] == 10

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"n": 4, "colour": "red"}))
        assert main(["stats", "--config", str(cfg)]) == 2

    def test_non_object_rejected(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["stats", "--config", str(cfg)]) == 2

    def test_seed_only_where_something_draws(self, tmp_path):
        # Decoding and prior training draw no random numbers.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"seed": 3}))
        assert main(["infer", "--config", str(cfg)]) == 2
        assert main(["train-prior", "--config", str(cfg)]) == 2
        assert main(["infer", "--seed", "3"]) == 1  # no such flag

    def test_tune_has_no_default_prior(self, tmp_path):
        # tune builds a sparse graph, where every pair has a prior.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"default_prior": 0.5}))
        assert main(["tune", "--config", str(cfg)]) == 2
        assert main(["tune", "--default-prior", "0.5"]) == 1  # no such flag

    @pytest.mark.parametrize("override", [
        {"repair": "false"},   # bool("false") is True
        {"tolerance": "abc"},
        {"k": 2.9},            # int() would truncate it
        {"relationship": "sibling"},
        {"k": None},
    ])
    def test_bad_value_is_input_error(self, tmp_path, capsys, override):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(override))
        assert main([
            "infer", "--config", str(cfg),
            "--concepts", str(DEMO / "concepts.csv"), "--priors", str(DEMO / "priors.csv"),
        ]) == 2
        assert repr(next(iter(override))) in capsys.readouterr().err

    def test_values_echo_as_they_ran(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"damping": 0, "max_iters": "50", "repair": True}))
        code, report = run(
            capsys, "infer", "--config", str(cfg),
            "--concepts", str(DEMO / "concepts.csv"), "--priors", str(DEMO / "priors.csv"),
        )
        assert code == 0
        echoed = report["config"]
        assert (echoed["damping"], echoed["max_iters"], echoed["repair"]) == (0.0, 50, True)
        assert isinstance(echoed["damping"], float)
        assert "k" not in echoed  # a dense run reads no neighbour count


class TestBuiltinDefaults:
    def test_library_settings_are_read_from_the_library(self):
        builtin = {name: p.builtin for name, p in _build_parser().commands.items()}
        lbp, train = LbpConfig(), TrainConfig()
        assert builtin["infer"]["damping"] == lbp.damping
        assert builtin["infer"]["max_iters"] == lbp.max_iterations
        assert builtin["infer"]["tolerance"] == builtin["tune"]["tolerance"] == lbp.tolerance
        assert builtin["infer"]["k"] == PartitionConfig().k
        assert builtin["infer"]["default_prior"] == DEFAULT_PRIOR_P_ONE
        assert builtin["train-prior"]["learning_rate"] == train.learning_rate
        assert builtin["train-prior"]["epochs"] == train.epochs
        assert builtin["train-prior"]["class_weights"] is train.class_weighted
        grid = builtin["train-prior"]["temperature_grid"]
        assert _parse_floats(grid, "grid") == TEMPERATURE_GRID
        assert all(command["relationship"] == "equivalence" for command in builtin.values())


class TestInferDense:
    def test_reproduces_golden_assignment(self, capsys):
        golden = json.loads((DEMO / "golden_assignment.json").read_text())
        code, report = run(
            capsys, "infer",
            "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(DEMO / "priors.csv"),
            "--weights", ",".join(str(w) for w in golden["weights"]),
        )
        assert code == 0
        decoded = {(r["left"], r["right"]): r["label"] for r in report["assignments"]}
        expected = {(r["left"], r["right"]): r["label"] for r in golden["labels"]}
        assert decoded == expected
        assert report["summary"]["log_score"] == pytest.approx(golden["log_score"])
        assert report["summary"]["violations"] == 0
        assert report["summary"]["converged"] is True
        # Three priors disagree with the consistent labeling and get flipped.
        assert report["summary"]["prior_flips"] == 3

    def test_report_shape(self, capsys):
        code, report = run(
            capsys, "infer",
            "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(DEMO / "priors.csv"),
        )
        assert code == 0
        summary = report["summary"]
        for key in ("variables", "ternary_factors", "edges", "iterations",
                    "converged", "violations", "prior_flips", "log_score",
                    "repaired", "wall_time_s"):
            assert key in summary
        row = report["assignments"][0]
        assert set(row) == {"left", "right", "prior_p", "label", "margin"}

    def test_requires_some_prior_source(self):
        assert main(["infer", "--concepts", str(DEMO / "concepts.csv")]) == 1

    @pytest.mark.parametrize("extra", [
        ["--prior-model", "/nonexistent.json"],
        ["--pairs", str(DEMO / "priors.csv")],
    ], ids=["prior-model", "pairs"])
    def test_priors_exclude_the_prior_model(self, capsys, extra):
        # Both would be echoed, yet --priors alone would be read.
        assert main([
            "infer", "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(DEMO / "priors.csv"), *extra,
        ]) == 1
        assert "excludes" in capsys.readouterr().err

    def test_priors_exclude_embeddings_in_dense_mode(self, capsys):
        # A dense run with --priors opens no embeddings file, yet would echo it.
        argv = [
            "infer", "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(DEMO / "priors.csv"), "--embeddings", "/nonexistent.csv",
        ]
        assert main(argv) == 1
        assert "excludes --embeddings" in capsys.readouterr().err
        # Partitioning reads them, so there the missing file is an input error.
        assert main([*argv, "--mode", "partitioned"]) == 2

    def test_dense_size_over_the_cap_is_refused_before_scoring(self, monkeypatch, capsys):
        # demo/ has 6 concepts: 20 equivalence cliques, 120 parent-child ones.
        def unread(*args):
            pytest.fail("priors were read before the dense size check")

        argv = ["infer", "--concepts", str(DEMO / "concepts.csv"),
                "--priors", str(DEMO / "priors.csv")]
        monkeypatch.setattr(cli, "DENSE_CLIQUE_CAP", 19)
        with monkeypatch.context() as patched:
            patched.setattr(cli, "_load_prior_map", unread)
            assert main(argv) == 2
        err = capsys.readouterr().err
        assert "--mode partitioned" in err and "concord stats" in err
        assert main([*argv, "--mode", "partitioned"]) == 0
        monkeypatch.setattr(cli, "DENSE_CLIQUE_CAP", 20)
        assert main(argv) == 0
        assert main([*argv, "--relationship", "parent-child"]) == 2

    @pytest.mark.parametrize("n, relationship, refused", [
        (500, "equivalence", False), (501, "equivalence", True), (2000, "equivalence", True),
        (275, "parent-child", False), (276, "parent-child", True),
    ])
    def test_dense_size_cap_reads_the_closed_form(self, n, relationship, refused):
        kind = RelationshipKind(relationship)
        if refused:
            with pytest.raises(ConfigurationError, match="--mode partitioned"):
                cli._check_dense_size(n, kind)
        else:
            cli._check_dense_size(n, kind)

    def test_missing_file_is_input_error(self, tmp_path):
        assert main([
            "infer", "--concepts", str(tmp_path / "nope.csv"),
            "--priors", str(DEMO / "priors.csv"),
        ]) == 2

    def test_malformed_weights_is_usage_error(self):
        assert main([
            "infer", "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(DEMO / "priors.csv"), "--weights", "1,x",
        ]) == 1

    def test_wrong_weight_count_is_configuration_error(self):
        assert main([
            "infer", "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(DEMO / "priors.csv"), "--weights", "1,0.5",
        ]) == 2

    def test_duplicate_priors_is_input_error(self, tmp_path):
        bad = tmp_path / "priors.csv"
        bad.write_text("left_id,right_id,p_one\n0,1,0.9\n1,0,0.8\n")
        assert main([
            "infer", "--concepts", str(DEMO / "concepts.csv"),
            "--priors", str(bad),
        ]) == 2


@pytest.fixture(scope="module")
def synth_dir(tmp_path_factory):
    outdir = tmp_path_factory.mktemp("synth")
    code = main([
        "synth", "--n-concepts", "24", "--n-clusters", "6", "--noise", "0.15",
        "--seed", "5", "--pair-mode", "sparse", "--pairs-per-concept", "4",
        "--outdir", str(outdir), "--output", str(outdir / "report.json"),
    ])
    assert code == 0
    return outdir


DEMO_INFER = (
    "infer", "--concepts", str(DEMO / "concepts.csv"), "--priors", str(DEMO / "priors.csv"),
)


@pytest.mark.parametrize("argv", [
    (*DEMO_INFER, "--default-prior", "1.5"),
    (*DEMO_INFER, "--default-prior", "nan"),
    (*DEMO_INFER, "--weights", "1,2"),
    (*DEMO_INFER, "--weights", "1,0,1,1,1"),
    (*DEMO_INFER, "--weights", "1,-1,1,1,1"),
    (*DEMO_INFER, "--weights", "1,nan,1,1,1"),
    (*DEMO_INFER, "--tolerance", "nan"),
    (*DEMO_INFER, "--tolerance", "inf"),
    ("tune", "--concepts", "{synth}/concepts.csv", "--priors", "{synth}/priors.csv",
     "--gold", "{synth}/validation.csv", "--budget", "1", "--tolerance", "nan"),
    ("stats", "--n", "1"),
    ("stats", "--n", "-5"),
], ids=lambda argv: " ".join((argv[0], *argv[-2:])))
def test_bad_setting_is_configuration_error(synth_dir, capsys, argv):
    assert main([arg.format(synth=synth_dir) for arg in argv]) == 2
    assert capsys.readouterr().out == ""


class TestSynth:
    def test_writes_every_artifact(self, synth_dir):
        for name in ("concepts.csv", "priors.csv", "labels.csv", "train.csv",
                     "validation.csv", "test.csv", "meta.json"):
            assert (synth_dir / name).exists()

    def test_meta_counts_are_consistent(self, synth_dir):
        meta = json.loads((synth_dir / "meta.json").read_text())
        counts = meta["counts"]
        assert counts["concepts"] == 24
        assert sum(counts["splits"].values()) == counts["pairs"]
        labels = (synth_dir / "labels.csv").read_text().strip().splitlines()
        assert len(labels) - 1 == counts["pairs"]
        priors = (synth_dir / "priors.csv").read_text().strip().splitlines()
        assert len(priors) - 1 == counts["pairs"]
        assert 0.0 < counts["positive_rate"] < 1.0

    def test_requires_outdir(self):
        assert main(["synth"]) == 1

    @pytest.mark.parametrize("relationship, unread", [
        ("equivalence", {"n_roots", "positive_fraction"}),
        ("parent-child", {"n_clusters", "pair_mode", "pairs_per_concept"}),
    ])
    def test_echo_drops_the_other_relationships_options(
        self, tmp_path, capsys, relationship, unread
    ):
        code, report = run(
            capsys, "synth", "--relationship", relationship, "--n-concepts", "12",
            "--pair-mode", "sparse", "--outdir", str(tmp_path),
        )
        assert code == 0
        echoed = set(report["config"])
        assert not echoed & unread
        shape = {"n_clusters", "n_roots", "pair_mode", "pairs_per_concept", "positive_fraction"}
        assert shape - unread <= echoed

    def test_bad_noise_is_config_error(self, tmp_path):
        assert main(["synth", "--noise", "0.9", "--outdir", str(tmp_path)]) == 2

    def test_all_pairs_echo_no_pairs_per_concept(self, tmp_path, capsys):
        # Equivalence over every pair samples none, so it never reads the count.
        code, report = run(
            capsys, "synth", "--n-concepts", "12", "--pair-mode", "all",
            "--pairs-per-concept", "7", "--outdir", str(tmp_path),
        )
        assert code == 0
        assert report["config"]["pair_mode"] == "all"
        assert "pairs_per_concept" not in report["config"]


class TestInferPartitioned:
    def test_workers_is_no_option(self, tmp_path):
        # Partitions decode in one batch in one process.
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"workers": 2}))
        assert main(["infer", "--config", str(cfg)]) == 2
        assert main(["infer", "--workers", "2"]) == 1  # no such flag

    def test_capped_partitions_counted(self, synth_dir, capsys):
        base = [
            "infer", "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(synth_dir / "priors.csv"),
            "--mode", "partitioned", "--k", "3",
        ]
        code, report = run(capsys, *base, "--max-iters", "3", "--tolerance", "0")
        assert code == 0
        assert report["summary"]["capped_partitions"] == report["summary"]["partitions"]
        code, report = run(capsys, *base)
        assert code == 0
        # Unary-only partitions converge in two rounds.
        assert 0 <= report["summary"]["capped_partitions"] < report["summary"]["partitions"]
        assert report["summary"]["converged"] == (report["summary"]["capped_partitions"] == 0)

    def test_partition_structure_reported(self, synth_dir, capsys):
        code, report = run(
            capsys, "infer", "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(synth_dir / "priors.csv"),
            "--mode", "partitioned", "--k", "2",
        )
        assert code == 0
        assert report["summary"]["partitions"] > 0
        assert report["config"]["k"] == 2
        assert report["summary"]["variables"] >= len(report["assignments"])


class TestEval:
    def test_labels_csv_predictions(self, synth_dir, capsys):
        code, report = run(
            capsys, "eval",
            "--predictions", str(synth_dir / "labels.csv"),
            "--gold", str(synth_dir / "labels.csv"),
        )
        assert code == 0
        assert report["metrics"]["f1"] == 1.0
        assert report["pairs_scored"] > 0

    def test_infer_report_predictions(self, synth_dir, tmp_path, capsys):
        report_path = tmp_path / "infer.json"
        assert main([
            "infer", "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(synth_dir / "priors.csv"),
            "--mode", "partitioned", "--k", "3",
            "--output", str(report_path),
        ]) == 0
        code, scored = run(
            capsys, "eval",
            "--predictions", str(report_path),
            "--gold", str(synth_dir / "test.csv"),
            "--concepts", str(synth_dir / "concepts.csv"),
        )
        assert code == 0
        assert 0.0 <= scored["metrics"]["f1"] <= 1.0
        test_rows = (synth_dir / "test.csv").read_text().strip().splitlines()
        assert scored["pairs_scored"] == len(test_rows) - 1

    def test_coverage_gap_is_config_error(self, synth_dir, tmp_path):
        partial = tmp_path / "partial.csv"
        lines = (synth_dir / "labels.csv").read_text().strip().splitlines()
        partial.write_text("\n".join(lines[:2]) + "\n")
        assert main([
            "eval", "--predictions", str(partial),
            "--gold", str(synth_dir / "labels.csv"),
        ]) == 2

    def test_reversed_report_rows_score_as_the_csv(self, synth_dir, tmp_path, capsys):
        # Equivalence pairs are unordered, so (j, i) names the pair (i, j).
        lines = (synth_dir / "labels.csv").read_text().strip().splitlines()[1:]
        rows = [line.split(",") for line in lines]
        report = tmp_path / "reversed.json"
        report.write_text(json.dumps({"assignments": [
            {"left": int(right), "right": int(left), "label": int(label)}
            for left, right, label in rows
        ]}))
        scores = [
            run(capsys, "eval", "--predictions", str(predictions),
                "--gold", str(synth_dir / "test.csv"))
            for predictions in (synth_dir / "labels.csv", report)
        ]
        assert scores[0][0] == scores[1][0] == 0
        assert scores[0][1]["metrics"] == scores[1][1]["metrics"]
        assert scores[1][1]["metrics"]["f1"] == 1.0

    @pytest.mark.parametrize("broken", [
        lambda rows: rows.append(dict(rows[0])),           # a repeated row
        lambda rows: rows[0].update(label=2),
        lambda rows: rows[0].update(left="x"),
        lambda rows: rows[0].update(right=rows[0]["left"]),  # a self-pair
    ], ids=["repeated-row", "label-2", "non-integer-id", "self-pair"])
    def test_malformed_report_row_is_input_error(self, synth_dir, tmp_path, capsys, broken):
        report_path = tmp_path / "infer.json"
        assert main([
            "infer", "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(synth_dir / "priors.csv"), "--output", str(report_path),
        ]) == 0
        report = json.loads(report_path.read_text())
        broken(report["assignments"])
        report_path.write_text(json.dumps(report))
        assert main([
            "eval", "--predictions", str(report_path),
            "--gold", str(synth_dir / "labels.csv"),
        ]) == 2
        assert "input error" in capsys.readouterr().err

    def test_not_an_infer_report(self, synth_dir, tmp_path):
        bogus = tmp_path / "bogus.json"
        bogus.write_text(json.dumps({"labels": []}))
        assert main([
            "eval", "--predictions", str(bogus),
            "--gold", str(synth_dir / "labels.csv"),
        ]) == 2


class TestTune:
    def test_small_budget_run(self, synth_dir, capsys):
        code, report = run(
            capsys, "tune",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(synth_dir / "priors.csv"),
            "--gold", str(synth_dir / "validation.csv"),
            "--budget", "3", "--seed", "1",
        )
        assert code == 0
        assert len(report["history"]) == 3
        best = report["best"]
        assert best["f1"] == max(r["f1"] for r in report["history"])
        assert len(best["config"]["weights"]) == 5

    def test_gold_without_priors_is_config_error(self, synth_dir, tmp_path):
        priors = tmp_path / "priors.csv"
        priors.write_text("left_id,right_id,p_one\n0,1,0.9\n")
        gold = tmp_path / "gold.csv"
        gold.write_text("left_id,right_id,label\n0,1,1\n2,3,0\n")
        assert main([
            "tune", "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(priors),
            "--gold", str(gold), "--budget", "2",
        ]) == 2


class TestTrainPrior:
    def test_full_pipeline(self, synth_dir, tmp_path, capsys):
        model_path = tmp_path / "model.json"
        assert main([
            "train-prior",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--train", str(synth_dir / "train.csv"),
            "--validation", str(synth_dir / "validation.csv"),
            "--output", str(model_path),
        ]) == 0
        report = json.loads(model_path.read_text())
        assert len(report["model"]["weights"]) == 7
        assert report["model"]["temperature"] > 0
        assert 0.0 <= report["validation"]["metrics"]["f1"] <= 1.0

        # The saved report feeds straight back into infer.
        code2, inferred = run(
            capsys, "infer",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--prior-model", str(model_path),
            "--pairs", str(synth_dir / "labels.csv"),
            "--mode", "partitioned", "--k", "3",
        )
        assert code2 == 0
        labels = (synth_dir / "labels.csv").read_text().strip().splitlines()
        assert len(inferred["assignments"]) == len(labels) - 1

    def test_partitioned_infer_parses_embeddings_once(
        self, synth_dir, tmp_path, capsys, monkeypatch
    ):
        # The prior model's features and the partition neighbours read one parse.
        model_path = tmp_path / "model.json"
        assert main([
            "train-prior", "--concepts", str(synth_dir / "concepts.csv"),
            "--train", str(synth_dir / "train.csv"),
            "--validation", str(synth_dir / "validation.csv"), "--output", str(model_path),
        ]) == 0
        embeddings = tmp_path / "embeddings.csv"
        embeddings.write_text("id,v0,v1\n" + "".join(
            f"{i},{math.cos(i)},{math.sin(i)}\n" for i in range(24)
        ))
        calls = []
        load = concord.fileio.load_embeddings
        monkeypatch.setattr(
            concord.fileio, "load_embeddings", lambda path: calls.append(path) or load(path)
        )
        code, report = run(
            capsys, "infer", "--concepts", str(synth_dir / "concepts.csv"),
            "--prior-model", str(model_path), "--pairs", str(synth_dir / "labels.csv"),
            "--embeddings", str(embeddings), "--mode", "partitioned", "--k", "3",
        )
        assert code == 0
        assert calls == [str(embeddings)]
        assert report["config"]["embeddings"] == str(embeddings)

    @pytest.mark.parametrize("grid", ["nan", "1.0,inf", "0"])
    def test_bad_temperature_grid_is_configuration_error(self, synth_dir, tmp_path, capsys, grid):
        assert main([
            "train-prior",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--train", str(synth_dir / "train.csv"),
            "--validation", str(synth_dir / "validation.csv"),
            "--temperature-grid", grid,
            "--output", str(tmp_path / "model.json"),
        ]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--learning-rate", "-1"),
        ("--learning-rate", "0"),
        ("--learning-rate", "nan"),
        ("--learning-rate", "inf"),
        ("--epochs", "0"),
        ("--epochs", "-5"),
    ])
    def test_bad_training_setting_is_configuration_error(
        self, synth_dir, tmp_path, capsys, flag, value
    ):
        # Each would train nothing and write an all-zero model.
        model_path = tmp_path / "model.json"
        assert main([
            "train-prior",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--train", str(synth_dir / "train.csv"),
            "--validation", str(synth_dir / "validation.csv"),
            flag, value,
            "--output", str(model_path),
        ]) == 2
        assert "configuration error" in capsys.readouterr().err
        assert not model_path.exists()

    @pytest.mark.parametrize("model", [
        {"weights": [0, 0], "bias": 0},
        {"weights": [0] * 7, "bias": 0, "temperature": 0},
        {"weights": [0] * 7, "bias": 0, "temperature": "nan"},
        {"bias": 0},
        {"weights": 3, "bias": 0},
    ])
    def test_malformed_model_is_input_error(self, synth_dir, tmp_path, capsys, model):
        model_path = tmp_path / "model.json"
        model_path.write_text(json.dumps({"model": model}))
        assert main([
            "infer",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--prior-model", str(model_path),
            "--pairs", str(synth_dir / "labels.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert "input error" in err and "not a prior model" in err

    def test_missing_split_is_usage_error(self, synth_dir):
        assert main([
            "train-prior", "--concepts", str(synth_dir / "concepts.csv"),
            "--train", str(synth_dir / "train.csv"),
        ]) == 1


def run_module(*argv):
    """Run ``python -m concord.cli`` on the package these tests imported."""
    env = dict(os.environ)
    source = str(Path(concord.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (source, env.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "concord.cli", *argv], capture_output=True, text=True, env=env
    )


class TestEntrypoint:
    def test_installed_script(self):
        proc = run_module("stats", "--n", "4")
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["variables"] == 6

    def test_verbose_flag_logs_to_stderr(self, synth_dir):
        proc = run_module(
            "-v", "infer",
            "--concepts", str(synth_dir / "concepts.csv"),
            "--priors", str(synth_dir / "priors.csv"),
        )
        assert proc.returncode == 0
        assert "variables" in proc.stderr  # info log line
        json.loads(proc.stdout)
