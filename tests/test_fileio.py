"""CSV and JSON round trips plus the path:line error contract."""

import json

import numpy as np
import pytest

from concord.errors import InputFormatError
from concord.fileio import (
    dump_json,
    load_concepts,
    load_embeddings,
    load_json,
    load_labels,
    load_pairs,
    write_concepts,
    write_labels,
    write_priors,
)
from concord.model import Concept, RelationshipKind

EQ = RelationshipKind.EQUIVALENCE
PC = RelationshipKind.PARENT_CHILD


class TestConcepts:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "concepts.csv")
        concepts = [
            Concept(0, "street address", values=("12 main st", "4 elm rd")),
            Concept(1, "zip, code"),  # embedded comma survives csv quoting
        ]
        write_concepts(path, concepts)
        assert load_concepts(path) == concepts

    def test_rows_sorted_by_id(self, tmp_path):
        path = tmp_path / "concepts.csv"
        path.write_text("id,name,values\n1,beta,\n0,alpha,\n")
        assert [c.id for c in load_concepts(str(path))] == [0, 1]

    def test_sparse_ids_rejected(self, tmp_path):
        path = tmp_path / "concepts.csv"
        path.write_text("id,name,values\n0,alpha,\n2,gamma,\n")
        with pytest.raises(InputFormatError, match="densely"):
            load_concepts(str(path))

    def test_error_carries_path_and_line(self, tmp_path):
        path = tmp_path / "concepts.csv"
        path.write_text("id,name,values\n0,alpha,\nx,beta,\n")
        with pytest.raises(InputFormatError) as err:
            load_concepts(str(path))
        assert str(path) in str(err.value)
        assert ":3:" in str(err.value)

    def test_negative_id_names_its_line(self, tmp_path):
        path = tmp_path / "concepts.csv"
        path.write_text("id,name,values\n0,alpha,\n-1,beta,\n")
        with pytest.raises(InputFormatError, match="non-negative") as err:
            load_concepts(str(path))
        assert err.value.line == 3

    def test_header_mismatch_is_line_one(self, tmp_path):
        path = tmp_path / "concepts.csv"
        path.write_text("concept,name\n0,alpha\n")
        with pytest.raises(InputFormatError) as err:
            load_concepts(str(path))
        assert err.value.line == 1

    def test_missing_file(self, tmp_path):
        with pytest.raises(InputFormatError, match="cannot open"):
            load_concepts(str(tmp_path / "nope.csv"))

    def test_blank_lines_skipped(self, tmp_path):
        path = tmp_path / "concepts.csv"
        path.write_text("id,name,values\n0,alpha,\n\n1,beta,\n")
        assert len(load_concepts(str(path))) == 2


class TestLabelsAndPairs:
    def test_round_trip(self, tmp_path):
        path = str(tmp_path / "labels.csv")
        labels = {(0, 1): 1, (0, 2): 0, (1, 2): 1}
        write_labels(path, labels)
        assert load_labels(path, 3, EQ) == labels

    def test_canonicalizes_orientation(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("left_id,right_id,label\n2,0,1\n")
        assert load_labels(str(path), 3, EQ) == {(0, 2): 1}
        assert load_labels(str(path), 3, PC) == {(2, 0): 1}

    def test_rejects_bad_label(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("left_id,right_id,label\n0,1,2\n")
        with pytest.raises(InputFormatError, match="label must be 0 or 1"):
            load_labels(str(path), 3, EQ)

    def test_rejects_duplicates(self, tmp_path):
        path = tmp_path / "labels.csv"
        path.write_text("left_id,right_id,label\n0,1,1\n1,0,0\n")
        with pytest.raises(InputFormatError, match="duplicate"):
            load_labels(str(path), 3, EQ)

    def test_load_pairs_reads_label_files(self, tmp_path):
        path = str(tmp_path / "labels.csv")
        write_labels(path, {(0, 1): 1, (1, 2): 0})
        assert load_pairs(path, 3, EQ) == [(0, 1), (1, 2)]

    @pytest.mark.parametrize("rows, message", [
        ("0,9\n", "unknown concept"),
        ("0\n", "expected left_id,right_id"),
        ("0,1\n1,0\n", "duplicate pair"),  # one pair after canonicalization
        ("2,2\n", "self-pair"),
        ("0,x\n", "right_id must be an integer"),
    ], ids=["unknown-id", "short-row", "repeated-pair", "self-pair", "non-integer-id"])
    def test_load_pairs_checks_rows(self, tmp_path, rows, message):
        path = tmp_path / "pairs.csv"
        path.write_text("left_id,right_id\n" + rows)
        with pytest.raises(InputFormatError, match=message) as err:
            load_pairs(str(path), 3, EQ)
        assert err.value.line == rows.count("\n") + 1


class TestPriorsFile:
    def test_write_preserves_precision(self, tmp_path):
        path = str(tmp_path / "priors.csv")
        value = 0.12345678901234567
        write_priors(path, {(0, 1): value})
        body = open(path).read().splitlines()
        assert body[0] == "left_id,right_id,p_one"
        assert float(body[1].split(",")[2]) == value


class TestEmbeddings:
    def test_round_trip_shape(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        path.write_text("id,v0,v1\n0,1.0,0.0\n1,0.5,0.5\n")
        vectors = load_embeddings(str(path))
        assert set(vectors) == {0, 1}
        np.testing.assert_allclose(vectors[1], [0.5, 0.5])

    def test_dimension_mismatch(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        path.write_text("id,v0,v1\n0,1.0,0.0\n1,0.5\n")
        with pytest.raises(InputFormatError, match="components"):
            load_embeddings(str(path))

    @pytest.mark.parametrize("component", ["nan", "inf", "-Infinity"])
    def test_non_finite_component_names_its_line(self, tmp_path, component):
        path = tmp_path / "embeddings.csv"
        path.write_text(f"id,v0,v1\n0,1.0,0.0\n1,0.5,{component}\n")
        with pytest.raises(InputFormatError, match="finite") as err:
            load_embeddings(str(path))
        assert err.value.line == 3

    def test_duplicate_id(self, tmp_path):
        path = tmp_path / "embeddings.csv"
        path.write_text("id,v0\n0,1.0\n0,2.0\n")
        with pytest.raises(InputFormatError, match="duplicate"):
            load_embeddings(str(path))


class TestJson:
    def test_dump_to_file_and_stdout(self, tmp_path, capsys):
        payload = {"labels": np.array([1, 0]), "score": np.float64(1.5), "n": np.int64(3)}
        path = str(tmp_path / "out.json")
        dump_json(payload, path)
        assert load_json(path) == {"labels": [1, 0], "score": 1.5, "n": 3}
        dump_json({"ok": True}, None)
        assert json.loads(capsys.readouterr().out) == {"ok": True}

    def test_unserializable_type(self, tmp_path):
        with pytest.raises(TypeError):
            dump_json({"bad": object()}, str(tmp_path / "x.json"))

    def test_non_finite_number_is_refused(self, tmp_path, capsys):
        path = tmp_path / "out.json"
        for target in (str(path), None):
            with pytest.raises(ValueError):
                dump_json({"score": float("nan")}, target)
        assert not path.exists()
        assert capsys.readouterr().out == ""

    def test_invalid_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{\n  'single': 1\n}\n")
        with pytest.raises(InputFormatError) as err:
            load_json(str(path))
        assert err.value.line == 2
