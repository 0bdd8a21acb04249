"""String features, the logistic prior model, calibration, CSV ingestion."""

import dataclasses
import math
import pickle
import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from concord.errors import ConfigurationError, InputFormatError
from concord.model import PRIOR_EPSILON, Concept, RelationshipKind
from concord.priors import (
    FEATURE_NAMES,
    QGRAM_SIZE,
    FeatureVector,
    LinearPriorModel,
    TrainConfig,
    _cosine,
    _levenshtein,
    _ratio,
    calibrate_temperature,
    extract_features,
    load_external_priors,
    predict_prior,
    qgrams,
    train_linear_prior,
)

EQ = RelationshipKind.EQUIVALENCE

_names = st.text(
    alphabet=st.sampled_from("abcdefgh XYZ_0123"), min_size=1, max_size=24
).filter(lambda s: s.strip())

# Letters, separators, digits and non-ASCII text; "İ".lower() is two code points.
_edit_text = st.text(alphabet=st.sampled_from("abc XY_019éßİ"), max_size=80)


def reference_levenshtein(a: str, b: str) -> int:
    """Two-row dynamic program: the scalar reference for _levenshtein."""
    if len(a) < len(b):
        a, b = b, a
    previous = list(range(len(b) + 1))
    for i, ca in enumerate(a, start=1):
        current = [i]
        for j, cb in enumerate(b, start=1):
            current.append(
                min(previous[j] + 1, current[j - 1] + 1, previous[j - 1] + (ca != cb))
            )
        previous = current
    return previous[-1]


def _reference_jaccard(a: set, b: set) -> float:
    if not a and not b:
        return 1.0
    if not a or not b:
        return 0.0
    return len(a & b) / len(a | b)


def reference_features(a: Concept, b: Concept, embeddings=None) -> FeatureVector:
    """Features built from both names on every call, with no per-concept
    signals: the scalar reference for extract_features."""
    name_a = a.name.lower()
    name_b = b.name.lower()
    tokens_a = [t for t in re.split(r"[\W_]+", name_a) if t]
    tokens_b = [t for t in re.split(r"[\W_]+", name_b) if t]
    max_len = max(len(name_a), len(name_b))
    edit_sim = 1.0 - reference_levenshtein(name_a, name_b) / max_len if max_len else 1.0

    value_jaccard = None
    if a.values and b.values:
        value_jaccard = _reference_jaccard(
            {v.lower() for v in a.values}, {v.lower() for v in b.values}
        )

    embedding_cosine = None
    if embeddings is not None and a.id in embeddings and b.id in embeddings:
        embedding_cosine = _cosine(embeddings[a.id], embeddings[b.id])

    return FeatureVector(
        qgram_similarity=_reference_jaccard(set(qgrams(name_a)), set(qgrams(name_b))),
        token_jaccard=_reference_jaccard(set(tokens_a), set(tokens_b)),
        edit_similarity=edit_sim,
        word_count_ratio=_ratio(len(tokens_a), len(tokens_b)),
        char_count_ratio=_ratio(len(name_a), len(name_b)),
        value_jaccard=value_jaccard,
        embedding_cosine=embedding_cosine,
    )


class TestEditDistance:
    @pytest.mark.parametrize(
        "a, b, distance",
        [
            ("kitten", "sitting", 3),
            ("", "abc", 3),
            ("abc", "", 3),
            ("", "", 0),
            ("flaw", "flaw", 0),
            ("ab", "ba", 2),
        ],
    )
    def test_fixed_cases(self, a, b, distance):
        assert _levenshtein(a, b) == distance
        assert reference_levenshtein(a, b) == distance

    @settings(max_examples=400)
    @given(_edit_text, _edit_text)
    def test_equals_reference(self, a, b):
        assert _levenshtein(a, b) == reference_levenshtein(a, b)
        assert _levenshtein(b, a) == _levenshtein(a, b)
        assert _levenshtein(a, a) == 0

    @pytest.mark.parametrize("length", [63, 64, 65, 130, 200, 257])
    def test_names_past_one_machine_word(self, length):
        rng = np.random.default_rng(length)
        alphabet = list("abc _9éİ")
        a = "".join(rng.choice(alphabet, size=length))
        for b in (
            "".join(rng.choice(alphabet, size=length)),
            "".join(rng.choice(alphabet, size=length // 3)),
            a[1:] + "x",
            a.upper().lower(),
            "",
        ):
            assert _levenshtein(a, b) == reference_levenshtein(a, b)

    @settings(max_examples=200)
    @given(_edit_text.filter(str.strip), _edit_text.filter(str.strip))
    def test_feature_uses_lowered_names(self, a, b):
        name_a, name_b = a.lower(), b.lower()
        max_len = max(len(name_a), len(name_b))
        expected = (
            1.0 - reference_levenshtein(name_a, name_b) / max_len if max_len else 1.0
        )
        assert extract_features(Concept(0, a), Concept(1, b)).edit_similarity == expected


class TestFeatures:
    def test_identical_names_max_out(self):
        f = extract_features(Concept(0, "Street Address"), Concept(1, "street address"))
        assert f.qgram_similarity == 1.0
        assert f.token_jaccard == 1.0
        assert f.edit_similarity == 1.0
        assert f.word_count_ratio == 1.0
        assert f.char_count_ratio == 1.0
        assert f.value_jaccard is None
        assert f.embedding_cosine is None

    def test_near_duplicate_names(self):
        f = extract_features(Concept(0, "music artist"), Concept(1, "musical artist"))
        # tokens {music, artist} vs {musical, artist}: 1 shared of 3 distinct
        assert f.token_jaccard == pytest.approx(1.0 / 3.0)
        # two character edits over the longer length 14
        assert f.edit_similarity == pytest.approx(1.0 - 2.0 / 14.0)
        assert f.qgram_similarity == pytest.approx(0.5714285714285714)
        assert f.char_count_ratio == pytest.approx(12.0 / 14.0)
        assert f.word_count_ratio == 1.0

    def test_disjoint_names(self):
        f = extract_features(Concept(0, "zip code"), Concept(1, "latitude"))
        assert f.qgram_similarity == 0.0
        assert f.token_jaccard == 0.0
        assert f.edit_similarity == pytest.approx(0.25)  # 6 edits over length 8

    def test_value_jaccard_only_with_values_on_both_sides(self):
        a = Concept(0, "city", values=("nyc", "sf"))
        b = Concept(1, "town", values=("sf", "la"))
        c = Concept(2, "region")
        assert extract_features(a, b).value_jaccard == pytest.approx(1.0 / 3.0)
        assert extract_features(a, c).value_jaccard is None

    def test_embedding_cosine(self):
        vecs = {0: np.array([1.0, 0.0]), 1: np.array([1.0, 1.0])}
        f = extract_features(Concept(0, "a"), Concept(1, "b"), vecs)
        assert f.embedding_cosine == pytest.approx(1.0 / math.sqrt(2.0))
        f = extract_features(Concept(0, "a"), Concept(1, "b"), {0: vecs[0]})
        assert f.embedding_cosine is None

    def test_as_array_imputes_missing(self):
        f = extract_features(Concept(0, "a"), Concept(1, "b"))
        arr = f.as_array()
        assert arr.shape == (len(FEATURE_NAMES),)
        assert arr[5] == 0.0 and arr[6] == 0.0

    @settings(max_examples=200)
    @given(_names, _names)
    def test_symmetry(self, name_a, name_b):
        f_ab = extract_features(Concept(0, name_a), Concept(1, name_b))
        f_ba = extract_features(Concept(0, name_b), Concept(1, name_a))
        assert np.allclose(f_ab.as_array(), f_ba.as_array())

    @settings(max_examples=200)
    @given(_names, _names)
    def test_ranges(self, name_a, name_b):
        arr = extract_features(Concept(0, name_a), Concept(1, name_b)).as_array()
        assert (arr >= -1.0).all() and (arr <= 1.0).all()


_concept_names = _edit_text.filter(str.strip)
_value_sets = st.lists(_edit_text, max_size=4).map(tuple)
_vectors = st.lists(
    st.floats(min_value=-4.0, max_value=4.0, allow_subnormal=False), min_size=3, max_size=3
).map(np.array)


def _bits(features: FeatureVector) -> bytes:
    return features.as_array().tobytes()


class TestCachedSignals:
    @settings(max_examples=300)
    @given(
        _concept_names, _concept_names, _value_sets, _value_sets,
        st.none() | st.tuples(_vectors, _vectors),
    )
    def test_equal_to_reference_features(self, name_a, name_b, values_a, values_b, vectors):
        embeddings = None if vectors is None else dict(enumerate(vectors))
        a, b = Concept(0, name_a, values_a), Concept(1, name_b, values_b)
        for left, right in ((a, b), (b, a)):
            expected = reference_features(left, right, embeddings)
            got = extract_features(left, right, embeddings)
            assert got == expected
            assert _bits(got) == _bits(expected)

    @pytest.mark.parametrize("name_a, name_b", [
        ("İstanbul", "istanbul"),  # "İ".lower() is two code points
        ("__", "--"),  # punctuation only: no word tokens
        ("ab", "a"),  # both shorter than QGRAM_SIZE
        ("x", "xyz_abc"),
    ])
    def test_edge_names(self, name_a, name_b):
        a, b = Concept(0, name_a, ("V",)), Concept(1, name_b, ("v", "w"))
        for left, right in ((a, b), (b, a)):
            assert _bits(extract_features(left, right)) == _bits(reference_features(left, right))
        assert len(Concept(0, "ab").signals.name) < QGRAM_SIZE
        assert Concept(0, "ab").signals.grams == frozenset({"ab"})
        assert Concept(0, "__").signals.tokens == frozenset()
        assert len(Concept(0, "İ").signals.name) == 2

    def test_signals_are_not_fields(self):
        c = Concept(3, "Street Address", ("Main St", "main st"))
        twin = Concept(3, "Street Address", ("Main St", "main st"))
        before = (repr(c), hash(c), pickle.dumps(c), dataclasses.fields(c))
        extract_features(c, Concept(4, "address"))
        assert "signals" in vars(c)  # computed once and kept on the concept
        assert (repr(c), hash(c), pickle.dumps(c), dataclasses.fields(c)) == before
        assert [f.name for f in dataclasses.fields(c)] == ["id", "name", "values"]
        assert c == twin and hash(c) == hash(twin)
        again = pickle.loads(pickle.dumps(c))
        assert again == c and "signals" not in vars(again)
        assert again.signals == c.signals

    def test_replaced_concept_gets_fresh_signals(self):
        c = Concept(0, "Street Address", ("A",))
        old = c.signals
        renamed = dataclasses.replace(c, name="zip code")
        assert renamed.signals.name == "zip code"
        assert renamed.signals.tokens == frozenset({"zip", "code"})
        assert dataclasses.replace(c, values=("B",)).signals.values == frozenset({"b"})
        assert c.signals is old
        other = Concept(1, "zip code")
        assert extract_features(renamed, other) == reference_features(renamed, other)


class TestLinearModel:
    def test_sigmoid_values(self):
        model = LinearPriorModel(weights=(1.0,) + (0.0,) * 6, bias=0.0)
        x = np.zeros(7)
        x[0] = 4.0
        assert predict_prior(model, x).p_one == pytest.approx(0.9820137900379085)
        x[0] = 1.0
        assert predict_prior(model, x).p_one == pytest.approx(0.7310585786300049)

    def test_zero_logit_is_half(self):
        model = LinearPriorModel(weights=(2.0, -1.0) + (0.0,) * 5, bias=-1.0)
        x = np.zeros(7)
        x[0], x[1] = 1.0, 1.0  # 2 - 1 - 1 = 0
        assert predict_prior(model, x).p_one == pytest.approx(0.5)

    def test_round_trip_dict(self):
        model = LinearPriorModel(weights=tuple(range(7)), bias=-0.5, temperature=2.0)
        again = LinearPriorModel.from_dict(model.to_dict())
        assert again == model

    @settings(max_examples=100)
    @given(st.integers(min_value=0, max_value=2**32 - 1))
    def test_logit_equals_a_fresh_dot_product(self, seed):
        rng = np.random.default_rng(seed)
        weights = tuple(float(w) for w in rng.normal(size=7) * rng.uniform(0.1, 50.0))
        model = LinearPriorModel(weights=weights, bias=float(rng.normal()))
        untouched = LinearPriorModel.from_dict(model.to_dict())
        for _ in range(10):
            x = rng.normal(size=7)
            expected = float(np.dot(np.asarray(weights), x) + model.bias)
            assert model.logit(x).hex() == expected.hex()
        # The cached weight array is invisible to equality and serialization.
        assert model == untouched and hash(model) == hash(untouched)
        assert model.to_dict() == untouched.to_dict()
        assert LinearPriorModel.from_dict(model.to_dict()) == model
        assert model.with_temperature(2.0).logit(x) == model.logit(x)

    def test_rejects_bad_shapes(self):
        with pytest.raises(ValueError):
            LinearPriorModel(weights=(1.0,), bias=0.0)
        with pytest.raises(ValueError):
            LinearPriorModel(weights=(0.0,) * 7, bias=0.0, temperature=0.0)

    @pytest.mark.parametrize("temperature", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_temperature(self, temperature):
        with pytest.raises(ValueError, match="finite"):
            LinearPriorModel(weights=(0.0,) * 7, bias=0.0, temperature=temperature)
        model = LinearPriorModel(weights=(0.0,) * 7, bias=0.0)
        with pytest.raises(ValueError, match="finite"):
            model.with_temperature(temperature)

    def test_extreme_logits_clamp_instead_of_overflowing(self):
        x = np.ones(7)
        low = LinearPriorModel(weights=(-1000.0,) * 7, bias=0.0)
        assert predict_prior(low, x).p_one == PRIOR_EPSILON
        high = LinearPriorModel(weights=(1000.0,) * 7, bias=0.0)
        assert predict_prior(high, x).p_one == 1.0 - PRIOR_EPSILON

    @settings(max_examples=100)
    @given(
        st.floats(min_value=-5.0, max_value=5.0),
        st.floats(min_value=0.1, max_value=10.0),
    )
    def test_temperature_never_changes_argmax(self, logit_scale, temperature):
        rng = np.random.default_rng(0)
        model = LinearPriorModel(
            weights=tuple(rng.normal(size=7) * logit_scale), bias=float(rng.normal())
        )
        heated = model.with_temperature(temperature)
        for _ in range(20):
            x = rng.normal(size=7)
            assert predict_prior(model, x).argmax == predict_prior(heated, x).argmax


class TestTraining:
    def test_separable_data_fits(self):
        rng = np.random.default_rng(1)
        examples = []
        for _ in range(60):
            x = np.zeros(7)
            x[0] = rng.uniform(0.7, 1.0)
            examples.append((x, 1))
            x = np.zeros(7)
            x[0] = rng.uniform(0.0, 0.3)
            examples.append((x, 0))
        model = train_linear_prior(examples)
        hi, lo = np.zeros(7), np.zeros(7)
        hi[0], lo[0] = 0.9, 0.1
        assert predict_prior(model, hi).p_one > 0.9
        assert predict_prior(model, lo).p_one < 0.1

    def test_all_zero_features_learn_the_class_rate(self):
        # With no signal and no reweighting the only fit is the base rate.
        x = np.zeros(7)
        examples = [(x, 1)] * 3 + [(x, 0)] * 7
        model = train_linear_prior(examples, TrainConfig(class_weighted=False))
        assert predict_prior(model, x).p_one == pytest.approx(0.3, abs=1e-3)

    def test_class_weighting_centers_empty_signal(self):
        x = np.zeros(7)
        examples = [(x, 1)] * 3 + [(x, 0)] * 7
        model = train_linear_prior(examples, TrainConfig(class_weighted=True))
        assert predict_prior(model, x).p_one == pytest.approx(0.5, abs=1e-6)

    def test_determinism(self):
        rng = np.random.default_rng(2)
        examples = [
            (rng.normal(size=7), int(rng.random() < 0.4)) for _ in range(80)
        ]
        if not any(y for _, y in examples):
            examples[0] = (examples[0][0], 1)
        a = train_linear_prior(examples)
        b = train_linear_prior(examples)
        assert a == b

    def test_large_separable_features_train_without_overflow(self):
        examples = []
        for k in range(20):
            sign = 1.0 if k % 2 else -1.0
            examples.append((np.full(7, 50.0 * sign), int(sign > 0)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            model = train_linear_prior(examples, TrainConfig(learning_rate=100.0))
        assert all(math.isfinite(w) for w in model.weights + (model.bias,))
        assert predict_prior(model, np.full(7, 50.0)).argmax == 1
        assert predict_prior(model, np.full(7, -50.0)).argmax == 0

    def test_rejects_degenerate_sets(self):
        x = np.zeros(7)
        with pytest.raises(ConfigurationError):
            train_linear_prior([])
        # Only 0 and 1 are labels, and both must occur.
        for labels in ([1, 1], [0, 0], [0, 1, 2], [0, 1, 0.5], [0, 1, np.nan]):
            with pytest.raises(ConfigurationError, match="both classes"):
                train_linear_prior([(x, label) for label in labels])
        train_linear_prior([(x, True), (x, 0), (x, 1.0)])  # bool and float labels pass

    @pytest.mark.parametrize("settings_", [
        {"learning_rate": -1.0},
        {"learning_rate": 0.0},
        {"learning_rate": math.nan},
        {"learning_rate": math.inf},
        {"epochs": 0},
        {"epochs": -5},
    ])
    def test_rejects_settings_that_train_nothing(self, settings_):
        # Each would leave the all-zero starting model untouched.
        with pytest.raises(ConfigurationError):
            TrainConfig(**settings_)


class TestCalibration:
    @staticmethod
    def _samples(rng, n, logit_scale):
        out = []
        for _ in range(n):
            z = float(rng.normal(0.0, 1.5))
            y = int(rng.random() < 1.0 / (1.0 + math.exp(-z)))
            x = np.zeros(7)
            x[-1] = logit_scale * z
            out.append((x, y))
        return out

    def test_overconfident_model_gets_cooled(self):
        rng = np.random.default_rng(3)
        model = LinearPriorModel(weights=(0.0,) * 6 + (1.0,), bias=0.0)
        calibrated = calibrate_temperature(model, self._samples(rng, 400, 4.0))
        assert calibrated.temperature > 1.0

    def test_calibrated_model_keeps_unit_temperature(self):
        rng = np.random.default_rng(3)
        model = LinearPriorModel(weights=(0.0,) * 6 + (1.0,), bias=0.0)
        calibrated = calibrate_temperature(model, self._samples(rng, 400, 1.0))
        assert calibrated.temperature == 1.0

    def test_argmax_preserved(self):
        rng = np.random.default_rng(4)
        model = LinearPriorModel(weights=tuple(rng.normal(size=7)), bias=0.1)
        validation = [(rng.normal(size=7), int(rng.random() < 0.5)) for _ in range(50)]
        calibrated = calibrate_temperature(model, validation)
        for x, _ in validation:
            assert predict_prior(model, x).argmax == predict_prior(calibrated, x).argmax

    def test_rejects_bad_inputs(self):
        model = LinearPriorModel(weights=(0.0,) * 7, bias=0.0)
        with pytest.raises(ConfigurationError):
            calibrate_temperature(model, [])
        with pytest.raises(ConfigurationError):
            calibrate_temperature(model, [(np.zeros(7), 1)], grid=())
        with pytest.raises(ConfigurationError):
            calibrate_temperature(model, [(np.zeros(7), 1)], grid=(0.0, 1.0))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_rejects_non_finite_grid_entries(self, bad):
        model = LinearPriorModel(weights=(0.0,) * 7, bias=0.0)
        with pytest.raises(ConfigurationError, match="finite"):
            calibrate_temperature(model, [(np.zeros(7), 1)], grid=(1.0, bad))


class TestExternalPriors:
    def test_reads_and_clamps(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("left_id,right_id,p_one\n0,1,0.9\n2,1,1.0\n")
        priors = load_external_priors(str(path), 3, EQ)
        assert priors[(0, 1)].p_one == pytest.approx(0.9)
        assert priors[(1, 2)].p_one == pytest.approx(1.0 - 1e-6)

    def test_duplicate_after_canonicalization(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("left_id,right_id,p_one\n0,1,0.9\n1,0,0.8\n")
        with pytest.raises(InputFormatError, match="duplicate"):
            load_external_priors(str(path), 3, EQ)

    def test_orientation_kept_for_parent_child(self, tmp_path):
        path = tmp_path / "priors.csv"
        path.write_text("left_id,right_id,p_one\n0,1,0.9\n1,0,0.2\n")
        priors = load_external_priors(str(path), 2, RelationshipKind.PARENT_CHILD)
        assert priors[(0, 1)].p_one == pytest.approx(0.9)
        assert priors[(1, 0)].p_one == pytest.approx(0.2)

    def test_rejects_bad_rows(self, tmp_path):
        cases = [
            "left_id,right_id,p_one\n0,9,0.5\n",   # unknown id
            "left_id,right_id,p_one\n1,1,0.5\n",   # self pair
            "left_id,right_id,p_one\n0,1,1.5\n",   # out of range
            "left_id,right_id,p_one\n0,1\n",       # short row
        ]
        for body in cases:
            path = tmp_path / "bad.csv"
            path.write_text(body)
            with pytest.raises(InputFormatError):
                load_external_priors(str(path), 3, EQ)
