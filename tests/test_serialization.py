"""Round-trip and determinism checks for the file formats."""

import json
import os
import struct

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dyncool import CoolingConfig, FourierPolynomial, AngleSequence, run
from dyncool.cooling import StepResult, Trajectory, run_experiment
from dyncool.errors import DyncoolError, RangeError, ValidationError
from dyncool.serialization import (
    CSV_COLUMNS,
    _fmt_float,
    angles_document,
    angles_from_document,
    canonical_hash,
    config_hash,
    matrix_document,
    matrix_from_document,
    polynomial_document,
    polynomial_from_document,
    read_json,
    run_record,
    to_json,
    trajectory_csv_text,
    trajectory_document,
    write_json,
    write_text_atomic,
)

from conftest import random_hermitian


def bits(x: float) -> bytes:
    return struct.pack("<d", float(x))


class TestJsonEmitter:
    def test_floats_survive_parse_bit_exactly(self):
        values = [0.1, 1.0 / 3.0, -2.5e-300, 6.02214076e23, -0.0, 2.0, np.pi]
        parsed = json.loads(to_json(values))
        for original, back in zip(values, parsed):
            assert bits(back) == bits(original)

    def test_nested_structures(self):
        doc = {"a": [1, 2.5, "x"], "b": {"c": None, "d": [True, False]}}
        assert json.loads(to_json(doc)) == doc

    def test_numpy_scalars_and_arrays(self):
        doc = {"n": np.int64(3), "x": np.float64(0.25), "v": np.arange(3.0)}
        assert json.loads(to_json(doc)) == {"n": 3, "x": 0.25, "v": [0.0, 1.0, 2.0]}

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            to_json({"x": np.nan})
        with pytest.raises(ValidationError):
            to_json([np.inf])

    def test_unserializable_type_rejected(self):
        with pytest.raises(ValidationError):
            to_json({"x": object()})

    def test_canonical_hash_ignores_key_order(self):
        a = {"x": 1, "y": [{"b": 2.0, "a": 3}]}
        b = {"y": [{"a": 3, "b": 2.0}], "x": 1}
        assert canonical_hash(a) == canonical_hash(b)
        assert canonical_hash(a) != canonical_hash({"x": 1, "y": [{"b": 2.0, "a": 4}]})


class TestDocuments:
    def test_matrix_round_trip(self):
        rng = np.random.default_rng(3)
        M = rng.normal(size=(5, 5)) + 1j * rng.normal(size=(5, 5))
        back = matrix_from_document(json.loads(to_json(matrix_document(M))))
        assert np.array_equal(back, M)

    def test_matrix_accepts_wrapped_operator(self):
        H = random_hermitian(np.random.default_rng(4), 3)
        doc = matrix_document(H)
        assert np.array_equal(matrix_from_document(doc), H.entries)

    def test_matrix_shape_validation(self):
        with pytest.raises(ValidationError):
            matrix_document(np.zeros((2, 3)))
        with pytest.raises(ValidationError):
            matrix_from_document({"dim": 2, "entries": [[0.0, 0.0]] * 3})
        with pytest.raises(ValidationError,
                           match="^matrix document dimension must be at least 1, got 0$"):
            matrix_from_document({"dim": 0, "entries": []})

    def test_polynomial_round_trip(self):
        rng = np.random.default_rng(5)
        coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)
        P = FourierPolynomial(coeffs, k=2, m=3, epsilon=0.1, delta=0.02)
        back = polynomial_from_document(json.loads(to_json(polynomial_document(P))))
        assert back.k == 2 and back.m == 3
        assert back.epsilon == 0.1 and back.delta == 0.02
        assert np.array_equal(back.coeffs, P.coeffs)

    def test_polynomial_none_metadata(self):
        P = FourierPolynomial(np.ones(3), k=1, m=1)
        back = polynomial_from_document(json.loads(to_json(polynomial_document(P))))
        assert back.epsilon is None and back.delta is None

    def test_angles_round_trip(self):
        rng = np.random.default_rng(6)
        angles = AngleSequence(
            rng.normal(size=4), rng.normal(size=4), 0.37, k=2, m=1
        )
        back = angles_from_document(json.loads(to_json(angles_document(angles))))
        assert np.array_equal(back.theta, angles.theta)
        assert np.array_equal(back.phi, angles.phi)
        assert back.lam == angles.lam and back.k == 2 and back.m == 1

    def test_malformed_polynomial_and_angle_documents(self):
        good = {"k": 0, "m": 1, "coefficients": [[0.5, 0.0], [0.1, 0.0]]}
        bad_polys = [
            [good], {**good, "k": None}, {**good, "m": 1.0}, {**good, "k": -1},
            {**good, "k": True}, {**good, "epsilon": "abc"},
            {**good, "coefficients": [[float("nan"), 0.0], [0.1, 0.0]]},
        ]
        for doc in bad_polys:
            with pytest.raises(ValidationError):
                polynomial_from_document(doc)
        angles = {"k": 0, "m": 0, "theta": [0.1], "phi": [0.2], "lambda": 0.3}
        bad_angles = [
            "angles", {**angles, "m": "0"}, {**angles, "lambda": None},
            {**angles, "theta": ["x"]},
        ]
        for doc in bad_angles:
            with pytest.raises(ValidationError):
                angles_from_document(doc)


# the three document readers, each with a valid document; the 1 x 1 matrix has
# the one entry pair that a bool dim of True would match
READERS = {
    "matrix": (matrix_from_document, matrix_document(np.array([[0.5]]))),
    "polynomial": (
        polynomial_from_document,
        polynomial_document(FourierPolynomial([0.25, 0.5, 0.25], k=1, m=1, epsilon=0.1, delta=0.02)),
    ),
    "angles": (angles_from_document, angles_document(AngleSequence([0.1, 0.2], [0.3, 0.4], 0.5, k=0, m=1))),
}

JSON_SCALARS = (
    st.booleans() | st.integers() | st.floats(allow_nan=True, allow_infinity=True)
    | st.text(max_size=6) | st.none()
)
JSON_VALUES = st.recursive(
    JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=8,
)


class TestMalformedDocuments:
    """A document read from disk ends in a ``DyncoolError`` or an object, never
    in another exception, whatever JSON value one of its fields holds."""

    @pytest.mark.parametrize(
        "kind, key", [(kind, key) for kind, (_, doc) in READERS.items() for key in doc]
    )
    @settings(max_examples=60, deadline=None)
    @given(value=JSON_VALUES)
    @example(value=10**400)  # past float64, as json.loads may return
    @example(value=[[10**400, 0.0]])
    def test_any_json_value_in_any_field(self, kind, key, value):
        reader, good = READERS[kind]
        doc = json.loads(json.dumps({**good, key: value}))
        try:
            reader(doc)
        except DyncoolError:
            pass

    @pytest.mark.parametrize(
        "kind, key",
        [("matrix", "dim"), ("polynomial", "k"), ("polynomial", "m"), ("polynomial", "epsilon"),
         ("polynomial", "delta"), ("angles", "k"), ("angles", "m"), ("angles", "lambda")],
    )
    @pytest.mark.parametrize("value", [True, False])
    def test_a_bool_is_never_a_number(self, kind, key, value):
        reader, good = READERS[kind]
        with pytest.raises(ValidationError, match=f"got {value}$"):
            reader({**good, key: value})

    @pytest.mark.parametrize(
        "kind, key, what",
        [("matrix", "entries", "matrix entries"), ("polynomial", "coefficients", "coefficients"),
         ("angles", "theta", "theta"), ("angles", "phi", "phi")],
    )
    @settings(max_examples=30, deadline=None)
    @given(value=st.booleans() | st.text(max_size=6), data=st.data())
    @example(value=True, data=None)
    @example(value="0.5", data=None)
    def test_a_bool_or_string_inside_an_array_is_never_a_number(
        self, kind, key, what, value, data
    ):
        reader, good = READERS[kind]
        elements = np.array(good[key], dtype=object)
        at = 0 if data is None else data.draw(st.integers(0, elements.size - 1))
        elements.flat[at] = value
        with pytest.raises(ValidationError, match=f"^{what} must be an array of numbers, got "):
            reader({**good, key: elements.tolist()})

    @pytest.mark.parametrize("value", [float("inf"), float("-inf"), float("nan")])
    def test_a_non_finite_lambda_is_refused(self, value):
        reader, good = READERS["angles"]
        doc = json.loads(json.dumps({**good, "lambda": value}))  # Infinity, NaN
        with pytest.raises(RangeError, match=f"^lam must be finite, got {value}$"):
            reader(doc)


class TestFileWrites:
    def test_atomic_write_and_read(self, tmp_path):
        path = tmp_path / "doc.json"
        write_json(str(path), {"x": 0.1})
        assert read_json(str(path)) == {"x": 0.1}
        leftovers = [p for p in os.listdir(tmp_path) if p != "doc.json"]
        assert leftovers == []

    def test_a_failed_rename_leaves_no_temp_file(self, tmp_path):
        target = tmp_path / "taken"
        target.mkdir()
        with pytest.raises(IsADirectoryError):
            write_text_atomic(str(target), "text")
        assert os.listdir(tmp_path) == ["taken"] and os.listdir(target) == []

    def test_atomic_write_replaces(self, tmp_path):
        path = tmp_path / "doc.txt"
        write_text_atomic(str(path), "first")
        write_text_atomic(str(path), "second")
        assert path.read_text() == "second"


@pytest.fixture(scope="module")
def small_run():
    rng = np.random.default_rng(12)
    H = random_hermitian(rng, 4, norm=0.9)
    A = random_hermitian(rng, 4, norm=0.8)
    config = CoolingConfig(epsilon=0.25, steps=3, delta=0.2)
    trajectories = [
        run(H, A, config, np.random.default_rng((9, t))) for t in range(2)
    ]
    return H, A, config, trajectories


class TestTrajectoryFormats:
    def test_csv_layout(self, small_run):
        H, A, config, trajectories = small_run
        lines = trajectory_csv_text(trajectories, config).splitlines()
        assert lines[0].startswith("# dyncool-trajectories v1 ")
        assert lines[1] == ",".join(CSV_COLUMNS)
        rows = [line.split(",") for line in lines[2:]]
        assert len(rows) == sum(len(t.steps) for t in trajectories)
        assert all(len(r) == len(CSV_COLUMNS) for r in rows)
        assert {r[0] for r in rows} == {"0", "1"}
        assert all(r[-1] in ("0", "1") for r in rows)

    def test_csv_values_parse_back_exactly(self, small_run):
        H, A, config, trajectories = small_run
        lines = trajectory_csv_text(trajectories, config).splitlines()
        first = lines[2].split(",")
        step = trajectories[0].steps[0]
        assert bits(float(first[2])) == bits(step.energy_estimate)
        assert bits(float(first[4])) == bits(step.ground_overlap)
        assert int(first[6]) == step.queries_eiH

    def test_csv_bytes_pinned(self):
        def traj(success, rows):
            steps = tuple(
                StepResult(i, b, e, t, g, w, 10 * (i + 1), 4 * (i + 1), False)
                for i, (b, e, t, g, w) in enumerate(rows)
            )
            return Trajectory(steps, 0.0, 0.0, 0, 0.0, 0.0, 0.0, int(not success), success)

        trajectories = [
            traj(True, [(-2, -0.5, -0.48321, 0.9, 1e-20), (-2, np.float64(-0.5), 1 / 3, 1.0, 0.0)]),
            traj(False, [(4, 1.0, -0.0, 2.5e-300, 6.02214076e23)]),
        ]
        config = CoolingConfig(epsilon=0.25, steps=2, delta=0.5)
        assert trajectory_csv_text(trajectories, config) == (
            "# dyncool-trajectories v1 epsilon=0.25 delta=0.5 steps=2 mode=exact_spectral\n"
            "trial,step,energy_estimate,true_energy,ground_overlap,leakage_weight,"
            "queries_eiH,queries_UA,success\n"
            "0,0,-0.5,-0.48321,0.9,1e-20,10,4,1\n"
            "0,1,-0.5,0.3333333333333333,1.0,0.0,20,8,1\n"
            "1,0,1.0,-0.0,2.5e-300,6.02214076e+23,10,4,0\n"
        )

    def test_csv_file_write(self, small_run, tmp_path):
        H, A, config, trajectories = small_run
        path = tmp_path / "traj.csv"
        write_text_atomic(str(path), trajectory_csv_text(trajectories, config))
        assert path.read_text() == trajectory_csv_text(trajectories, config)

    def test_run_record_round_trip(self, small_run):
        H, A, config, trajectories = small_run
        doc = run_record(config, 9, H, A, trajectories)
        parsed = json.loads(to_json(doc))
        assert parsed["kind"] == "run_record"
        assert parsed["trials"] == 2
        assert parsed["config_hash"] == doc["config_hash"]
        back = matrix_from_document(parsed["hamiltonian"])
        assert np.array_equal(back, H.entries)
        t0 = parsed["trajectories"][0]
        assert bits(t0["final_ground_overlap"]) == bits(
            trajectories[0].final_ground_overlap
        )
        assert len(t0["steps"]) == len(trajectories[0].steps)

    def test_run_record_hash_covers_source(self, small_run):
        H, A, config, trajectories = small_run
        plain = run_record(config, 9, H, A, trajectories)
        tagged = run_record(config, 9, H, A, trajectories, source={"note": 1})
        assert plain["config_hash"] != tagged["config_hash"]
        assert plain["config_hash"] == config_hash(config, 9, 2)
        assert tagged["config_hash"] == config_hash(config, 9, 2, {"note": 1})

    def test_trajectory_document_is_the_record_with_steps_last(self, small_run):
        traj = small_run[3][0]
        doc = trajectory_document(traj)
        assert list(doc) == [*Trajectory._fields[1:], "steps"]
        assert [doc[f] for f in Trajectory._fields[1:]] == list(traj[1:])
        assert doc["steps"] == [dict(zip(StepResult._fields, s)) for s in traj.steps]
        # a trajectory's own fields are plain Python scalars, so the JSON is unchanged
        assert all(type(v) in (int, float, bool) for v in traj[1:])


def per_value_csv(trajectories, config) -> str:
    """The trajectory CSV with ``_fmt_float`` called on every float cell."""
    lines = [
        f"# dyncool-trajectories v1 epsilon={_fmt_float(config.epsilon)}"
        f" delta={_fmt_float(config.delta)} steps={config.steps} mode={config.mode}",
        ",".join(CSV_COLUMNS),
    ]
    for trial, traj in enumerate(trajectories):
        success = int(traj.success)
        for s in traj.steps:
            lines.append(
                f"{trial},{s.step},{_fmt_float(s.energy_estimate)},"
                f"{_fmt_float(s.true_energy)},{_fmt_float(s.ground_overlap)},"
                f"{_fmt_float(s.leakage_weight)},{s.queries_eiH},{s.queries_UA},{success}"
            )
    return "\n".join(lines) + "\n"


FLOAT_COLUMNS = ("energy_estimate", "true_energy", "ground_overlap", "leakage_weight")


def rows_trajectory(rows):
    """A trajectory whose steps carry the given float cells, one dict per step
    (columns left out read 0.5)."""
    steps = tuple(
        StepResult(i, 0, **{c: row.get(c, 0.5) for c in FLOAT_COLUMNS},
                   queries_eiH=1, queries_UA=2, leak_event=False)
        for i, row in enumerate(rows)
    )
    return Trajectory(steps, 0.0, 0.0, 0, 0.0, 0.0, 0.0, 0, True)


class TestCsvTokens:
    """Each distinct float is formatted once per CSV document; the text must
    equal the per-value loop's byte for byte."""

    CONFIG = CoolingConfig(epsilon=0.25, steps=2, delta=0.5)

    @pytest.mark.parametrize("mode", ["exact_spectral", "exact_reflection", "gqsp_circuit"])
    def test_real_run_matches_the_per_value_loop(self, mode):
        rng = np.random.default_rng(16)
        H = random_hermitian(rng, 16, norm=0.9)
        A = random_hermitian(rng, 16, norm=1.0)
        config = CoolingConfig(epsilon=0.1, steps=32, mode=mode)
        trajectories = run_experiment(H, A, config, seed=3, trials=25)
        cells = [getattr(s, c) for t in trajectories for s in t.steps for c in FLOAT_COLUMNS]
        assert len(set(cells)) < len(cells) / 2  # repeated values, so the memo is hit
        assert trajectory_csv_text(trajectories, config) == per_value_csv(trajectories, config)

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("first, second", [(0.0, -0.0), (-0.0, 0.0)])
    def test_signed_zeros_keep_their_sign(self, column, first, second):
        rows = [{column: first}, {column: second}, dict.fromkeys(FLOAT_COLUMNS, second)]
        text = trajectory_csv_text([rows_trajectory(rows)], self.CONFIG)
        assert text == per_value_csv([rows_trajectory(rows)], self.CONFIG)
        col = 2 + FLOAT_COLUMNS.index(column)
        cells = [line.split(",")[col] for line in text.splitlines()[2:]]
        assert cells == [_fmt_float(first), _fmt_float(second), _fmt_float(second)]

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize("repeats", [0, 3])
    def test_non_finite_still_raises(self, column, bad, repeats):
        rows = [dict.fromkeys(FLOAT_COLUMNS, 0.25)] * repeats + [{column: bad}]
        with pytest.raises(ValidationError, match="^cannot serialize non-finite value"):
            trajectory_csv_text([rows_trajectory(rows)], self.CONFIG)

    @pytest.mark.parametrize("column", FLOAT_COLUMNS)
    def test_numpy_floats_and_ints_format_as_floats(self, column):
        values = [1, 1.0, np.float64(1.0), np.float64(-0.5), -0.5, 3, 2**60, float(2**60)]
        rows = [{column: v} for v in values] + [{c: v for c in FLOAT_COLUMNS} for v in values]
        text = trajectory_csv_text([rows_trajectory(rows)], self.CONFIG)
        assert text == per_value_csv([rows_trajectory(rows)], self.CONFIG)
        col = 2 + FLOAT_COLUMNS.index(column)
        cells = [line.split(",")[col] for line in text.splitlines()[2:2 + len(values)]]
        assert cells == ["1.0", "1.0", "1.0", "-0.5", "-0.5", "3.0",
                         "1.152921504606847e+18", "1.152921504606847e+18"]


EDGE_FLOATS = (0.0, -0.0, 5e-324, 2.2250738585072014e-308,
               1.7976931348623157e308, -1.7976931348623157e308)


def with_edge_floats(test):
    """``test`` with each of ``EDGE_FLOATS`` as an explicit hypothesis example."""
    for x in EDGE_FLOATS:
        test = example(x=x)(test)
    return test


class TestFloatRoundTrip:
    """Every finite float64 that either writer emits parses back to the same bits."""

    CONFIG = CoolingConfig(epsilon=0.25, steps=2, delta=0.5)

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @with_edge_floats
    def test_to_json(self, x):
        parsed = json.loads(to_json({"x": x, "np": np.float64(x), "v": np.array([x, -x])}))
        values = [parsed["x"], parsed["np"], *parsed["v"]]
        assert all(type(v) is float for v in values)
        assert [bits(v) for v in values] == [bits(x), bits(x), bits(x), bits(-x)]

    @settings(max_examples=300, deadline=None)
    @given(x=st.floats(allow_nan=False, allow_infinity=False))
    @with_edge_floats
    def test_every_csv_float_column(self, x):
        rows = [dict.fromkeys(FLOAT_COLUMNS, x), dict.fromkeys(FLOAT_COLUMNS, -x)]
        lines = trajectory_csv_text([rows_trajectory(rows)], self.CONFIG).splitlines()
        for line, value in zip(lines[2:], (x, -x)):
            cells = line.split(",")[2:2 + len(FLOAT_COLUMNS)]
            assert [bits(float(cell)) for cell in cells] == [bits(value)] * len(FLOAT_COLUMNS)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_refused_by_both_writers(self, bad):
        for doc in ({"x": bad}, [np.float64(bad)], np.array([0.5, bad]), np.float32(bad)):
            with pytest.raises(ValidationError, match="^cannot serialize non-finite value"):
                to_json(doc)
            with pytest.raises(ValidationError, match="^cannot serialize non-finite value"):
                canonical_hash({"doc": doc})
        for column in FLOAT_COLUMNS:
            with pytest.raises(ValidationError, match="^cannot serialize non-finite value"):
                trajectory_csv_text([rows_trajectory([{column: bad}])], self.CONFIG)

    def test_numpy_values_serialize_as_their_python_values(self):
        doc = {"f32": np.float32(0.1), "i64": np.int64(-7), "bool": np.bool_(True),
               "ints": np.arange(3), "f32s": np.eye(2, dtype=np.float32),
               "bools": np.array([True, False])}
        plain = {"f32": float(np.float32(0.1)), "i64": -7, "bool": True, "ints": [0, 1, 2],
                 "f32s": [[1.0, 0.0], [0.0, 1.0]], "bools": [True, False]}
        assert to_json(doc) == to_json(plain)
        assert json.loads(to_json(doc)) == plain
        assert canonical_hash(doc) == canonical_hash(plain)
        with pytest.raises(ValidationError, match="^cannot serialize complex$"):
            to_json({"z": np.complex128(1j)})
