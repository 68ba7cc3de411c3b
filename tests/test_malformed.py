"""Malformed tables in otherwise readable files are schema errors (exit 2),
numbers that are not finite never pass, and a malformed array argument of the
library raises its documented class."""
import dataclasses
import json
import re
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import fileio
from cencov_ncp.channels import ClassicalKernel, completeness_deficit
from cencov_ncp.cli import main
from cencov_ncp.errors import (
    BadMeasure,
    BadWeight,
    DimensionMismatch,
    GroupoidMismatch,
    InvalidDensity,
    RowSumViolation,
    SchemaError,
)
from conftest import CliRunner, spec_of


def repeated_compose_pair(d, first):
    """The compose rows with a conflicting copy of the first row, put first or last."""
    (b, a, g), rows = d["compose"][0], d["compose"]
    copy = [b, a, next(e for e in d["elements"] if e != g)]
    return {**d, "compose": [copy, *rows] if first else [*rows, copy]}


KRAUS_IM_SHAPE = [{"re": [[1.0, 0.0], [0.0, 1.0]], "im": [0.5]}]

CASES = {
    "groupoid-P-list": ("pair2.json", lambda d: {**d, "P": [0.5, 0.5]}),
    "groupoid-fiber-weight-list": ("pair2.json", lambda d: {**d, "fiber_weight": [1.0] * 4}),
    "groupoid-list-element-id": (
        "pair2.json", lambda d: {**d, "elements": [["x"]] + d["elements"][1:]}),
    "groupoid-list-compose-result": (
        "pair2.json", lambda d: {**d, "compose": [[b, a, [g]] for b, a, g in d["compose"]]}),
    "state-phi-list": ("rho.json", lambda d: {**d, "phi_re": [1.0, 0.0]}),
    "state-phi-not-a-number": ("rho.json", lambda d: {**d, "phi_re": {"(1,1)": "abc"}}),
    "state-phi-null": ("rho.json", lambda d: {**d, "phi_re": {**d["phi_re"], "(1,1)": None}}),
    "kernel-pi-list": ("idk.json", lambda d: {**d, "pi_re": [1.0]}),
    "kernel-pi-null": (
        "idk.json", lambda d: {**d, "pi_re": {**d["pi_re"], "(1,1)|(1,1)": None}}),
    "model-duplicate-parameter": (
        "coin_model.json",
        lambda d: {**d, "states": {**d["states"], "0.00": d["states"]["0.0"]}}),
    "model-nan-parameter": (
        "coin_model.json", lambda d: {**d, "states": {**d["states"], "nan": d["states"]["0.0"]}}),
    "model-inf-parameter": (
        "coin_model.json", lambda d: {**d, "states": {**d["states"], "inf": d["states"]["0.0"]}}),
    "kraus-null-entry": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[1.0, 0.0], [0.0, None]]}]}),
    "classical-kernel-huge-entry": ("pair2.json", lambda d: {"fmt": d["fmt"], "K": [
        [10 ** 400, 0.0], [0.0, 1.0]]}),
    "kraus-mixed-shapes": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[1.0, 0.0], [0.0, 1.0]]}, {"re": [[0.0]]}]}),
    # an operator with no entries has no completeness deficit to report
    "kraus-empty-operator": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[]]}]}),
    "kraus-empty-operator-2x0": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[], []], "im": [[], []]}]}),
    # an imaginary part of another shape is not broadcast over the real part
    "kraus-im-shape": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": KRAUS_IM_SHAPE}),
    # a repeated (beta, alpha) pair, whichever copy comes first
    "groupoid-repeated-compose-pair-first": ("pair2.json", lambda d: repeated_compose_pair(d, True)),
    "groupoid-repeated-compose-pair-last": ("pair2.json", lambda d: repeated_compose_pair(d, False)),
    # only JSON numbers are numbers: not numeric strings, not booleans
    "state-phi-numeric-string": (
        "rho.json", lambda d: {**d, "phi_re": {**d["phi_re"], "(1,1)": str(d["phi_re"]["(1,1)"])}}),
    "state-phi-boolean": ("rho.json", lambda d: {**d, "phi_im": {"(1,2)": True}}),
    "groupoid-P-numeric-string": ("pair2.json", lambda d: {**d, "P": {"1": "0.5", "2": 0.5}}),
    "groupoid-fiber-weight-boolean": (
        "pair2.json", lambda d: {**d, "fiber_weight": dict.fromkeys(d["fiber_weight"], True)}),
    "kernel-pi-numeric-string": (
        "idk.json", lambda d: {**d, "pi_re": {k: str(v) for k, v in d["pi_re"].items()}}),
    "classical-kernel-numeric-string": ("pair2.json", lambda d: {"fmt": d["fmt"], "K": [
        ["1.0", 0.0], [0.0, 1.0]]}),
    "classical-kernel-boolean": ("pair2.json", lambda d: {"fmt": d["fmt"], "K": [
        [True, False], [False, True]]}),
    "kraus-numeric-string": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[1.0, 0.0], [0.0, "1.0"]]}]}),
    "kraus-boolean": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[True, False], [False, True]]}]}),
    "model-numeric-string-s0": ("coin_model.json", lambda d: {**d, "s0": "0.0"}),
    "model-boolean-interval": ("coin_model.json", lambda d: {**d, "interval": [-0.3, True]}),
    "model-numeric-string-grid": ("coin_model.json", lambda d: {**d, "grid": ["0.0"]}),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_malformed_file_exits_2(fixture_dir, case):
    name, mutate = CASES[case]
    with open(fixture_dir / name) as fh:
        data = mutate(json.load(fh))
    bad = fixture_dir / f"bad-{name}"
    with open(bad, "w") as fh:
        json.dump(data, fh)
    # an exception other than the exit propagates out of invoke and fails the test
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2


@pytest.mark.parametrize("keys", [("0", "1_0", " 20 "), ("0", " 20 "), ("0", ".5")],
                         ids=["underscore", "whitespace", "bare-point"])
def test_model_grid_key_that_is_no_json_number_exits_2(fixture_dir, keys):
    """A model's grid key is read as its s-value only if it is the text of a
    JSON number; the first other key is named, as Python's float() would read
    "1_0" as 10, " 20 " as 20 and ".5" as 0.5."""
    model = json.loads((fixture_dir / "coin_model.json").read_text())
    model["states"] = dict(zip(keys, model["states"].values()))
    bad = fixture_dir / "bad_keys.json"
    bad.write_text(json.dumps(model))
    result = CliRunner().invoke(main, ["--json", "validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert f"{bad}: malformed model file: states key {keys[1]!r} is not a number" in result.output


def test_kraus_im_of_another_shape_is_named(tmp_path):
    bad = tmp_path / "kraus.json"
    bad.write_text(json.dumps({"fmt": fileio.FMT, "kraus": KRAUS_IM_SHAPE}))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert (f"{bad}: malformed Kraus file: kraus[0].im has shape (1,), "
            "kraus[0].re has shape (2, 2)") in result.output



@pytest.mark.parametrize("K, shape", [([[[0.5, 0.5]]], (1, 1, 2)), ([], (0,)), (1.0, ())],
                         ids=["3d", "empty", "scalar"])
def test_classical_kernel_that_is_not_a_matrix_exits_2(tmp_path, K, shape):
    """A K of the wrong shape is a schema error naming the file; the library
    class still refuses it as a RowSumViolation."""
    bad = tmp_path / "ck.json"
    bad.write_text(json.dumps({"fmt": fileio.FMT, "K": K}))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert f"{bad}: classical kernel must be a matrix, not of shape {shape}" in result.output
    with pytest.raises(RowSumViolation, match="must be a matrix"):
        ClassicalKernel(np.array(K))


# the first bad entry of a table is named, in table order
TABLES = {
    "state-unknown-key": ("rho.json", "phi_re", {"(1,1)": 0.5, "(3,3)": 1.0, "(2,2)": None},
                          "unknown phi_re key '(3,3)'"),
    "state-null-value": ("rho.json", "phi_re", {"(1,1)": 0.5, "(2,2)": None, "(3,3)": 1.0},
                         "phi_re['(2,2)'] is not a number"),
    "groupoid-huge-P": ("pair2.json", "P", {"1": 0.5, "2": 10 ** 400}, "P['2'] is not a number"),
    "groupoid-null-weight": ("pair2.json", "fiber_weight", {"(1,1)": 1.0, "(1,2)": None},
                             "fiber_weight['(1,2)'] is not a number"),
    "kernel-huge-value": ("idk.json", "pi_re", {"(1,1)|(1,1)": 10 ** 400},
                          "pi_re['(1,1)|(1,1)'] is not a number"),
    "state-numeric-string": ("rho.json", "phi_re", {"(1,1)": 0.7, "(2,2)": "0.3"},
                             "phi_re['(2,2)'] is not a number"),
    "state-boolean": ("rho.json", "phi_im", {"(1,2)": 0.0, "(2,1)": False},
                      "phi_im['(2,1)'] is not a number"),
    "groupoid-numeric-string-P": ("pair2.json", "P", {"1": 0.5, "2": "0.5"},
                                  "P['2'] is not a number"),
    "groupoid-boolean-weight": ("pair2.json", "fiber_weight",
                                {"(1,1)": 1.0, "(1,2)": True, "(2,1)": 1.0, "(2,2)": 1.0},
                                "fiber_weight['(1,2)'] is not a number"),
    "kernel-numeric-string": ("idk.json", "pi_re", {"(1,1)|(1,1)": "1.0"},
                              "pi_re['(1,1)|(1,1)'] is not a number"),
    "model-boolean-s0": ("coin_model.json", "s0", False, "malformed model file: s0 is not a number"),
    "model-numeric-string-interval": ("coin_model.json", "interval", [-0.3, "0.3"],
                                      "malformed model file: interval[1] is not a number"),
    "model-null-grid": ("coin_model.json", "grid", [0.0, None],
                        "malformed model file: grid[1] is not a number"),
    # compose rows of lengths 2 and 4 (six labels, a multiple of three), and a
    # row that is not a list
    "groupoid-compose-rows-2-and-4": (
        "pair2.json", "compose", [["(1,1)", "(1,1)"], ["(1,2)", "(2,1)", "(1,1)", "(1,1)"]],
        "compose entry ['(1,1)', '(1,1)'] is not a (beta, alpha, beta o alpha) row"),
    "groupoid-compose-string-row": (
        "pair2.json", "compose", [["(1,1)", "(1,1)", "(1,1)"], "abc"],
        "compose entry 'abc' is not a (beta, alpha, beta o alpha) row"),
    # as many bars as keys, but not one in each key
    "kernel-misaligned-bars": ("idk.json", "pi_re", {"(1,1)|(1,1)|(1,2)": 1.0, "(2,2)": 1.0},
                               "unknown pi_re key '(1,1)|(1,1)|(1,2)'"),
}


@pytest.mark.parametrize("case", sorted(TABLES))
def test_first_bad_table_entry_is_named(fixture_dir, case):
    name, key, table, message = TABLES[case]
    with open(fixture_dir / name) as fh:
        data = json.load(fh)
    bad = fixture_dir / f"bad-{name}"
    bad.write_text(json.dumps({**data, key: table}))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert f"{bad}: {message}" in result.output


# the entry of a matrix file that is not a number is named by its position
MATRICES = {
    "classical-kernel": ("pair2.json", lambda d: {"fmt": d["fmt"], "K": [
        [0.5, 0.5], [0.0, "1"]]}, "K[1][1] is not a number"),
    "kraus": ("pair2.json", lambda d: {"fmt": d["fmt"], "kraus": [
        {"re": [[1.0, 0.0], [0.0, 1.0]]}, {"re": [[0.0, 0.0], [0.0, 0.0]], "im": [[0.0, True], [0.0, 0.0]]}]},
        "malformed Kraus file: entries must be finite numbers (kraus[1].im[0][1])"),
}


@pytest.mark.parametrize("case", sorted(MATRICES))
def test_non_number_matrix_entry_is_named(fixture_dir, case):
    name, mutate, message = MATRICES[case]
    with open(fixture_dir / name) as fh:
        data = mutate(json.load(fh))
    bad = fixture_dir / f"bad-{name}"
    bad.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert f"{bad}: {message}" in result.output


@pytest.mark.parametrize("first", [True, False], ids=["copy-first", "copy-last"])
def test_repeated_compose_pair_is_named(fixture_dir, first):
    with open(fixture_dir / "pair2.json") as fh:
        data = repeated_compose_pair(json.load(fh), first)
    bad = fixture_dir / "bad-pair2.json"
    bad.write_text(json.dumps(data))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 2
    assert f"{bad}: compose pair ('(1,1)','(1,1)') is listed twice" in result.output


def test_bad_measure_is_found_before_a_repeated_compose_pair(fixture_dir):
    """The measure is checked before the tables, the repeated pairs among them."""
    with open(fixture_dir / "pair2.json") as fh:
        data = repeated_compose_pair(json.load(fh), True)
    bad = fixture_dir / "bad-pair2.json"
    bad.write_text(json.dumps({**data, "P": {"1": 0.5, "2": 0.75}}))
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == 1
    assert "P sums to 1.25, expected 1" in result.output


PIPELINES = {
    "missing-kernels": {"initial_state": "rho.json"},
    "string-kernels": {"initial_state": "rho.json", "kernels": "idk.json"},
    "non-string-kernel": {"initial_state": "rho.json", "kernels": ["idk.json", 3]},
    "non-string-state": {"initial_state": ["rho.json"], "kernels": ["idk.json"]},
}


@pytest.mark.parametrize("case", sorted(PIPELINES))
def test_malformed_pipeline_config_exits_2(fixture_dir, case):
    cfg = fixture_dir / "bad-pipeline.json"
    cfg.write_text(json.dumps({"fmt": fileio.FMT, **PIPELINES[case]}))
    result = CliRunner().invoke(main, ["pipeline", str(cfg)], catch_exceptions=False)
    assert result.exit_code == 2
    key = "initial_state" if case == "non-string-state" else "kernels"
    assert f"{cfg}: '{key}' must be" in result.output


# numbers must be finite: NaN and Infinity are not JSON (exit 2), and 1e400
# overflows, which is a bad table entry (exit 2) in every file kind
NON_FINITE = {
    "state": ("rho.json", lambda d, x: {**d, "phi_re": {**d["phi_re"], "(1,1)": x}},
              (2, "phi_re['(1,1)'] is not a number")),
    "kernel": ("idk.json", lambda d, x: {**d, "pi_im": {"(1,2)|(2,1)": x}},
               (2, "pi_im['(1,2)|(2,1)'] is not a number")),
    "classical-kernel": ("ck.json", lambda d, x: {**d, "K": [[x, 1.0], [0.5, 0.5]]},
                         (2, "K[0][0] is not a number")),
    "groupoid-P": ("pair2.json", lambda d, x: {**d, "P": {"1": x, "2": 0.5}},
                   (2, "P['1'] is not a number")),
    "groupoid-fiber-weight": (
        "pair2.json", lambda d, x: {**d, "fiber_weight": {**d["fiber_weight"], "(1,2)": x}},
        (2, "fiber_weight['(1,2)'] is not a number")),
    "kraus": ("kr.json", lambda d, x: {**d, "kraus": [{"re": [[1.0, 0.0], [0.0, 1.0]],
                                                       "im": [[x, 0.0], [0.0, 0.0]]}]},
              (2, "malformed Kraus file: entries must be finite numbers")),
    "model-s0": ("coin_model.json", lambda d, x: {**d, "s0": x},
                 (2, "malformed model file: s0 is not a number")),
    "model-interval": ("coin_model.json", lambda d, x: {**d, "interval": [-0.3, x]},
                       (2, "malformed model file: interval[1] is not a number")),
    "model-grid": ("coin_model.json", lambda d, x: {**d, "grid": [x, 0.0]},
                   (2, "malformed model file: grid[0] is not a number")),
}


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity", "1e400"])
@pytest.mark.parametrize("case", sorted(NON_FINITE))
def test_non_finite_number_is_rejected(fixture_dir, case, token):
    name, mutate, (code, message) = NON_FINITE[case]
    if name == "ck.json":
        fileio.save_classical_kernel(ClassicalKernel(np.eye(2)), fixture_dir / name)
    if name == "kr.json":
        fileio.save_kraus([np.eye(2)], fixture_dir / name)
    with open(fixture_dir / name) as fh:
        data = mutate(json.load(fh), "__number__")
    bad = fixture_dir / f"bad-{name}"
    bad.write_text(json.dumps(data).replace('"__number__"', token))
    if token != "1e400":
        code, message = 2, f"cannot read {bad}: {token} is not a number"
    # a numpy RuntimeWarning is an error under the pytest settings
    result = CliRunner().invoke(main, ["validate", str(bad)], catch_exceptions=False)
    assert result.exit_code == code
    assert message in result.output


RAGGED = [[1, 2], [3]]
PAIR2, TRIV2 = c.pair_groupoid(2), c.trivial_groupoid(2)
UNIT = c.unit_element(PAIR2).coeff
MIXED = c.state_from_density(np.eye(2) / 2, PAIR2)
GNS = c.build_gns(MIXED)


def _gns_inner(u, v=UNIT):
    return c.gns_inner(GNS, u, v)


# every entry point that takes an array, called with x, and its documented class
ARRAY_ARGUMENTS = {
    "AlgebraElement": (lambda x: c.AlgebraElement(PAIR2, x), GroupoidMismatch),
    "element_from_matrix": (lambda x: c.element_from_matrix(PAIR2, x), GroupoidMismatch),
    "check_state": (lambda x: c.check_state(x, PAIR2), GroupoidMismatch),
    "make_state": (lambda x: c.make_state(PAIR2, x), GroupoidMismatch),
    "classical_state": (lambda x: c.classical_state(TRIV2, x), GroupoidMismatch),
    "make_density": (c.make_density, InvalidDensity),
    "ClassicalKernel": (ClassicalKernel, RowSumViolation),
    "QuantumKernel": (lambda x: c.QuantumKernel(PAIR2, PAIR2, x), GroupoidMismatch),
    "kernel_to_cp_map": (lambda x: c.kernel_to_cp_map(c.identity_kernel(PAIR2))(x),
                         GroupoidMismatch),
    "kernel_from_matrix_map": (lambda x: c.kernel_from_matrix_map(lambda D: x, PAIR2, PAIR2),
                               GroupoidMismatch),
    "choi_to_kernel": (lambda x: c.choi_to_kernel([x], PAIR2, PAIR2), GroupoidMismatch),
    "completeness_deficit": (completeness_deficit, DimensionMismatch),
    "gns_inner": (_gns_inner, DimensionMismatch),
    "GnsSpace.apply": (GNS.apply, DimensionMismatch),
    "GnsSpace.solve": (GNS.solve, DimensionMismatch),
    **{f"FiniteGroupoid.{name}": (
        lambda x, name=name: dataclasses.replace(PAIR2, **{name: x}), SchemaError)
       for name in ("src", "tgt", "inv_ix", "unit_ix", "compose_ix", "P_vec", "weight_vec")},
}

COMPLEX = np.array([[1 + 1j, 0], [0, 1]])
# malformed input besides a ragged nesting: the entry point, x and the message
MALFORMED = {
    "ClassicalKernel-complex-array": (
        "ClassicalKernel", COMPLEX, "classical kernel is not an array of real numbers"),
    "ClassicalKernel-complex-list": (
        "ClassicalKernel", COMPLEX.tolist(), "classical kernel is not an array of real numbers"),
    "classical_state-complex-array": (
        "classical_state", COMPLEX[0], "probability vector is not an array of real numbers"),
    "classical_state-complex-list": (
        "classical_state", COMPLEX[0].tolist(),
        "probability vector is not an array of real numbers"),
    "FiniteGroupoid.weight_vec-length": (
        "FiniteGroupoid.weight_vec", np.ones(5),
        "weight_vec (one entry per element) shape (5,), expected (4,)"),
    "FiniteGroupoid.P_vec-length": (
        "FiniteGroupoid.P_vec", [1.0], "P_vec (one entry per outcome) shape (1,), expected (2,)"),
    "FiniteGroupoid.tgt-string": (
        "FiniteGroupoid.tgt", "abcd", "tgt (one entry per element) is not an array of numbers"),
    "FiniteGroupoid.tgt-negative": (
        "FiniteGroupoid.tgt", [0, -1, 0, 1], "tgt entry -1 at position 1 is outside [0, 2)"),
    "FiniteGroupoid.inv_ix-out-of-range": (
        "FiniteGroupoid.inv_ix", [0, 2, 1, 7], "inv_ix entry 7 at position 3 is outside [0, 4)"),
    "FiniteGroupoid.unit_ix-out-of-range": (
        "FiniteGroupoid.unit_ix", [0, 9], "unit_ix entry 9 at position 1 is outside [0, 4)"),
    # a string is never parsed as a number, in the entry point's own class
    "make_density-numeric-strings": (
        "make_density", [["0.5", "0"], ["0", "0.5"]], "density matrix is not an array of numbers"),
    "FiniteGroupoid.src-numeric-strings": (
        "FiniteGroupoid.src", ["0", "1", "0", "1"],
        "src (one entry per element) is not an array of numbers"),
    "make_state-bytes": ("make_state", [b"1", b"0", b"0", b"1"], "phi is not an array of numbers"),
    # nor as an entry of an object array, and None is no nan
    "make_density-fraction-and-strings": (
        "make_density", [[Fraction(1, 2), "0"], ["0", Fraction(1, 2)]],
        "density matrix is not an array of numbers"),
    "make_state-object-strings": (
        "make_state", np.array([1, "0", 0, 1], dtype=object), "phi is not an array of numbers"),
    "make_density-none": (
        "make_density", [[0.5, None], [0, 0.5]], "density matrix is not an array of numbers"),
    "choi_to_kernel-numeric-strings": (
        "choi_to_kernel", [["1", "0"], ["0", "1"]], "Kraus operator is not an array of numbers"),
    "FiniteGroupoid.src-non-integral": (
        "FiniteGroupoid.src", [0.7, 0.2, 1.9, 1.0],
        "src (one entry per element) is not an array of integers"),
    # in int32, pair(2)'s compose_ix plus 2**32 would wrap to pair(2)'s own
    "FiniteGroupoid.compose_ix-wrapping": (
        "FiniteGroupoid.compose_ix", PAIR2.compose_ix.astype(np.int64) + 2 ** 32,
        "compose_ix (one entry per composable pair) holds an integer outside the range of int32"),
    # in int64, 2**63 would wrap to -2**63
    "FiniteGroupoid.src-uint64": (
        "FiniteGroupoid.src", np.array([2 ** 63, 0, 1, 1], dtype=np.uint64),
        "src (one entry per element) holds an integer outside the range of int64"),
    "GnsSpace.apply-length-5": (
        "GnsSpace.apply", np.ones(5), "coordinate vector shape (5,), expected (4,)"),
    "GnsSpace.apply-length-3": (
        "GnsSpace.apply", np.ones(3), "coordinate vector shape (3,), expected (4,)"),
}


@pytest.mark.parametrize("case", sorted(ARRAY_ARGUMENTS) + sorted(MALFORMED))
def test_ragged_array_argument_raises_the_documented_class(case):
    """A ragged nesting is named as such, in the entry point's own class, not
    as numpy's ValueError; so are a wrong length, an index out of range, a
    non-integral value where integers are due, refused rather than truncated,
    an integer that does not fit the integer type, refused rather than wrapped,
    and, where real numbers are due, a nonzero imaginary part, refused rather
    than dropped with numpy's ComplexWarning (an error under the pytest
    settings)."""
    entry, x, message = MALFORMED.get(case, (case, RAGGED, "is not an array of numbers"))
    call, error = ARRAY_ARGUMENTS[entry]
    with pytest.raises(error, match=re.escape(message)):
        call(x)


def test_object_array_of_numbers_converts():
    """Fraction, Decimal, Python and numpy numbers in an object array are cast
    one by one, as numbers."""
    D = c.make_density([[Fraction(1, 2), 0], [0.0, Decimal("0.5")]])
    assert np.array_equal(D.matrix, np.eye(2) / 2)
    rho = c.make_state(PAIR2, np.array([Fraction(1), np.float64(0), 0j, 1], dtype=object))
    assert np.array_equal(rho.phi, [1, 0, 0, 1])


@pytest.mark.parametrize("case, x, shape", [
    ("AlgebraElement", np.eye(2), (2, 2)),
    ("make_state", MIXED.phi.reshape(2, 2), (2, 2)),
    ("classical_state", [[0.5], [0.5]], (2, 1)),
    ("gns_inner", UNIT[:, None], (4, 1)),
    ("GnsSpace.solve", np.ones((4, 2)), (4, 2)),
    ("FiniteGroupoid.unit_ix", [[0], [3]], (2, 1)),
], ids=["AlgebraElement", "make_state", "classical_state", "gns_inner", "GnsSpace.solve",
        "FiniteGroupoid.unit_ix"])
def test_matrix_where_a_vector_is_due_is_refused(case, x, shape):
    """A 2-D array with as many entries as the vector is refused, not flattened."""
    call, error = ARRAY_ARGUMENTS[case]
    with pytest.raises(error, match=re.escape(f"must be a vector, not of shape {shape}")):
        call(x)


# a table of the outcome measure P or the fiber weights of trivial(2), and the
# class and message it raises; a value that is no real number is refused by
# numkit._as_array, never parsed or compared
MEASURES = {
    "P-numeric-strings": ("P", {"1": "0.5", "2": "0.5"}, BadMeasure,
                          "P is not an array of numbers"),
    "P-none": ("P", {"1": None, "2": 0.5}, BadMeasure, "P is not an array of numbers"),
    "P-complex": ("P", {"1": 0.5 + 0.5j, "2": 0.5}, BadMeasure,
                  "P is not an array of real numbers"),
    "P-missing": ("P", {"2": 1.0}, BadMeasure, "P missing outcome '1'"),
    "P-zero-before-missing": ("P", {"1": 0}, BadMeasure, "P('1') = 0 is not strictly positive"),
    "P-nan": ("P", {"1": 0.5, "2": float("nan")}, BadMeasure,
              "P('2') = nan is not strictly positive"),
    "fiber_weight-numeric-strings": ("fiber_weight", {"1_1": "2.0", "1_2": "0.5"}, BadWeight,
                                     "fiber_weight is not an array of numbers"),
    "fiber_weight-string": ("fiber_weight", {"1_1": "abc", "1_2": 1.0}, BadWeight,
                            "fiber_weight is not an array of numbers"),
    "fiber_weight-missing": ("fiber_weight", {"1_1": 1.0}, BadWeight,
                             "fiber weight of '1_2' must be a positive number"),
}


@pytest.mark.parametrize("case", sorted(MEASURES))
def test_measure_and_weights_raise_their_class(case):
    """In ``validate``, and for P in ``pair_groupoid``, with the outcome named
    where one is missing or not strictly positive."""
    table, values, error, message = MEASURES[case]
    with pytest.raises(error, match=re.escape(message)):
        c.validate(dataclasses.replace(spec_of(TRIV2), **{table: values}))
    if table == "P":
        with pytest.raises(error, match=re.escape(message)):
            c.pair_groupoid(2, P=values)
