"""Error branches of the library, one case each: every documented ``raise``
that the rest of the suite does not reach in process, with its class and
message."""
import dataclasses
import json
import re

import numpy as np
import pytest

import cencov_ncp as c
from cencov_ncp import errors, fileio
from cencov_ncp.channels import ClassicalKernel, QuantumKernel
from cencov_ncp.estimation import StatisticalModel
from conftest import spec_of

PAIR2, TRIV2 = c.pair_groupoid(2), c.trivial_groupoid(2)
RHO = c.state_from_density(np.eye(2) / 2, PAIR2)
COIN = c.classical_state(TRIV2, [0.5, 0.5])


def _curve_off_its_groupoid():
    return StatisticalModel(TRIV2, lambda s: RHO, 0.0, (-1.0, 1.0)).at(0.0)


def _duplicate_element_ids():
    spec = spec_of(PAIR2)
    return c.validate(dataclasses.replace(spec, elements=[*spec.elements[:-1], spec.elements[0]]))


# a stochastic K whose third column is zero, and L with K L = identity: the
# pushforward of the reference measure has a zero entry
ZERO_COLUMN = ClassicalKernel(np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]]))
LEFT_INVERSE = ClassicalKernel(np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]]))

CASES = {
    "push_state-normalization": (
        lambda: c.push_state(RHO, QuantumKernel(PAIR2, PAIR2, 2 * c.identity_kernel(PAIR2).pi)),
        errors.NormalizationLost, "pushed state normalization deficit"),
    "pull_observable-groupoid": (
        lambda: c.pull_observable(c.identity_kernel(PAIR2), c.unit_element(TRIV2)),
        errors.GroupoidMismatch, "observable groupoid does not match kernel target"),
    "embed_classical-not-trivial": (
        lambda: c.embed_classical(ClassicalKernel(np.eye(2)), PAIR2, TRIV2),
        errors.GroupoidMismatch, "classical embedding needs trivial groupoids"),
    "embed_classical-shape": (
        lambda: c.embed_classical(ClassicalKernel(np.eye(3)), TRIV2, TRIV2),
        errors.GroupoidMismatch, "stochastic matrix shape does not match outcome sets"),
    "check_ncp_morphism-groupoid": (
        lambda: c.check_ncp_morphism(c.identity_kernel(PAIR2), COIN, COIN),
        errors.GroupoidMismatch, "state groupoids do not match kernel"),
    "StatisticalModel.at-groupoid": (
        _curve_off_its_groupoid,
        errors.GroupoidMismatch, "curve returned a state on a different groupoid"),
    "riesz_representer-groupoid": (
        lambda: c.riesz_representer(c.coin_model(), c.build_gns(RHO)),
        errors.GroupoidMismatch, "GNS space built on a different groupoid"),
    "classical_fisher_rao-not-trivial": (
        lambda: c.classical_fisher_rao(c.qubit_z_model()),
        errors.GroupoidMismatch, "classical Fisher-Rao needs a trivial groupoid"),
    "congruent_invariance-zero-column": (
        lambda: c.congruent_invariance(c.coin_model(), ZERO_COLUMN, LEFT_INVERSE),
        errors.NotCongruent, "pushforward reference measure is not strictly positive"),
    "validate-duplicate-ids": (
        _duplicate_element_ids, errors.SchemaError, "duplicate outcome or element ids"),
    "pair_groupoid-no-outcome": (
        lambda: c.pair_groupoid(0), errors.BadMeasure, "need at least one outcome"),
    "make_density-not-square": (
        lambda: c.make_density(np.ones((2, 3)) / 4),
        errors.InvalidDensity, "density matrix must be square"),
    "classical_state-not-trivial": (
        lambda: c.classical_state(PAIR2, [0.5, 0.5]),
        errors.GroupoidMismatch, "classical_state needs a trivial groupoid"),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_library_error_branch(case):
    call, error, message = CASES[case]
    with pytest.raises(error, match=re.escape(message)):
        call()


@pytest.mark.parametrize("name, data, message", [
    ("ragged_K.json", {"K": [[1.0], [0.5, 0.5]]},
     "malformed classical kernel: nested lists of unequal lengths"),
    ("no_kraus.json", {"kraus": []}, "empty Kraus list"),
], ids=["classical-kernel-ragged", "kraus-empty"])
def test_file_error_branch(tmp_path, name, data, message):
    (tmp_path / name).write_text(json.dumps({"fmt": fileio.FMT, **data}))
    with pytest.raises(errors.SchemaError, match=re.escape(f"{tmp_path / name}: {message}")):
        fileio.load_file(tmp_path / name)


def test_model_with_grid_states_on_two_groupoids(fixture_dir):
    """A model's grid states must share one groupoid: here one is on
    trivial(2) and one on pair(2)."""
    model = fixture_dir / "two_groupoids.json"
    model.write_text(json.dumps({
        "fmt": fileio.FMT, "groupoid": "triv2.json", "s0": 0.0, "interval": [-0.3, 0.3],
        "states": {"-0.15": "coin_-0.15.json", "0.15": "rho.json"}}))
    with pytest.raises(errors.SchemaError,
                       match=re.escape(f"{model}: grid states live on different groupoids")):
        fileio.load_model(model)


def test_complex_input_with_zero_imaginary_part_is_real():
    """Where real numbers are due, a complex array whose imaginary part is
    zero is taken as its real part."""
    K = ClassicalKernel(np.eye(2) + 0j)
    assert K.K.dtype == float and np.array_equal(K.K, np.eye(2))
