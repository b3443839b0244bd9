"""The input contract of the whole public API, as a table generated from
``dyncool``'s namespace and ``inspect.signature``.

Every public callable, except the output records, is called once with a
valid value for each parameter (``VALID``, one per parameter name), and then
once per (parameter, bad value) with one of thirteen malformed values in that
parameter. Warnings are raised as errors. Two of them are built from the
parameter's valid value: a bool or a string put inside its array.

- A *data* parameter (a number, an array, a string) must refuse every value
  that is bad for it with a ``DyncoolError``. ``ACCEPTED`` lists the few
  malformed values that are valid for some parameters, such as -1 as a time.
- An *object* parameter is annotated with a dyncool class or a numpy
  ``Generator``, or is ``stopping``. Passing another kind of object there is
  outside the contract (README, "Input contract"). The table asserts only
  that such a call raises, so no bad value is accepted silently.
"""

import inspect
import warnings

import numpy as np
import pytest

import dyncool
from dyncool import (
    AngleSequence,
    CompletionPair,
    CoolingConfig,
    DyncoolError,
    FourierPolynomial,
    HermitianOperator,
    RealOddPolynomial,
    eig,
)

OUTPUT_RECORDS = {"StepResult", "Trajectory", "DysonTerm", "PathWeight", "AssembledBlock",
                  "Tolerances"}

CALLABLES = {
    name: obj
    for name, obj in sorted(vars(dyncool).items())
    if callable(obj) and not name.startswith("_") and name not in OUTPUT_RECORDS
    and not (isinstance(obj, type) and issubclass(obj, BaseException))
}


class Inside:
    """A bad value made from a parameter's valid one: the valid array as a
    nested list with its first element replaced by ``element``; for a valid
    value that is not an array, the list [[element, 0.0], [0.0, 1.0]]."""

    def __init__(self, element):
        self.element = element

    def of(self, valid):
        if not isinstance(valid, np.ndarray):
            return [[self.element, 0.0], [0.0, 1.0]]
        elements = np.array(valid, dtype=object)
        elements.flat[0] = self.element
        return elements.tolist()


BAD = {
    "2.5": 2.5,
    "True": True,
    "'3'": "3",
    "None": None,
    "nan": float("nan"),
    "inf": float("inf"),
    "-1": -1,
    "0x0": np.zeros((0, 0)),
    "eye3": np.eye(3),
    "ragged": [[1.0, 2.0], [3.0]],
    "object": object(),
    "True inside": Inside(True),
    "'1' inside": Inside("1"),
}

_H = np.diag([-0.5, 0.5])
_P = FourierPolynomial([0.6], k=0, m=0)

# one valid value per parameter name, for a two-level system; a value that
# depends on the annotation is keyed by (name, annotation)
VALID = {
    "H": _H,
    ("H", "HermitianOperator"): HermitianOperator(_H),
    "A": np.array([[0.0, 0.5], [0.5, 0.0]]),
    "P": np.diag([1.0, 0.0]),
    ("P", "FourierPolynomial"): _P,
    ("P", "RealOddPolynomial"): RealOddPolynomial([0.0, 0.5], 0.25, 0.25, 0.5, 0.1),
    "Q": FourierPolynomial([0.8], k=0, m=0),
    "S": FourierPolynomial([0.1, 0.2, 0.1], k=1, m=1),
    "U": np.eye(2),
    "M": np.eye(2),
    "entries": np.eye(2),
    "amplitudes": np.array([1.0, 0.0]),
    "state": np.array([1.0, 0.0]),
    "initial_state": np.array([0.0, 1.0]),
    "eigenvalues": np.array([-0.5, 0.5]),
    "eigenvectors": np.eye(2),
    "coeffs": np.array([0.1, 0.2, 0.1]),
    "cheb_coeffs": np.array([0.0, 0.5]),
    "theta": np.zeros(3),
    ("theta", "float"): 0.3,
    "phi": np.zeros(3),
    ("phi", "float"): 0.2,
    "lam": 0.1,
    "k": 1,
    "m": 1,
    "epsilon": 0.25,
    "delta": 0.25,
    "steps": 2,
    "mode": "exact_spectral",
    "margin": 1e-3,
    "t": 1.0,
    "order": 1,
    "max_order": 1,
    "n_steps": 16,
    "j": 0,
    "n": 1,
    "dim": 2,
    "points": 8,
    "sign_degree": 3,
    "seed": 0,
    "trials": 1,
    "cutoff": 0.0,
    "shift": 0.0,
    "energy": 0.0,
    "x": np.array([0.0, 1.0]),
    "z": np.array([1.0, 1j]),
    "phases": (0, 2),
    "target_estimate": 0.0,
    "peel_residual": 0.0,
    "max_abs": 0.5,
    "band_error": 0.1,
    "stopping": None,
    "dec": eig(HermitianOperator(_H)),
    "angles": AngleSequence(np.zeros(3), np.zeros(3), 0.0, k=1, m=1),
    "pair": CompletionPair(_P, FourierPolynomial([0.8], k=0, m=0)),
    "config": CoolingConfig(epsilon=0.25, steps=2),
    "rng": None,  # a fresh generator per call, see ``_valid``
}

# malformed values that are valid for a parameter: unbounded reals take 2.5
# and -1, a margin or a bound 2.5, evaluation points any numeric array, a
# single matrix any square shape, and an optional value its default None
_REAL = {"2.5", "-1"}
_POINTS = {"2.5", "-1", "0x0", "eye3"}
ACCEPTED = {
    **dict.fromkeys(["t", "cutoff", "shift", "energy", "lam", "target_estimate"], _REAL),
    **dict.fromkeys(["rotation_matrix.theta", "rotation_matrix.phi"], _REAL),
    **dict.fromkeys(["margin", "max_abs", "band_error", "peel_residual"], {"2.5"}),
    "x": _POINTS,
    "z": _POINTS,
    **dict.fromkeys(["spectral_norm.M", "HermitianOperator.entries",
                     "UnitaryOperator.entries", "Projector.entries",
                     "assemble_and_extract.U"], {"eye3"}),
}


def _annotation(param) -> str:
    return param.annotation if isinstance(param.annotation, str) else ""


def _is_object(param) -> bool:
    """Whether ``param`` takes an object of a dyncool class or a generator."""
    names = _annotation(param).replace("np.random.", "").replace("| None", "").split()
    return param.name == "stopping" or any(
        name == "Generator" or isinstance(getattr(dyncool, name, None), type) for name in names
    )


def _valid(param):
    if param.name == "rng":
        return np.random.default_rng(0)
    return VALID.get((param.name, _annotation(param)), VALID.get(param.name))


def _params(fn):
    return list(inspect.signature(fn).parameters.values())


TABLE = {
    f"{name}.{param.name}": "object" if _is_object(param) else "data"
    for name, fn in CALLABLES.items()
    for param in _params(fn)
}


def _call(name: str, bad_param=None, bad_value=None):
    kwargs = {p.name: _valid(p) for p in _params(CALLABLES[name])}
    if bad_param is not None:
        valid = kwargs[bad_param]
        kwargs[bad_param] = bad_value.of(valid) if isinstance(bad_value, Inside) else bad_value
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return CALLABLES[name](**kwargs)


def _accepted(key: str) -> set:
    fn, param = key.split(".")
    default = inspect.signature(CALLABLES[fn]).parameters[param].default
    return ACCEPTED.get(key, ACCEPTED.get(param, set())) | ({"None"} if default is None else set())


# the parameters outside the contract for another kind of object, as the
# README's input contract states; a new one is a decision, so it is listed
OBJECT_PARAMETERS = {
    "CompletionPair.P", "CompletionPair.Q", "apply_spectral.H", "apply_spectral.S",
    "assemble_and_extract.angles", "build_hsign.config", "build_hsign.dec", "complete.P",
    "compute_angles.pair", "cooling_step.config", "cooling_step.dec", "eig.H",
    "eval_angles.angles", "eval_fourier.S", "eval_fourier_grid.S", "evolve.H",
    "projector_below.dec", "qpe_project.dec", "qpe_project.rng", "random_initial_state.rng",
    "run.config", "run.rng", "run.stopping", "run_experiment.config", "run_experiment.stopping",
    "sample_gue.rng", "shift_evolution_factored.H", "shift_operator.H", "spectral_values.S",
    "spectral_values.dec", "synthesize_angles.P", "to_fourier.P",
}


def test_the_table_covers_every_public_callable():
    public = {name for name, obj in vars(dyncool).items()
              if callable(obj) and not name.startswith("_")}
    errors = {name for name in public if name.endswith("Error")}
    assert set(CALLABLES) == public - OUTPUT_RECORDS - errors
    assert {key.split(".")[0] for key in TABLE} == set(CALLABLES)
    assert {key for key, kind in TABLE.items() if kind == "object"} == OBJECT_PARAMETERS
    assert len(TABLE) - len(OBJECT_PARAMETERS) > 100


@pytest.mark.parametrize("name", sorted(CALLABLES))
def test_the_valid_call_succeeds(name):
    _call(name)


@pytest.mark.parametrize("key", sorted(k for k, kind in TABLE.items() if kind == "data"))
def test_every_bad_data_value_is_a_dyncool_error(key):
    fn, param = key.split(".")
    accepted = _accepted(key)
    wrong = {}
    for label, value in BAD.items():
        if label in accepted:
            continue
        try:
            _call(fn, param, value)
        except DyncoolError:
            continue
        except Exception as exc:  # noqa: BLE001 - the point is to name it
            wrong[label] = f"{type(exc).__name__}: {exc}"[:120]
        else:
            wrong[label] = "accepted"
    assert wrong == {}


@pytest.mark.parametrize("key", sorted(k for k, kind in TABLE.items() if kind == "object"))
def test_a_wrong_object_is_never_accepted(key):
    """Outside the contract: any exception will do, but one must be raised."""
    fn, param = key.split(".")
    accepted = _accepted(key)
    for label, value in BAD.items():
        if label not in accepted:
            with pytest.raises(Exception):
                _call(fn, param, value)
