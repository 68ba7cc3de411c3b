"""JSON file formats for groupoids, states, observables, kernels, and models.

Every file carries ``"fmt": "cencov-ncp/1"``; unknown versions are rejected.
Paths inside a file are resolved relative to the directory containing it.

Loaders take an optional ``loaded`` map, resolved path -> FiniteGroupoid.  The
CLI passes one map per invocation, so each groupoid file is read and validated
once, and :func:`groupoid_ref` finds the file a loaded groupoid came from for
the references in files written with ``-o``.  Parsed JSON is never kept.
"""
from __future__ import annotations

import errno
import json
import math
import os
from functools import partial
from itertools import islice, repeat
from pathlib import Path
from stat import S_IMODE, S_ISREG
from typing import Optional

import numpy as np

from .algebra import AlgebraElement
from .channels import ClassicalKernel, QuantumKernel
from .errors import SchemaError
from .estimation import StatisticalModel
from .groupoid import FiniteGroupoid, GroupoidSpec, validate
from .states import NORM_TOL, State, make_state

FMT = "cencov-ncp/1"


def _reject_constant(name: str):
    """``parse_constant`` of ``json.load``: NaN and Infinity are not JSON numbers."""
    raise ValueError(f"{name} is not a number")


def _read_json(path: Path) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh, parse_constant=_reject_constant)
    except (OSError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise SchemaError(f"cannot read {path}: {exc}") from exc
    if not isinstance(data, dict):
        raise SchemaError(f"{path}: top level must be a JSON object")
    if data.get("fmt") != FMT:
        raise SchemaError(f"{path}: unknown or missing fmt (expected {FMT!r})")
    return data


def _write_json(path: Path, data: dict) -> None:
    """Write ``{"fmt": FMT, **data}`` to ``path`` as the one line that
    ``json.dumps(..., sort_keys=True)`` makes of it, with strict numbers.

    The top-level values are encoded in key order, each by one call of the C
    encoder, and written before the next is made.  A value may be a function
    of no arguments, called at its turn, so that only one large table exists
    at a time.  A new file, or a regular file in a directory we may write, is
    written under a temporary name in its directory and renamed over ``path``
    (or the file a link at ``path`` names) at the end, with the old file's
    mode, so a failure leaves it as it was.  Anything else (a device, a FIFO,
    a pipe, a file in a read-only directory) is opened and written in place.
    """
    data = {"fmt": FMT, **data}
    target = path.resolve()
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    if old is not None and not (_names_regular_file(target, old)
                                and os.access(target.parent, os.W_OK | os.X_OK)):
        with open(path, "w", encoding="utf-8") as fh:
            _write_values(fh, path, data)
        return
    if old is not None and not os.access(target, os.W_OK):
        raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(path))
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:  # a stale one is a dead writer's
            _write_values(fh, path, data)
        if old is not None:
            os.chmod(tmp, S_IMODE(old.st_mode))
        os.replace(tmp, target)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _names_regular_file(target: Path, st: os.stat_result) -> bool:
    """Whether ``st`` is a regular file and ``target`` is a name of it (on a
    pipe, ``/dev/stdout`` resolves to a name that does not exist)."""
    try:
        return S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(target))
    except OSError:
        return False


def _write_values(fh, path: Path, data: dict) -> None:
    sep = "{"
    for key in sorted(data):
        fh.write(f"{sep}{json.dumps(key)}: ")
        fh.write(_encode(path, key, data[key]))
        sep = ", "
    fh.write("}\n")


def _encode(path: Path, key: str, value) -> str:
    """The JSON text of ``value``, or of ``value()`` if it is callable; the
    value is dropped before the text is written."""
    try:
        return json.dumps(value() if callable(value) else value,
                          sort_keys=True, allow_nan=False)
    except ValueError as exc:
        raise SchemaError(f"{path}: cannot write {key}: {exc}") from exc


def _resolve(base: Path, ref: str) -> Path:
    p = Path(ref)
    return p if p.is_absolute() else (base.parent / p)


def _load(path: str | Path, build, loaded: Optional[dict]):
    """Parse ``path`` once and build its object with ``build(path, data, loaded)``."""
    path = Path(path)
    return build(path, _read_json(path), {} if loaded is None else loaded)


# ---------------------------------------------------------------------------
# groupoids
# ---------------------------------------------------------------------------

def _labels(value) -> list[str]:
    if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
        raise TypeError("expected a list of string ids")
    return value


def _label_map(value) -> dict[str, str]:
    if not isinstance(value, dict) or not all(isinstance(v, str) for v in value.values()):
        raise TypeError("expected an object mapping ids to string ids")
    return dict(value)


def _number_map(value) -> dict[str, float]:
    if not isinstance(value, dict):
        raise TypeError("expected an object mapping ids to numbers")
    return {k: float(v) for k, v in value.items()}


def _groupoid(path: Path, data: dict, loaded: dict) -> FiniteGroupoid:
    try:
        compose = {(b, a): g for b, a, g in map(_labels, data["compose"])}
        spec = GroupoidSpec(
            outcomes=_labels(data["outcomes"]),
            elements=_labels(data["elements"]),
            source=_label_map(data["source"]),
            target=_label_map(data["target"]),
            inverse=_label_map(data["inverse"]),
            compose=compose,
            units=_label_map(data["units"]),
            P=_number_map(data["P"]),
            fiber_weight=_number_map(data["fiber_weight"])
            if "fiber_weight" in data else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed groupoid file: {exc}") from exc
    return validate(spec)


def load_groupoid(path: str | Path, loaded: Optional[dict] = None) -> FiniteGroupoid:
    """The validated groupoid in ``path``, read once per ``loaded`` map."""
    loaded = {} if loaded is None else loaded
    key = Path(path).resolve()
    if key not in loaded:
        loaded[key] = _load(path, _groupoid, loaded)
    return loaded[key]


def save_groupoid(G: FiniteGroupoid, path: str | Path) -> None:
    _write_json(Path(path), {
        "outcomes": list(G.outcomes),
        "elements": list(G.elements),
        "source": dict(G.source),
        "target": dict(G.target),
        "inverse": dict(G.inverse_map),
        "compose": [[b, a, g] for (b, a), g in sorted(G.compose_table.items())],
        "units": dict(G.unit_of),
        "P": dict(G.P),
        "fiber_weight": dict(G.fiber_weight),
    })


def _referenced_groupoid(path: Path, data: dict, key: str, loaded: dict) -> FiniteGroupoid:
    ref = data.get(key)
    if not isinstance(ref, str):
        raise SchemaError(f"{path}: missing {key} reference")
    return load_groupoid(_resolve(path, ref), loaded)


def groupoid_ref(G: FiniteGroupoid, out: str | Path, loaded: dict) -> str:
    """Reference from a file written to ``out`` to the file that ``G`` was
    loaded from, found by identity in ``loaded``."""
    file = next(p for p, H in loaded.items() if H is G)
    try:
        return os.path.relpath(file, Path(out).resolve().parent)
    except ValueError:  # no relative path, e.g. across drives
        return str(file)


# ---------------------------------------------------------------------------
# coefficient functions (states and observables)
# ---------------------------------------------------------------------------

def _add_coefficients(out: np.ndarray, data: dict, keys: tuple[str, str], indices,
                      path: Path) -> np.ndarray:
    """Add the real and imaginary tables ``data[keys[0]]``, ``data[keys[1]]``
    into ``out``; ``indices(labels)`` maps a collection of labels to an index
    of ``out`` and raises KeyError if one of them names no entry."""
    for key, factor in zip(keys, (1.0, 1j)):
        table = data.get(key, {})
        if not isinstance(table, dict):
            raise SchemaError(f"{path}: {key} must be an object")
        if not table:
            continue
        try:
            # one statement, so that no array of this table is alive while the
            # next table's labels are split
            out[indices(table)] += factor * _numbers(table)
        except (KeyError, TypeError, ValueError, OverflowError):
            _raise_first_bad_entry(table, key, indices, path)
            raise
    return out


def _numbers(table: dict) -> np.ndarray:
    """The values of ``table``; ValueError unless all are finite numbers.
    ``float``, unlike ``np.array``, rejects null instead of reading it as NaN."""
    values = np.fromiter(map(float, table.values()), float, len(table))
    if not np.isfinite(values).all():
        raise ValueError("not a finite number")
    return values


def _raise_first_bad_entry(table: dict, key: str, indices, path: Path) -> None:
    """Name the first entry of ``table`` with an unknown label or a value that
    is not a finite number."""
    for label, val in table.items():
        try:
            indices((label,))
        except KeyError:
            raise SchemaError(f"{path}: unknown {key} key {label!r}") from None
        try:
            finite = math.isfinite(float(val))
        except (TypeError, ValueError, OverflowError):
            finite = False
        if not finite:
            raise SchemaError(f"{path}: {key}[{label!r}] is not a number")


def _lookup(index: dict):
    """Labels -> array of their indices in ``index``; KeyError on an unknown label."""
    return lambda labels: np.fromiter(map(index.__getitem__, labels), np.intp)


def _tables(keys: tuple[str, str], v: np.ndarray, label) -> dict:
    """The tables ``keys[0]``, ``keys[1]`` of the real and imaginary parts of
    ``v`` for :func:`_write_json`, each built at its turn: the nonzero entries,
    keyed by ``label(*their index lists)``."""
    def table(part: np.ndarray) -> dict:
        ix = np.nonzero(part)
        return dict(zip(label(*(i.tolist() for i in ix)), part[ix].tolist()))

    return {key: partial(table, part) for key, part in zip(keys, (v.real, v.imag))}


def _element_labels(elements):
    """Index list -> the labels of those ``elements``."""
    return lambda ix: map(elements.__getitem__, ix)


def _coefficient_file(path: Path, data: dict, loaded: dict,
                      keys: tuple[str, str] = ("phi_re", "phi_im")):
    """``(groupoid, coefficients)``; the keys default to those of a state."""
    G = _referenced_groupoid(path, data, "groupoid", loaded)
    v = np.zeros(len(G.elements), dtype=complex)
    return G, _add_coefficients(v, data, keys, _lookup(G.index), path)


def load_state_file(path: str | Path, loaded: Optional[dict] = None):
    """Returns ``(groupoid, phi)`` without validating the state."""
    return _load(path, _coefficient_file, loaded)


def load_state(path: str | Path, loaded: Optional[dict] = None, tol: float = NORM_TOL) -> State:
    return make_state(*load_state_file(path, loaded), tol=tol)


def save_state(rho: State, path: str | Path, groupoid_ref: str) -> None:
    _write_json(Path(path), {
        "groupoid": groupoid_ref,
        **_tables(("phi_re", "phi_im"), rho.phi, _element_labels(rho.groupoid.elements)),
    })


def _algebra_element(path: Path, data: dict, loaded: dict) -> AlgebraElement:
    return AlgebraElement(*_coefficient_file(path, data, loaded, ("coeff_re", "coeff_im")))


def load_algebra_element(path: str | Path, loaded: Optional[dict] = None) -> AlgebraElement:
    return _load(path, _algebra_element, loaded)


def save_algebra_element(a: AlgebraElement, path: str | Path, groupoid_ref: str) -> None:
    _write_json(Path(path), {
        "groupoid": groupoid_ref,
        **_tables(("coeff_re", "coeff_im"), a.coeff, _element_labels(a.groupoid.elements)),
    })


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _kernel(path: Path, data: dict, loaded: dict) -> QuantumKernel:
    g1 = _referenced_groupoid(path, data, "source_groupoid", loaded)
    g2 = _referenced_groupoid(path, data, "target_groupoid", loaded)

    rows, cols = _lookup(g1.index), _lookup(g2.index)

    def indices(labels):
        """``a|b`` labels -> (rows, cols).  Each label holds exactly one bar iff
        each holds at least one and their join splits into twice as many parts."""
        parts = "|".join(labels).split("|")
        if len(parts) != 2 * len(labels) or not all(map(str.__contains__, labels, repeat("|"))):
            raise KeyError("|")
        return rows(islice(parts, 0, None, 2)), cols(islice(parts, 1, None, 2))

    pi = np.zeros((len(g1.elements), len(g2.elements)), dtype=complex)
    _add_coefficients(pi, data, ("pi_re", "pi_im"), indices, path)
    return QuantumKernel(g1, g2, pi)


def load_kernel(path: str | Path, loaded: Optional[dict] = None) -> QuantumKernel:
    return _load(path, _kernel, loaded)


def save_kernel(Pi: QuantumKernel, path: str | Path,
                source_ref: str, target_ref: str) -> None:
    """Write ``Pi`` with keys ``a1|a2``; raises SchemaError, writing nothing,
    if an element label of either groupoid holds a bar."""
    e1, e2 = Pi.g1.elements, Pi.g2.elements
    bad = next((e for e in (*e1, *e2) if "|" in e), None)
    if bad is not None:
        raise SchemaError(f"{path}: element label {bad!r} holds '|', the kernel key separator")
    _write_json(Path(path), {
        "source_groupoid": source_ref,
        "target_groupoid": target_ref,
        **_tables(("pi_re", "pi_im"), Pi.pi,
                  lambda rows, cols: [f"{e1[i]}|{e2[j]}" for i, j in zip(rows, cols)]),
    })


def _classical_kernel(path: Path, data: dict, loaded: dict) -> ClassicalKernel:
    try:
        return ClassicalKernel(np.array(data["K"], dtype=float))
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed classical kernel: {exc}") from exc


def load_classical_kernel(path: str | Path) -> ClassicalKernel:
    return _load(path, _classical_kernel, None)


def save_classical_kernel(K: ClassicalKernel, path: str | Path) -> None:
    _write_json(Path(path), {"K": K.K.tolist()})


def _kraus(path: Path, data: dict, loaded: dict) -> list[np.ndarray]:
    ops = []
    try:
        for entry in data["kraus"]:
            re = np.array(entry["re"], dtype=float)
            im = np.array(entry.get("im", np.zeros_like(re).tolist()), dtype=float)
            if not (np.isfinite(re).all() and np.isfinite(im).all()):  # null reads as NaN
                raise ValueError("entries must be finite numbers")
            ops.append(re + 1j * im)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed Kraus file: {exc}") from exc
    if not ops:
        raise SchemaError(f"{path}: empty Kraus list")
    if ops[0].ndim != 2 or any(a.shape != ops[0].shape for a in ops):
        raise SchemaError(f"{path}: Kraus operators must be matrices of one shape")
    return ops


def load_kraus(path: str | Path) -> list[np.ndarray]:
    return _load(path, _kraus, None)


def save_kraus(ops, path: str | Path) -> None:
    _write_json(Path(path), {
        "kraus": [{"re": np.real(a).tolist(), "im": np.imag(a).tolist()} for a in ops]
    })


# ---------------------------------------------------------------------------
# statistical models
# ---------------------------------------------------------------------------

def _cubic(x: np.ndarray, y: np.ndarray):
    """Piecewise-cubic interpolant of the rows of ``y`` (K, n) at the strictly
    increasing knots ``x`` (K,): natural ends below four knots, not-a-knot ends
    from four up (de Boor, *A Practical Guide to Splines*, ch. IV).  Outside
    the knots it continues the end cubics."""
    K, h = len(x), np.diff(x)
    slope = np.diff(y, axis=0) / h[:, None]
    # second derivatives M at the knots: continuity of the first derivative
    # at the interior knots, plus one end condition at each end
    A = np.zeros((K, K))
    i = np.arange(1, K - 1)
    A[i, i - 1], A[i, i], A[i, i + 1] = h[:-1], 2.0 * (h[:-1] + h[1:]), h[1:]
    if K < 4:  # natural: M = 0 at both ends
        A[0, 0] = A[-1, -1] = 1.0
    else:  # not-a-knot: one cubic across x[1] and one across x[-2]
        A[0, :3] = h[1], -(h[0] + h[1]), h[0]
        A[-1, -3:] = h[-1], -(h[-2] + h[-1]), h[-2]
    rhs = np.zeros_like(y)
    rhs[1:-1] = 6.0 * np.diff(slope, axis=0)
    M = np.linalg.solve(A, rhs)
    # on [x_j, x_j+1] with t = s - x_j: y_j + t (c1 + t (c2 + t c3))
    c1 = slope - h[:, None] * (2.0 * M[:-1] + M[1:]) / 6.0
    c2 = M[:-1] / 2.0
    c3 = np.diff(M, axis=0) / (6.0 * h[:, None])

    def at(s: float) -> np.ndarray:
        j = min(max(int(np.searchsorted(x, s, side="right")) - 1, 0), K - 2)
        t = s - x[j]
        return y[j] + t * (c1[j] + t * (c2[j] + t * c3[j]))

    return at


def _model(path: Path, data: dict, loaded: dict, tol: float = NORM_TOL):
    try:
        s0 = float(data["s0"])
        lo, hi = (float(x) for x in data["interval"])
        grid = [float(x) for x in data.get("grid", [])]
        entries = sorted((float(k), v) for k, v in _label_map(data["states"]).items())
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed model file: {exc}") from exc
    if len(entries) < 2:
        raise SchemaError(f"{path}: need at least two grid states")
    svals = np.array([s for s, _ in entries])
    if not (np.isfinite(svals).all() and (np.diff(svals) > 0).all()):
        raise SchemaError(f"{path}: grid parameters must be finite and distinct")

    G: Optional[FiniteGroupoid] = None
    phis = []
    for _, ref in entries:
        Gs, phi = load_state_file(_resolve(path, ref), loaded)
        if G is None:
            G = Gs
        elif Gs != G:
            raise SchemaError(f"{path}: grid states live on different groupoids")
        phis.append(phi)
    phi_at = _cubic(svals, np.array(phis))

    def curve(s: float) -> State:
        return make_state(G, phi_at(s), tol=tol)

    model = StatisticalModel(groupoid=G, curve=curve, s0=s0, interval=(lo, hi))
    return model, grid


def load_model(path: str | Path, loaded: Optional[dict] = None, tol: float = NORM_TOL):
    """Returns ``(model, audit_grid)`` with piecewise-cubic phi interpolation.

    Interpolated states are re-validated at ``tol`` on every curve evaluation.
    """
    return _load(path, partial(_model, tol=tol), loaded)


def load_pipeline(path: str | Path):
    """``(initial state path, kernel paths)`` of a pipeline config, which is not a kind."""
    path = Path(path)
    data = _read_json(path)
    state, kernels = data.get("initial_state"), data.get("kernels")
    if not isinstance(state, str):
        raise SchemaError(f"{path}: 'initial_state' must be a file name")
    if not isinstance(kernels, list) or not all(isinstance(k, str) for k in kernels):
        raise SchemaError(f"{path}: 'kernels' must be a list of file names")
    return _resolve(path, state), [_resolve(path, k) for k in kernels]


# files of any kind: the field that marks each kind, in order of precedence,
# and the function that builds what the kind's ``load_*`` function returns
_KINDS = (
    ("compose", "groupoid", _groupoid),
    ("phi_re", "state", _coefficient_file),
    ("coeff_re", "algebra", _algebra_element),
    ("pi_re", "kernel", _kernel),
    ("kraus", "kraus", _kraus),
    ("K", "classical_kernel", _classical_kernel),
    ("states", "model", _model),
)


def _kind(path: Path, data: dict):
    for field, kind, build in _KINDS:
        if field in data:
            return kind, build
    raise SchemaError(f"{path}: unrecognized file contents")


def detect_kind(path: str | Path) -> str:
    """Classify a file by its distinguishing fields."""
    return _kind(path, _read_json(Path(path)))[0]


def load_file(path: str | Path, loaded: Optional[dict] = None, tol: float = NORM_TOL):
    """Returns ``(kind, object)`` from one parse of a file of any kind; the
    object is what the kind's ``load_*`` function returns (with ``tol``)."""
    path = Path(path)
    data = _read_json(path)
    kind, build = _kind(path, data)
    build = partial(_model, tol=tol) if build is _model else build
    return kind, build(path, data, {} if loaded is None else loaded)
