"""JSON file formats for groupoids, states, observables, kernels, and models.

Every file carries ``"fmt": "cencov-ncp/1"``; unknown versions are rejected.
Paths inside a file are resolved relative to the directory containing it.

Every load takes one path: the file is parsed, its kind is read from the
fields that mark it (``_KINDS``), and the object of that kind is built; a
``load_*`` function refuses a file of another kind, naming both kinds.
Loaders take an optional ``loaded`` map, resolved path -> ``(kind, object)``,
that holds every file but a model read through it, groupoids and the files
that reference them alike.  The CLI passes one map per invocation, so each of
those files is parsed, and each groupoid validated, once, repeats included,
and :func:`groupoid_ref` finds the file a loaded groupoid came from for the
references in files written with ``-o``.  A model is built anew at each load,
so that its curve checks states at the ``tol`` of that load; its state files
stay in the map.  Parsed JSON is never kept.

A kernel's tables may list their ``a1|a2`` keys in any order.  A table of at
least half of the ``n1 * n2`` keys, with no bar in any label, is read by one
walk of the writer's row-major keys if in that order, else split and looked
up, in one call that names its first bad key, in table order, by one more pass.
"""
from __future__ import annotations

import errno
import json
import math
import os
import re
from contextlib import suppress
from functools import partial
from itertools import chain, compress, count, filterfalse, islice, product, repeat
from operator import indexOf
from pathlib import Path
from stat import S_IMODE, S_ISREG
from typing import NamedTuple, Optional

import numpy as np

from .algebra import AlgebraElement
from .channels import ClassicalKernel, QuantumKernel
from .errors import SchemaError
from .groupoid import FiniteGroupoid, GroupoidSpec, _ix, _names, validate
from .numkit import TOL
from .states import State, make_state

FMT = "cencov-ncp/1"
# the text of a JSON number: the one form of a model's grid key, read as its s-value
_JSON_NUMBER = re.compile(r"-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][-+]?[0-9]+)?")


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
    """Write ``{"fmt": FMT, **data}`` to ``path`` as one line of JSON, with
    strict numbers and the keys in the order given.

    The top-level values are encoded in turn, each by one call of the C
    encoder and written before the next is made; a :class:`_Table` is written
    in chunks of its keys, so that no table's whole text is held.  A
    new file, or a regular file in a directory we may write, is written under
    a temporary name in its directory and renamed over ``path`` (or the file a
    link at ``path`` names) at the end, with the old file's mode, so a failure
    leaves it as it was.  Anything else (a device, a FIFO, a pipe, a file in
    a read-only directory) is opened and written in place.  An OSError names
    ``path``.
    """
    data = {"fmt": FMT, **data}
    target = path.resolve()
    try:
        old = os.stat(path)
    except FileNotFoundError:
        old = None
    try:
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
    except OSError as exc:  # named as path: not the temporary name, nor none (a write)
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def _names_regular_file(target: Path, st: os.stat_result) -> bool:
    """Whether ``st`` is a regular file and ``target`` is a name of it (on a
    pipe, ``/dev/stdout`` resolves to a name that does not exist)."""
    try:
        return S_ISREG(st.st_mode) and os.path.samestat(st, os.stat(target))
    except OSError:
        return False


def _write_values(fh, path: Path, data: dict) -> None:
    sep = "{"
    for key, value in data.items():
        fh.write(f"{sep}{json.dumps(key)}: ")
        try:
            if isinstance(value, _Table):
                _write_table(fh, value)
            else:
                fh.write(json.dumps(value, allow_nan=False))
        except ValueError as exc:
            raise SchemaError(f"{path}: cannot write {key}: {exc}") from exc
        sep = ", "
    fh.write("}\n")


class _Table(NamedTuple):
    """The table ``{k: x for k, x in zip(keys, values) if x != 0}`` of
    :func:`_write_json`."""
    keys: list[str]
    values: np.ndarray


# at most this many entries of a table per call of the C encoder
_CHUNK = 4096


def _write_table(fh, table: _Table) -> None:
    """Write the text that ``json.dumps`` makes of ``table``, one chunk of
    its keys at a time."""
    sep = ""
    fh.write("{")
    for start in range(0, len(table.keys), _CHUNK):
        values = table.values[start:start + _CHUNK].tolist()
        # a float is false iff it is +-0.0, so NaN stays for the encoder to reject
        chunk = dict(zip(compress(table.keys[start:start + _CHUNK], values),
                         filter(None, values)))
        if chunk:
            fh.write(sep)
            fh.write(json.dumps(chunk, allow_nan=False)[1:-1])
            sep = ", "
    fh.write("}")


def _resolve(base: Path, ref: str) -> Path:
    if "\0" in ref:  # no file name holds one
        raise SchemaError(f"{base}: reference {ref!r} holds a null byte")
    p = Path(ref)
    return p if p.is_absolute() else (base.parent / p)


def _load(path: str | Path, loaded: Optional[dict], tol: float = TOL,
          want: Optional[str] = None):
    """``(kind, object)`` of the file ``path``, built once per ``loaded`` map
    (a model at each call, with ``tol``); SchemaError if ``want`` is given and
    the file is of another kind.  A file that no field marks is read as ``want``."""
    loaded, path = {} if loaded is None else loaded, Path(path)
    key = path.resolve()
    if key in loaded:
        kind, obj = loaded[key]
    else:
        data = _read_json(path)
        kind, obj = _kind(path, data, want), None
    if want not in (None, kind):
        raise SchemaError(f"{path}: {_a(kind)} file, not {_a(want)} file")
    if kind == "model":
        return kind, _model(path, data, loaded, tol)
    if obj is None:
        obj = _KINDS[kind][1](path, data, loaded)
        loaded[key] = kind, obj
    return kind, obj


def _a(kind: str) -> str:
    return f"{'an' if kind[0] in 'aeiou' else 'a'} {kind}"


# the types of JSON numbers: a string, a boolean or null is not one
_NUMBER_TYPES = frozenset((int, float))


def _floats(path: Path, values, places, fmt: str = "{} is not a number") -> np.ndarray:
    """The JSON values ``values`` (a sized collection, such as a table's
    values) as a float array, when all are finite numbers: one type check and
    one ``np.fromiter``, with no copy.  Else SchemaError ``path: fmt`` of the
    place of the first that is not, from ``places``, read only then."""
    if set(map(type, values)) <= _NUMBER_TYPES:
        try:
            x = np.fromiter(values, float, len(values))
        except OverflowError:  # an int beyond the doubles
            pass
        else:
            if np.isfinite(x).all():
                return x
    for place, v in zip(places, values):
        try:
            if type(v) in _NUMBER_TYPES and math.isfinite(v):
                continue
        except OverflowError:
            pass
        raise SchemaError(f"{path}: {fmt.format(place)}")


def _matrix(path: Path, value, name: str, fmt: str = "{} is not a number") -> np.ndarray:
    """Nested lists of JSON numbers as a float array of their shape, by
    :func:`_floats`, an entry named ``name[i][j]...``; ValueError if the lists
    are ragged."""
    items = np.array(value, dtype=object)
    flat = items.ravel().tolist()
    if list in set(map(type, flat)):
        raise ValueError("nested lists of unequal lengths")
    places = (name + "".join(map("[{}]".format, ix)) for ix in np.ndindex(items.shape))
    return _floats(path, flat, places, fmt).reshape(items.shape)


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


def _number_table(path: Path, data: dict, key: str) -> dict[str, float]:
    """The table ``data[key]`` of finite numbers, by :func:`_floats`."""
    table = data[key]
    if not isinstance(table, dict):
        raise TypeError("expected an object mapping ids to numbers")
    values = _floats(path, table.values(), map(f"{key}[{{!r}}]".format, table))
    return dict(zip(table, values.tolist()))


def _rows(rows) -> list[list[str]]:
    """``rows``, once it is a list whose rows hold string ids (one bulk check;
    ``validate`` checks the rows' shape)."""
    if not (isinstance(rows, list) and set(map(type, chain.from_iterable(rows))) <= {str}):
        raise TypeError("expected a list of [beta, alpha, beta o alpha] rows of string ids")
    return rows


def _groupoid(path: Path, data: dict, loaded: dict) -> FiniteGroupoid:
    try:
        spec = GroupoidSpec(
            outcomes=_labels(data["outcomes"]),
            elements=_labels(data["elements"]),
            source=_label_map(data["source"]),
            target=_label_map(data["target"]),
            inverse=_label_map(data["inverse"]),
            compose=_rows(data["compose"]),
            units=_label_map(data["units"]),
            P=_number_table(path, data, "P"),
            fiber_weight=_number_table(path, data, "fiber_weight")
            if "fiber_weight" in data else None,
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed groupoid file: {exc}") from exc
    try:
        return validate(spec)
    except SchemaError as exc:  # an ill-formed table: name the file
        raise SchemaError(f"{path}: {exc}") from exc


def load_groupoid(path: str | Path, loaded: Optional[dict] = None) -> FiniteGroupoid:
    """The validated groupoid in ``path``, read once per ``loaded`` map."""
    return _load(path, loaded, want="groupoid")[1]


def save_groupoid(G: FiniteGroupoid, path: str | Path) -> None:
    """Write ``G``; its tables are built from the arrays for the write."""
    e, o = G.elements, G.outcomes
    _write_json(Path(path), {
        "outcomes": list(o),
        "elements": list(e),
        "source": dict(zip(e, _names(o, G.src))),
        "target": dict(zip(e, _names(o, G.tgt))),
        "inverse": dict(zip(e, _names(e, G.inv_ix))),
        "compose": G.composable_pairs,
        "units": dict(zip(o, _names(e, G.unit_ix))),
        "P": dict(zip(o, G.P_vec.tolist())),
        "fiber_weight": dict(zip(e, G.weight_vec.tolist())),
    })


def _referenced_groupoid(path: Path, data: dict, key: str, loaded: dict) -> FiniteGroupoid:
    ref = data.get(key)
    if not isinstance(ref, str):
        raise SchemaError(f"{path}: missing {key} reference")
    return load_groupoid(_resolve(path, ref), loaded)


def groupoid_ref(G: FiniteGroupoid, out: str | Path, loaded: dict) -> str:
    """Reference from a file written to ``out`` to the file that ``G`` was
    loaded from, found by identity in ``loaded``."""
    file = next(p for p, (_, H) in loaded.items() if H is G)
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
    into ``out``; ``indices(table)``, one call per table, maps its labels to an
    index of ``out`` or raises KeyError naming its first label that names none."""
    for key, factor in zip(keys, (1.0, 1j)):
        table = data.get(key, {})
        if not isinstance(table, dict):
            raise SchemaError(f"{path}: {key} must be an object")
        if not table:
            continue
        place = f"{key}[{{!r}}]".format
        try:
            # one statement, so that no array of this table is alive while the
            # next table's labels are split
            out[indices(table)] += factor * _floats(path, table.values(), map(place, table))
        except KeyError as exc:  # one pass finds the label; a bad value before it is named
            n = indexOf(table, exc.args[0])
            _floats(path, list(islice(table.values(), n)), map(place, table))
            raise SchemaError(f"{path}: unknown {key} key {exc.args[0]!r}") from None
    return out


def _tables(keys: tuple[str, str], v: np.ndarray, *axes) -> dict:
    """The tables ``keys[0]``, ``keys[1]`` of the real and imaginary parts of
    ``v`` for :func:`_write_json`: the nonzero entries in index order
    (row-major), each keyed by the join of its labels along the axes of ``v``
    (``axes[k][i]`` labels index i of axis k); each key is built once, for
    both tables."""
    ix = np.nonzero(v)
    values = v[ix]
    table_keys = list(map("".join, zip(*(np.array(labels, dtype=object)[i].tolist()
                                         for labels, i in zip(axes, ix)))))
    return {key: _Table(table_keys, part) for key, part in zip(keys, (values.real, values.imag))}


def _coefficient_file(path: Path, data: dict, loaded: dict,
                      keys: tuple[str, str] = ("phi_re", "phi_im")):
    """``(groupoid, coefficients)``; the keys default to those of a state."""
    G = _referenced_groupoid(path, data, "groupoid", loaded)
    v = np.zeros(len(G.elements), dtype=complex)
    return G, _add_coefficients(v, data, keys, partial(_ix, index=G.index), path)


def load_state_file(path: str | Path, loaded: Optional[dict] = None):
    """Returns ``(groupoid, phi)`` without validating the state."""
    return _load(path, loaded, want="state")[1]


def load_state(path: str | Path, loaded: Optional[dict] = None, tol: float = TOL) -> State:
    return make_state(*load_state_file(path, loaded), tol=tol)


def save_state(rho: State, path: str | Path, groupoid_ref: str) -> None:
    _write_json(Path(path), {
        "groupoid": groupoid_ref,
        **_tables(("phi_re", "phi_im"), rho.phi, rho.groupoid.elements),
    })


def _algebra_element(path: Path, data: dict, loaded: dict) -> AlgebraElement:
    return AlgebraElement(*_coefficient_file(path, data, loaded, ("coeff_re", "coeff_im")))


def load_algebra_element(path: str | Path, loaded: Optional[dict] = None) -> AlgebraElement:
    return _load(path, loaded, want="algebra")[1]


def save_algebra_element(a: AlgebraElement, path: str | Path, groupoid_ref: str) -> None:
    _write_json(Path(path), {
        "groupoid": groupoid_ref,
        **_tables(("coeff_re", "coeff_im"), a.coeff, a.groupoid.elements),
    })


# ---------------------------------------------------------------------------
# kernels
# ---------------------------------------------------------------------------

def _decode_keys(labels, g1: FiniteGroupoid, g2: FiniteGroupoid) -> np.ndarray:
    """Flat row-major indices of the ``a1|a2`` keys ``labels``, else KeyError
    naming the first key, in table order, that is not two known labels joined
    by exactly one bar, found by one more pass.  Each key holds exactly one bar
    iff each holds at least one and their join splits into twice as many parts."""
    parts = "|".join(labels).split("|")
    if len(parts) == 2 * len(labels) and all(map(str.__contains__, labels, repeat("|"))):
        with suppress(KeyError):
            return (_ix(islice(parts, 0, None, 2), g1.index) * len(g2.elements)
                    + _ix(islice(parts, 1, None, 2), g2.index))
    for key in labels:
        a1, bar, a2 = key.partition("|")
        if not (bar and a1 in g1.index and a2 in g2.index) or "|" in a2:
            raise KeyError(key)


def _kernel_indices(labels, g1: FiniteGroupoid, g2: FiniteGroupoid) -> np.ndarray:
    """What :func:`_decode_keys` gives for the whole table ``labels``.  When it
    holds at least half of the ``n1 * n2`` keys (tested first) and no element
    label holds a bar, the writer's keys are walked once in row-major order,
    each key found by ``indexOf`` consuming the walk up to its match (such a key
    splits into its own two labels); other tables, and those the walk misses, are decoded."""
    e1, e2 = g1.elements, g2.elements
    if 2 * len(labels) >= len(e1) * len(e2) and "|" not in "".join(e1 + e2):
        walk = map("".join, product([f"{a}|" for a in e1], e2))
        try:
            steps = np.fromiter(map(indexOf, repeat(walk), labels), np.intp, len(labels))
        except ValueError:  # a key not in the rest of the walk
            pass
        else:
            return np.cumsum(steps + 1) - 1
    return _decode_keys(labels, g1, g2)


def _kernel(path: Path, data: dict, loaded: dict) -> QuantumKernel:
    g1 = _referenced_groupoid(path, data, "source_groupoid", loaded)
    g2 = _referenced_groupoid(path, data, "target_groupoid", loaded)
    shape = len(g1.elements), len(g2.elements)
    pi = np.zeros(shape[0] * shape[1], dtype=complex)
    _add_coefficients(pi, data, ("pi_re", "pi_im"), partial(_kernel_indices, g1=g1, g2=g2), path)
    return QuantumKernel(g1, g2, pi.reshape(shape))


def load_kernel(path: str | Path, loaded: Optional[dict] = None) -> QuantumKernel:
    return _load(path, loaded, want="kernel")[1]


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
        **_tables(("pi_re", "pi_im"), Pi.pi, [f"{e}|" for e in e1], e2),
    })


def _classical_kernel(path: Path, data: dict, loaded: dict) -> ClassicalKernel:
    try:
        K = _matrix(path, data["K"], "K")
    except (KeyError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed classical kernel: {exc}") from exc
    if K.ndim != 2:
        raise SchemaError(f"{path}: classical kernel must be a matrix, not of shape {K.shape}")
    return ClassicalKernel(K)


def load_classical_kernel(path: str | Path) -> ClassicalKernel:
    return _load(path, None, want="classical_kernel")[1]


def save_classical_kernel(K: ClassicalKernel, path: str | Path) -> None:
    _write_json(Path(path), {"K": K.K.tolist()})


def _kraus(path: Path, data: dict, loaded: dict) -> list[np.ndarray]:
    ops, fmt = [], "malformed Kraus file: entries must be finite numbers ({})"
    try:
        for k, entry in enumerate(data["kraus"]):
            re = _matrix(path, entry["re"], f"kraus[{k}].re", fmt)
            im = (_matrix(path, entry["im"], f"kraus[{k}].im", fmt) if "im" in entry
                  else np.zeros_like(re))
            if im.shape != re.shape:
                raise ValueError(f"kraus[{k}].im has shape {im.shape}, "
                                 f"kraus[{k}].re has shape {re.shape}")
            ops.append(re + 1j * im)
    except (KeyError, TypeError, ValueError) as exc:
        raise SchemaError(f"{path}: malformed Kraus file: {exc}") from exc
    if not ops:
        raise SchemaError(f"{path}: empty Kraus list")
    if ops[0].ndim != 2 or any(a.shape != ops[0].shape for a in ops):
        raise SchemaError(f"{path}: Kraus operators must be matrices of one shape")
    if 0 in ops[0].shape:
        raise SchemaError(f"{path}: malformed Kraus file: empty operators of shape {ops[0].shape}")
    return ops


def load_kraus(path: str | Path) -> list[np.ndarray]:
    return _load(path, None, want="kraus")[1]


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


def _model(path: Path, data: dict, loaded: dict, tol: float):
    from .estimation import StatisticalModel

    fmt = "malformed model file: {} is not a number"
    try:
        [s0] = _floats(path, [data["s0"]], ["s0"], fmt).tolist()
        lo, hi = _floats(path, list(data["interval"]), map("interval[{}]".format, count()),
                         fmt).tolist()
        grid = _floats(path, list(data.get("grid", [])), map("grid[{}]".format, count()),
                       fmt).tolist()
        states = _label_map(data["states"])
        for key in filterfalse(_JSON_NUMBER.fullmatch, states):
            raise ValueError(f"states key {key!r} is not a number")
        entries = sorted((float(k), v) for k, v in states.items())
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


def load_model(path: str | Path, loaded: Optional[dict] = None, tol: float = TOL):
    """Returns ``(model, audit_grid)`` with piecewise-cubic phi interpolation.

    Interpolated states are re-validated at ``tol`` on every curve evaluation.
    """
    return _load(path, loaded, tol, want="model")[1]


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


# files of any kind, in order of precedence: the fields that mark the kind
# (any one of them), and the function that builds what its ``load_*`` returns
_KINDS = {
    "groupoid": (("compose",), _groupoid),
    "state": (("phi_re", "phi_im"), _coefficient_file),
    "algebra": (("coeff_re", "coeff_im"), _algebra_element),
    "kernel": (("pi_re", "pi_im"), _kernel),
    "kraus": (("kraus",), _kraus),
    "classical_kernel": (("K",), _classical_kernel),
    "model": (("states",), _model),
}


def _kind(path: Path, data: dict, default: Optional[str] = None) -> str:
    kind = next((k for k, (fields, _) in _KINDS.items() if not data.keys().isdisjoint(fields)),
                default)
    if kind is None:
        raise SchemaError(f"{path}: unrecognized file contents")
    return kind


def detect_kind(path: str | Path) -> str:
    """Classify a file by its distinguishing fields."""
    return _kind(path, _read_json(Path(path)))


def load_file(path: str | Path, loaded: Optional[dict] = None, tol: float = TOL):
    """Returns ``(kind, object)`` of a file of any kind, parsed once per
    ``loaded`` map (a model at each call); the object is what the kind's
    ``load_*`` function returns (with ``tol``)."""
    return _load(path, loaded, tol)
