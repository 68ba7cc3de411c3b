"""Layer spans for the traced benchmark run.

A :class:`Tracer` wraps the module-level public functions of each layer
module of ``cencov_ncp`` (plus ``StatisticalModel.at``) and rebinds every
name that refers to them in every ``cencov_ncp`` namespace, because
``from .x import y`` copies the name.  Each call records a span: name,
start, end, parent and invocation id.  Spans stay in memory until
:meth:`Tracer.dump`.  Wrappers pass arguments, return values and exceptions
through unchanged, and :meth:`Tracer.restore` puts every original back.

Run as a script, this module is a traced ``cencov-ncp``::

    python3 perfbench/tracer.py SPANS_FILE INVOCATION_ID [cencov-ncp args...]

It appends the invocation's spans to SPANS_FILE and exits with the CLI's
exit code.  The CLI itself is the root span ``cli.main``.
"""
from __future__ import annotations

import functools
import inspect
import json
import os
import sys
import time
from pathlib import Path

LAYERS = ("fileio", "groupoid", "algebra", "states", "channels", "gns",
          "estimation", "numkit")
ROOT = "cli.main"

_READERS = {"detect_kind", "load_groupoid", "load_state_file", "load_algebra_element",
            "load_kernel", "load_classical_kernel", "load_kraus", "load_model"}


def _file_attrs(path, key: str) -> dict:
    return {key: os.path.getsize(path), "path": str(Path(path).resolve())}


def _annotator(layer: str, name: str):
    """Attributes recorded when a call ends, computed from its arguments."""
    if layer == "numkit" and name == "hermitian_eigen":
        return lambda args, kwargs: {"dim": len(args[0])}
    if layer == "fileio" and name in _READERS:
        return lambda args, kwargs: _file_attrs(args[0], "read_bytes")
    if layer == "fileio" and name.startswith("save_"):
        return lambda args, kwargs: _file_attrs(args[1], "write_bytes")
    return None


class Tracer:
    def __init__(self, invocation: str = "0"):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self._rebound: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def open(self, name: str) -> dict:
        span = {"inv": self.invocation, "id": len(self.spans),
                "parent": self._stack[-1] if self._stack else None,
                "name": name, "start": time.perf_counter(), "end": None,
                "error": False}
        self.spans.append(span)
        self._stack.append(span["id"])
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()

    def wrap(self, qualname: str, fn, annotate=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self.open(qualname)
            try:
                return fn(*args, **kwargs)
            except BaseException:
                span["error"] = True
                raise
            finally:
                self.close(span)
                if annotate is not None:
                    try:
                        span.update(annotate(args, kwargs))
                    except (IndexError, TypeError, OSError):
                        pass  # attributes are optional; the call's outcome stands
        return traced

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap every layer's public functions and rebind them everywhere."""
        import cencov_ncp  # noqa: F401  (loads every layer module)
        from cencov_ncp.estimation import StatisticalModel

        namespaces = [m for k, m in sorted(sys.modules.items())
                      if (k == "cencov_ncp" or k.startswith("cencov_ncp.")) and m]
        for layer in LAYERS:
            mod = sys.modules[f"cencov_ncp.{layer}"]
            for name, fn in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                traced = self.wrap(f"{layer}.{name}", fn, _annotator(layer, name))
                for ns in namespaces:
                    for attr, value in list(vars(ns).items()):
                        if value is fn:
                            self._rebind(ns, attr, traced)
        self._rebind(StatisticalModel, "at",
                     self.wrap("estimation.StatisticalModel.at", StatisticalModel.at))

    def _rebind(self, owner, attr: str, value) -> None:
        self._rebound.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def restore(self) -> None:
        while self._rebound:
            owner, attr, original = self._rebound.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")


def traced_cli(spans_file: str, invocation: str, cli_args: list[str]) -> None:
    from cencov_ncp import cli

    tracer = Tracer(invocation)
    tracer.install()
    root = tracer.open(ROOT)
    try:
        cli.main(args=cli_args, prog_name="cencov-ncp")
    except SystemExit as exc:
        root["error"] = exc.code not in (0, None)
        raise
    finally:
        tracer.close(root)
        tracer.restore()
        tracer.dump(spans_file)


# ---------------------------------------------------------------------------
# folding spans into per-layer metrics
# ---------------------------------------------------------------------------

def _named(*names: str):
    return lambda name: name in names


CONSTRUCTORS = _named(*(f"groupoid.{n}" for n in (
    "pair_groupoid", "trivial_groupoid", "group_groupoid", "cyclic_group_groupoid",
    "disjoint_union", "product")))

# metric -> which spans it sums; nested matching spans count once (inclusive time)
INCLUSIVE = {
    "fileio.load_s": lambda n: n.startswith("fileio.load_") or n == "fileio.detect_kind",
    "fileio.save_s": lambda n: n.startswith("fileio.save_"),
    "groupoid.validate_s": _named("groupoid.validate"),
    "states.check_s": _named("states.check_state"),
    "channels.kernel_axioms_s": _named("channels.validate_kernel"),
    "channels.choi_s": _named("channels.choi_matrix"),
    "channels.push_s": _named("channels.push_state"),
    "channels.compose_s": _named("channels.compose"),
    "gns.gram_s": _named("gns.gram_matrix"),
    "gns.build_s": _named("gns.build_gns"),
    "estimation.riesz_s": _named("estimation.riesz_representer"),
    "numkit.eigh_s": _named("numkit.hermitian_eigen"),
    "numkit.min_norm_solve_s": _named("numkit.min_norm_solve"),
}
# spans of the traced set-up, the only place these functions run
SETUP_INCLUSIVE = {
    "groupoid.construct_s": CONSTRUCTORS,
    "channels.kraus_to_kernel_s": _named("channels.choi_to_kernel"),
}
GENERIC = ("self_s", "calls", "errors")
EXTRA = ("fileio.read_bytes", "fileio.write_bytes", "groupoid.validate_calls",
         "groupoid.validate_useful_ratio", "states.fibers_checked",
         "estimation.curve_evals", "numkit.eigh_calls", "numkit.eigh_max_dim",
         "numkit.eigh_flops")
METRICS = ([f"{layer}.{k}" for layer in ("cli",) + LAYERS for k in GENERIC]
           + list(INCLUSIVE) + list(SETUP_INCLUSIVE) + list(EXTRA))


def _duration(span: dict) -> float:
    return span["end"] - span["start"]


def inclusive(spans: list[dict], wanted) -> float:
    """Total time of the outermost spans whose name satisfies ``wanted``."""
    by_key = {(s["inv"], s["id"]): s for s in spans}
    total = 0.0
    for s in spans:
        if not wanted(s["name"]):
            continue
        parent = s["parent"]
        while parent is not None:
            up = by_key[(s["inv"], parent)]
            if wanted(up["name"]):
                break
            parent = up["parent"]
        else:
            total += _duration(s)
    return total


def fold(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of the command spans of one traced pass.

    Self time is a span's duration minus the time its children cover, so the
    layers' self times add up to the root ``cli.main`` spans.  The set-up
    metrics are zero here; :func:`fold_setup` fills them.
    """
    m: dict[str, float] = dict.fromkeys(METRICS, 0)
    by_key = {(s["inv"], s["id"]): s for s in spans}
    covered: dict[tuple, float] = {}
    for s in spans:
        if s["parent"] is not None:
            key = (s["inv"], s["parent"])
            covered[key] = covered.get(key, 0.0) + _duration(s)
    for s in spans:
        layer = s["name"].split(".")[0]
        m[f"{layer}.self_s"] += _duration(s) - covered.get((s["inv"], s["id"]), 0.0)
        m[f"{layer}.calls"] += 1
        m[f"{layer}.errors"] += int(s["error"])
    for metric, wanted in INCLUSIVE.items():
        m[metric] = inclusive(spans, wanted)

    dims = [s.get("dim", 0) for s in spans if s["name"] == "numkit.hermitian_eigen"]
    m["numkit.eigh_calls"] = len(dims)
    m["numkit.eigh_max_dim"] = max(dims, default=0)
    m["numkit.eigh_flops"] = sum(d ** 3 for d in dims)
    m["fileio.read_bytes"] = sum(s.get("read_bytes", 0) for s in spans)
    m["fileio.write_bytes"] = sum(s.get("write_bytes", 0) for s in spans)
    m["estimation.curve_evals"] = sum(s["name"] == "estimation.StatisticalModel.at"
                                      for s in spans)
    m["states.fibers_checked"] = sum(
        s["name"] == "states.fiber_gram" and s["parent"] is not None
        and by_key[(s["inv"], s["parent"])]["name"] == "states.check_state"
        for s in spans)
    validations = sum(s["name"] == "groupoid.validate" for s in spans)
    # distinct groupoid files per invocation: the validations that were needed
    needed = len({(s["inv"], s["path"]) for s in spans
                  if s["name"] == "fileio.load_groupoid" and "path" in s})
    m["groupoid.validate_calls"] = validations
    m["groupoid.validate_useful_ratio"] = needed / validations if validations else 0.0
    return m


def fold_setup(spans: list[dict]) -> dict[str, float]:
    return {metric: inclusive(spans, wanted) for metric, wanted in SETUP_INCLUSIVE.items()}


def partition_gap(spans: list[dict], metrics: dict[str, float]) -> float:
    """|sum of layer self times - sum of root spans|; zero up to rounding."""
    roots = sum(_duration(s) for s in spans if s["parent"] is None)
    layers = sum(metrics[f"{layer}.self_s"] for layer in ("cli",) + LAYERS)
    return abs(layers - roots)


if __name__ == "__main__":
    traced_cli(sys.argv[1], sys.argv[2], sys.argv[3:])
