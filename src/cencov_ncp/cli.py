"""Command-line surface for validating, transforming, and reporting on
groupoids, states, kernels, and statistical models.

Exit codes: 0 success, 1 validation failure, 2 I/O or schema error,
3 numerical failure.
"""
from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import fileio
from .channels import (
    completeness_deficit,
    compose as compose_kernels,
    cp_verdict,
    pull_observable,
    push_state_report,
    validate_kernel,
)
from .errors import (
    CencovNcpError,
    FoliumViolation,
    NoConvergence,
    SchemaError,
    ZeroInformation,
)
from .estimation import (
    Estimator,
    classical_fisher_rao,
    cramer_rao_audit,
    cramer_rao_bound,
    fisher_metric,
)
from .gns import build_gns
from .states import check_state

EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3

_NUMERICAL = (NoConvergence, FoliumViolation, ZeroInformation)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


def _guard(fn, *args, **kwargs):
    """Run a library call, translating exceptions into exit codes."""
    try:
        return fn(*args, **kwargs)
    except SchemaError as exc:
        _fail(EXIT_SCHEMA, str(exc))
    except _NUMERICAL as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except CencovNcpError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except OSError as exc:
        _fail(EXIT_SCHEMA, str(exc))


def _json_default(obj):
    if isinstance(obj, (np.bool_, np.integer, np.floating)):
        return obj.item()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def _emit(ctx, data: dict) -> None:
    if ctx.obj["json"]:
        click.echo(json.dumps(data, sort_keys=True, default=_json_default))
    else:
        for key in sorted(data):
            click.echo(f"{key}: {data[key]}")


def _finite(ctx, param, value):
    """Option callback: a finite ``--tol`` >= 0, or a finite ``--h`` > 0."""
    strict = param.name == "hstep"
    if not np.isfinite(value) or value < 0 or (strict and value == 0):
        raise click.BadParameter(f"must be finite and {'>' if strict else '>='} 0")
    return value


@click.group()
@click.option("--tol", type=float, default=1e-9, show_default=True, callback=_finite,
              help="Validation tolerance.")
@click.option("--h", "hstep", type=float, default=1e-5, show_default=True, callback=_finite,
              help="Finite-difference step for model derivatives.")
@click.option("--json", "json_out", is_flag=True, help="Machine-readable output.")
@click.pass_context
def main(ctx, tol, hstep, json_out):
    """Finite groupoid algebras, states, kernels, and Cramer-Rao reports."""
    ctx.obj = {"tol": tol, "h": hstep, "json": json_out, "loaded": {}}


@main.command()
@click.argument("file", type=click.Path())
@click.pass_context
def validate(ctx, file):
    """Validate a groupoid, state, kernel, or model file."""
    tol = ctx.obj["tol"]
    kind, obj = _guard(fileio.load_file, file, ctx.obj["loaded"], tol=tol)
    data = {"file": file, "kind": kind}

    if kind == "groupoid":
        data.update(outcomes=len(obj.outcomes), elements=len(obj.elements), passed=True)
    elif kind == "state":
        G, phi = obj
        report = _guard(check_state, phi, G, tol=tol)
        data.update(
            passed=report.passed,
            normalization_deficit=report.normalization_deficit,
            symmetry_deficit=report.symmetry_deficit,
            min_fiber_eigenvalue=min(report.fiber_min_eigenvalue.values()),
        )
    elif kind == "kernel":
        report = _guard(validate_kernel, obj, tol=tol)
        data.update(
            passed=report.passed,
            normalization_deficit=report.normalization_deficit,
            hermiticity_deficit=report.hermiticity_deficit,
            min_fiber_eigenvalue=min(report.positivity_min_eigenvalue.values()),
        )
    elif kind == "classical_kernel":
        data.update(passed=True, shape=list(obj.K.shape))
    elif kind == "kraus":
        dev = completeness_deficit(obj)
        if dev > tol:
            _emit(ctx, {**data, "passed": False, "completeness_deficit": dev})
            _fail(EXIT_VALIDATION,
                  f"Kraus completeness sum deviates from identity by {dev:.3e}")
        data.update(passed=True, completeness_deficit=dev, operators=len(obj))
    elif kind == "model":
        model, grid = obj
        for s in [model.s0, *grid]:
            _guard(model.at, s)
        data.update(passed=True, s0=model.s0, grid_points=len(grid))
    else:  # algebra
        data.update(passed=True, support=int(np.count_nonzero(obj.coeff)))
    _emit(ctx, data)
    if not data.get("passed", False):
        sys.exit(EXIT_VALIDATION)


@main.command()
@click.argument("k1", type=click.Path())
@click.argument("k2", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def compose(ctx, k1, k2, out):
    """Compose two kernel files (first applied first)."""
    loaded = ctx.obj["loaded"]
    Pi12 = _guard(fileio.load_kernel, k1, loaded)
    Pi23 = _guard(fileio.load_kernel, k2, loaded)
    Pi = _guard(compose_kernels, Pi12, Pi23)
    report = _guard(validate_kernel, Pi, tol=ctx.obj["tol"])
    data = {
        "passed": report.passed,
        "normalization_deficit": report.normalization_deficit,
        "hermiticity_deficit": report.hermiticity_deficit,
    }
    if out:
        _guard(fileio.save_kernel, Pi, out, fileio.groupoid_ref(Pi.g1, out, loaded),
               fileio.groupoid_ref(Pi.g2, out, loaded))
        data["out"] = out
    _emit(ctx, data)


@main.command()
@click.argument("state", type=click.Path())
@click.argument("kernel", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def push(ctx, state, kernel, out):
    """Push a state forward through a kernel."""
    loaded, tol = ctx.obj["loaded"], ctx.obj["tol"]
    rho = _guard(fileio.load_state, state, loaded, tol=tol)
    Pi = _guard(fileio.load_kernel, kernel, loaded)
    pushed, report = _guard(push_state_report, rho, Pi, tol=tol)
    data = {
        "passed": report.passed,
        "normalization_deficit": report.normalization_deficit,
        "min_fiber_eigenvalue": min(report.fiber_min_eigenvalue.values()),
    }
    if out:
        _guard(fileio.save_state, pushed, out,
               fileio.groupoid_ref(pushed.groupoid, out, loaded))
        data["out"] = out
    _emit(ctx, data)


@main.command()
@click.argument("kernel", type=click.Path())
@click.argument("observable", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def pull(ctx, kernel, observable, out):
    """Pull an observable back through a kernel."""
    loaded = ctx.obj["loaded"]
    Pi = _guard(fileio.load_kernel, kernel, loaded)
    f2 = _guard(fileio.load_algebra_element, observable, loaded)
    pulled = _guard(pull_observable, Pi, f2)
    data = {"support": int(np.count_nonzero(pulled.coeff))}
    if out:
        _guard(fileio.save_algebra_element, pulled, out,
               fileio.groupoid_ref(pulled.groupoid, out, loaded))
        data["out"] = out
    _emit(ctx, data)


@main.command()
@click.argument("config", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def pipeline(ctx, config, out):
    """Run an ordered kernel pipeline on an initial state.

    Config file: {"fmt": ..., "initial_state": path, "kernels": [paths]}.
    """
    state_path, kernel_paths = _guard(fileio.load_pipeline, config)
    loaded, tol = ctx.obj["loaded"], ctx.obj["tol"]
    rho = _guard(fileio.load_state, state_path, loaded, tol=tol)
    stages = []
    for kp in kernel_paths:
        Pi = _guard(fileio.load_kernel, kp, loaded)
        rho, report = _guard(push_state_report, rho, Pi, tol=tol)
        stages.append({
            "kernel": str(kp),
            "normalization_deficit": report.normalization_deficit,
            "min_fiber_eigenvalue": min(report.fiber_min_eigenvalue.values()),
        })
    data = {"stages": stages, "passed": True}
    if out:
        _guard(fileio.save_state, rho, out, fileio.groupoid_ref(rho.groupoid, out, loaded))
        data["out"] = out
    _emit(ctx, data)


@main.command()
@click.argument("state", type=click.Path())
@click.pass_context
def gns(ctx, state):
    """Report the GNS dimension, ideal dimension, and Gram spectrum."""
    rho = _guard(fileio.load_state, state, ctx.obj["loaded"], tol=ctx.obj["tol"])
    S = _guard(build_gns, rho)
    _emit(ctx, {
        "dim": S.dim,
        "ideal_dim": int(len(S.groupoid.elements) - S.dim),
        "gram_spectrum": [float(w) for w in S.gram_eigenvalues],
    })


@main.command()
@click.argument("model", type=click.Path())
@click.pass_context
def fisher(ctx, model):
    """Fisher metric of a model; classical value when applicable."""
    M, _ = _guard(fileio.load_model, model, ctx.obj["loaded"], tol=ctx.obj["tol"])
    S = _guard(build_gns, _guard(M.at, M.s0))
    gf = _guard(fisher_metric, M, S, h=ctx.obj["h"])
    data = {"fisher": gf}
    if len(M.groupoid.elements) == len(M.groupoid.outcomes):
        classical = _guard(classical_fisher_rao, M, h=ctx.obj["h"])
        data["classical_fisher"] = classical
        data["agreement_deficit"] = abs(gf - classical)
    _emit(ctx, data)


@main.command()
@click.argument("model", type=click.Path())
@click.option("--estimator", type=click.Path(), default=None)
@click.pass_context
def crb(ctx, model, estimator):
    """Cramer-Rao bound; audit a self-adjoint estimator when given."""
    M, _ = _guard(fileio.load_model, model, ctx.obj["loaded"], tol=ctx.obj["tol"])
    S = _guard(build_gns, _guard(M.at, M.s0))
    bound = _guard(cramer_rao_bound, M, S, h=ctx.obj["h"])
    data = {"bound": bound}
    if estimator:
        a = _guard(fileio.load_algebra_element, estimator, ctx.obj["loaded"])
        A = _guard(Estimator, a)
        audit = _guard(cramer_rao_audit, M, A, bound)
        data.update(
            second_moment=audit.second_moment,
            slack=audit.slack,
            saturated=audit.saturated,
        )
    _emit(ctx, data)


@main.command()
@click.argument("kernel", type=click.Path())
@click.pass_context
def cp(ctx, kernel):
    """Choi complete-positivity verdict for a pair-groupoid kernel."""
    Pi = _guard(fileio.load_kernel, kernel, ctx.obj["loaded"])
    is_cp, min_eig = _guard(cp_verdict, Pi)
    _emit(ctx, {"is_cp": bool(is_cp), "min_choi_eigenvalue": float(min_eig)})


if __name__ == "__main__":
    main()
