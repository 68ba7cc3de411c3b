"""Command-line surface for validating, transforming, and reporting on
groupoids, states, kernels, and statistical models.

Exit codes: 0 success, 1 validation failure, 2 I/O or schema error,
3 numerical failure.  Commands call the library directly; the ``main`` group
maps a library error or OSError to its exit code, once, and prints
``error: <message>``.  A closed stdout exits 1 with nothing on stderr.
"""
from __future__ import annotations

import json
import sys

import click
import numpy as np

from . import fileio, numkit
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
from .states import check_state

# the gns, fisher and crb commands import the gns and estimation layers
# themselves, so that no other command pays for loading them

EXIT_VALIDATION = 1
EXIT_SCHEMA = 2
EXIT_NUMERICAL = 3

_NUMERICAL = (NoConvergence, FoliumViolation, ZeroInformation)


def _fail(code: int, message: str) -> None:
    click.echo(f"error: {message}", err=True)
    sys.exit(code)


class _Main(click.Group):
    def invoke(self, ctx):
        try:
            result = super().invoke(ctx)
        except SchemaError as exc:
            _fail(EXIT_SCHEMA, str(exc))
        except _NUMERICAL as exc:
            _fail(EXIT_NUMERICAL, str(exc))
        except CencovNcpError as exc:
            _fail(EXIT_VALIDATION, str(exc))
        except BrokenPipeError:
            raise  # a closed stdout: click exits 1 quietly
        except OSError as exc:
            _fail(EXIT_SCHEMA, str(exc))
        if sys.stdout is None:  # stdout closed as a descriptor: click.echo wrote nothing
            sys.exit(1)
        return result


def _emit(ctx, data: dict) -> None:
    if ctx.obj["json"]:
        # a non-finite number is written as null, so that the line is JSON (RFC 8259)
        data = json.loads(json.dumps(data), parse_constant=lambda _: None)
        click.echo(json.dumps(data, sort_keys=True, allow_nan=False))
    else:
        for key in sorted(data):
            click.echo(f"{key}: {data[key]}")


def _save(ctx, data: dict, out, save, obj, *groupoids) -> None:
    """With ``-o``, write ``obj`` to ``out`` referencing its groupoids' files."""
    if out:
        save(obj, out, *(fileio.groupoid_ref(G, out, ctx.obj["loaded"]) for G in groupoids))
        data["out"] = out


def _finite(ctx, param, value):
    """Option callback: a finite ``--tol`` >= 0, or a finite ``--h`` > 0."""
    strict = param.name == "hstep"
    if not np.isfinite(value) or value < 0 or (strict and value == 0):
        raise click.BadParameter(f"must be finite and {'>' if strict else '>='} 0")
    return value


@click.group(cls=_Main)
@click.option("--tol", type=float, default=numkit.TOL, show_default=True, callback=_finite,
              help="Validation tolerance.")
@click.option("--h", "hstep", type=float, default=numkit.DEFAULT_H, show_default=True,
              callback=_finite, help="Finite-difference step for model derivatives.")
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
    kind, obj = fileio.load_file(file, ctx.obj["loaded"], tol=tol)
    data = {"file": file, "kind": kind}

    if kind == "groupoid":
        data.update(outcomes=len(obj.outcomes), elements=len(obj.elements), passed=True)
    elif kind == "state":
        G, phi = obj
        report = check_state(phi, G, tol=tol)
        data.update(
            passed=report.passed,
            normalization_deficit=report.normalization_deficit,
            symmetry_deficit=report.symmetry_deficit,
            min_fiber_eigenvalue=min(report.fiber_min_eigenvalue.values()),
        )
    elif kind == "kernel":
        report = validate_kernel(obj, tol=tol)
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
        data.update(passed=dev <= tol, completeness_deficit=dev, operators=len(obj))
    elif kind == "model":
        model, grid = obj
        for s in [model.s0, *grid]:
            model.at(s)
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
    Pi = compose_kernels(fileio.load_kernel(k1, loaded), fileio.load_kernel(k2, loaded))
    report = validate_kernel(Pi, tol=ctx.obj["tol"])
    data = {
        "passed": report.passed,
        "normalization_deficit": report.normalization_deficit,
        "hermiticity_deficit": report.hermiticity_deficit,
    }
    _save(ctx, data, out, fileio.save_kernel, Pi, Pi.g1, Pi.g2)
    _emit(ctx, data)


def _pushed(ctx, state, kernels):
    """The state of the file ``state`` pushed through each kernel file in
    turn, and the record of each push; a push that is no state raises."""
    loaded, tol = ctx.obj["loaded"], ctx.obj["tol"]
    rho, records = fileio.load_state(state, loaded, tol=tol), []
    for kp in kernels:
        rho, report = push_state_report(rho, fileio.load_kernel(kp, loaded), tol=tol)
        records.append({
            "normalization_deficit": report.normalization_deficit,
            "min_fiber_eigenvalue": min(report.fiber_min_eigenvalue.values()),
        })
    return rho, records


@main.command()
@click.argument("state", type=click.Path())
@click.argument("kernel", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def push(ctx, state, kernel, out):
    """Push a state forward through a kernel."""
    pushed, [record] = _pushed(ctx, state, [kernel])
    data = {"passed": True, **record}
    _save(ctx, data, out, fileio.save_state, pushed, pushed.groupoid)
    _emit(ctx, data)


@main.command()
@click.argument("kernel", type=click.Path())
@click.argument("observable", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def pull(ctx, kernel, observable, out):
    """Pull an observable back through a kernel."""
    loaded = ctx.obj["loaded"]
    pulled = pull_observable(fileio.load_kernel(kernel, loaded),
                             fileio.load_algebra_element(observable, loaded))
    data = {"support": int(np.count_nonzero(pulled.coeff))}
    _save(ctx, data, out, fileio.save_algebra_element, pulled, pulled.groupoid)
    _emit(ctx, data)


@main.command()
@click.argument("config", type=click.Path())
@click.option("-o", "--out", type=click.Path(), default=None)
@click.pass_context
def pipeline(ctx, config, out):
    """Run an ordered kernel pipeline on an initial state.

    Config file: {"fmt": ..., "initial_state": path, "kernels": [paths]}.
    """
    state_path, kernel_paths = fileio.load_pipeline(config)
    rho, records = _pushed(ctx, state_path, kernel_paths)
    stages = [{"kernel": str(kp), **r} for kp, r in zip(kernel_paths, records)]
    data = {"stages": stages, "passed": True}
    _save(ctx, data, out, fileio.save_state, rho, rho.groupoid)
    _emit(ctx, data)


@main.command()
@click.argument("state", type=click.Path())
@click.pass_context
def gns(ctx, state):
    """Report the GNS dimension, ideal dimension, and Gram spectrum."""
    from .gns import build_gns

    rho = fileio.load_state(state, ctx.obj["loaded"], tol=ctx.obj["tol"])
    S = build_gns(rho, ctx.obj["tol"])
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
    from .estimation import classical_fisher_rao, fisher_metric
    from .gns import build_gns

    M, _ = fileio.load_model(model, ctx.obj["loaded"], tol=ctx.obj["tol"])
    S = build_gns(M.at(M.s0), ctx.obj["tol"])
    gf = fisher_metric(M, S, h=ctx.obj["h"])
    data = {"fisher": gf}
    if len(M.groupoid.elements) == len(M.groupoid.outcomes):
        classical = classical_fisher_rao(M, h=ctx.obj["h"])
        data["classical_fisher"] = classical
        data["agreement_deficit"] = abs(gf - classical)
    _emit(ctx, data)


@main.command()
@click.argument("model", type=click.Path())
@click.option("--estimator", type=click.Path(), default=None)
@click.pass_context
def crb(ctx, model, estimator):
    """Cramer-Rao bound; audit a self-adjoint estimator when given."""
    from .estimation import Estimator, cramer_rao_audit, cramer_rao_bound
    from .gns import build_gns

    M, _ = fileio.load_model(model, ctx.obj["loaded"], tol=ctx.obj["tol"])
    S = build_gns(M.at(M.s0), ctx.obj["tol"])
    bound = cramer_rao_bound(M, S, h=ctx.obj["h"])
    data = {"bound": bound}
    if estimator:
        a = fileio.load_algebra_element(estimator, ctx.obj["loaded"])
        audit = cramer_rao_audit(M, Estimator(a), bound)
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
    Pi = fileio.load_kernel(kernel, ctx.obj["loaded"])
    is_cp, min_eig = cp_verdict(Pi, ctx.obj["tol"])
    _emit(ctx, {"is_cp": is_cp, "min_choi_eigenvalue": min_eig})


if __name__ == "__main__":
    main()
