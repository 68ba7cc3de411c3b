"""Command-line surface for validating, transforming, and reporting on
groupoids, states, kernels, and statistical models.

Exit codes: 0 success, 1 validation failure, 2 usage, I/O or schema error,
3 numerical failure.  Commands call the library directly; :func:`main` maps a
library error or OSError to its exit code, once, and prints
``error: <message>``.  A closed stdout exits 1 with nothing on stderr; an
``-o`` file whose reader has gone exits 2, as any other OSError.

:func:`_parse` reads the command line in two stages, each in one scan: the
options before the command, then the command's.  The help (:func:`_help`)
and a usage error (:func:`_usage_error`, exit 2) keep click's layout:
``Usage: ...``, ``Try '... --help' for help.``, a blank line, ``Error: ...``.
"""
from __future__ import annotations

import gc
import json
import os
import sys

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
EXIT_USAGE = 2

_NUMERICAL = (NoConvergence, FoliumViolation, ZeroInformation)

_DESCRIPTION = "Finite groupoid algebras, states, kernels, and Cramer-Rao reports."
# options as (flags, metavar, help); an option with no metavar is a flag
_HELP = (("--help",), None, "Show this message and exit.")
_OPTIONS = [
    (("--tol",), "FLOAT", f"Validation tolerance.  [default: {numkit.TOL}]"),
    (("--h",), "FLOAT",
     f"Finite-difference step for model derivatives.  [default: {numkit.DEFAULT_H}]"),
    (("--json",), None, "Machine-readable output."),
    _HELP,
]
_OUT = (("-o", "--out"), "PATH", "")
_ESTIMATOR = (("--estimator",), "PATH", "")
_COMMANDS = {}  # name: (function, positional arguments, options)
_frozen = False  # set by the first main call; gc.get_freeze_count() walks what is frozen


def _echo(text: str, stream=None) -> None:
    """Write ``text`` to ``stream`` (default stdout) and flush it; a stream
    that is closed as a descriptor (None) takes nothing."""
    stream = sys.stdout if stream is None else stream
    if stream is not None:
        stream.write(text)
        stream.flush()


def _fail(code: int, message: str) -> None:
    _echo(f"error: {message}\n", sys.stderr)
    sys.exit(code)


def _usage_error(message: str, usage: str | None = None) -> None:
    """Exit 2 with the error on stderr, after the usage and how to get help."""
    head = "" if usage is None else (  # the program, or it and the command, before " [OPTIONS]"
        f"Usage: {usage}\nTry '{usage.rpartition(' [OPTIONS]')[0]} --help' for help.\n\n")
    _echo(f"{head}Error: {message}\n", sys.stderr)
    sys.exit(EXIT_USAGE)


def _did_you_mean(name: str, choices) -> str:
    from difflib import get_close_matches

    found = sorted(get_close_matches(name, choices))
    quoted = ", ".join(map(repr, found))
    if len(found) > 1:
        return f" (Did you mean one of: {quoted}?)"
    return f" Did you mean {quoted}?" if found else ""


def _help(usage: str, doc: str | None, options, commands=()) -> str:
    """The help in click's layout: usage, ``doc``, option rows, command rows."""
    lines = [line.strip() for line in (doc or "").strip().splitlines()]
    text = f"Usage: {usage}\n" + ("\n" if lines else "")
    text += "".join(f"  {x}\n" if x else "\n" for x in lines)
    options = [(", ".join(flags) + (f" {metavar}" if metavar else ""), help_)
               for flags, metavar, help_ in options]
    for title, rows in (("Options", options), ("Commands", commands)):
        if rows:
            width = max(len(first) for first, _ in rows) + 2
            text += f"\n{title}:\n" + "".join(f"  {first:<{width}}{second}".rstrip() + "\n"
                                               for first, second in rows)
    return text


def _parse(args: list[str], options, usage: str, help_text: str, stop: bool):
    """The ``options`` given in ``args``, by name, and the other arguments in
    order; with ``stop`` (the top level) the scan ends at the first of these.
    After ``--`` no argument is an option; ``--help`` is the only help flag,
    and no option is abbreviated.  As under click, an option's value is the
    next argument, whatever it is (``--h -1``, ``-o --``), or is attached
    (``--out=x``, ``-ox``; ``-o=x`` gives ``=x``).  A missing value, or a
    value given to a flag, fails at once; an unknown option once the stage is
    read, and only then does ``--help`` print ``help_text``."""
    names = {flag: flags[-1][2:] for flags, _, _ in options for flag in flags}
    valued = {flag for flags, metavar, _ in options if metavar for flag in flags}
    given, words, unknown, rest = {}, [], None, iter(args)
    for arg in rest:
        if arg == "--":
            break
        flag, eq, value = arg.partition("=")
        if arg in valued:
            if (value := next(rest, None)) is None:
                _usage_error(f"Option {arg!r} requires an argument.")
            given[names[arg]] = value
        elif arg[:2] in valued:  # ``-ox``: the rest is the value, '=' included
            given[names[arg[:2]]] = arg[2:]
        elif eq and flag in names:
            if flag not in valued:
                _usage_error(f"Option {flag!r} does not take a value.")
            given[names[flag]] = value
        elif arg in names:
            given[names[arg]] = True
        elif arg[:1] == "-" and arg != "-":  # of a short option, only its letter
            unknown = unknown or (flag if arg[:2] == "--" else arg[:2])
        else:
            words.append(arg)
            if stop:
                break
    if unknown:  # a long option is named with the known ones close to it
        long = [flag for flag in names if flag[:2] == "--"]
        hint = _did_you_mean(unknown, long) if unknown[:2] == "--" else ""
        _usage_error(f"No such option {unknown!r}.{hint}", usage)
    if given.pop("help", False):
        _echo(help_text)
        sys.exit(0)
    return given, words + list(rest)


def _command(*arguments: str, options=()):
    """Register the decorated function as the command of its name, with its
    positional ``arguments`` and its ``options``."""
    def register(fn):
        _COMMANDS[fn.__name__] = (fn, arguments, [*options, _HELP])
        return fn
    return register


def _finite(usage: str, option: str, value, strict: bool = False) -> float:
    """A finite ``--tol`` >= 0, or a finite ``--h`` > 0."""
    try:
        value = float(value)
    except ValueError:
        _usage_error(f"Invalid value for {option!r}: {value!r} is not a valid float.", usage)
    if not np.isfinite(value) or value < 0 or (strict and value == 0):
        _usage_error(f"Invalid value for {option!r}: must be finite and "
                     f"{'>' if strict else '>='} 0", usage)
    return value


def _prog_name() -> str:
    """The program's name as click gave it: the script's file name, or
    ``python -m <module>`` for a module run with ``-m``."""
    package = getattr(sys.modules["__main__"], "__package__", None)
    if not package:
        return os.path.basename(sys.argv[0])
    name = os.path.splitext(os.path.basename(sys.argv[0]))[0]
    return f"python -m {package if name == '__main__' else f'{package}.{name}'}"


def _run(args: list[str], prog: str) -> None:
    # a command's first docstring line is its summary (none under python -OO)
    commands = sorted((name, (fn.__doc__ or "").strip().split("\n")[0])
                      for name, (fn, _, _) in _COMMANDS.items())
    usage = f"{prog} [OPTIONS] COMMAND [ARGS]..."
    help_text = _help(usage, _DESCRIPTION, _OPTIONS, commands)
    if not args:  # the help, as a usage error
        _echo(help_text, sys.stderr)
        sys.exit(EXIT_USAGE)
    given, words = _parse(args, _OPTIONS, usage, help_text, stop=True)
    ctx = {"tol": _finite(usage, "--tol", given.get("tol", numkit.TOL)),
           "h": _finite(usage, "--h", given.get("h", numkit.DEFAULT_H), strict=True),
           "json": given.get("json", False), "loaded": {}}
    if not words:
        _usage_error("Missing command.", usage)
    name, *rest = words
    if name not in _COMMANDS:
        _usage_error(f"No such command {name!r}.{_did_you_mean(name, _COMMANDS)}", usage)
    fn, arguments, options = _COMMANDS[name]
    metavars = [a.upper() for a in arguments]
    usage = f"{prog} {name} [OPTIONS] {' '.join(metavars)}"
    given, words = _parse(rest, options, usage, _help(usage, fn.__doc__, options), stop=False)
    if len(words) < len(arguments):
        _usage_error(f"Missing argument {metavars[len(words)]!r}.", usage)
    if len(words) > len(arguments):
        extra = words[len(arguments):]
        s = "s" if len(extra) > 1 else ""
        _usage_error(f"Got unexpected extra argument{s} ({' '.join(extra)})", usage)
    fn(ctx, *words, **given)


def main(args: list[str] | None = None, prog_name: str | None = None) -> None:
    """Run the command line ``args`` (default ``sys.argv[1:]``) and exit:
    always by raising :class:`SystemExit` with the exit code.

    The first call in a process freezes what is alive (``gc.freeze``): the
    interpreter, numpy and the library outlive the command, so no collection
    walks them again, those at exit included.  Cyclic garbage alive at that
    call stays until ``gc.unfreeze()``."""
    global _frozen
    if not _frozen:
        gc.freeze()
        _frozen = True
    try:
        _run(sys.argv[1:] if args is None else list(args), prog_name or _prog_name())
    except SchemaError as exc:
        _fail(EXIT_SCHEMA, str(exc))
    except _NUMERICAL as exc:
        _fail(EXIT_NUMERICAL, str(exc))
    except CencovNcpError as exc:
        _fail(EXIT_VALIDATION, str(exc))
    except BrokenPipeError as exc:
        if exc.filename is not None:  # an -o file's reader left, not stdout's
            _fail(EXIT_SCHEMA, str(exc))
        # a closed stdout: exit 1 quietly, with stdout on devnull so that
        # the interpreter's flush at exit cannot fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        sys.exit(1)
    except OSError as exc:
        _fail(EXIT_SCHEMA, str(exc))
    except KeyboardInterrupt:
        _echo("Aborted!\n", sys.stderr)
        sys.exit(1)
    # with stdout closed as a descriptor, the result could not be written
    sys.exit(0 if sys.stdout is not None else 1)


def _emit(ctx, data: dict) -> None:
    if ctx["json"]:
        # a non-finite number is written as null, so that the line is JSON (RFC 8259)
        data = json.loads(json.dumps(data), parse_constant=lambda _: None)
        _echo(json.dumps(data, sort_keys=True, allow_nan=False) + "\n")
    else:
        _echo("".join(f"{key}: {data[key]}\n" for key in sorted(data)))


def _save(ctx, data: dict, out, save, obj, *groupoids) -> None:
    """With ``-o``, write ``obj`` to ``out`` referencing its groupoids' files."""
    if out:
        save(obj, out, *(fileio.groupoid_ref(G, out, ctx["loaded"]) for G in groupoids))
        data["out"] = out


@_command("file")
def validate(ctx, file):
    """Validate a groupoid, state, kernel, or model file."""
    tol = ctx["tol"]
    kind, obj = fileio.load_file(file, ctx["loaded"], tol=tol)
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
        data.update(passed=numkit.within(dev, tol), completeness_deficit=dev, operators=len(obj))
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


@_command("k1", "k2", options=[_OUT])
def compose(ctx, k1, k2, out=None):
    """Compose two kernel files (first applied first)."""
    loaded = ctx["loaded"]
    Pi = compose_kernels(fileio.load_kernel(k1, loaded), fileio.load_kernel(k2, loaded))
    report = validate_kernel(Pi, tol=ctx["tol"])
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
    loaded, tol = ctx["loaded"], ctx["tol"]
    rho, records = fileio.load_state(state, loaded, tol=tol), []
    for kp in kernels:
        rho, report = push_state_report(rho, fileio.load_kernel(kp, loaded), tol=tol)
        records.append({
            "normalization_deficit": report.normalization_deficit,
            "min_fiber_eigenvalue": min(report.fiber_min_eigenvalue.values()),
        })
    return rho, records


@_command("state", "kernel", options=[_OUT])
def push(ctx, state, kernel, out=None):
    """Push a state forward through a kernel."""
    pushed, [record] = _pushed(ctx, state, [kernel])
    data = {"passed": True, **record}
    _save(ctx, data, out, fileio.save_state, pushed, pushed.groupoid)
    _emit(ctx, data)


@_command("kernel", "observable", options=[_OUT])
def pull(ctx, kernel, observable, out=None):
    """Pull an observable back through a kernel."""
    loaded = ctx["loaded"]
    pulled = pull_observable(fileio.load_kernel(kernel, loaded),
                             fileio.load_algebra_element(observable, loaded))
    data = {"support": int(np.count_nonzero(pulled.coeff))}
    _save(ctx, data, out, fileio.save_algebra_element, pulled, pulled.groupoid)
    _emit(ctx, data)


@_command("config", options=[_OUT])
def pipeline(ctx, config, out=None):
    """Run an ordered kernel pipeline on an initial state.

    Config file: {"fmt": ..., "initial_state": path, "kernels": [paths]}.
    """
    state_path, kernel_paths = fileio.load_pipeline(config)
    rho, records = _pushed(ctx, state_path, kernel_paths)
    stages = [{"kernel": str(kp), **r} for kp, r in zip(kernel_paths, records)]
    data = {"stages": stages, "passed": True}
    _save(ctx, data, out, fileio.save_state, rho, rho.groupoid)
    _emit(ctx, data)


@_command("state")
def gns(ctx, state):
    """Report the GNS dimension, ideal dimension, and Gram spectrum."""
    from .gns import build_gns

    rho = fileio.load_state(state, ctx["loaded"], tol=ctx["tol"])
    S = build_gns(rho, ctx["tol"])
    _emit(ctx, {
        "dim": S.dim,
        "ideal_dim": int(len(S.groupoid.elements) - S.dim),
        "gram_spectrum": [float(w) for w in S.gram_eigenvalues],
    })


@_command("model")
def fisher(ctx, model):
    """Fisher metric of a model; classical value when applicable."""
    from .estimation import classical_fisher_rao, fisher_metric
    from .gns import build_gns

    M, _ = fileio.load_model(model, ctx["loaded"], tol=ctx["tol"])
    S = build_gns(M.at(M.s0), ctx["tol"])
    gf = fisher_metric(M, S, h=ctx["h"])
    data = {"fisher": gf}
    if len(M.groupoid.elements) == len(M.groupoid.outcomes):
        classical = classical_fisher_rao(M, h=ctx["h"])
        data["classical_fisher"] = classical
        data["agreement_deficit"] = abs(gf - classical)
    _emit(ctx, data)


@_command("model", options=[_ESTIMATOR])
def crb(ctx, model, estimator=None):
    """Cramer-Rao bound; audit a self-adjoint estimator when given."""
    from .estimation import Estimator, cramer_rao_audit, cramer_rao_bound
    from .gns import build_gns

    M, _ = fileio.load_model(model, ctx["loaded"], tol=ctx["tol"])
    S = build_gns(M.at(M.s0), ctx["tol"])
    bound = cramer_rao_bound(M, S, h=ctx["h"])
    data = {"bound": bound}
    if estimator:
        a = fileio.load_algebra_element(estimator, ctx["loaded"])
        audit = cramer_rao_audit(M, Estimator(a), bound)
        data.update(
            second_moment=audit.second_moment,
            slack=audit.slack,
            saturated=audit.saturated,
        )
    _emit(ctx, data)


@_command("kernel")
def cp(ctx, kernel):
    """Choi complete-positivity verdict for a pair-groupoid kernel."""
    Pi = fileio.load_kernel(kernel, ctx["loaded"])
    is_cp, min_eig = cp_verdict(Pi, ctx["tol"])
    _emit(ctx, {"is_cp": is_cp, "min_choi_eigenvalue": min_eig})


if __name__ == "__main__":
    main()
