"""Command-line front end.

Subcommands: exponent, spectrum fit|solve, density, levy-measure,
evolve, propagator, loop, simulate, reproduce-tables.  Every run goes
through ``emit``, which writes its results atomically (temp file +
rename) together with a JSON provenance record.  The record's parameters
are every parsed argument plus the values resolved from them (a preset's
mass and coefficients, the density grid, the loop cutoffs), so a new
flag is recorded without further code.  Numbers in CSV carry 17
significant digits so files diff exactly at double precision, and
tables are written CSV_BLOCK values at a time.  One numpy kernel,
``csvformat.format_rows``, writes the bytes of ``"%.17g" % v`` from
Dekker's exact product of |v| with a double-double power of ten; the few
values it cannot certify (nan, inf, near ties) are formatted one by one
with ``%``.
Commands with a cutoff source (--preset, --lambdas with --mass, or
--masses) solve its spectrum once, in ``_cutoff_from_args``, and pass
that one ``SpectrumSolution`` to the library; its base mass and
coefficients are the run's.  ``main`` builds its parser once per
process and looks each handler up by name when it runs.

Exit codes: 0 success, 2 domain errors, 3 degenerate spectrum, 4 I/O.
"""

from __future__ import annotations

import argparse
import dataclasses
import datetime
import functools
import json
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np

from . import __version__, csvformat
from .densities import (GridSpec, default_grid, levy_density_1d,
                        levy_density_3d, moments, transition_density)
from .evolution import (evolve_modified, evolve_spectral, gaussian_packet,
                        observables)
from .exponents import (ExponentParams, LogCharacteristic,
                        eta_modified_branch, eta_relativistic)
from .presets import PRESET_MASSES, PRESET_NAMES, REFERENCE_LAMBDAS
from .propagators import (LOOP_VARIANTS, find_poles, kg_propagator,
                          loop_integral)
from .sampler import SeededGenerator, ks_validate, sample_endpoints, sample_paths
from .spectrum import (CutoffPolynomial, MassTriple, SpectrumSolution,
                       fit_masses, masses_from_lambdas)

OUTPUT_DIR_ENV = "LEVYQM_OUTPUT_DIR"

EXIT_OK = 0
EXIT_DOMAIN = 2
EXIT_DEGENERATE = 3
EXIT_IO = 4

# values of a CSV formatted and written at once, in whole rows (at least
# one): write_csv's working memory is a few hundred bytes per value of this
# many, whatever the table's length.  Of 512 to 4096, 1024 formatted the
# README tables fastest: larger blocks' temporaries come from fresh pages.
CSV_BLOCK = 1024

# namespace entries that route the run rather than parameterize it
_NOT_PARAMETERS = ("func", "output", "command", "spectrum_command")


# ---------------------------------------------------------------------------
# output helpers
# ---------------------------------------------------------------------------

def _atomic_write(path: Path, chunks) -> None:
    """Write the bytes of ``chunks`` into a temp file beside ``path``,
    then rename it over ``path``: a failure at any chunk leaves no file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: Path, header, columns) -> None:
    """Header line, then one line per row of ``%.17g`` values.

    ``csvformat.format_rows`` formats the rows about CSV_BLOCK values at
    a time, and each block is written before the next is made, so the
    working memory beyond the columns is a block's, whatever the table's
    length.  The bytes are those of ``"%.17g" % float(v)`` for each value,
    nan/inf/-0 included: the numpy kernel writes every value it can
    certify and ``%`` the others.  Columns of unequal length, or not of
    real numbers (complex, text, objects), raise before any file is made.
    """
    columns = [np.asarray(col) for col in columns]
    lengths = {len(col) for col in columns}
    if len(lengths) != 1:
        raise ValueError(f"columns must share one length, got {sorted(lengths)}")
    kinds = sorted({col.dtype.kind for col in columns} - set("biuf"))
    if kinds:
        raise TypeError(f"CSV columns must hold real numbers, got dtype "
                        f"kinds {kinds}")
    (n_rows,) = lengths
    rows = max(1, CSV_BLOCK // len(columns))

    def chunks():
        yield (",".join(header) + "\n").encode()
        for start in range(0, n_rows, rows):
            block = np.column_stack([col[start:start + rows]
                                     for col in columns])
            yield csvformat.format_rows(block.astype(np.float64,
                                                     copy=False))

    _atomic_write(path, chunks())


def write_json(path: Path, payload: dict) -> None:
    _atomic_write(path, [(json.dumps(payload, indent=2, sort_keys=True)
                          + "\n").encode()])


def _subcommand(args) -> str:
    return f"{args.command} {getattr(args, 'spectrum_command', '')}".strip()


def _output_path(args, suffix: str) -> Path:
    """-o, else the output directory plus a name from the subcommand."""
    if args.output:
        return Path(args.output)
    name = _subcommand(args).replace(" ", "_").replace("-", "_") + suffix
    return Path(os.environ.get(OUTPUT_DIR_ENV, ".")) / name


def emit(args, record: dict, columns: dict | None = None,
         resolved: dict | None = None) -> Path:
    """Write one run's results and provenance; return the output path.

    With ``columns`` (header -> values) the CSV goes to the output path
    and ``record`` to a ``.meta.json`` beside it; without, ``record`` is
    the JSON output itself.  The provenance parameters are every parsed
    argument, overlaid with the values the command ``resolved`` from them.
    """
    params = {k: v for k, v in vars(args).items() if k not in _NOT_PARAMETERS}
    params.update(resolved or {})
    payload = {**record, "provenance": {
        "tool": "levyqm",
        "version": __version__,
        "subcommand": _subcommand(args),
        "parameters": params,
        "seed": params.get("seed"),
        "created_utc": datetime.datetime.now(datetime.timezone.utc).isoformat(),
    }}
    out = _output_path(args, ".csv" if columns else ".json")
    if columns:
        write_csv(out, list(columns), list(columns.values()))
        write_json(out.with_suffix(out.suffix + ".meta.json"), payload)
    else:
        write_json(out, payload)
    return out


def _parse_floats(text: str, n=None):
    vals = [float(v) for v in text.split(",") if v.strip()]
    if n is not None and len(vals) != n:
        raise ValueError(f"expected {n} comma-separated values, got {len(vals)}")
    return vals


def _positive_int(text: str) -> int:
    """argparse type of counts that must be at least 1."""
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    """argparse type of counts that may be 0."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {value}")
    return value


def _target_masses(args):
    """The target masses of --preset or --masses; None when --lambdas
    sets the spectrum."""
    if args.preset:
        return PRESET_MASSES[args.preset]
    if args.masses and not args.lambdas:
        return _parse_floats(args.masses, 3)
    return None


def _cutoff_from_args(args) -> SpectrumSolution:
    """The run's one spectrum, from --preset, --lambdas/--mass or --masses.

    Target masses go through fit_masses, so every command sees repeated
    masses as the degenerate spectrum that `spectrum fit` reports.
    """
    targets = _target_masses(args)
    if targets is not None:
        base = "lightest" if args.preset else args.base
        return fit_masses(MassTriple.from_values(targets), base=base)
    if not args.lambdas:
        raise ValueError("supply --preset, --lambdas or --masses")
    if args.mass is None:
        raise ValueError("--lambdas requires --mass")
    c = CutoffPolynomial(*_parse_floats(args.lambdas, 3))
    return masses_from_lambdas(c, args.mass)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_exponent(args) -> int:
    params = ExponentParams.from_mass(args.mass)
    u = np.linspace(0.0, args.u_max, args.points)
    if args.root_x is not None:
        eta = eta_modified_branch(u, params, args.root_x)
    else:
        eta = eta_relativistic(u, params)
    out = emit(args, {"summary": {"eta_min": float(np.min(eta))}},
               {"u": u, "eta": eta})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_spectrum_fit(args) -> int:
    masses = MassTriple.from_values(_parse_floats(args.masses, 3))
    solution = fit_masses(masses, base=args.base)
    record = solution.to_dict()
    emit(args, record, resolved={"masses": list(masses.as_tuple())})
    print(json.dumps({"lambdas": record["lambdas"],
                      "degenerate": solution.degenerate}))
    if solution.degenerate:
        print("degenerate spectrum: multiple root, residues undefined",
              file=sys.stderr)
        return EXIT_DEGENERATE
    return EXIT_OK


def cmd_spectrum_solve(args) -> int:
    c = CutoffPolynomial(*_parse_floats(args.lambdas, 3))
    solution = masses_from_lambdas(c, args.mass)
    record = solution.to_dict()
    emit(args, record, resolved={"lambdas": record["lambdas"]})
    print(json.dumps({"roots": record["roots"], "masses": record["masses"],
                      "degenerate": solution.degenerate}))
    return EXIT_DEGENERATE if solution.degenerate else EXIT_OK


def cmd_density(args) -> int:
    params = ExponentParams.from_mass(args.mass)
    eta = LogCharacteristic.relativistic(params)
    if args.dx is not None:
        grid = GridSpec(n=args.n, dx=args.dx)
    else:
        grid = default_grid(params, args.dt, n=args.n)
    table = transition_density(args.dt, params, eta, grid)
    out = emit(args, {
        "grid": {"n": grid.n, "dx": grid.dx, "du": grid.du, "u_max": grid.u_max},
        "diagnostics": {"clipped_mass": table.clipped_mass},
        "summary": {"normalization": table.normalization(),
                    "variance": moments(table, 2)},
    }, {"x": grid.x_centers(), "value": table.values},
        resolved={"n": grid.n, "dx": grid.dx})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_levy_measure(args) -> int:
    params = ExponentParams.from_mass(args.mass)
    if args.log_spacing:
        x = np.geomspace(args.x_min, args.x_max, args.points)
    else:
        x = np.linspace(args.x_min, args.x_max, args.points)
    if args.dim == 1:
        values = levy_density_1d(x, params)
    else:
        values = levy_density_3d(x, params)
    out = emit(args, {"summary": {"value_at_first": float(values[0]),
                                  "value_at_last": float(values[-1])}},
               {"x": x, "value": values})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_evolve(args) -> int:
    if not (math.isfinite(args.dt) and args.dt > 0.0):
        raise ValueError(f"--dt must be finite and positive, got {args.dt!r}")
    params = ExponentParams.from_mass(args.mass)
    grid = GridSpec(n=args.n, dx=args.dx)
    psi = gaussian_packet(args.x0, args.p0, args.sigma, grid)

    if args.branch is not None:
        spectrum = _cutoff_from_args(args)
        n_roots = len(spectrum.roots)
        if not 0 <= args.branch < n_roots:
            raise ValueError(f"--branch {args.branch} is not a branch of this "
                             f"spectrum: valid branches are 0 to {n_roots - 1}")
        stepper = lambda w: evolve_modified(w, args.dt, spectrum, args.branch)
    else:
        eta = LogCharacteristic.relativistic(params)
        stepper = lambda w: evolve_spectral(w, args.dt, eta, params.tau)

    rows = []
    snapshots = []
    out = _output_path(args, ".csv")
    for step in range(args.steps + 1):
        # the next step first: a step that raises leaves no snapshot behind
        following = stepper(psi) if step < args.steps else None
        obs = observables(psi)
        rows.append((step * args.dt, obs.norm, obs.centroid, obs.variance,
                     obs.momentum_centroid))
        if args.snapshot_every and step % args.snapshot_every == 0:
            snap = out.with_name(f"{out.stem}_psi_{step:05d}.csv")
            write_csv(snap, ["x", "re_psi", "im_psi"],
                      [grid.x_centers(), psi.values.real, psi.values.imag])
            snapshots.append(str(snap))
        psi = following

    header = ("t", "norm", "centroid", "variance", "momentum_centroid")
    emit(args, {
        "snapshots": snapshots,
        "summary": {"final_norm": rows[-1][1], "final_centroid": rows[-1][2],
                    "final_variance": rows[-1][3]},
    }, dict(zip(header, zip(*rows))))
    print(f"wrote {out}")
    return EXIT_OK


def cmd_propagator(args) -> int:
    solution = _cutoff_from_args(args)
    mass, c = solution.base_mass, solution.coefficients
    eps = args.eps if args.eps is not None else 1e-9 * mass ** 2
    p2 = np.linspace(args.p2_min, args.p2_max, args.points)
    values = kg_propagator(p2, mass, c, eps)
    fits = find_poles(solution)
    out = emit(args, {
        "poles": solution.to_dict(),
        "pole_fits": [dataclasses.asdict(f) for f in fits],
        "summary": {"max_abs": float(np.max(np.abs(values)))},
    }, {"p2": p2, "re": values.real, "im": values.imag, "abs": np.abs(values)},
        resolved={"mass": mass, "lambdas": list(c.as_tuple()), "eps": eps})
    print(f"wrote {out}")
    return EXIT_DEGENERATE if solution.degenerate else EXIT_OK


def cmd_loop(args) -> int:
    solution = _cutoff_from_args(args)
    mass, c = solution.base_mass, solution.coefficients
    pe = args.pe if args.pe is not None else mass
    if args.cutoffs:
        cutoffs = np.asarray(_parse_floats(args.cutoffs))
    else:
        # the targets when given, so that preset cutoffs read 177, 354, ...
        # and not the solved masses' last-ulp round trip
        heaviest = _target_masses(args) or [m for m in solution.masses
                                             if not math.isnan(m)]
        top = max([mass, *heaviest])
        cutoffs = 100.0 * top * 2.0 ** np.arange(0, args.octaves + 1)
    if args.variant == "all":
        variants = LOOP_VARIANTS
    else:
        variants = (f"unmodified-{args.variant}", f"modified-{args.variant}")
    result = loop_integral(pe, solution, cutoffs, variants=variants)
    out = emit(args, {"tail_fits": {v: dataclasses.asdict(result.tail_fits[v])
                                    for v in variants},
                      "diagnostics": {"abserr": result.abserr}},
               {"cutoff": result.cutoffs,
                **{v.replace("-", "_"): result.values[v] for v in variants}},
               resolved={"mass": mass, "lambdas": list(c.as_tuple()), "pe": pe,
                         "cutoffs": result.cutoffs.tolist()})
    print(f"wrote {out}")
    return EXIT_OK


def cmd_simulate(args) -> int:
    params = ExponentParams.from_mass(args.mass)
    gen = SeededGenerator(seed=args.seed, stream=args.stream)
    endpoints = sample_endpoints(args.t, params, gen, args.paths,
                                 steps=args.steps)
    eta = LogCharacteristic.relativistic(params)
    grid = default_grid(params, args.t)
    reference = transition_density(args.t, params, eta, grid)
    report = ks_validate(endpoints, reference)

    # written only once the validation has run, so an exit 2 leaves no file
    paths_file = None
    if args.full_paths:
        positions = sample_paths(
            args.t, args.steps, params,
            SeededGenerator(seed=args.seed, stream=args.stream + 1),
            args.full_paths)
        times = np.linspace(0.0, args.t, args.steps + 1)
        out = _output_path(args, ".csv")
        paths_file = out.with_name(out.stem + "_paths.csv")
        write_csv(paths_file, ["path", "t", "x"],
                  [np.repeat(np.arange(args.full_paths), args.steps + 1),
                   np.tile(times, args.full_paths), positions.ravel()])

    variance = float(endpoints.var())
    law_variance = moments(reference, 2)

    emit(args, {
        "validation": {**report.to_dict(), "seed": args.seed},
        "paths_file": str(paths_file) if paths_file else None,
        "summary": {"mean": float(endpoints.mean()), "variance": variance,
                    "law_variance": law_variance,
                    "kurtosis": float(np.mean(endpoints ** 4)) / variance ** 2,
                    "law_kurtosis": moments(reference, 4) / law_variance ** 2},
    }, {"endpoint": endpoints})
    print(json.dumps({"n": report.n, "d": report.d,
                      "threshold": report.threshold, "pass": report.passed}))
    return EXIT_OK


def cmd_reproduce_tables(args) -> int:
    rows = []
    for name in PRESET_NAMES:
        masses = MassTriple.from_values(PRESET_MASSES[name])
        solution = fit_masses(masses)
        c = solution.coefficients
        reference = REFERENCE_LAMBDAS[name]
        rel = [abs(got / ref - 1.0)
               for got, ref in zip(c.as_tuple(), reference)]
        ok = max(rel) < 5e-3
        rows.append({
            "preset": name,
            "masses": list(masses.as_tuple()),
            "lambdas_computed": list(c.as_tuple()),
            "lambdas_reference": list(reference),
            "max_rel_err": max(rel),
            "mass_roundtrip_rel_err": max(
                abs(got / want - 1.0)
                for got, want in zip(solution.masses, masses.as_tuple())),
            "pass": ok,
        })
        print(f"{name}: {'pass' if ok else 'FAIL'} (max rel err {max(rel):.2e})")
    passed = sum(r["pass"] for r in rows)
    out = emit(args, {"rows": rows, "passed": passed, "total": len(rows)})
    print(f"{passed}/{len(rows)} rows pass; wrote {out}")
    return EXIT_OK if passed == len(rows) else 1


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_cutoff_source(p, with_base=True, with_mass=True):
    p.add_argument("--preset", choices=PRESET_NAMES)
    p.add_argument("--lambdas", help="l1,l2,l3")
    p.add_argument("--masses", help="m1,m2,m3 in GeV")
    if with_mass:
        p.add_argument("--mass", type=float, help="base mass in GeV")
    if with_base:
        p.add_argument("--base", default="lightest",
                       help="'lightest' or an explicit base mass in GeV")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="levyqm",
        description="Levy-process relativistic quantum dynamics laboratory")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    # -o is declared once; without it emit() names the output after the
    # subcommand, in LEVYQM_OUTPUT_DIR or the current directory
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("-o", "--output")

    # the handler is recorded by name and looked up when main runs, so a
    # parser built once still calls whatever cmd_* the module holds then
    def command(subparsers, func, name, help):
        p = subparsers.add_parser(name, parents=[output], help=help)
        p.set_defaults(func=func.__name__)
        return p

    p = command(sub, cmd_exponent, "exponent", "tabulate a log-characteristic")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--u-max", type=float, default=10.0)
    p.add_argument("--points", type=_positive_int, default=256)
    p.add_argument("--root-x", type=float, default=None,
                   help="evaluate the branch exponent of this spectrum root")

    p = sub.add_parser("spectrum", help="cutoff-spectrum algebra")
    spectrum_sub = p.add_subparsers(dest="spectrum_command", required=True)
    p = command(spectrum_sub, cmd_spectrum_fit, "fit",
                "coefficients from three masses")
    p.add_argument("--masses", required=True, help="m1,m2,m3 in GeV")
    p.add_argument("--base", default="lightest")
    p = command(spectrum_sub, cmd_spectrum_solve, "solve",
                "spectrum from coefficients")
    p.add_argument("--lambdas", required=True, help="l1,l2,l3")
    p.add_argument("--mass", type=float, required=True)

    p = command(sub, cmd_density, "density",
                "transition density by FFT inversion")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--n", type=int, default=2 ** 14)
    p.add_argument("--dx", type=float, default=None)

    p = command(sub, cmd_levy_measure, "levy-measure", "tabulate a jump kernel")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--dim", type=int, choices=(1, 3), default=1)
    p.add_argument("--x-min", type=float, default=1e-3)
    p.add_argument("--x-max", type=float, default=20.0)
    p.add_argument("--points", type=_positive_int, default=512)
    p.add_argument("--log-spacing", action="store_true")

    p = command(sub, cmd_evolve, "evolve", "spectral wave-packet evolution")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--x0", type=float, default=0.0)
    p.add_argument("--p0", type=float, default=0.0)
    p.add_argument("--sigma", type=float, default=1.0)
    p.add_argument("--dt", type=float, required=True)
    p.add_argument("--steps", type=_nonnegative_int, required=True)
    p.add_argument("--n", type=int, default=2 ** 12)
    p.add_argument("--dx", type=float, default=0.05)
    p.add_argument("--branch", type=int, default=None,
                   help="evolve on this spectrum branch (needs a cutoff source)")
    p.add_argument("--snapshot-every", type=_nonnegative_int, default=0)
    _add_cutoff_source(p, with_base=False, with_mass=False)
    p.set_defaults(base="lightest")

    p = command(sub, cmd_propagator, "propagator",
                "scalar propagator scan and poles")
    _add_cutoff_source(p)
    p.add_argument("--p2-min", type=float, default=0.0)
    p.add_argument("--p2-max", type=float, default=4.0)
    p.add_argument("--points", type=_positive_int, default=2048)
    p.add_argument("--eps", type=float, default=None)

    p = command(sub, cmd_loop, "loop", "cutoff sweep of the self-energy proxy")
    _add_cutoff_source(p)
    p.add_argument("--variant", choices=("scalar", "mass", "all"),
                   default="scalar")
    p.add_argument("--pe", type=float, default=None,
                   help="external Euclidean momentum (default: base mass)")
    p.add_argument("--cutoffs", help="comma-separated cutoff list in GeV")
    p.add_argument("--octaves", type=int, default=8)

    p = command(sub, cmd_simulate, "simulate", "sample the pure-jump process")
    p.add_argument("--mass", type=float, required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--steps", type=int, default=1,
                   help="time steps of the --full-paths grid; the endpoints "
                        "do not depend on it")
    p.add_argument("--paths", type=int, default=10 ** 5)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stream", type=int, default=0)
    p.add_argument("--full-paths", type=_nonnegative_int, default=0,
                   help="also write this many full trajectories")

    command(sub, cmd_reproduce_tables, "reproduce-tables",
            "recompute the bundled coefficient tables")
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser ``main`` uses, built once per process."""
    return build_parser()


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return globals()[args.func](args)
    except (ValueError, TypeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
