import argparse
import csv
import json
import math
import os
import shlex
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import numpy as np
import pytest

import levyqm
from levyqm import cli, csvformat
from levyqm.cli import build_parser, main, write_csv
from levyqm.densities import GridSpec
from levyqm.evolution import gaussian_packet
from levyqm.exponents import ExponentParams, eta_relativistic
from levyqm.presets import PRESET_MASSES, REFERENCE_LAMBDAS
from levyqm.spectrum import MassTriple, fit_masses


def read_csv_columns(path):
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    return {key: np.array([float(r[key]) for r in rows]) for key in rows[0]}


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def strip_timestamp(payload):
    payload = json.loads(json.dumps(payload))
    payload.get("provenance", {}).pop("created_utc", None)
    return payload


# ---------------------------------------------------------------------------
# spectrum and tables
# ---------------------------------------------------------------------------

def test_reproduce_tables(tmp_path, capsys):
    out = tmp_path / "tables.json"
    assert main(["reproduce-tables", "-o", str(out)]) == 0
    payload = load_json(out)
    assert payload["passed"] == 5 and payload["total"] == 5
    assert "5/5 rows pass" in capsys.readouterr().out
    assert all(r["mass_roundtrip_rel_err"] < 1e-15 for r in payload["rows"])


def test_spectrum_fit_reference_row(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["spectrum", "fit", "--masses", "5.11e-4,0.1056,1.77",
                 "-o", str(out)]) == 0
    payload = load_json(out)
    for got, want in zip(payload["lambdas"], REFERENCE_LAMBDAS["table3"]):
        assert got == pytest.approx(want, rel=5e-3)
    assert len(payload["roots"]) == 3
    assert max(abs(v) for v in payload["sum_rules"].values()) < 1e-15


def test_sum_rules_reach_spectrum_and_propagator_records(tmp_path):
    assert main(["spectrum", "solve", "--lambdas=-2,3,-1", "--mass", "1",
                 "-o", str(tmp_path / "deg.json")]) == 3
    rules = load_json(tmp_path / "deg.json")["sum_rules"]
    assert set(rules) == {"sum_r", "sum_rx", "l3_sum_rx2"}
    assert all(math.isnan(v) for v in rules.values())
    assert main(["propagator", "--preset", "table2b", "--points", "8",
                 "-o", str(tmp_path / "p.csv")]) == 0
    rules = load_json(tmp_path / "p.csv.meta.json")["poles"]["sum_rules"]
    assert max(abs(v) for v in rules.values()) < 1e-15


def test_spectrum_fit_second_quark_row(tmp_path):
    out = tmp_path / "fit.json"
    assert main(["spectrum", "fit", "--masses", "7e-3,0.12,4.27",
                 "-o", str(out)]) == 0
    for got, want in zip(load_json(out)["lambdas"],
                         (-3.41e-3, 3.41e-3, -9.14e-9)):
        assert got == pytest.approx(want, rel=5e-3)


def test_spectrum_fit_degenerate_exit_code(tmp_path):
    out = tmp_path / "deg.json"
    with pytest.warns(UserWarning):
        code = main(["spectrum", "fit", "--masses", "1,1,1", "-o", str(out)])
    assert code == 3
    assert load_json(out)["degenerate"] is True


@pytest.mark.parametrize("masses,base", [
    ("1,1,2", []), ("1,1,10", []), ("0.5,0.5,3", []),
    ("1,2,2", ["--base", "1000"])])
def test_repeated_masses_are_degenerate(tmp_path, capsys, masses, base):
    fit = tmp_path / "fit.json"
    with pytest.warns(UserWarning):
        assert main(["spectrum", "fit", "--masses", masses, *base,
                     "-o", str(fit)]) == 3
        assert main(["propagator", "--masses", masses, *base,
                     "--points", "16", "-o", str(tmp_path / "p.csv")]) == 3
    assert "degenerate spectrum" in capsys.readouterr().err
    assert load_json(fit)["degenerate"] is True
    poles = load_json(tmp_path / "p.csv.meta.json")["poles"]
    assert poles == {k: v for k, v in load_json(fit).items() if k in poles}


@pytest.mark.parametrize("masses", ["1,1,2", "1,1,10", "0.5,0.5,3",
                                    "1,2,2 --base 1000"])
def test_pole_fits_sit_on_the_reported_roots(tmp_path, masses):
    # the fits and the poles record come from one spectrum: no fit at a
    # root that the rounded coefficients split off the repeated one, and
    # every fit is certified, also at a root far below the base mass
    out = tmp_path / "p.csv"
    with pytest.warns(UserWarning):
        assert main(["propagator", "--masses", *masses.split(), "--points", "16",
                     "-o", str(out)]) == 3
    meta = load_json(tmp_path / "p.csv.meta.json")
    assert meta["pole_fits"]
    for fit in meta["pole_fits"]:
        assert fit["root"] in meta["poles"]["roots"]
        assert fit["residue_mismatch"] < 1e-6


@pytest.mark.parametrize("source", [
    "fit --masses 1,2,3 --base 3e-3", "fit --masses 1,2,3 --base 1e-3",
    "fit --masses 1,1.01,3", "fit --masses 1,1.0001,3",
    "fit --masses 1,1.000001,3", "solve --lambdas=0.9,0.5,-0.3 --mass 1"])
def test_every_solved_spectrum_has_certified_poles(tmp_path, source):
    # close roots, a base far below the masses and a complex pair: what
    # spectrum accepts, propagator certifies from the same arguments
    spectrum_args = source.split()
    assert main(["spectrum", *spectrum_args, "-o", str(tmp_path / "s.json")]) == 0
    assert main(["propagator", *spectrum_args[1:], "--points", "16",
                 "-o", str(tmp_path / "p.csv")]) == 0
    meta = load_json(tmp_path / "p.csv.meta.json")
    assert len(meta["pole_fits"]) == len(load_json(tmp_path / "s.json")["roots"])
    for fit in meta["pole_fits"]:
        assert fit["residue_mismatch"] < 1e-6


@pytest.mark.parametrize("masses,base,code", [
    ("1,2,3", "1e-3", 0), ("1,2,3", "1e-4", 2), ("1,2,3", "1e-6", 2),
    ("1,1,1", "1e-6", 3)])
def test_spectrum_fit_far_base(tmp_path, capsys, masses, base, code):
    # the multiplicity test is scale-invariant, and a base so far below
    # the masses that the round trip loses digits is a domain error
    out = tmp_path / "fit.json"
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)
        assert main(["spectrum", "fit", "--masses", masses, "--base", base,
                     "-o", str(out)]) == code
    if code == 2:
        assert f"base mass {float(base):g}" in capsys.readouterr().err
        assert not out.exists()
    else:
        assert load_json(out)["degenerate"] is (code == 3)


@pytest.mark.parametrize("masses", ["1,1,2", "1,1,10", "0.5,0.5,3"])
def test_evolve_branch_on_a_repeated_mass(tmp_path, masses):
    # branch 1 is the repeated root x = 1, i.e. the lightest mass
    with pytest.warns(UserWarning):
        assert main(["evolve", "--mass", "1", "--dt", "0.1", "--steps", "3",
                     "--branch", "1", "--masses", masses,
                     "-o", str(tmp_path / "branch.csv")]) == 0
    assert main(["evolve", "--mass", masses.split(",")[0], "--dt", "0.1",
                 "--steps", "3", "-o", str(tmp_path / "plain.csv")]) == 0
    assert (tmp_path / "branch.csv").read_bytes() == \
        (tmp_path / "plain.csv").read_bytes()


def test_spectrum_fit_domain_error_exit_code(tmp_path):
    assert main(["spectrum", "fit", "--masses=-1,2,3",
                 "-o", str(tmp_path / "x.json")]) == 2


def test_spectrum_solve_round_trip(tmp_path):
    fit = tmp_path / "fit.json"
    main(["spectrum", "fit", "--masses", "5.11e-4,0.1056,1.77", "-o", str(fit)])
    lambdas = load_json(fit)["lambdas"]
    out = tmp_path / "solve.json"
    assert main(["spectrum", "solve",
                 "--lambdas=" + ",".join(f"{v:.17g}" for v in lambdas),
                 "--mass", "5.11e-4", "-o", str(out)]) == 0
    masses = load_json(out)["masses"]
    for got, want in zip(masses, (5.11e-4, 0.1056, 1.77)):
        assert got == pytest.approx(want, rel=1e-6)


def test_io_error_exit_code():
    assert main(["reproduce-tables", "-o", "/dev/null/nodir/x.json"]) == 4


# ---------------------------------------------------------------------------
# density / levy-measure / exponent
# ---------------------------------------------------------------------------

def test_density_csv_round_trips_against_summary(tmp_path):
    out = tmp_path / "density.csv"
    assert main(["density", "--mass", "1", "--dt", "1", "-o", str(out)]) == 0
    cols = read_csv_columns(out)
    meta = load_json(tmp_path / "density.csv.meta.json")
    dx = meta["grid"]["dx"]
    norm = float(cols["value"].sum() * dx)
    var = float((cols["x"] ** 2 * cols["value"]).sum() * dx)
    assert norm == pytest.approx(meta["summary"]["normalization"], abs=1e-12)
    assert var == pytest.approx(meta["summary"]["variance"], rel=1e-12)
    assert abs(norm - 1.0) < 1e-6


def test_density_rejects_coarse_grid(tmp_path):
    assert main(["density", "--mass", "1", "--dt", "1", "--dx", "1.0",
                 "--n", "256", "-o", str(tmp_path / "d.csv")]) == 2


def test_levy_measure_csv(tmp_path):
    out = tmp_path / "w.csv"
    assert main(["levy-measure", "--mass", "1", "--dim", "3", "--x-min",
                 "1e-3", "--x-max", "10", "--points", "64", "--log-spacing",
                 "-o", str(out)]) == 0
    cols = read_csv_columns(out)
    assert cols["value"][0] > cols["value"][-1] > 0


def test_exponent_csv(tmp_path):
    out = tmp_path / "eta.csv"
    assert main(["exponent", "--mass", "1", "--u-max", "5", "--points", "32",
                 "-o", str(out)]) == 0
    cols = read_csv_columns(out)
    assert cols["eta"][0] == 0.0
    assert np.all(cols["eta"] <= 0.0)
    branch = tmp_path / "eta4.csv"
    assert main(["exponent", "--mass", "1", "--u-max", "5", "--points", "32",
                 "--root-x", "4.0", "-o", str(branch)]) == 0
    assert read_csv_columns(branch)["eta"][-1] > cols["eta"][-1]


# ---------------------------------------------------------------------------
# evolve / propagator / loop / simulate
# ---------------------------------------------------------------------------

def test_evolve_time_series(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--mass", "1", "--dt", "0.1", "--steps", "20",
                 "--sigma", "1", "--snapshot-every", "10",
                 "-o", str(out)]) == 0
    cols = read_csv_columns(out)
    assert len(cols["t"]) == 21
    assert np.max(np.abs(cols["norm"] - 1.0)) < 1e-10
    assert (tmp_path / "evolve_psi_00000.csv").exists()
    assert (tmp_path / "evolve_psi_00020.csv").exists()


def test_evolve_branch(tmp_path):
    out = tmp_path / "branch.csv"
    assert main(["evolve", "--mass", "1", "--dt", "0.1", "--steps", "5",
                 "--sigma", "1", "--branch", "1", "--masses", "1,2,3",
                 "-o", str(out)]) == 0
    assert np.max(np.abs(read_csv_columns(out)["norm"] - 1.0)) < 1e-10


def test_propagator_scan_and_poles(tmp_path):
    out = tmp_path / "prop.csv"
    assert main(["propagator", "--preset", "table3", "--p2-min", "0",
                 "--p2-max", "3.2", "--points", "512", "-o", str(out)]) == 0
    meta = load_json(tmp_path / "prop.csv.meta.json")
    masses = PRESET_MASSES["table3"]
    for fit, mass in zip(meta["pole_fits"], masses):
        assert fit["p2_pole"] == pytest.approx(mass ** 2, rel=1e-6)
        assert fit["residue_mismatch"] < 1e-6


def test_propagator_degenerate_exit_code(tmp_path):
    assert main(["propagator", "--lambdas=-2,3,-1", "--mass", "1",
                 "-o", str(tmp_path / "deg.csv")]) == 3


def test_propagator_of_a_subnormal_l3(tmp_path):
    # the closed form's rescaling by |l3|^(1/3) gave NaN roots: "cannot
    # convert NaN to integer ratio" (exit 2); the one real root is 1 and
    # the discriminant, -8.1e323, passes the largest double
    assert main(["propagator", "--lambdas=0,0,-5e-324", "--mass", "1",
                 "-o", str(tmp_path / "p.csv")]) == 0
    poles = load_json(tmp_path / "p.csv.meta.json")["poles"]
    assert poles["roots"] == [1.0] and poles["n_complex"] == 2
    assert poles["discriminant"] == -math.inf


def test_loop_preset_tail_exponent(tmp_path):
    out = tmp_path / "loop.csv"
    assert main(["loop", "--preset", "table3", "--variant", "scalar",
                 "-o", str(out)]) == 0
    meta = load_json(tmp_path / "loop.csv.meta.json")
    assert meta["tail_fits"]["modified-scalar"]["decay_exponent"] == \
        pytest.approx(-4.0, abs=0.5)
    assert meta["tail_fits"]["unmodified-scalar"]["log_slope"] > 0
    cols = read_csv_columns(out)
    assert "modified_scalar" in cols
    abserr = meta["diagnostics"]["abserr"]
    assert set(abserr) == {"unmodified-scalar", "modified-scalar"}
    for variant, err in abserr.items():
        column = cols[variant.replace("-", "_")]
        assert 0.0 < err < 1e-8 * np.max(np.abs(column))


def test_loop_preset_cutoffs_from_target_masses(tmp_path):
    # 100 times the heaviest target, not its solved round trip
    out = tmp_path / "loop.csv"
    assert main(["loop", "--preset", "table3", "--variant", "scalar",
                 "-o", str(out)]) == 0
    cutoffs = load_json(tmp_path / "loop.csv.meta.json")["provenance"][
        "parameters"]["cutoffs"]
    assert cutoffs[0] == 100 * 1.77
    assert read_csv_columns(out)["cutoff"][0] == 100 * 1.77


DIP_LAMBDAS = "--lambdas=0.49999375015624614,-0.4374953126171846,-0.06249843753906153"


EDGE_INPUTS = [
    # roots 1, -4, -4.0001: the denominator dips below 0 on (2, 2.0000125)
    (["loop", DIP_LAMBDAS, "--mass", "1"],
     "Euclidean denominator vanishes at k = 2 ("),
    (["loop", "--lambdas=0.5,0,0", "--mass", "1", "--variant", "mass"],
     "above k = 1.41421, so m sqrt(1 + f) is not real"),
    # a NaN pE wrote an all-NaN table and an infinite one all zeros (exit
    # 0); a non-finite cutoff failed in the tail fit's SVD
    (["loop", "--preset", "table3", "--pe", "nan"], "got pE = nan"),
    (["loop", "--preset", "table3", "--pe", "inf"], "got pE = inf"),
    (["loop", "--preset", "table3", "--cutoffs", "100,nan,400"],
     "cutoffs must be finite, got nan"),
    (["loop", "--preset", "table3", "--cutoffs", "100,200,inf"],
     "cutoffs must be finite, got inf"),
    # pE^2 or k^2 beyond the largest double: exit 1 with an OverflowError
    (["loop", "--preset", "table3", "--pe", "1e200"],
     "pE = 1e+200 overflows pE^2; the largest accepted is 1.341e+154"),
    (["loop", "--preset", "table3", "--cutoffs", "1e100,1e160"],
     "cutoff 1e+160 overflows k^2; the largest accepted is 1.341e+154"),
    (["loop", "--preset", "table3", "--octaves", "600"],
     "overflows k^2; the largest accepted is 1.341e+154"),
    # both cutoffs have one logarithm: the segment between them read 0
    (["loop", "--preset", "table3", "--variant", "scalar", "--cutoffs",
      "1e10,1.0000000000000002e10"],
     "cutoffs 10000000000 and 10000000000.000002 have one logarithm; log-k "
     "quadrature cannot resolve the gap between them"),
    # the modified-scalar segment is ~1e-500, below every double
    (["loop", "--preset", "table3", "--pe", "1e150", "--cutoffs", "1e100,1e150"],
     "modified-scalar on [1e+100, 1e+150] reads 0, not a finite non-zero double"),
    # roots at -1e290 and 2.35e195, where l3 x^3 passes the largest double:
    # an OverflowError from the closed-form cubic (exit 1)
    (["spectrum", "solve", "--lambdas=0.5,1e-10,1e-300", "--mass", "1"],
     "has a term beyond the doubles at the root x = -1e+290 of g(x) = 1"),
    (["loop", "--lambdas=-2.35e-5,2.35e-5,-1e-200", "--mass", "1"],
     "has a term beyond the doubles at the root x = 2.35e+195 of g(x) = 1"),
    (["spectrum", "solve", "--lambdas=1e300,0,5e-324", "--mass", "1"],
     "are bounded only by 2^1037, beyond the doubles"),
    # (m_i / m)^2 = 1e640: an OverflowError (exit 1)
    (["spectrum", "fit", "--masses", "1e-160,1,1e160"],
     "(m_i / m)^2 overflows for masses (1e-160, 1.0, 1e+160); keep the "
     "masses within a factor 1.341e+154 of the base"),
    # (m_1 / m)^2 = 1e-310 is subnormal and 1/x overflowed: "cutoff
    # coefficients must be finite"; at 1e-308 the certificate raised a
    # RuntimeError (exit 1)
    (["spectrum", "fit", "--masses", "1e-155,1,2", "--base", "1"],
     "base mass 1: (m_i / m)^2 underflows for the mass 1e-155; keep the "
     "masses at least 1.492e-154 times the base"),
    (["spectrum", "fit", "--masses", "1e-154,1,2", "--base", "1"],
     "(m_i / m)^2 underflows for the mass 1e-154"),
    # the rounded coefficients have a complex pair: the message blamed the
    # base, which is already the lightest mass
    (["spectrum", "fit", "--masses", "1,1.00000001,1.00000002"],
     "have 1 real roots, not 3"),
    # W1 and W3 passed the largest double: inf rows, a numpy RuntimeWarning
    # and exit 0
    (["levy-measure", "--mass", "1", "--x-min", "1e-320", "--x-max", "1e-300"],
     "the 1D jump kernel overflows below r = 4.208e-155 at a = 1; "
     "use radii >= 4.212e-155"),
    (["levy-measure", "--mass", "1", "--dim", "3", "--x-min", "1e-80", "--x-max", "1"],
     "the 3D jump kernel overflows below r = 4.872e-78 at a = 1; "
     "use radii >= 4.877e-78"),
    (["density", "--mass", "1", "--dt", "0"], "dt must be positive"),
    # a NaN or infinite dt wrote an all-NaN table or raised ZeroDivisionError
    (["density", "--mass", "1", "--dt", "nan", "--dx", "0.05"],
     "dt must be positive and finite (got dt = nan)"),
    (["density", "--mass", "1", "--dt", "inf", "--dx", "0.05"],
     "dt must be positive and finite (got dt = inf)"),
    (["density", "--mass", "1", "--dt", "inf"],
     "dt must be positive and finite (got dt = inf)"),
    (["simulate", "--mass", "1", "--t", "nan", "--paths", "10"],
     "dt/tau is not a number"),
    (["simulate", "--mass", "1", "--t", "1e150", "--paths", "10"],
     "overflows the inverse-Gaussian clock"),
    (["simulate", "--mass", "1", "--t", "1e300", "--paths", "10"],
     "overflows the inverse-Gaussian clock"),
    # shape (dt/tau)^2 = 1e-400 is no normal double
    (["simulate", "--mass", "1", "--t", "1e-200", "--paths", "10"],
     "underflows the inverse-Gaussian clock"),
    # the KS validation runs before the full paths are written
    (["simulate", "--mass", "1", "--t", "0.01", "--paths", "2000",
      "--full-paths", "3", "--steps", "2"],
     "reference grid carries 7.21e-08 mass per edge cell"),
    (["simulate", "--mass", "1", "--t", "1", "--paths", "500", "--full-paths", "3"],
     "need at least 1e3 samples"),
    (["evolve", "--mass", "1", "--dt", "0.05", "--steps", "2", "--branch", "5",
      "--masses", "1,2,3", "--snapshot-every", "1"],
     "valid branches are 0 to 2"),
    # a NaN step made a NaN field that passed the norm gate: exit 0
    (["evolve", "--mass", "1", "--dt", "nan", "--steps", "2",
      "--snapshot-every", "1"],
     "--dt must be finite and positive, got nan"),
    (["evolve", "--mass", "1", "--dt", "-0.05", "--steps", "2"],
     "--dt must be finite and positive, got -0.05"),
    # phases near 1e300 rad, rounded to ~1e284 rad, passed the norm gate: exit 0
    (["evolve", "--mass", "1", "--dt", "1e300", "--steps", "2"],
     "whose rounding (1.4e+286 rad) exceeds 1e-10 rad; use dt <= 7.28e+03"),
    (["evolve", "--mass", "1", "--dt", "1e300", "--steps", "2", "--snapshot-every", "1"],
     "exceeds 1e-10 rad"),
]


@pytest.mark.parametrize("argv, message", EDGE_INPUTS,
                         ids=[" ".join(argv) for argv, _ in EDGE_INPUTS])
def test_edge_inputs_are_domain_errors(tmp_path, capsys, argv, message):
    assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 2
    assert message in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


M_TABLE3 = PRESET_MASSES["table3"][0]
LOOP_EDGE_VALUES = [
    # QUADPACK refused cutoffs above 1.158e77 (exit 2); with pE = m the
    # unmodified-mass sweep is m (1 - log 2 + log((K^2 + m^2) / (2 m^2))) / 2
    (["--cutoffs", "1e76,1e80"], "unmodified_mass",
     [M_TABLE3 / 2 * (1 - math.log(2) + math.log(k * k / (2 * M_TABLE3 ** 2)))
      for k in (1e76, 1e80)], 1e-13),
    # its integrand, ~ k^6 / k^8, was inf / inf above ~1e51 (exit 2); the
    # increment, 1.87e-41, is below the last digit of the bulk (mpmath)
    (["--cutoffs", "1e40,1e70"], "modified_mass",
     [0.37311090426477449, 0.37311090426477449], 1e-13),
    # QUADPACK refused a pE whose D pE^2 passes the largest double (exit 2);
    # m K^2 / (2 pE^2) is the integral to 7.6e-12
    (["--pe", "1e152", "--cutoffs", "1000,2000"], "unmodified_mass",
     [2.555e-302, 1.022e-301], 1e-11),
    (["--pe", "1e150", "--cutoffs", "1000,2000"], "modified_mass",
     [1.8658e-298, 3.7349e-298], 1e-4),
]


@pytest.mark.parametrize("argv, column, want, rtol", LOOP_EDGE_VALUES,
                         ids=[" ".join(argv) for argv, *_ in LOOP_EDGE_VALUES])
def test_mass_loop_edge_inputs_give_values(tmp_path, argv, column, want, rtol):
    out = tmp_path / "loop.csv"
    assert main(["loop", "--preset", "table3", "--variant", "mass", *argv,
                 "-o", str(out)]) == 0
    np.testing.assert_allclose(read_csv_columns(out)[column], want, rtol=rtol, atol=0)


def test_non_finite_cutoff_fails_before_lapack(tmp_path, capfd):
    # the SVD of the tail fit printed LAPACK's DLASCL complaints to fd 2
    assert main(["loop", "--preset", "table3", "--cutoffs", "100,nan,400",
                 "-o", str(tmp_path / "l.csv")]) == 2
    assert capfd.readouterr().err == "error: cutoffs must be finite, got nan\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("argv, start", [
    (["loop", "--preset", "table3", "--pe", "1e154", "--cutoffs", "1e100,1.2e154"],
     "error: modified-scalar on [1e+100, 1.2e+154] reads 0, not a finite "),
    (["levy-measure", "--mass", "1", "--x-min", "1e-320", "--x-max", "1e-300"],
     "error: the 1D jump kernel overflows below r = "),
    (["levy-measure", "--mass", "1", "--dim", "3", "--x-min", "1e-320", "--x-max", "1e-300"],
     "error: the 3D jump kernel overflows below r = "),
], ids=["loop", "levy-measure", "levy-measure --dim 3"])
def test_overflow_fails_with_one_line(tmp_path, capfd, argv, start):
    # numpy's overflow and invalid-value warnings from the loop's former
    # closed form and from the jump kernels' division reached stderr before
    # the message; pytest records warnings, so here they raise
    assert main([*argv, "-o", str(tmp_path / "out.csv")]) == 2
    err = capfd.readouterr().err
    assert err.startswith(start)
    assert err.count("\n") == 1 and err.endswith("\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    # s^2 and s^3 underflowed in the above-m form: 0/0, a numpy
    # RuntimeWarning and "reads nan" (exit 2)
    ["--cutoffs", "1e80,1e90"],
    # sqrt(s^3) underflowed above k ~ 1e51 m: "needs over 131072 pieces"
    ["--variant", "mass", "--cutoffs", "1e3,1e10,1e60"],
], ids=["scalar", "mass"])
def test_loop_without_a_cutoff_polynomial_is_the_unmodified_loop(tmp_path, capfd,
                                                                  argv):
    out = tmp_path / "loop.csv"
    assert main(["loop", "--lambdas=0,0,0", "--mass", "1", *argv,
                 "-o", str(out)]) == 0
    assert capfd.readouterr().err == ""
    columns = read_csv_columns(out)
    kind = "mass" if "mass" in argv else "scalar"
    np.testing.assert_allclose(columns[f"modified_{kind}"],
                               columns[f"unmodified_{kind}"], rtol=1e-14, atol=0)


@pytest.mark.parametrize("pe", ["1e-161", "5e-324"])
def test_loop_at_a_tiny_pe_is_its_zero_momentum_limit(tmp_path, pe):
    # D pE^2 underflowed to 0 in an integrand in k below pE: exit 1 with
    # a ZeroDivisionError; exp(2 (log k - log pE)) k^2/D in log k cannot
    result = {}
    for value in (pe, "1e-100"):
        out = tmp_path / f"loop_{value}.csv"
        assert main(["loop", "--preset", "table3", "--variant", "scalar",
                     "--pe", value, "-o", str(out)]) == 0
        result[value] = read_csv_columns(out)
    diagnostics = load_json(tmp_path / f"loop_{pe}.csv.meta.json")["diagnostics"]
    for variant in ("unmodified-scalar", "modified-scalar"):
        column = variant.replace("-", "_")
        # at pE = 1e-100 the sweep is the pE -> 0 limit to 1e-190
        np.testing.assert_allclose(result[pe][column],
                                   result["1e-100"][column], rtol=1e-10)
        assert diagnostics["abserr"][variant] < 1e-9 * result[pe][column][-1]


def test_density_at_a_huge_dt(tmp_path):
    out = tmp_path / "density.csv"
    assert main(["density", "--mass", "1", "--dt", "1e300", "-o", str(out)]) == 0
    summary = load_json(tmp_path / "density.csv.meta.json")["summary"]
    assert summary["normalization"] == pytest.approx(1.0, abs=1e-12)
    assert summary["variance"] / 1e300 == pytest.approx(1.0, rel=1e-8)


def test_simulate_validation_report(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--mass", "1", "--t", "1", "--paths", "20000",
                 "--seed", "42", "-o", str(out)]) == 0
    meta = load_json(tmp_path / "sim.csv.meta.json")
    assert meta["validation"]["pass"] is True
    assert meta["validation"]["seed"] == 42
    cols = read_csv_columns(out)
    assert cols["endpoint"].size == 20000
    assert cols["endpoint"].var() == pytest.approx(1.0, rel=0.05)
    # CSV round-trips against the JSON summary at the printed precision
    assert cols["endpoint"].mean() == pytest.approx(meta["summary"]["mean"],
                                                    abs=1e-15)
    assert cols["endpoint"].var() == pytest.approx(meta["summary"]["variance"],
                                                   rel=1e-12)
    # the law's moments at m = t = 1: variance 1, kurtosis 3 + 3 = 6
    summary = meta["summary"]
    assert summary["law_variance"] == pytest.approx(1.0, rel=1e-9)
    assert summary["law_kurtosis"] == pytest.approx(6.0, rel=1e-6)
    assert summary["kurtosis"] == pytest.approx(6.0, rel=0.2)


def test_simulate_full_paths(tmp_path):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--mass", "1", "--t", "1", "--steps", "8",
                 "--paths", "5000", "--seed", "1", "--full-paths", "3",
                 "-o", str(out)]) == 0
    paths = read_csv_columns(tmp_path / "sim_paths.csv")
    assert set(paths["path"]) == {0.0, 1.0, 2.0}
    assert paths["x"][0] == 0.0
    np.testing.assert_array_equal(paths["path"], np.repeat([0.0, 1.0, 2.0], 9))
    np.testing.assert_array_equal(paths["t"], np.tile(np.linspace(0, 1, 9), 3))
    assert not paths["x"][::9].any()


def test_simulate_full_paths_beyond_paths(tmp_path):
    # the full paths have their own stream: the count asked for is written
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--mass", "1", "--paths", "2000",
                 "--full-paths", "3000", "--steps", "2", "-o", str(out)]) == 0
    paths = read_csv_columns(tmp_path / "sim_paths.csv")
    assert paths["path"].size == 9000
    np.testing.assert_array_equal(paths["path"], np.repeat(np.arange(3000.0), 3))
    assert load_json(tmp_path / "sim.csv.meta.json")[
        "provenance"]["parameters"]["full_paths"] == 3000


@pytest.mark.parametrize("argv", [
    ["exponent", "--mass", "1"], ["levy-measure", "--mass", "1"],
    ["propagator", "--preset", "table3"]], ids=lambda argv: argv[0])
def test_points_must_be_at_least_one(tmp_path, capsys, argv):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["--points", "0", "-o", str(out)])
    assert exit_.value.code == 2
    assert "--points: must be at least 1" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("flag", ["--steps", "--paths"])
def test_simulate_rejects_zero_count(tmp_path, capsys, flag):
    out = tmp_path / "sim.csv"
    assert main(["simulate", "--mass", "1", flag, "0", "-o", str(out)]) == 2
    assert "at least one" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("argv, flag", [
    (["evolve", "--mass", "1", "--dt", "0.1", "--steps", "-1"], "--steps"),
    (["evolve", "--mass", "1", "--dt", "0.1", "--steps", "2",
      "--snapshot-every", "-1"], "--snapshot-every"),
    (["simulate", "--mass", "1", "--full-paths", "-3"], "--full-paths"),
], ids=lambda v: v if isinstance(v, str) else v[0])
def test_negative_count_is_rejected_at_parse_time(tmp_path, capsys, argv, flag):
    out = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exit_:
        main(argv + ["-o", str(out)])
    assert exit_.value.code == 2
    assert f"{flag}: must be at least 0" in capsys.readouterr().err
    assert not out.exists()


def test_evolve_zero_steps_writes_the_initial_row(tmp_path):
    out = tmp_path / "evolve.csv"
    assert main(["evolve", "--mass", "1", "--dt", "0.1", "--steps", "0",
                 "-o", str(out)]) == 0
    cols = read_csv_columns(out)
    assert list(cols["t"]) == [0.0]
    assert cols["norm"][0] == pytest.approx(1.0, abs=1e-10)


def test_simulate_byte_identical_reruns(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["simulate", "--mass", "1", "--t", "1", "--paths", "5000",
            "--seed", "7"]
    assert main(args + ["-o", str(a)]) == 0
    assert main(args + ["-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    meta_a = strip_timestamp(load_json(tmp_path / "a.csv.meta.json"))
    meta_b = strip_timestamp(load_json(tmp_path / "b.csv.meta.json"))
    assert meta_a == meta_b


def test_output_dir_environment_variable(tmp_path, monkeypatch):
    monkeypatch.setenv("LEVYQM_OUTPUT_DIR", str(tmp_path))
    assert main(["reproduce-tables"]) == 0
    assert (tmp_path / "reproduce_tables.json").exists()
    # default names join the subcommand words with underscores
    assert main(["spectrum", "fit", "--masses", "1,2,3"]) == 0
    assert (tmp_path / "spectrum_fit.json").exists()
    assert main(["levy-measure", "--mass", "1", "--points", "8"]) == 0
    assert (tmp_path / "levy_measure.csv").exists()


# ---------------------------------------------------------------------------
# provenance and the CSV writer
# ---------------------------------------------------------------------------

def provenance_of(out):
    meta = out.with_name(out.name + ".meta.json")
    return load_json(meta if meta.exists() else out)["provenance"]


def test_evolve_branch_provenance_records_the_spectrum(tmp_path):
    params = []
    for masses in ("1,2,3", "1,2,4"):
        out = tmp_path / f"branch_{masses[-1]}.csv"
        assert main(["evolve", "--mass", "1", "--dt", "0.1", "--steps", "2",
                     "--branch", "1", "--masses", masses, "-o", str(out)]) == 0
        params.append(provenance_of(out)["parameters"])
    assert params[0] != params[1]
    for p in params:
        assert {"masses", "preset", "lambdas", "base"} <= set(p)


def readme_commands():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    section = readme.read_text().split("## Command line", 1)[1]
    block = section.split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line, comments=True)[1:]
            for line in block.splitlines() if line.startswith("levyqm ")]


def declared_dests(argv):
    """Dests of the (sub)subparser argv selects, read from build_parser()."""
    parser = build_parser()
    for word in argv:
        sub = [a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction)]
        if not sub or word not in sub[0].choices:
            break
        parser = sub[0].choices[word]
    return {a.dest for a in parser._actions} - {"help", "output"}


@pytest.mark.parametrize("argv", readme_commands(), ids=" ".join)
def test_readme_command_records_every_argument(tmp_path, argv):
    out = tmp_path / "out"
    assert main(argv + ["-o", str(out)]) == 0
    assert declared_dests(argv) <= set(provenance_of(out)["parameters"])


def test_main_builds_one_parser(tmp_path, monkeypatch):
    cli._parser.cache_clear()
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: built.append(1) or real())
    for i in range(3):
        assert main(["spectrum", "fit", "--masses", "1,2,3",
                     "-o", str(tmp_path / f"fit{i}.json")]) == 0
    assert len(built) == 1
    assert build_parser() is not build_parser()


def test_main_runs_the_handler_the_module_holds(tmp_path, monkeypatch):
    # the parser is built once, but a cmd_* replaced later (a test double,
    # a tracing wrapper) is the one that runs
    assert main(["exponent", "--mass", "1", "--points", "4",
                 "-o", str(tmp_path / "e.csv")]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_exponent",
                        lambda args: calls.append(args.mass) or 0)
    assert main(["exponent", "--mass", "2", "-o", str(tmp_path / "f.csv")]) == 0
    assert calls == [2.0]
    assert not (tmp_path / "f.csv").exists()


README_EVOLVE = [
    ["evolve", "--mass", "1", "--dt", "0.05", "--steps", "200", "--sigma", "2",
     "--p0", "1"],
    ["evolve", "--mass", "1", "--dt", "0.05", "--steps", "200", "--branch", "1",
     "--masses", "1,2,3"],
]


@pytest.mark.parametrize("argv", README_EVOLVE, ids=" ".join)
def test_evolve_transforms_once_per_step(tmp_path, monkeypatch, argv):
    counts = {"fft": 0, "ifft": 0}
    for name, real in [("fft", np.fft.fft), ("ifft", np.fft.ifft)]:
        def counted(*a, _name=name, _real=real, **k):
            counts[_name] += 1
            return _real(*a, **k)
        monkeypatch.setattr(np.fft, name, counted)
    argv = [*argv]
    argv[argv.index("--steps") + 1] = "50"
    assert main(argv + ["-o", str(tmp_path / "e.csv")]) == 0
    assert counts == {"fft": 1, "ifft": 50}


def reference_evolve_rows(argv, direct=False):
    """The README evolve loop written out: psi_hat is transformed once and
    multiplied by the step's phase, |psi|^2 is re^2 + im^2.  With direct,
    psi_hat_k = exp(i k dt eta / tau) psi_hat_0, with no accumulation."""
    if "--branch" in argv:
        mass = fit_masses(MassTriple.from_values([1.0, 2.0, 3.0])).masses[1]
        sigma, p0 = 1.0, 0.0
    else:
        mass, sigma, p0 = 1.0, 2.0, 1.0
    dt, steps = 0.05, 200
    grid = GridSpec(n=2 ** 12, dx=0.05)
    x, u = grid.x_centers(), grid.u_fft()
    params = ExponentParams.from_mass(mass)
    phase = (dt / params.tau) * eta_relativistic(u, params)
    multiplier = np.exp(1j * phase)
    psi = gaussian_packet(0.0, p0, sigma, grid).values
    hat0 = hat = np.fft.fft(psi)
    rows = []
    for step in range(steps + 1):
        density = psi.real ** 2 + psi.imag ** 2
        total = density.sum()
        centroid = float(x @ density / total)
        spectral = hat.real ** 2 + hat.imag ** 2
        rows.append((step * dt, float(total * grid.dx), centroid,
                     float((x - centroid) ** 2 @ density / total),
                     float(u @ spectral / spectral.sum())))
        hat = np.exp(1j * (step + 1) * phase) * hat0 if direct \
            else multiplier * hat
        psi = np.fft.ifft(hat)
    return rows


EVOLVE_HEADER = ["t", "norm", "centroid", "variance", "momentum_centroid"]


@pytest.mark.parametrize("argv", README_EVOLVE, ids=" ".join)
def test_readme_evolve_bytes_match_the_reference_loop(tmp_path, argv):
    assert argv in readme_commands()
    assert main(argv + ["-o", str(tmp_path / "cli.csv")]) == 0
    reference_write_csv(tmp_path / "ref.csv", EVOLVE_HEADER,
                        list(zip(*reference_evolve_rows(argv))))
    assert (tmp_path / "cli.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


@pytest.mark.parametrize("argv", README_EVOLVE, ids=" ".join)
def test_readme_evolve_matches_the_direct_phase(tmp_path, argv):
    # the product of 200 multipliers against one exp of 200 dt eta / tau:
    # the chain's accumulated rounding stays near 1e-14 on every column
    assert main(argv + ["-o", str(tmp_path / "cli.csv")]) == 0
    got = np.loadtxt(tmp_path / "cli.csv", delimiter=",", skiprows=1)
    want = np.array(reference_evolve_rows(argv, direct=True))
    assert got.shape == want.shape == (201, len(EVOLVE_HEADER))
    err = np.max(np.abs(got - want), axis=0)
    assert np.all(err <= 1e-13), dict(zip(EVOLVE_HEADER, err))


def reference_write_csv(path, header, columns):
    """The per-value writer write_csv replaced, kept as its reference."""
    columns = [np.asarray(col) for col in columns]
    lines = [",".join(header)]
    for row in zip(*columns):
        lines.append(",".join(format(float(v), ".17g") for v in row))
    path.write_text("\n".join(lines) + "\n")


EDGE_VALUES = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 1e300,
               -1e300, 1e-300, -1e-300, 0.1, 1.0 / 3.0, 2.0 ** 53 + 2.0]


def tiled_edge_values(n_rows):
    """n_rows rows of EDGE_VALUES tiled, an int column between two floats."""
    values = np.resize(np.array(EDGE_VALUES), n_rows)
    return [values, np.arange(n_rows) * 7 - 40, values[::-1]]


def edge_columns():
    """Doubles where %.17g's digits or layout change, with neighbours, and
    64-bit integers that no double holds."""
    powers = np.array([float(f"1e{e}") for e in range(-323, 309)])
    switches = np.array([1e-5, 1e-4, 1e16, 1e17])     # %g's notation turns
    centres = np.concatenate([powers, switches])
    centres = np.concatenate([centres, np.nextafter(centres, 0.0),
                              np.nextafter(centres, np.inf)])
    # 18 significant digits ending in 5: a tie at 17, rounded half even
    m = np.random.default_rng(7).integers(10 ** 15, 2 ** 52, 64).astype(float)
    ties = np.concatenate([[126827847111869.875], m + 0.25, m + 0.75])
    subnormals = np.concatenate([[5e-324, 1e-323, 2.2250738585072009e-308],
                                 np.random.default_rng(8).random(16) * 1e-310])
    special = [0.0, np.inf, np.nan, -np.nan, np.copysign(np.nan, -1.0),
               sys.float_info.max, sys.float_info.min]
    values = np.concatenate([centres, ties, subnormals, special])
    values = np.concatenate([values, -values])
    int64 = [2 ** 53 + 1, 2 ** 62 + 3, -(2 ** 63), 2 ** 63 - 1]
    uint64 = np.array([2 ** 64 - 1, 2 ** 63 + 2049], np.uint64)
    return [values, np.resize(int64, len(values)),
            np.resize(uint64, len(values))]


# rows of one block of the three tiled_edge_values columns
BLOCK = cli.CSV_BLOCK // 3
BLOCK_ROWS = {"block-1": BLOCK - 1, "block": BLOCK, "block+1": BLOCK + 1,
              "2block+3": 2 * BLOCK + 3}


@pytest.mark.parametrize("columns", [
    [EDGE_VALUES],
    [EDGE_VALUES, EDGE_VALUES[::-1],
     np.arange(len(EDGE_VALUES)) * 7 - 40,
     tuple(np.random.default_rng(0).standard_normal(len(EDGE_VALUES)))],
    [np.array([0, -3, 2 ** 40, 2 ** 60 + 1, -(2 ** 62)])],
    [np.array([], dtype=float), np.array([], dtype=float)],
    *[tiled_edge_values(n) for n in BLOCK_ROWS.values()],
    edge_columns(),
], ids=["one-column", "four-columns", "ints", "empty", *BLOCK_ROWS, "edges"])
def test_write_csv_matches_per_value_format(tmp_path, columns):
    header = [f"c{i}" for i in range(len(columns))]
    write_csv(tmp_path / "new.csv", header, columns)
    reference_write_csv(tmp_path / "ref.csv", header, columns)
    assert (tmp_path / "new.csv").read_bytes() == \
        (tmp_path / "ref.csv").read_bytes()


def test_write_csv_rejects_unequal_columns_before_any_file(tmp_path,
                                                          monkeypatch):
    # blocks cut at the first column's length would drop the second's last row
    def no_file(*args, **kwargs):
        raise AssertionError("made a file for an invalid table")

    monkeypatch.setattr(cli.tempfile, "mkstemp", no_file)
    n = 2 * cli.CSV_BLOCK
    with pytest.raises(ValueError, match=rf"one length, got \[{n}, {n + 1}\]"):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(n), np.zeros(n + 1)])
    assert list(tmp_path.iterdir()) == []


def test_write_csv_refuses_an_object_column_before_any_file(tmp_path):
    # numbers for a whole block, then text: the dtype check refuses the
    # object column before a temp file is made or a block is formatted
    text = np.array([0.5] * cli.CSV_BLOCK + ["x"], dtype=object)
    with pytest.raises(TypeError):
        write_csv(tmp_path / "t.csv", ["a", "b"], [np.zeros(len(text)), text])
    assert list(tmp_path.iterdir()) == []


def test_write_csv_memory_does_not_grow_with_the_table(tmp_path):
    # the whole-table writer peaked at ~37 MB here: a list of floats, a
    # tuple, the body, the header + body copy and its encoded bytes
    paths, steps = 2000, 100
    columns = [np.repeat(np.arange(paths), steps),
               np.tile(np.linspace(0.0, 1.0, steps), paths),
               np.random.default_rng(0).standard_normal(paths * steps)]
    tracemalloc.start()
    try:
        write_csv(tmp_path / "t.csv", ["path", "t", "x"], columns)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_write_csv_failing_after_a_written_block_leaves_no_file(tmp_path,
                                                              monkeypatch):
    # the first block is in the temp file when the kernel fails on the next
    real, blocks = csvformat.format_rows, []

    def fail_on_the_second(block):
        blocks.append(block)
        if len(blocks) == 2:
            raise RuntimeError("second block")
        return real(block)

    monkeypatch.setattr(csvformat, "format_rows", fail_on_the_second)
    with pytest.raises(RuntimeError, match="second block"):
        write_csv(tmp_path / "t.csv", ["a"], [np.zeros(2 * cli.CSV_BLOCK)])
    assert len(blocks) == 2
    assert list(tmp_path.iterdir()) == []


def test_write_csv_rejects_a_complex_column(tmp_path):
    # a float64 cast would drop the imaginary part without a word
    with pytest.raises(TypeError, match="real numbers"):
        write_csv(tmp_path / "t.csv", ["x", "z"],
                  [np.zeros(3), np.full(3, 1.0 + 2.0j)])
    assert list(tmp_path.iterdir()) == []


def percent_csv(header, columns):
    """The CSV of ``columns`` by one ``%`` call on a repeated row template:
    the bytes of formatting each value alone with ``"%.17g"``."""
    block = np.column_stack(columns).astype(float)
    row = ",".join(["%.17g"] * len(columns)) + "\n"
    body = row * len(block) % tuple(block.ravel().tolist())
    return (",".join(header) + "\n" + body).encode()


def test_write_csv_matches_percent_format_on_random_doubles(tmp_path):
    # 2^20 seeded bit patterns: every sign and exponent, subnormals, nan
    # payloads and infinities among them; 16 tables keep the files small
    bits = np.random.default_rng(20240601).integers(
        0, 2 ** 64, 2 ** 20, dtype=np.uint64)
    header = ["a", "b", "c", "d"]
    for table in bits.view(np.float64).reshape(16, -1, 4):
        columns = list(table.T)
        write_csv(tmp_path / "t.csv", header, columns)
        assert (tmp_path / "t.csv").read_bytes() == percent_csv(header, columns)


# every README command that writes a CSV, the evolve snapshots and a
# _paths.csv of several blocks
CSV_COMMANDS = [argv for argv in readme_commands()
                if argv[0] not in ("reproduce-tables", "spectrum")] + [
    ["evolve", "--mass", "1", "--dt", "0.05", "--steps", "200",
     "--snapshot-every", "100"],
    ["simulate", "--mass", "1", "--paths", "20000", "--steps", "10",
     "--full-paths", "500", "--seed", "7"],
]


@pytest.mark.parametrize("argv", CSV_COMMANDS, ids=" ".join)
def test_cli_csv_bytes_match_the_reference_writer(tmp_path, monkeypatch, argv):
    real, tables = cli.write_csv, []

    def capture(path, header, columns):
        tables.append((Path(path), list(header),
                       [np.array(col) for col in columns]))
        real(path, header, columns)

    monkeypatch.setattr(cli, "write_csv", capture)
    assert main(argv + ["-o", str(tmp_path / "out.csv")]) == 0
    names = [path.name for path, _, _ in tables]
    if "--snapshot-every" in argv:
        assert names[:3] == [f"out_psi_{step:05d}.csv"
                             for step in (0, 100, 200)]
    if "--full-paths" in argv:
        assert names[0] == "out_paths.csv"
        assert len(tables[0][2][0]) * 3 > 4 * cli.CSV_BLOCK
    assert names[-1] == "out.csv"
    for path, header, columns in tables:
        reference_write_csv(tmp_path / "ref.csv", header, columns)
        assert path.read_bytes() == (tmp_path / "ref.csv").read_bytes(), \
            path.name


# ---------------------------------------------------------------------------
# start-up: scipy modules are imported by the functions that call them
# ---------------------------------------------------------------------------

def scipy_modules_after(code):
    """The scipy modules a fresh interpreter holds after running ``code``."""
    src = str(Path(levyqm.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    out = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys\nprint(' '.join("
         "m for m in sys.modules if m.split('.')[0] == 'scipy'))"],
        env=env, capture_output=True, text=True, check=True)
    return set(out.stdout.splitlines()[-1].split())


def test_importing_the_cli_loads_no_scipy_subpackage():
    loaded = scipy_modules_after("import levyqm.cli")
    assert not loaded & {"scipy.integrate", "scipy.special", "scipy.fft"}


def test_levy_khintchine_quadrature_loads_no_scipy_integrate():
    loaded = scipy_modules_after(
        "from levyqm import ExponentParams, eta_from_triplet\n"
        "from levyqm.densities import relativistic_triplet\n"
        "eta_from_triplet(0.3, relativistic_triplet(ExponentParams.from_mass(1.0)))")
    assert "scipy.special" in loaded  # the jump kernel's K1 ran
    assert not {m for m in loaded if m.split(".")[:2] == ["scipy", "integrate"]}


@pytest.mark.parametrize("variant", ["scalar", "mass"])
def test_loop_loads_no_scipy_module(tmp_path, variant):
    # every variant is integrated by the numpy GK21 of exponents
    out = tmp_path / "loop.csv"
    assert scipy_modules_after(
        "import levyqm.cli\n"
        f"assert levyqm.cli.main(['loop', '--preset', 'table3', '--variant', "
        f"{variant!r}, '-o', {str(out)!r}]) == 0") == set()
    assert set(load_json(tmp_path / "loop.csv.meta.json")["diagnostics"]) == {"abserr"}


def scipy_modules_running(argv, out):
    """The scipy modules loaded by ``main(argv + ['-o', out])``, which must
    exit 0, in a fresh interpreter."""
    return scipy_modules_after(
        f"import levyqm.cli\nassert levyqm.cli.main({[*argv, '-o', str(out)]!r}) == 0")


def test_spectrum_fit_loads_no_scipy(tmp_path):
    out = tmp_path / "fit.json"
    assert scipy_modules_running(["spectrum", "fit", "--masses", "1,2,3"],
                                 out) == set()
    assert out.is_file()


@pytest.mark.parametrize("argv", README_EVOLVE, ids=" ".join)
def test_readme_evolve_loads_no_scipy(tmp_path, argv):
    # transforms take numpy.fft, like densities and the jump kernel
    out = tmp_path / "evolve.csv"
    assert scipy_modules_running(argv, out) == set()
    assert out.is_file()
