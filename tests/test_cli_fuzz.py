"""Fuzz the exit-code contracts of ``qns run``, ``qns fit``, ``qns plot`` and
``qns verify``.

Configs are drawn from ``RunConfig``'s own annotations and lower bounds, at
small sizes, for all five kinds; each holds only the fields its kind reads
(``record_points`` only beside ``record_every`` "log"), with at most one
field pushed to an edge: below its bound, NaN, inf, a huge float, a value of
the wrong type, or any value of a field the kind does not read.  Each config
goes through ``cli.main`` in-process, and must end in exit 0, 2 or 3; a
failure prints exactly one stderr line, no warning escapes, a set field the
kind does not read exits 2 naming it, and a success leaves only finite CSV
cells.

The ``fit`` and ``plot`` inputs start from a valid trajectory CSV and its
sidecar and carry one defect: a missing or an extra column, a non-numeric,
NaN or inf cell, a file of a single line, a row of the wrong width, random
bytes, or a sidecar that is no JSON object (for ``plot --theory`` also one
whose config gives no theory curve).  Each must exit 2 with one stderr line
naming the file, and leave no SVG.

Each ``qns verify`` command line sets every size flag (``--dim``,
``--trials``, ``--steps``) to nothing, a small size, a negative one, or one
past its cap up to 2**63 - 1, and ``--seed`` to a small seed, negative or
not.  Each must end in 0-3, with one stderr line on a failure; a negative
seed or size, or a size past its cap, exits 2 naming a flag (that one, or
another the suite refuses), and its suite never starts.
"""

import contextlib
import functools
import io
import json
import math
import sys
import warnings
from datetime import timedelta
from itertools import count
from types import NoneType, UnionType
from typing import Literal, Union, get_args, get_origin

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from qns.cli import EXIT_DIVERGED, EXIT_OK, EXIT_USAGE, EXIT_VERIFY, main
from qns.model import PowerLawSpectrum
from qns.runs import _HINTS, _LOWER, _READ_BY, _STRICT, KINDS
from qns.verify import MAX_DIM, MAX_STEPS, MAX_TRIALS, SUITES

# how far above its lower bound an integer field is drawn: small, fast runs
# (steps reach past 1000, where the Stiefel loop checks its norm)
SPAN = {"d": 8, "r": 9, "r_s": 9, "seeds": 3, "steps": 1100, "batch": 3,
        "record_every": 40, "record_points": 40}
EDGE_FLOATS = [0.0, -1.0, 0.5, 5e-324, 1e300, -1e308, 1e308, math.nan, math.inf, -math.inf]
WRONG_TYPES = ["x", True, 2.5, [1], {"a": 1}, None, 10**400]
EXP_LIMIT = math.log(sys.float_info.max)  # expm1 overflows past ~709.78
EXAMPLE = count()  # numbers each example's directory under tmp_path


def values(name, hint):
    """Ordinary values of the annotated type ``hint`` for field ``name``."""
    origin, args = get_origin(hint), get_args(hint)
    if origin in (Union, UnionType):
        return st.one_of([values(name, a) for a in args])
    if origin is Literal:
        return st.sampled_from(args)
    if origin is list:
        return st.lists(values(name, args[0]), min_size=1, max_size=3)
    lo = _LOWER.get(name, 1)
    if hint is int:
        return st.integers(lo, lo + SPAN.get(name, 8))
    if hint is float:
        return st.floats(lo, lo + 3, exclude_min=name in _STRICT)
    if hint is NoneType:
        return st.none()
    return st.sampled_from(["", "t"])


def edges(name):
    """Values of field ``name`` at or past the edge of what it accepts, bare
    or as the one entry of a list."""
    edge = st.sampled_from([_LOWER.get(name, 1) - 1, *EDGE_FLOATS, *WRONG_TYPES])
    return edge | edge.map(lambda v: [v])


def limit_horizon(r, r_s, alpha):
    """The horizon whose fastest closed-form exponent reaches EXP_LIMIT."""
    lam = PowerLawSpectrum(r=r, alpha=alpha).lambdas
    return EXP_LIMIT * math.sqrt(r_s) * math.sqrt(float(lam @ lam)) / lam[0]


@st.composite
def configs(draw):
    kind = draw(st.sampled_from(KINDS))
    cfg = {name: draw(values(name, hint)) for name, hint in _HINTS.items()
           if kind in _READ_BY.get(name, (KINDS,))[0]}
    if type(cfg.get("record_every")) is int:  # only record_every "log" reads record_points
        del cfg["record_points"]
    d = cfg["d"]
    cfg["kind"] = kind
    cfg["r"] = r = draw(st.integers(1, d + 1))      # r = d and r = d + 1
    cfg["r_s"] = draw(st.integers(1, d))             # r_s = 1 and r_s = d
    cfg["tracked_j"] = draw(st.one_of(st.just("auto"), st.lists(st.integers(1, r), max_size=3)))
    cfg["seeds"] = draw(st.lists(st.integers(0, 3), min_size=1, max_size=2))
    if kind.startswith("gf"):
        horizons = [st.floats(0, 30, exclude_min=True)]
        if kind == "gf-closed" and r <= d and cfg["alpha"] != 0.5:
            limit = limit_horizon(r, cfg["r_s"], cfg["alpha"])
            horizons.append(st.sampled_from([limit * (1 - 1e-9), limit * (1 + 1e-9)]))
        cfg["horizon"] = draw(st.one_of(horizons))
    edge = draw(st.none() | st.sampled_from(list(_HINTS)))  # half the configs keep every field
    if edge is not None:  # a field the kind does not read is refused at any value but its default
        cfg[edge] = draw(edges(edge) if edge in cfg else values(edge, _HINTS[edge]) | edges(edge))
    return cfg


def csv_cells_finite(path):
    with open(path) as fh:
        next(fh)
        return all(math.isfinite(float(cell)) for line in fh for cell in line.split(","))


@settings(max_examples=150, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
@given(cfg=configs())
def test_run_exit_code_contract(cfg, tmp_path):
    run_dir = tmp_path / f"ex{next(EXAMPLE)}"
    run_dir.mkdir()
    if type(cfg["out_dir"]) is str:
        cfg["out_dir"] = str(run_dir / "runs")
    path = run_dir / "config.json"
    path.write_text(json.dumps(cfg))
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(["run", str(path)])
    assert code in (EXIT_OK, EXIT_USAGE, EXIT_DIVERGED), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    if code == EXIT_OK:
        written = list(run_dir.glob("runs/*.csv"))
        assert len(written) == len(cfg["seeds"])
        assert all(csv_cells_finite(p) for p in written)
    else:
        assert len(err.getvalue().strip().splitlines()) == 1, err.getvalue()
    unread = [name for name, (kinds, default) in _READ_BY.items()
              if cfg["kind"] in KINDS and cfg["kind"] not in kinds and cfg.get(name, default) != default]
    if unread:
        assert code == EXIT_USAGE and f"config field '{unread[0]}'" in err.getvalue(), err.getvalue()



COLUMNS = ["step", "time_raw", "time_rescaled", "compute", "risk", "risk_normalized"]
NON_FINITE = ["nan", "NaN", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e400"]
NON_NUMERIC = ["x", "", "1.2.3", "--1", "0x1p3", "1e", "e5", "[1]", "1;2", "true", '"1"']
DEFECTS = ["missing_column", "extra_header", "extra_cells", "non_numeric", "non_finite",
           "one_line", "wrong_width", "random_bytes"]
SIDECAR_DEFECTS = ["sidecar_bytes", "sidecar_not_object", "sidecar_config_not_object",
                   "sidecar_config_field"]
THEORY_FIELDS = ["kind", "d", "r", "r_s", "alpha"]
# values none of the theory fields takes, and values each of them refuses
# in the config below (d = 128, r = r_s = 4); sizes stay small
BAD_VALUES = [None, True, "8", [8], {}, -1, math.nan, math.inf, -math.inf, 10**400, "gf-open"]
FIELD_BAD = {"kind": ["sgd-stiefel"], "d": [1, 2.0], "r": [0, 129], "r_s": [0, 128],
             "alpha": [0.5, -0.5, 2000.0]}


def trajectory_rows(draw):
    """Header and rows of a valid power-law trajectory with 0 to 2 align columns."""
    n = draw(st.integers(3, 10))
    js = draw(st.lists(st.integers(1, 8), unique=True, max_size=2))
    header = COLUMNS + [f"align_{j}" for j in js]
    rows = [[str(i), *(repr(float(x)) for x in (i, i / 7, i * 1e3, i**-1.5 / 8, i**-1.5)),
             *(repr(0.5) for _ in js)] for i in range(1, n + 1)]
    return header, rows


def malformed_csv(draw, defect):
    """A trajectory CSV, text or bytes, with the one defect named."""
    if defect == "random_bytes":
        return draw(st.binary(max_size=200))
    header, rows = trajectory_rows(draw)
    i, k = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
    if defect == "missing_column":
        k = draw(st.integers(0, len(COLUMNS) - 1))
        header, rows = header[:k] + header[k + 1:], [row[:k] + row[k + 1:] for row in rows]
    elif defect == "extra_header":
        header = header + [draw(st.sampled_from(["align_9", "x", "step", ""]))]
    elif defect == "extra_cells":
        rows = [row + ["1.0"] for row in rows]
    elif defect in ("non_numeric", "non_finite"):
        rows[i][k] = draw(st.sampled_from(NON_NUMERIC if defect == "non_numeric" else NON_FINITE))
    elif defect == "one_line":
        header, rows = (header, []) if draw(st.booleans()) else (rows[i], [])
    elif defect == "wrong_width":  # one row loses or gains a cell
        rows[i] = rows[i][:-1] if draw(st.booleans()) else rows[i] + ["1.0"]
    return "".join(",".join(line) + "\n" for line in [header, *rows])


def malformed_sidecar(draw, defect):
    """Sidecar bytes with the one defect named: no JSON object, or a config
    that gives no theory curve."""
    if defect == "sidecar_bytes":
        return draw(st.binary(max_size=100) | st.sampled_from([b"{", b"{'a': 1}", b"\xff\xfe"]))
    if defect == "sidecar_not_object":
        return json.dumps(draw(st.sampled_from([[1, 2], 3, "config", None, True]))).encode()
    config = {"kind": "gf-closed", "d": 128, "r": 4, "r_s": 4, "alpha": 1.0, "horizon": 40.0}
    if defect == "sidecar_config_not_object":
        config = draw(st.sampled_from([[1], "gf-closed", 3, None, {}]))
    elif draw(st.booleans()):
        del config[draw(st.sampled_from(THEORY_FIELDS))]
    else:
        name = draw(st.sampled_from(THEORY_FIELDS))
        config[name] = draw(st.sampled_from(BAD_VALUES + FIELD_BAD[name]))
    return json.dumps({"config": config}).encode()


CASES = [(argv, defect) for argv in (["fit"], ["plot"], ["plot", "--theory"])
         for defect in DEFECTS + SIDECAR_DEFECTS[:2]] + \
        [(["plot", "--theory"], defect) for defect in SIDECAR_DEFECTS[2:]]


@pytest.mark.parametrize("argv, defect", CASES, ids=lambda v: v if type(v) is str else "-".join(v))
@settings(max_examples=8, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_fit_and_plot_refuse_malformed_input(argv, defect, data, tmp_path):
    run_dir = tmp_path / f"ex{next(EXAMPLE)}"
    run_dir.mkdir()
    path = run_dir / "t.csv"
    if defect.startswith("sidecar"):
        csv = malformed_csv(data.draw, None)
        (run_dir / "t.csv.json").write_bytes(malformed_sidecar(data.draw, defect))
    else:
        csv = malformed_csv(data.draw, defect)
    (path.write_bytes if type(csv) is bytes else path.write_text)(csv)
    svg = run_dir / "t.svg"
    argv = [argv[0], str(path), *argv[1:], *(["-o", str(svg)] if argv[0] == "plot" else [])]
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    lines = err.getvalue().strip().splitlines()
    assert code == EXIT_USAGE, err.getvalue()
    assert len(lines) == 1 and str(path) in lines[0], err.getvalue()
    assert out.getvalue() == "" and not caught, [str(w.message) for w in caught]
    assert not svg.exists()


# the largest small size drawn: every suite finishes within a second or so
# at these, and at each default
VERIFY_SMALL = {"dim": 12, "trials": 300, "steps": 300}


@st.composite
def verify_argvs(draw):
    """A ``qns verify`` command line, and whether its seed or one of its sizes
    is negative or a size is past its cap."""
    suite = draw(st.sampled_from(sorted(SUITES)))
    caps = {"dim": MAX_DIM[suite], "trials": MAX_TRIALS, "steps": MAX_STEPS}
    seed = draw(st.integers(-3, 3))
    argv, refused = ["verify", suite, "--seed", str(seed)], seed < 0
    for flag, cap in caps.items():
        size = draw(st.sampled_from(["none", "small", "negative", "past_cap"]))
        if size != "none":
            argv += [f"--{flag}", str(draw(
                st.integers(0, VERIFY_SMALL[flag]) if size == "small" else
                st.integers(-(2**63), -1) if size == "negative" else
                st.integers(cap + 1, 2**63 - 1)))]
        refused |= size in ("negative", "past_cap")
    return argv, refused


@settings(max_examples=80, deadline=timedelta(seconds=5), derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(drawn=verify_argvs())
def test_verify_exit_code_contract(drawn, monkeypatch):
    argv, refused = drawn
    suite = argv[1]
    if refused:  # a refused size must never start its suite
        @functools.wraps(SUITES[suite])
        def never(*args, **kwargs):
            raise AssertionError(f"qns {' '.join(argv)} started its suite")

        monkeypatch.setitem(SUITES, suite, never)
    out, err = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        warnings.simplefilter("always")
        code = main(argv)
    monkeypatch.undo()
    lines = err.getvalue().strip().splitlines()
    assert code in (EXIT_OK, EXIT_VERIFY, EXIT_USAGE, EXIT_DIVERGED), err.getvalue()
    assert not caught, [str(w.message) for w in caught]
    assert len(lines) == (code in (EXIT_USAGE, EXIT_DIVERGED)), err.getvalue()
    if refused:
        assert code == EXIT_USAGE and out.getvalue() == ""
        assert any(f"--{flag}" in lines[0] for flag in (*VERIFY_SMALL, "seed")), lines[0]
