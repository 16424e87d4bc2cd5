"""What each process imports: the package loads its modules on first use.

`import cfb` loads no kernel module and no numpy; every public name
still resolves to its defining module's object.  `eval-discrete` and
`rho-sweep` are scalar arithmetic and run without numpy, so the pieces
of the CLI they use (the `--rho` points, the number formatter) are pure
Python and are pinned here to the numpy results they replace.  Each
subcommand loads only the cfb modules it runs: cfb._csv, the CSV row text
and reader, only where rows are read or written.
"""

import math
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from cfb.cli_reports import _fmt, _RhoRangeArg

def fresh(code, cwd=None):
    """stdout of a fresh interpreter running code, which must exit 0."""
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=60, cwd=cwd)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_import_loads_no_kernel_and_no_numpy():
    out = fresh("import sys, cfb; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('cfb', 'numpy')))")
    assert out.strip() == "['cfb']"


def test_cli_import_loads_no_kernel_and_no_numpy():
    """Nor ctypes, which only the array commands' allocator setting uses."""
    out = fresh("import sys, cfb.cli_reports; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] in ('cfb', 'numpy', 'ctypes')))")
    assert out.strip() == "['cfb', 'cfb.cli_reports', 'cfb.errors']"


@pytest.mark.parametrize("argv", [
    ["eval-discrete", "--p", "0.25,0.01,0.74", "--q", "0.14,0.18,0.68"],
    ["rho-sweep", "--beta-xt", "1.0"],
    ["rho-sweep", "--beta-xt", "2", "--sigma", "0.5", "--rho", "-1:1:0.01", "--out", "sweep.csv"],
])
def test_scalar_subcommands_leave_numpy_out(tmp_path, argv):
    """And ctypes and concurrent.futures: they set no allocator option and start no pool."""
    out = fresh(f"import sys; from cfb import run; code = run({argv!r}); "
                "print(code, sorted(m for m in sys.modules "
                "if m.split('.')[0] in ('numpy', 'ctypes', 'concurrent')))", cwd=tmp_path)
    assert out.splitlines()[-1] == "0 []"


# every subcommand, in pipeline order, and the cfb modules it loads besides
# cfb, cfb.cli_reports and cfb.errors
PIPELINE_MODULES = [
    (["eval-discrete", "--p", "0.25,0.01,0.74", "--q", "0.14,0.18,0.68"],
     {"cfb_engine", "population_model"}),
    (["search", "--step", "0.05"],
     {"_csv", "_fork", "cfb_engine", "improper_search", "population_model"}),
    (["screen-cf"],
     {"_csv", "_fork", "cfb_engine", "counterfactual_screen", "improper_search", "population_model"}),
    (["beta-mc", "--alpha", "0.5", "--beta", "0.5", "--p", "0.08,0,0.92", "--q", "0,0.15,0.85",
      "--n", "1000"],
     {"_fork", "cfb_engine", "improper_search", "population_model"}),
    (["rho-sweep", "--beta-xt", "1"], {"cfb_engine", "population_model"}),
    (["match-compare", "--step", "0.05"],
     {"_csv", "_fork", "cfb_engine", "matched_pairs", "population_model"}),
    (["hist", "--in", "match_diffs.csv", "--col", "abs_diff"], {"_csv", "_fork"}),
]


def test_each_subcommand_loads_only_the_modules_it_runs(tmp_path):
    """Each subcommand through cfb.run in a fresh process, in one directory so that
    screen-cf and hist read what search and match-compare wrote: the scalar
    commands and beta-mc never load cfb._csv, hist loads no kernel module, and
    every other array command loads cfb._csv."""
    for argv, modules in PIPELINE_MODULES:
        out = fresh(f"import sys; from cfb import run; code = run({argv!r}); "
                    "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'cfb'))", cwd=tmp_path)
        want = sorted({"cfb", "cfb.cli_reports", "cfb.errors"} | {f"cfb.{m}" for m in modules})
        assert out.splitlines()[-1] == f"0 {want}", argv[0]


def test_every_public_name_resolves_to_its_module_object():
    """In a fresh process, so that each name is the first use of its module."""
    out = fresh(
        "import importlib, cfb\n"
        "bad = []\n"
        "for name in cfb.__all__:\n"
        "    scope = {}\n"
        "    exec(f'from cfb import {name} as value', scope)\n"
        "    value = scope['value']\n"
        "    owner = cfb if name == '__version__' else importlib.import_module(value.__module__)\n"
        "    if not owner.__name__.startswith('cfb') or getattr(owner, name) is not value:\n"
        "        bad.append(name)\n"
        "print(len(cfb.__all__), bad)\n")
    assert out.strip() == "32 []"


def test_submodules_import_from_the_package():
    out = fresh("from cfb import cli_reports, cfb_engine; import cfb; "
                "print(cli_reports.run is cfb.run, cfb_engine.pair_table is cfb.pair_table, "
                "cfb.matched_pairs.__name__)")
    assert out.strip() == "True True cfb.matched_pairs"


def test_unknown_names_raise_attribute_error():
    import cfb

    # results are columns only: the per-record views stay out of the package,
    # and so do the matched-pair reference (tests/oracles.py) and the logistic inversion
    for name in ("nope", "GridTriple", "ImproperRecord", "RealizabilityResult",
                 "benefit_given_h", "MatchingFactor", "predictor_h_quadratic",
                 "LogisticRctPopulation", "outcome_prob", "benefit_triple_from_outcome_probs",
                 "expit", "ZeroMassH", "logistic_params_from_probs", "logit",
                 "ParameterUnbounded"):
        with pytest.raises(AttributeError, match=f"no attribute '{name}'"):
            getattr(cfb, name)
        with pytest.raises(ImportError):
            exec(f"from cfb import {name}", {})
    assert set(cfb.__all__) <= set(dir(cfb))


def test_exact_routes_run_without_numpy():
    """The exact two-group and linear-Gaussian routes and the predictor's dispersion
    import numpy nowhere."""
    out = fresh(
        "import sys; from cfb import (LinearGaussianPopulation, MatchedBenefitDistribution, "
        "ProbTriple, cfb_from_pair_table, cfb_linear_gaussian, cfb_two_group, gini_mean_difference, "
        "pair_table)\n"
        "p, q = ProbTriple(0.25, 0.01, 0.74), ProbTriple(0.14, 0.18, 0.68)\n"
        "a = cfb_two_group(0.5, p, q).value\n"
        "b = cfb_from_pair_table(pair_table(MatchedBenefitDistribution(((0, 0.5, p), (1, 0.5, q))))).value\n"
        "c = cfb_linear_gaussian(LinearGaussianPopulation(0, 0, 0, 1.0, 1.0, 0.0)).value\n"
        "d = gini_mean_difference(MatchedBenefitDistribution(((-1.0, 0.25, p), (0.0, 0.5, p), (1.0, 0.25, p))))\n"
        "print('%.10g %.10g %.10g %.10g' % (a, b, c, d), 'numpy' in sys.modules)\n")
    assert out.strip() == "0.4908655453 0.4908655453 0.695913276 0.75 False"


def _ranges():
    """--rho spellings: the defaults and 20,000 random ranges of 1 to 2,001 points."""
    yield "-1:1:0.1"
    yield "-1:1:0.01"
    yield "0:1:0.25"
    yield "-0:0:1"
    yield "0:1e-10:1"
    yield "-0.5:0.5:0.001"
    rng = random.Random(20230516)
    for _ in range(20_000):
        step = rng.choice([0.1, 0.01, 0.05, 0.001, 0.25, 1 / 3, 0.3, 1e-5, 7.0, rng.uniform(1e-4, 1)])
        start = rng.choice([-1.0, 0.0, -0.5, round(rng.uniform(-1, 1), rng.randint(1, 4)),
                            rng.uniform(-100, 100)])
        stop = start + rng.randint(0, 2000) * step
        yield f"{start!r}:{stop!r}:{step!r}"


def test_rho_points_are_numpy_linspace_bit_for_bit():
    for text in _ranges():
        arg = _RhoRangeArg(text)
        values = arg.values()
        assert all(type(v) is float for v in values)
        want = np.linspace(arg.start, arg.stop, arg.count)
        assert np.array(values).tobytes() == want.tobytes(), text


def _fmt_with_numpy(x) -> str:
    """The formatter as it was when it imported numpy."""
    if isinstance(x, (int, np.integer)) and not isinstance(x, bool):
        return str(int(x))
    return "%.10g" % float(x)


@pytest.mark.parametrize("value", [
    0, 1, -1, 7, 10 ** 10, -(10 ** 12), 2 ** 64, 2 ** 200,
    True, False, np.True_, np.False_,
    0.0, -0.0, 0.1, 1 / 3, 1e-320, 1e300, -2.5e-7, 123456789012.0, float("inf"), float("-inf"),
    float("nan"),
    np.int8(-5), np.int32(123456), np.int64(-(2 ** 63)), np.uint64(2 ** 64 - 1), np.intp(10 ** 12),
    np.float64(0.1), np.float32(0.1), np.float64(1e300), np.float16(65504), np.float64("nan"),
])
def test_fmt_text_is_unchanged(value):
    assert _fmt(value) == _fmt_with_numpy(value)


def test_fmt_without_numpy():
    out = fresh("import sys; from cfb.cli_reports import _fmt; "
                "print(_fmt(10 ** 12), _fmt(0.1), _fmt(True), _fmt(-0.0), 'numpy' in sys.modules)")
    assert out.strip() == "1000000000000 0.1 1 -0 False"


def test_readme_library_example_runs():
    """README's Library block imports only public names and gives the values its comments state."""
    import cfb

    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## Library\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    imported = re.search(r"^from cfb import (.+)$", block, re.MULTILINE)[1].split(", ")
    assert set(imported) <= set(cfb.__all__)
    names = {}
    exec(block, names)
    res = names["res"]
    stated, num, den = re.search(r"^res\.value +# ([\d.]+), below chance \(exactly (\d+)/(\d+)\)$",
                                 block, re.MULTILINE).groups()
    assert res.value == float(stated) < 0.5
    # the exact value's nearest double is one ulp above; rounding in the
    # closed form's terms leaves it below two ulps
    assert abs(res.value - Fraction(int(num), int(den))) < 2 * math.ulp(res.value)
    assert res.value == pytest.approx(res.numerator / res.denominator, abs=1e-15)
    assert 0.0 <= names["table"].entry(">", "<") <= 1.0
