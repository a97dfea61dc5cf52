"""The runtime needs numpy for library scans only: importing the package and its CLI loads
no scipy and no numpy, and no CLI command loads numpy, on a bundled scenario or on the
truncated Weibull's.  No module imports ``dataclasses``, and no command loads it or
``inspect``.  A command imports the experiment modules it runs, and a scenario's parse
those its optional blocks need.  Modules share helpers by public name only."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"


def run_python(code: str) -> list[str]:
    """Standard output lines of ``python -c code`` with this checkout's package first on the path."""
    path = [str(SRC), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    run = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return run.stdout.splitlines()


def cli_calls_loading(calls: list[list[str]], out: Path, modules: tuple[str, ...] = ("numpy",)) -> list[str]:
    """Run the CLI argument lists in turn in one fresh interpreter; for each, the line
    ``<exit code> <the list of those modules loaded after it>``."""
    code = (
        "import contextlib, io, sys\n"
        "from subtrial.cli import main\n"
        f"for argv in {calls!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):\n"
        f"        exit_code = main([*argv, '--out', {str(out)!r}])\n"
        f"    print(exit_code, [m for m in {modules!r} if m in sys.modules])\n"
    )
    return run_python(code)


def test_cli_solve_and_verify_load_no_numpy(tmp_path):
    calls = [[command, "--scenario", str(path)]
             for path in sorted((ROOT / "scenarios").glob("*.json")) for command in ("solve", "verify")]
    assert len(calls) == 14
    assert cli_calls_loading(calls, tmp_path / "out.csv") == ["0 []"] * len(calls)


def test_no_weibull_command_loads_numpy(tmp_path):
    # the Weibull's surplus is a closed form in the incomplete gamma function: no command needs numpy
    scenario = str(ROOT / "tests" / "scenarios" / "weibull_interior.json")
    calls = [[command, "--scenario", scenario] for command in ("solve", "sweep", "policy", "paid", "hetero", "verify")]
    calls.append(["solve", "--mode", "binding_ir", "--scenario", scenario])
    lines = cli_calls_loading(calls, tmp_path / "out.csv")
    # sweep, paid and hetero need blocks the scenario lacks, and exit 1 after its parse
    assert lines == ["0 []", "1 []", "0 []", "1 []", "1 []", "0 []", "0 []"]


def test_no_command_loads_dataclasses_or_inspect(tmp_path):
    # a command that needs a block its scenario lacks exits 1 after the same parse and imports
    commands = ("solve", "sweep", "policy", "paid", "hetero", "verify")
    calls = [[command, "--scenario", str(path)]
             for path in sorted((ROOT / "scenarios").glob("*.json")) for command in commands]
    assert len(calls) == 42
    lines = cli_calls_loading(calls, tmp_path / "out.csv", ("dataclasses", "inspect"))
    assert [line.split(" ", 1)[1] for line in lines] == ["[]"] * len(calls)
    assert {line.split(" ", 1)[0] for line in lines} == {"0", "1"}


def test_no_module_imports_dataclasses():
    found = []
    for path in sorted((SRC / "subtrial").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found += [f"{path.name}: {a.name}" for a in node.names if a.name.split(".")[0] == "dataclasses"]
            elif isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "dataclasses":
                found.append(f"{path.name}: from {node.module}")
    assert found == []


def test_a_solve_loads_no_experiment_module(tmp_path):
    # monopoly_limit has no signup, shock or mixture block, so neither its parse nor its solve needs their modules
    argv = ["solve", "--scenario", str(ROOT / "scenarios" / "monopoly_limit.json"), "--out", str(tmp_path / "out.csv")]
    code = (
        "import contextlib, io, sys\n"
        "from subtrial.cli import main\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    exit_code = main({argv!r})\n"
        "loaded = [m for m in ('paid', 'policy', 'heterogeneity', 'verify') if 'subtrial.' + m in sys.modules]\n"
        "print(exit_code, loaded)\n"
    )
    assert run_python(code) == ["0 []"]


def test_package_and_cli_import_no_scipy_and_no_numpy():
    code = (
        "import sys, subtrial, subtrial.cli; print(subtrial.__file__); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')); "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'numpy'))"
    )
    package_file, scipy_modules, numpy_modules = run_python(code)
    assert Path(package_file).resolve().is_relative_to(SRC)
    assert scipy_modules == "[]"
    assert numpy_modules == "[]"


PUBLIC_NAMES = [
    "AttentionMixture", "AttentionParams", "BetaCurve", "ComparativeStaticsReport", "Contract", "MarketOutcome",
    "MonitoringSolution", "OptimalContract", "PaidTrialOptimum", "PiecewiseIsoElastic", "PolicyShock",
    "PriceWindow", "SignupModel", "SolverConfig", "TruncatedWeibull", "Uniform", "ValuationDistribution",
    "aggregate_loss", "apply_shock", "beta_profit_curve", "check_ifr", "click_to_cancel_statics",
    "consumer_utility", "cross_partial_check", "effective_lambda", "entropy", "inattentive_revenue",
    "intro_price_foc", "ir_slack", "joint_optimum", "joint_paid_optimum", "lambda_crit",
    "mandatory_reminder_limit", "mps_pair", "optimal_intro_price", "optimal_q", "p_aug", "price_foc",
    "price_response_curve", "profit", "profit_paid", "psi_curvature", "q_derivatives", "signup_rate",
    "solve_price", "solve_trial", "trial_foc",
]
SUBMODULES = ["consumer", "distributions", "exceptions", "heterogeneity", "market", "paid", "policy", "solver"]


def test_package_import_loads_no_submodule():
    code = "import sys, subtrial; print(sorted(m for m in sys.modules if m.startswith('subtrial.')))"
    assert run_python(code) == ["[]"]


def test_star_import_binds_every_public_name():
    code = "from subtrial import *; print(sorted(n for n in dir() if not n.startswith('_')))"
    assert run_python(code) == [repr(PUBLIC_NAMES)]


def test_submodules_resolve_as_attributes_and_unknown_names_raise():
    code = (
        "import subtrial, types\n"
        f"print([isinstance(getattr(subtrial, m), types.ModuleType) for m in {SUBMODULES!r}])\n"
        "print(subtrial.solver.joint_optimum is subtrial.joint_optimum)\n"
        "try:\n    subtrial.no_such_name\nexcept AttributeError as exc:\n    print(exc)\n"
    )
    assert run_python(code) == [
        repr([True] * len(SUBMODULES)), "True", "module 'subtrial' has no attribute 'no_such_name'",
    ]


# the scalar types and numpy's lazily bound kernels are shared low-level aliases, not helpers,
# and the CLI alone chooses the scan route
SHARED_PRIVATE = {("distributions", "_SCALAR"), ("distributions", "_NUMPY"), ("distributions", "_use_plain_grids")}


def test_no_module_imports_a_private_name_from_a_sibling():
    found = []
    for path in sorted((SRC / "subtrial").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("subtrial")):
                sibling = (node.module or "").rpartition(".")[2]
                found += [
                    f"{path.name}: {sibling}.{alias.name}"
                    for alias in node.names
                    if alias.name.startswith("_") and (sibling, alias.name) not in SHARED_PRIVATE
                ]
    assert found == []
