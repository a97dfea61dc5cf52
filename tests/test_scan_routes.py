"""The plain scan route (float-tuple grids, scanned point by point without numpy, as the CLI
runs) against the array route (numpy grids, one call per scan, as library calls run).

Both routes do the same IEEE arithmetic in the same order.  Their transcendental kernels
differ: the plain route calls libm's exp, expm1 and log1p, while numpy may dispatch SIMD
kernels that are an ulp off libm's on some inputs.  So the bitwise comparisons of scan
values run the array route with those numpy kernels replaced by libm's, element by
element (``libm_kernels``); where numpy's kernels are libm's, that replacement changes
nothing.  As shipped, the grids are bitwise equal (the locus grid is libm's powers of ten
on both routes), the hazard diagnostics are equal, the decisions on the scan draws are
equal, and the bundled CLI pairs write the same bytes on both routes.
"""

import contextlib
import math
import random

import numpy as np
import pytest

from subtrial import cli, distributions, scenario
from subtrial.cli import EXIT_OK, EXIT_SOLVER, EXIT_VALIDATION
from subtrial.distributions import (argmax, argmax_bracket, check_ifr, geometric_grid, lambda_crit, linear_grid,
                                    window_max)
from subtrial.solver import _locus_x, _on_locus, _window_scan, _window_table, joint_optimum
from subtrial.verify import gauss_legendre
from test_array_scans import SCAN_DRAWS, bits, scan_lambdas
from test_golden_csv import BINDING, BINDING_FAILS, GOLDEN, SCENARIOS, cli_pairs, run_binding, run_pair


@contextlib.contextmanager
def plain_route():
    previous = distributions._use_plain_grids(True)
    try:
        yield
    finally:
        distributions._use_plain_grids(previous)


def both_routes(fn):
    """(array route result, plain route result) of fn()."""
    array = fn()
    with plain_route():
        return array, fn()


@pytest.fixture
def libm_kernels(monkeypatch):
    """numpy's transcendental kernels replaced by libm's, element by element."""
    for name, fn in (("exp", math.exp), ("expm1", math.expm1), ("log1p", math.log1p)):
        monkeypatch.setattr(distributions._NUMPY, name, np.vectorize(fn, otypes=[float]))


def same_bits(array, plain) -> bool:
    assert type(plain) is tuple and isinstance(array, np.ndarray)
    return np.array_equal(bits(array), bits(plain))


def decision(draw, mode: str) -> dict:
    """Everything a solve returns, floats in hex or repr, or its exception type and message."""
    config = draw.config._replace(participation_mode=mode)
    try:
        opt = joint_optimum(draw.dist, draw.params, config)
    except Exception as exc:  # a failure is a decision too
        return {"raised": type(exc).__name__, "message": str(exc)}
    return {"T": opt.contract.T.hex(), "P": opt.contract.P.hex(), "flags": sorted(opt.boundary_flags),
            "residuals": repr(opt.foc_residuals), "outcome": repr(opt.outcome),
            "participation": opt.participation_satisfied}


def outcome(fn):
    """fn(), or the type of the exception it raises."""
    try:
        return fn()
    except Exception as exc:  # an unbounded hazard is an outcome here
        return type(exc)


def random_ends(rng: random.Random, i: int) -> tuple[float, float]:
    if i % 2:  # a price window
        lo = rng.random() * 10.0 ** -rng.randrange(4)
        return lo, lo + (1.0 - lo) * rng.random() * 10.0 ** -rng.randrange(12)
    return rng.uniform(-3.0, 3.0), rng.uniform(-3.0, 3.0)  # the log10 ends of a locus grid


class TestGrids:
    SIZES = (2, 4, 7, 17, 41, 65, 257, 513)

    def test_linear_grids_are_bitwise_equal(self):
        rng = random.Random(21)
        for i in range(4_000):
            lo, hi = random_ends(rng, i)
            n = self.SIZES[i % len(self.SIZES)]
            assert same_bits(*both_routes(lambda: linear_grid(lo, hi, n))), (lo, hi, n)

    def test_geometric_grids_are_bitwise_equal(self):
        rng = random.Random(22)
        for i in range(4_000):
            lo = 10.0 ** rng.uniform(-2.0, 3.0)
            hi = lo * 10.0 ** (rng.choice((1.0, -1.0)) * rng.uniform(1e-9, 4.0))
            n = self.SIZES[i % len(self.SIZES)]
            assert same_bits(*both_routes(lambda: geometric_grid(lo, hi, n))), (lo, hi, n)


def test_gauss_legendre_literals_are_leggauss_bitwise():
    """The float-literal rule against numpy's leggauss(32), composed into three panels as numpy
    arrays; verify's total mass walks it without numpy, the Weibull surplus dots it with numpy."""
    x, w = np.polynomial.legendre.leggauss(32)
    nodes, weights = gauss_legendre()
    assert same_bits(((np.arange(3)[:, None] + (x + 1.0) / 2.0) / 3.0).ravel(), nodes)
    assert same_bits(np.tile(w / 6.0, 3), weights)


class TestScans:
    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_window_table_and_scans(self, libm_kernels, draw):
        array, plain = both_routes(lambda: _window_table(draw.dist, draw.config))
        assert len(array) == len(plain) == 4
        assert all(same_bits(a, p) for a, p in zip(array, plain))
        for lam in scan_lambdas(draw):
            assert same_bits(_window_scan(array, lam), _window_scan(plain, lam))

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_window_scans_have_the_same_signs_as_shipped(self, draw):
        array, plain = both_routes(lambda: _window_table(draw.dist, draw.config))
        assert same_bits(array[0], plain[0])
        for lam in scan_lambdas(draw):
            assert np.array_equal(np.sign(_window_scan(array, lam)), np.sign(_window_scan(plain, lam)))

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_locus_scan(self, libm_kernels, draw):
        w, config = draw.config.price_window, draw.config
        x_top, x_bottom = _locus_x(w.p_hi, config), _locus_x(w.p_lo, config)
        array, plain = both_routes(lambda: geometric_grid(x_top, x_bottom, config.bracket_grid + 1))
        assert same_bits(array, plain)
        f = lambda x: _on_locus(draw.dist, x)
        assert same_bits(f(array), tuple(map(f, plain)))

    @pytest.mark.parametrize("draw", SCAN_DRAWS, ids=lambda d: repr(d.dist))
    def test_check_ifr_and_lambda_crit(self, draw):
        w = draw.config.price_window
        for grid_n in (16, 33, 64):
            array, plain = both_routes(lambda: check_ifr(draw.dist, w, grid_n))
            assert array == plain
        array, plain = both_routes(lambda: outcome(lambda: lambda_crit(draw.dist, w)))
        assert array == plain


class TestDecisions:
    @pytest.mark.parametrize("mode", ["report_only", "binding_ir"])
    def test_joint_optimum_is_bitwise_equal(self, libm_kernels, mode):
        for draw in SCAN_DRAWS:
            array, plain = both_routes(lambda: decision(draw, mode))
            assert array == plain, repr(draw.dist)

    @pytest.mark.parametrize("mode", ["report_only", "binding_ir"])
    def test_joint_optimum_agrees_as_shipped(self, mode):
        """The whole decision, bitwise: scan values may differ in the last bits, but not their
        signs, so the scalar polish refines the same brackets of the same grids."""
        for draw in SCAN_DRAWS:
            array, plain = both_routes(lambda: decision(draw, mode))
            assert array == plain, repr(draw.dist)


def test_solves_run_no_ifr_diagnostic(monkeypatch):
    """An increasing hazard does not make a price root unique, so every locus candidate is
    checked against the best price at its lambda_eff, and no solve asks ``check_ifr``."""
    def diagnostic(*args):
        raise AssertionError("check_ifr ran inside a solve")

    monkeypatch.setattr("subtrial.solver.check_ifr", diagnostic, raising=False)
    monkeypatch.setattr(distributions, "check_ifr", diagnostic)
    sc, weibull = scenario.load(SCENARIOS / "interior_uniform.json"), SCAN_DRAWS[2]
    assert isinstance(weibull.dist, distributions.TruncatedWeibull)
    for dist, params, config in ((sc.distribution, sc.attention, sc.solver),
                                 (weibull.dist, weibull.params, weibull.config)):
        array, plain = both_routes(lambda: joint_optimum(dist, params, config))
        assert array.is_interior and array == plain


class TestCraftedValues:
    """The argmax helpers on either kind of grid: NaN, ties, signed zeros and infinities.
    ``TestSignChangeMask`` checks the root scan on plain tuples."""

    CRAFTED = [
        [1.0, 3.0, 3.0, 2.0],  # a tie: the first
        [-0.0, 0.0, -0.0],  # signed zeros tie
        [1.0, math.nan, 5.0, math.nan],  # the first NaN
        [math.nan, 1.0],
        [-math.inf, -math.inf],
        [2.0, math.inf, 1.0, math.inf],
        [0.5],
    ]

    def test_argmax_is_numpys(self):
        rng = random.Random(24)
        pool = [0.0, -0.0, 1.0, -1.0, 2.0, math.nan, math.inf, -math.inf]
        cases = self.CRAFTED + [[rng.choice(pool) for _ in range(rng.randrange(1, 9))] for _ in range(500)]
        for values in cases:
            assert argmax(values) == int(np.argmax(values)), values
            grid = tuple(float(i) for i in range(len(values)))
            assert argmax_bracket(grid, values) == argmax_bracket(np.array(grid), values)

    @pytest.mark.parametrize("f", [lambda v: -abs(v - 0.4), lambda v: min(v, 0.55), lambda v: v, lambda v: -v,
                                   lambda v: math.floor(8.0 * v) / 8.0])
    def test_window_max_on_both_grids(self, f):
        array, plain = both_routes(lambda: window_max(f, linear_grid(0.05, 0.95, 65), 1e-12))
        assert array == plain and type(array[0]) is type(plain[0]) is float


class TestCli:
    def test_pairs_write_the_same_bytes_on_the_array_route(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(cli, "_use_plain_grids", lambda plain: distributions._plain)
        for command, scenario in cli_pairs():
            out = tmp_path / f"{command}.{scenario}.csv"
            assert run_pair(command, scenario, out) == 0
            assert out.read_bytes() == (GOLDEN / out.name).read_bytes(), out.name
        for path in sorted(BINDING.iterdir()):
            scenario = path.name.split(".")[1]
            code, err = run_binding(scenario, tmp_path / path.name)
            if scenario in BINDING_FAILS:
                assert (code, err) == (EXIT_SOLVER, path.read_text())
            else:
                assert (code, (tmp_path / path.name).read_bytes()) == (EXIT_OK, path.read_bytes())

    def test_main_restores_the_array_route(self, tmp_path, monkeypatch, capsys):
        """After a success, a scenario error, a solver error and an exception alike."""
        def hetero_raises(*args):
            raise RuntimeError("a fault inside a command")

        monkeypatch.setitem(cli.COMMANDS, "hetero", hetero_raises)
        out = ["--out", str(tmp_path / "out.csv")]
        runs = [(["solve", "--scenario", str(SCENARIOS / "baseline_uniform.json")], EXIT_OK),
                (["solve", "--scenario", str(SCENARIOS / "iso_elastic_curve.json"), "--mode", "binding_ir"],
                 EXIT_SOLVER),
                (["sweep", "--scenario", str(SCENARIOS / "interior_uniform.json")], EXIT_VALIDATION),
                (["hetero", "--scenario", str(SCENARIOS / "hetero_spread.json")], RuntimeError)]
        for argv, want in runs:
            assert outcome(lambda: cli.main([*argv, *out])) == want, argv
            assert distributions._plain is False
            assert isinstance(linear_grid(0.1, 0.2, 3), np.ndarray)
