import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import numpy as np
import pytest
import scipy.sparse

import siplab
from siplab.graphs import detailed_balance_residual, path_graph
from siplab.reporting import (ENERGY_RTOL, GAP_RTOL, IDENTITY_RTOL, SPECTRAL_RTOL, TV_SLACK,
                              identity_check, max_abs, pattern_identity_check, sandwich)


def _assert_same_as_dense(lhs, rhs):
    """identity_check and max_abs read the sparse sides as their dense copies."""
    sparse = identity_check("x", lhs, rhs)
    dense = identity_check("x", lhs.toarray(), rhs.toarray())
    assert (sparse.residual, sparse.tolerance) == (dense.residual, dense.tolerance)
    for side in (lhs, rhs):
        assert max_abs(side) == float(np.abs(side.toarray()).max())


def test_sparse_product_with_unsorted_indices():
    rng = np.random.default_rng(0)
    a = scipy.sparse.random_array((40, 30), density=0.2, format="csr", rng=rng)
    b = scipy.sparse.random_array((30, 40), density=0.2, format="csr", rng=rng)
    lhs, rhs = a @ b, a @ (b * 1.001)
    assert not lhs.has_sorted_indices and not rhs.has_sorted_indices
    _assert_same_as_dense(lhs, rhs)


def test_coo_side_from_a_broadcast_multiply():
    rng = np.random.default_rng(1)
    a = scipy.sparse.random_array((30, 30), density=0.2, format="csr", rng=rng)
    weights = rng.uniform(-2.0, 2.0, 30)
    lhs = a * weights[None, :]
    assert lhs.format == "coo"
    _assert_same_as_dense(lhs, a * (1.0 + 1e-6 * weights[None, :]))
    flux = weights[:, None] * a
    assert detailed_balance_residual(a, weights) == float(np.abs(
        (flux - flux.T).toarray()).max())


def test_coo_with_duplicate_coordinates():
    # (0, 1) holds 5 and -4.5, which sum to 0.5; the largest entry is -2 at (1, 2)
    lhs = scipy.sparse.coo_array((np.array([5.0, -2.0, -4.5]),
                                  (np.array([0, 1, 0]), np.array([1, 2, 1]))), shape=(3, 3))
    assert not lhs.has_canonical_format
    rhs = scipy.sparse.coo_array((np.array([0.25, 0.25, -2.0]),
                                  (np.array([0, 0, 1]), np.array([1, 1, 2]))), shape=(3, 3))
    _assert_same_as_dense(lhs, rhs)
    assert max_abs(lhs) == 2.0
    assert identity_check("x", lhs, rhs).residual == 0.0


def test_pattern_terms_land_on_their_cells_past_int32_keys():
    """On a 70,000-state pattern the keys row * S + column pass 2^31, and int32 cells,
    as scipy's indices are, still land on their stored cells; weights scale the rows,
    terms on one cell are summed, and a term off the pattern is compared with 0."""
    size = 70_000
    pattern = scipy.sparse.csr_array((np.array([2.0, 3.0]), (np.array([5, 69_999]),
                                                              np.array([69_998, 1]))),
                                     shape=(size, size))
    weights = np.ones(size)
    weights[69_999] = 0.5
    rows = np.array([69_999, 5, 69_999], dtype=np.int32)
    cols = np.array([1, 69_998, 1], dtype=np.int32)
    check, sums = pattern_identity_check("x", pattern, weights, rows, cols,
                                         np.array([1.0, 2.0, 0.5]))
    assert check.passed and check.residual == 0.0 and sums.tolist() == [2.0, 1.5]
    check, sums = pattern_identity_check("x", pattern, weights, np.append(rows, 69_999),
                                         np.append(cols, 2), np.array([1.0, 2.0, 0.5, 0.25]))
    assert not check.passed and check.residual == 0.25 and sums.tolist() == [2.0, 1.5]


_SELECTORS = {"rtol", "tol", "slack", "cap", "n_phi", "fail_below", "min_expected"}


def _siplab_functions():
    """(qualified name, function) of every function and method defined in siplab."""
    for info in pkgutil.iter_modules(siplab.__path__):
        module = importlib.import_module(f"siplab.{info.name}")
        for name, obj in vars(module).items():
            if getattr(obj, "__module__", None) != module.__name__:
                continue
            if inspect.isfunction(obj):
                yield f"{module.__name__}.{name}", obj
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    member = getattr(member, "__func__", getattr(member, "fget",
                                                                 getattr(member, "func", member)))
                    if inspect.isfunction(member):
                        yield f"{module.__name__}.{name}.{attr}", member


def test_no_function_selects_its_own_tolerance_cap_or_threshold():
    functions = dict(_siplab_functions())
    assert "siplab.intertwiners.Level.gap" in functions and len(functions) > 150
    selecting = {name: sorted(_SELECTORS & set(inspect.signature(fn).parameters))
                 for name, fn in functions.items()}
    assert {name: params for name, params in selecting.items() if params} == {}
    stationary_test = functions["siplab.simulate.stationary_chi_square"]
    assert "level" not in inspect.signature(stationary_test).parameters


def test_the_shared_bounds_are_written_only_in_reporting():
    shared = {IDENTITY_RTOL, SPECTRAL_RTOL, ENERGY_RTOL, GAP_RTOL, TV_SLACK}
    assert shared == {1e-10, 1e-9, 1e-8}
    for path in Path(siplab.__file__).parent.glob("*.py"):
        literals = {node.value for node in ast.walk(ast.parse(path.read_text()))
                    if isinstance(node, ast.Constant) and type(node.value) is float}
        assert path.name == "reporting.py" or not literals & shared, path.name


def test_the_sandwich_states_equality_only_when_alpha_min_is_at_least_one():
    for alpha, names in ((0.2, ["lower", "upper"]), (0.999, ["lower", "upper"]),
                         (1.0, ["lower", "upper", "equality"]),
                         (3.0, ["lower", "upper", "equality"])):
        graph = path_graph(3, alpha=[alpha, 5.0, 5.0])
        gap_rw = graph.walk_spectrum.gap
        assert list(sandwich(graph, gap_rw)) == names
        assert set(sandwich(graph, gap_rw).values()) == {0.0}
    low = path_graph(2, alpha=[0.2, 0.2])  # gap_rw = 0.4, lower bound 0.08
    assert sandwich(low, 0.05) == {"lower": pytest.approx(0.03), "upper": 0.0}
    assert sandwich(low, 0.5) == {"lower": 0.0, "upper": pytest.approx(0.1)}
