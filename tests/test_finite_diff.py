import numpy as np
import pytest

from finite_diff import finite_diff_gradient, finite_diff_hessian


def test_gradient_of_linear_function_is_exact():
    w = np.array([2.0, -3.0, 0.5])
    grad = finite_diff_gradient(lambda x: float(w @ x), np.zeros(3))
    assert np.allclose(grad, w, atol=1e-9)


def test_gradient_marks_undefined_coordinates():
    def partial(x):
        if abs(x[1]) > 0:
            raise ValueError("no probes here")
        return float(x[0] ** 2)

    grad = finite_diff_gradient(partial, np.array([1.0, 0.0]))
    assert grad[0] == pytest.approx(2.0, abs=1e-6)
    assert np.isnan(grad[1])


def test_hessian_of_quadratic_is_exact():
    a = np.array([[2.0, 0.7], [0.7, 1.2]])
    hess = finite_diff_hessian(lambda x: float(0.5 * x @ a @ x), np.array([0.3, -1.1]))
    assert np.allclose(hess, a, atol=1e-5)
    assert np.array_equal(hess, hess.T)
