"""A minimal Adam optimiser for the numpy models."""

from __future__ import annotations

import numpy as np

from repro.exceptions import ModelError


class AdamOptimizer:
    """Adam (Kingma & Ba, 2015) over a named collection of numpy parameters.

    Parameters are registered once; ``step`` applies one update given a
    mapping of gradients with the same keys and shapes.
    """

    def __init__(
        self,
        parameters: dict[str, np.ndarray],
        learning_rate: float = 1e-3,
        beta1: float = 0.9,
        beta2: float = 0.999,
        epsilon: float = 1e-8,
    ):
        if learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ModelError("betas must be in [0, 1)")
        self.learning_rate = learning_rate
        self.beta1 = beta1
        self.beta2 = beta2
        self.epsilon = epsilon
        self._parameters = parameters
        self._m = {name: np.zeros_like(value) for name, value in parameters.items()}
        self._v = {name: np.zeros_like(value) for name, value in parameters.items()}
        #: two parameter-shaped work buffers per parameter, so a step
        #: allocates nothing.
        self._scratch = {
            name: (np.empty_like(value), np.empty_like(value))
            for name, value in parameters.items()
        }
        self._t = 0

    def step(self, gradients: dict[str, np.ndarray]) -> None:
        """Apply one Adam update in place on the registered parameters.

        Every ufunc writes into the moments, the work buffers or the
        parameter; the operations and their operands are those of
        ``m = b1*m + (1-b1)*g``, ``v = b2*v + (1-b2)*g*g`` and
        ``param -= lr * m_hat / (sqrt(v_hat) + eps)``, so the result is the
        same bit for bit.
        """
        self._t += 1
        beta1, beta2 = self.beta1, self.beta2
        correction1 = 1.0 - beta1**self._t
        correction2 = 1.0 - beta2**self._t
        for name, grad in gradients.items():
            if name not in self._parameters:
                raise ModelError(f"gradient for unknown parameter {name!r}")
            param = self._parameters[name]
            if grad.shape != param.shape:
                raise ModelError(
                    f"gradient shape {grad.shape} does not match parameter "
                    f"{name!r} shape {param.shape}"
                )
            m, v = self._m[name], self._v[name]
            step, denom = self._scratch[name]
            np.multiply(m, beta1, out=m)
            np.multiply(grad, 1.0 - beta1, out=step)
            np.add(m, step, out=m)
            np.multiply(v, beta2, out=v)
            np.multiply(grad, grad, out=step)
            np.multiply(step, 1.0 - beta2, out=step)
            np.add(v, step, out=v)
            np.divide(m, correction1, out=step)  # m_hat
            np.divide(v, correction2, out=denom)  # v_hat
            np.sqrt(denom, out=denom)
            np.add(denom, self.epsilon, out=denom)
            np.multiply(step, self.learning_rate, out=step)
            np.divide(step, denom, out=step)
            np.subtract(param, step, out=param)

    @property
    def num_steps(self) -> int:
        return self._t
