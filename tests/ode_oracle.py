"""The two-body loss ODE dN/dt = -N/tau - (beta/V) N^2, integrated by
classical fourth-order Runge-Kutta: the oracle of the closed-form survival
``fitting.model_two_body_loss``."""


def rk4_two_body(n0, t_end, tau, bv, steps=6000):
    """N(t_end) from N(0) = n0, in ``steps`` equal RK4 steps; ``bv`` is
    beta/V."""
    n = n0
    h = t_end / steps

    def f(n):
        return -n / tau - bv * n * n

    for _ in range(steps):
        k1 = f(n)
        k2 = f(n + 0.5 * h * k1)
        k3 = f(n + 0.5 * h * k2)
        k4 = f(n + h * k3)
        n += h / 6 * (k1 + 2 * k2 + 2 * k3 + k4)
    return n
