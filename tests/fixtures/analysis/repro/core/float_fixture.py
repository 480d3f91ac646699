"""Fixture: float equality on distances and costs."""


def compare(cost, r, s):
    """Equality against float values."""
    a = cost == 1.5  # line 6: float-equality
    b = 0.0 != cost  # line 7: float-equality
    c = assignment_cost(r, s) == cost  # noqa: F821  line 8: float-equality
    d = cost <= 1.5  # fine: ordering comparison
    e = cost == 1  # fine: integer
    f = cost == 2.0  # repro: ignore[float-equality]  line 11: waived
    g = cost == 3.0  # repro: ignore  line 12: blanket waiver
    return a, b, c, d, e, f, g
