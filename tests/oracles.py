"""Slow, independent reference computations that the tests check the
library against.  Nothing here is imported by the package itself."""


def roots_by_enumeration(f, ext):
    """All roots of f in ext, ascending by code, by evaluating f at every
    element of ext."""
    return [e for e in ext.elements() if not f(e).code]
