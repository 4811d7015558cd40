"""The rules every layer checks its inputs by, each written once.

A number is a real number that is not a bool; a switch is a bool, numpy's
too; a choice is one of a few strings; an object is a dict, as JSON
parses one. Each other rule returns the value it checked, unchanged, or
raises ValueError naming it, and showing a numpy scalar as the Python
value it holds:

* ``nonnegative``: ``<name> must be a finite nonnegative number, not <v>``
* ``positive``: ``<name> must be a finite positive number, not <v>``
* ``probability``: ``<name> must be a number in [0, 1], not <v>``
* ``integer``: ``<name> must be an integer of at least n, not <v>``, and
  for an integer past a largest value m ``... of at most m, not <v>``
* ``boolean``: ``<name> must be true or false, not <v>``
* ``choice``: ``<name> must be one of a, b, c, not <v>``
* ``json_object``: ``<name> must be an object, not <v>``, then
  ``<name> is missing key 'k'`` or ``<name> has unknown key 'k'``

Each range is written so that NaN fails it.
"""

import numbers
from math import inf

import numpy as np


def is_number(value):
    """Whether ``value`` is a real number; a bool is none, nor is a string."""
    return isinstance(value, numbers.Real) and not isinstance(value, bool)


def _error(name, form, value):
    shown = value.item() if isinstance(value, np.generic) else value
    return ValueError("%s must be %s, not %r" % (name, form, shown))


def nonnegative(value, name):
    if is_number(value) and 0 <= value < inf:
        return value
    raise _error(name, "a finite nonnegative number", value)


def positive(value, name):
    if is_number(value) and 0 < value < inf:
        return value
    raise _error(name, "a finite positive number", value)


def probability(value, name):
    if is_number(value) and 0 <= value <= 1:
        return value
    raise _error(name, "a number in [0, 1]", value)


def integer(value, name, least, most=None):
    # numpy integers are Integral; bools are too, but not counts
    if (isinstance(value, numbers.Integral) and not isinstance(value, bool)
            and value >= least):
        if most is None or value <= most:
            return value
        raise _error(name, "an integer of at most %d" % most, value)
    raise _error(name, "an integer of at least %d" % least, value)


def boolean(value, name):
    if isinstance(value, (bool, np.bool_)):
        return value
    raise _error(name, "true or false", value)


def choice(value, name, options):
    # only a string is looked up, so an unhashable value fails by the rule
    if isinstance(value, str) and value in options:
        return value
    raise _error(name, "one of " + ", ".join(options), value)


def json_object(value, name, required=(), optional=()):
    # the required and optional keys are every key the object may hold
    if not isinstance(value, dict):
        raise _error(name, "an object", value)
    for key in required:
        if key not in value:
            raise ValueError("%s is missing key '%s'" % (name, key))
    for key in value:
        if key not in required and key not in optional:
            raise ValueError("%s has unknown key '%s'" % (name, key))
    return value
