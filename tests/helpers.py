"""Helpers shared by the test modules."""


def field_elements(field):
    """All q elements of the field, in representative order."""
    return map(field.from_index, range(field.q))


def field_units(field):
    """The q - 1 nonzero elements of the field, in representative order."""
    return map(field.from_index, range(1, field.q))
