"""Exception types shared across the package."""


class InputError(ValueError):
    """Raised when an argument violates an operation's precondition."""


class ResourceLimitError(RuntimeError):
    """Raised when a computation would exceed a configured size bound."""


class ParseError(ValueError):
    """Raised on malformed catalog or design text; carries a line number."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class DesignError(ValueError):
    """Raised when an incidence structure fails a 2-design axiom.

    The offending blocks, points, or point pair are kept on the exception
    so negative tests can assert on the witness.  A message that names
    points is a template with one `{}` per entry of `points` (a point or a
    tuple of points): str() numbers them from 0, as the package does, and
    `labelled(1)` from 1, as design files do.
    """

    def __init__(self, message, witness=None, points=()):
        self.template, self.points = message, tuple(points)
        super().__init__(self.labelled(0))
        self.witness = witness

    def labelled(self, first):
        """The message with its points numbered from `first`."""
        if not self.points:
            return self.template
        return self.template.format(*(
            p + first if isinstance(p, int) else tuple(x + first for x in p)
            for p in self.points))


class ConstructionError(RuntimeError):
    """Raised when a construction's internal consistency check fails."""
