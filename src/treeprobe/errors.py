"""Exception types shared across the package."""


class InvalidTreeError(ValueError):
    """Input describes no tree that can exist: a malformed tree file,
    several roots, a cycle, a parent out of range, a degree above the
    bound, a bad edge weight, or a node count and degree bound that no
    tree fits."""


class InconsistentOracleError(RuntimeError):
    """Oracle answers are consistent with no directed rooted tree.

    Raised when the driver's audit finds a denial of an edge it was about
    to return, when the two nodes of a 2-node node set both reach or both
    miss each other, or in the additive regime when a node below the root
    reads depth 0 or the audit reads an edge out of the root
    differently. Not every lie is caught, so a run that hears lies can
    return a wrong tree. An oracle that answers every query truly never
    triggers this. When the reconstruction driver raises it, ``stats``
    holds the driver's counters up to the failure.
    """

    def __init__(self, message: str, stats=None):
        super().__init__(message)
        self.stats = stats
