"""Exception types shared across the package.

Parse-time problems subclass :class:`GraphFormatError` so callers (the CLI in
particular) can treat "bad input file" uniformly; everything else derives
from :class:`GraphSolitonsError`.
"""


class GraphSolitonsError(Exception):
    """Base class for all package-specific errors."""


class GraphFormatError(GraphSolitonsError, ValueError):
    """Base class for malformed graph / subspace input."""


class MalformedLine(GraphFormatError):
    """A line of an input file could not be parsed."""


class SelfLoop(GraphFormatError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphFormatError):
    """The same unordered vertex pair occurs twice."""


class IndexOutOfRange(GraphFormatError):
    """A vertex index lies outside 1..p."""


class GroupTooLarge(GraphSolitonsError):
    """Automorphism enumeration refused: too many vertices."""


class NotAnAutomorphism(GraphSolitonsError, ValueError):
    """The supplied vertex permutation does not preserve the edge set."""


class EmptyEdgeSet(GraphSolitonsError, ValueError):
    """The operation needs at least one edge."""


class NotSymmetric(GraphSolitonsError, ValueError):
    """A symmetric matrix was required."""


class UnknownFamily(GraphSolitonsError, ValueError):
    """The family template matches none of the supported shapes."""


class WeightingMismatch(GraphSolitonsError, ValueError):
    """A weighting's length does not match the graph's edge count."""


class DegenerateGram(GraphSolitonsError, ValueError):
    """A Gram matrix is not symmetric positive definite."""


class NotGraphAlgebra(GraphSolitonsError, ValueError):
    """The metric Lie algebra was not built from a graph."""


class DimensionMismatch(GraphSolitonsError, ValueError):
    """Vector / matrix dimensions do not match the ambient object."""


class NotPositiveGraph(GraphSolitonsError, ValueError):
    """The construction needs a positive graph (all edge weights > 0)."""


class RankDeficientBasis(GraphSolitonsError, ValueError):
    """The rows supplied as a subspace basis are linearly dependent."""


class NotAPermutation(GraphSolitonsError, ValueError):
    """A tuple of images is not a permutation of 1..n."""


class InvalidFamilySpec(GraphSolitonsError, ValueError):
    """A family template's sizes, flags or block pairs are inconsistent."""


class InvalidArgument(GraphSolitonsError, ValueError):
    """A numeric argument lies outside its documented range."""


class NotReducedEchelon(GraphSolitonsError, ValueError):
    """A subspace basis given directly is not in reduced row echelon form."""


class SingularMatrix(GraphSolitonsError, ValueError):
    """A square matrix that must be invertible is singular."""
