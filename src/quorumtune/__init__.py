"""quorumtune — tunable quorum consistency, end to end.

Exact consistency-level math for (r, w, n) quorum replication, an inverse
solver from a desired level to quorum parameters, online clustering that
learns application-indicator/level mappings, a tiny expression language for
declaring indicators, a Monte-Carlo replica simulator, and an RMSE sweep
harness with a CLI.
"""

# Each module's ``__all__`` is its public interface; the package re-publishes
# those lists unchanged, so a public name is listed only in its own module.
from . import clustering, errors, indicator, quorum, simulate, sweeps
from .clustering import *  # noqa: F403
from .errors import *  # noqa: F403
from .indicator import *  # noqa: F403
from .quorum import *  # noqa: F403
from .simulate import *  # noqa: F403
from .sweeps import *  # noqa: F403

__version__ = "0.1.0"

__all__ = [
    "__version__",
    *errors.__all__,
    *quorum.__all__,
    *clustering.__all__,
    *indicator.__all__,
    *simulate.__all__,
    *sweeps.__all__,
]
