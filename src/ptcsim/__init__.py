"""Behavioral simulator and analytical cost model for a time-multiplexed
multi-tile photonic tensor-core accelerator.  Its public names are its
modules' __all__ lists, each declared only there, gathered in __all__."""

from . import catalog, costs, engine, mlp, quantize, scheduler
from .catalog import *  # noqa: F403
from .costs import *  # noqa: F403
from .engine import *  # noqa: F403
from .mlp import *  # noqa: F403
from .quantize import *  # noqa: F403
from .scheduler import *  # noqa: F403

__all__ = [name for module in (catalog, costs, engine, mlp, quantize, scheduler) for name in module.__all__]
__version__ = "0.1.0"
