"""Simulation engine: cadCAD-style state-update executor plus a
discrete-event kernel.

The paper built its simulator on the cadCAD engine; this subpackage is
the from-scratch equivalent (see DESIGN.md substitutions): models are
state dictionaries evolved through ordered blocks of policy and update
functions, executed deterministically across timesteps and Monte-Carlo
runs (parameter sweeps live in :mod:`repro.sweeps`).
:mod:`repro.engine.des` adds an event queue for time-based behaviour
(amortization, churn).
"""

from .des import Event, EventScheduler, PeriodicEvent
from .results import Record, ResultSet
from .rng import derive_seed, run_seed, substream
from .simulation import SimulationConfig, Simulator
from .state import Block, Model, Policy, StepContext, Updater

__all__ = [
    "Block",
    "Event",
    "EventScheduler",
    "Model",
    "PeriodicEvent",
    "Policy",
    "Record",
    "ResultSet",
    "SimulationConfig",
    "Simulator",
    "StepContext",
    "Updater",
    "derive_seed",
    "run_seed",
    "substream",
]
