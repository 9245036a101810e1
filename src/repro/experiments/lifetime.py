"""The ``lifetime`` exhibit's default axes: aged-device capacity planning.

The exhibit itself is the registry spec
:class:`~repro.service.jobs.LifetimeJob`, which runs
:func:`repro.lifetime.lifetime_sweep`; ``python -m repro lifetime``
fills its axes from these defaults — the Figure-8 device-improvement
configurations plus the ION baseline and all four Table-1 media (ages
default to :data:`repro.lifetime.DEFAULT_AGES`).  ROADMAP's "device
lifetime scenarios" item: the Table-2 matrix as a function of device
age.
"""

from __future__ import annotations

from .configs import DEVICE_SWEEP_LABELS

__all__ = ["LIFETIME_LABELS", "LIFETIME_KINDS"]

#: default config axis: the device-improvement sweep plus the shared
#: ION baseline, the configurations whose lifetime a deployment planner
#: would actually compare
LIFETIME_LABELS = DEVICE_SWEEP_LABELS + ("ION-GPFS",)

#: default media axis (all Table-1 kinds, by name)
LIFETIME_KINDS = ("SLC", "MLC", "TLC", "PCM")
