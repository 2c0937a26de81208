"""The paper's contribution: meld labelling, object versioning, and VSFS.

- :mod:`repro.core.meld` — *meld labelling* (§IV-B), a prelabelling
  extension for arbitrary directed graphs with a pluggable meld operator.
- :mod:`repro.core.versioning` — object versioning of an SVFG via meld
  labelling (§IV-C): prelabel STORE yields and δ-node consumes, propagate,
  intern the melded label sets into dense version ids.
- :mod:`repro.core.vsfs` — versioned staged flow-sensitive points-to
  analysis (§IV-D): flow-sensitive solving with one *global* points-to set
  per ``(object, version)`` instead of per-node IN/OUT sets.
"""

from repro.core.meld import MeldLabelling
from repro.core.versioning import ObjectVersioning, VersioningStats, version_objects
from repro.core.vsfs import VSFSAnalysis

__all__ = [
    "MeldLabelling",
    "ObjectVersioning",
    "VersioningStats",
    "version_objects",
    "VSFSAnalysis",
]
