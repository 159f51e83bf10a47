"""Photon-information limits and measurement simulation for faint-companion
detection and localization with a circular-aperture telescope.

Subpackages split by concern: analytic field tools (optics, specfun),
quantum information limits (quantum_bounds), sorted-mode machinery
(modebasis), coronagraph models (coronagraph), per-measurement classical
information (classical_info), Monte-Carlo localization (estimation), and
the command-line surface (cli).
"""

__version__ = "0.1.0"
