"""Hybrid force-velocity control synthesis for quasi-static contact tasks.

Per time step the solver decides how many actuated directions to velocity
control, which directions those are, the velocity magnitudes, and the force
command in the remaining directions, such that the goal motion is enforced
and all contact guard conditions hold with the largest possible margin.
"""

__version__ = "0.1.0"
