"""Default tolerances and iteration budget of the numeric checkers.

They live apart from hoq.choi_numeric, which re-exports them, so that the
command line can show them as defaults without importing numpy.
"""

DEFAULT_TOL = 1e-9      # membership tolerance
DEFAULT_FEAS_TOL = 1e-6  # check_admissible's PSD precheck tolerance
DEFAULT_MAX_ITER = 10000
