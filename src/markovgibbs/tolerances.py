"""Every comparison bound the package applies to floating-point values.

Exact chains (Fraction entries) compare exactly and read none of these.
"""

# Perron and stationary-vector residuals, relative to the root: both solves end within a few ulps.
RESIDUAL_TOL = 1e-12
# Column sums of float stochastic input, which is then rescaled to exact stochasticity.
COLUMN_SUM_TOL = 1e-9
# Relative gap at which two chain entries are one value, and absolute gap at which an entry is 1.
VALUE_MATCH_TOL = 1e-9
# Absolute gap between two simple-cycle sums of log entries (cohomology checks).
CYCLE_SUM_TOL = 1e-10
# Char-poly coefficient gap, relative to the largest coefficient at a grid point.
CHAR_POLY_TOL = 1e-10
# Spectrum range [0, h_top], monotone decay rates, and recognising the grid point q = 1.
SPECTRUM_TOL = 1e-9
# Touch of the diagonal at q = 1: entropy and alpha come from a root and a derivative.
DIAGONAL_TOL = 1e-8
