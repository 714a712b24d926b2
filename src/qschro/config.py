"""Tunable numerical constants, collected in one place.

Verdicts produced by the condition checkers and the null-space probe are
numerical classifications, not proofs; the margins below make the
classification rules explicit and reproducible.
"""

# Default degree cap for user-constructed piecewise polynomials.  Products
# may exceed the cap internally (degree doubles), the cap only guards input.
DEGREE_CAP = 8

# |Y| threshold that triggers log-rescaling of a propagated state.
RESCALE_THRESHOLD = 1e100

# Step-size floor, relative to the integration interval length.
MIN_STEP_FRACTION = 1e-14

# Most sub-steps and Taylor steps one walk (a shot or a dense integration)
# may take; past it the walk stops with StepBudgetError instead of running
# out of memory or time.  A dense walk of 1e5 exact sub-steps peaks near
# 260 MB (75 MB of rows).  The benchmark's walks take at most 230 steps; a
# test's 42,147 (a probe), but for the budget tests and one 49,000-step walk.
MAX_WALK_STEPS = 100_000

# Null-space probe: "grows" needs N(Tmax) >= GROWTH_FACTOR * N(T0) with a
# monotone trend AND the outermost window doubling still adding at least
# SUSTAINED_MIN relative mass; "bounded" needs the increment over that
# doubling to stay within SATURATION_FRACTION of the final value.  The
# doubling runs from the largest window at most half of the last one.
PROBE_GROWTH_FACTOR = 100.0
PROBE_SATURATION_FRACTION = 0.01
PROBE_SUSTAINED_MIN = 0.05
# A window's N is resolved when it is above PROBE_FLOOR * eps times the
# largest eigenvalue of its Gram matrix: below that, the pair is parallel
# to rounding and N is noise (the benchmark's delta-well oracle allows
# 64 eps e^{2T} of Gram rounding).
PROBE_FLOOR = 64.0

# Partial integrals I(T) of 1/m are "divergence-consistent" when the outer
# half of the horizon still contributes at least this fraction of I(X).
DIVERGENCE_MARGIN_FRACTION = 0.05

# Growth-envelope and per-interval-constant trend tolerance: outer-block
# maxima may exceed inner-block maxima by this relative slack and still
# count as "non-increasing" (bounded) on the horizon.
ENVELOPE_GROWTH_TOL = 0.05

# Blocks used when scanning envelope trends over a horizon.
ENVELOPE_BLOCKS = 8

# Shooting acceptance: |D(lambda)| <= CHAR_TOL * (cancellation scale of D);
# a refined root is also accepted at its noise floor (CharValue.floor).
CHAR_TOL = 1e-9

# The real eigenvalue scan refines sign changes of Re D, which is valid only
# when D is real along the scan: it refuses at the first grid node, in grid
# order, where |Im D|/|D| exceeds this, and shoots no node past it.
# Real s and Q with r = 0 give exactly 0; formally symmetric data with a
# real r != 0 do not (r = 0.7 on (0, pi) gives 0.809 at lambda = 2), which
# ROADMAP item 14 takes up.
SCAN_REAL_TOL = 1e-8

# Upper bound on the points of an eigenvalue scan grid or a bracket sample
# grid read from a problem file: one shot or one sample per point.
MAX_GRID_POINTS = 10_000

# Shots with D'(lambda) that refine one Newton seed or one scan bracket.
NEWTON_MAX_ITER = 50

# Eigenvalues closer than this are merged as duplicates.
EIG_MERGE_TOL = 1e-8

# Jump height below which a quasi-derivative is treated as continuous
# (absolute, scaled by the local state magnitude).
JUMP_TOL = 1e-8
