"""bklab: numerical laboratory for the two-dimensional Schrodinger
inverse boundary value problem.

Submodules
----------
grid        uniform grids, masked domains, boundary quadrature, field files
lorentz     Lorentz / Sobolev-Lorentz / Bessel norms from rearrangements
cauchy      Cauchy and Beurling transforms, boundary Cauchy integral
cutoffs     explicit cut-off weights and annulus kernel norms
stationary  complex Gaussian kernel and the smoothing operator
bukhgeim    oscillating-solution fixed point and decay-rate sweeps
boundary    Dirichlet solver, DN pairing, Cauchy-data distance
recon       potential reconstruction and the stability experiment
"""

from .grid import (Grid, PhaseParams, Disk, Polygon, DomainSpec, make_grid,
                   make_domain, boundary_belt, save_field, load_field,
                   save_domain, load_domain)
from .lorentz import (LorentzIndex, lorentz_norm, sobolev_lorentz_norm,
                      bessel_norm)
from .cauchy import (ConvolutionPlan, get_plan, cauchy, conj_cauchy,
                     wirtinger, beurling, boundary_cauchy, ibp_check)
from .cutoffs import (CutoffBundle, build_h1, build_h2, tune_h2,
                      annulus_kernel_norms)
from .stationary import (kernel_multiplier, smooth, kernel_dft_check,
                         phase_holder_check)
from .bukhgeim import (BukhgeimSolution, SweepRecord, apply_S, solve_f,
                       assemble_u, pde_residual, carleman_sweep)
from .boundary import (DirichletProblem, forward_solve, dn_pairing,
                       alessandrini_check, cauchy_distance, FamilySpec)
from .recon import (reconstruct_interior, reconstruct_boundary,
                    reconstruct_pairing, stability_experiment,
                    StabilityConfig, bump_field, make_z0_lattice)

__version__ = "0.1.0"
