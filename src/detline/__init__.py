"""Determinant-line calculus, refined torsion, graded determinants of the
odd signature operator, and a closed-form circle model."""

from .circle import (CircleModel, duality_check, eta_circle,
                     hurwitz_zeta_deriv0, metric_scale_check, rho_an_circle,
                     rho_an_closed, rs_norm_check, rs_torsion_circle,
                     split_check, xi_circle, zeta_zero_check)
from .complexes import (CochainComplex, CohomologyElement, CohomologyFrame,
                        alpha_cohomology, cohomology_frame, direct_sum,
                        dual_complex, fused_in_sum_frame, phi, sign_N)
from .errors import SpectralBoundaryError, ValidationError
from .gradedlinalg import (DetElement, GradedDims, alpha_line, alternating_det,
                           beta_line, dual_graded, fuse, sign_M)
from .signature import (EtaData, SignatureOp, SpectralPart, SpectralSplit,
                        build_signature, det_eta_check, eta_finite,
                        graded_det_finite, graded_det_via_xi_eta,
                        pick_agmon_angle, spectral_split, torsion_via_split)
from .torsion import (ChiralityOp, c_gamma, dual_chirality,
                      dual_torsion_check, refined_torsion, sign_R, supertrace,
                      torsion_norm, validate_chirality, variation_check)
from .workbench import (chiral_direct_sum, deserialize_document,
                        gen_elementary, gen_harmonic, gen_random,
                        random_profile, serialize_document)

__version__ = "0.1.0"
