"""Exact finite-field arithmetic, companion-matrix representation maps, and
end-to-end simulators for aligned diagonalization of two-hop 2x2x2
interference channels over F_{p^m} (scalar model) and over F_p with m x m
matrix channels (symbol-extension model), both run by one F_p pipeline."""

from .errors import (DegenerateSpectrum, DimensionMismatch, FieldMismatch,
                     GFAlignError, InconsistentSystem, NotInImage, NotPrime,
                     NotPrimitive, Singular, SingularChannel, TooLarge)
from .feasibility import (DiagFeasibility, FeasibilityStats, McFeasibility,
                          NormalizedRates, diag_exhaustive,
                          diag_symbol_ext_feasibility, exact_fraction,
                          feasibility_stats, lower_bound, mc_feasibility,
                          normalized_rates)
from .gf import (FieldElem, FieldSpec, conjugates, format_element, make_field,
                 minpoly_degree, parse_element, prime_field,
                 primitive_element)
from .linalg import (Mat, block2x2, char_poly, coeff_rows, coeff_vector,
                     companion_matrix, elem_from_coeff_vector,
                     elem_from_matrix_rep, krylov_precoders, lift_matrix,
                     linear_combination_image, matrix_rep, roots_in_field,
                     split_blocks, vector_from_coeff_rows)
from .mimo import (ExtensionPlan, MimoChannel, MimoCodePipeline, MimoPipeline,
                   MimoPrecoders, MimoSimulationReport, build_mimo_precoders,
                   mimo_channel_from_dict, mimo_channel_to_dict, plan_extension,
                   random_mimo_channel, simulate_symbol_codes, simulate_symbol_ext)
from .polys import (Poly, count_irreducible, divisors, factor_poly,
                    format_poly, mobius, parse_poly)
from .scheme import (FeasibilityVerdict, LinearPipeline, MessagePair,
                     PrecoderSet, ScanReport, SimulationReport, TwoHopChannel,
                     all_messages, apply_hop, build_precoders,
                     channel_from_dict, channel_to_dict, check_feasible,
                     destination_decode, draw_channel, draw_valid_channel,
                     exhaustive_scan, random_message, relay_decode,
                     relay_encode, scalar_pipeline, second_hop_inverse,
                     simulate, source_encode)

__version__ = "0.1.0"
