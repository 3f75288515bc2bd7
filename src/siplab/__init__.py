"""siplab: exact spectral analysis of inclusion particle systems,
their labeled (lookdown) representations, and the dual energy
diffusion, on finite weighted graphs, with Monte Carlo cross checks."""

__version__ = "0.1.0"

from .errors import (EigensolverError, InputError, SiplabError, StateCapError,
                     VerificationError)
from .graphs import (Graph, RwGenerator, Spectrum, build_rw_generator, complete_graph,
                     cycle_graph, graph_from_dict, graph_from_edges, graph_from_preset,
                     load_graph, path_graph, random_connected_graph, rw_dirichlet_form,
                     rw_spectrum, rw_variance)
from .configs import (ConfigSpace, SipMeasure, enumerate_configs, inner_product,
                      rank_composition, sip_measure, space_size, unrank_composition,
                      variance)
from .sip import (GapReport, SipGenerator, build_sip_generator, gap_sandwich_report,
                  sip_dirichlet_form, sip_gap, sip_spectrum, transition_matrix, tv_sandwich)
from .intertwiners import (Level, build_annihilation, build_creation, build_shifted_walks,
                           check_adjoint, check_intertwinings, dirichlet_decomposition_check,
                           dirichlet_form_identity, eigen_dichotomy, eigen_groups, fresh_basis,
                           invert_annihilation, ladder_bound, ladder_covered,
                           lift_eigenfunction, minmax_comparison_check, peeling_block,
                           shifted_walk_forms, shifted_walks_clear)
from .lookdown import (LabeledLevel, build_labeled_generators, check_labeled_identities,
                       check_stationary_law, drop_top_pullback, labeled_index,
                       labeled_states, labeled_stationary_measure, symmetrizer,
                       unlabel_map)
from .bep import (BepGapReport, HomogPolynomial, SimplexMeasure, apply_bep_generator,
                  bep_gap_report, bep_matrix, poly_lift, simplex_measure)
from .simulate import (SimConfig, TrajectorySummary, projection_test, relaxation_estimate,
                       simulate, stationary_chi_square)
