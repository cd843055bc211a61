"""Deterministic simulator and analysis toolkit for privacy-preserving
distributed convex optimization via structured randomization."""

__version__ = "0.1.0"

from .analysis import (BoundParams, audit_invariants, bound_params,
                       check_consensus, check_lemma1, check_lemma2,
                       check_theorem3, check_transition_matrix, compute_metrics,
                       effective_bounds)
from .engine import (ExecutionTrace, StepSchedule, default_init, run_dgd,
                     run_fs, run_rss_lb, run_rss_nb)
from .graphs import (FusionMatrix, Topology, metropolis_weights,
                     spanning_tree_split, vertex_connectivity)
from .noise import (RandomStreams, draw_lb_perturbation, draw_nb_shares,
                    draw_noise_functions, nb_perturbation, obfuscate)
from .objectives import (Box, GlobalProblem, LogisticObjective,
                         PolynomialObjective, QuadraticObjective,
                         estimate_constants, solve_centralized)
from .privacy import (AdversaryView, AlternativeInstance,
                      complete_alternative_objectives, construct_alternative,
                      extract_view, necessity_demo, verify_indistinguishable)
