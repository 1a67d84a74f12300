"""The package namespace: every name exported before `__all__` was built
from the submodules' lists is still exported and importable."""
import importlib

import chasebench as cb

EARLIER_EXPORTS = """
ALGORITHMS EndToEndReport FiniteDistribution FunctionTable GadgetLayout
GameFormatError GraphStream InfeasibleParametersError IntersectScInstance
LpceInstance MatchingLayout OrLpceInstance PcInstance PermutationFamily
ProtocolError ReductionParams RunReport ScInstance Schedule SetFunctionTable
ShortCircuit StreamFormatError StreamMeta StreamingAlgorithm Transcript
alg_bidirectional_bfs alg_directed_frontier alg_forward_bfs alg_union_find
build_distance_gadget build_matching_gadget build_reachability_gadget
c_star_threshold check_almost_uniform choose_params collision_bounds_check
derive_rng end_to_end_solve entropy eval_equal_pc eval_intersect_sc
eval_lpce eval_or_lpce eval_pc eval_sc feasible force_equal
forward_sc_protocol good_set is_r_non_injective kl_divergence
mixture_entropy_check mutual_information oracle_distance
oracle_perfect_matching oracle_reachable overlay parse_game parse_stream
reduce_or_lpce rejection_sample reverse_order_sc_protocol reverse_stream
run_protocol run_streaming sample_intersect_sc sample_permutation_family
sample_set_function sample_uniform_function sample_uniform_lpce
sample_uniform_or_lpce sample_uniform_pc scramble vec_apply serialize_game
serialize_stream set_message_bits two_color
""".split()


def test_earlier_exports_stay_importable():
    assert len(EARLIER_EXPORTS) == 78
    assert set(EARLIER_EXPORTS) <= set(cb.__all__)
    namespace = {}
    exec("from chasebench import *", namespace)
    for name in EARLIER_EXPORTS:
        assert name in namespace, name
        assert getattr(cb, name) is namespace[name]


def test_all_holds_each_submodule_list_once():
    assert len(cb.__all__) == len(set(cb.__all__))
    for module in ("gadgets", "gameio", "games", "info", "oracles", "protocols", "reduction", "streaming"):
        sub = importlib.import_module(f"chasebench.{module}")
        assert set(sub.__all__) <= set(cb.__all__), module
