"""The package namespace: every name exported before `__all__` was built
from the submodules' lists is still exported and importable, and every
exported record that holds arrays follows the one frozen-record rule."""
import dataclasses
import importlib
import typing

import numpy as np
import pytest

import chasebench as cb
from chasebench.util import FrozenRecord

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


def test_every_exported_array_record_uses_the_frozen_base():
    records = [
        obj for name in cb.__all__
        if dataclasses.is_dataclass(obj := getattr(cb, name)) and isinstance(obj, type)
    ]
    with_arrays = {
        cls.__name__ for cls in records
        if np.ndarray in typing.get_type_hints(cls).values()
    }
    # the walk must see at least the five records known to hold arrays
    assert with_arrays >= {
        "FiniteDistribution", "FunctionTable", "GraphStream", "PermutationFamily", "SetFunctionTable"
    }
    for name in with_arrays:
        assert issubclass(getattr(cb, name), FrozenRecord), name


ARRAY_RECORDS = {
    "FunctionTable": lambda: cb.FunctionTable(3, [2, 0, 1]),
    "SetFunctionTable": lambda: cb.SetFunctionTable(3, [0, 1, 1, 2], [2, 0]),
    "GraphStream": lambda: cb.GraphStream(3, False, 0, 2, 0, [[0, 1], [1, 2]]),
    "PermutationFamily": lambda: cb.sample_permutation_family(4, 2, 2, cb.derive_rng(3)),
    "FiniteDistribution": lambda: cb.FiniteDistribution.uniform(4),
}


@pytest.mark.parametrize("name", sorted(ARRAY_RECORDS))
def test_array_records_compare_by_value_and_are_unhashable(name):
    a, b = ARRAY_RECORDS[name](), ARRAY_RECORDS[name]()
    assert a == b and not a != b and a == dataclasses.replace(a)
    assert a != object()
    with pytest.raises(TypeError):
        hash(a)



NON_INTEGRAL_RECORDS = {
    "FunctionTable": lambda v: cb.FunctionTable(3, [v, 1, 2]),
    "SetFunctionTable": lambda v: cb.SetFunctionTable(2, [0, 1, 2], [v, 0.0]),
    "GraphStream": lambda v: cb.GraphStream(3, False, 0, 2, 0, [[v, 1.0]]),
    "PermutationFamily": lambda v: cb.PermutationFamily(2, [[[v, 1.0]]], [[[v, 1.0]]]),
}


@pytest.mark.parametrize("name", sorted(NON_INTEGRAL_RECORDS))
def test_integer_records_refuse_values_the_cast_would_change(name):
    build = NON_INTEGRAL_RECORDS[name]
    # 1e30, -1e30 and 2.0**63 are floats beyond int64, whose cast overflows
    for bad in (0.5, 0.9, 1.99, np.nan, np.inf, -np.inf, np.float32(0.5), 1e30, -1e30, 2.0**63):
        with pytest.raises(ValueError, match="change under the cast to int64"):
            build(bad)
    # values the cast keeps still pass, as floats, bools or other integer types
    for good in (0.0, False, np.int32(0), np.uint8(0)):
        assert build(good) == build(0)
