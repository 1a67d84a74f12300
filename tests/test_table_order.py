"""One players' table order: `tables()` is what the file format, the gadget
streams and the reduction's pre-round all read."""
import itertools

import numpy as np
import pytest

import chasebench as cb
from chasebench import gadgets, reduction

KINDS = ["pc", "sc", "lpce", "orlpce", "intersectsc"]


def _sample(kind: str, rng: np.random.Generator):
    """An instance of `kind` with n, p (and r, t) drawn from rng, and its
    header sizes."""
    n = int(rng.integers(1, 7))
    p = int(rng.integers(1, 4))
    r = int(rng.integers(1, n + 2))
    t = int(rng.integers(1, 4))
    if kind == "pc":
        return cb.sample_uniform_pc(n, p, rng), {"n": n, "p": p}
    if kind == "sc":
        return cb.sample_intersect_sc(n, p, rng).left, {"n": n, "p": p}
    if kind == "lpce":
        return cb.sample_uniform_lpce(n, p, r, rng), {"n": n, "p": p, "r": r}
    if kind == "orlpce":
        return cb.sample_uniform_or_lpce(n, p, r, t, rng), {"n": n, "p": p, "r": r, "t": t}
    return cb.sample_intersect_sc(n, p, rng), {"n": n, "p": p}


def _one_table_text(table) -> str:
    """The rows serialize_game writes for `table` alone."""
    chase = cb.PcInstance if isinstance(table, cb.FunctionTable) else cb.ScInstance
    return cb.serialize_game(chase(table.n, 1, (table,))).partition("table 0\n")[2]


@pytest.mark.parametrize("kind", KINDS)
def test_file_tables_and_the_inverse_follow_tables(kind):
    rng = cb.derive_rng(2020, KINDS.index(kind))
    for _ in range(15):
        inst, sizes = _sample(kind, rng)
        tables = inst.tables()
        blocks = cb.serialize_game(inst).split("table ")[1:]
        assert len(blocks) == len(tables)
        for i, (block, table) in enumerate(zip(blocks, tables)):
            label, _, rows = block.partition("\n")
            assert (label, rows) == (str(i), _one_table_text(table))
        assert type(inst).from_tables(tables, **sizes) == inst


@pytest.mark.parametrize("kind", ["lpce", "intersectsc"])
def test_two_chase_tables_put_the_left_chase_first(kind):
    inst, sizes = _sample(kind, cb.derive_rng(2021, KINDS.index(kind)))
    p = sizes["p"]
    assert inst.tables()[:p] == inst.left.funcs and inst.tables()[p:] == inst.right.funcs


def test_or_tables_are_item_major():
    inst = cb.sample_uniform_or_lpce(3, 2, 2, 3, cb.derive_rng(2022))
    assert inst.tables() == sum((item.tables() for item in inst.items), ())


def test_gadget_block_i_holds_exactly_table_i():
    rng = cb.derive_rng(2023)
    for _ in range(30):
        k = int(rng.integers(1, 7))
        depth = int(rng.integers(1, 4))
        inst = cb.sample_intersect_sc(k, depth, rng, include_prob=float(rng.uniform(0.0, 0.8)))
        block, slots = gadgets._table_edges(inst)
        assert np.all(block[1:] >= block[:-1])
        for i, table in enumerate(inst.tables()):
            rows = np.arange(k).repeat(np.diff(table.offsets))
            assert np.array_equal(slots[:, block == i], [rows, table.values])
        assert block.size == sum(table.total_image_size() for table in inst.tables())


def _nested_loop_witness(inst: cb.OrLpceInstance):
    """The (item, side, layer) search that _find_non_injective replaced."""
    for j, item in enumerate(inst.items):
        for side, chase in enumerate((item.left, item.right)):
            for i, f in enumerate(chase.funcs):
                if cb.is_r_non_injective(f, inst.r):
                    return (j, side, i)
    return None


@pytest.mark.parametrize("t", [1, 2, 3])
@pytest.mark.parametrize("p", [1, 2, 3])
def test_non_injective_witness_equals_the_nested_loop(p, t):
    n, r = 4, 2  # permutations are injective, a constant table is not
    rng = cb.derive_rng(2024, p, t)
    perms = [[rng.permutation(n) for _ in range(2 * p)] for _ in range(t)]

    def instance(forced):
        items = []
        for j in range(t):
            images = [np.zeros(n, dtype=np.int64) if (j, s, i) in forced else perms[j][s * p + i]
                      for s in range(2) for i in range(p)]
            funcs = [cb.FunctionTable(n, image) for image in images]
            left, right = cb.PcInstance(n, p, funcs[:p]), cb.PcInstance(n, p, funcs[p:])
            items.append(cb.LpceInstance(left, right, r))
        return cb.OrLpceInstance(t, tuple(items))

    positions = list(itertools.product(range(t), range(2), range(p)))
    assert reduction._find_non_injective(instance(set())) is None
    for k, pos in enumerate(positions):
        for forced in ({pos}, set(positions[k:])):  # one table, and it with every later one
            inst = instance(forced)
            assert reduction._find_non_injective(inst) == _nested_loop_witness(inst) == pos
