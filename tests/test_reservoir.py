"""Reservoir construction, exact propagation, sampling, and fading memory."""

import collections
import hashlib
import json
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import stochres as sr
import stochres.rng
from stochres.errors import (
    DepthViolation,
    DriveBoundViolation,
    DriveDerivativeViolation,
    EmptyAfterWashout,
    InsufficientTrials,
    InvalidInput,
    InvalidSamples,
    LocalityViolation,
    NonfiniteDrive,
    NumericCheckFailure,
    StochasticityViolation,
)
from stochres.reservoir import (
    DENSE_ENTRIES_PER_OP,
    RENORM_DRIFT_TOL,
    BitstringDistribution,
    InputMeasure,
    InputSequence,
    ReservoirSpec,
    SAMPLE_BLOCK,
    SAMPLE_STEPS,
    _BitCounts,
    _BlockOp,
    _ExactSteps,
    _GatherOp,
    _KernelCounts,
    _KernelOp,
    _cdf_columns,
    _count_frequencies,
    _count_steps,
    _op_parts,
    _whole_block_counts_pay,
    asymmetric_flip_gate,
    cnot_gate,
    constant_gate,
    controlled_flip_gate,
    eval_drive_fn,
    fading_memory_error,
    flip_gate,
    identity_gate,
    permutation_gate,
    sample_trajectories,
    set_gate,
    swap_gate,
)
from stochres.rng import stream

from helpers import (
    dense_gate_matrix,
    dense_step_oracle,
    random_mixed_reservoir,
    random_physical_reservoir,
    reference_sample_shot,
)


# --- construction and validation -------------------------------------------

def test_build_identity_accepted():
    spec = ReservoirSpec(n=2, gates=[identity_gate(0)])
    res = sr.build_reservoir(spec)
    assert res.n == 2 and res.dim == 4


def test_build_rejects_locality_violation():
    big = constant_gate((0, 1, 2, 3), np.eye(16))
    spec = ReservoirSpec(n=4, gates=[big], k_max=2)
    with pytest.raises(LocalityViolation):
        sr.build_reservoir(spec)


def test_build_rejects_depth_violation():
    spec = ReservoirSpec(n=2, gates=[identity_gate(0)] * 9, depth_bound=8)
    with pytest.raises(DepthViolation):
        sr.build_reservoir(spec)


def test_build_rejects_drive_derivative_violation():
    # clip(u^20) has slope 20*u^19, hitting 20 at |u| = 1, above the 4n = 8
    # default budget at n = 2; the finite-difference probe must catch it.
    steep = flip_gate(0, {"type": "poly", "coeffs": [0.0] * 20 + [1.0]})
    spec = ReservoirSpec(n=2, gates=[steep], drive_domain=(-1.0, 1.0))
    with pytest.raises(DriveDerivativeViolation):
        sr.build_reservoir(spec)


def test_gentle_drive_passes_derivative_check():
    spec = ReservoirSpec(n=2, gates=[flip_gate(0, {"type": "poly", "coeffs": [0.5, 0.4]})])
    sr.build_reservoir(spec)


def test_build_rejects_non_stochastic_kernel():
    bad = constant_gate((0,), [[0.5, 0.6], [0.2, 0.8]])
    with pytest.raises(StochasticityViolation):
        sr.build_reservoir(ReservoirSpec(n=1, gates=[bad]))


# --- the two-rate bit kernel behind the drive-dependent kinds ----------------

_POLY = {"type": "poly", "coeffs": [0.5, 0.5]}  # p = (1 + u) / 2: 0 and 1 at the ends
_SLOPE = {"type": "poly", "coeffs": [0.2, 0.1]}

_CLOSED_FORM = {
    "flip": lambda d: [[1 - d["drive"], d["drive"]], [d["drive"], 1 - d["drive"]]],
    "set": lambda d: [[1 - d["drive"], d["drive"]], [1 - d["drive"], d["drive"]]],
    "asymmetric_flip": lambda d: [[1 - d["drive01"], d["drive01"]],
                                  [d["drive10"], 1 - d["drive10"]]],
    "controlled_flip": lambda d: [[1, 0, 0, 0], [0, 1, 0, 0],
                                  [0, 0, 1 - d["drive"], d["drive"]],
                                  [0, 0, d["drive"], 1 - d["drive"]]],
}


@pytest.mark.parametrize("gate, static", [
    (flip_gate(0, 0.3), True),
    (flip_gate(0, _POLY), False),
    (set_gate(0, 0.3), True),
    (set_gate(0, 1.0), True),
    (set_gate(0, _POLY), False),
    (asymmetric_flip_gate(0, 0.1, 0.4), True),
    (asymmetric_flip_gate(0, 0.1, _SLOPE), False),
    (asymmetric_flip_gate(0, _POLY, _SLOPE), False),
    (controlled_flip_gate(0, 1, 0.2), True),
    (controlled_flip_gate(0, 1, _POLY), False),
], ids=["flip-constant", "flip-poly", "set-constant", "set-one", "set-poly",
        "asymmetric-constant", "asymmetric-mixed", "asymmetric-poly",
        "controlled-constant", "controlled-poly"])
def test_two_rate_kinds_match_their_closed_form(gate, static):
    us = np.linspace(-1.0, 1.0, 41)
    stack = gate.kernel(us)
    for i, u in enumerate(us):
        drives = {name: float(eval_drive_fn(spec, u)) for name, spec in gate.params.items()}
        expected = np.array(_CLOSED_FORM[gate.kind](drives), dtype=float)
        if gate.kind == "set" and 0.0 < drives["drive"] < 1.0:
            # entry (1, 1) is 1 - (1 - p): off from p by at most half an ulp of 1
            assert np.array_equal(stack[i, 0], expected[0])
            assert stack[i, 1, 0] == expected[1, 0]
            assert abs(stack[i, 1, 1] - expected[1, 1]) <= 6e-17
        else:
            assert np.array_equal(stack[i], expected)
    assert gate.is_static is static


def test_spec_json_form_of_every_two_rate_kind_is_pinned():
    spec = ReservoirSpec(n=2, gates=[
        flip_gate(0, 0.25), set_gate(1, _POLY), asymmetric_flip_gate(0, 0.1, _SLOPE),
        controlled_flip_gate(0, 1, 0.2)])
    assert spec.to_json() == (
        '{"depth_bound": 8, "derivative_bound": 8.0, "drive_domain": [-1.0, 1.0], "gates": ['
        '{"derivative_bound": null, "kernel_kind": "flip", '
        '"params": {"drive": {"type": "constant", "value": 0.25}}, "support": [0]}, '
        '{"derivative_bound": null, "kernel_kind": "set", '
        '"params": {"drive": {"coeffs": [0.5, 0.5], "type": "poly"}}, "support": [1]}, '
        '{"derivative_bound": null, "kernel_kind": "asymmetric_flip", '
        '"params": {"drive01": {"type": "constant", "value": 0.1}, '
        '"drive10": {"coeffs": [0.2, 0.1], "type": "poly"}}, "support": [0]}, '
        '{"derivative_bound": null, "kernel_kind": "controlled_flip", '
        '"params": {"drive": {"type": "constant", "value": 0.2}}, "support": [0, 1]}], '
        '"initial_state": [0.25, 0.25, 0.25, 0.25], "k_max": 2, "n": 2}'
    )


# --- exact stepping ----------------------------------------------------------

def test_step_identity_keeps_state():
    res = sr.build_reservoir(ReservoirSpec(n=2, gates=[identity_gate(0), identity_gate(1)]))
    state = np.array([0.1, 0.2, 0.3, 0.4])
    out = sr.step_exact(res, state, 0.3)
    np.testing.assert_allclose(out, state, atol=1e-15)


def test_step_single_bit_flip():
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.3)]))
    out = sr.step_exact(res, np.array([1.0, 0.0]), 0.0)
    np.testing.assert_allclose(out, [0.7, 0.3], atol=1e-15)


def test_step_matches_dense_matrix_oracle():
    gen = np.random.default_rng(12)
    gates = []
    for _ in range(5):
        i, j = gen.choice(4, size=2, replace=False)
        gates.append(constant_gate((int(i), int(j)), gen.dirichlet(np.ones(4), size=4)))
    gates.append(flip_gate(2, {"type": "poly", "coeffs": [0.4, 0.3]}))
    spec = ReservoirSpec(n=4, gates=gates)
    res = sr.build_reservoir(spec)
    state = gen.dirichlet(np.ones(16))
    for u in (-0.8, 0.0, 0.65):
        expected = dense_step_oracle(spec, state, u)
        got = sr.step_exact(res, state, u)
        assert np.max(np.abs(got - expected)) < 1e-12


def test_step_rejects_nonfinite_drive():
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.2)]))
    with pytest.raises(NonfiniteDrive):
        sr.step_exact(res, np.array([1.0, 0.0]), float("nan"))


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
def test_step_preserves_simplex(seed, n):
    gen = np.random.default_rng(seed)
    spec = random_physical_reservoir(n, gen)
    res = sr.build_reservoir(spec)
    state = gen.dirichlet(np.ones(2 ** n))
    out = sr.step_exact(res, state, float(gen.uniform(-1, 1)))
    assert np.all(out >= -1e-13)
    assert abs(out.sum() - 1.0) < 1e-12


# --- compiled step plan ------------------------------------------------------

def _spans(op, n):
    """Whether ``op`` is a block op on all ``n`` bits of the register."""
    return type(op) is _BlockOp and op.matrix.shape == (2 ** n,) * 2


def test_plan_fuses_adjacent_permutations_into_one_gather():
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.05))
    kinds = [type(op).__name__ for op in res.plan.ops]
    # three swaps fuse; the set gate stays a kernel op; the four static
    # flips fold into one block op spanning all 4 bits
    assert kinds == ["_GatherOp", "_KernelOp", "_BlockOp"]
    assert _spans(res.plan.ops[2], 4)
    parts = res.plan.ops[2].parts
    assert all(type(op) is _KernelOp for op in parts)
    assert [(op.index, op.gate) for op in parts] == list(enumerate(res.gates))[4:]


def test_scan_family_folds_through_n8_and_not_at_n9():
    def folds(n):
        res = sr.build_reservoir(sr.shift_register_flip_family(n, 0.05))
        return any(_spans(op, n) for op in res.plan.ops)

    assert folds(8) and not folds(9)


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 8))
def test_folded_step_matches_dense_oracle(seed, n):
    # a trailing run of static gates long enough to fold at this n
    gen = np.random.default_rng(seed)
    spec = random_mixed_reservoir(n, gen)
    length = max(2, -(-4 ** n // DENSE_ENTRIES_PER_OP))
    spec.gates += [constant_gate((int(gen.integers(n)),), gen.dirichlet(np.ones(2), size=2))
                   for _ in range(length)]
    spec.depth_bound = len(spec.gates)
    res = sr.build_reservoir(spec)
    assert isinstance(res.plan.ops[-1], _BlockOp)
    state = gen.dirichlet(np.ones(2 ** n))
    for u in gen.uniform(-1, 1, 2):
        expected = dense_step_oracle(spec, state, u)
        assert np.max(np.abs(sr.step_exact(res, state, u) - expected)) < 1e-13


@pytest.mark.parametrize("n, blocks", [(9, [6, 3]), (10, [5, 5]), (11, [4, 4, 3])]
                         + [(n, [n]) for n in range(2, 9)])
def test_scan_family_flips_fold_into_bit_blocks_above_n8(n, blocks):
    res = sr.build_reservoir(sr.shift_register_flip_family(n, 0.05))
    kinds = [type(op).__name__ for op in res.plan.ops]
    assert kinds == ["_GatherOp", "_KernelOp"] + ["_BlockOp"] * len(blocks)
    ends = np.cumsum(blocks).tolist()
    for op, start, end in zip(res.plan.ops[2:], [0] + ends, ends):
        assert [(part.index, part.gate) for part in op.parts] == \
            list(enumerate(res.gates))[n + start:n + end]
        assert op.matrix.shape == (2 ** (end - start),) * 2


def test_static_gates_fold_onto_the_bits_they_touch():
    # two constant gates on bits 0 and 1 of six: one 4 x 4 block, not a
    # 64 x 64 matrix of the whole register
    gen = np.random.default_rng(3)
    spec = ReservoirSpec(n=6, gates=[
        flip_gate(5, {"type": "poly", "coeffs": [0.3, 0.1]}),
        constant_gate((0,), gen.dirichlet(np.ones(2), size=2)),
        constant_gate((1,), gen.dirichlet(np.ones(2), size=2))])
    res = sr.build_reservoir(spec)
    assert [type(op).__name__ for op in res.plan.ops] == ["_KernelOp", "_BlockOp"]
    block = res.plan.ops[1]
    assert block.matrix.shape == (4, 4)
    np.testing.assert_array_equal(
        block.matrix, np.kron(spec.gates[1].kernel(0.0), spec.gates[2].kernel(0.0)))
    state = gen.dirichlet(np.ones(2 ** 6))
    for u in (-0.5, 0.7):
        expected = dense_step_oracle(spec, state, u)
        assert np.max(np.abs(sr.step_exact(res, state, u) - expected)) < 1e-13


@settings(max_examples=8, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(9, 10))
def test_block_folded_step_matches_dense_oracle(seed, n):
    # a trailing run of static gates too short to fold into a block op
    # spanning all n bits
    gen = np.random.default_rng(seed)
    spec = random_mixed_reservoir(n, gen)
    for _ in range(int(gen.integers(2, 9))):
        bits = gen.choice(n, size=int(gen.integers(1, 3)), replace=False)
        spec.gates.append(constant_gate(tuple(int(b) for b in bits),
                                        gen.dirichlet(np.ones(2 ** bits.size), size=2 ** bits.size)))
    spec.depth_bound = len(spec.gates)
    res = sr.build_reservoir(spec)
    assert not any(_spans(op, n) for op in res.plan.ops)
    assert any(isinstance(op, _BlockOp) for op in res.plan.ops)
    state = gen.dirichlet(np.ones(2 ** n))
    u = gen.uniform(-1, 1)
    expected = dense_step_oracle(spec, state, u)
    assert np.max(np.abs(sr.step_exact(res, state, u) - expected)) < 1e-13


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5))
def test_plan_step_matches_dense_oracle(seed, n):
    gen = np.random.default_rng(seed)
    spec = random_mixed_reservoir(n, gen)
    res = sr.build_reservoir(spec)
    state = gen.dirichlet(np.ones(2 ** n))
    for u in gen.uniform(-1, 1, 2):
        expected = dense_step_oracle(spec, state, u)
        assert np.max(np.abs(sr.step_exact(res, state, u) - expected)) < 1e-12


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 5))
def test_plan_permutation_only_step_is_the_composed_permutation(seed, n):
    gen = np.random.default_rng(seed)
    spec = random_mixed_reservoir(n, gen, permutations_only=True)
    res = sr.build_reservoir(spec)
    composed = np.eye(2 ** n)
    for gate in spec.gates:
        composed = composed @ dense_gate_matrix(n, gate.support, gate.kernel(0.0))
    state = gen.dirichlet(np.ones(2 ** n))
    np.testing.assert_array_equal(sr.step_exact(res, state, 0.3), state[np.argmax(composed, axis=0)])


# --- running sequences -------------------------------------------------------

def test_run_constant_identity_reservoir():
    init = BitstringDistribution(np.array([0.2, 0.3, 0.4, 0.1]))
    res = sr.build_reservoir(ReservoirSpec(n=2, gates=[identity_gate(0)], initial_state=init))
    seq = InputSequence(np.zeros((7, 1)), washout_length=2)
    out = sr.run_exact(res, seq)
    assert out.shape == (5, 4)
    np.testing.assert_allclose(out, np.tile(init.probs, (5, 1)), atol=1e-14)


def test_run_memoryless_ignores_earlier_inputs():
    gates = [set_gate(0, {"type": "poly", "coeffs": [0.5, 0.25]}),
             set_gate(1, {"type": "poly", "coeffs": [0.5, -0.25]})]
    res = sr.build_reservoir(ReservoirSpec(n=2, gates=gates))
    gen = np.random.default_rng(0)
    drives = gen.uniform(-1, 1, 10)
    seq_a = InputSequence(drives[:, None], washout_length=0)
    shuffled = drives.copy()
    shuffled[:-1] = shuffled[:-1][::-1]
    seq_b = InputSequence(shuffled[:, None], washout_length=0)
    out_a = sr.run_exact(res, seq_a)
    out_b = sr.run_exact(res, seq_b)
    np.testing.assert_allclose(out_a[-1], out_b[-1], atol=1e-14)


def test_run_equals_iterated_steps():
    gen = np.random.default_rng(5)
    spec = random_physical_reservoir(3, gen)
    res = sr.build_reservoir(spec)
    drives = gen.uniform(-1, 1, 12)
    seq = InputSequence(drives[:, None], washout_length=0)
    out = sr.run_exact(res, seq)
    np.testing.assert_array_equal(out, _step_loop(res, drives, 0))


@pytest.mark.parametrize("n", [1, 2, 4])
def test_run_on_continuous_drives_equals_step_loop_bit_for_bit(n):
    # the run builds each gate's kernels for all its distinct drives in
    # one array-valued evaluation; a step builds them for its drive alone
    gen = np.random.default_rng(30 + n)
    spec = random_physical_reservoir(n, gen)
    spec.gates.append(asymmetric_flip_gate(
        0, {"type": "logistic", "rate": 1.5, "center": 0.1, "lo": 0.05, "hi": 0.3},
        {"type": "poly", "coeffs": [0.2, 0.1]}))
    spec.depth_bound = len(spec.gates)
    res = sr.build_reservoir(spec)
    drives = gen.choice(gen.uniform(-1, 1, 150), size=400)  # repeats on purpose
    out = sr.run_exact(res, InputSequence(drives, washout_length=50))
    assert np.array_equal(out, _step_loop(res, drives, 50))


@settings(max_examples=20, deadline=None)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
def test_plan_stacks_equal_per_drive_kernels_bit_for_bit(seed, n):
    gen = np.random.default_rng(seed)
    res = sr.build_reservoir(random_mixed_reservoir(n, gen))
    us = gen.uniform(-1, 1, 7)
    steps = _ExactSteps(res.plan, us)
    for op, stacked in zip(res.plan.ops, steps.kernels):
        for i, u in enumerate(us):
            single = op.kernel(float(u))
            assert (stacked is None) == (single is None)
            if single is None:
                continue
            # the kernel, and the sampler's table of it: _cdf_columns of a
            # kernel, or of a stack of them
            for table, one in ((stacked, single), (_cdf_columns(stacked), _cdf_columns(single))):
                assert np.array_equal(table[i] if op.varies else table, one)


def test_run_on_folded_plan_equals_step_loop_bit_for_bit():
    spec = sr.shift_register_flip_family(6, 0.05)
    res = sr.build_reservoir(spec)
    assert any(_spans(op, 6) for op in res.plan.ops)
    drives = np.random.default_rng(6).integers(0, 2, 300).astype(float)
    out = sr.run_exact(res, InputSequence(drives, washout_length=20))
    assert np.array_equal(out, _step_loop(res, drives, 20))


def _tables(steps):
    """The whole-step matrices of an :class:`_ExactSteps`, by value index."""
    return {i: table for i, (table, _) in enumerate(steps.steps) if table is not None}


@pytest.mark.parametrize("n", range(2, 10))
def test_binary_scan_run_tabulates_one_whole_step_per_drive_value_through_n8(n):
    # 4**n <= 2n * DENSE_ENTRIES_PER_OP holds through n = 8; a call builds
    # one table per 0/1 set kernel
    res = sr.build_reservoir(sr.shift_register_flip_family(n, 0.05))
    drives = np.random.default_rng(n).integers(0, 2, 40).astype(float)
    tables = _tables(_ExactSteps(res.plan, np.unique(drives)))
    assert len(tables) == (2 if n <= 8 else 0)
    for matrix in tables.values():
        assert matrix.shape == (2 ** n, 2 ** n)


def test_run_exact_holds_no_whole_step_table_once_it_returns():
    # at n = 8 the run's two tables take 1 MB; they live for the call only
    res = sr.build_reservoir(sr.shift_register_flip_family(8, 0.05))
    drives = np.random.default_rng(8).integers(0, 2, 40).astype(float)
    tracemalloc.start()
    try:
        out = sr.run_exact(res, InputSequence(drives, washout_length=5))
        held = tracemalloc.get_traced_memory()[0] - out.nbytes
    finally:
        tracemalloc.stop()
    assert held < 0.25 * 2 ** 20


def test_drive_values_with_equal_01_kernels_share_one_table():
    # the clipped set drive is 0 for u <= 0 and 1 for u >= 0.5: many
    # drive values, two kernel tuples, two distinct tables
    res = sr.build_reservoir(ReservoirSpec(n=4, gates=[
        set_gate(3, {"type": "poly", "coeffs": [0.0, 2.0]}), swap_gate(0, 3),
        *[flip_gate(i, 0.05) for i in range(4)]]))
    values = np.linspace(-1.0, 1.0, 41)
    steps = _ExactSteps(res.plan, values)
    tables = _tables(steps)
    assert sorted(tables) == np.flatnonzero((values <= 0.0) | (values >= 0.5)).tolist()
    assert len({id(table) for table in tables.values()}) == 2
    for i, table in tables.items():
        assert np.array_equal(table, steps.run_ops(np.eye(16), i))


def test_continuous_drives_tabulate_no_whole_step():
    # the basis benchmark's reservoir: no drive in [-1, 1] makes its set or
    # controlled-flip kernel 0/1
    n = 6
    gates = [swap_gate(i, i + 1) for i in range(n - 1)]
    gates.append(set_gate(n - 1, {"type": "poly", "coeffs": [0.5, 0.35, 0.1]}))
    gates.append(controlled_flip_gate(n - 1, 0, {"type": "logistic", "rate": 3.0,
                                                 "center": 0.0, "lo": 0.05, "hi": 0.45}))
    gates += [flip_gate(i, 0.03) for i in range(n)]
    res = sr.build_reservoir(ReservoirSpec(n=n, gates=gates))
    assert res.plan.tabulates
    drives = np.random.default_rng(0).uniform(-1, 1, 300)
    sr.run_exact(res, InputSequence(drives, washout_length=10))
    assert _tables(_ExactSteps(res.plan, np.unique(drives))) == {}


def test_mixed_drives_step_through_tables_and_ops_alike():
    # the set drive is 0/1 at u in {0, 1} only, so those steps are
    # tabulated and the others run the ops
    gen = np.random.default_rng(12)
    n = 4
    gates = [swap_gate(i, i + 1) for i in range(n - 1)]
    gates.append(set_gate(n - 1, {"type": "poly", "coeffs": [0.0, 1.0]}))
    gates.append(constant_gate((0, 2), (0.9 * np.eye(4) + 0.1 * gen.dirichlet(np.ones(4), size=4))))
    gates.append(cnot_gate(1, 3))
    gates += [flip_gate(i, gen.uniform(0.02, 0.08)) for i in range(n)]
    spec = ReservoirSpec(n=n, gates=gates, drive_domain=(0.0, 1.0))
    res = sr.build_reservoir(spec)
    drives = gen.choice(np.concatenate([[0.0, 1.0], gen.uniform(0, 1, 6)]), size=600)
    out = sr.run_exact(res, InputSequence(drives, washout_length=30))
    assert len(_tables(_ExactSteps(res.plan, np.unique(drives)))) == 2
    state = spec.initial_state.probs.copy()
    for u in drives:
        expected = dense_step_oracle(spec, state, u)
        state = sr.step_exact(res, state, u)
        assert np.max(np.abs(state - expected)) < 1e-13
    assert np.array_equal(out, _step_loop(res, drives, 30))


def _scaled_dense_reservoir(factor):
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.05))
    res.plan.ops[-1].matrix *= factor
    return res


def test_run_raises_on_renormalization_drift():
    # every step now multiplies the total by 1 + 2 * tol
    res = _scaled_dense_reservoir(1.0 + 2 * RENORM_DRIFT_TOL)
    seq = InputSequence(np.ones(10), washout_length=3)
    with pytest.raises(NumericCheckFailure, match="at step 0: renormalization drift"):
        sr.run_exact(res, seq)


def test_run_accepts_drift_just_below_tolerance():
    res = _scaled_dense_reservoir(1.0 + 0.5 * RENORM_DRIFT_TOL)
    out = sr.run_exact(res, InputSequence(np.ones(10), washout_length=0))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, atol=1e-15)


def _scale_table_at_drive_one(monkeypatch, factor):
    """Make every run's whole-step matrix at drive 1 (the last distinct
    value) ``factor`` times its own, and leave the one at drive 0 alone."""
    class Scaled(_ExactSteps):
        def __init__(self, plan, values):
            super().__init__(plan, values)
            table, clip = self.steps[-1]
            self.steps[-1] = (table * factor, clip)
    monkeypatch.setattr("stochres.reservoir._ExactSteps", Scaled)


@pytest.mark.parametrize("washout, step", [(3, 7), (10, 6)])
def test_run_names_the_first_step_that_drifts(monkeypatch, washout, step):
    # the scan register at drive 0 until ``step``, a kept step in the
    # first case and a washout step in the second, then at drive 1
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.05))
    _scale_table_at_drive_one(monkeypatch, 1.0 + 2 * RENORM_DRIFT_TOL)
    drives = np.zeros(20)
    drives[step:] = 1.0
    with pytest.raises(NumericCheckFailure, match=rf"sums to 1\.000000002\d* at step {step}: "
                                                  r"renormalization drift 2e-09 exceeds 1e-09"):
        sr.run_exact(res, InputSequence(drives, washout_length=washout))


@pytest.mark.parametrize("washout", [0, 3])
def test_run_raises_on_overflow_without_a_warning(washout):
    # the total is 1e100 after step 0 and inf from step 3 on; the run
    # still reports step 0, and no floating-point warning escapes
    res = _scaled_dense_reservoir(1e100)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NumericCheckFailure, match=r"at step 0: renormalization drift 1e\+100 exceeds"):
            sr.run_exact(res, InputSequence(np.ones(20), washout_length=washout))


def test_run_accepts_long_drift_just_below_tolerance():
    # the unnormalized total grows to about 1 + 5e-6 over the run; each
    # step's ratio to the last stays below the tolerance
    res = _scaled_dense_reservoir(1.0 + 0.5 * RENORM_DRIFT_TOL)
    out = sr.run_exact(res, InputSequence(np.ones(10_000), washout_length=0))
    np.testing.assert_allclose(out.sum(axis=1), 1.0, rtol=0, atol=1e-15)


def _renormalized_step_loop(res, drives, washout):
    """The post-washout states of a ``step_exact`` loop whose every step is
    clipped at zero and divided by its sum."""
    state, rows = res.spec.initial_state.probs, []
    for t, u in enumerate(drives):
        state = sr.step_exact(res, state, u)
        np.maximum(state, 0.0, out=state)
        state /= state.sum()
        if t >= washout:
            rows.append(state)
    return np.array(rows)


def test_run_stays_within_rounding_of_per_step_renormalization():
    # dividing once after the loop instead of after every step moves each
    # entry by rounding alone; at n = 6 the scan plan folds a spanning block
    gen = np.random.default_rng(4)
    cases = [(sr.shift_register_flip_family(n, 0.05),
              np.random.default_rng(n).integers(0, 2, 200).astype(float)) for n in range(2, 9)]
    cases.append((random_physical_reservoir(4, gen), gen.uniform(-1, 1, 200)))
    folded = 0
    for spec, drives in cases:
        res = sr.build_reservoir(spec)
        folded += any(_spans(op, res.n) for op in res.plan.ops)
        out = sr.run_exact(res, InputSequence(drives, washout_length=20))
        assert np.max(np.abs(out - _renormalized_step_loop(res, drives, 20))) <= 1e-15
    assert folded


def _step_loop(res, drives, washout):
    """The post-washout states of a ``step_exact`` loop from the initial
    state, as ``run_exact`` computes them: each step clipped at zero, and
    each kept state divided by its own sum once the loop is done."""
    state, rows = res.spec.initial_state.probs, []
    for t, u in enumerate(drives):
        state = sr.step_exact(res, state, u)
        np.maximum(state, 0.0, out=state)
        if t >= washout:
            rows.append(state)
    return np.array([row / row.sum() for row in rows])


def _assert_run_is_step_loop(res, drives, washout=10):
    out = sr.run_exact(res, InputSequence(drives, washout_length=washout))
    expected = _step_loop(res, drives, washout)
    assert out.tobytes() == expected.tobytes()  # -0.0 is not +0.0 here
    assert not np.signbit(out).any()


@pytest.mark.parametrize("n", [2, 8])
def test_scan_run_equals_step_loop_byte_for_byte(n):
    # at n = 8 the whole-step gemv runs on every BLAS thread
    res = sr.build_reservoir(sr.shift_register_flip_family(n, 0.05))
    assert res.plan.tabulates
    _assert_run_is_step_loop(res, np.random.default_rng(n).integers(0, 2, 120).astype(float))


def _single_flip_block_reservoir():
    # write the drive bit, rotate, flip bit 0 alone: the rotation and the
    # flip fold into one block on all 3 bits, whose matrix has zeros
    gates = [set_gate(2, {"type": "poly", "coeffs": [0.0, 1.0]}),
             swap_gate(0, 1), swap_gate(1, 2), flip_gate(0, 0.05)]
    res = sr.build_reservoir(ReservoirSpec(n=3, gates=gates, drive_domain=(0.0, 1.0),
                                           initial_state=BitstringDistribution.point_mass(3, 0)))
    (block,) = [op for op in res.plan.ops if _spans(op, 3)]
    assert block.matrix[0, 1] == 0.0
    return res, block


@pytest.mark.parametrize("entry", [-1e-13, -0.0])
def test_table_with_sign_bit_entry_is_clipped_as_a_step_loop(entry):
    # from state 0 at drive 0 the step's entry 1 is the block's (0, 1), so
    # step 0 writes it there; ROW_SUM_TOL admits a -1e-13 entry. The table
    # is a product over the identity, which may turn the -0.0 into +0.0
    res, block = _single_flip_block_reservoir()
    block.matrix[0, 1] = entry
    drives = np.concatenate([[0.0], np.random.default_rng(3).integers(0, 2, 80)]).astype(float)
    table, clip = _ExactSteps(res.plan, np.unique(drives)).steps[0]
    assert clip == np.signbit(table).any()
    if entry:  # the clip is no no-op here
        assert clip and table[0, 1] == entry
        assert sr.step_exact(res, res.spec.initial_state, 0.0)[1] < 0.0
    _assert_run_is_step_loop(res, drives, washout=0)


def test_tables_without_sign_bit_entries_skip_the_clip():
    res, _ = _single_flip_block_reservoir()
    steps = _ExactSteps(res.plan, np.array([0.0, 1.0])).steps
    assert [clip for _, clip in steps] == [False, False]


@pytest.mark.parametrize("n, entry", [(3, -0.0), (3, -1e-13), (4, -0.0)])
def test_initial_state_with_sign_bit_entry_is_clipped_as_a_step_loop(n, entry):
    # at n = 3 and drive 0 only state 4 reaches entry 1, so a -1e-13 there
    # leaves a negative entry unless the first step is clipped
    res = (_single_flip_block_reservoir()[0] if n == 3
           else sr.build_reservoir(sr.shift_register_flip_family(n, 0.05)))
    probs = np.zeros(2 ** n)
    probs[0], probs[4] = 1.0, entry
    res.spec.initial_state = BitstringDistribution(probs)
    drives = np.concatenate([[0.0], np.random.default_rng(n).integers(0, 2, 60)]).astype(float)
    _assert_run_is_step_loop(res, drives, washout=0)


def test_run_mixing_matches_dense_product_oracle():
    gen = np.random.default_rng(77)
    gates = [constant_gate((0, 1), gen.dirichlet(np.ones(4), size=4)),
             flip_gate(0, {"type": "poly", "coeffs": [0.3, 0.2]})]
    spec = ReservoirSpec(n=2, gates=gates)
    res = sr.build_reservoir(spec)
    drives = gen.uniform(-1, 1, 6)
    out = sr.run_exact(res, InputSequence(drives[:, None], washout_length=0))
    state = spec.initial_state.probs.copy()
    for t, u in enumerate(drives):
        state = dense_step_oracle(spec, state, u)
        assert np.max(np.abs(out[t] - state)) < 1e-12


def test_run_requires_post_washout_steps():
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.2)]))
    with pytest.raises(EmptyAfterWashout):
        sr.run_exact(res, InputSequence(np.zeros((3, 1)), washout_length=3))


# --- sampling ----------------------------------------------------------------

def test_sampling_deterministic_circuit_matches_exact():
    # all kernels 0/1 and a point-mass start: every shot must retrace the
    # exact trajectory
    gates = [permutation_gate((0, 1), [3, 2, 0, 1])]
    init = BitstringDistribution.point_mass(2, 1)
    spec = ReservoirSpec(n=2, gates=gates, initial_state=init)
    res = sr.build_reservoir(spec)
    seq = InputSequence(np.zeros((9, 1)), washout_length=0)
    exact_states = np.argmax(sr.run_exact(res, seq), axis=1)
    ens = sample_trajectories(res, seq, shots=11, seed=1)
    assert np.array_equal(ens.samples, np.tile(exact_states, (11, 1)))


def test_sampling_through_dense_ops_equals_sampling_their_parts():
    gen = np.random.default_rng(4)
    spec = random_physical_reservoir(4, gen)
    res = sr.build_reservoir(spec)
    assert any(_spans(op, 4) for op in res.plan.ops)
    seq = InputSequence(gen.uniform(-1, 1, 40), washout_length=5)
    folded = sample_trajectories(res, seq, shots=300, seed=9)
    res.plan.ops = [part for op in res.plan.ops
                    for part in (op.parts if isinstance(op, _BlockOp) else [op])]
    expanded = sample_trajectories(res, seq, shots=300, seed=9)
    assert folded.samples.tobytes() == expanded.samples.tobytes()


def test_sampling_through_block_ops_equals_sampling_their_parts():
    gen = np.random.default_rng(4)
    spec = random_physical_reservoir(10, gen)
    res = sr.build_reservoir(spec)
    assert any(type(op) is _BlockOp for op in res.plan.ops)
    seq = InputSequence(gen.uniform(-1, 1, 40), washout_length=5)
    folded = sample_trajectories(res, seq, shots=300, seed=9)
    res.plan.ops = [part for op in res.plan.ops
                    for part in (op.parts if isinstance(op, _BlockOp) else [op])]
    expanded = sample_trajectories(res, seq, shots=300, seed=9)
    assert folded.samples.tobytes() == expanded.samples.tobytes()


@settings(max_examples=6, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 4))
@example(seed=11, n=9)   # states held as uint16
@example(seed=12, n=15)  # above the exact-mode cap: no gathers and no blocks
def test_sampler_equals_gate_by_gate_reference_across_blocks_and_chunks(seed, n):
    # a set gate and a flip layer behind random mixed gates, so that runs
    # of one-bit ops hold two ops on bit n - 1; more shots than one block
    # and more steps than one tile, with repeated drive values
    gen = np.random.default_rng(seed)
    gates = random_mixed_reservoir(n, gen).gates
    gates += [set_gate(n - 1, {"type": "poly", "coeffs": [0.5, 0.3]})]
    gates += [flip_gate(b, gen.uniform(0.05, 0.3)) for b in range(n)]
    spec = ReservoirSpec(n=n, gates=gates, depth_bound=len(gates))
    res = sr.build_reservoir(spec)
    drives = gen.choice(gen.uniform(-1, 1, 5), SAMPLE_STEPS + 22)
    seq = InputSequence(drives, washout_length=7)
    shots = SAMPLE_BLOCK + 9
    ens = sample_trajectories(res, seq, shots=shots, seed=seed)
    assert ens.samples.dtype == np.min_scalar_type(2 ** n - 1)
    for shot in (0, SAMPLE_BLOCK - 1, SAMPLE_BLOCK, shots - 1):
        ref = reference_sample_shot(spec, drives, 7, seed, shot)
        assert np.array_equal(ens.samples[shot], ref), shot


def test_sampled_shift_register_digest_is_unchanged():
    # digest recorded with the gate-by-gate sampler; two blocks, the second
    # one partial, each over several tiles of steps
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.1))
    bits = np.unpackbits(np.frombuffer(hashlib.sha256(b"stochres binary drives").digest(),
                                       np.uint8))
    seq = InputSequence(bits.astype(float), washout_length=16)
    ens = sample_trajectories(res, seq, shots=SAMPLE_BLOCK + 76, seed=2024)
    digest = hashlib.sha256(np.ascontiguousarray(ens.samples, dtype="<i8").tobytes())
    assert digest.hexdigest() == \
        "ba844f38d74e19c09cb256c70117215e9d97e10e0b4299ba3b77a14d85833ffe"


def test_samples_do_not_depend_on_the_tile(monkeypatch):
    # a gather, a 2-bit kernel op and one-bit ops; on 3-shot blocks over 5
    # steps the 7 shots and 23 steps end in a partial block and tile, and
    # 133 shots fill part of the default block
    gates = [swap_gate(0, 1), controlled_flip_gate(0, 2, {"type": "poly", "coeffs": [0.3, 0.2]}),
             set_gate(2, {"type": "poly", "coeffs": [0.5, 0.3]})]
    gates += [flip_gate(b, 0.1 + 0.05 * b) for b in range(3)]
    res = sr.build_reservoir(ReservoirSpec(n=3, gates=gates))
    parts = _op_parts(res.plan)
    assert isinstance(parts[0], _GatherOp) and parts[1].rows == 4
    seq = InputSequence(np.random.default_rng(8).uniform(-1, 1, 23), washout_length=4)
    whole = [sample_trajectories(res, seq, shots=shots, seed=13).samples
             for shots in (7, 133)]
    assert whole[1][:7].tobytes() == whole[0].tobytes()
    monkeypatch.setattr("stochres.reservoir.SAMPLE_BLOCK", 3)
    monkeypatch.setattr("stochres.reservoir.SAMPLE_STEPS", 5)
    for samples in whole:
        tiled = sample_trajectories(res, seq, shots=len(samples), seed=13)
        assert tiled.samples.tobytes() == samples.tobytes()


def test_sampler_holds_one_slice_of_draws():
    # 1100 shots over 300 steps: the draw tile of a block holds 1024 shots
    # x SAMPLE_STEPS (32) steps x 8 gates x 8 B = 2 MiB at n = 4, where all
    # 300 steps would take 19 MiB. The peak of the whole call counts the
    # samples too, which take 0.3 MiB as uint8 (2.5 as int64)
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.1))
    drives = np.random.default_rng(4).integers(0, 2, 320).astype(float)
    seq = InputSequence(drives, washout_length=20)
    tracemalloc.start()
    try:
        ens = sample_trajectories(res, seq, shots=1100, seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert ens.samples.dtype == np.uint8 and ens.samples.shape == (1100, 300)
    assert peak < 4 * 2 ** 20


def test_sampling_rejects_shots_that_are_not_counts():
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.2)]))
    seq = InputSequence(np.zeros(4), washout_length=0)
    for shots in (2.5, True, 3.0, "3", 0, -1, 2 ** 53 + 1):
        with pytest.raises(InvalidInput, match="shots"):
            sample_trajectories(res, seq, shots=shots, seed=0)
    assert sample_trajectories(res, seq, shots=np.int64(3), seed=0).shots == 3


def test_sampling_binomial_concentration():
    res = sr.build_reservoir(ReservoirSpec(
        n=1, gates=[set_gate(0, 0.5)],
        initial_state=BitstringDistribution.point_mass(1, 0)))
    seq = InputSequence(np.zeros((1, 1)), washout_length=0)
    shots = 10_000
    ens = sample_trajectories(res, seq, shots=shots, seed=3)
    freq = ens.samples.mean()
    assert abs(freq - 0.5) <= 3.0 * np.sqrt(0.25 / shots)


def test_sampling_shot_is_independent_of_block_size():
    # 5 shots fill part of a tile, SAMPLE_BLOCK shots all of it; a shot's
    # stream must not care
    gen = np.random.default_rng(2)
    res = sr.build_reservoir(random_physical_reservoir(3, gen))
    seq = InputSequence(gen.uniform(-1, 1, (700, 1)), washout_length=10)
    few = sample_trajectories(res, seq, shots=5, seed=6)
    many = sample_trajectories(res, seq, shots=SAMPLE_BLOCK, seed=6)
    assert np.array_equal(many.samples[:5], few.samples)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 31 - 1), st.integers(1, 3))
def test_sampler_matches_exact_on_plans_with_permutations(seed, n):
    # every bit ends the step with flip noise in [0.1, 0.3], so every
    # bitstring has probability >= 0.1**n: each cell expects >= 3 counts
    gen = np.random.default_rng(seed)
    spec = random_mixed_reservoir(n, gen)
    spec.gates += [flip_gate(b, gen.uniform(0.1, 0.3)) for b in range(n)]
    spec.depth_bound = len(spec.gates)
    res = sr.build_reservoir(spec)
    seq = InputSequence(gen.uniform(-1, 1, 6), washout_length=1)
    exact = sr.run_exact(res, seq)
    shots = 3000
    freqs = sr.empirical_probabilities(sample_trajectories(res, seq, shots, seed=seed)).data
    stderr = np.sqrt(exact * (1 - exact) / shots)
    assert np.all(np.abs(freqs - exact) <= 5 * stderr)


def test_sampled_frequencies_concentrate_around_exact():
    # over seeds and cells, |freq - p| <= 5 sigma in at least 99% of cells
    gen = np.random.default_rng(21)
    spec = random_physical_reservoir(2, gen)
    res = sr.build_reservoir(spec)
    seq = InputSequence(gen.uniform(-1, 1, (15, 1)), washout_length=3)
    exact = sr.run_exact(res, seq)
    shots = 2000
    ok = total = 0
    for seed in range(6):
        ens = sample_trajectories(res, seq, shots=shots, seed=seed)
        freqs = sr.empirical_probabilities(ens).data
        sigma = np.sqrt(exact * (1 - exact) / shots)
        ok += np.sum(np.abs(freqs - exact) <= 5 * sigma + 1e-12)
        total += exact.size
    assert ok / total >= 0.99


# --- count sampler -------------------------------------------------------------

def _binary_drives(seed, steps):
    return stream(seed, 1).integers(0, 2, steps).astype(float)


def _deterministic_spec(n):
    """Swap backbone, the drive written in by a set gate and by a controlled
    flip, and a non-bijective permutation: every kernel is 0/1 under binary
    drives, so each shot's path is fixed."""
    gates = [swap_gate(i, i + 1) for i in range(n - 1)]
    gates.append(set_gate(n - 1, {"type": "poly", "coeffs": [0.0, 1.0]}))
    gates.append(controlled_flip_gate(n - 1, 0, {"type": "poly", "coeffs": [0.0, 1.0]}))
    gates.append(permutation_gate((0, 1), [0, 0, 3, 3]))
    return ReservoirSpec(n=n, gates=gates, initial_state=BitstringDistribution.point_mass(n, 5),
                         drive_domain=(0.0, 1.0))


class _InitialDrawOnly:
    """A count stream that draws the initial counts and refuses any other draw."""

    def __init__(self, gen):
        self.gen, self.initial = gen, True

    def multinomial(self, *args):
        assert self.initial, "a kernel op drew"
        self.initial = False
        return self.gen.multinomial(*args)

    def binomial(self, *args):
        raise AssertionError("a 0/1 one-bit kernel drew")


@pytest.mark.parametrize("spec, multi_bit", [(sr.shift_register_flip_family(4, 0.0), False),
                                             (_deterministic_spec(4), True)])
def test_count_frequencies_equal_exact_rows_when_every_kernel_is_01(spec, multi_bit):
    # at zero noise under binary drives every shot's path is fixed: one-bit
    # ops move their 0/1 share, and a multi-bit op's multinomial (the
    # controlled flip and the non-bijective permutation) puts a state's whole
    # count in its row's one column
    res = sr.build_reservoir(spec)
    steps = _count_steps(res.plan, np.array([0.0, 1.0]))
    assert any(isinstance(step, _KernelCounts) for step in steps) == multi_bit
    seq = InputSequence(_binary_drives(3, 60), washout_length=7)
    sm = sr.sample_frequencies(res, seq, shots=528, seed=2)
    assert sm.mode == "empirical-frequency" and sm.shots == 528
    assert sm.data.tobytes() == sr.run_exact(res, seq).tobytes()


def test_one_bit_01_kernels_move_counts_with_no_draw(monkeypatch):
    # the set gate under binary drives and zero flip noise: after the
    # initial multinomial, the count stream is never drawn from
    counts_stream = stochres.rng.stream
    monkeypatch.setattr(stochres.rng, "stream", lambda *path: _InitialDrawOnly(counts_stream(*path)))
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.0))
    seq = InputSequence(_binary_drives(3, 60), washout_length=7)
    sm = sr.sample_frequencies(res, seq, shots=528, seed=2)
    assert sm.data.tobytes() == sr.run_exact(res, seq).tobytes()


def _rounding_spec():
    """A two-bit kernel and an initial state, each with an entry 1e-12 below
    zero and a row that sums to 1 + 5e-13: within ``ROW_SUM_TOL`` of a
    distribution, but clipped at zero its first three entries sum to more
    than 1."""
    row = [-1e-12, 0.5 + 1.5e-12, 0.5, 0.0]
    matrix = [row, [0.25] * 4, [0.0, 0.0, 0.0, 1.0], [0.5, 0.0, 0.5, 0.0]]
    gates = [constant_gate((0, 1), matrix), flip_gate(0, 0.2)]
    return ReservoirSpec(n=2, gates=gates, initial_state=BitstringDistribution(row))


def test_count_path_takes_kernels_off_by_rounding():
    res = sr.build_reservoir(_rounding_spec())
    steps = _count_steps(res.plan, np.array([0.0]))
    assert any(isinstance(step, _KernelCounts) for step in steps)
    seq = InputSequence(np.zeros(30), washout_length=3)
    for shots in (5, 516):
        # few shots and many both give whole shot counts
        counts = sr.sample_frequencies(res, seq, shots=shots, seed=6).data * shots
        assert np.allclose(counts, np.round(counts), rtol=0.0, atol=1e-9)
        assert np.all(np.round(counts).sum(axis=1) == shots)


def test_count_rows_are_integer_counts_over_shots():
    gen = np.random.default_rng(8)
    res = sr.build_reservoir(random_physical_reservoir(3, gen))
    seq = InputSequence(gen.uniform(-1, 1, 40), washout_length=5)
    shots = 531
    sm = sr.sample_frequencies(res, seq, shots=shots, seed=4)
    counts = sm.data * shots
    assert sm.data.shape == (35, 8)
    assert np.array_equal(counts, np.round(counts))
    assert np.all(counts.sum(axis=1) == shots)
    # the float output divided by shots in place has the bits of counts / shots
    assert sm.data.tobytes() == (np.round(counts) / shots).tobytes()


def test_count_frequencies_are_fixed_by_the_seed():
    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.1))
    seq = InputSequence(_binary_drives(5, 200), washout_length=20)
    runs = [sr.sample_frequencies(res, seq, shots=1000, seed=seed).data.tobytes()
            for seed in (7, 7, 8)]
    assert runs[0] == runs[1] != runs[2]


def _mixed_counts_spec():
    # a gather, one-bit kernel ops and two-bit kernel ops (controlled flips and
    # a constant gate), with flip noise on every bit so every state is reached
    spec = random_mixed_reservoir(3, np.random.default_rng(0))
    spec.gates += [flip_gate(b, 0.15) for b in range(3)]
    spec.depth_bound = len(spec.gates)
    return spec


@pytest.mark.parametrize("spec, drives", [
    (sr.shift_register_flip_family(4, 0.1), _binary_drives(9, 10)),
    (_mixed_counts_spec(), stream(9, 2).uniform(-1, 1, 10)),
    (sr.shift_register_flip_family(5, 0.1), _binary_drives(9, 10)),
])
def test_count_frequencies_have_binomial_mean_and_variance(spec, drives):
    # N_t(s) of S independent shots is Binomial(S, p): over R seeds each
    # entry's mean is p within 5 standard errors sqrt(pq / (S R)), and its
    # sample variance is pq / S within 5 standard errors of a sample variance
    # of R draws, sqrt((mu4 - sigma^4 (R - 3) / (R - 1)) / R)
    res = sr.build_reservoir(spec)
    steps = _count_steps(res.plan, np.unique(drives))
    assert any(isinstance(step, _BitCounts) for step in steps)
    if spec.n == 3:
        assert any(isinstance(op, _GatherOp) for op in _op_parts(res.plan))
        assert any(isinstance(step, _KernelCounts) for step in steps)
    seq = InputSequence(drives, washout_length=2)
    exact = sr.run_exact(res, seq)
    shots, seeds = 40, 400
    freqs = np.stack([_count_frequencies(res, seq, shots, seed) for seed in range(seeds)])
    p, q = exact, 1.0 - exact
    mean_z = (freqs.mean(axis=0) - p) / np.sqrt(p * q / (shots * seeds))
    sigma2 = p * q / shots
    mu4 = p * q * (1 + 3 * (shots - 2) * p * q) / shots ** 3
    var_se = np.sqrt((mu4 - sigma2 ** 2 * (seeds - 3) / (seeds - 1)) / seeds)
    var_z = (freqs.var(axis=0, ddof=1) - sigma2) / var_se
    spread = p * q > 1e-3
    assert spread.sum() >= 0.8 * p.size
    assert np.max(np.abs(mean_z[spread])) <= 5.0
    assert np.max(np.abs(var_z[spread])) <= 5.0


@pytest.mark.parametrize("n", [2, 3, 4, 5, 9])
def test_count_sampler_takes_the_flip_block_whole_through_n_4(n):
    # the swaps are one gather and the set gate one bit; the flips fold into
    # one block through n = 8 and into 6 + 3 bits at n = 9, and the block
    # is one multinomial step only while 2**(n + k) <= 64 per flip
    res = sr.build_reservoir(sr.shift_register_flip_family(n, 0.1))
    blocks = [op for op in res.plan.ops if isinstance(op, _BlockOp)]
    assert [len(op.parts) for op in blocks] == ([n] if n < 9 else [6, 3])
    steps = _count_steps(res.plan, np.array([0.0, 1.0]))
    assert isinstance(steps[1], _BitCounts)
    if n <= 4:
        assert _whole_block_counts_pay(blocks[0], n)
        assert len(steps) == 3 and isinstance(steps[2], _KernelCounts)
        assert steps[2].kernel.shape == (2 ** n, 2 ** n)  # held once, not per value
    else:
        assert not any(_whole_block_counts_pay(op, n) for op in blocks)
        assert len(steps) == 2 + n
        assert all(isinstance(step, _BitCounts) for step in steps[1:])


def test_count_sampler_takes_a_one_bit_block_as_one_binomial():
    # two flips of bit 0 fold into a block on that bit alone, which moves
    # counts by the composed flip rate 0.1 * 0.8 + 0.9 * 0.2
    spec = ReservoirSpec(n=2, gates=[set_gate(1, {"type": "poly", "coeffs": [0.0, 1.0]}),
                                     flip_gate(0, 0.1), flip_gate(0, 0.2)],
                         drive_domain=(0.0, 1.0))
    res = sr.build_reservoir(spec)
    assert isinstance(res.plan.ops[1], _BlockOp) and res.plan.ops[1].rows == 2
    steps = _count_steps(res.plan, np.array([0.0, 1.0]))
    assert [type(step) for step in steps] == [_BitCounts, _BitCounts]
    np.testing.assert_allclose(steps[1].move.ravel(), [0.26, 0.26] * 2, rtol=0, atol=1e-15)


class _DrawTally:
    """A count stream that tallies its draw calls by name."""

    def __init__(self, gen):
        self.gen, self.calls = gen, collections.Counter()

    def __getattr__(self, name):
        self.calls[name] += 1
        return getattr(self.gen, name)


@pytest.mark.parametrize("n", [4, 5])
def test_count_stream_draws_once_per_step_for_a_whole_block(monkeypatch, n):
    # binary drives make the set gate 0/1, so only the flips draw: at n = 4
    # one multinomial for the whole block per step, at n = 5 one binomial
    # per flip and step, after the initial multinomial
    streams = []
    counts_stream = stochres.rng.stream

    def tallied(*path):
        streams.append((path, _DrawTally(counts_stream(*path))))
        return streams[-1][1]

    monkeypatch.setattr(stochres.rng, "stream", tallied)
    res = sr.build_reservoir(sr.shift_register_flip_family(n, 0.1))
    seq = InputSequence(_binary_drives(3, 60), washout_length=7)
    sr.sample_frequencies(res, seq, shots=600, seed=2)
    [(path, gen)] = streams
    assert path == (2, stochres.rng.COUNTS)
    steps = len(seq)
    want = {"multinomial": 1 + steps} if n == 4 else {"multinomial": 1, "binomial": n * steps}
    assert dict(gen.calls) == want


def test_sample_frequencies_always_propagates_counts(monkeypatch):
    # at few shots and many, the frequencies are the count sampler's and no
    # shot is sampled on its own
    def refuse(*args, **kwargs):
        raise AssertionError("sample_frequencies sampled each shot")

    res = sr.build_reservoir(sr.shift_register_flip_family(4, 0.1))
    seq = InputSequence(_binary_drives(4, 80), washout_length=10)
    monkeypatch.setattr("stochres.reservoir.sample_trajectories", refuse)
    monkeypatch.setattr("stochres.signals.sample_trajectories", refuse, raising=False)
    for shots in (1, 5, 20, 600):
        sm = sr.sample_frequencies(res, seq, shots=shots, seed=3)
        assert sm.shots == shots
        assert sm.data.tobytes() == _count_frequencies(res, seq, shots, 3).tobytes()


def test_count_sampler_conserves_two_to_the_53_shots_exactly():
    # the largest shot count allowed, through the flip block taken whole at
    # n = 3: every count is a float64 integer, and every row keeps them all
    res = sr.build_reservoir(sr.shift_register_flip_family(3, 0.1))
    steps = _count_steps(res.plan, np.array([0.0, 1.0]))
    assert isinstance(steps[-1], _KernelCounts) and steps[-1].kernel.shape == (8, 8)
    seq = InputSequence(_binary_drives(6, 40), washout_length=5)
    shots = 2 ** 53
    counts = sr.sample_frequencies(res, seq, shots=shots, seed=1).data * shots
    assert np.array_equal(counts, np.round(counts))
    assert all(int(row.sum()) == shots for row in counts.astype(np.int64))


@pytest.mark.parametrize("shots", [5, 516])
def test_sample_frequencies_rejects_what_the_sampler_rejects(shots):
    res = sr.build_reservoir(sr.shift_register_flip_family(2, 0.1))
    seq = InputSequence(np.array([0.0, 1.0, 1.0]), washout_length=1)
    for bad in (2.5, True, 3.0, "3", 0, -1, 2 ** 53 + 1, 2 ** 63):
        with pytest.raises(InvalidInput, match="shots"):
            sr.sample_frequencies(res, seq, shots=bad, seed=0)
    assert sr.sample_frequencies(res, seq, shots=np.int64(shots), seed=0).shots == shots
    nan = InputSequence(np.array([0.0, 1.0, 1.0]), washout_length=1)
    nan.values[1, 0] = np.nan
    with pytest.raises(NonfiniteDrive):
        sr.sample_frequencies(res, nan, shots=shots, seed=0)
    with pytest.raises(DriveBoundViolation, match="domain"):
        sr.sample_frequencies(res, InputSequence(np.array([0.0, 1.5, 1.0]), washout_length=1),
                              shots=shots, seed=0)
    wide = sr.build_reservoir(ReservoirSpec(n=15, gates=[flip_gate(0, 0.2)]))
    with pytest.raises(ValueError, match="dense frequencies"):
        sr.sample_frequencies(wide, InputSequence(np.zeros(3), washout_length=1), shots=shots, seed=0)


# --- fading memory ----------------------------------------------------------

def test_fading_memory_zero_for_input_independent_reservoir():
    gates = [constant_gate((0,), [[0.7, 0.3], [0.4, 0.6]])]
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=gates))
    measure = InputMeasure("iid-uniform-interval", -1, 1, seed=0)
    for h in (1, 4):
        err = fading_memory_error(res, h, measure, trials=10, resamples=6,
                                  total_window=24, seed=1)
        assert err < 1e-28


def test_fading_memory_zero_at_h1_for_memoryless_reservoir():
    res = sr.build_reservoir(ReservoirSpec(
        n=1, gates=[set_gate(0, {"type": "poly", "coeffs": [0.5, 0.4]})]))
    measure = InputMeasure("iid-uniform-interval", -1, 1, seed=0)
    err = fading_memory_error(res, 1, measure, trials=10, resamples=6,
                              total_window=20, seed=1)
    assert err < 1e-28


def test_fading_memory_decreases_and_matches_recursion_oracle():
    # 1-bit chain: P(0->1) = 0.15 + 0.1u, P(1->0) = 0.45
    spec = ReservoirSpec(n=1, gates=[asymmetric_flip_gate(
        0, {"type": "poly", "coeffs": [0.15, 0.1]}, 0.45)], drive_domain=(-1, 1))
    res = sr.build_reservoir(spec)
    measure = InputMeasure("iid-uniform-interval", -1, 1, seed=0)
    errs = {h: fading_memory_error(res, h, measure, trials=60, resamples=12,
                                   total_window=40, seed=2)
            for h in (1, 2, 4, 8, 20)}
    assert errs[1] > errs[2] > errs[4] > errs[8] > errs[20]
    assert errs[20] < 1e-10  # the deep-window tabulation pins the floor

    # independent oracle: the same chain collapses to a scalar recursion
    # p <- (1-p) a(u) + p (1 - b); estimate the same conditional variance
    gen = np.random.default_rng(9)
    acc = 0.0
    trials, resamples, total, h = 3000, 16, 40, 1
    for _ in range(trials):
        w = gen.uniform(-1, 1, h)
        finals = np.empty(resamples)
        for r in range(resamples):
            p = 0.5
            for u in np.concatenate([gen.uniform(-1, 1, total - h), w]):
                a = 0.15 + 0.1 * u
                p = (1 - p) * a + p * (1 - 0.45)
            finals[r] = p
        acc += finals.var(ddof=1)
    oracle = acc / trials  # variance identical for both components
    assert 0.4 * oracle < errs[1] < 2.5 * oracle


def test_fading_memory_equals_plain_step_loop_bit_for_bit():
    # each resampled history's final state is the last row of a plain
    # run_exact over it; continuous drives, so nearly every step has its
    # own kernels
    res = sr.build_reservoir(random_physical_reservoir(3, np.random.default_rng(21)))
    measure = InputMeasure("iid-uniform-interval", -1, 1, seed=0)
    h, trials, resamples, total, seed = 3, 10, 4, 16, 5
    acc = 0.0
    for trial in range(trials):
        gen = stream(seed, trial)
        window = measure.draw(h, gen)
        finals = np.empty((resamples, res.dim))
        for r in range(resamples):
            drives = np.concatenate([measure.draw(total - h, gen), window])
            finals[r] = sr.run_exact(res, InputSequence(drives, washout_length=0))[-1]
        acc += float(np.mean(np.var(finals, axis=0, ddof=1)))
    assert fading_memory_error(res, h, measure, trials, resamples, total, seed) == acc / trials


def test_fading_memory_rejects_drives_outside_the_drive_domain():
    spec = ReservoirSpec(n=1, gates=[asymmetric_flip_gate(
        0, {"type": "poly", "coeffs": [0.15, 0.1]}, 0.45)], drive_domain=(-1, 1))
    res = sr.build_reservoir(spec)
    measure = InputMeasure("iid-uniform-interval", -5, 5, seed=0)
    with pytest.raises(DriveBoundViolation):
        fading_memory_error(res, 1, measure, trials=10, resamples=3, total_window=8)


def test_fading_memory_requires_enough_trials():
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.2)]))
    measure = InputMeasure("iid-uniform-interval", seed=0)
    with pytest.raises(InsufficientTrials):
        fading_memory_error(res, 1, measure, trials=5)


@pytest.mark.parametrize("resamples", [0, 1])
def test_fading_memory_requires_two_resamples_for_a_variance(resamples):
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.2)]))
    measure = InputMeasure("iid-uniform-interval", seed=0)
    with pytest.raises(InsufficientTrials, match="resamples"):
        fading_memory_error(res, 1, measure, trials=10, resamples=resamples)


# --- measures, serialization -------------------------------------------------

def test_quadrature_measure_integrates_polynomials_exactly():
    m = InputMeasure("quadrature-grid", -1, 1, order=16)
    nodes, weights = m.quadrature()
    assert abs(weights.sum() - 1.0) < 1e-14
    assert abs(np.sum(weights * nodes ** 2) - 1.0 / 3.0) < 1e-14
    assert abs(np.sum(weights * nodes ** 7)) < 1e-14


def test_binary_measure_values():
    m = InputMeasure("iid-uniform-binary", seed=4)
    draws = m.draw(200, sr.rng.stream(4))
    assert set(np.unique(draws)) <= {0.0, 1.0}


def test_input_measure_validation():
    with pytest.raises(ValueError):
        InputMeasure("iid-uniform-interval", lo=1.0, hi=-1.0)
    with pytest.raises(ValueError):
        InputMeasure("quadrature-grid", order=1)


def test_spec_json_roundtrip_preserves_dynamics():
    gen = np.random.default_rng(3)
    spec = random_physical_reservoir(3, gen)
    clone = ReservoirSpec.from_json(spec.to_json())
    res_a = sr.build_reservoir(spec)
    res_b = sr.build_reservoir(clone)
    state = gen.dirichlet(np.ones(8))
    for u in (-0.5, 0.2):
        np.testing.assert_array_equal(sr.step_exact(res_a, state, u),
                                      sr.step_exact(res_b, state, u))
    doc = json.loads(spec.to_json())
    assert set(doc) >= {"n", "k_max", "depth_bound", "gates", "initial_state"}
    assert all({"support", "kernel_kind", "params"} <= set(g) for g in doc["gates"])


def test_trajectory_ensemble_roundtrip(tmp_path):
    gen = np.random.default_rng(0)
    ens = sr.TrajectoryEnsemble(gen.integers(0, 8, size=(5, 7)), 3, seed_root=11)
    path = tmp_path / "shots.bin"
    ens.save(path)
    back = sr.TrajectoryEnsemble.load(path)
    assert np.array_equal(back.samples, ens.samples)
    assert back.n == 3 and back.seed_root == 11


@pytest.mark.parametrize("n, dtype", [(1, np.uint8), (8, np.uint8), (9, np.uint16),
                                      (16, np.uint16), (17, np.uint32)])
def test_ensemble_holds_samples_in_the_register_width_and_saves_int64(n, dtype, tmp_path):
    samples = np.array([[0, 2 ** n - 1, 1], [2 ** n - 2, 0, 1]])
    ens = sr.TrajectoryEnsemble(samples, n, seed_root=4, washout_length=2)
    assert ens.samples.dtype == dtype and np.array_equal(ens.samples, samples)
    assert sr.TrajectoryEnsemble(ens.samples, n, seed_root=4).samples is ens.samples
    ens.save(tmp_path / "shots.bin")
    assert (tmp_path / "shots.bin").read_bytes() == samples.astype("<i8").tobytes()
    back = sr.TrajectoryEnsemble.load(tmp_path / "shots.bin")
    assert back.samples.dtype == dtype and np.array_equal(back.samples, samples)


@pytest.mark.parametrize("samples, n, match", [
    # truncated to [[0, 1]] before
    pytest.param(np.array([[0.5, 1.9]]), 1, "integers", id="fractional"),
    pytest.param(np.array([[True, False]]), 1, "integers", id="bool"),
    # .steps raised IndexError before
    pytest.param(np.array([0, 1, 1]), 1, "shape", id="one-dimensional"),
    # empirical_probabilities raised "object too deep" before
    pytest.param(np.zeros((2, 3, 1), dtype=int), 1, "shape", id="three-dimensional"),
    # all-NaN frequencies and a RuntimeWarning before
    pytest.param(np.zeros((0, 3), dtype=int), 1, "shape", id="zero-shots"),
    pytest.param(np.zeros((3, 0), dtype=int), 1, "shape", id="zero-steps"),
    pytest.param(np.array([[0, -1]]), 3, "out of range", id="negative"),
    pytest.param(np.array([[0, 8]]), 3, "out of range", id="too-wide"),
])
def test_ensemble_rejects_bad_samples(samples, n, match):
    with pytest.raises(ValueError, match=match) as info:
        sr.TrajectoryEnsemble(samples, n, seed_root=0)
    assert isinstance(info.value, InvalidSamples)


def test_stream_reproducibility_and_independence():
    a = sr.rng.stream(5, 1).random(4)
    b = sr.rng.stream(5, 1).random(4)
    c = sr.rng.stream(5, 2).random(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_stream_seeds_and_paths_are_integers():
    # a float or a bool would be truncated onto the stream of an integer
    for args in ((1.5,), (True,), (np.float64(1.0),), (1, 2.5), (1, False), ("1",)):
        with pytest.raises(InvalidInput, match="integers"):
            sr.rng.stream(*args)
    res = sr.build_reservoir(sr.shift_register_flip_family(2, 0.1))
    seq = InputSequence(np.array([0.0, 1.0, 1.0]), washout_length=1)
    for seed in (1.5, True):
        with pytest.raises(InvalidInput, match="integers"):
            sr.sample_frequencies(res, seq, shots=20, seed=seed)
    # integers of any type keep their 64-bit mask
    for same in ((np.int64(5),), (5 + 2 ** 64,), (np.uint64(5),)):
        assert np.array_equal(sr.rng.stream(*same).random(4), sr.rng.stream(5).random(4))
    assert np.array_equal(sr.rng.stream(-1).random(4), sr.rng.stream(2 ** 64 - 1).random(4))


def test_vector_inputs_are_rejected():
    # a drive is one scalar per step; no reduction of a row is guessed
    for values in ([[3.0, 4.0], [0.0, 0.5]], [[3.0, 4.0]], np.zeros((5, 3))):
        with pytest.raises(ValueError, match="shape"):
            InputSequence(np.asarray(values), washout_length=0)


def test_input_sequence_washout_is_an_integer():
    drives = np.zeros(5)
    for bad in (2.5, True, False, 3.0, "3", None):
        with pytest.raises(InvalidInput, match="washout_length must be an integer"):
            InputSequence(drives, washout_length=bad)
    with pytest.raises(ValueError, match="washout_length must be >= 0"):
        InputSequence(drives, washout_length=-1)
    assert InputSequence(drives, washout_length=np.int64(3)).washout_length == 3


def test_point_mass_index_lies_in_the_register():
    for bad in (-1, 8, 9, True, 1.5):
        with pytest.raises(InvalidInput, match="point mass index"):
            BitstringDistribution.point_mass(3, bad)
    np.testing.assert_array_equal(BitstringDistribution.point_mass(3, 7).probs,
                                  np.eye(8)[7])


def test_input_sequence_shape_comes_from_ndim():
    one_step = InputSequence(np.array([[0.5]]))
    assert len(one_step) == 1
    np.testing.assert_array_equal(one_step.drives, [0.5])
    flat = InputSequence(np.array([0.1, 0.2, 0.3]))
    assert flat.values.shape == (3, 1)
    np.testing.assert_array_equal(flat.drives, [0.1, 0.2, 0.3])
    column = InputSequence(np.array([[0.1], [0.2], [0.3]]))
    np.testing.assert_array_equal(column.drives, flat.drives)
    for values in (np.zeros((2, 2, 1)), np.float64(0.5), np.zeros((1, 2))):
        with pytest.raises(ValueError):
            InputSequence(values)


def test_run_rejects_out_of_domain_drive():
    from stochres.errors import DriveBoundViolation

    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.2)],
                                           drive_domain=(-1.0, 1.0)))
    seq = InputSequence(np.array([[0.2], [5.0]]), washout_length=0)
    with pytest.raises(DriveBoundViolation):
        sr.run_exact(res, seq)
    with pytest.raises(DriveBoundViolation):
        sample_trajectories(res, seq, shots=3, seed=0)
    # below the domain [0, 1] but within its largest magnitude
    res = sr.build_reservoir(sr.shift_register_flip_family(3, 0.05))
    seq = InputSequence(np.array([1.0, -0.5, 0.0]), washout_length=0)
    with pytest.raises(DriveBoundViolation, match="domain"):
        sr.run_exact(res, seq)
    with pytest.raises(DriveBoundViolation, match="domain"):
        sample_trajectories(res, seq, shots=3, seed=0)
    # one step at a time gets the same check, below and above the domain
    state = res.spec.initial_state
    for u in (-0.5, 7.0):
        with pytest.raises(DriveBoundViolation, match="domain"):
            sr.step_exact(res, state, u)


def test_exact_mode_register_cap():
    from stochres.errors import ExactModeOverflow

    gates = [flip_gate(0, 0.1)]
    res = sr.build_reservoir(ReservoirSpec(n=15, gates=gates))
    with pytest.raises(ExactModeOverflow):
        sr.step_exact(res, np.full(2 ** 15, 1.0 / 2 ** 15), 0.0)
    with pytest.raises(ExactModeOverflow):
        sr.run_exact(res, InputSequence(np.zeros(3), washout_length=0))


def test_step_accepts_distribution_wrapper():
    res = sr.build_reservoir(ReservoirSpec(n=1, gates=[flip_gate(0, 0.3)]))
    out = sr.step_exact(res, BitstringDistribution(np.array([1.0, 0.0])), 0.0)
    np.testing.assert_allclose(out, [0.7, 0.3], atol=1e-15)


def test_quadrature_sequence_is_its_nodes_with_no_washout():
    m = InputMeasure("quadrature-grid", -1.0, 1.0, order=8)
    nodes, weights = m.quadrature()
    seq = m.sequence(8, washout_length=0)
    assert np.array_equal(seq.drives, nodes) and np.array_equal(seq.weights, weights)
    assert seq.washout_length == 0
    for length, washout in ((8, 50), (100, 0), (100, 50)):
        with pytest.raises(ValueError, match="quadrature-grid"):
            m.sequence(length, washout_length=washout)
    with pytest.raises(ValueError, match="quadrature-grid"):
        m.sequence(8)


@pytest.mark.parametrize("kind", ["iid-uniform-interval", "iid-uniform-binary"])
def test_iid_sequence_is_the_draw_of_its_seed_stream(kind):
    m = InputMeasure(kind, -0.5, 2.0, seed=11)
    seq = m.sequence(300, washout_length=40)
    assert np.array_equal(seq.drives, m.draw(300, stream(11)))
    assert seq.washout_length == 40 and seq.weights is None


def test_quadrature_measure_draw_samples_nodes():
    m = InputMeasure("quadrature-grid", -1.0, 1.0, order=8, seed=2)
    nodes, _ = m.quadrature()
    draws = m.draw(300, sr.rng.stream(2))
    assert set(np.round(draws, 12)) <= set(np.round(nodes, 12))
