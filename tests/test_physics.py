"""Hysteresis-model tests: JA integrator, parameter mapping, Preisach operator."""
import hashlib
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import ja_m_an, preisach_hysteron, tape_ja_params_from_theta, tape_ja_step_euler
from hystkit.autodiff import (Graph, ShapeError, Tensor, _toposort, finite_diff_check, mul, reshape,
                              tsum)
from hystkit.cells import GruParams, gru_step
from hystkit.physics import (
    ETA,
    HYSTERON_SHARPNESS,
    MU0,
    PhysicsError,
    PreisachParams,
    SingularityError,
    gru_jadp_step,
    hysteron_states,
    init_preisach_params,
    ja_euler_kernel,
    ja_params_from_theta,
    ja_step_euler,
    pinn_ja_residual,
    preisach_grid,
    preisach_predict,
)
from hystkit.synth import DEFAULT_JA_PHYSICAL, generate_ja_dataset, ja_generate_field

TAU = 62.5e-9


#: DEFAULT_JA_PHYSICAL with no reversible wall motion (c = 0).
NO_REVERSIBLE = (3.5e5, 30.0, 5e-5, 20.0, 0.0)


def phys_of(values=DEFAULT_JA_PHYSICAL):
    """The (1, 5) parameter tensor z of (M_s, a, alpha_w, k_p, c), shared by all rows."""
    return Tensor(np.array([values], dtype=np.float64))


def col(v):
    return Tensor(np.array([[float(v)]]))


def susceptibility(h, m, delta, values=DEFAULT_JA_PHYSICAL):
    """dM/dH of the numpy kernel at (h, m) for a flux increment of sign ``delta``."""
    b_k = MU0 * (h + m)
    _, terms = ja_euler_kernel(np.array([[h]]), b_k, b_k + delta, *values)
    return terms.r.item()


class TestAnhystereticCurve:
    def test_saturation_limit(self):
        out = ja_m_an(np.array([[1e6]]), 3.5e5, 30.0)
        assert out.data.item() == pytest.approx(3.5e5, rel=1e-4)

    def test_zero_field(self):
        assert ja_m_an(np.array([[0.0]]), 3.5e5, 30.0).data.item() == 0.0

    def test_at_form_factor(self):
        # H_e = a: M_an = M_s (coth 1 - 1)
        m_s, a = 2.0e5, 40.0
        out = ja_m_an(np.array([[a]]), m_s, a).data.item()
        coth1 = np.cosh(1.0) / np.sinh(1.0)
        assert out == pytest.approx(m_s * (coth1 - 1.0), rel=1e-12)
        assert out == pytest.approx(0.313035 * m_s, rel=1e-5)


class TestParameterMapping:
    def test_theta_zero_gives_half_scale(self):
        z = ja_params_from_theta(Tensor(np.zeros((1, 5))))
        assert z.data.shape == (1, 5)
        for value, cap in zip(z.data[0], ETA):
            assert value == pytest.approx(cap / 2.0, rel=1e-12)

    def test_saturates_at_cap(self):
        z = ja_params_from_theta(Tensor(np.full((1, 5), 50.0)))
        assert z.data[0, 4] == pytest.approx(ETA[4], rel=1e-12)

    @given(st.lists(st.floats(-30, 30), min_size=5, max_size=5))
    @settings(max_examples=50, deadline=None)
    def test_always_inside_open_interval(self, theta_vals):
        z = ja_params_from_theta(Tensor(np.array(theta_vals)[None, :]))
        for value, cap in zip(z.data[0], ETA):
            assert 0.0 < value < cap

    @pytest.mark.parametrize("shape", [(1, 4), (5,), (1, 1, 5)])
    def test_bad_theta_shape(self, shape):
        with pytest.raises(PhysicsError, match=r"^theta must be \(rows, >= 5\)"):
            ja_params_from_theta(Tensor(np.zeros(shape)))


class TestSusceptibility:
    def test_direction_parameter(self):
        rising = ja_step_euler(col(20.0), 0.1, 0.1001, phys_of())
        falling = ja_step_euler(col(20.0), 0.1, 0.0999, phys_of())
        assert rising.data.item() > 20.0
        assert falling.data.item() < 20.0

    def test_gate_zero_when_falling_above_anhysteretic(self):
        # M_an > M and falling flux: irreversible term gated off, only the
        # reversible c-term remains
        h, m = 50.0, 1000.0  # M far below M_an(H_e)
        assert susceptibility(h, m, -1.0, NO_REVERSIBLE) == 0.0  # gate 0 and c = 0 leave nothing

    def test_zero_at_anhysteretic_fixed_point_with_c_zero(self):
        h = 50.0
        m = 0.0
        for _ in range(200):  # fixed point of M = M_an(H + alpha*M)
            m = ja_m_an(np.array([[h + 5e-5 * m]]), 3.5e5, 30.0).data.item()
        assert abs(susceptibility(h, m, 1.0, NO_REVERSIBLE)) < 1e-9

    def test_delta_zero_returns_zero(self):
        assert susceptibility(30.0, 1e4, 0.0) == 0.0

    def test_singularity_detection(self):
        # vanishing pinning with the gate closed leaves a zero denominator
        phys = phys_of((3.5e5, 30.0, 1e-3, 0.0, 0.0))
        with pytest.raises(SingularityError):
            ja_step_euler(col(0.0), 0.0, 1e-9, phys)


class TestEulerStep:
    def test_generated_dataset_bytes_pinned(self):
        # c05, c07 and c09 are calibrated on these bytes (numpy 2.x, IEEE double)
        digest = hashlib.sha256()
        for seq in generate_ja_dataset(24, 259, seed=501):
            digest.update(seq.b.tobytes())
            digest.update(seq.h.tobytes())
        assert digest.hexdigest() == "e795123cb621eba0b32af6912df495c362f3f4664307da3a1f0c459754f5680a"

    def test_generated_field_matches_tape_steps(self):
        b = 0.2 * np.sin(np.linspace(0.0, 9.0, 40))[None, :] * np.array([[1.0], [0.6], [-0.8]])
        temps = np.array([25.0, 50.0, 70.0])
        z = np.repeat(np.array([DEFAULT_JA_PHYSICAL]), 3, axis=0)
        z[:, 0] *= 1.0 - 1.5e-3 * (temps - 25.0)
        z[:, 3] *= 1.0 - 4.0e-3 * (temps - 25.0)
        phys = Tensor(z)
        h = Tensor(np.zeros((3, 1)))
        want = [np.zeros(3)]
        for k in range(1, b.shape[1]):
            h = tape_ja_step_euler(h, b[:, k - 1:k], b[:, k:k + 1], phys)
            want.append(h.data[:, 0])
        got = ja_generate_field(b, temperatures=temps)
        assert got.tobytes() == np.stack(want, axis=1).tobytes()

    def test_constant_flux_keeps_field(self):
        stepped = ja_step_euler(col(37.5), 0.21, 0.21, phys_of())
        assert stepped.data.item() == 37.5  # exact

    def test_vacuum_response_when_susceptibility_zero(self):
        h = 50.0
        m = 0.0
        for _ in range(200):
            m = ja_m_an(np.array([[h + 5e-5 * m]]), 3.5e5, 30.0).data.item()
        b_k = MU0 * (h + m)
        db = 1e-6
        stepped = ja_step_euler(col(h), b_k, b_k + db, phys_of(NO_REVERSIBLE))
        assert stepped.data.item() - h == pytest.approx(db / MU0, rel=1e-6)

    @pytest.mark.parametrize("z, message", [
        (np.ones((3, 4)), "JA parameters z must be (1, 5) or (3, 5) for a state of shape (3, 1), "
                          "got (3, 4)"),
        (np.ones(5), "JA parameters z must be (1, 5) or (3, 5) for a state of shape (3, 1), "
                     "got (5,)"),
        (np.ones((2, 5)), "JA parameters z must be (1, 5) or (3, 5) for a state of shape (3, 1), "
                          "got (2, 5)"),
        (np.ones((1, 5), dtype=np.float32),
         "JA step operands must all be float64: z is float32"),
    ], ids=["width-4", "1-d", "row-mismatch", "float32"])
    def test_bad_parameters_refused(self, z, message):
        h = Tensor(np.full((3, 1), 10.0))
        with pytest.raises(ShapeError, match=f"^{re.escape(message)}$"):
            ja_step_euler(h, 0.05, 0.0503, Tensor(z))

    def test_magnetization_closure(self):
        # the step's M closes B_k = mu0 * (H_k + M_k) for every row
        h, b_k = np.array([[10.0], [-40.0], [0.0]]), np.array([[0.05], [-0.12], [0.2]])
        _, terms = ja_euler_kernel(h, b_k, b_k + 3e-4, *DEFAULT_JA_PHYSICAL)
        assert terms.m.tobytes() == (b_k / MU0 - h).tobytes()
        np.testing.assert_allclose(MU0 * (h + terms.m), b_k, rtol=1e-12)

    def test_loop_closes_and_area_positive(self):
        f = 100e3
        n = int(round(1.0 / (f * TAU)))
        t = np.arange(4 * n + 1) * TAU
        b = 0.25 * np.sin(2 * np.pi * f * t)
        h = ja_generate_field(b[None, :])[0]
        b_last, h_last = b[-n - 1:], h[-n - 1:]
        gap = abs(h_last[-1] - h_last[0])
        assert gap < 0.01 * np.max(np.abs(h_last))
        area = np.trapezoid(h_last, b_last)
        assert area > 0

    def test_area_consistent_with_fine_step_integration(self):
        f = 100e3
        base = int(round(1.0 / (f * TAU)))

        def loop_area(oversample):
            n = base * oversample
            tau = TAU / oversample
            t = np.arange(4 * n + 1) * tau
            b = 0.25 * np.sin(2 * np.pi * f * t)
            h = ja_generate_field(b[None, :])[0]
            return np.trapezoid(h[-n - 1:], b[-n - 1:])

        coarse, fine = loop_area(1), loop_area(16)
        assert coarse == pytest.approx(fine, rel=0.05)


class TestFusedJaStepOracle:
    """The one-node Euler step against its node-by-node tape reference."""

    NAMES = ("m_s", "a", "alpha_w", "k_p", "c")
    # (state shape, shape of each parameter column): ja, gru-jadp, and the
    # physics regularizer's (rows, n) residual step with per-row or shared
    # parameters
    SHAPES = [((6, 1), (1, 1)), ((6, 1), (6, 1)), ((6, 5), (6, 1)), ((6, 5), (1, 1))]

    @staticmethod
    def _case(shape, param_shape, seed):
        """States in every regime: delta == 0, the gate open and closed both ways, |x| < 0.1.

        Element i is rising, falling, constant, rising or falling for
        i % 5 = 0..4, with M below, above, on, above and below the
        anhysteretic curve, so elements 3 and 4 have the gate closed. M
        enters the step through the flux B_k = mu0 (H + M).
        """
        rng = np.random.default_rng(seed)
        values = [np.asarray(v) * rng.uniform(0.8, 1.2, param_shape) for v in DEFAULT_JA_PHYSICAL]
        m_s, a, alpha_w = values[:3]
        regime = (np.arange(shape[0] * shape[1]) % 5).reshape(shape)
        h = rng.uniform(-80.0, 80.0, shape)
        h.flat[:3] = (-1.5, 0.4, 2.0)  # small effective field: the Langevin series branch
        side = np.array([-1.0, 1.0, 0.0, 1.0, -1.0])[regime]
        offset = side * rng.uniform(500.0, 3e3, shape)
        m = offset
        for _ in range(30):  # M = M_an(H + alpha_w M) + offset, a contraction
            m = ja_m_an(h + alpha_w * m, m_s, a).data + offset
        b_k = MU0 * (h + m)
        direction = np.array([1.0, -1.0, 0.0, 1.0, -1.0])[regime]
        b_k1 = b_k + direction * rng.uniform(1e-4, 2e-3, shape)
        return h, b_k, b_k1, values

    @staticmethod
    def _run(step, h, b_k, b_k1, values, requires_grad=True):
        """Leaves H and the (rows|1, 5) z of ``values``, and the step over them."""
        z = np.concatenate(values, axis=1)
        leaves = [Tensor(v.copy(), requires_grad=requires_grad) for v in (h, z)]
        return leaves, step(leaves[0], b_k, b_k1, leaves[1])

    def test_case_covers_every_regime(self):
        for shape, param_shape in self.SHAPES:
            h, b_k, b_k1, values = self._case(shape, param_shape, seed=shape[1])
            _, terms = ja_euler_kernel(h, b_k, b_k1, *values)
            assert np.any(terms.delta == 0) and np.any(np.abs(terms.x) < 0.1)
            assert np.any((terms.delta > 0) & (terms.gate == 0))
            assert np.any((terms.delta < 0) & (terms.gate == 0))
            assert np.any((terms.delta != 0) & (terms.gate == 1))

    @pytest.mark.parametrize("shape, param_shape", SHAPES)
    def test_forward_bit_identical(self, shape, param_shape):
        case = self._case(shape, param_shape, seed=shape[1])
        _, fused = self._run(ja_step_euler, *case)
        _, ref = self._run(tape_ja_step_euler, *case)
        assert fused.data.tobytes() == ref.data.tobytes()

    # A (1, 1) parameter against a (rows, n) state sums 30 terms that cancel
    # to a few percent of their magnitude, so that sum's max is no scale for
    # rounding; the per-row shapes bound the same terms element by element.
    @pytest.mark.parametrize("shape, param_shape", SHAPES[:3])
    def test_gradients_match_tape(self, shape, param_shape):
        case = self._case(shape, param_shape, seed=shape[1] + 1)
        probe = np.random.default_rng(shape[1]).standard_normal(shape)

        def grads(step):
            leaves, out = self._run(step, *case)
            tsum(mul(out, Tensor(probe))).backward()
            g_h, g_z = (t.grad for t in leaves)
            # each parameter column on its own scale, as small as its own terms
            return {"h": g_h, **{n: g_z[:, i] for i, n in enumerate(self.NAMES)}}

        got, want = grads(ja_step_euler), grads(tape_ja_step_euler)
        for name in want:
            scale = np.max(np.abs(want[name]))
            assert scale > 0, name
            assert got[name].shape == want[name].shape, name
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name

    def test_constant_parameters(self):
        # a z that requires no gradient is a constant: only H gets a gradient
        h, b_k, b_k1, _ = self._case((6, 1), (1, 1), seed=4)
        outs = []
        for step in (ja_step_euler, tape_ja_step_euler):
            h_t = Tensor(h, requires_grad=True)
            out = step(h_t, b_k, b_k1, phys_of())
            out.sum().backward()
            outs.append((out.data, h_t.grad))
        (fh, fgh), (rh, rgh) = outs
        assert fh.tobytes() == rh.tobytes()
        np.testing.assert_allclose(fgh, rgh, rtol=0, atol=1e-12 * np.max(np.abs(rgh)))

    def test_frozen_step_records_no_parents(self):
        _, out = self._run(ja_step_euler, *self._case((6, 1), (6, 1), seed=2), requires_grad=False)
        assert not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_one_node_per_step(self):
        leaves, out = self._run(ja_step_euler, *self._case((6, 1), (6, 1), seed=3))
        assert out._parents == tuple(leaves)
        assert all(p._backward is None for p in out._parents)

    # Parameters mapped from unconstrained values: per-row (rows, 5) values
    # against (rows, 1) states as in gru-jadp, and shared (1, 5) values
    # against (rows, n) states as in the physics regularizer; the ja head
    # shares its map over every step of a rollout.
    THETA_SHAPES = [((6, 1), 6), ((6, 5), 1)]

    def _theta_case(self, shape, rows, seed):
        """The states of :meth:`_case` and the theta whose map gives its parameters."""
        h, b_k, b_k1, values = self._case(shape, (rows, 1), seed)
        frac = np.concatenate(values, axis=1) / np.array(ETA)
        return h, b_k, b_k1, np.log(frac / (1.0 - frac))

    def _theta_grads(self, step, params_of, h, b_k, b_k1, theta, n_steps=1):
        leaves = [Tensor(v.copy(), requires_grad=True) for v in (h, theta)]
        phys = params_of(leaves[1])
        out = leaves[0]
        for _ in range(n_steps):  # later steps run over the same flux increment
            out = step(out, b_k, b_k1, phys)
        probe = np.random.default_rng(7).standard_normal(h.shape)
        tsum(mul(out, Tensor(probe))).backward()
        return out, dict(zip(("h", "theta"), (t.grad for t in leaves)))

    @pytest.mark.parametrize("shape, rows", THETA_SHAPES)
    @pytest.mark.parametrize("n_steps", [1, 3])
    def test_theta_map_bit_identical_to_node_map(self, shape, rows, n_steps):
        # the fused step with the one-node map against the same step with the
        # map composed node by node: the same sums in the same order
        case = self._theta_case(shape, rows, seed=shape[1] + 2)
        fused, got = self._theta_grads(ja_step_euler, ja_params_from_theta, *case, n_steps)
        ref, want = self._theta_grads(ja_step_euler, tape_ja_params_from_theta, *case, n_steps)
        assert fused.data.tobytes() == ref.data.tobytes()
        for name in want:
            assert got[name].tobytes() == want[name].tobytes(), name

    @pytest.mark.parametrize("shape, rows", THETA_SHAPES)
    def test_theta_step_matches_tape(self, shape, rows):
        case = self._theta_case(shape, rows, seed=shape[1] + 4)
        fused, got = self._theta_grads(ja_step_euler, ja_params_from_theta, *case)
        ref, want = self._theta_grads(tape_ja_step_euler, tape_ja_params_from_theta, *case)
        assert fused.data.tobytes() == ref.data.tobytes()
        for name in want:
            scale = np.max(np.abs(want[name]))
            assert scale > 0, name
            assert np.max(np.abs(got[name] - want[name])) <= 1e-12 * scale, name


class TestJadpCoupling:
    def _setup(self, d_g=6):
        rng = np.random.default_rng(8)
        params = GruParams.init(d_g, 4, rng)
        x = rng.uniform(-0.5, 0.5, (1, 4))
        g_prev = rng.uniform(-0.5, 0.5, (1, d_g))
        return params, x, g_prev

    def test_needs_five_cells(self):
        params, x, g_prev = self._setup(d_g=4)
        with pytest.raises(PhysicsError):
            gru_jadp_step(Tensor(x), Tensor(g_prev[:, :4]), params.map(Tensor), col(10.0),
                          0.1, 0.11)

    def test_constant_flux_keeps_field(self):
        params, x, g_prev = self._setup()
        new_h, _ = gru_jadp_step(Tensor(x), Tensor(g_prev), params.map(Tensor),
                                 col(10.0), 0.1, 0.1)
        assert new_h.data.item() == 10.0

    def test_matches_manual_composition(self):
        params, x, g_prev = self._setup()
        coupled_h, coupled_g = gru_jadp_step(Tensor(x), Tensor(g_prev), params.map(Tensor),
                                             col(10.0), 0.1, 0.1002)
        g_manual = gru_step(Tensor(x), Tensor(g_prev), params.map(Tensor))
        phys = ja_params_from_theta(g_manual[:, 0:5])
        h_manual = ja_step_euler(col(10.0), 0.1, 0.1002, phys)
        np.testing.assert_array_equal(coupled_g.data, g_manual.data)
        np.testing.assert_array_equal(coupled_h.data, h_manual.data)

    def test_gradient_bit_identical_to_node_map(self):
        # the map reads and scatters into the first five hidden elements as a
        # slice, sigmoid and scale did
        params, x, g_prev = self._setup()
        b_k, b_k1 = np.array([[0.1]]), np.array([[0.1002]])
        grads = []
        for node_map in (False, True):
            leaves = params.map(lambda v: Tensor(v, requires_grad=True))
            g_in = Tensor(g_prev, requires_grad=True)
            if node_map:
                g = gru_step(Tensor(x), g_in, leaves)
                phys = tape_ja_params_from_theta(g[:, 0:5])
                out = ja_step_euler(col(10.0), b_k, b_k1, phys)
            else:
                out, g = gru_jadp_step(Tensor(x), g_in, leaves, col(10.0), b_k, b_k1)
            (out * 3.0 + g.sum()).backward()
            grads.append([g_in.grad] + [t.grad for t in leaves.as_dict().values()])
        for got, want in zip(*grads):
            assert got.tobytes() == want.tobytes()

    def test_nodes_per_step(self):
        params, x, g_prev = self._setup()
        g_prev = Tensor(g_prev, requires_grad=True)
        h_prev = col(10.0)
        new_h, g = gru_jadp_step(Tensor(x), g_prev,
                                 params.map(lambda v: Tensor(v, requires_grad=True)),
                                 h_prev, 0.1, 0.1002)
        recorded = [n for n in _toposort(new_h) if n._backward is not None]
        # the GRU cell, the parameter map over its first five elements, and H
        assert len(recorded) == 3
        h, z = new_h._parents
        assert h is h_prev and z._parents[0] is g

    def test_frozen_hidden_state_reduces_to_static_ja(self):
        params, x, g_prev = self._setup()
        params.b_z = np.full(6, 50.0)  # update gate saturated: g stays (numerically) g_prev
        coupled_h, coupled_g = gru_jadp_step(Tensor(x), Tensor(g_prev), params.map(Tensor),
                                             col(10.0), 0.1, 0.1002)
        np.testing.assert_allclose(coupled_g.data, g_prev, atol=1e-15)
        phys = ja_params_from_theta(Tensor(coupled_g.data[:, 0:5]))
        static = ja_step_euler(col(10.0), 0.1, 0.1002, phys)
        np.testing.assert_array_equal(coupled_h.data, static.data)


class TestPinnResidual:
    def test_exact_ja_trajectory_gives_zero(self):
        b = 0.2 * np.sin(np.linspace(0, 1.2, 9))[None, :]
        phys = phys_of()
        traj = [col(0.0)]
        for k in range(1, 9):
            traj.append(ja_step_euler(traj[-1], b[:, k - 1:k], b[:, k:k + 1], phys))
        from hystkit.autodiff import concat
        h_traj = concat(traj, axis=1)
        e, l_rows = pinn_ja_residual(h_traj, b, phys)
        assert np.max(np.abs(e.data)) < 1e-9
        assert l_rows.data[0].item() < 1e-9

    def test_two_step_hand_evaluation(self):
        inputs = [
            (np.array([[0.10, 0.101, 0.1005]]), np.array([[20.0, 25.0, 23.0]])),
            # 3 rows x 4 steps, each row with one zero-flux step and one flux reversal
            (np.array([[0.10, 0.101, 0.101, 0.1005, 0.1010],
                       [-0.05, -0.05, -0.049, -0.0495, -0.0502],
                       [0.0, 0.0004, 0.0002, 0.0002, 0.0006]]),
             np.array([[20.0, 25.0, 26.0, 23.0, 27.0],
                       [-10.0, -9.0, -6.0, -7.0, -9.0],
                       [0.0, 3.0, 1.0, 1.5, 4.0]])),
        ]
        phys = phys_of()
        for b, h_vals in inputs:
            e, l_rows = pinn_ja_residual(Tensor(h_vals), b, phys)
            assert e.data.shape == (h_vals.shape[0], h_vals.shape[1] - 1)
            for r in range(h_vals.shape[0]):
                manual = []
                for k in range(1, h_vals.shape[1]):
                    stepped = ja_step_euler(col(h_vals[r, k - 1]), b[r, k - 1], b[r, k], phys)
                    dh = stepped.data.item() - h_vals[r, k - 1]
                    manual.append(dh - (h_vals[r, k] - h_vals[r, k - 1]))
                np.testing.assert_allclose(e.data[r], manual, rtol=1e-12)
                assert l_rows.data[r].item() == pytest.approx(
                    np.sqrt(np.mean(np.square(manual))), rel=1e-12)

    def test_gradient_through_regularizer(self):
        b = np.array([[0.10, 0.1008, 0.1003, 0.1011]])

        def fn(theta, h_free):
            phys = ja_params_from_theta(reshape(theta, (1, 5)))
            _, l_rows = pinn_ja_residual(reshape(h_free, (1, 4)), b, phys)
            return l_rows.sum()

        graph = Graph(fn, 2)
        rng = np.random.default_rng(10)
        err = finite_diff_check(graph, [rng.uniform(-1, 1, 5),
                                        np.array([20.0, 24.0, 22.0, 26.0])], epsilon=1e-4)
        assert err < 1e-5


class TestHysteron:
    def test_huge_rising_step_saturates(self):
        # each step moves the state by at most 1, so the upper clamp engages
        # from any state >= 0
        assert preisach_hysteron(5.0, -5.0, 0.3, 0.2, -0.2) == 1.0
        assert preisach_hysteron(5.0, -5.0, 0.0, 0.2, -0.2) == 1.0
        # from the bottom it takes two saturating steps
        mid = preisach_hysteron(5.0, -5.0, -1.0, 0.2, -0.2)
        assert mid == 0.0
        assert preisach_hysteron(5.1, 5.0, mid, 0.2, -0.2) == 1.0

    def test_huge_falling_step_saturates(self):
        assert preisach_hysteron(-5.0, 5.0, -0.3, 0.2, -0.2) == -1.0
        mid = preisach_hysteron(-5.0, 5.0, 1.0, 0.2, -0.2)
        assert preisach_hysteron(-5.1, -5.0, mid, 0.2, -0.2) == -1.0

    def test_equal_input_routes_falling(self):
        # H level below alpha: the falling branch pushes down even when flat
        out = preisach_hysteron(0.0, 0.0, 1.0, 0.5, -0.5)
        assert out < 1.0

    @given(st.integers(0, 10_000))
    @settings(max_examples=120, deadline=None)
    def test_states_stay_bounded(self, seed):
        rng = np.random.default_rng(seed)
        params = init_preisach_params(n_levels=5)
        h = rng.uniform(-2.0, 2.0, size=(1, 12))
        states = hysteron_states(h, params)
        assert states.min() >= -1.0 and states.max() <= 1.0

    def test_rows_taking_different_branches_byte_equal_to_both_branch_select(self):
        # each row computes only its branch; the bytes are those of computing both
        # branches for every row and selecting, as the scalar hysteron does
        params = init_preisach_params(n_levels=9)
        rng = np.random.default_rng(7)
        h = np.cumsum(rng.standard_normal((6, 40)), axis=1) / 4
        h[2, 5:9] = h[2, 4]  # flat input takes the falling branch
        gamma = np.full((6, params.n_hysterons), -1.0)
        h_prev = np.full((6, 1), -np.inf)
        want = []
        for k in range(h.shape[1]):
            h_k = h[:, k:k + 1]
            up = np.clip(gamma + np.tanh((h_k - params.beta) / HYSTERON_SHARPNESS), -1.0, 1.0)
            down = np.clip(gamma - np.tanh((params.alpha - h_k) / HYSTERON_SHARPNESS), -1.0, 1.0)
            gamma = np.where(h_k > h_prev, up, down)
            want.append(gamma)
            h_prev = h_k
        assert hysteron_states(h, params).tobytes() == np.stack(want, axis=1).tobytes()

    def test_wiping_out(self):
        params = init_preisach_params(n_levels=9)
        sweep = np.concatenate([np.linspace(-1.5, 1.5, 25), np.linspace(1.5, -1.5, 25)])
        final = hysteron_states(sweep[None, :], params)[0, -1]
        assert np.all(np.abs(final + 1.0) < 1e-6)


class TestPreisachPredict:
    def test_linear_bypass(self):
        params = init_preisach_params(n_levels=5)
        params.omega = np.array([0.0, 1.0, 0.0])
        h = np.linspace(-0.8, 0.8, 16)
        np.testing.assert_allclose(preisach_predict(h, params).data, h, atol=1e-15)

    def test_zero_density_no_hysteron_term(self):
        params = init_preisach_params(n_levels=5)
        params.mu = np.zeros_like(params.mu)
        params.omega = np.array([0.25, 0.5, 3.0])
        h = np.linspace(-0.8, 0.8, 16)
        np.testing.assert_allclose(preisach_predict(h, params).data, 0.5 * h + 0.25, atol=1e-15)

    def test_loop_opening_matches_bruteforce(self):
        params = init_preisach_params(n_levels=7)
        params.mu = np.abs(params.mu) + 0.01
        params.omega = np.array([0.0, 0.2, 0.6])
        up = np.linspace(-1, 1, 33)
        h = np.concatenate([up, up[::-1][1:]])
        pred = preisach_predict(h, params).data

        # brute force: independent scalar simulation of every hysteron
        gammas = np.full(params.n_hysterons, -1.0)
        brute = []
        h_prev = -np.inf
        for h_k in h:
            gammas = np.array([
                preisach_hysteron(h_k, h_prev, g, a, bt, HYSTERON_SHARPNESS)
                for g, a, bt in zip(gammas, params.alpha, params.beta)])
            brute.append(0.6 * np.dot(params.mu, gammas) + 0.2 * h_k)
            h_prev = h_k
        np.testing.assert_allclose(pred, brute, atol=1e-12)

        mid_up = pred[16]
        mid_down = pred[len(up) - 1 + (len(up) - 1 - 16)]
        assert abs(mid_up - mid_down) > 1e-3

    def test_grid_shapes(self):
        alpha, beta = preisach_grid(17)
        assert len(alpha) == 153
        assert np.all(alpha >= beta)
        alpha, beta = preisach_grid(25)
        assert len(alpha) == 325

    def test_param_count(self):
        assert init_preisach_params(25).count() == 328

    def test_differentiable_in_mu_omega(self):
        params = init_preisach_params(n_levels=4)
        h = np.sin(np.linspace(0, 5, 12))

        def fn(mu, omega):
            out = preisach_predict(h, params, mu, omega)
            return (out * out).sum()

        graph = Graph(fn, 2)
        err = finite_diff_check(graph, [params.mu, params.omega])
        assert err < 1e-7

    def test_batched_rows(self):
        params = init_preisach_params(n_levels=4)
        h = np.stack([np.sin(np.linspace(0, 5, 10)), np.cos(np.linspace(0, 5, 10))])
        out = preisach_predict(h, params)
        assert out.data.shape == (2, 10)
        single = preisach_predict(h[1], params)
        np.testing.assert_allclose(out.data[1], single.data, atol=1e-15)


class TestPhysicsGradients:
    def test_ja_loss_gradient_through_rollout(self):
        # rise-and-fall flux window: both gate regimes appear, so every
        # parameter influences the output; the window contains a flux-
        # direction switch, where the relaxed 1e-4 tolerance applies
        b = (0.1 + 0.01 * np.sin(np.linspace(0, 2.5, 9)))[None, :]

        def fn(theta):
            phys = ja_params_from_theta(reshape(theta, (1, 5)))
            h = col(20.0)
            preds = []
            for k in range(1, 9):
                h = ja_step_euler(h, b[:, k - 1:k], b[:, k:k + 1], phys)
                preds.append(h)
            from hystkit.autodiff import concat
            return (concat(preds, axis=1) * 1e-2).sum()

        graph = Graph(fn, 1)
        rng = np.random.default_rng(12)
        worst = max(finite_diff_check(graph, [rng.uniform(-1.5, 1.5, 5)], epsilon=1e-5)
                    for _ in range(3))
        assert worst < 1e-4
