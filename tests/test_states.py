"""Unit tests for two-qubit states and entanglement metrics.

Golden expected values were frozen from an independent oracle
(scipy.linalg.sqrtm for the Uhlmann fidelity, the non-Hermitian
eigenvalue route for the concurrence); the library itself uses
eigh-based matrix square roots, so the two paths are independent.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as hst

from afcsim import states as st


def random_state(seed):
    return st.random_density_matrix(np.random.default_rng(seed))


class TestKetsAndProjectors:
    def test_bell_psi_plus_amplitudes(self):
        ket = st.bell_psi_plus()
        expected = np.array([1, 0, 0, 1]) / np.sqrt(2)
        np.testing.assert_allclose(ket, expected, atol=1e-15)

    def test_bell_orthogonal_to_el(self):
        ket = st.bell_psi_plus()
        assert abs(ket[1]) == 0.0
        assert abs(ket[2]) == 0.0

    def test_bell_self_fidelity(self):
        p = st.projector(st.bell_psi_plus())
        assert st.fidelity(p, p) == pytest.approx(1.0, abs=1e-12)


class TestNearestPsd:
    def test_idempotent_on_valid_state(self):
        rho = st.werner_state(0.7)
        out = st.nearest_psd(rho)
        np.testing.assert_allclose(out, rho, atol=1e-12)

    def test_clipping_example(self):
        m = np.diag([1.001, 0.0, 0.0, -0.001]).astype(complex)
        out = st.nearest_psd(m)
        np.testing.assert_allclose(out, np.diag([1.0, 0, 0, 0]), atol=1e-12)

    def test_repairs_rounded_fixture(self, rho_after):
        out = st.nearest_psd(rho_after)
        assert np.linalg.eigvalsh(out).min() >= 0.0
        assert np.trace(out).real == pytest.approx(1.0, abs=1e-12)
        # acceptance-level bound: repair moves the matrix only slightly
        assert np.linalg.norm(out - rho_after) < 0.02

    def test_rejects_badly_negative(self):
        m = np.diag([0.8, 0.2, 0.1, -0.1]).astype(complex)
        with pytest.raises(ValueError, match="corrupted"):
            st.nearest_psd(m)

    def test_rejects_far_trace(self):
        with pytest.raises(ValueError, match="trace"):
            st.nearest_psd(np.eye(4) / 2)

    def test_rejects_non_hermitian(self):
        m = np.eye(4, dtype=complex) / 4
        m[2, 3] = 0.01
        with pytest.raises(ValueError, match="Hermitian"):
            st.nearest_psd(m)

    def test_output_always_valid(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            rho = st.random_density_matrix(rng)
            noisy = rho + 1e-3 * np.diag(rng.normal(size=4))
            noisy = 0.5 * (noisy + noisy.conj().T)
            noisy /= np.trace(noisy).real
            out = st.nearest_psd(noisy)
            assert np.max(np.abs(out - out.conj().T)) <= 1e-10
            assert abs(np.trace(out).real - 1.0) <= 1e-10
            assert abs(np.trace(out).imag) <= 1e-10
            assert np.linalg.eigvalsh(out).min() >= -1e-8


class TestFidelity:
    def test_pure_state_reduction(self):
        # F(rho, |psi><psi|) = <psi|rho|psi>
        rng = np.random.default_rng(3)
        psi = st.bell_psi_plus()
        for _ in range(20):
            rho = st.random_density_matrix(rng)
            direct = float((psi.conj() @ rho @ psi).real)
            assert st.fidelity(rho, st.projector(psi)) == pytest.approx(direct, abs=1e-10)

    def test_symmetry(self):
        rng = np.random.default_rng(4)
        for _ in range(20):
            a, b = st.random_density_matrix(rng), st.random_density_matrix(rng)
            assert st.fidelity(a, b) == pytest.approx(st.fidelity(b, a), abs=1e-10)

    def test_self_fidelity_is_one(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            rho = st.random_density_matrix(rng)
            assert st.fidelity(rho, rho) == pytest.approx(1.0, abs=1e-10)

    def test_golden_before_vs_bell(self, rho_before):
        # frozen oracle: 0.913413 after PSD repair (0.9125 on the raw matrix)
        f = st.fidelity(rho_before, st.projector(st.bell_psi_plus()))
        assert f == pytest.approx(0.9134134, abs=2e-6)

    def test_golden_input_output(self, rho_before, rho_after):
        f = st.fidelity(rho_before, rho_after)
        assert f == pytest.approx(0.9337758, abs=2e-6)

    def test_rejects_garbage(self):
        with pytest.raises(ValueError):
            st.fidelity(np.eye(4), np.eye(4) / 4)


class TestPurity:
    def test_pure_and_mixed_extremes(self):
        assert st.purity(st.projector(st.bell_psi_plus())) == pytest.approx(1.0, abs=1e-12)
        assert st.purity(np.eye(4) / 4) == pytest.approx(0.25, abs=1e-12)

    def test_golden_before(self, rho_before):
        # 0.838377 on the raw rounded matrix; 0.840056 after PSD repair
        assert st.purity(rho_before) == pytest.approx(0.8400563, abs=2e-6)

    def test_range(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            p = st.purity(st.random_density_matrix(rng))
            assert 0.25 <= p <= 1.0 + 1e-12


class TestConcurrenceAndEof:
    def test_bell_state_maximal(self):
        p = st.projector(st.bell_psi_plus())
        assert st.concurrence(p) == pytest.approx(1.0, abs=1e-10)
        assert st.entanglement_of_formation(p) == pytest.approx(1.0, abs=1e-10)

    def test_maximally_mixed_zero(self):
        assert st.concurrence(np.eye(4) / 4) == 0.0
        assert st.entanglement_of_formation(np.eye(4) / 4) == 0.0

    def test_golden_before(self, rho_before):
        assert st.concurrence(rho_before) == pytest.approx(0.8286204, abs=2e-6)
        assert st.entanglement_of_formation(rho_before) == pytest.approx(0.7603402, abs=2e-6)

    def test_golden_after(self, rho_after):
        assert st.entanglement_of_formation(rho_after) == pytest.approx(0.6536978, abs=2e-6)

    def test_eof_monotone_in_concurrence(self):
        # Werner family: concurrence grows with V, EoF must follow.
        vs = np.linspace(0.35, 1.0, 14)
        eofs = [st.entanglement_of_formation(st.werner_state(v)) for v in vs]
        assert all(b >= a - 1e-12 for a, b in zip(eofs, eofs[1:]))

    @given(hst.floats(min_value=0.0, max_value=1.0))
    @settings(max_examples=40, deadline=None)
    def test_werner_concurrence_closed_form(self, v):
        # C(rho_V) = max(0, (3V - 1) / 2)
        expected = max(0.0, (3.0 * v - 1.0) / 2.0)
        assert st.concurrence(st.werner_state(v)) == pytest.approx(expected, abs=1e-9)


class TestBinaryEntropy:
    def test_edges(self):
        assert st.binary_entropy(0.0) == 0.0
        assert st.binary_entropy(1.0) == 0.0
        assert st.binary_entropy(0.5) == pytest.approx(1.0)

    @given(hst.floats(min_value=1e-6, max_value=0.5))
    @settings(max_examples=30, deadline=None)
    def test_symmetry(self, x):
        assert st.binary_entropy(x) == pytest.approx(st.binary_entropy(1 - x), rel=1e-10)


class TestStacks:
    """A ``(..., 4, 4)`` stack gives, bit for bit, what its slices give."""

    @pytest.fixture()
    def stack(self, rho_before, rho_after):
        rng = np.random.default_rng(12)
        states = [st.random_density_matrix(rng) for _ in range(30)]
        states += [rho_before, rho_after, st.werner_state(0.2), st.projector(st.bell_psi_plus())]
        return np.array(states)

    def test_nearest_psd(self, stack):
        out = st.nearest_psd(stack)
        assert out.shape == stack.shape
        for rho, row in zip(stack, out):
            np.testing.assert_array_equal(row, st.nearest_psd(rho))

    @pytest.mark.parametrize("metric", [st.purity, st.concurrence, st.entanglement_of_formation])
    def test_single_state_metrics(self, stack, metric):
        values = metric(stack)
        assert values.shape == (len(stack),)
        assert all(isinstance(metric(rho), float) for rho in stack[:2])
        np.testing.assert_array_equal(values, [metric(rho) for rho in stack])
        grid = metric(stack.reshape(2, -1, 4, 4))
        np.testing.assert_array_equal(grid, values.reshape(2, -1))

    def test_fidelity_stack_against_one_matrix(self, stack, rho_after):
        bell = st.projector(st.bell_psi_plus())
        for other in (bell, rho_after):
            values = st.fidelity(stack, other)
            np.testing.assert_array_equal(values, [st.fidelity(rho, other) for rho in stack])
            swapped = st.fidelity(other, stack)
            np.testing.assert_array_equal(swapped, [st.fidelity(other, rho) for rho in stack])

    def test_fidelity_stack_against_stack(self, stack):
        others = stack[::-1]
        values = st.fidelity(stack, others)
        expected = [st.fidelity(a, b) for a, b in zip(stack, others)]
        np.testing.assert_array_equal(values, expected)

    def test_one_corrupted_state_rejects_the_stack(self, stack):
        bad = stack.copy()
        bad[3] = np.diag([0.8, 0.2, 0.1, -0.1])
        with pytest.raises(ValueError, match="corrupted"):
            st.purity(bad)


class TestTraceDistance:
    def test_zero_on_identical(self):
        rho = st.werner_state(0.5)
        assert st.trace_distance(rho, rho) == 0.0

    def test_orthogonal_pure_states(self):
        a = st.projector(np.eye(4)[0])
        b = st.projector(np.eye(4)[1])
        assert st.trace_distance(a, b) == pytest.approx(1.0, abs=1e-12)


class TestSerialization:
    def test_round_trip(self, tmp_path, rho_after):
        path = tmp_path / "rho.txt"
        st.save_density_matrix(path, rho_after)
        back = st.load_density_matrix(path)
        np.testing.assert_allclose(back, rho_after, atol=1e-6)

    def test_header_documents_basis(self, tmp_path):
        path = tmp_path / "rho.txt"
        st.save_density_matrix(path, np.eye(4) / 4)
        text = path.read_text()
        assert "ee el le ll" in text

    def test_parse_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            st.parse_density_matrix("1+0j 0+0j\n0+0j 1+0j\n")
