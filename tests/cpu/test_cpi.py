"""Tests for Luo's CPI model (Section 4.2)."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.cpu.cpi import CpiModel


def machine_model(cpi_l1_inf=1.0, h2=0.0275):
    return CpiModel(
        cpi_l1_inf=cpi_l1_inf,
        l2_accesses_per_instruction=h2,
        l2_access_penalty=10.0,
        l2_miss_penalty=300.0,
    )


class TestForwardModel:
    def test_additive_decomposition(self):
        model = machine_model()
        # CPI = 1.0 + 0.0275*10 + 0.0055*300
        assert model.cpi(0.0055) == pytest.approx(1.0 + 0.275 + 1.65)

    def test_zero_misses_floor(self):
        model = machine_model()
        assert model.cpi(0.0) == pytest.approx(1.275)

    def test_ipc_is_reciprocal(self):
        model = machine_model()
        assert model.ipc(0.0055) == pytest.approx(1.0 / model.cpi(0.0055))

    def test_cycles_scale_linearly_with_instructions(self):
        model = machine_model()
        assert model.cycles(200, 0.0055) == pytest.approx(
            2 * model.cycles(100, 0.0055)
        )

    def test_penalty_multiplier_scales_miss_component_only(self):
        model = machine_model()
        base = model.cpi(0.01)
        contended = model.cpi(0.01, miss_penalty_multiplier=2.0)
        assert contended - base == pytest.approx(0.01 * 300.0)

    def test_mpi_cannot_exceed_l2_access_rate(self):
        model = machine_model()
        with pytest.raises(ValueError):
            model.cpi(0.03)  # h2 is 0.0275

    def test_invalid_parameters_rejected(self):
        with pytest.raises(ValueError):
            CpiModel(0.0, 0.01, 10.0, 300.0)
        with pytest.raises(ValueError):
            CpiModel(1.0, -0.01, 10.0, 300.0)


class TestPaperInequality:
    """The Section 4.2 observation that justifies resource stealing."""

    @given(
        st.floats(min_value=0.0001, max_value=0.02),
        st.floats(min_value=0.01, max_value=1.0),
    )
    def test_cpi_increase_strictly_below_miss_increase(self, mpi, x):
        """An X% rise in misses yields a < X% rise in CPI whenever the
        non-miss CPI components are positive."""
        model = machine_model()
        degraded = min(mpi * (1 + x), model.l2_accesses_per_instruction)
        if degraded <= mpi:
            return
        actual_x = degraded / mpi - 1
        cpi_increase = model.cpi_increase_fraction(mpi, degraded)
        assert cpi_increase < actual_x

    def test_bzip2_ratio_roughly_one_half(self):
        # Figure 8(a): bzip2's CPI increase is roughly 1/3 to 1/2 the
        # miss increase; the asymptotic ratio is the miss CPI share.
        model = machine_model()
        share = model.miss_cpi_share(0.0055)
        assert 1 / 3 < share < 0.65

    def test_miss_cpi_share_bounds(self):
        model = machine_model()
        assert model.miss_cpi_share(0.0) == 0.0
        assert 0.0 < model.miss_cpi_share(0.02) < 1.0
